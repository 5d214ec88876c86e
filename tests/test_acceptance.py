"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The expensive fixtures (a full default-hyperparameter training run on the
skewed toy scenario) are shared with the regular test modules via
conftest.  Criterion 7 trains three seeds on the canonical 25-scenario
training set and takes a few minutes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import signalshift as ss
from signalshift.cli import main as cli_main
from signalshift.harness import percent_delta
from signalshift.network import PARAM_FIELDS
from signalshift.seeding import spawn_rng

from conftest import (
    PEAK_BASES,
    SYNTHETIC_BASES,
    SYNTHETIC_SHARES_PCT,
    batch_of,
    obs_row,
    synthetic_base_list,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{title}]: PASS")


# ---------------------------------------------------------------------------

def test_criterion_01_movement_distribution_fidelity():
    with criterion(1, "movement-distribution fidelity"):
        for label, volumes in SYNTHETIC_BASES.items():
            shares = ss.movement_distribution(volumes).p * 100.0
            printed = np.array(SYNTHETIC_SHARES_PCT[label])
            assert np.all(np.abs(shares - printed) <= 0.1), label
        # the first synthetic row's printed total (1313) disagrees with its
        # movement columns (1303); the percentages match the column sum
        assert sum(SYNTHETIC_BASES["base1"]) == 1303
        for label, volumes in PEAK_BASES.items():
            d = ss.movement_distribution(volumes)
            assert abs(float(d.p.sum()) - 1.0) < 1e-9, label
        assert sum(PEAK_BASES["am_peak"]) == 1236


def test_criterion_02_kl_oracle():
    with criterion(2, "KL oracle"):
        d = ss.kl_distance([0.5, 0.5], [0.25, 0.75], epsilon=0.0)
        assert abs(d - 0.143841) <= 1e-6
        p = ss.movement_distribution(SYNTHETIC_BASES["base2"])
        assert ss.kl_distance(p, p) == 0.0
        forward = ss.kl_distance([0.5, 0.5], [0.25, 0.75], epsilon=0.0)
        backward = ss.kl_distance([0.25, 0.75], [0.5, 0.5], epsilon=0.0)
        assert forward != backward


def test_criterion_03_gradient_correctness():
    with criterion(3, "gradient correctness vs finite differences"):
        config = ss.IntersectionConfig()
        params = ss.init_params((16, 16), seed=3)
        # move biases off zero so no pre-activation sits exactly on a relu
        # kink, where central differences are undefined
        jitter = np.random.default_rng(5)
        params.b_e += jitter.uniform(0.02, 0.2, params.b_e.shape)
        params.b_c += jitter.uniform(0.02, 0.2, params.b_c.shape)

        rng = np.random.default_rng(0)

        def rand_obs():
            phase = int(rng.integers(config.n_phases))
            flags = np.array([1 if m in config.phases[phase] else 0
                              for m in range(8)])
            return obs_row(rng.integers(0, 12, 8), flags)

        batch = batch_of([(rand_obs(), int(rng.integers(4)),
                           -float(rng.integers(0, 30)), rand_obs())
                          for _ in range(6)])
        target = ss.bind(ss.init_params((16, 16), seed=7), config)
        _, grads = ss.bellman_grads(ss.bind(params, config), batch, target, 0.8)

        h = 1e-6
        checked = 0
        for name in PARAM_FIELDS:
            flat = getattr(params, name).reshape(-1)
            analytic = getattr(grads, name).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up, _ = ss.bellman_grads(ss.bind(params, config), batch, target, 0.8)
                flat[i] = orig - h
                down, _ = ss.bellman_grads(ss.bind(params, config), batch, target, 0.8)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                rel = abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-8)
                assert rel < 1e-4, (name, i, rel)
                checked += 1
        assert checked >= 100  # every coordinate of every tensor (593 total)


def test_criterion_04_phase_permutation_equivariance():
    with criterion(4, "phase-permutation equivariance"):
        config = ss.IntersectionConfig()
        params = ss.init_params((16, 16), seed=11)
        rng = np.random.default_rng(12)
        for _ in range(50):
            phase = int(rng.integers(config.n_phases))
            flags = np.array([1 if m in config.phases[phase] else 0
                              for m in range(8)])
            obs = obs_row(rng.integers(0, 25, 8), flags)
            q = ss.frap_forward(ss.bind(params, config), obs)
            for perm in itertools.permutations(range(config.n_phases)):
                permuted = replace(config,
                                   phases=tuple(config.phases[p] for p in perm))
                q_perm = ss.frap_forward(ss.bind(params, permuted), obs)
                assert np.max(np.abs(q_perm - q[list(perm)])) <= 1e-9


def test_criterion_05_conservation_and_lone_vehicle():
    with criterion(5, "simulator conservation + lone-vehicle oracle"):
        config = ss.IntersectionConfig(horizon=1200.0, drain=300.0)
        rng = np.random.default_rng(42)
        for trial in range(20):
            volumes = rng.integers(0, 80, size=8)
            flow = ss.sample_arrivals(volumes, config.horizon,
                                      int(rng.integers(10_000)))
            policy = ss.RandomPolicy(config, seed=trial)
            # validate=True asserts pending+queued+completed == arrivals
            # after every tick
            result = ss.run_episode(config, flow, policy, seed=trial,
                                    validate=True)
            assert result.completed_count + result.residual_count == len(flow)

        default = ss.IntersectionConfig()
        lone = ss.run_episode(default, ss.FlowSpec([(0.0, 0)], horizon=3600.0),
                              lambda obs: 0)
        assert 20.0 <= lone.avg_travel_time <= 22.0


def test_criterion_06_learning_sanity(toy_training):
    with criterion(6, "DQN learning sanity on the 90%-skew toy"):
        tt = toy_training
        assert tt.dqn.avg_travel_time <= 0.9 * tt.fixed_time.avg_travel_time
        assert tt.dqn.avg_travel_time <= 1.1 * tt.max_pressure.avg_travel_time
        # training-loss trend at default hyperparameters: last tenth of the
        # updates averages below the first tenth
        losses = [row.loss for row in tt.result.log]
        tenth = max(1, len(losses) // 10)
        assert np.mean(losses[-tenth:]) < np.mean(losses[:tenth])


@pytest.fixture(scope="module")
def shift_experiment():
    """Frozen training-set models evaluated on near/far KL buckets."""
    config = ss.IntersectionConfig()
    bases = synthetic_base_list()
    train = ss.make_training_set(bases, seed=7)
    train_dist = ss.average_training_distribution(train)

    total = 1900

    def scenario_from_shares(shares, seed, label):
        volumes = np.floor(np.asarray(shares) * total + 0.5).astype(int)
        return ss.sample_arrivals(volumes, config.horizon, seed, label=label)

    def corridor(m1, m2, heavy=0.41):
        shares = np.full(8, (1 - 2 * heavy) / 6)
        shares[m1] = heavy
        shares[m2] = heavy
        return shares

    near = [scenario_from_shares(train_dist.p, 100 + i, f"near{i}")
            for i in range(3)]
    # heavy demand on two movements served by different phases: the
    # direction-shift pattern the training distribution never contains
    far = [scenario_from_shares(corridor(6, 7), 200, "far0"),
           scenario_from_shares(corridor(1, 2), 201, "far1"),
           scenario_from_shares(corridor(2, 3), 202, "far2")]

    kl = {f.label: ss.kl_distance(
        train_dist, ss.movement_distribution(f.movement_counts()))
        for f in near + far}

    near_times, far_times = [], []
    for seed in (0, 1, 2):
        result = ss.train_dqn(config, train, ss.DqnHyper(seed=seed))
        policy = ss.GreedyPolicy(result.params, config)
        near_times += [ss.run_episode(config, f, policy).avg_travel_time
                       for f in near]
        far_times += [ss.run_episode(config, f, policy).avg_travel_time
                      for f in far]
    return kl, near_times, far_times


def test_criterion_07_shift_degradation(shift_experiment):
    with criterion(7, "travel time degrades with KL distance"):
        kl, near_times, far_times = shift_experiment
        for label, value in kl.items():
            if label.startswith("near"):
                assert value <= 0.05, (label, value)
            else:
                assert value >= 0.2, (label, value)
        assert np.mean(far_times) >= 1.05 * np.mean(near_times)


def test_criterion_08_adaptation_speed(toy_training):
    with criterion(8, "adaptation much faster than training"):
        tt = toy_training
        # a checkpoint's provenance does not affect adaptation cost; build a
        # small one, then adapt at the default budget on the same scenario
        hyper = ss.MetaHyper(meta_iterations=2, task_batch=1, seed=0)
        checkpoint = ss.train_metalight(tt.config, [tt.flow], hyper).checkpoint
        adapted = ss.adapt_to_scenario(checkpoint, tt.flow, tt.config, seed=0)
        assert checkpoint.hyper.adapt_data_budget == 1 and checkpoint.hyper.adapt_steps == 3
        assert adapted.wall_time_s <= tt.dqn_time / 10.0


def test_criterion_09_ablation_rows(tmp_path):
    with criterion(9, "gradient-step ablation emits the five default rows"):
        config = ss.IntersectionConfig(horizon=300.0, drain=120.0)
        flows = [ss.sample_arrivals([8, 30, 4, 6, 8, 30, 4, 6], 300.0, s)
                 for s in (1, 2)]
        hyper = ss.MetaHyper(meta_iterations=2, task_batch=2, seed=4)
        checkpoint = ss.train_metalight(config, flows, hyper).checkpoint
        first = ss.ablate_steps(checkpoint, flows, [1, 2, 3, 5, 10], config, seed=5)
        second = ss.ablate_steps(checkpoint, flows, [1, 2, 3, 5, 10], config, seed=5)
        assert [r.k for r in first] == [1, 2, 3, 5, 10]
        assert first == second
        # the shape of the curve is reported, never asserted


def _tree_bytes(root, exclude=()):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in exclude}


# SHA-256 of every output of the criterion-10 pipeline.  A change that
# moves one of them must re-pin it and say why in CHANGES.md.
GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "criterion10_sha256.json"


def _tree_digests(root, exclude=()):
    return {path.as_posix(): hashlib.sha256(data).hexdigest()
            for path, data in _tree_bytes(root, exclude).items()}


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "CLI stages byte-identical across reruns"):
        bases_path = tmp_path / "bases.csv"
        ss.write_bases_csv(synthetic_base_list()[:2], bases_path)
        config = tmp_path / "config.txt"
        config.write_text("horizon=300.0\ndrain=120.0\nepisodes=2\n"
                          "meta_iterations=2\ntask_batch=2\n")

        def run(stage_args, out):
            assert cli_main([*stage_args, "--config", str(config),
                             "--out", str(out)]) == 0

        sets = {}
        for attempt in ("a", "b"):
            root = tmp_path / attempt
            run(["gen", "--bases", str(bases_path), "--seed", "9"], root / "gen")
            sets[attempt] = root / "gen"
            run(["train-dqn", "--scenarios", str(root / "gen" / "train"),
                 "--seed", "9"], root / "dqn")
            run(["train-meta", "--scenarios", str(root / "gen" / "train"),
                 "--seed", "9"], root / "meta")
            scenario = sorted((root / "gen" / "test").glob("*.csv"))[0]
            run(["adapt", "--checkpoint", str(root / "meta" / "meta_checkpoint.txt"),
                 "--scenario", str(scenario), "--seed", "9"], root / "adapt")
            manifest = root / "manifest.txt"
            manifest.write_text(
                f"train_dir={root / 'gen' / 'train'}\n"
                f"test_dir={root / 'gen' / 'test'}\n"
                f"out={root / 'report'}\n"
                f"config={config}\n"
                "algorithms=metalight,rl_adapt,rl_no_adapt\n"
                "seeds=9\n")
            assert cli_main(["report", "--manifest", str(manifest)]) == 0

        for stage in ("gen", "dqn", "meta", "adapt"):
            assert _tree_bytes(tmp_path / "a" / stage) == \
                _tree_bytes(tmp_path / "b" / stage), stage
        # timing.csv holds wall-clock measurements and is the one report
        # file documented as non-reproducible
        assert _tree_bytes(tmp_path / "a" / "report", exclude=("timing.csv",)) == \
            _tree_bytes(tmp_path / "b" / "report", exclude=("timing.csv",))
        # manifest.txt is an input naming this run's temporary paths
        assert _tree_digests(tmp_path / "a", exclude=("timing.csv", "manifest.txt")) \
            == json.loads(GOLDEN_DIGESTS.read_text())


def test_criterion_11_experiment_shape(tmp_path):
    with criterion(11, "pivot shape, best marking, delta formula"):
        config = tmp_path / "config.txt"
        config.write_text("horizon=300.0\ndrain=120.0\nepisodes=2\n"
                          "meta_iterations=2\ntask_batch=2\n")
        rng = np.random.default_rng(3)
        train_dir = tmp_path / "train"
        test_dir = tmp_path / "test"
        train_dir.mkdir(), test_dir.mkdir()
        for i in range(3):
            ss.write_flow_csv(
                ss.sample_arrivals(rng.integers(5, 40, 8), 300.0, i, label=f"tr{i}"),
                train_dir / f"tr{i}.csv")
        for i in range(5):
            ss.write_flow_csv(
                ss.sample_arrivals(rng.integers(5, 40, 8), 300.0, 50 + i,
                                   label=f"scenario{i}"),
                test_dir / f"scenario{i}.csv")

        manifest = ss.ExperimentManifest(
            train_dir, test_dir, tmp_path / "out",
            algorithms=["metalight", "rl_adapt", "rl_no_adapt"],
            seeds=[0], config_path=config)
        records = ss.run_experiment(manifest)

        lines = (tmp_path / "out" / "report_pivot.csv").read_text().splitlines()
        header = lines[1].split(",")
        body = [line.split(",") for line in lines[2:]]
        assert len(header) == 1 + 5 and len(body) == 3
        assert [row[0] for row in body] == manifest.algorithms

        means = {(r.algorithm, r.scenario): r.avg_travel_time for r in records}
        for col, scenario in enumerate(header[1:], start=1):
            best = min(means[(alg, scenario)] for alg in manifest.algorithms)
            stars = 0
            for row in body:
                cell = row[col]
                if cell.endswith("*"):
                    stars += 1
                    assert means[(row[0], scenario)] == best
                else:
                    value, delta = cell.split(" (+")
                    expected = percent_delta(means[(row[0], scenario)], best)
                    assert int(delta.rstrip("%)")) == expected
            assert stars >= 1  # per-column best is marked
        # the timing table has a row for each training and each adaptation
        timing_rows = [line.split(",")[0] for line in
                       (tmp_path / "out" / "timing.csv").read_text().splitlines()[2:]]
        assert timing_rows == ["metalight_training_base_model",
                               "metalight_adapting_base_model",
                               "dqn_training_from_scratch",
                               "dqn_adapting_trained_model"]
