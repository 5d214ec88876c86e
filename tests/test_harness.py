import numpy as np
import pytest

import signalshift as ss
from signalshift import harness
from signalshift.cli import main
from signalshift.harness import percent_delta

from conftest import param_distance, synthetic_base_list


def small_config_file(tmp_path, **extra):
    overrides = dict(horizon=300.0, drain=120.0, episodes=2, meta_iterations=2,
                     task_batch=2, adapt_data_budget=1)
    overrides.update(extra)
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in overrides.items()))
    return path


def write_sets(tmp_path, n_train=3, n_test=2, horizon=300.0):
    rng = np.random.default_rng(0)
    train_dir = tmp_path / "train"
    test_dir = tmp_path / "test"
    train_dir.mkdir(), test_dir.mkdir()
    for i in range(n_train):
        vols = rng.integers(5, 40, size=8)
        ss.write_flow_csv(ss.sample_arrivals(vols, horizon, 10 + i, label=f"tr{i}"),
                          train_dir / f"tr{i}.csv")
    for i in range(n_test):
        vols = rng.integers(5, 40, size=8)
        ss.write_flow_csv(ss.sample_arrivals(vols, horizon, 50 + i, label=f"te{i}"),
                          test_dir / f"te{i}.csv")
    return train_dir, test_dir


def small_scenario(label="s", seed=1):
    return ss.sample_arrivals([8, 30, 4, 6, 8, 30, 4, 6], 300.0, seed, label=label)


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_is_deterministic():
    cfg = ss.IntersectionConfig(horizon=300.0, drain=120.0)
    scenario = small_scenario()
    a = ss.evaluate(ss.MaxPressurePolicy(cfg), scenario, cfg, seed=3)
    b = ss.evaluate(ss.MaxPressurePolicy(cfg), scenario, cfg, seed=3)
    assert (a.avg_travel_time, a.completed, a.residual) == \
        (b.avg_travel_time, b.completed, b.residual)


def test_evaluate_fixed_time_lone_vehicle_oracle():
    # vehicle on movement 1 reaches the stop line at t=20 during phase 2
    # (fixed-time cycle 0,1,2,3); phase 1 is chosen again at t=50, spends
    # 3s all-red, goes green at t=53, and two green ticks accumulate the
    # whole service credit, so the vehicle exits at t=55
    cfg = ss.IntersectionConfig()
    flow = ss.FlowSpec([(0.0, 1)], horizon=3600.0)
    record = ss.evaluate(ss.FixedTimePolicy(cfg), flow, cfg, algorithm="fixed_time")
    assert record.avg_travel_time == 55.0


def test_evaluate_max_pressure_beats_fixed_time_on_skew():
    cfg = ss.IntersectionConfig(horizon=600.0, drain=300.0)
    flow = ss.sample_arrivals([5, 90, 5, 5, 5, 90, 5, 5], 600.0, 4)
    mp = ss.evaluate(ss.MaxPressurePolicy(cfg), flow, cfg)
    ft = ss.evaluate(ss.FixedTimePolicy(cfg), flow, cfg)
    assert mp.avg_travel_time <= ft.avg_travel_time


def test_evaluate_params_and_kl():
    cfg = ss.IntersectionConfig(horizon=300.0, drain=120.0)
    scenario = small_scenario()
    train_dist = ss.movement_distribution([1] * 8)
    record = ss.evaluate(ss.init_params((8, 8), seed=0), scenario, cfg,
                         train_dist=train_dist, algorithm="rl_no_adapt")
    expected = ss.kl_distance(train_dist,
                              ss.movement_distribution(scenario.movement_counts()))
    assert record.kl_to_train == expected
    assert record.algorithm == "rl_no_adapt"


# ---------------------------------------------------------------------------
# emit_curve

def records_with_kl(kls):
    return [ss.EvalRecord("alg", f"s{i}", 50.0 + i, 10, 0, kl, 0)
            for i, kl in enumerate(kls)]


def test_emit_curve_sorts_by_kl():
    text = ss.emit_curve(records_with_kl([0.5, 0.1, 0.3]))
    rows = [line.split(",") for line in text.splitlines()[2:]]
    kls = [float(r[0]) for r in rows]
    assert kls == sorted([0.5, 0.1, 0.3])


def test_emit_curve_preserves_sorted_input_order():
    records = records_with_kl([0.1, 0.2, 0.3])
    text = ss.emit_curve(records)
    rows = text.splitlines()[2:]
    assert [r.split(",")[1] for r in rows] == ["alg"] * 3
    assert [float(r.split(",")[0]) for r in rows] == [0.1, 0.2, 0.3]


def test_emit_curve_single_record():
    text = ss.emit_curve(records_with_kl([0.2]))
    assert len(text.splitlines()) == 3


def test_emit_curve_requires_kl():
    record = ss.EvalRecord("alg", "s", 50.0, 10, 0, None, 0)
    with pytest.raises(ValueError):
        ss.emit_curve([record])


# ---------------------------------------------------------------------------
# manifest

def test_manifest_round_trip(tmp_path):
    train_dir, test_dir = write_sets(tmp_path)
    path = tmp_path / "manifest.txt"
    path.write_text(f"""# schema=1
train_dir={train_dir}
test_dir={test_dir}
out={tmp_path / 'out'}
algorithms=fixed_time,max_pressure
seeds=0,1
""")
    manifest = ss.load_manifest(path)
    assert manifest.algorithms == ["fixed_time", "max_pressure"]
    assert manifest.seeds == [0, 1]


def test_manifest_validations(tmp_path):
    train_dir, test_dir = write_sets(tmp_path)
    with pytest.raises(FileNotFoundError):
        ss.load_manifest(tmp_path / "nope.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("train_dir=x\n")
    with pytest.raises(ValueError, match="missing keys"):
        ss.load_manifest(bad)
    bad.write_text("# schema=1\ntrain_dir x\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: expected key=value"):
        ss.load_manifest(bad)
    bad.write_text("# schema=1\ntrain_dir=x\ntest_dir=y\nout=z\nseeds=0,one\n")
    with pytest.raises(ss.ParseError, match=r"bad\.txt:5: seeds: .*'one'"):
        ss.load_manifest(bad)
    with pytest.raises(ValueError, match="unknown algorithms"):
        ss.ExperimentManifest(train_dir, test_dir, tmp_path / "o",
                              algorithms=["sotl"])
    with pytest.raises(ValueError, match="seed"):
        ss.ExperimentManifest(train_dir, test_dir, tmp_path / "o", seeds=[])
    with pytest.raises(FileNotFoundError):
        ss.ExperimentManifest(tmp_path / "missing", test_dir, tmp_path / "o")


# ---------------------------------------------------------------------------
# run_experiment

@pytest.fixture(scope="module")
def tiny_experiment(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("exp")
    train_dir, test_dir = write_sets(tmp_path)
    config = small_config_file(tmp_path)
    out = tmp_path / "out"
    manifest = ss.ExperimentManifest(
        train_dir, test_dir, out,
        algorithms=["metalight", "rl_adapt", "rl_no_adapt", "max_pressure"],
        seeds=[0, 1], config_path=config)
    records = ss.run_experiment(manifest)
    return manifest, records, out


def test_experiment_writes_all_reports(tiny_experiment):
    _, records, out = tiny_experiment
    for name in ("report_long.csv", "report_summary.csv", "report_pivot.csv",
                 "timing.csv", "curve.csv", "status.txt"):
        assert (out / name).exists()
    assert (out / "status.txt").read_text() == "status=ok\n"
    assert len(records) == 4 * 2 * 2  # algorithms x scenarios x seeds


def test_experiment_timing_rows(tiny_experiment):
    _, _, out = tiny_experiment
    rows = [line.split(",")[0] for line in
            (out / "timing.csv").read_text().splitlines()[2:]]
    assert rows == ["metalight_training_base_model",
                    "metalight_adapting_base_model",
                    "dqn_training_from_scratch",
                    "dqn_adapting_trained_model"]


def test_experiment_pivot_shape_and_deltas(tiny_experiment):
    manifest, records, out = tiny_experiment
    lines = (out / "report_pivot.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[0] == "algorithm" and len(header) == 3  # 2 scenarios
    body = [line.split(",") for line in lines[2:]]
    assert [row[0] for row in body] == manifest.algorithms

    means: dict[tuple[str, str], list[float]] = {}
    for r in records:
        means.setdefault((r.algorithm, r.scenario), []).append(r.avg_travel_time)
    for col, scenario in enumerate(header[1:], start=1):
        column_means = {alg: float(np.mean(means[(alg, scenario)]))
                        for alg in manifest.algorithms}
        best = min(column_means.values())
        for row in body:
            cell = row[col]
            if cell.endswith("*"):
                assert float(cell[:-1]) == pytest.approx(best, abs=0.05)
            else:
                value, delta = cell.split(" (+")
                expected = percent_delta(column_means[row[0]], best)
                assert int(delta.rstrip("%)")) == expected


def test_experiment_kl_recomputable(tiny_experiment):
    manifest, _, out = tiny_experiment
    train = ss.load_scenario_dir(manifest.train_dir, kind="training")
    test = {f.label: f for f in ss.load_scenario_dir(manifest.test_dir)}
    train_dist = ss.average_training_distribution(train)
    for line in (out / "report_long.csv").read_text().splitlines()[2:]:
        parts = line.split(",")
        scenario, kl = parts[1], float(parts[6])
        expected = ss.kl_distance(
            train_dist,
            ss.movement_distribution(test[scenario].movement_counts()))
        assert kl == expected  # bit-equal through the CSV round trip


def test_experiment_curve_sorted(tiny_experiment):
    _, _, out = tiny_experiment
    kls = [float(line.split(",")[0]) for line in
           (out / "curve.csv").read_text().splitlines()[2:]]
    assert kls == sorted(kls)


def test_experiment_single_cell_report(tmp_path):
    train_dir, test_dir = write_sets(tmp_path, n_train=2, n_test=1)
    out = tmp_path / "out"
    manifest = ss.ExperimentManifest(train_dir, test_dir, out,
                                     algorithms=["max_pressure"], seeds=[0],
                                     config_path=small_config_file(tmp_path))
    records = ss.run_experiment(manifest)
    assert len(records) == 1
    body = (out / "report_long.csv").read_text().splitlines()[2:]
    assert len(body) == 1


def test_experiment_stage_error_flags_output(tmp_path, monkeypatch):
    train_dir, test_dir = write_sets(tmp_path)

    def broken_episode(*args, **kwargs):
        raise RuntimeError("simulator fault")

    monkeypatch.setattr(harness, "run_episode", broken_episode)
    out = tmp_path / "out"
    manifest = ss.ExperimentManifest(train_dir, test_dir, out,
                                     algorithms=["fixed_time"], seeds=[0],
                                     config_path=small_config_file(tmp_path))
    with pytest.raises(ss.ExperimentError, match=r"\[evaluate\] simulator fault") as err:
        ss.run_experiment(manifest)
    assert err.value.stage == "evaluate"
    status = (out / "status.txt").read_text()
    assert "status=failed" in status and "stage=evaluate" in status


@pytest.mark.parametrize("kind", ["train", "test"])
def test_flows_a_report_cannot_score_or_hold_fail_at_setup(tmp_path, capsys, kind):
    # a 4-movement test flow under the 8-movement config was once refused
    # only after both trainings, and two test flows with one label merged
    # into one report cell; both are now named at setup, before any training
    train_dir, test_dir = write_sets(tmp_path)
    ss.write_flow_csv(ss.FlowSpec([(1.0, 0)], horizon=300.0, n_movements=4, label="zz_four"),
                      (train_dir if kind == "train" else test_dir) / "zz_four.csv")
    ss.write_flow_csv(ss.sample_arrivals([9] * 8, 300.0, 7, label="te0"),
                      test_dir / "zz_twin.csv")
    out = tmp_path / "out"
    path = tmp_path / "manifest.txt"
    path.write_text(f"train_dir={train_dir}\ntest_dir={test_dir}\nout={out}\n"
                    f"config={small_config_file(tmp_path)}\n"
                    "algorithms=metalight,rl_adapt,fixed_time\n")
    assert main(["report", "--manifest", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR[validation]: [setup] flows whose movement count is not "
                          "the config's 8: zz_four (4); test labels held by more than "
                          "one flow: te0")
    assert sorted(p.name for p in out.iterdir()) == ["status.txt"]
    assert (out / "status.txt").read_text() == "status=failed\nstage=setup\n"


@pytest.mark.parametrize("kind", ["train", "test"])
def test_vehicle_less_scenarios_fail_at_setup(tmp_path, kind):
    # the check runs before any training: both flows are named, and no
    # report file is written
    train_dir, test_dir = write_sets(tmp_path)
    target = train_dir if kind == "train" else test_dir
    for label in ("zz_empty_a", "zz_empty_b"):
        ss.write_flow_csv(ss.FlowSpec([], horizon=300.0, label=label),
                          target / f"{label}.csv")
    out = tmp_path / "out"
    manifest = ss.ExperimentManifest(train_dir, test_dir, out,
                                     algorithms=["rl_no_adapt", "fixed_time"], seeds=[0],
                                     config_path=small_config_file(tmp_path))
    with pytest.raises(ss.ExperimentError, match="zz_empty_a, zz_empty_b") as err:
        ss.run_experiment(manifest)
    assert err.value.stage == "setup"
    assert isinstance(err.value.__cause__, ValueError)
    assert sorted(p.name for p in out.iterdir()) == ["status.txt"]
    assert "stage=setup" in (out / "status.txt").read_text()


RUNAWAY_ADAPT = dict(meta_iterations=0, alpha=1e6, adapt_steps=10, grad_clip=0)


@pytest.mark.parametrize("algorithm,stage,settings", [
    ("rl_no_adapt", "train-dqn", dict(lr=1e6, grad_clip=0)),
    ("metalight", "train-meta", dict(alpha=1e6, beta=1e6, grad_clip=0)),
    ("metalight", "adapt", RUNAWAY_ADAPT),
    ("rl_adapt", "adapt", RUNAWAY_ADAPT),
])
def test_diverging_training_fails_in_its_stage(tmp_path, algorithm, stage, settings):
    # unclipped steps at a huge learning rate overflow within the first
    # episode; the run stops in training, not at the next evaluation.  Ten
    # unclipped adaptation steps at alpha=1e6 leave parameters of 1e67 and
    # more that are still finite: the bound on |theta| stops those
    train_dir, test_dir = write_sets(tmp_path)
    out = tmp_path / "out"
    manifest = ss.ExperimentManifest(train_dir, test_dir, out, algorithms=[algorithm],
                                     seeds=[0],
                                     config_path=small_config_file(tmp_path, **settings))
    with pytest.raises(ss.ExperimentError) as err, np.errstate(all="ignore"):
        ss.run_experiment(manifest)
    assert err.value.stage == stage
    assert isinstance(err.value.__cause__, FloatingPointError)
    assert f"stage={stage}" in (out / "status.txt").read_text()


@pytest.mark.parametrize("algorithms,rows", [
    (list(harness.ALGORITHMS), ("metalight_training_base_model",
                                "metalight_adapting_base_model",
                                "dqn_training_from_scratch", "dqn_adapting_trained_model")),
    (["rl_adapt", "random"], ("dqn_training_from_scratch", "dqn_adapting_trained_model")),
    (["rl_no_adapt"], ("dqn_training_from_scratch",)),
    (["metalight"], ("metalight_training_base_model", "metalight_adapting_base_model")),
    (["fixed_time", "max_pressure"], ()),
])
def test_each_tag_makes_one_record_per_scenario_and_its_timing_rows(tmp_path, algorithms,
                                                                    rows):
    # every training and every adapting tag that ran has its timing row, and
    # no other row is written: rl_adapt's adaptation was once left out
    train_dir, test_dir = write_sets(tmp_path)
    out = tmp_path / "out"
    manifest = ss.ExperimentManifest(train_dir, test_dir, out, algorithms=algorithms,
                                     seeds=[0], config_path=small_config_file(tmp_path))
    records = ss.run_experiment(manifest)
    assert sorted((r.algorithm, r.scenario) for r in records) == \
        sorted((tag, label) for tag in algorithms for label in ("te0", "te1"))
    timing = [line.split(",") for line in (out / "timing.csv").read_text().splitlines()[2:]]
    assert tuple(row for row, _ in timing) == rows
    assert all(float(seconds) > 0 for _, seconds in timing)


def rl_adapt_moves(tmp_path, monkeypatch, **extra):
    """How far each rl_adapt adaptation of a report moves the DQN parameters,
    and the meta settings of its config."""
    train_dir, test_dir = write_sets(tmp_path)
    config = small_config_file(tmp_path, **extra)
    real_adapt = harness.adapt_params
    moves = []

    def spy(theta, *args, **kwargs):
        result = real_adapt(theta, *args, **kwargs)
        moves.append(param_distance(result.params, theta))
        return result

    monkeypatch.setattr(harness, "adapt_params", spy)
    manifest = ss.ExperimentManifest(train_dir, test_dir, tmp_path / "out",
                                     algorithms=["rl_adapt"], seeds=[0],
                                     config_path=config)
    ss.run_experiment(manifest)
    return moves, ss.load_settings(config).meta


def test_rl_adapt_clips_like_metalight(tmp_path, monkeypatch):
    # rl_adapt adapts by metalight's rule: with the config's grad_clip=c,
    # k steps of size alpha move the DQN parameters by at most k * alpha * c
    clip = 0.05
    moves, meta = rl_adapt_moves(tmp_path, monkeypatch, grad_clip=clip)
    assert meta.grad_clip == clip
    bound = meta.adapt_steps * meta.alpha * clip
    assert len(moves) == 2
    assert all(0.0 < m <= bound * (1 + 1e-9) for m in moves), (moves, bound)


def test_rl_adapt_takes_its_steps_from_the_config(tmp_path, monkeypatch):
    # one step of size alpha, its gradient clipped to c, moves the DQN
    # parameters by at most alpha * c: the config's adapt_steps=1 is the
    # count rl_adapt takes, not the default 3
    clip = 0.05
    moves, meta = rl_adapt_moves(tmp_path, monkeypatch, grad_clip=clip, adapt_steps=1)
    assert meta.adapt_steps == 1
    bound = meta.alpha * clip
    assert len(moves) == 2
    assert all(0.0 < m <= bound * (1 + 1e-9) for m in moves), (moves, bound)


def test_percent_delta_formula():
    assert percent_delta(97.0, 79.0) == 23
    assert percent_delta(85.0, 79.0) == 8
    assert percent_delta(79.0, 79.0) == 0


def test_experiment_computes_each_scenario_kl_once(tmp_path, monkeypatch):
    train_dir, test_dir = write_sets(tmp_path, n_test=3)
    calls = []
    real_kl = harness.kl_distance

    def counting_kl(*args, **kwargs):
        calls.append(args)
        return real_kl(*args, **kwargs)

    monkeypatch.setattr(harness, "kl_distance", counting_kl)
    manifest = ss.ExperimentManifest(train_dir, test_dir, tmp_path / "out",
                                     algorithms=["fixed_time", "max_pressure"], seeds=[0, 1],
                                     config_path=small_config_file(tmp_path))
    records = ss.run_experiment(manifest)
    assert len(records) == 12 and len(calls) == 3
    settings = ss.load_settings(manifest.config_path)
    train_dist = ss.average_training_distribution(ss.load_scenario_dir(train_dir))
    test_set = ss.load_scenario_dir(test_dir)
    for record in records:
        [scenario] = [s for s in test_set if s.label == record.scenario]
        want = harness.evaluate(ss.MaxPressurePolicy(settings.intersection), scenario,
                                settings.intersection, train_dist=train_dist,
                                kl_epsilon=settings.kl_epsilon)
        assert record.kl_to_train == want.kl_to_train


def test_a_manifest_key_typo_stops_the_run_at_its_line(tmp_path, capsys):
    # `algoritms=` was once ignored, and the default matrix ran in its place
    train_dir, test_dir = write_sets(tmp_path)
    path = tmp_path / "manifest.txt"
    path.write_text(f"# schema=1\ntrain_dir={train_dir}\ntest_dir={test_dir}\n"
                    f"out={tmp_path / 'out'}\nalgoritms=random\n")
    with pytest.raises(ss.ParseError, match=r"manifest\.txt:5: unknown key 'algoritms'"):
        ss.load_manifest(path)
    assert main(["report", "--manifest", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR[validation]: ") and f"{path}:5: unknown key" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines,message", [
    ("algorithms=random,random,fixed_time", "manifest repeats algorithms ['random']"),
    ("algorithms=fixed_time\nseeds=0,0", "manifest repeats seeds [0]"),
    ("algorithms=", "manifest needs at least one algorithm"),
    ("algorithms=fixed_time\nseeds=0,-1", "manifest seeds must be non-negative, got [-1]"),
], ids=["repeated-tag", "repeated-seed", "no-algorithm", "negative-seed"])
def test_a_manifest_with_a_repeat_or_no_algorithm_exits_3_before_out(tmp_path, capsys,
                                                                     lines, message):
    # each once ran to status ok: a repeated tag as two report rows, a repeated
    # seed as n_seeds=2 from one seed, no algorithm as empty reports, and a
    # negative seed with only fixed_time, which draws no random number (with
    # a learned tag it stopped at its training stage, leaving a status file)
    train_dir, test_dir = write_sets(tmp_path)
    path = tmp_path / "manifest.txt"
    path.write_text(f"train_dir={train_dir}\ntest_dir={test_dir}\n"
                    f"out={tmp_path / 'out'}\n{lines}\n")
    assert main(["report", "--manifest", str(path)]) == 3
    assert capsys.readouterr().err == f"ERROR[validation]: {message}\n"
    assert not (tmp_path / "out").exists()
