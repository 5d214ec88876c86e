"""The three workloads, each a closed loop with one caller.

A workload repeats one fixed unit of work until the run's time is up, so
every unit of a run does the same work.  Each unit is a list of operations
(one training run, one evaluation cell, or one ablation row); an operation
fails when it raises or when its output breaks a check.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hostclock import WallClock
from inputs import (BASELINES, DQN_CKPT, EVAL_SEEDS, META_CKPT, eval_scenario_seed,
                    pin_key, scenario_sets)

WORKLOADS = ("train_dqn", "train_meta", "evaluate")
LEARNED = ("metalight", "rl_no_adapt")


@dataclass(frozen=True)
class Sizes:
    """Work in one unit of each workload."""

    dqn_episodes: int = 4          # per training seed
    dqn_seeds: int = 2             # trained one after another
    meta_iterations: int = 1
    meta_seeds: int = 3            # trained one after another
    eval_seeds: tuple = EVAL_SEEDS
    ablation_ks: tuple = (1, 2, 3, 5, 10)


FULL = Sizes()
SMOKE = Sizes(dqn_episodes=1, dqn_seeds=1, meta_iterations=1, meta_seeds=1,
              eval_seeds=(0,), ablation_ks=(1,))


@dataclass
class Setup:
    settings: object
    scenario_seed: int
    train: object
    test: object
    workdir: Path
    dqn_params: object = None
    meta_checkpoint: object = None


@dataclass
class Tally:
    """Operations, cell times and output digests of a run's units.

    Cells are timed with `clock` (see hostclock.py); a unit's cell times
    wait in `pending` until `commit` scales them by the unit's host-speed
    factor."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    cell_s: dict = field(default_factory=dict)   # cell -> its times, one per unit
    learned: object = field(default_factory=hashlib.sha256)  # learned-policy outputs
    clock: object = field(default_factory=WallClock)
    pending: list = field(default_factory=list)

    def cell(self, key: str, seconds: float) -> None:
        self.pending.append((key, seconds))

    def commit(self, factor: float) -> None:
        for key, seconds in self.pending:
            self.cell_s.setdefault(key, []).append(seconds * factor)
        self.pending.clear()

    def op(self, what: str, fn):
        """Run one operation; a raise or a failed check counts it as failed."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception:  # a failing operation must not stop the run
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if problem:
            self.failed += 1
            self.failures.append(f"{what}: {problem}")


def baseline_policy(ss, algorithm: str, config, seed: int):
    """The non-learning policies, built as the experiment harness builds them."""
    if algorithm == "fixed_time":
        return ss.FixedTimePolicy(config)
    if algorithm == "max_pressure":
        return ss.MaxPressurePolicy(config)
    if algorithm == "random":
        return ss.RandomPolicy(config, seed=seed)
    raise ValueError(f"no baseline policy {algorithm!r}")


def setup(ss, workload: str, seed: int, workdir: Path) -> Setup:
    """Settings and scenario generation; for evaluate also the CSV write and
    the checkpoint load.  Nothing here is timed by the workload's units."""
    settings = ss.load_settings()
    horizon = settings.intersection.horizon
    scenario_seed = eval_scenario_seed(seed) if workload == "evaluate" else seed
    train, test = scenario_sets(ss, scenario_seed, horizon)
    result = Setup(settings, scenario_seed, train, test, workdir)
    if workload == "evaluate":
        ss.write_scenario_set(train, workdir / "train")
        ss.write_scenario_set(test, workdir / "test")
        result.dqn_params = ss.load_params(DQN_CKPT)
        result.meta_checkpoint = ss.load_meta_checkpoint(META_CKPT)
    return result


# ---------------------------------------------------------------------------
# Output checks

def check_episode(record, scenario) -> str | None:
    """Finite travel time and vehicle conservation of one evaluation record."""
    if record.avg_travel_time is None or not math.isfinite(record.avg_travel_time):
        return f"travel time {record.avg_travel_time!r}"
    if record.completed + record.residual != len(scenario.arrivals):
        return (f"conservation: {record.completed} completed + {record.residual} "
                f"residual != {len(scenario.arrivals)} vehicles")
    return None


def _params_finite(params) -> bool:
    return all(np.all(np.isfinite(getattr(params, name)))
               for name in ("W_e", "b_e", "W_c", "b_c", "w_r", "b_r"))


def _check_training(ss, tally: Tally, s: Setup, what: str, params, losses) -> str | None:
    """Finite losses and parameters, then one greedy check episode (a cell)
    per test scenario."""
    bad = [x for x in losses if not math.isfinite(x)]
    if bad:
        return f"{len(bad)} non-finite losses"
    if not _params_finite(params):
        return "non-finite parameters"
    for scenario in s.test:
        start = tally.clock.now()
        record = ss.evaluate(params, scenario, s.settings.intersection, seed=0,
                             algorithm=what)
        tally.cell(f"{what}/{scenario.label}", tally.clock.since(start))
        tally.learned.update(f"{what},{scenario.label},{record.avg_travel_time!r}\n".encode())
        problem = check_episode(record, scenario)
        if problem:
            return f"{scenario.label}: {problem}"
    return None


def _cell(ss, s: Setup, tally: Tally, pins, records, algorithm, scenario, cell_seed,
          train_dist) -> str | None:
    """One (algorithm, scenario, seed) cell, adaptation included in its time."""
    config = s.settings.intersection
    start = tally.clock.now()
    if algorithm == "metalight":
        subject = ss.adapt_to_scenario(s.meta_checkpoint, scenario, config,
                                       seed=cell_seed).params
    elif algorithm == "rl_no_adapt":
        subject = s.dqn_params
    else:
        subject = baseline_policy(ss, algorithm, config, cell_seed)
    record = ss.evaluate(subject, scenario, config, seed=cell_seed, train_dist=train_dist,
                         kl_epsilon=s.settings.kl_epsilon, algorithm=algorithm)
    tally.cell(f"{algorithm}/{scenario.label}/{cell_seed}", tally.clock.since(start))
    records.append(record)

    problem = check_episode(record, scenario)
    if problem or record.kl_to_train is None:
        return problem or "no KL distance"
    if algorithm in LEARNED:
        tally.learned.update(f"{algorithm},{scenario.label},{cell_seed},"
                             f"{record.avg_travel_time!r}\n".encode())
        return None
    pinned = pins.get(pin_key(s.scenario_seed, scenario.label, algorithm, cell_seed))
    if repr(record.avg_travel_time) != pinned:
        return f"travel time {record.avg_travel_time!r} != pinned {pinned}"
    return None


def _ablation_row(tally: Tally, rows, i: int, k: int, n_scenarios: int) -> str | None:
    if i >= len(rows):
        return "ablation produced no row"
    row = rows[i]
    if row.k != k or row.scenario_count != n_scenarios:
        return f"unexpected row {row}"
    if not math.isfinite(row.avg_travel_time_s):
        return f"travel time {row.avg_travel_time_s!r}"
    tally.learned.update(f"ablation,{k},{row.avg_travel_time_s!r}\n".encode())
    return None


# ---------------------------------------------------------------------------
# Units

def replay_capacity(default, episodes: int) -> int:
    """The default capacity scaled by the unit's share of a default run.

    A default run (10,000 transitions, 100 episodes of ~400 decisions)
    fills its replay memory after about a quarter of its episodes and
    overwrites the oldest transitions from then on; scaled the same way,
    a unit reaches that full-memory regime at the same point."""
    return max(default.batch_size, default.capacity * episodes // default.episodes)


def unit_train_dqn(ss, s: Setup, sizes: Sizes, seed: int, tally: Tally) -> None:
    """`train_dqn` for consecutive seeds, as a multi-seed manifest runs it."""
    config = s.settings.intersection
    capacity = replay_capacity(s.settings.dqn, sizes.dqn_episodes)
    for train_seed in range(seed, seed + sizes.dqn_seeds):
        hyper = replace(s.settings.dqn, seed=train_seed, episodes=sizes.dqn_episodes,
                        capacity=capacity)

        def run(hyper=hyper):
            result = ss.train_dqn(config, s.train, hyper, dims=s.settings.dims)
            return _check_training(ss, tally, s, f"dqn/seed{hyper.seed}", result.params,
                                   [row.loss for row in result.log])
        tally.op(f"train_dqn seed={train_seed}", run)


def unit_train_meta(ss, s: Setup, sizes: Sizes, seed: int, tally: Tally) -> None:
    """`train_metalight` for consecutive seeds: per meta-iteration,
    task_batch rollouts then a global update.  Each seed samples other
    tasks, so several seeds keep a unit's work close to the average."""
    config = s.settings.intersection
    for train_seed in range(seed, seed + sizes.meta_seeds):
        hyper = replace(s.settings.meta, seed=train_seed,
                        meta_iterations=sizes.meta_iterations)

        def run(hyper=hyper):
            result = ss.train_metalight(config, s.train, hyper, dims=s.settings.dims)
            losses = [x for row in result.log
                      for x in (row.mean_rollout_loss, row.mean_meta_loss)]
            return _check_training(ss, tally, s, f"metalight/seed{hyper.seed}",
                                   result.checkpoint.theta0, losses)
        tally.op(f"train_metalight seed={train_seed}", run)


def unit_evaluate(ss, s: Setup, sizes: Sizes, seed: int, tally: Tally, pins) -> None:
    """Read the scenario CSVs back, evaluate the algorithm x scenario x seed
    matrix, then the adaptation-step ablation and the shift curve."""
    config = s.settings.intersection
    train = ss.load_scenario_dir(s.workdir / "train", kind="training")
    test = ss.load_scenario_dir(s.workdir / "test", kind="test")
    train_dist = ss.average_training_distribution(train)
    records: list = []
    for cell_seed in sizes.eval_seeds:
        for scenario in test:
            for algorithm in LEARNED + BASELINES:
                tally.op(f"cell {algorithm}/{scenario.label}/{cell_seed}",
                         lambda: _cell(ss, s, tally, pins, records, algorithm, scenario,
                                       cell_seed, train_dist))

    try:
        rows = ss.ablate_steps(s.meta_checkpoint, test, list(sizes.ablation_ks), config,
                               seed=sizes.eval_seeds[0])
    except Exception:  # every row then counts as failed
        traceback.print_exc()
        rows = []
    for i, k in enumerate(sizes.ablation_ks):
        tally.op(f"ablation k={k}", lambda: _ablation_row(tally, rows, i, k, len(test)))

    def curve():
        lines = ss.emit_curve(records).splitlines()
        return None if len(lines) == len(records) + 2 else "curve lost records"
    tally.op("curve", curve)


def run_unit(ss, workload: str, s: Setup, sizes: Sizes, seed: int, tally: Tally,
             pins) -> None:
    if workload == "train_dqn":
        unit_train_dqn(ss, s, sizes, seed, tally)
    elif workload == "train_meta":
        unit_train_meta(ss, s, sizes, seed, tally)
    else:
        unit_evaluate(ss, s, sizes, seed, tally, pins)

