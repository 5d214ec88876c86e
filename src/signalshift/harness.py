"""Experiment matrices: train, adapt, evaluate, and report.

Runs every requested algorithm over every test scenario and seed, then
writes the report files:

  report_long.csv     one row per (algorithm, scenario, seed)
  report_summary.csv  per-cell mean/min/max over seeds
  report_pivot.csv    algorithms x scenarios, column best starred and the
                      rest annotated with (+N%) relative deltas
  timing.csv          mean wall-clock of each training and adaptation that
                      ran, one row each in TIMING_ROWS order (the one output
                      that is not byte-reproducible across runs)
  curve.csv           travel time against KL distance from training
  status.txt          ok, or the stage that failed

Travel times are greedy-policy episodes; KL distances are measured against
the mean movement distribution of the training scenarios.
Each algorithm tag is one `ALGORITHMS` entry; the non-learning policies
are `BASELINES`, which `signalshift eval --policy` uses too.
"""

from __future__ import annotations

import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import load_settings
from .dqn import (
    FixedTimePolicy,
    GreedyPolicy,
    MaxPressurePolicy,
    RandomPolicy,
    train_dqn,
)
from .intersection import IntersectionConfig, run_episode
from .meta import adapt_params, adapt_to_scenario, train_metalight
from .metrics import (
    MovementDistribution,
    average_training_distribution,
    kl_distance,
    movement_distribution,
)
from .network import QNetworkParams
from .scenarios import (
    FlowSpec,
    file_text,
    load_scenario_dir,
    read_known_keys,
    require_vehicles,
    write_file,
)
from .seeding import NS_RL_ADAPT, spawn_rng

# The table's functions look up what they call when called, so a patched
# module global (a test's spy, the benchmark tracer's wrapper) is reached.
BASELINES = {
    "fixed_time": lambda config, seed: FixedTimePolicy(config),
    "max_pressure": lambda config, seed: MaxPressurePolicy(config),
    "random": lambda config, seed: RandomPolicy(config, seed=seed),
}


def _train_meta(settings, train_set, seed):
    return train_metalight(settings.intersection, train_set,
                           replace(settings.meta, seed=seed), dims=settings.dims).checkpoint


def _train_dqn(settings, train_set, seed):
    return train_dqn(settings.intersection, train_set,
                     replace(settings.dqn, seed=seed), dims=settings.dims).params


def _adapt_meta(checkpoint, scenario, settings, seed):
    return adapt_to_scenario(checkpoint, scenario, settings.intersection, seed=seed).params


def _adapt_dqn(params, scenario, settings, seed):
    # the same hyperparameters, clip included, as metalight
    return adapt_params(params, scenario, settings.intersection, settings.meta,
                        spawn_rng(seed, NS_RL_ADAPT, zlib.crc32(scenario.label.encode()))).params


def _baseline(tag: str):
    return lambda _, scenario, settings, seed: BASELINES[tag](settings.intersection, seed)


# each training: its stage, its timing.csv row and its run for one seed
TRAININGS = {"meta": ("train-meta", "metalight_training_base_model", _train_meta),
             "dqn": ("train-dqn", "dqn_training_from_scratch", _train_dqn)}
# each tag: the training it starts from, how it makes its subject (params or
# a policy) from (trained, scenario, settings, seed), and its timing.csv row
# when it adapts; a tag with that row makes its subject as stage adapt
ALGORITHMS = {
    "metalight": ("meta", _adapt_meta, "metalight_adapting_base_model"),
    "rl_adapt": ("dqn", _adapt_dqn, "dqn_adapting_trained_model"),
    "rl_no_adapt": ("dqn", lambda params, *_: params, None),
    **{tag: (None, _baseline(tag), None) for tag in BASELINES},
}
TIMING_ROWS = ("metalight_training_base_model", "metalight_adapting_base_model",
               "dqn_training_from_scratch", "dqn_adapting_trained_model")


class ExperimentError(RuntimeError):
    """Failure of one pipeline stage, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class EvalRecord:
    algorithm: str
    scenario: str
    avg_travel_time: float | None
    completed: int
    residual: int
    kl_to_train: float | None
    seed: int


@dataclass
class ExperimentManifest:
    train_dir: Path
    test_dir: Path
    out_dir: Path
    algorithms: list[str] = field(  # the learned tags
        default_factory=lambda: [tag for tag, (training, *_) in ALGORITHMS.items() if training])
    seeds: list[int] = field(default_factory=lambda: [0])
    config_path: Path | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("manifest needs at least one seed")
        if not self.algorithms:
            raise ValueError("manifest needs at least one algorithm")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; valid: {tuple(ALGORITHMS)}")
        for name in ("algorithms", "seeds"):
            items = getattr(self, name)
            repeated = sorted({x for x in items if items.count(x) > 1})
            if repeated:
                raise ValueError(f"manifest repeats {name} {repeated}")
        if negative := [seed for seed in self.seeds if seed < 0]:
            raise ValueError(f"manifest seeds must be non-negative, got {negative}")
        for attr in ("train_dir", "test_dir"):
            p = Path(getattr(self, attr))
            setattr(self, attr, p)
            if not p.exists():
                raise FileNotFoundError(f"{attr} {p} does not exist")
        self.out_dir = Path(self.out_dir)
        if self.config_path is not None:
            self.config_path = Path(self.config_path)
            if not self.config_path.exists():
                raise FileNotFoundError(f"config {self.config_path} does not exist")


def load_manifest(path) -> ExperimentManifest:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest {path} does not exist")

    def rel(text: str) -> Path:
        q = Path(text)
        return q if q.is_absolute() else path.parent / q

    def items(text: str) -> list[str]:
        return [s.strip() for s in text.split(",") if s.strip()]

    kv = read_known_keys(path.read_text().splitlines(), path, {
        "train_dir": rel, "test_dir": rel, "out": rel,
        "config": lambda text: rel(text) if text else None,
        "algorithms": items, "seeds": lambda text: [int(s) for s in items(text)]})
    missing = [k for k in ("train_dir", "test_dir", "out") if k not in kv]
    if missing:
        raise ValueError(f"manifest {path} missing keys: {missing}")
    return ExperimentManifest(kv["train_dir"], kv["test_dir"], kv["out"],
                              config_path=kv.get("config"),
                              **{k: kv[k] for k in ("algorithms", "seeds") if k in kv})


def evaluate(subject, scenario: FlowSpec, config: IntersectionConfig, seed: int = 0,
             train_dist: MovementDistribution | None = None,
             kl_epsilon: float = 1e-6, algorithm: str = "") -> EvalRecord:
    """One greedy episode of `subject` (params or a policy) on a scenario."""
    policy = GreedyPolicy(subject, config) if isinstance(subject, QNetworkParams) \
        else subject
    result = run_episode(config, scenario, policy, seed=seed)
    kl = None if train_dist is None else _kl_to_train(scenario, train_dist, kl_epsilon)
    return EvalRecord(algorithm, scenario.label, result.avg_travel_time,
                      result.completed_count, result.residual_count, kl, seed)


def _kl_to_train(scenario: FlowSpec, train_dist: MovementDistribution,
                 kl_epsilon: float) -> float:
    return kl_distance(train_dist, movement_distribution(scenario.movement_counts()),
                       epsilon=kl_epsilon)


def require_reportable(train_set, test_set, config: IntersectionConfig) -> None:
    """Raise ValueError naming every flow whose movement count is not the
    config's or whose horizon is longer than the config's, and every test
    label held by more than one flow: a report cannot simulate the first
    two, nor give the third a cell of its own."""
    problems, flows = [], [*train_set, *test_set]
    if wrong := [f"{f.label} ({f.n_movements})" for f in flows
                 if f.n_movements != config.n_movements]:
        problems.append("flows whose movement count is not the config's "
                        f"{config.n_movements}: " + ", ".join(wrong))
    if longer := [f"{f.label} ({f.horizon!r} s)" for f in flows if f.horizon > config.horizon]:
        problems.append("flows whose horizon is longer than the config's "
                        f"{config.horizon!r} s: " + ", ".join(longer))
    labels = [f.label for f in test_set]
    if repeated := sorted({label for label in labels if labels.count(label) > 1}):
        problems.append(f"test labels held by more than one flow: {', '.join(repeated)}")
    if problems:
        raise ValueError("; ".join(problems))


def emit_curve(records: list[EvalRecord]) -> str:
    """CSV `kl,algorithm,avg_travel_time_s`, sorted ascending by kl."""
    for r in records:
        if r.kl_to_train is None:
            raise ValueError(f"record {r.algorithm}/{r.scenario} has no kl_to_train")
    ordered = sorted(records, key=lambda r: r.kl_to_train)
    return file_text(["kl,algorithm,avg_travel_time_s",
                      *(f"{r.kl_to_train!r},{r.algorithm},{r.avg_travel_time!r}"
                        for r in ordered)])


def percent_delta(value: float, best: float) -> int:
    return round(100.0 * (value - best) / best)


def run_experiment(manifest: ExperimentManifest) -> list[EvalRecord]:
    """Execute train -> adapt -> evaluate for every cell of the matrix.  A
    stage's failure flags status.txt and raises a stage-tagged ExperimentError."""
    out = manifest.out_dir
    out.mkdir(parents=True, exist_ok=True)
    times: dict[str, list[float]] = {}

    @contextmanager
    def timed(stage: str, row: str | None = None):
        # a failure in the block is the stage's; a row keeps its wall time
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            (out / "status.txt").write_text(f"status=failed\nstage={stage}\n")
            raise ExperimentError(stage, str(exc)) from exc
        if row:
            times.setdefault(row, []).append(time.perf_counter() - start)

    with timed("setup"):
        settings = load_settings(manifest.config_path)
        train_set = load_scenario_dir(manifest.train_dir, kind="training")
        test_set = load_scenario_dir(manifest.test_dir, kind="test")
        require_vehicles([*train_set, *test_set])
        require_reportable(train_set, test_set, settings.intersection)
        train_dist = average_training_distribution(train_set)
        kls = [_kl_to_train(s, train_dist, settings.kl_epsilon) for s in test_set]
    records: list[EvalRecord] = []
    for seed in manifest.seeds:
        trained = {}
        for kind, (stage, row, train) in TRAININGS.items():
            if any(ALGORITHMS[tag][0] == kind for tag in manifest.algorithms):
                with timed(stage, row):
                    trained[kind] = train(settings, train_set, seed)
        for scenario, kl in zip(test_set, kls):
            for tag in manifest.algorithms:
                training, make_subject, adapt_row = ALGORITHMS[tag]
                with timed("adapt" if adapt_row else "evaluate", adapt_row):
                    subject = make_subject(trained.get(training), scenario, settings, seed)
                with timed("evaluate"):
                    record = evaluate(subject, scenario, settings.intersection,
                                      seed=seed, algorithm=tag)
                records.append(replace(record, kl_to_train=kl))
    with timed("report"):
        _write_reports(records, manifest, out, times)
    (out / "status.txt").write_text("status=ok\n")
    return records


def _write_reports(records, manifest, out: Path, times: dict[str, list[float]]) -> None:
    # setup rejects vehicle-less scenarios, so every record has a travel time
    lines = ["algorithm,scenario,seed,avg_travel_time_s,completed,residual,kl_to_train"]
    lines.extend(
        f"{r.algorithm},{r.scenario},{r.seed},{r.avg_travel_time!r},"
        f"{r.completed},{r.residual},{r.kl_to_train!r}"
        for r in records)
    write_file(out / "report_long.csv", lines)

    scenario_labels = sorted({r.scenario for r in records})
    cells: dict[tuple[str, str], list[float]] = {}
    for r in records:
        cells.setdefault((r.algorithm, r.scenario), []).append(r.avg_travel_time)

    lines = ["algorithm,scenario,mean_s,min_s,max_s,n_seeds"]
    for algorithm in manifest.algorithms:
        for scenario in scenario_labels:
            values = cells[(algorithm, scenario)]
            lines.append(f"{algorithm},{scenario},{float(np.mean(values))!r},"
                         f"{min(values)!r},{max(values)!r},{len(values)}")
    write_file(out / "report_summary.csv", lines)

    means = {key: float(np.mean(v)) for key, v in cells.items()}
    best = {s: min(means[(a, s)] for a in manifest.algorithms) for s in scenario_labels}
    lines = ["algorithm," + ",".join(scenario_labels)]
    for algorithm in manifest.algorithms:
        row = [algorithm]
        for scenario in scenario_labels:
            mean = means[(algorithm, scenario)]
            if mean <= best[scenario]:
                row.append(f"{mean:.1f}*")
            else:
                row.append(f"{mean:.1f} (+{percent_delta(mean, best[scenario])}%)")
        lines.append(",".join(row))
    write_file(out / "report_pivot.csv", lines)

    lines = ["task,seconds"]
    lines.extend(f"{row},{float(np.mean(times[row]))!r}" for row in TIMING_ROWS
                 if row in times)
    write_file(out / "timing.csv", lines)

    (out / "curve.csv").write_text(emit_curve(records))
