"""Experiment matrices: train, adapt, evaluate, and report.

Runs every requested algorithm over every test scenario and seed, then
writes the report files:

  report_long.csv     one row per (algorithm, scenario, seed)
  report_summary.csv  per-cell mean/min/max over seeds
  report_pivot.csv    algorithms x scenarios, column best starred and the
                      rest annotated with (+N%) relative deltas
  timing.csv          wall-clock of train/adapt stages (the one output that
                      is not byte-reproducible across runs)
  curve.csv           travel time against KL distance from training
  status.txt          ok, or the stage that failed

Travel times are greedy-policy episodes; KL distances are measured against
the mean movement distribution of the training scenarios.
"""

from __future__ import annotations

import zlib
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
    parse_value,
    read_key_values,
    require_vehicles,
    write_file,
)
from .seeding import NS_RL_ADAPT, spawn_rng

ALGORITHMS = ("metalight", "rl_adapt", "rl_no_adapt",
              "fixed_time", "max_pressure", "random")


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
    algorithms: list[str] = field(default_factory=lambda: list(ALGORITHMS[:3]))
    seeds: list[int] = field(default_factory=lambda: [0])
    config_path: Path | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("manifest needs at least one seed")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; valid: {ALGORITHMS}")
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
    lines = path.read_text().splitlines()
    kv = read_key_values(lines, path)
    missing = [k for k in ("train_dir", "test_dir", "out") if k not in kv]
    if missing:
        raise ValueError(f"manifest {path} missing keys: {missing}")

    def rel(p: str) -> Path:
        q = Path(p)
        return q if q.is_absolute() else path.parent / q

    def int_list(text: str) -> list[int]:
        return [int(s) for s in text.split(",") if s.strip()]

    return ExperimentManifest(
        train_dir=rel(kv["train_dir"]),
        test_dir=rel(kv["test_dir"]),
        out_dir=rel(kv["out"]),
        algorithms=[a.strip() for a in kv.get("algorithms", "metalight,rl_adapt,rl_no_adapt").split(",") if a.strip()],
        seeds=parse_value(kv, "seeds", int_list, lines, path, [0]),
        config_path=rel(kv["config"]) if kv.get("config") else None,
    )


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


def baseline_policy(tag: str, config: IntersectionConfig, seed: int):
    """The non-learning policy named by an algorithm tag."""
    if tag == "fixed_time":
        return FixedTimePolicy(config)
    if tag == "max_pressure":
        return MaxPressurePolicy(config)
    if tag == "random":
        return RandomPolicy(config, seed=seed)
    raise ValueError(f"no policy for tag {tag!r}")


def run_experiment(manifest: ExperimentManifest) -> list[EvalRecord]:
    """Execute train -> adapt -> evaluate for every cell of the matrix.

    Any stage failure aborts with a stage-tagged ExperimentError after
    flagging the partial output directory via status.txt.
    """
    out = manifest.out_dir
    out.mkdir(parents=True, exist_ok=True)
    stage = "setup"
    try:
        settings = load_settings(manifest.config_path)
        train_set = load_scenario_dir(manifest.train_dir, kind="training")
        test_set = load_scenario_dir(manifest.test_dir, kind="test")
        require_vehicles([*train_set, *test_set])
        train_dist = average_training_distribution(train_set)
        config = settings.intersection

        records: list[EvalRecord] = []
        meta_train_times: list[float] = []
        dqn_train_times: list[float] = []
        adapt_times: list[float] = []

        # each test scenario's KL, computed at its first evaluated cell
        kls: list[float | None] = [None] * len(test_set)
        needs_meta = "metalight" in manifest.algorithms
        needs_dqn = any(a in manifest.algorithms for a in ("rl_adapt", "rl_no_adapt"))

        for seed in manifest.seeds:
            meta_ckpt = None
            dqn_params = None
            if needs_meta:
                stage = "train-meta"
                meta_result = train_metalight(config, train_set,
                                              replace(settings.meta, seed=seed),
                                              dims=settings.dims)
                meta_ckpt = meta_result.checkpoint
                meta_train_times.append(meta_result.wall_time_s)
            if needs_dqn:
                stage = "train-dqn"
                dqn_result = train_dqn(config, train_set,
                                       replace(settings.dqn, seed=seed),
                                       dims=settings.dims)
                dqn_params = dqn_result.params
                dqn_train_times.append(dqn_result.wall_time_s)

            for j, scenario in enumerate(test_set):
                for algorithm in manifest.algorithms:
                    if algorithm == "metalight":
                        stage = "adapt"
                        adapted = adapt_to_scenario(meta_ckpt, scenario, config,
                                                    seed=seed)
                        adapt_times.append(adapted.wall_time_s)
                        subject = adapted.params
                    elif algorithm == "rl_adapt":
                        stage = "adapt"
                        # the same hyperparameters, clip included, as metalight
                        tuned = adapt_params(
                            dqn_params, scenario, config, settings.meta,
                            settings.meta.adapt_steps,
                            spawn_rng(seed, NS_RL_ADAPT, zlib.crc32(scenario.label.encode())))
                        subject = tuned.params
                    elif algorithm == "rl_no_adapt":
                        subject = dqn_params
                    else:
                        subject = baseline_policy(algorithm, config, seed)
                    stage = "evaluate"
                    record = evaluate(subject, scenario, config, seed=seed,
                                      algorithm=algorithm)
                    if kls[j] is None:
                        kls[j] = _kl_to_train(scenario, train_dist, settings.kl_epsilon)
                    record.kl_to_train = kls[j]
                    records.append(record)

        stage = "report"
        _write_reports(records, manifest, out,
                       meta_train_times, dqn_train_times, adapt_times)
    except Exception as exc:
        (out / "status.txt").write_text(f"status=failed\nstage={stage}\n")
        if isinstance(exc, ExperimentError):
            raise
        raise ExperimentError(stage, str(exc)) from exc

    (out / "status.txt").write_text("status=ok\n")
    return records


def _write_reports(records, manifest, out: Path,
                   meta_train_times, dqn_train_times, adapt_times) -> None:
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
    if meta_train_times:
        lines.append(f"metalight_training_base_model,{float(np.mean(meta_train_times))!r}")
    if adapt_times:
        lines.append(f"metalight_adapting_base_model,{float(np.mean(adapt_times))!r}")
    if dqn_train_times:
        lines.append(f"dqn_training_from_scratch,{float(np.mean(dqn_train_times))!r}")
    write_file(out / "timing.csv", lines)

    (out / "curve.csv").write_text(emit_curve(records))
