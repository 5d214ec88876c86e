"""Scenario generation and ingestion.

A scenario is one hour of per-vehicle arrivals at a single intersection.
Training and test sets are produced from base hourly volumes by a uniform
volume scaling, an independent per-movement perturbation, and uniform
random arrival times.  Real-world base volumes come from 5-minute count
files.

File formats (all start with a `# schema=1` comment line; movement ids in
files are 1-based):

* flow CSV        header `arrival_s,movement`, one row per vehicle,
                  with a `<name>.meta` sidecar of `key=value` lines
                  (label, horizon, n_movements, base_label, uniform_scale,
                  half_range, seed)
* counts CSV      header `timestamp_iso8601,movement,count`
* bases CSV       header `label,mov_1,...,mov_N`

This module owns the framing every written file shares (`file_text`,
`write_file`) and the one reader of key=value files (`read_key_values`;
`read_known_keys` also rejects keys its caller does not know).
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import (
    NS_TEST_VARIABILITY,
    NS_TEST_VOLUME,
    NS_TRAIN_SET,
    STAGE_ARRIVALS,
    STAGE_PERTURB,
    as_rng,
    spawn_rng,
)

SCHEMA_LINE = "# schema=1"

# Training-set protocol constants: five uniform scales crossed with every
# base, then an independent +-20% per-movement perturbation.
TRAIN_SCALES = (-0.20, -0.10, 0.0, +0.10, +0.20)
TRAIN_HALF_RANGE = 0.20
# Test protocol: 3 scenarios with variability widened by an extra 15%,
# plus 2 scenarios with the whole volume up 30% and variability capped at 10%.
TEST_VARIABILITY_COUNT = 3
TEST_VARIABILITY_HALF_RANGE = TRAIN_HALF_RANGE + 0.15
TEST_VOLUME_COUNT = 2
TEST_VOLUME_SCALE = +0.30
TEST_VOLUME_HALF_RANGE = 0.10

SCENARIO_KINDS = ("training", "test-variability", "test-volume", "test")


class ParseError(ValueError):
    """Malformed row in an input file; carries the 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def file_text(lines) -> str:
    """The schema line, then `lines`, one per line, ending in a newline."""
    return "\n".join([SCHEMA_LINE, *lines]) + "\n"


def write_file(path, lines) -> None:
    Path(path).write_text(file_text(lines))


def read_key_values(lines, source) -> dict[str, str]:
    """`key=value` lines as a dict (a later key wins); blank and `#` lines are
    skipped, and any other line without `=` raises ParseError at `source`."""
    kv: dict[str, str] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(source, line_no, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()
    return kv


def read_known_keys(lines, source, known) -> dict[str, str]:
    """`read_key_values`, where a key not in `known` raises ParseError at
    its line, naming the key."""
    kv = read_key_values(lines, source)
    for key in kv:
        if key not in known:
            raise ParseError(source, _key_line(lines, key), f"unknown key {key!r}")
    return kv


def _key_line(lines, key: str) -> int:
    """The 1-based number of the first `key=value` line of `lines` for `key`."""
    return next(line_no for line_no, raw in enumerate(lines, start=1)
                if "=" in raw and raw.partition("=")[0].strip() == key)


@dataclass
class BaseDistribution:
    """Hourly vehicles per movement defining one base traffic pattern."""

    volumes: np.ndarray
    label: str = "base"

    def __post_init__(self):
        self.volumes = np.asarray(self.volumes, dtype=np.int64)
        if self.volumes.ndim != 1:
            raise ValueError("volumes must be a 1-d vector")
        if np.any(self.volumes < 0):
            raise ValueError("volumes must be non-negative")
        if self.volumes.sum() <= 0:
            raise ValueError("base distribution must have at least one positive volume")

    @property
    def n_movements(self) -> int:
        return len(self.volumes)


@dataclass
class Provenance:
    base_label: str
    uniform_scale: float
    half_range: float
    seed: int


@dataclass
class FlowSpec:
    """One scenario: time-sorted (arrival_s, movement) pairs over an hour."""

    arrivals: list[tuple[float, int]]
    horizon: float = 3600.0
    n_movements: int = 8
    label: str = "flow"
    provenance: Provenance | None = None

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        prev = -1.0
        for t, m in self.arrivals:
            if not 0.0 <= t < self.horizon:
                raise ValueError(f"arrival time {t} outside [0, {self.horizon})")
            if not 0 <= m < self.n_movements:
                raise ValueError(f"movement index {m} out of range")
            if t < prev:
                raise ValueError("arrivals must be sorted by time")
            prev = t

    def __len__(self) -> int:
        return len(self.arrivals)

    def movement_counts(self) -> np.ndarray:
        """Vehicles per movement, int64 (M,)."""
        movements = np.fromiter((m for _, m in self.arrivals), np.intp, len(self.arrivals))
        return np.bincount(movements, minlength=self.n_movements).astype(np.int64)


@dataclass
class ScenarioSet:
    scenarios: list[FlowSpec] = field(default_factory=list)
    kind: str = "training"

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario-set kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)


def perturb_base(base: BaseDistribution, uniform_scale: float,
                 per_move_half_range: float, seed) -> np.ndarray:
    """Perturbed integer volumes: base * (1+scale) * (1+r), r ~ U(-h, +h).

    Rounding is half-up so the printed tables round-trip.  `seed` may be an
    int or an already-spawned Generator.
    """
    if not -0.5 <= uniform_scale <= 0.5:
        raise ValueError("uniform_scale must be in [-0.5, 0.5]")
    if not 0.0 <= per_move_half_range <= 0.5:
        raise ValueError("per_move_half_range must be in [0, 0.5]")
    rng = as_rng(seed)
    r = rng.uniform(-per_move_half_range, per_move_half_range, size=base.n_movements)
    scaled = base.volumes * (1.0 + uniform_scale) * (1.0 + r)
    return np.floor(scaled + 0.5).astype(np.int64)


def sample_arrivals(volumes, horizon: float, seed, *,
                    label: str = "flow", provenance: Provenance | None = None) -> FlowSpec:
    """Exactly volumes[i] arrivals on movement i, times ~ U[0, horizon)."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    volumes = np.asarray(volumes, dtype=np.int64)
    rng = as_rng(seed)
    arrivals: list[tuple[float, int]] = []
    for m, v in enumerate(volumes):
        times = rng.uniform(0.0, horizon, size=int(v))
        arrivals.extend((float(t), m) for t in times)
    arrivals.sort(key=lambda a: (a[0], a[1]))
    return FlowSpec(arrivals, horizon=float(horizon), n_movements=len(volumes),
                    label=label, provenance=provenance)


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "-", text).strip("-") or "base"


def _make_scenario(base: BaseDistribution, uniform_scale: float, half_range: float,
                   seed: int, path: tuple[int, ...], label: str,
                   horizon: float) -> FlowSpec:
    vols = perturb_base(base, uniform_scale, half_range,
                        spawn_rng(seed, *path, STAGE_PERTURB))
    prov = Provenance(base.label, uniform_scale, half_range, seed)
    return sample_arrivals(vols, horizon, spawn_rng(seed, *path, STAGE_ARRIVALS),
                           label=label, provenance=prov)


def make_training_set(bases: list[BaseDistribution], seed: int,
                      horizon: float = 3600.0) -> ScenarioSet:
    """Cross bases with the five uniform scales, perturb, sample arrivals.

    Five bases yield the canonical 25-scenario training set; n bases yield
    5n scenarios.  Each scenario has its own derived RNG stream, so the set
    is reproducible per (bases, seed) and stable under extension.
    """
    if not bases:
        raise ValueError("need at least one base distribution")
    scenarios = []
    for bi, base in enumerate(bases):
        for si, scale in enumerate(TRAIN_SCALES):
            label = f"train_{bi:02d}_{si}_{_slug(base.label)}_u{int(round(scale * 100)):+03d}"
            scenarios.append(_make_scenario(base, scale, TRAIN_HALF_RANGE, seed,
                                            (NS_TRAIN_SET, bi, si), label, horizon))
    return ScenarioSet(scenarios, kind="training")


def make_test_scenarios(bases: list[BaseDistribution], seed: int,
                        horizon: float = 3600.0) -> ScenarioSet:
    """Three widened-variability scenarios plus two +30%-volume scenarios.

    Bases are cycled in order when there are fewer bases than scenarios.
    """
    if not bases:
        raise ValueError("need at least one base distribution")
    scenarios = []
    for j in range(TEST_VARIABILITY_COUNT):
        base = bases[j % len(bases)]
        label = f"test_var_{j}_{_slug(base.label)}"
        scenarios.append(_make_scenario(base, 0.0, TEST_VARIABILITY_HALF_RANGE, seed,
                                        (NS_TEST_VARIABILITY, j), label, horizon))
    for j in range(TEST_VOLUME_COUNT):
        base = bases[j % len(bases)]
        label = f"test_vol_{j}_{_slug(base.label)}"
        scenarios.append(_make_scenario(base, TEST_VOLUME_SCALE, TEST_VOLUME_HALF_RANGE,
                                        seed, (NS_TEST_VOLUME, j), label, horizon))
    return ScenarioSet(scenarios, kind="test")


# ---------------------------------------------------------------------------
# Count-file ingestion (5-minute movement buckets -> base distribution)

BUCKET_SECONDS = 300


def _parse_window_edge(value, name: str) -> dt.datetime | dt.time:
    """Accept a datetime, a time, an ISO datetime string, or 'HH:MM'."""
    if isinstance(value, (dt.datetime, dt.time)):
        edge = value
    else:
        text = str(value)
        try:
            edge = dt.datetime.fromisoformat(text) if "T" in text or "-" in text \
                else dt.time.fromisoformat(text)
        except ValueError as exc:
            raise ValueError(f"{name}: cannot parse {value!r} as a clock time") from exc
    minute, second = (edge.minute, edge.second)
    if minute % 5 != 0 or second != 0:
        raise ValueError(f"{name} {value!r} is not aligned to a 5-minute bucket")
    return edge


def _in_window(ts: dt.datetime, start, end) -> bool:
    if isinstance(start, dt.time):
        return start <= ts.time() < end
    return start <= ts < end


def ingest_counts_csv(path, window_start, window_end, *,
                      n_movements: int = 8) -> BaseDistribution:
    """Sum 5-minute movement counts falling in [window_start, window_end).

    Window edges may be ISO datetimes or 'HH:MM' clock times (clock times
    match the time-of-day of every row regardless of date).  A window that
    matches no rows at all is an error, distinct from matching rows whose
    counts happen to be zero.
    """
    path = Path(path)
    start = _parse_window_edge(window_start, "window_start")
    end = _parse_window_edge(window_end, "window_end")
    if type(start) is not type(end):
        raise ValueError("window edges must both be datetimes or both clock times")

    volumes = np.zeros(n_movements, dtype=np.int64)
    matched = False
    with path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().startswith("timestamp"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(path, line_no, f"expected 3 fields, got {len(parts)}")
            try:
                ts = dt.datetime.fromisoformat(parts[0].strip())
                movement = int(parts[1])
                count = int(parts[2])
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            if not 1 <= movement <= n_movements:
                raise ParseError(path, line_no,
                                 f"movement {movement} outside 1..{n_movements}")
            if count < 0:
                raise ParseError(path, line_no, "negative count")
            if _in_window(ts, start, end):
                matched = True
                volumes[movement - 1] += count
    if not matched:
        raise ValueError(f"no rows of {path} fall in window [{window_start}, {window_end})")

    def _edge_text(edge):
        return edge.isoformat(timespec="minutes").replace(":", "")

    label = f"counts_{_edge_text(start)}_{_edge_text(end)}"
    return BaseDistribution(volumes, label=label)


# ---------------------------------------------------------------------------
# Flow / bases file IO

def flow_to_csv_text(flow: FlowSpec) -> str:
    """Canonical CSV text of a flow (also hashed for provenance digests)."""
    return file_text(["arrival_s,movement", *(f"{t!r},{m + 1}" for t, m in flow.arrivals)])


# the sidecar's keys; the provenance keys are written, and read, as a set
FLOW_KEYS = ("label", "horizon", "n_movements")
PROVENANCE_KEYS = ("base_label", "uniform_scale", "half_range", "seed")


def write_flow_csv(flow: FlowSpec, path) -> None:
    """Write the arrivals CSV and its `.meta` sidecar (1-based movements)."""
    path = Path(path)
    path.write_text(flow_to_csv_text(flow))

    meta = {
        "label": flow.label,
        "horizon": repr(flow.horizon),
        "n_movements": flow.n_movements,
    }
    if flow.provenance is not None:
        meta.update(
            base_label=flow.provenance.base_label,
            uniform_scale=repr(flow.provenance.uniform_scale),
            half_range=repr(flow.provenance.half_range),
            seed=flow.provenance.seed,
        )
    write_file(path.with_suffix(".meta"), [f"{k}={v}" for k, v in meta.items()])


def read_flow_csv(path) -> FlowSpec:
    path = Path(path)
    sidecar = path.with_suffix(".meta")
    lines = sidecar.read_text().splitlines() if sidecar.exists() else []
    meta = read_known_keys(lines, sidecar, FLOW_KEYS + PROVENANCE_KEYS)

    horizon = float(meta.get("horizon", 3600.0))
    n_movements = int(meta.get("n_movements", 8))
    arrivals: list[tuple[float, int]] = []
    with path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("arrival_s"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(path, line_no, f"expected 2 fields, got {len(parts)}")
            try:
                t, m = float(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            if not 1 <= m <= n_movements:
                raise ParseError(path, line_no, f"movement {m} outside 1..{n_movements}")
            arrivals.append((t, m - 1))

    provenance = None
    if present := [key for key in PROVENANCE_KEYS if key in meta]:
        missing = [key for key in PROVENANCE_KEYS if key not in meta]
        if missing:
            raise ParseError(sidecar, _key_line(lines, present[0]),
                             f"provenance keys {present} without {missing}")
        provenance = Provenance(meta["base_label"], float(meta["uniform_scale"]),
                                float(meta["half_range"]), int(meta["seed"]))
    return FlowSpec(arrivals, horizon=horizon, n_movements=n_movements,
                    label=meta.get("label", path.stem), provenance=provenance)


def write_scenario_set(scenario_set: ScenarioSet, out_dir) -> list[Path]:
    """One flow CSV (+sidecar) per scenario, named by scenario label."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for flow in scenario_set:
        p = out_dir / f"{flow.label}.csv"
        write_flow_csv(flow, p)
        paths.append(p)
    return paths


def load_scenario_dir(directory, kind: str = "test") -> ScenarioSet:
    directory = Path(directory)
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no flow CSVs found in {directory}")
    return ScenarioSet([read_flow_csv(p) for p in files], kind=kind)


def write_bases_csv(bases: list[BaseDistribution], path) -> None:
    n = bases[0].n_movements
    lines = ["label," + ",".join(f"mov_{i + 1}" for i in range(n))]
    lines.extend(b.label + "," + ",".join(str(int(v)) for v in b.volumes) for b in bases)
    write_file(path, lines)


def read_bases_csv(path) -> list[BaseDistribution]:
    path = Path(path)
    bases = []
    with path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.lower().startswith("label"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ParseError(path, line_no, "expected label plus volumes")
            try:
                volumes = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            bases.append(BaseDistribution(np.array(volumes), label=parts[0]))
    if not bases:
        raise ValueError(f"no base distributions found in {path}")
    return bases
