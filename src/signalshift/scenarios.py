"""Scenario generation and ingestion.

A scenario is one hour of per-vehicle arrivals at a single intersection,
held as one read-only NumPy structured array of 16-byte `(t, m)` records
(float64 arrival second, int64 movement), in time order.  Training and
test sets are produced from base hourly volumes by a uniform
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
`write_file`), the one reader of CSV rows (`read_csv_rows`) and the one
reader of key=value files (`read_known_keys`, which converts each value
and rejects keys its caller does not know, naming the file and line).
"""

from __future__ import annotations

import datetime as dt
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
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
# the CSV headers; a bases header goes on with `mov_1..mov_N`
FLOW_COLUMNS = ("arrival_s", "movement")
COUNTS_COLUMNS = ("timestamp_iso8601", "movement", "count")
BASES_COLUMN = "label"

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


def write_rows(path, row_type, rows) -> None:
    """The namedtuple `rows` as a CSV under the header `row_type._fields`;
    a float is written with `repr`, any other value with `str`."""
    write_file(path, [",".join(row_type._fields),
                      *(",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                        for row in rows)])


def _csv_lines(path):
    """(line_no, fields) of each line of `path` but blank and `#` lines."""
    with Path(path).open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            if (line := raw.strip()) and not line.startswith("#"):
                yield line_no, line.split(",")


def _is_header(fields, first_column: str) -> bool:
    return fields[0].strip().lower() == first_column


def has_header(path, first_column: str) -> bool:
    """Whether CSV `path` opens with the header `read_csv_rows` skips."""
    return any(_is_header(fields, first_column) for _, fields in islice(_csv_lines(path), 1))


def read_csv_rows(path, first_column: str, n_fields: int | None = None):
    """(line_no, fields) for each data row of CSV `path`.

    Blank and `#` lines are skipped.  The first other line is a header, and
    skipped, when its first field is `first_column` in any case; every later
    line is a row.  A row of other than `n_fields` fields (when None, the
    first line's count) raises ParseError at its line."""
    lines = _csv_lines(path)
    for line_no, fields in lines:
        n_fields = n_fields or len(fields)
        if not _is_header(fields, first_column):
            lines = chain([(line_no, fields)], lines)
        break
    for line_no, fields in lines:
        if len(fields) != n_fields:
            raise ParseError(path, line_no, f"expected {n_fields} fields, got {len(fields)}")
        yield line_no, fields


def read_known_keys(lines, source, known) -> dict:
    """`key=value` lines as a dict of `known[key](value)`, where a later key
    wins.  Blank and `#` lines are skipped; any other line without `=`, with
    a key not in `known` or with a value its parser rejects with ValueError
    raises ParseError at its line."""
    kv = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(source, line_no, f"expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in known:
            raise ParseError(source, line_no, f"unknown key {key!r}")
        try:
            kv[key] = known[key](value)
        except ValueError as exc:
            raise ParseError(source, line_no, f"{key}: {exc}") from None
    return kv


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


# one record per vehicle: its arrival second and 0-based movement, 16 bytes
ARRIVAL = np.dtype([("t", np.float64), ("m", np.int64)])


def arrival_records(times, movements) -> np.ndarray:
    """A fresh (n,) ARRIVAL array from a column of times and one of movements."""
    records = np.empty(len(times), ARRIVAL)
    records["t"], records["m"] = times, movements
    return records


def _check_horizon(horizon) -> float:
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    return horizon


class ArrivalError(ValueError):
    """A vehicle that breaks a FlowSpec rule; `index` is its place in the flow."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass
class FlowSpec:
    """One scenario: its vehicles over an hour, as `arrivals`, a read-only
    (n,) ARRIVAL array in time order; `arrivals.tolist()` is the list of
    (arrival_s, movement) tuples.

    Built from that array or from any sequence of (t, m) pairs; either is
    copied.  Two flows are equal when their vehicles and fields are.

    Three views of `arrivals` are made on first use and kept: `by_movement`
    and `by_time_and_movement` (index arrays, 8 bytes per vehicle each) and
    `csv_text` (the flow-CSV text, about 21 bytes per vehicle)."""

    arrivals: np.ndarray
    horizon: float = 3600.0
    n_movements: int = 8
    label: str = "flow"
    provenance: Provenance | None = None

    def __post_init__(self):
        _check_horizon(self.horizon)
        if isinstance(self.arrivals, np.ndarray) and self.arrivals.dtype == ARRIVAL:
            records = self.arrivals.copy()
        else:
            pairs = list(self.arrivals)
            records = arrival_records([t for t, _ in pairs], [m for _, m in pairs])
        t, m = records["t"], records["m"]
        bad = ~((0.0 <= t) & (t < self.horizon) & (0 <= m) & (m < self.n_movements))
        bad[1:] |= t[1:] < t[:-1]
        if bad.any():
            # the first offending vehicle, with the first check it fails
            i = int(bad.argmax())
            t, m = float(t[i]), int(m[i])
            if not 0.0 <= t < self.horizon:
                raise ArrivalError(i, f"arrival time {t} outside [0, {self.horizon})")
            if not 0 <= m < self.n_movements:
                raise ArrivalError(i, f"movement index {m} out of range")
            raise ArrivalError(i, "arrivals must be sorted by time")
        records.flags.writeable = False
        self.arrivals = records

    def __eq__(self, other):
        if not isinstance(other, FlowSpec):
            return NotImplemented
        return ((self.horizon, self.n_movements, self.label, self.provenance)
                == (other.horizon, other.n_movements, other.label, other.provenance)
                and np.array_equal(self.arrivals, other.arrivals))

    def __len__(self) -> int:
        return len(self.arrivals)

    def movement_counts(self) -> np.ndarray:
        """Vehicles per movement, int64 (M,)."""
        return np.bincount(self.arrivals["m"], minlength=self.n_movements).astype(
            np.int64, copy=False)

    @cached_property
    def by_movement(self) -> np.ndarray:
        """The vehicles' indices movement by movement, each movement's in
        time order: their FIFO order at the stop line.  Read-only, made
        on first use."""
        order = np.argsort(self.arrivals["m"], kind="stable")
        order.flags.writeable = False
        return order

    @cached_property
    def by_time_and_movement(self) -> np.ndarray:
        """The vehicles' indices in (time, movement) order, a tie kept in
        flow order; `arange(n)` unless equal times list movements out of
        order.  Read-only, made on first use."""
        order = np.lexsort((self.arrivals["m"], self.arrivals["t"]))
        order.flags.writeable = False
        return order

    @cached_property
    def csv_text(self) -> str:
        """`flow_to_csv_text(self)`, the text `write_flow_csv` writes and
        `scenario_digest` hashes.  Made on first use."""
        return flow_to_csv_text(self)


def require_vehicles(flows) -> None:
    """Raise ValueError naming every flow without vehicles: no travel time
    can be scored on one."""
    empty = [flow.label for flow in flows if not len(flow)]
    if empty:
        raise ValueError(f"scenarios without vehicles: {', '.join(empty)}")


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
    """Exactly volumes[i] arrivals on movement i, times ~ U[0, horizon):
    movement 0's times are drawn first, then movement 1's, and so on, and
    the vehicles are sorted by (time, movement)."""
    _check_horizon(horizon)
    volumes = np.asarray(volumes, dtype=np.int64)
    rng = as_rng(seed)
    times = np.concatenate([np.empty(0), *(rng.uniform(0.0, horizon, size=int(v))
                                           for v in volumes)])
    movements = np.repeat(np.arange(len(volumes)), volumes)
    order = np.lexsort((movements, times))
    return FlowSpec(arrival_records(times[order], movements[order]),
                    horizon=float(horizon), n_movements=len(volumes),
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
    rows = read_csv_rows(path, COUNTS_COLUMNS[0], len(COUNTS_COLUMNS))
    for line_no, (stamp, movement, count) in rows:
        try:
            ts = dt.datetime.fromisoformat(stamp.strip())
            movement, count = int(movement), int(count)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if not 1 <= movement <= n_movements:
            raise ParseError(path, line_no, f"movement {movement} outside 1..{n_movements}")
        if count < 0:
            raise ParseError(path, line_no, "negative count")
        if _in_window(ts, start, end):
            matched = True
            volumes[movement - 1] += count
    if not matched:
        raise ValueError(f"no rows of {path} fall in window [{window_start}, {window_end})")
    edges = (edge.isoformat(timespec="minutes").replace(":", "") for edge in (start, end))
    return BaseDistribution(volumes, label="counts_" + "_".join(edges))


# ---------------------------------------------------------------------------
# Flow / bases file IO

def _label_field(label: str) -> str:
    """`label`, when a file can hold it so that it reads back the same."""
    if "," in label or len(label.splitlines()) > 1 or label != label.strip() or label[:1] == "#":
        raise ValueError(f"label {label!r} cannot go into a file: it has a ',' or a line "
                         "break, a leading '#' or surrounding whitespace")
    return label


def flow_to_csv_text(flow: FlowSpec) -> str:
    """Canonical CSV text of a flow (also hashed for provenance digests)."""
    times, movements = flow.arrivals["t"].tolist(), (flow.arrivals["m"] + 1).tolist()
    return file_text([",".join(FLOW_COLUMNS),
                      *(f"{t!r},{m}" for t, m in zip(times, movements))])


# the sidecar's keys, each with its parser; the provenance keys are
# written, and read, as a set
FLOW_KEYS = {"label": _label_field, "horizon": lambda text: _check_horizon(float(text)),
             "n_movements": int}
PROVENANCE_KEYS = {"base_label": _label_field, "uniform_scale": float, "half_range": float,
                   "seed": int}


def write_flow_csv(flow: FlowSpec, path) -> None:
    """Write the arrivals CSV and its `.meta` sidecar (1-based movements)."""
    path = Path(path)
    meta = {
        "label": _label_field(flow.label),
        "horizon": repr(flow.horizon),
        "n_movements": flow.n_movements,
    }
    if flow.provenance is not None:
        meta.update(
            base_label=_label_field(flow.provenance.base_label),
            uniform_scale=repr(flow.provenance.uniform_scale),
            half_range=repr(flow.provenance.half_range),
            seed=flow.provenance.seed,
        )
    path.write_text(flow_to_csv_text(flow))
    write_file(path.with_suffix(".meta"), [f"{k}={v}" for k, v in meta.items()])


def read_flow_csv(path) -> FlowSpec:
    """The flow of a flow CSV and its sidecar; a row or a sidecar value that
    does not make a valid flow raises ParseError at its line."""
    path = Path(path)
    sidecar = path.with_suffix(".meta")
    lines = sidecar.read_text().splitlines() if sidecar.exists() else []
    meta = read_known_keys(lines, sidecar, FLOW_KEYS | PROVENANCE_KEYS)
    horizon, n_movements = meta.get("horizon", 3600.0), meta.get("n_movements", 8)
    times: list[float] = []
    movements: list[int] = []
    for line_no, (t, m) in read_csv_rows(path, FLOW_COLUMNS[0], len(FLOW_COLUMNS)):
        try:
            t, m = float(t), int(m)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if not 1 <= m <= n_movements:
            raise ParseError(path, line_no, f"movement {m} outside 1..{n_movements}")
        times.append(t)
        movements.append(m - 1)

    provenance = None
    if present := [key for key in PROVENANCE_KEYS if key in meta]:
        missing = [key for key in PROVENANCE_KEYS if key not in meta]
        if missing:
            line_no = max(line_no for line_no, raw in enumerate(lines, start=1)
                          if raw.partition("=")[0].strip() == present[0])
            raise ParseError(sidecar, line_no, f"provenance keys {present} without {missing}")
        provenance = Provenance(*(meta[key] for key in PROVENANCE_KEYS))
    try:
        return FlowSpec(arrival_records(times, movements), horizon=horizon,
                        n_movements=n_movements, label=meta.get("label", path.stem),
                        provenance=provenance)
    except ArrivalError as exc:
        rows = read_csv_rows(path, FLOW_COLUMNS[0], len(FLOW_COLUMNS))
        raise ParseError(path, next(islice(rows, exc.index, None))[0], str(exc)) from None


def write_scenario_set(scenario_set: ScenarioSet, out_dir) -> list[Path]:
    """One flow CSV (+sidecar) per scenario, named by scenario label.  A
    label that is no plain file name, or that two flows share, is refused
    before any file is written."""
    labels = [_label_field(flow.label) for flow in scenario_set]
    if odd := [label for label in labels if "/" in label or label in ("", ".", "..")]:
        raise ValueError(f"labels that are not plain file names: {odd}")
    if repeated := sorted({label for label in labels if labels.count(label) > 1}):
        raise ValueError(f"labels held by more than one flow: {', '.join(repeated)}")
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
    lines = [",".join([BASES_COLUMN, *(f"mov_{i + 1}" for i in range(n))])]
    lines.extend(_label_field(b.label) + "," + ",".join(str(int(v)) for v in b.volumes)
                 for b in bases)
    write_file(path, lines)


def read_bases_csv(path) -> list[BaseDistribution]:
    """The bases of a bases CSV, each row as wide as the header (or the first
    row); a row that does not make a base, or whose label no file can hold
    (`_label_field`), raises ParseError at its line."""
    bases = []
    for line_no, (label, *volumes) in read_csv_rows(path, BASES_COLUMN):
        try:
            bases.append(BaseDistribution([int(v) for v in volumes], _label_field(label)))
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
    if not bases:
        raise ValueError(f"no base distributions found in {path}")
    return bases
