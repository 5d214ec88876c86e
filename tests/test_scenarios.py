import datetime as dt
import math
import re
import tracemalloc

import numpy as np
import pytest

import signalshift as ss
from signalshift.scenarios import (
    TEST_VARIABILITY_HALF_RANGE,
    TEST_VOLUME_SCALE,
    flow_to_csv_text,
    read_known_keys,
)

from conftest import PEAK_BASES, SYNTHETIC_BASES, synthetic_base_list


def base(label="base2"):
    return ss.BaseDistribution(np.array(SYNTHETIC_BASES[label]), label)


# ---------------------------------------------------------------------------
# perturb_base

def test_perturb_identity():
    b = base()
    assert np.array_equal(ss.perturb_base(b, 0.0, 0.0, 1), b.volumes)


def test_perturb_uniform_scale_only():
    b = ss.BaseDistribution(np.array([100] * 8), "flat")
    assert np.array_equal(ss.perturb_base(b, 0.10, 0.0, 1), [110] * 8)


def test_perturb_seed_determinism():
    b = base()
    assert np.array_equal(ss.perturb_base(b, 0.1, 0.2, 42),
                          ss.perturb_base(b, 0.1, 0.2, 42))


def test_perturb_bounds():
    b = base("base4")
    for seed in range(25):
        u, h = 0.15, 0.2
        vols = ss.perturb_base(b, u, h, seed)
        lo = b.volumes * (1 + u) * (1 - h) - 1
        hi = b.volumes * (1 + u) * (1 + h) + 1
        assert np.all(vols >= lo) and np.all(vols <= hi)


def test_perturb_argument_validation():
    with pytest.raises(ValueError):
        ss.perturb_base(base(), 0.6, 0.1, 1)
    with pytest.raises(ValueError):
        ss.perturb_base(base(), 0.0, 0.7, 1)
    with pytest.raises(ValueError):
        ss.BaseDistribution(np.zeros(8), "empty")


# ---------------------------------------------------------------------------
# sample_arrivals

def test_sample_arrivals_empty():
    flow = ss.sample_arrivals([0] * 8, 3600, 1)
    assert len(flow) == 0


def test_sample_arrivals_single_vehicle():
    flow = ss.sample_arrivals([1, 0, 0, 0, 0, 0, 0, 0], 3600, 5)
    assert len(flow) == 1
    t, m = flow.arrivals[0]
    assert m == 0 and 0 <= t < 3600


def test_sample_arrivals_count_fidelity():
    volumes = SYNTHETIC_BASES["base2"]
    flow = ss.sample_arrivals(volumes, 3600, 9)
    assert np.array_equal(flow.movement_counts(), volumes)


def test_sample_arrivals_sorted_and_deterministic():
    flow1 = ss.sample_arrivals(SYNTHETIC_BASES["base1"], 3600, 3)
    flow2 = ss.sample_arrivals(SYNTHETIC_BASES["base1"], 3600, 3)
    assert flow1.arrivals.tolist() == flow2.arrivals.tolist()
    times = [t for t, _ in flow1.arrivals]
    assert times == sorted(times)


# ---------------------------------------------------------------------------
# training / test sets

def test_training_set_holds_a_record_per_vehicle(synthetic_bases):
    # 16-byte (t, m) records; a Python (float, int) tuple per vehicle held
    # about 100 bytes.  A first call imports modules, which are not counted.
    ss.make_training_set(synthetic_bases[:1], seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train = ss.make_training_set(synthetic_bases, seed=1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    vehicles = sum(len(flow) for flow in train)
    assert vehicles > 30_000
    assert held / vehicles <= 24


def test_training_set_cardinality(synthetic_bases):
    train = ss.make_training_set(synthetic_bases, seed=1)
    assert len(train) == 25
    assert train.kind == "training"
    assert len(ss.make_training_set(synthetic_bases[:1], seed=1)) == 5


def test_training_set_determinism(synthetic_bases):
    a = ss.make_training_set(synthetic_bases, seed=4)
    b = ss.make_training_set(synthetic_bases, seed=4)
    assert [f.label for f in a] == [f.label for f in b]
    assert all(x.arrivals.tolist() == y.arrivals.tolist() for x, y in zip(a, b))


def test_training_set_empty_bases_error():
    with pytest.raises(ValueError):
        ss.make_training_set([], seed=1)


def test_test_scenarios_cardinality_and_kinds(synthetic_bases):
    test = ss.make_test_scenarios(synthetic_bases, seed=2)
    assert len(test) == 5
    labels = [f.label for f in test]
    assert sum(lbl.startswith("test_var") for lbl in labels) == 3
    assert sum(lbl.startswith("test_vol") for lbl in labels) == 2
    for flow in test:
        if flow.label.startswith("test_var"):
            assert flow.provenance.half_range == TEST_VARIABILITY_HALF_RANGE
            assert flow.provenance.uniform_scale == 0.0
        else:
            assert flow.provenance.uniform_scale == TEST_VOLUME_SCALE


def test_volume_scenarios_scale_total(synthetic_bases):
    # expectation check: the +-10% per-movement noise averages out over seeds
    ratios = []
    for seed in range(12):
        test = ss.make_test_scenarios(synthetic_bases, seed=seed)
        for flow in test:
            if flow.label.startswith("test_vol"):
                base_total = next(b for b in synthetic_bases
                                  if b.label == flow.provenance.base_label).volumes.sum()
                ratios.append(len(flow) / base_total)
    assert abs(np.mean(ratios) - 1.30) < 0.03


def test_test_scenarios_determinism(synthetic_bases):
    a = ss.make_test_scenarios(synthetic_bases, seed=9)
    b = ss.make_test_scenarios(synthetic_bases, seed=9)
    assert all(x.arrivals.tolist() == y.arrivals.tolist() for x, y in zip(a, b))


def test_adding_bases_preserves_existing_scenarios(synthetic_bases):
    # stream splitting: scenario (base i, scale j) is independent of the
    # number of bases in the call
    small = ss.make_training_set(synthetic_bases[:2], seed=6)
    full = ss.make_training_set(synthetic_bases, seed=6)
    assert all(x.arrivals.tolist() == y.arrivals.tolist()
               for x, y in zip(small.scenarios, full.scenarios[:10]))


# ---------------------------------------------------------------------------
# counts ingestion

def write_counts(path, rows):
    lines = ["# schema=1", "timestamp_iso8601,movement,count"]
    lines += [f"{ts},{m},{c}" for ts, m, c in rows]
    path.write_text("\n".join(lines) + "\n")


def spread_counts(volumes, day="2024-05-07", hour=8):
    """Split hourly volumes into 12 deterministic 5-minute buckets."""
    rows = []
    for m, total in enumerate(volumes, start=1):
        per, extra = divmod(int(total), 12)
        for bucket in range(12):
            ts = f"{day}T{hour:02d}:{bucket * 5:02d}:00"
            rows.append((ts, m, per + (1 if bucket < extra else 0)))
    return rows


def test_ingest_reconstructs_peak_hour(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts(path, spread_counts(PEAK_BASES["am_peak"]))
    got = ss.ingest_counts_csv(path, "2024-05-07T08:00", "2024-05-07T09:00")
    assert np.array_equal(got.volumes, PEAK_BASES["am_peak"])
    assert got.volumes.sum() == 1236


def test_ingest_single_bucket(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts(path, [("2024-05-07T08:00:00", 3, 7)])
    got = ss.ingest_counts_csv(path, "08:00", "08:05")
    assert np.array_equal(got.volumes, [0, 0, 7, 0, 0, 0, 0, 0])


def test_ingest_empty_window_is_error(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts(path, [("2024-05-07T08:00:00", 3, 7)])
    with pytest.raises(ValueError, match="no rows"):
        ss.ingest_counts_csv(path, "10:00", "10:05")


def test_ingest_all_zero_counts_distinct_from_empty_window(tmp_path):
    # matching rows with zero counts fail the distribution invariant, which
    # is a different error than a window matching no rows at all
    path = tmp_path / "counts.csv"
    write_counts(path, [("2024-05-07T08:00:00", 3, 0)])
    with pytest.raises(ValueError, match="positive volume"):
        ss.ingest_counts_csv(path, "08:00", "08:05")
    with pytest.raises(ValueError, match="no rows"):
        ss.ingest_counts_csv(path, "10:00", "10:05")


def test_ingest_malformed_row_reports_line(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("# schema=1\ntimestamp_iso8601,movement,count\n"
                    "2024-05-07T08:00:00,3,7\nnot-a-timestamp,1,2\n")
    with pytest.raises(ss.ParseError, match=":4:"):
        ss.ingest_counts_csv(path, "08:00", "08:05")


def test_ingest_misaligned_window_is_error(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts(path, [("2024-05-07T08:00:00", 3, 7)])
    with pytest.raises(ValueError, match="aligned"):
        ss.ingest_counts_csv(path, "08:02", "08:07")


def test_ingest_linearity(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts(path, spread_counts(PEAK_BASES["midday_peak"], hour=14))
    first = ss.ingest_counts_csv(path, "14:00", "14:30")
    second = ss.ingest_counts_csv(path, "14:30", "15:00")
    union = ss.ingest_counts_csv(path, "14:00", "15:00")
    assert np.array_equal(first.volumes + second.volumes, union.volumes)


def test_ingest_datetime_objects(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts(path, [("2024-05-07T08:05:00", 2, 4)])
    got = ss.ingest_counts_csv(path, dt.datetime(2024, 5, 7, 8, 0),
                               dt.datetime(2024, 5, 7, 8, 10))
    assert got.volumes[1] == 4


# ---------------------------------------------------------------------------
# file round trips

def test_flow_csv_round_trip(tmp_path, synthetic_bases):
    flow = ss.make_training_set(synthetic_bases[:1], seed=3).scenarios[0]
    path = tmp_path / "flow.csv"
    ss.write_flow_csv(flow, path)
    back = ss.read_flow_csv(path)
    assert back.arrivals.tolist() == flow.arrivals.tolist()
    assert back.label == flow.label
    assert back.horizon == flow.horizon
    assert back.provenance == flow.provenance
    # canonical text is stable under a round trip
    assert flow_to_csv_text(back) == flow_to_csv_text(flow)
    # the cached text is the file's text
    assert back.csv_text == flow.csv_text == path.read_text()


def test_flow_csv_is_one_based_in_files(tmp_path):
    flow = ss.FlowSpec([(1.5, 0), (2.5, 7)], horizon=10.0)
    path = tmp_path / "flow.csv"
    ss.write_flow_csv(flow, path)
    body = [l for l in path.read_text().splitlines() if not l.startswith(("#", "arrival"))]
    assert body == ["1.5,1", "2.5,8"]


def test_scenario_dir_round_trip(tmp_path, synthetic_bases):
    test = ss.make_test_scenarios(synthetic_bases, seed=5)
    ss.write_scenario_set(test, tmp_path / "set")
    loaded = ss.load_scenario_dir(tmp_path / "set")
    assert sorted(f.label for f in loaded) == sorted(f.label for f in test)


def test_load_scenario_dir_empty_is_missing(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError):
        ss.load_scenario_dir(tmp_path / "empty")


def test_bases_csv_round_trip(tmp_path, synthetic_bases):
    path = tmp_path / "bases.csv"
    ss.write_bases_csv(synthetic_bases, path)
    back = ss.read_bases_csv(path)
    assert [b.label for b in back] == [b.label for b in synthetic_bases]
    assert all(np.array_equal(a.volumes, b.volumes)
               for a, b in zip(back, synthetic_bases))


def test_flowspec_validation():
    with pytest.raises(ValueError):
        ss.FlowSpec([(3700.0, 0)], horizon=3600.0)
    with pytest.raises(ValueError):
        ss.FlowSpec([(10.0, 9)], horizon=3600.0, n_movements=8)
    with pytest.raises(ValueError):
        ss.FlowSpec([(10.0, 0), (5.0, 0)], horizon=3600.0)


# ---------------------------------------------------------------------------
# key=value files

def test_read_known_keys_skips_comments_and_later_keys_win():
    lines = ["# schema=1", "", "  a = 1 ", "b=x=y", "a=2"]
    assert read_known_keys(lines, "f.txt", {"a": int, "b": str}) == {"a": 2, "b": "x=y"}


def test_flow_sidecar_line_without_equals_names_its_line(tmp_path):
    path = tmp_path / "x.csv"
    ss.write_flow_csv(ss.FlowSpec([(1.5, 0)], horizon=3600.0), path)
    sidecar = path.with_suffix(".meta")
    lines = sidecar.read_text().splitlines()
    lines[lines.index("horizon=3600.0")] = "horizon 1800.0"
    sidecar.write_text("\n".join(lines) + "\n")
    line_no = lines.index("horizon 1800.0") + 1
    with pytest.raises(ValueError, match=rf"x\.meta:{line_no}: expected key=value"):
        ss.read_flow_csv(path)


def rewrite_sidecar_line(path, old: str, new: str | None) -> int:
    """Replace (or, with new=None, delete) the sidecar line `old`; its line number."""
    sidecar = path.with_suffix(".meta")
    lines = sidecar.read_text().splitlines()
    line_no = lines.index(old) + 1
    lines[line_no - 1:line_no] = [] if new is None else [new]
    sidecar.write_text("\n".join(lines) + "\n")
    return line_no


def test_flow_sidecar_rejects_an_unknown_key(tmp_path):
    # a misspelt key once fell back to its default: horizon 3600.0
    path = tmp_path / "x.csv"
    ss.write_flow_csv(ss.FlowSpec([(1.5, 0)], horizon=600.0), path)
    line_no = rewrite_sidecar_line(path, "horizon=600.0", "horizn=600.0")
    with pytest.raises(ss.ParseError, match=rf"x\.meta:{line_no}: unknown key 'horizn'"):
        ss.read_flow_csv(path)


def test_flow_sidecar_provenance_keys_come_as_a_set(tmp_path):
    path = tmp_path / "x.csv"
    flow = ss.FlowSpec([(1.5, 0)], horizon=600.0,
                       provenance=ss.Provenance("base2", 0.1, 0.2, 7))
    ss.write_flow_csv(flow, path)
    assert ss.read_flow_csv(path) == flow
    rewrite_sidecar_line(path, "uniform_scale=0.1", None)
    line_no = path.with_suffix(".meta").read_text().splitlines().index("base_label=base2") + 1
    missing = r"without \['uniform_scale'\]"
    with pytest.raises(ss.ParseError, match=rf"x\.meta:{line_no}: provenance keys .* {missing}"):
        ss.read_flow_csv(path)


@pytest.mark.parametrize("old,new", [
    ("horizon=600.0", "horizon=abc"),
    ("n_movements=8", "n_movements=8.5"),
    ("uniform_scale=0.1", "uniform_scale=x"),
    ("half_range=0.2", "half_range=wide"),
    ("seed=7", "seed=seven"),
    # a label no file can hold as it is, which a report's CSV rows would carry
    ("label=flow", "label=east,peak"),
    ("base_label=base2", "base_label=#base2"),
], ids=lambda text: text.partition("=")[0])
def test_flow_sidecar_value_that_does_not_parse_names_its_line(tmp_path, old, new):
    # each once raised a bare "could not convert ..." without file or line
    path = tmp_path / "x.csv"
    ss.write_flow_csv(ss.FlowSpec([(1.5, 0)], horizon=600.0,
                                  provenance=ss.Provenance("base2", 0.1, 0.2, 7)), path)
    line_no = rewrite_sidecar_line(path, old, new)
    key, _, value = new.partition("=")
    with pytest.raises(ss.ParseError, match=rf"x\.meta:{line_no}: {key}: .*'{value}'"):
        ss.read_flow_csv(path)


def test_flow_sidecar_value_error_names_the_line_whose_value_counts(tmp_path):
    # a later key wins, so a bad later value is named at its own line
    path = tmp_path / "x.csv"
    ss.write_flow_csv(ss.FlowSpec([(1.5, 0)], horizon=600.0), path)
    sidecar = path.with_suffix(".meta")
    sidecar.write_text(sidecar.read_text() + "horizon=abc\n")
    line_no = len(sidecar.read_text().splitlines())
    with pytest.raises(ss.ParseError, match=rf"x\.meta:{line_no}: horizon: "):
        ss.read_flow_csv(path)


# ---------------------------------------------------------------------------
# input guards: each case fails if its guard is deleted

@pytest.mark.parametrize("build,match", [
    (lambda: ss.BaseDistribution(np.ones((2, 4)), "b"), "1-d vector"),
    (lambda: ss.BaseDistribution(np.array([5, -1, 3]), "b"), "non-negative"),
    (lambda: ss.FlowSpec([], horizon=0.0), "horizon must be finite and positive"),
    (lambda: ss.FlowSpec([], horizon=math.nan), "horizon must be finite and positive"),
    (lambda: ss.FlowSpec([], horizon=math.inf), "horizon must be finite and positive"),
    (lambda: ss.FlowSpec([(1.0, 0)], horizon=math.nan), "horizon must be finite and positive"),
    (lambda: ss.ScenarioSet([], kind="validation"), "unknown scenario-set kind"),
    (lambda: ss.sample_arrivals([1, 2], -1.0, 0), "horizon must be finite and positive"),
    (lambda: ss.sample_arrivals([1, 2], math.nan, 0), "horizon must be finite and positive"),
    (lambda: ss.sample_arrivals([1, 2], math.inf, 0), "horizon must be finite and positive"),
    (lambda: ss.make_test_scenarios([], 0), "at least one base"),
], ids=["base-2d", "base-negative", "flow-horizon", "flow-horizon-nan", "flow-horizon-inf",
        "flow-horizon-nan-with-a-vehicle", "set-kind", "arrivals-horizon",
        "arrivals-horizon-nan", "arrivals-horizon-inf", "test-set-no-bases"])
def test_construction_rejects(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("start,end,row,match", [
    ("8 o'clock", "09:00", None, r"window_start: cannot parse \"8 o'clock\""),
    ("08:00", "2024-05-07T09:00", None, "both be datetimes or both clock times"),
    ("08:00", "09:00", "2024-05-07T08:05:00,3", r"counts\.csv:3: expected 3 fields, got 2"),
    ("08:00", "09:00", "2024-05-07T08:05:00,9,1", r"counts\.csv:3: movement 9 outside 1\.\.8"),
    ("08:00", "09:00", "2024-05-07T08:05:00,0,1", r"counts\.csv:3: movement 0 outside"),
    ("08:00", "09:00", "2024-05-07T08:05:00,3,-2", r"counts\.csv:3: negative count"),
], ids=["edge-unparsable", "edge-types-mixed", "row-fields", "row-movement-high",
        "row-movement-low", "row-negative"])
def test_ingest_rejects(tmp_path, start, end, row, match):
    path = tmp_path / "counts.csv"
    path.write_text("# schema=1\n2024-05-07T08:00:00,3,7\n" + (row or "") + "\n")
    with pytest.raises(ValueError, match=match) as err:
        ss.ingest_counts_csv(path, start, end)
    assert isinstance(err.value, ss.ParseError) == (row is not None)


@pytest.mark.parametrize("row,match", [
    ("12.5,1,1", "expected 2 fields, got 3"),
    ("soon,1", "could not convert string to float"),
    ("12.5,9", r"movement 9 outside 1\.\.8"),
    ("12.5,0", "movement 0 outside"),
    # the flow's own checks, once raised without the file
    ("5.0,2", "arrivals must be sorted by time"),
    ("3600.0,2", r"arrival time 3600\.0 outside \[0, 3600\.0\)"),
], ids=["fields", "time-unparsable", "movement-high", "movement-low", "unsorted",
        "past-horizon"])
def test_read_flow_csv_rejects(tmp_path, row, match):
    path = tmp_path / "flow.csv"
    path.write_text(f"# schema=1\narrival_s,movement\n10.0,1\n{row}\n")
    with pytest.raises(ss.ParseError, match=rf"flow\.csv:4: {match}"):
        ss.read_flow_csv(path)


@pytest.mark.parametrize("rows,match", [
    ("b2", r"bases\.csv:4: expected 3 fields, got 1"),
    ("b2,3,x", r"bases\.csv:4: invalid literal for int\(\)"),
    # read, it once failed later, where a flow file refused it without a line
    ("b2 ,3,4", r"bases\.csv:4: label 'b2 ' cannot go into a file"),
    (None, r"no base distributions found in .*bases\.csv"),
], ids=["label-only", "volume-unparsable", "label-padded", "no-bases"])
def test_read_bases_csv_rejects(tmp_path, rows, match):
    path = tmp_path / "bases.csv"
    body = "b1,3,4\n" + rows + "\n" if rows else ""
    path.write_text("# schema=1\nlabel,mov_1,mov_2\n" + body)
    with pytest.raises(ValueError, match=match) as err:
        ss.read_bases_csv(path)
    assert isinstance(err.value, ss.ParseError) == (rows is not None)


# ---------------------------------------------------------------------------
# CSV framing: a header only as the first line, rows as wide as the first line

def test_a_base_labelled_like_the_header_is_read(tmp_path):
    # any row starting with "label" was once skipped as a header: this base vanished
    path = tmp_path / "bases.csv"
    path.write_text("# schema=1\nlabel,mov_1,mov_2\nA,1,2\nLabelled_peak,3,4\n")
    assert [(b.label, b.volumes.tolist()) for b in ss.read_bases_csv(path)] == [
        ("A", [1, 2]), ("Labelled_peak", [3, 4])]


@pytest.mark.parametrize("name,text,read", [
    ("flow.csv", "arrival_s,movement\n1.0,1\narrival_s,movement\n2.0,2\n", ss.read_flow_csv),
    ("bases.csv", "label,mov_1,mov_2\nA,1,2\nlabel,mov_1,mov_2\n", ss.read_bases_csv),
    ("counts.csv", "timestamp_iso8601,movement,count\n2024-05-07T08:00:00,3,7\n"
                   "Timestamp_ISO8601,movement,count\n",
     lambda path: ss.ingest_counts_csv(path, "08:00", "08:05")),
], ids=["flow", "bases", "counts"])
def test_a_header_repeated_mid_file_is_an_error_at_its_line(tmp_path, name, text, read):
    path = tmp_path / name
    path.write_text("# schema=1\n" + text)
    with pytest.raises(ss.ParseError, match=rf"{name.replace('.', '[.]')}:4: "):
        read(path)


@pytest.mark.parametrize("header", ["label,mov_1,mov_2,mov_3\n", "LABEL,a,b,c\n", ""],
                         ids=["header", "header-any-case", "no-header"])
def test_a_ragged_bases_row_is_an_error_at_its_line(tmp_path, header):
    # `A,1,2,3` and `B,4,5` once read as a 3- and a 2-movement base
    path = tmp_path / "bases.csv"
    path.write_text("# schema=1\n" + header + "A,1,2,3\nB,4,5\n")
    line_no = 4 if header else 3
    with pytest.raises(ss.ParseError, match=rf"bases\.csv:{line_no}: expected 4 fields, got 3"):
        ss.read_bases_csv(path)


def test_a_nan_sidecar_horizon_is_an_error_at_its_line(tmp_path):
    path = tmp_path / "x.csv"
    ss.write_flow_csv(ss.FlowSpec([(1.5, 0)], horizon=600.0), path)
    line_no = rewrite_sidecar_line(path, "horizon=600.0", "horizon=nan")
    with pytest.raises(ss.ParseError,
                       match=rf"x\.meta:{line_no}: horizon: .*finite and positive, got nan"):
        ss.read_flow_csv(path)


@pytest.mark.parametrize("label", ["east,peak", "east\npeak", "east\rpeak", "#east",
                                   " east", "east "])
def test_a_label_no_file_can_hold_is_refused_on_write(tmp_path, label):
    base = ss.BaseDistribution(np.array([1, 2]), label)
    with pytest.raises(ValueError, match=re.escape(f"label {label!r} cannot go into a file")):
        ss.write_bases_csv([base], tmp_path / "bases.csv")
    flow = ss.FlowSpec([(1.0, 0)], label=label)
    with pytest.raises(ValueError, match="cannot go into a file"):
        ss.write_flow_csv(flow, tmp_path / "flow.csv")
    with pytest.raises(ValueError, match="cannot go into a file"):
        ss.write_flow_csv(ss.FlowSpec([], provenance=ss.Provenance(label, 0.0, 0.0, 0)),
                          tmp_path / "flow.csv")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("labels,match", [
    (["am", "am/peak"], r"not plain file names: \['am/peak'\]"),
    (["."], r"not plain file names: \['\.'\]"),
    (["am", ".."], r"not plain file names: \['\.\.'\]"),
    (["pm", "am", "pm"], "held by more than one flow: pm"),
])
def test_a_scenario_set_its_labels_cannot_name_is_refused_before_writing(tmp_path, labels,
                                                                         match):
    # `am/peak` once raised FileNotFoundError for a directory that does not
    # exist, and a second `pm` overwrote the first's files without a word
    flows = ss.ScenarioSet([ss.FlowSpec([(1.0, i)], label=label)
                            for i, label in enumerate(labels)])
    with pytest.raises(ValueError, match=match):
        ss.write_scenario_set(flows, tmp_path / "set")
    assert not (tmp_path / "set").exists()
