"""Benchmark entry point; run from the root of a checkout.

    python3 bench/run.py --workload train_dqn --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
makes the traced run that gives the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The full record of a run goes to bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is first imported: the network's
# matrices are 16 wide, so extra threads only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostclock import HostClock, WallClock  # noqa: E402
from inputs import HELD_OUT_SEED, environment, load_pins, verify_data_files  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import Tracer, percentile  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Tally, run_unit, setup  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / "bench_out"
SRC = ROOT / "src"
SETUP_TRIALS = 7
IMPORT_PROBE = ("import time; t, c = time.perf_counter(), time.process_time(); "
                "import signalshift; "
                "print(min(time.perf_counter() - t, time.process_time() - c))")


def import_program():
    """Import signalshift from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "signalshift" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'signalshift'} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import signalshift
    if Path(signalshift.__file__).resolve().parent != SRC / "signalshift":
        print(f"error: imported signalshift from {signalshift.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return signalshift


def settle_allocator() -> None:
    """Free one large block so glibc malloc raises its trim threshold now.

    glibc returns the top of the heap to the system whenever more than the
    trim threshold is free, and raises that threshold the first time it
    frees a block it had mapped.  Until then every TD update (about 260 kB
    of temporaries) faults its pages in again; when that first free happens
    depends on a process's history, which made whole runs 15-30 % slower
    or not.  Freeing a 4 MB block puts every run in the settled state.
    """
    block = bytearray(4 << 20)
    del block


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, the smaller of
    its wall and CPU time as hostclock.py takes it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip())


class SetupTrials:
    """The timed set-ups of one run; `setup_s` is their median.

    A trial is the package import in a fresh interpreter plus `setup`,
    scaled by the host's speed during the trial.  In an untraced run the
    trials are spread evenly over the run, one before a unit whenever the
    next is due, so that like the other metrics they see the host across
    the whole run; the trials still missing when the units are done are
    taken then."""

    def __init__(self, ss, workload, seed, workdir, trials, clock):
        self.args = (ss, workload, seed, workdir)
        self.trials = trials
        self.clock = clock
        self.times: list[float] = []
        self.raw: list[float] = []
        self.current = None

    def take(self):
        mark = self.clock.mark()
        imported = import_seconds()
        start = self.clock.now()
        self.current = setup(*self.args)
        raw = imported + self.clock.since(start)
        self.raw.append(raw)
        self.times.append(raw * self.clock.factor(mark))
        return self.current

    def due(self, fraction: float) -> bool:
        """Whether a trial is due once `fraction` of the run has passed."""
        return len(self.times) < self.trials and fraction * self.trials >= len(self.times)

    def complete(self) -> float:
        while len(self.times) < self.trials:
            self.take()
        return statistics.median(self.times)


def run_units(ss, workload, s, sizes, seed, tally, pins, seconds, tracer,
              clock=None, trials=None):
    """Repeat the workload's unit until `seconds` have passed (at least once),
    taking the due set-up `trials`, if given, between units.

    Returns per unit (seconds, decisions, td updates, wall seconds, factor):
    the unit's program time (see hostclock.py) times the host-speed factor
    over the unit, its raw wall time, and the factor (1 on a `WallClock`).
    The counts come from the tracer's counters, so they are 0 in a traced
    run."""
    clock = clock or WallClock()
    units = []
    begin = time.perf_counter()
    while not units or time.perf_counter() - begin < seconds:
        elapsed = time.perf_counter() - begin
        if trials is not None and trials.due(elapsed / seconds if seconds else 1.0):
            s = trials.take()
        d0, u0 = tracer.counters["decisions"], tracer.counters["td_updates"]
        with tracer:
            mark = clock.mark()
            wall0 = time.perf_counter()
            start = clock.now()
            run_unit(ss, workload, s, sizes, seed, tally, pins)
            program = clock.since(start)
            wall = time.perf_counter() - wall0
        factor = clock.factor(mark)
        tally.commit(factor)
        units.append((program * factor, tracer.counters["decisions"] - d0,
                      tracer.counters["td_updates"] - u0, wall, factor))
    return units


def end_to_end(setup_s, units, tally) -> dict:
    """Averages over the run of times scaled to the reference host (see
    hostclock.py).  Cell percentiles are taken across cells, of each cell's
    mean over its repeats."""
    wall = sum(u[0] for u in units)
    cell_ms = [1e3 * statistics.fmean(times) for times in tally.cell_s.values()]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall / len(units), "s"),
        "decisions_per_s": (sum(u[1] for u in units) / wall, "1/s"),
        "td_updates_per_s": (sum(u[2] for u in units) / wall, "1/s"),
        "cell_ms_p50": (percentile(cell_ms, 0.5), "ms"),
        "cell_ms_p90": (percentile(cell_ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure(ss, workload, seed, seconds, trace, sizes, pins, workdir,
            trials=SETUP_TRIALS) -> dict:
    """One run: its set-ups and units; returns the full record."""
    tally = Tally()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        with HostClock() as clock:
            tally.clock = clock
            setups = SetupTrials(ss, workload, seed, workdir, trials, clock)
            units = run_units(ss, workload, None, sizes, seed, tally, pins, seconds,
                              Tracer(trace=False), clock, setups)
            setup_s = setups.complete()
        metrics = end_to_end(setup_s, units, tally)
        record.update(cells=len(tally.cell_s), cell_s=tally.cell_s, setup_s=setups.times,
                      setup_wall_s=setups.raw, slices=len(clock.slices),
                      slice_s_median=statistics.median(clock.slices))
    else:
        setups = SetupTrials(ss, workload, seed, workdir, trials, WallClock())
        tracer = Tracer(trace=True)
        with tracer:
            setups.complete()
        s = setups.current
        setup_spans = len(tracer.spans)
        # Untraced and traced units alternate, so both see the host's same
        # fast and slow spells; each pair gives one overhead ratio.
        untraced, traced = [], []
        begin = time.perf_counter()
        while not traced or time.perf_counter() - begin < seconds:
            untraced += run_units(ss, workload, s, sizes, seed, tally, pins, 0,
                                  Tracer(trace=False))
            traced += run_units(ss, workload, s, sizes, seed, tally, pins, 0, tracer)
        metrics, absent = layer_metrics(tracer, setup_spans, untraced, traced)
        record["absent"] = absent
        record["spans"] = len(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload}.csv.gz")
        units = untraced + traced
    inputs = setups.current
    record.update(
        units=len(units), unit_work=units, attempted=tally.attempted, failed=tally.failed,
        failures=tally.failures[:20], learned_digest=tally.learned.hexdigest(),
        scenario_seed=inputs.scenario_seed,
        train_digest=ss.meta.scenario_digest(inputs.train),
        test_digest=ss.meta.scenario_digest(inputs.test),
        metrics={name: {"value": value, "unit": unit}
                 for name, (value, unit) in metrics.items()})
    return record


def print_record(record) -> None:
    print(f"workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} units={record['units']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    share = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  {'failed_share':<44} {share:>14.6g} share")
    if "cells" in record:
        print(f"  cell percentiles over {record['cells']} cells, each the mean of its repeats")
    for name in record.get("absent", []):
        print(f"  {name:<44} {'absent':>14}")
    for line in record["failures"]:
        print(f"  FAILED {line}")


def smoke(ss, pins) -> int:
    """Every workload at its smallest, both modes; every named metric must be
    printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            workdir = OUT_DIR / f"smoke-{workload}"
            record = measure(ss, workload, 0, 0, trace, SMOKE, pins, workdir, trials=1)
            shutil.rmtree(workdir, ignore_errors=True)
            print_record(record)
            got = {name: m["unit"] for name, m in record["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            if record["failed"]:
                problems.append(f"{workload} trace={trace}: {record['failed']} failed")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    if not problems:
        print("smoke ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="signalshift benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at its smallest and check the output")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    ss = import_program()
    settle_allocator()

    digests = verify_data_files()
    pins = load_pins()
    if args.smoke:
        return smoke(ss, pins)

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        record = measure(ss, args.workload, args.seed, args.seconds, args.trace, FULL,
                         pins, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(environment=environment(ss), data_sha256=digests,
                  held_out_seed=HELD_OUT_SEED)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_record(record)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
