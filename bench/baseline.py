"""Measure a commit: repeated untraced runs plus one traced run per workload.

    python3 bench/baseline.py --out bench/baseline.json

Per workload it makes RUNS untraced runs with seeds 1..RUNS, as the
benchmark's acceptance check takes them, REPEATS more of seed 1, and one
traced run of seed 1, each of `run_seconds` from BENCHMARK.json.  Per
end-to-end metric it records the median over seeds, the spread over seeds
(distance between the first and third quartile, as a share of the median)
and the spread over the repeats of one seed.  On evaluate each seed is
another scenario set, so the spread over seeds holds the change in work as
well as the host's noise; the spread over repeats holds the noise alone.
From the traced run it records the layer rows a performance change quotes
as before and after.  Run it on both commits, on the same machine, to
compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import import_program  # noqa: E402  (first: fixes the BLAS threads)
from inputs import environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = 10       # seeds 1..RUNS
REPEATS = 5     # further runs of seed 1

# Layer rows: (row, workload, per-layer metric or metrics summed).
STATE_ROWS = (
    ("step, one 10-s decision", "evaluate", ("intersection.step.us_p50",)),
    ("frap_forward, B=1", "evaluate", ("network.frap_forward.us_p50",)),
    ("bellman_grads, B=32", "train_dqn", ("network.bellman_grads.us_p50",)),
    ("clip_gradients + sgd_step", "train_dqn",
     ("network.clip_gradients.us_p50", "network.sgd_step.us_p50")),
    ("episode (greedy or baseline)", "evaluate", ("intersection.run_episode.ms_p50",)),
    ("DQN training episode", "train_dqn", ("dqn.train_dqn.ms_per_episode",)),
    ("meta-iteration (task_batch=3)", "train_meta", ("meta.train_metalight.ms_per_iteration",)),
    ("adaptation (adapt_to_scenario)", "evaluate", ("meta.adapt_to_scenario.ms_p50",)),
)

# Shares that show which layer each workload loads, and the tracing cost.
SHARES = ("network.bellman_grads.share", "network.frap_forward.share",
          "intersection.step.share", "trace.overhead_share")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} operations failed")
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def metric_values(workload: str, seeds, seconds: int) -> dict[str, list]:
    values: dict[str, list] = {}
    for seed in seeds:
        for name, m in run_once(workload, seed, seconds, 0)["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "bench_out" / "baseline.json")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"environment": environment(import_program()), "runs": RUNS,
              "repeats": REPEATS, "seconds": seconds, "end_to_end": {}, "layers": {}}
    traced = {}
    for workload in WORKLOADS:
        over_seeds = metric_values(workload, range(1, RUNS + 1), seconds)
        repeats = metric_values(workload, [1] * REPEATS, seconds)
        report["end_to_end"][workload] = {
            name: {"median": statistics.median(v), "spread": spread(v),
                   "same_seed_spread": spread(repeats[name]), "values": v,
                   "same_seed_values": repeats[name]}
            for name, v in over_seeds.items()}
        traced[workload] = run_once(workload, 1, seconds, 1)["metrics"]
        print(json.dumps({workload: report["end_to_end"][workload]}), file=sys.stderr)
    for row, workload, metrics in STATE_ROWS:
        present = [traced[workload][m] for m in metrics if m in traced[workload]]
        if len(present) == len(metrics):
            report["layers"][row] = {"workload": workload, "unit": present[0]["unit"],
                                     "value": sum(m["value"] for m in present)}
    report["traced_shares"] = {
        w: {m: traced[w][m]["value"] for m in SHARES if m in traced[w]} for w in WORKLOADS}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
