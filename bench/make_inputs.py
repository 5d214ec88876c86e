"""Regenerate the benchmark's frozen inputs in bench/data/.

    python3 bench/make_inputs.py

Checkpoints: `train_dqn` with the default DqnHyper (100 episodes) and
`train_metalight` with the default MetaHyper (100 meta-iterations), both
with seed 0, on the canonical training set of scenario seed 0 and the
default IntersectionConfig; together about three minutes on 2 vCPUs.
Training is deterministic, so a rerun on the same code reproduces the
committed checkpoints and their SHA-256.

Pins: travel time of every baseline cell of the evaluate workload, for each
scenario seed of the pool and the held-out seed, stored as `repr` so a check compares bit for bit.
Regenerating them hides a change in simulator output; do it only in a change
that says so.
"""

from __future__ import annotations

import json
import sys
import time

from run import import_program  # first: it fixes the BLAS threads before numpy loads
from inputs import (BASELINES, CHECKPOINT_SEED, DQN_CKPT, EVAL_SEEDS, META_CKPT,
                    PINS_FILE, SHA_FILE, pin_key, pinned_scenario_seeds, scenario_sets,
                    sha256_of)
from workloads import baseline_policy


def make_checkpoints(ss, config) -> None:
    train, _ = scenario_sets(ss, CHECKPOINT_SEED, config.horizon)
    t0 = time.perf_counter()
    dqn = ss.train_dqn(config, train, ss.DqnHyper(seed=CHECKPOINT_SEED))
    ss.save_params(dqn.params, DQN_CKPT)
    print(f"dqn: {dqn.updates} updates in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    t0 = time.perf_counter()
    meta = ss.train_metalight(config, train, ss.MetaHyper(seed=CHECKPOINT_SEED))
    ss.save_meta_checkpoint(meta.checkpoint, META_CKPT)
    print(f"meta: {len(meta.log)} iterations in {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)


def make_pins(ss, config) -> None:
    pins = {}
    for scenario_seed in pinned_scenario_seeds():
        _, test = scenario_sets(ss, scenario_seed, config.horizon)
        for scenario in test:
            for algorithm in BASELINES:
                for seed in EVAL_SEEDS:
                    key = pin_key(scenario_seed, scenario.label, algorithm, seed)
                    if key in pins:
                        continue
                    record = ss.evaluate(baseline_policy(ss, algorithm, config, seed),
                                         scenario, config, seed=seed)
                    pins[key] = repr(record.avg_travel_time)
    PINS_FILE.write_text(json.dumps({"travel_time_s": pins}, indent=1, sort_keys=True)
                         + "\n")
    print(f"pins: {len(pins)} cells", file=sys.stderr)


def main() -> int:
    ss = import_program()
    config = ss.IntersectionConfig()
    make_checkpoints(ss, config)
    make_pins(ss, config)
    digests = {p.name: sha256_of(p) for p in (DQN_CKPT, META_CKPT, PINS_FILE)}
    SHA_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=1), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
