"""Benchmark inputs: base volumes, seeded scenario sets, frozen checkpoints,
pinned baseline travel times, and the environment record.

Everything here is derived from the workload seed or read from `data/`,
whose files are committed with the benchmark and checked by SHA-256.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
DQN_CKPT = DATA_DIR / "dqn_seed0.ckpt"
META_CKPT = DATA_DIR / "meta_seed0.ckpt"
PINS_FILE = DATA_DIR / "pins.json"
SHA_FILE = DATA_DIR / "sha256.json"

# The five synthetic hourly base volumes of tests/conftest.py
# (SYNTHETIC_BASES); selftest.py checks the two stay equal.
BASES = {
    "base1": [98, 159, 114, 147, 157, 174, 165, 289],
    "base2": [164, 332, 73, 308, 339, 58, 25, 45],
    "base3": [345, 85, 190, 101, 153, 127, 125, 188],
    "base4": [188, 418, 98, 445, 436, 72, 27, 74],
    "base5": [451, 101, 252, 139, 169, 159, 170, 250],
}

# The evaluate workload draws its scenario seed from this pool, for which
# the baseline travel times are pinned; training workloads take any seed.
# The held-out seed is pinned as its own scenario seed (see below).
EVAL_SCENARIO_SEEDS = 16
# Per-cell seeds (adaptation and random-policy streams) of the evaluate matrix.
EVAL_SEEDS = (0, 1, 2, 3)
BASELINES = ("fixed_time", "max_pressure", "random")
# Training seed of the committed checkpoints.
CHECKPOINT_SEED = 0
# Workload seed never used while the benchmark was tuned; keep it for
# validating a claimed gain on a seed the change was not written against.
# On evaluate it is its own scenario seed, outside the tuning pool.
HELD_OUT_SEED = 7919


def base_list(ss):
    return [ss.BaseDistribution(np.array(v), label) for label, v in BASES.items()]


def scenario_sets(ss, seed: int, horizon: float):
    """The canonical 25-scenario training set and the 5 test scenarios."""
    bases = base_list(ss)
    return (ss.make_training_set(bases, seed, horizon),
            ss.make_test_scenarios(bases, seed, horizon))


def eval_scenario_seed(workload_seed: int) -> int:
    if workload_seed == HELD_OUT_SEED:
        return HELD_OUT_SEED
    return workload_seed % EVAL_SCENARIO_SEEDS


def pinned_scenario_seeds() -> list[int]:
    """Every scenario seed the evaluate workload can use."""
    return [*range(EVAL_SCENARIO_SEEDS), HELD_OUT_SEED]


def pin_key(scenario_seed: int, label: str, algorithm: str, seed: int) -> str:
    """Deterministic policies ignore the cell seed, so theirs is pinned once."""
    cell_seed = seed if algorithm == "random" else "*"
    return f"{scenario_seed}/{label}/{algorithm}/{cell_seed}"


def load_pins(path: Path = PINS_FILE) -> dict[str, str]:
    """Pinned travel times as `repr` strings, so equality is bit for bit."""
    return json.loads(Path(path).read_text())["travel_time_s"]


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def verify_data_files() -> dict[str, str]:
    """SHA-256 of every committed input; raises if one differs from the record."""
    expected = json.loads(SHA_FILE.read_text())
    actual = {}
    for name, digest in expected.items():
        actual[name] = sha256_of(DATA_DIR / name)
        if actual[name] != digest:
            raise RuntimeError(f"{name}: SHA-256 {actual[name]} != recorded {digest}")
    return actual


def environment(ss) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # the layout of numpy's build record varies by version
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "signalshift": getattr(ss, "__version__", "unknown"),
        "platform": sys.platform,
    }
