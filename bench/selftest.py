"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py

The file name keeps them out of the repository's default test collection.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from hostclock import NOMINAL_SLICE_S, HostClock  # noqa: E402
from inputs import (BASES, EVAL_SCENARIO_SEEDS, HELD_OUT_SEED, base_list,  # noqa: E402
                    eval_scenario_seed, load_pins, pin_key)
from tracing import Tracer  # noqa: E402
from workloads import SMOKE, Tally, setup, unit_train_dqn  # noqa: E402

ss = run.import_program()


def test_smoke_prints_every_metric_with_its_unit():
    out = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.rstrip().endswith("smoke ok")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert f" {metric['name']} " in out.stdout


def test_tampered_pin_counts_as_failed(tmp_path):
    pins = load_pins()
    label = ss.make_test_scenarios(base_list(ss), 0).scenarios[0].label
    key = pin_key(0, label, "max_pressure", 0)
    pins[key] = repr(float(pins[key]) + 1e-9)
    record = run.measure(ss, "evaluate", 0, 0, 0, SMOKE, pins, tmp_path, trials=1)
    assert record["failed"] == 1
    assert record["failed"] / record["attempted"] > 0
    assert "pinned" in record["failures"][0]


def test_missing_function_is_absent_not_a_crash(tmp_path, monkeypatch):
    monkeypatch.delattr(ss.network, "sgd_step")
    record = run.measure(ss, "train_meta", 0, 0, 1, SMOKE, load_pins(), tmp_path, trials=1)
    assert "network.sgd_step.us_p50" in record["absent"]
    assert "network.sgd_step.us_p50" not in record["metrics"]
    assert record["failed"] == 0


def test_held_out_seed_is_its_own_pinned_scenario_seed():
    assert eval_scenario_seed(HELD_OUT_SEED) == HELD_OUT_SEED
    assert HELD_OUT_SEED not in range(EVAL_SCENARIO_SEEDS)
    assert {k.split("/")[0] for k in load_pins()} == {
        str(seed) for seed in [*range(EVAL_SCENARIO_SEEDS), HELD_OUT_SEED]}


def test_train_dqn_unit_fills_and_overwrites_its_replay_memory(tmp_path, monkeypatch):
    pushes = {}
    push = ss.ReplayMemory.push

    def counted(memory, transition):
        pushes[id(memory)] = (pushes.get(id(memory), (0,))[0] + 1, memory.capacity)
        push(memory, transition)
    monkeypatch.setattr(ss.ReplayMemory, "push", counted)
    tally = Tally()
    unit_train_dqn(ss, setup(ss, "train_dqn", 0, tmp_path), SMOKE, 0, tally)
    assert tally.failed == 0
    assert pushes and all(n > 2 * capacity for n, capacity in pushes.values())


def test_host_clock_keeps_its_slices_out_of_program_time():
    handler = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        start = clock.now()
        while time.perf_counter() - wall0 < 0.3:
            sum(range(1000))
        program = clock.since(start)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        factor = clock.factor(0)
    assert len(clock.slices) >= 10
    assert program == pytest.approx(
        min(wall - clock.slice_wall, cpu - clock.slice_cpu), abs=2e-3)
    assert 0.1 < factor < 10 and factor == pytest.approx(
        NOMINAL_SLICE_S / statistics.median(clock.slices), rel=0.5)
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_restores_every_binding():
    before = (ss.step, ss.dqn.step, ss.meta.bellman_grads, ss.ReplayMemory.sample)
    with Tracer(trace=True) as tracer:
        assert ss.dqn.step is not before[1] and ss.dqn.step is ss.intersection.step
        assert "dqn.ReplayMemory.sample" in tracer.wrapped
    assert (ss.step, ss.dqn.step, ss.meta.bellman_grads, ss.ReplayMemory.sample) == before


def test_bases_match_the_test_suite():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = conftest   # its dataclass looks its module up
    spec.loader.exec_module(conftest)
    assert BASES == conftest.SYNTHETIC_BASES


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "evaluate",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
