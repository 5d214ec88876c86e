from dataclasses import replace

import numpy as np
import pytest

import signalshift as ss

from conftest import queued_state


def empty_flow():
    return ss.FlowSpec([], horizon=3600.0)


# ---------------------------------------------------------------------------
# config validation

def test_config_defaults():
    cfg = ss.IntersectionConfig()
    assert cfg.n_phases == 4 and cfg.ticks_per_interval == 10


@pytest.mark.parametrize("kwargs", [
    dict(phases=((0, 1), (2, 3))),                      # movements 4..7 uncovered
    dict(phases=((0, 4), (0, 4), (1, 5), (2, 6), (3, 7))),  # duplicate phase
    dict(phases=((0, 4), (), (1, 5), (2, 3, 6, 7))),    # empty phase
    dict(lost_time=10.0),                               # >= decision interval
    dict(decision_interval=10.0, tick=3.0),             # not a multiple
    dict(saturation_rate=0.0),
])
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        ss.IntersectionConfig(**kwargs)


# ---------------------------------------------------------------------------
# observe

def test_observe_empty_state():
    cfg = ss.IntersectionConfig()
    obs = ss.observe(ss.initial_state(cfg, empty_flow()), cfg)
    assert obs.shape == (8, 2) and obs.dtype == np.float64
    assert np.array_equal(obs[:, 0], np.zeros(8))
    # phase 0 is current: its movements, and only they, are green
    expected_flags = [1 if m in cfg.phases[0] else 0 for m in range(8)]
    assert np.array_equal(obs[:, 1], expected_flags)


def test_observe_counts_and_flags():
    # first two movements paired in phase 0 to mirror the worked example
    cfg = ss.IntersectionConfig(phases=((0, 1), (2, 3), (4, 5), (6, 7)))
    state = queued_state(cfg, {0: 2, 1: 3})
    obs = ss.observe(state, cfg)
    assert list(obs[:, 0]) == [2, 3, 0, 0, 0, 0, 0, 0]
    assert list(obs[:, 1]) == [1, 1, 0, 0, 0, 0, 0, 0]


def test_observe_is_pure():
    cfg = ss.IntersectionConfig()
    state = queued_state(cfg, {1: 4})
    first = ss.observe(state, cfg)
    second = ss.observe(state, cfg)
    assert np.array_equal(first, second)
    first[0] = 99  # mutating a copy must not leak into the state
    assert state.arrived[0] == len(state.exits[0]) == 0
    assert np.array_equal(ss.observe(state, cfg), second)


def test_observe_movement_mismatch():
    cfg4 = ss.IntersectionConfig(n_movements=4, phases=((0, 1), (2, 3)))
    state = ss.initial_state(ss.IntersectionConfig(), empty_flow())
    with pytest.raises(ValueError):
        ss.observe(state, cfg4)


# ---------------------------------------------------------------------------
# step

def test_step_discharges_at_saturation():
    cfg = ss.IntersectionConfig()
    state = queued_state(cfg, {0: 5})
    state, reward = ss.step(state, 0, cfg)
    assert state.arrived[0] == len(state.exits[0])
    assert reward == 0.0
    assert state.exits[0] == [2.0, 4.0, 6.0, 8.0, 10.0]


def test_step_empty_advances_clock():
    cfg = ss.IntersectionConfig()
    state = ss.initial_state(cfg, empty_flow())
    state, reward = ss.step(state, 0, cfg)
    assert state.clock == 10.0
    assert reward == 0.0


def test_step_reward_is_negative_queue_total():
    cfg = ss.IntersectionConfig()
    state = queued_state(cfg, {1: 2, 2: 3})
    state, reward = ss.step(state, 0, cfg)  # phase 0 serves neither queue
    assert reward == -5.0


def test_step_phase_change_spends_lost_time():
    cfg = ss.IntersectionConfig()
    state = queued_state(cfg, {1: 5})
    state, _ = ss.step(state, 1, cfg)  # switch: 3s all-red then 7s green
    # only 7 green seconds at 0.5 veh/s -> 3 vehicles out
    assert state.arrived[1] - len(state.exits[1]) == 2


def test_fast_discharge_serves_only_waiting_vehicles():
    # 2.5 credits a tick could discharge two vehicles, but only one waits
    cfg = ss.IntersectionConfig(saturation_rate=2.5)
    state = queued_state(cfg, {0: 1})
    state, reward = ss.step(state, 0, cfg, validate=True)
    assert state.exits[0] == [1.0]
    assert state.credits[0] == 0.0 and reward == 0.0


def test_step_invalid_phase():
    cfg = ss.IntersectionConfig()
    state = ss.initial_state(cfg, empty_flow())
    with pytest.raises(ValueError):
        ss.step(state, 4, cfg)


# ---------------------------------------------------------------------------
# validate: the conservation check fires on a corrupt state

def test_validate_rejects_more_served_than_arrived():
    cfg = ss.IntersectionConfig()
    state = queued_state(cfg, {0: 2})
    state.exits[0].extend([0.0, 0.0, 0.0])
    with pytest.raises(RuntimeError, match=r"conservation violated at t=1\.0"):
        ss.step(state, 1, cfg, validate=True)  # phase change: all-red, no service


def test_validate_rejects_arrived_total_off_the_cursor():
    cfg = ss.IntersectionConfig()
    state = queued_state(cfg, {0: 1, 2: 1})
    state.cursor = 1
    with pytest.raises(RuntimeError, match=r"conservation violated at t=1\.0"):
        ss.step(state, 0, cfg, validate=True)


# ---------------------------------------------------------------------------
# run_episode

def test_lone_vehicle_travel_time():
    cfg = ss.IntersectionConfig()
    flow = ss.FlowSpec([(0.0, 0)], horizon=3600.0)
    result = ss.run_episode(cfg, flow, lambda obs: 0, validate=True)
    assert result.completed_count == 1
    assert 20.0 <= result.avg_travel_time <= 22.0


def test_empty_flow_has_absent_average():
    cfg = ss.IntersectionConfig()
    result = ss.run_episode(cfg, empty_flow(), lambda obs: 0)
    assert result.completed_count == 0
    assert result.residual_count == 0
    assert result.avg_travel_time is None


def test_starved_vehicle_is_censored():
    cfg = ss.IntersectionConfig()
    flow = ss.FlowSpec([(5.0, 1)], horizon=3600.0)
    result = ss.run_episode(cfg, flow, lambda obs: 0)
    assert result.completed_count == 0 and result.residual_count == 1
    arrival, exit_t, movement, censored = result.per_vehicle[0]
    assert censored and movement == 1
    assert exit_t == cfg.horizon + cfg.drain
    assert result.avg_travel_time == exit_t - arrival


def test_episode_determinism():
    cfg = ss.IntersectionConfig(horizon=600.0, drain=120.0)
    flow = ss.sample_arrivals([40, 80, 20, 60, 30, 70, 10, 50], 600.0, 13)
    a = ss.run_episode(cfg, flow, ss.MaxPressurePolicy(cfg), seed=1)
    b = ss.run_episode(cfg, flow, ss.MaxPressurePolicy(cfg), seed=1)
    assert a.per_vehicle == b.per_vehicle
    assert a.reward_trace == b.reward_trace
    assert a.avg_travel_time == b.avg_travel_time


def test_conservation_and_bounds_on_random_scenarios():
    cfg = ss.IntersectionConfig(horizon=600.0, drain=300.0)
    rng = np.random.default_rng(77)
    for trial in range(5):
        volumes = rng.integers(0, 60, size=8)
        flow = ss.sample_arrivals(volumes, 600.0, int(rng.integers(1000)))
        policy = ss.RandomPolicy(cfg, seed=trial)
        result = ss.run_episode(cfg, flow, policy, seed=trial, validate=True)
        total = int(volumes.sum())
        assert result.completed_count + result.residual_count == total
        assert all(-total <= r <= 0 for r in result.reward_trace)


def test_fifo_and_monotone_service():
    cfg = ss.IntersectionConfig(horizon=600.0, drain=300.0)
    flow = ss.sample_arrivals([30, 90, 15, 45, 30, 90, 15, 45], 600.0, 21)
    result = ss.run_episode(cfg, flow, ss.MaxPressurePolicy(cfg), validate=True)
    by_movement: dict[int, list[tuple[float, float]]] = {}
    for arrival, exit_t, movement, censored in result.per_vehicle:
        if not censored:
            assert exit_t > arrival + cfg.approach_time
            by_movement.setdefault(movement, []).append((arrival, exit_t))
    for pairs in by_movement.values():
        pairs.sort()
        exits = [e for _, e in pairs]
        assert exits == sorted(exits)  # discharge order equals arrival order


def test_drain_stops_early_when_empty():
    cfg = ss.IntersectionConfig(horizon=100.0, drain=600.0)
    flow = ss.FlowSpec([(0.0, 0)], horizon=100.0)
    result = ss.run_episode(cfg, flow, lambda obs: 0)
    # vehicle clears at t=22; simulation should stop at the first drain
    # check, not burn the whole 600s
    assert len(result.reward_trace) == 10  # exactly the horizon's decisions


def test_vehicle_trace_file(tmp_path):
    cfg = ss.IntersectionConfig()
    flow = ss.FlowSpec([(0.0, 0), (1.0, 1)], horizon=3600.0)
    result = ss.run_episode(cfg, flow, lambda obs: 0)
    path = tmp_path / "trace.csv"
    ss.write_vehicle_trace(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "arrival_s,exit_s,movement,censored"
    assert len(lines) == 4
    assert lines[2].endswith(",1,0")  # movement 0 printed 1-based, completed


def test_flow_config_movement_mismatch():
    cfg = ss.IntersectionConfig()
    flow = ss.FlowSpec([(0.0, 0)], horizon=100.0, n_movements=4)
    with pytest.raises(ValueError):
        ss.initial_state(cfg, flow)
