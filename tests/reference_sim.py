"""The simulator's `step` and `episode_result` as they were before the tick
loop ran on locals, the queues on one counter per movement and the episode
score on per-movement arrays, kept as test oracles; the program does not
use them.

`step` reads and writes the state's clock, cursor and in_yellow on every
tick, re-reads the head vehicle's arrival each tick and recounts each queue
as arrived - served (arrived is derived from the state's `queued` on entry,
and `queued` is written back from it every tick); `episode_result`
builds the per-vehicle list from its own per-movement arrival lists and
averages its travel times in that list's (arrival, movement) order.
Property tests run both forms side by side.
`queued_count` and `is_empty` read a `SimState` for the tests; the
program's episode loop decides the end from the reward and the cursor.
"""

from typing import NamedTuple

import numpy as np

from signalshift.intersection import IntersectionConfig, SimState, _check_conservation


class ReferenceResult(NamedTuple):
    avg_travel_time: float | None
    completed_count: int
    residual_count: int
    per_vehicle: list[tuple[float, float, int, bool]]


def queued_count(state: SimState) -> int:
    return sum(state.queued)


def is_empty(state: SimState) -> bool:
    """No vehicle queued and none left to reach the stop line."""
    return state.cursor == len(state.scenario) and queued_count(state) == 0


def step(state: SimState, action: int, config: IntersectionConfig,
         validate: bool = False) -> tuple[SimState, float]:
    if not 0 <= action < config.n_phases:
        raise ValueError(f"invalid phase index {action}")
    if action != state.current_phase:
        state.current_phase = action
        state.in_yellow = config.lost_time
        state.credits = [0.0] * config.n_movements

    green = config.phases[state.current_phase]
    tick, approach = config.tick, config.approach_time
    service = config.saturation_rate * tick
    flow, exits, credits = state.scenario.arrivals, state.exits, state.credits
    arrived = [n + len(served) for n, served in zip(state.queued, exits)]
    for _ in range(int(round(config.decision_interval / config.tick))):
        t0 = state.clock
        while state.cursor < len(flow) and flow[state.cursor][0] + approach <= t0:
            arrived[flow[state.cursor][1]] += 1
            state.cursor += 1

        if state.in_yellow > 0:
            state.in_yellow = max(0.0, state.in_yellow - tick)
        else:
            exit_time = t0 + tick
            for m in green:
                served = exits[m]
                waiting = arrived[m] - len(served)
                if waiting:
                    credits[m] += service
                    while credits[m] >= 1.0 - 1e-9 and waiting:
                        served.append(exit_time)
                        credits[m] -= 1.0
                        waiting -= 1
                if not waiting:
                    credits[m] = 0.0

        state.clock = t0 + tick
        state.queued[:] = [n - len(served) for n, served in zip(arrived, exits)]
        if validate:
            _check_conservation(state)

    reward = float(-queued_count(state))
    return state, reward


def movement_arrivals(state: SimState) -> list[list[float]]:
    """Per movement: its vehicles' arrival times in flow order, which is
    their FIFO order at the stop line."""
    arrivals = [[] for _ in state.exits]
    for t, m in state.scenario.arrivals.tolist():
        arrivals[m].append(t)
    return arrivals


def episode_result(state: SimState) -> ReferenceResult:
    end_clock = state.clock
    per_vehicle = []
    for m, (slots, served) in enumerate(zip(movement_arrivals(state), state.exits)):
        per_vehicle.extend((arr, exit_t, m, False) for arr, exit_t in zip(slots, served))
        per_vehicle.extend((arr, end_clock, m, True) for arr in slots[len(served):])
    per_vehicle.sort(key=lambda v: (v[0], v[2]))

    completed_count = sum(map(len, state.exits))
    residual_count = len(per_vehicle) - completed_count
    avg = None
    if per_vehicle:
        avg = float(np.mean([exit_t - arr for arr, exit_t, _, _ in per_vehicle]))
    return ReferenceResult(avg, completed_count, residual_count, per_vehicle)
