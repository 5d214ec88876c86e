"""Deterministic point-queue simulator of one signalized intersection.

Vehicles travel a fixed approach time, stack in a vertical per-movement
FIFO at the stop line, and discharge at the saturation rate whenever their
movement is green.  Switching phases costs an all-red lost time.  The
decision granularity (one action per decision interval) is what an RL
controller interacts with; inside an interval the simulator ticks at a
finer resolution.

The config derives what every decision reads once, when it is made: the
ticks per decision, the phase count, the phase membership and one
observation template per phase (zero queues, the phase's green flags),
which `observe` copies and fills with the queue counts.

An episode reads its scenario's arrays (`FlowSpec.arrivals`): set-up
turns them into the two plain lists the tick loop indexes, each vehicle's
stop-line time and movement, and scoring works on the arrays and on the
per-movement exit times the loop appends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .scenarios import FlowSpec, write_file

DEFAULT_PHASES = ((0, 4), (1, 5), (2, 6), (3, 7))


def check_finite_fields(settings) -> None:
    """Raise ValueError naming the first field of the dataclass `settings`
    whose value is a NaN or infinite float.  It runs before the range
    checks, which NaN would pass: every comparison with it is false."""
    for field in fields(settings):
        value = getattr(settings, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class IntersectionConfig:
    """Geometry, timing and saturation parameters of the intersection MDP."""

    n_movements: int = 8
    phases: tuple[tuple[int, ...], ...] = DEFAULT_PHASES
    saturation_rate: float = 0.5       # vehicles/second per green movement
    approach_time: float = 20.0        # seconds from network entry to stop line
    lost_time: float = 3.0             # all-red seconds on every phase change
    decision_interval: float = 10.0    # seconds between control decisions
    tick: float = 1.0                  # simulation resolution, seconds
    horizon: float = 3600.0            # seconds of demand
    drain: float = 600.0               # extra seconds to let queues clear

    def __post_init__(self):
        check_finite_fields(self)
        if self.n_movements <= 0:
            raise ValueError("n_movements must be positive")
        phases = tuple(tuple(sorted(set(p))) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        if not phases or any(len(p) == 0 for p in phases):
            raise ValueError("phases must be non-empty")
        if len(set(phases)) != len(phases):
            raise ValueError("phases must be pairwise distinct")
        covered = {m for p in phases for m in p}
        if any(not 0 <= m < self.n_movements for m in covered):
            raise ValueError("phase movement index out of range")
        if covered != set(range(self.n_movements)):
            raise ValueError("every movement must appear in at least one phase")
        for name in ("saturation_rate", "approach_time", "lost_time",
                     "decision_interval", "tick", "horizon", "drain"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        ratio = self.decision_interval / self.tick
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("decision_interval must be a multiple of tick")
        if self.lost_time >= self.decision_interval:
            raise ValueError("lost_time must be smaller than decision_interval")
        # derived once here, not per decision; not fields, so equality,
        # hashing and `replace` see the nine fields alone
        object.__setattr__(self, "ticks_per_interval", int(round(ratio)))
        object.__setattr__(self, "n_phases", len(phases))
        member = np.zeros((len(phases), self.n_movements))
        for p, movements in enumerate(phases):
            member[p, list(movements)] = 1.0
        # observation template per phase (P, M, 2): zero queues, the phase's
        # green flags; `observe` copies a row and writes the queues
        template = np.zeros((len(phases), self.n_movements, 2))
        template[:, :, 1] = member
        for derived in (member, template):
            derived.flags.writeable = False
        object.__setattr__(self, "_membership", member)
        object.__setattr__(self, "_templates", template)


@dataclass
class SimState:
    """Mutable simulator state, exclusively owned by one episode.

    Vehicle i of the scenario (flow order) reaches the stop line at
    `stop_line[i]` on movement `movements[i]`; the lists are made from the
    scenario's arrays when the episode starts, and `stop_line` ends in an
    `inf` sentinel.  Service is FIFO, so movement m's j-th vehicle (in time
    order) leaves at `exits[m][j]`; the `queued[m]` vehicles after the
    served ones wait at the stop line, and the rest have not reached it."""

    clock: float
    current_phase: int
    in_yellow: float                   # remaining all-red seconds
    scenario: FlowSpec                 # the episode's vehicles
    stop_line: list[float]             # per vehicle: arrival + approach time, then inf
    movements: list[int]               # per vehicle: its movement
    cursor: int                        # vehicles [:cursor] have reached the stop line
    queued: list[int]                  # per movement: vehicles waiting at the stop line
    exits: list[list[float]]           # per movement: exit times of served vehicles
    credits: list[float]               # fractional service per movement


@dataclass
class EpisodeResult:
    """A scored episode.  It keeps the scenario and each movement's exit
    times, and `per_vehicle` builds the per-vehicle list from them when
    read."""

    avg_travel_time: float | None
    completed_count: int
    residual_count: int
    scenario: FlowSpec
    exits: list[list[float]]           # per movement: exit times of served vehicles
    end_clock: float                   # the censored vehicles' exit time

    @property
    def per_vehicle(self) -> list[tuple[float, float, int, bool]]:
        """(arrival, exit, movement, censored) per vehicle, in (arrival,
        movement) order."""
        order = self.scenario.by_time_and_movement
        exit_t, censored = _exit_times(self.scenario, self.exits, self.end_clock)
        records = self.scenario.arrivals[order]
        return list(zip(records["t"].tolist(), exit_t[order].tolist(),
                        records["m"].tolist(), censored[order].tolist()))


def _exit_times(scenario: FlowSpec, exits: list[list[float]],
                end_clock: float) -> tuple[np.ndarray, np.ndarray]:
    """Each vehicle's exit time and whether it is censored, in flow order:
    movement m's j-th vehicle left at `exits[m][j]`, and one not served
    is censored at `end_clock`."""
    n = len(scenario)
    slot_exit, slot_censored = np.full(n, end_clock), np.ones(n, dtype=bool)
    start = 0
    for count, served in zip(scenario.movement_counts().tolist(), exits):
        slot_exit[start:start + len(served)] = served
        slot_censored[start:start + len(served)] = False
        start += count
    exit_t, censored = np.empty(n), np.empty(n, dtype=bool)
    exit_t[scenario.by_movement] = slot_exit
    censored[scenario.by_movement] = slot_censored
    return exit_t, censored


def initial_state(config: IntersectionConfig, flow: FlowSpec) -> SimState:
    if flow.n_movements != config.n_movements:
        raise ValueError(
            f"flow has {flow.n_movements} movements, config has {config.n_movements}")
    if flow.horizon > config.horizon:
        # a vehicle arriving past the end clock would be censored before it arrives
        raise ValueError(f"flow {flow.label} has horizon {flow.horizon!r} s, longer than "
                         f"the config's {config.horizon!r} s")
    n = config.n_movements
    # one NumPy add per flow, the same IEEE sum as one add per vehicle
    stop_line = (flow.arrivals["t"] + config.approach_time).tolist()
    stop_line.append(math.inf)
    return SimState(clock=0.0, current_phase=0, in_yellow=0.0, scenario=flow,
                    stop_line=stop_line, movements=flow.arrivals["m"].tolist(), cursor=0,
                    queued=[0] * n, exits=[[] for _ in range(n)], credits=[0.0] * n)


def phase_membership(config: IntersectionConfig) -> np.ndarray:
    """(P, M) 0/1 float matrix: row p flags the movements phase p serves.
    Made once with the config and shared by every caller, so it is
    read-only."""
    return config._membership


def observe(state: SimState, config: IntersectionConfig) -> np.ndarray:
    """What the controller sees at a decision boundary: a fresh float64
    (M, 2) array holding each movement's queue count and whether the
    current phase gives it green.  This row is the Q-network's input and
    the replay's storage format, and observe is its only writer: a copy of
    the current phase's read-only template with the queues written in."""
    if len(state.queued) != config.n_movements:
        raise ValueError("state/config movement count mismatch")
    obs = config._templates[state.current_phase].copy()
    obs[:, 0] = state.queued
    return obs


def _check_conservation(state: SimState) -> None:
    """Served <= arrived <= vehicles on every movement, where arrived is
    queued + served; arrived total = cursor."""
    vehicles = state.scenario.movement_counts().tolist()
    counts = [(len(e), q + len(e), v)
              for q, e, v in zip(state.queued, state.exits, vehicles)]
    arrived = sum(n for _, n, _ in counts)
    if any(not s <= n <= v for s, n, v in counts) or arrived != state.cursor:
        raise RuntimeError(f"conservation violated at t={state.clock}: (served, arrived, "
                           f"vehicles) per movement {counts}, cursor {state.cursor}")


def step(state: SimState, action: int, config: IntersectionConfig,
         validate: bool = False) -> tuple[SimState, float]:
    """Apply one phase decision and advance one decision interval in place.

    Switching phases spends `lost_time` seconds of all-red before the new
    green. Each green tick adds saturation_rate*tick of service credit to
    the phase's movements; a whole credit discharges the head vehicle.
    Credit is not storable: it resets when a queue empties or loses green.
    Returns (state, reward) where reward is minus the total queue length at
    the interval end.
    """
    if not 0 <= action < config.n_phases:
        raise ValueError(f"invalid phase index {action}")
    if action != state.current_phase:
        state.current_phase = action
        state.in_yellow = config.lost_time
        state.credits = [0.0] * config.n_movements

    green = config.phases[state.current_phase]
    # the tick loop runs on every decision: it reads and writes locals, and
    # the state's clock, cursor and in_yellow are written back at the end
    tick = config.tick
    service = config.saturation_rate * tick
    stop_line, movements = state.stop_line, state.movements
    queued, exits, credits = state.queued, state.exits, state.credits
    clock, cursor, in_yellow = state.clock, state.cursor, state.in_yellow
    # when the vehicle at the cursor reaches the stop line (inf: none left)
    reach = stop_line[cursor]
    for _ in range(config.ticks_per_interval):
        t0 = clock
        while reach <= t0:
            queued[movements[cursor]] += 1
            cursor += 1
            reach = stop_line[cursor]

        if in_yellow > 0:
            in_yellow -= tick
            if in_yellow < 0.0:
                in_yellow = 0.0
        else:
            exit_time = t0 + tick
            for m in green:
                waiting = queued[m]
                if waiting:
                    credits[m] += service
                    while credits[m] >= 1.0 - 1e-9 and waiting:
                        exits[m].append(exit_time)
                        credits[m] -= 1.0
                        waiting -= 1
                    queued[m] = waiting
                if not waiting:
                    credits[m] = 0.0

        clock = t0 + tick
        if validate:
            state.clock, state.cursor, state.in_yellow = clock, cursor, in_yellow
            _check_conservation(state)

    state.clock, state.cursor, state.in_yellow = clock, cursor, in_yellow
    return state, float(-sum(queued))


def rollout(config: IntersectionConfig, flows, act, on_step=None, on_end=None,
            validate: bool = False) -> None:
    """Simulate one episode per flow, stepped together: the one copy of the
    episode loop.

    Each decision, `act(live, obs) -> actions` picks one phase index for
    every episode still running: `live` lists their indices into `flows`
    and `obs` their (M, 2) observations, in the same order.  `on_step`, if
    given, sees every transition as `on_step(i, (obs, action, reward,
    obs_next))`, where i is the episode's index; the tuple is the form
    `ReplayMemory.push` takes.  An episode simulates the demand horizon,
    then up to `drain` extra seconds, and leaves the lockstep early once
    its network is empty (a reward of 0, no vehicle queued, and none left
    to reach the stop line); `on_end(i, state)`, if given, then receives
    its final state, which the loop does not keep.
    """
    horizon, end = config.horizon, config.horizon + config.drain
    states = [initial_state(config, flow) for flow in flows]
    live = list(range(len(states)))
    obs = [observe(state, config) for state in states]
    while live:
        still, obs_next = [], []
        for i, x, action in zip(live, obs, act(live, obs), strict=True):
            action = int(action)
            state, reward = step(states[i], action, config, validate=validate)
            x_next = observe(state, config)
            if on_step is not None:
                on_step(i, (x, action, reward, x_next))
            # the network is empty once no vehicle is queued (reward 0) and
            # none is left to reach the stop line
            if state.clock < horizon or (state.clock < end and (
                    reward or state.cursor < len(state.movements))):
                still.append(i)
                obs_next.append(x_next)
            else:
                states[i] = None
                if on_end is not None:
                    on_end(i, state)
        live, obs = still, obs_next


def episode_result(state: SimState) -> EpisodeResult:
    """Score a finished episode: each vehicle's travel time, censored at the
    final clock for those still in the network, and the counts.

    The mean runs over the travel times in `per_vehicle` order, (arrival,
    movement)."""
    scenario = state.scenario
    total = len(scenario)
    completed_count = sum(map(len, state.exits))
    avg = None
    if total:
        exit_t, _ = _exit_times(scenario, state.exits, state.clock)
        travel = exit_t - scenario.arrivals["t"]
        avg = float(np.mean(travel[scenario.by_time_and_movement]))
    return EpisodeResult(avg, completed_count, total - completed_count, scenario,
                         state.exits, state.clock)


def run_episode(config: IntersectionConfig, flow: FlowSpec, policy,
                seed: int = 0, validate: bool = False) -> EpisodeResult:
    """Roll one scenario under a decision policy (see `rollout`).

    `policy` is a callable (M, 2) observation -> phase index; if it has a
    `reset(seed)` method it is re-initialized first, so stateful policies
    can be reused across episodes.  The result is fully determined by
    (config, flow, policy, seed).
    """
    if hasattr(policy, "reset"):
        policy.reset(seed)
    results: list[EpisodeResult] = []
    rollout(config, [flow], lambda live, obs: [policy(obs[0])],
            on_end=lambda i, state: results.append(episode_result(state)),
            validate=validate)
    return results[0]


def write_vehicle_trace(result: EpisodeResult, path) -> None:
    """Per-vehicle CSV trace (movement ids 1-based, censored as 0/1)."""
    write_file(path, ["arrival_s,exit_s,movement,censored",
                      *(f"{arr!r},{exit_t!r},{m + 1},{int(censored)}"
                        for arr, exit_t, m, censored in result.per_vehicle)])
