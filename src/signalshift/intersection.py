"""Deterministic point-queue simulator of one signalized intersection.

Vehicles travel a fixed approach time, stack in a vertical per-movement
FIFO at the stop line, and discharge at the saturation rate whenever their
movement is green.  Switching phases costs an all-red lost time.  The
decision granularity (one action per decision interval) is what an RL
controller interacts with; inside an interval the simulator ticks at a
finer resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .scenarios import FlowSpec, write_file

DEFAULT_PHASES = ((0, 4), (1, 5), (2, 6), (3, 7))


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
        member = np.zeros((len(phases), self.n_movements))
        for p, movements in enumerate(phases):
            member[p, list(movements)] = 1.0
        member.flags.writeable = False
        object.__setattr__(self, "_membership", member)

    @property
    def n_phases(self) -> int:
        return len(self.phases)


@dataclass
class SimState:
    """Mutable simulator state, exclusively owned by one episode.  Service
    is FIFO, so slot i of `arrivals[m]` leaves at `exits[m][i]`."""

    clock: float
    current_phase: int
    in_yellow: float                   # remaining all-red seconds
    flow: list[tuple[float, int]]      # (arrival_time, movement), time order
    cursor: int                        # flow[:cursor] have reached the stop line
    arrivals: list[list[float]]        # per movement: arrival times, FIFO order
    arrived: list[int]                 # per movement: slots past the approach
    exits: list[list[float]]           # per movement: exit times of served slots
    credits: list[float]               # fractional service per movement

    def queued_count(self) -> int:
        return sum(self.arrived) - sum(map(len, self.exits))

    def is_empty(self) -> bool:
        return self.cursor == len(self.flow) and self.queued_count() == 0


@dataclass
class EpisodeResult:
    """A scored episode.  It keeps the episode's per-movement arrival and
    exit times, and `per_vehicle` builds the per-vehicle list from them
    when read."""

    avg_travel_time: float | None
    completed_count: int
    residual_count: int
    reward_trace: list[float]
    arrivals: list[list[float]]        # per movement: arrival times, FIFO order
    exits: list[list[float]]           # per movement: exit times of served slots
    end_clock: float                   # the censored vehicles' exit time

    @property
    def per_vehicle(self) -> list[tuple[float, float, int, bool]]:
        """(arrival, exit, movement, censored) per vehicle, in (arrival,
        movement) order."""
        per_vehicle = []
        for m, (slots, served) in enumerate(zip(self.arrivals, self.exits)):
            per_vehicle.extend((arr, exit_t, m, False) for arr, exit_t in zip(slots, served))
            per_vehicle.extend((arr, self.end_clock, m, True) for arr in slots[len(served):])
        per_vehicle.sort(key=lambda v: (v[0], v[2]))
        return per_vehicle


def initial_state(config: IntersectionConfig, flow: FlowSpec) -> SimState:
    if flow.n_movements != config.n_movements:
        raise ValueError(
            f"flow has {flow.n_movements} movements, config has {config.n_movements}")
    n = config.n_movements
    arrivals: list[list[float]] = [[] for _ in range(n)]
    for arrival, movement in flow.arrivals:
        arrivals[movement].append(arrival)
    return SimState(clock=0.0, current_phase=0, in_yellow=0.0, flow=flow.arrivals,
                    cursor=0, arrivals=arrivals, arrived=[0] * n,
                    exits=[[] for _ in range(n)], credits=[0.0] * n)


def phase_membership(config: IntersectionConfig) -> np.ndarray:
    """(P, M) 0/1 float matrix: row p flags the movements phase p serves.
    Made once with the config and shared by every caller, so it is
    read-only."""
    return config._membership


def observe(state: SimState, config: IntersectionConfig) -> np.ndarray:
    """What the controller sees at a decision boundary: a fresh float64
    (M, 2) array holding each movement's queue count and whether the
    current phase gives it green.  This row is the Q-network's input and
    the replay's storage format, and observe is its only writer."""
    if len(state.arrived) != config.n_movements:
        raise ValueError("state/config movement count mismatch")
    obs = np.empty((config.n_movements, 2))
    obs[:, 0] = [n - len(served) for n, served in zip(state.arrived, state.exits)]
    obs[:, 1] = config._membership[state.current_phase]
    return obs


def _check_conservation(state: SimState) -> None:
    """Served <= arrived <= vehicles on every movement; arrived total = cursor."""
    counts = [(len(e), n, len(a)) for a, n, e in zip(state.arrivals, state.arrived, state.exits)]
    if any(not s <= n <= v for s, n, v in counts) or sum(state.arrived) != state.cursor:
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
    tick, approach = config.tick, config.approach_time
    service = config.saturation_rate * tick
    flow, arrived, exits, credits = state.flow, state.arrived, state.exits, state.credits
    clock, cursor, in_yellow = state.clock, state.cursor, state.in_yellow
    # when the vehicle at the cursor reaches the stop line (inf: none left)
    n_flow = len(flow)
    reach = flow[cursor][0] + approach if cursor < n_flow else math.inf
    for _ in range(config.ticks_per_interval):
        t0 = clock
        while reach <= t0:
            arrived[flow[cursor][1]] += 1
            cursor += 1
            reach = flow[cursor][0] + approach if cursor < n_flow else math.inf

        if in_yellow > 0:
            in_yellow = max(0.0, in_yellow - tick)
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

        clock = t0 + tick
        if validate:
            state.clock, state.cursor, state.in_yellow = clock, cursor, in_yellow
            _check_conservation(state)

    state.clock, state.cursor, state.in_yellow = clock, cursor, in_yellow
    reward = float(-state.queued_count())
    return state, reward


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
    its network is empty; `on_end(i, state)`, if given, then receives its
    final state, which the loop does not keep.
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
            if state.clock < horizon or (state.clock < end and not state.is_empty()):
                still.append(i)
                obs_next.append(x_next)
            else:
                states[i] = None
                if on_end is not None:
                    on_end(i, state)
        live, obs = still, obs_next


def episode_result(state: SimState, rewards: list[float]) -> EpisodeResult:
    """Score a finished episode: each vehicle's travel time, censored at the
    final clock for those still in the network, and the counts.

    The mean runs over the travel times in `per_vehicle` order, (arrival,
    movement), which a stable sort of the movement-major slots gives."""
    sizes = [len(slots) for slots in state.arrivals]
    total = sum(sizes)
    completed_count = sum(map(len, state.exits))
    avg = None
    if total:
        arrival = np.fromiter(chain.from_iterable(state.arrivals), np.float64, total)
        exit_t = np.full(total, state.clock)
        start = 0
        for size, served in zip(sizes, state.exits):
            exit_t[start:start + len(served)] = served
            start += size
        movement = np.repeat(np.arange(len(sizes)), sizes)
        order = np.lexsort((movement, arrival))
        avg = float(np.mean((exit_t - arrival)[order]))
    return EpisodeResult(avg, completed_count, total - completed_count, rewards,
                         state.arrivals, state.exits, state.clock)


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
    rewards: list[float] = []
    results: list[EpisodeResult] = []
    rollout(config, [flow], lambda live, obs: [policy(obs[0])],
            lambda i, transition: rewards.append(transition[2]),
            lambda i, state: results.append(episode_result(state, rewards)),
            validate=validate)
    return results[0]


def write_vehicle_trace(result: EpisodeResult, path) -> None:
    """Per-vehicle CSV trace (movement ids 1-based, censored as 0/1)."""
    write_file(path, ["arrival_s,exit_s,movement,censored",
                      *(f"{arr!r},{exit_t!r},{m + 1},{int(censored)}"
                        for arr, exit_t, m, censored in result.per_vehicle)])
