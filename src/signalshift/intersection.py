"""Deterministic point-queue simulator of one signalized intersection.

Vehicles travel a fixed approach time, stack in a vertical per-movement
FIFO at the stop line, and discharge at the saturation rate whenever their
movement is green.  Switching phases costs an all-red lost time.  The
decision granularity (one action per decision interval) is what an RL
controller interacts with; inside an interval the simulator ticks at a
finer resolution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .scenarios import SCHEMA_LINE, FlowSpec

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

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    @property
    def ticks_per_interval(self) -> int:
        return int(round(self.decision_interval / self.tick))


@dataclass
class SimState:
    """Mutable simulator state, exclusively owned by one episode."""

    clock: float
    current_phase: int
    phase_elapsed: float
    queues: list[deque]                      # per movement: arrival_time FIFO
    pending: deque                           # (arrival_time, movement), time order
    completed: list[tuple[float, float, int]]  # (arrival, exit, movement)
    in_yellow: float                         # remaining all-red seconds
    credits: np.ndarray                      # fractional service per movement
    total_arrivals: int

    def queued_count(self) -> int:
        return sum(map(len, self.queues))

    def is_empty(self) -> bool:
        return not self.pending and self.queued_count() == 0


@dataclass
class EpisodeResult:
    avg_travel_time: float | None
    completed_count: int
    residual_count: int
    per_vehicle: list[tuple[float, float, int, bool]]  # arrival, exit, movement, censored
    reward_trace: list[float]


def initial_state(config: IntersectionConfig, flow: FlowSpec) -> SimState:
    if flow.n_movements != config.n_movements:
        raise ValueError(
            f"flow has {flow.n_movements} movements, config has {config.n_movements}")
    return SimState(
        clock=0.0,
        current_phase=0,
        phase_elapsed=0.0,
        queues=[deque() for _ in range(config.n_movements)],
        pending=deque(flow.arrivals),
        completed=[],
        in_yellow=0.0,
        credits=np.zeros(config.n_movements),
        total_arrivals=len(flow.arrivals),
    )


@lru_cache(maxsize=64)
def phase_membership(config: IntersectionConfig) -> np.ndarray:
    """(P, M) 0/1 float matrix: row p flags the movements phase p serves.
    Cached per config and shared by every caller, so it is read-only."""
    member = np.zeros((config.n_phases, config.n_movements))
    for p, movements in enumerate(config.phases):
        member[p, list(movements)] = 1.0
    member.flags.writeable = False
    return member


def observe(state: SimState, config: IntersectionConfig) -> np.ndarray:
    """What the controller sees at a decision boundary: a fresh float64
    (M, 2) array holding each movement's queue count and whether the
    current phase gives it green.  This row is the Q-network's input and
    the replay's storage format, and observe is its only writer."""
    if len(state.queues) != config.n_movements:
        raise ValueError("state/config movement count mismatch")
    obs = np.empty((config.n_movements, 2))
    obs[:, 0] = list(map(len, state.queues))
    obs[:, 1] = phase_membership(config)[state.current_phase]
    return obs


def _check_conservation(state: SimState) -> None:
    in_system = len(state.pending) + state.queued_count() + len(state.completed)
    if in_system != state.total_arrivals:
        raise RuntimeError(
            f"conservation violated at t={state.clock}: "
            f"{in_system} accounted vs {state.total_arrivals} arrivals")


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
        state.phase_elapsed = 0.0
        state.in_yellow = config.lost_time
        state.credits[:] = 0.0

    green = config.phases[state.current_phase]
    # the tick loop runs on every decision: bind what it reads once
    tick, approach = config.tick, config.approach_time
    service = config.saturation_rate * tick
    pending, queues, credits, completed = (state.pending, state.queues, state.credits,
                                           state.completed)
    for _ in range(config.ticks_per_interval):
        t0 = state.clock
        while pending and pending[0][0] + approach <= t0:
            arrival, movement = pending.popleft()
            queues[movement].append(arrival)

        if state.in_yellow > 0:
            state.in_yellow = max(0.0, state.in_yellow - tick)
        else:
            exit_time = t0 + tick
            for m in green:
                queue = queues[m]
                if not queue:
                    credits[m] = 0.0
                    continue
                credits[m] += service
                while credits[m] >= 1.0 - 1e-9 and queue:
                    arrival = queue.popleft()
                    completed.append((arrival, exit_time, m))
                    credits[m] -= 1.0
                if not queue:
                    credits[m] = 0.0

        state.clock = t0 + tick
        state.phase_elapsed += tick
        if validate:
            _check_conservation(state)

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
    final clock for those still in the network, and the counts."""
    end_clock = state.clock
    per_vehicle = [(arr, exit_t, m, False) for arr, exit_t, m in state.completed]
    for m, queue in enumerate(state.queues):
        per_vehicle.extend((arr, end_clock, m, True) for arr in queue)
    per_vehicle.extend((arr, end_clock, m, True) for arr, m in state.pending)
    per_vehicle.sort(key=lambda v: (v[0], v[2]))

    completed_count = len(state.completed)
    residual_count = len(per_vehicle) - completed_count
    avg = None
    if per_vehicle:
        avg = float(np.mean([exit_t - arr for arr, exit_t, _, _ in per_vehicle]))
    return EpisodeResult(avg, completed_count, residual_count, per_vehicle, rewards)


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
    lines = [SCHEMA_LINE, "arrival_s,exit_s,movement,censored"]
    lines.extend(f"{arr!r},{exit_t!r},{m + 1},{int(censored)}"
                 for arr, exit_t, m, censored in result.per_vehicle)
    Path(path).write_text("\n".join(lines) + "\n")
