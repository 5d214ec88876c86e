"""Value-based training loop and non-learning baseline policies.

The trainer interleaves epsilon-greedy rollouts with one TD update per
decision once the replay memory is warm, syncing a frozen target copy of
the network every `target_sync` updates.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .intersection import IntersectionConfig, phase_membership, rollout
# kept bound here: bench/selftest.py checks that the tracer restores
# `dqn.step`, a function imported from another module
from .intersection import step  # noqa: F401
from .network import (
    DEFAULT_COMPETE_DIM,
    DEFAULT_EMBED_DIM,
    Batch,
    QNetworkParams,
    bellman_grads,
    bind,
    check_bounded,
    clip_gradients,
    frap_forward,
    init_params,
    sgd_step,
)
from .scenarios import write_file
from .seeding import NS_DQN, spawn_rng


class ReplayMemory:
    """Ring buffer of transitions with uniform (with-replacement) sampling.

    Each slot is one row of preallocated arrays: the (M, 2) observations
    of `observe` before and after, the action and the reward.  The
    observation arrays are made at the first push, when M is known; rows
    never written stay unallocated pages.
    """

    def __init__(self, capacity: int = 10_000, seed=0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._x = self._x_next = None
        self._a = np.empty(capacity, dtype=np.int64)
        self._r = np.empty(capacity, dtype=np.float64)
        self._size = 0
        self._cursor = 0
        self._rng = seed if isinstance(seed, np.random.Generator) else spawn_rng(int(seed))

    def __len__(self) -> int:
        return self._size

    def push(self, transition: tuple) -> None:
        """Store one (x, a, r, x_next) transition, as `rollout` hands it on."""
        x, a, r, x_next = transition
        if self._x is None:
            shape = (self.capacity, *x.shape)
            self._x, self._x_next = np.empty(shape), np.empty(shape)
        i = self._cursor
        self._x[i] = x
        self._x_next[i] = x_next
        self._a[i] = a
        self._r[i] = r
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        if not self._size:
            raise ValueError("cannot sample from an empty memory")
        idx = self._rng.integers(0, self._size, size=batch_size)
        return Batch(self._x[idx], self._a[idx], self._r[idx], self._x_next[idx])


@dataclass
class DqnHyper:
    gamma: float = 0.8
    lr: float = 1e-3
    batch_size: int = 32
    epsilon_start: float = 0.8
    epsilon_end: float = 0.05
    epsilon_fraction: float = 0.8   # fraction of nominal steps spent decaying
    episodes: int = 100
    target_sync: int = 200
    capacity: int = 10_000
    grad_clip: float = 10.0   # global gradient-norm cap; <=0 disables
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        for name in ("epsilon_start", "epsilon_end", "epsilon_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("batch_size", "target_sync", "capacity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.episodes < 0:
            raise ValueError("episodes must be non-negative")
        if self.lr < 0:
            raise ValueError("lr must be non-negative")


def epsilon_greedy(q: np.ndarray, epsilon: float, rng: np.random.Generator | None) -> int:
    """Argmax with probability 1-epsilon (ties to the lowest index),
    otherwise a uniformly random phase."""
    values = np.asarray(q)
    if values.size == 0:
        raise ValueError("empty Q-values")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an RNG")
        if rng.random() < epsilon:
            return int(rng.integers(values.size))
    return int(values.argmax())


def td_grads(params: QNetworkParams, target: QNetworkParams, memory: ReplayMemory,
             hyper, config: IntersectionConfig) -> tuple[float, QNetworkParams]:
    """Squared TD loss and its gradients, clipped to `hyper.grad_clip`, on a
    fresh replay batch: the one update rule of DQN training, meta-training
    and adaptation (`hyper` is a DqnHyper or a MetaHyper)."""
    batch = memory.sample(hyper.batch_size)
    loss, grads = bellman_grads(params, batch, target, hyper.gamma, config)
    return loss, clip_gradients(grads, hyper.grad_clip)


LogRow = namedtuple("LogRow", "update episode loss mean_reward epsilon")


@dataclass
class TrainResult:
    params: QNetworkParams
    log: list[LogRow]
    wall_time_s: float
    updates: int


def train_dqn(config: IntersectionConfig, scenarios, hyper: DqnHyper,
              dims: tuple[int, int] | None = None) -> TrainResult:
    """Train the Q-network over scenarios visited round-robin.

    Each decision interval: observe, act epsilon-greedy, step, store the
    transition, and (once the memory holds a batch) take one TD gradient
    step.  Episodes run through the demand horizon plus the drain period.
    Fully determined by (config, scenarios, hyper, dims).
    """
    flows = list(scenarios)
    if not flows:
        raise ValueError("need at least one training scenario")
    t_start = time.perf_counter()
    params = init_params(dims or (DEFAULT_EMBED_DIM, DEFAULT_COMPETE_DIM), hyper.seed)
    target = params
    rng = spawn_rng(hyper.seed, NS_DQN)
    memory = ReplayMemory(hyper.capacity, seed=rng)

    decisions_per_episode = max(1, int(config.horizon // config.decision_interval))
    decay_steps = max(1, int(round(hyper.epsilon_fraction * hyper.episodes
                                   * decisions_per_episode)))

    log: list[LogRow] = []
    step_counter = 0
    updates = 0
    epsilon = hyper.epsilon_start

    def act(live, obs):
        nonlocal epsilon
        frac = min(1.0, step_counter / decay_steps)
        epsilon = hyper.epsilon_start + (hyper.epsilon_end - hyper.epsilon_start) * frac
        return [epsilon_greedy(frap_forward(params, obs[0], config), epsilon, rng)]

    def learn(i, transition):
        nonlocal params, target, step_counter, updates, reward_sum, reward_n
        memory.push(transition)
        reward_sum += transition[2]
        reward_n += 1
        step_counter += 1
        if len(memory) >= hyper.batch_size:
            loss, grads = td_grads(params, target, memory, hyper, config)
            params = sgd_step(params, grads, hyper.lr)
            updates += 1
            if updates % hyper.target_sync == 0:
                target = params
            log.append(LogRow(updates, episode, loss, reward_sum / reward_n, epsilon))

    for episode in range(hyper.episodes):
        reward_sum = 0.0
        reward_n = 0
        rollout(config, [flows[episode % len(flows)]], act, learn)

    return TrainResult(check_bounded(params), log, time.perf_counter() - t_start, updates)


def write_training_log(log: list[LogRow], path) -> None:
    write_file(path, ["update,episode,loss,mean_reward,epsilon",
                      *(f"{r.update},{r.episode},{r.loss!r},{r.mean_reward!r},{r.epsilon!r}"
                        for r in log)])


# ---------------------------------------------------------------------------
# Policies

class GreedyPolicy:
    """Deterministic argmax policy over the network's Q-values; the network
    is bound to the config once, for every decision."""

    def __init__(self, params: QNetworkParams, config: IntersectionConfig):
        self.params = params
        self.config = config
        self._network = bind(params, config)

    def __call__(self, obs: np.ndarray) -> int:
        return int(frap_forward(self._network, obs, self.config).argmax())


class FixedTimePolicy:
    """Cycles phases in order, each held for its green split, blind to traffic.

    Call `reset()` (run_episode does) before reusing an instance for a new
    episode; the phase is derived from the count of decisions taken so far.
    """

    def __init__(self, config: IntersectionConfig, green_split=None):
        splits = green_split if green_split is not None else config.decision_interval
        if np.isscalar(splits):
            splits = [float(splits)] * config.n_phases
        splits = [float(s) for s in splits]
        if len(splits) != config.n_phases or any(s <= 0 for s in splits):
            raise ValueError("need one positive split per phase")
        self.config = config
        self.splits = splits
        self.cycle = sum(splits)
        self._decisions = 0

    def reset(self, seed: int = 0) -> None:
        self._decisions = 0

    def __call__(self, obs) -> int:
        t = (self._decisions * self.config.decision_interval) % self.cycle
        self._decisions += 1
        acc = 0.0
        for phase, split in enumerate(self.splits):
            acc += split
            if t < acc - 1e-9:
                return phase
        return 0  # t within 1e-9 of the cycle end: the cycle wraps


class MaxPressurePolicy:
    """Serve the phase with the largest total queue over its movements.

    Ties keep the current phase when it is among the best, otherwise the
    lowest phase index wins.  The current phase is read from the green
    column; configs reject duplicate phases, so each green set names one.
    """

    def __init__(self, config: IntersectionConfig):
        self.config = config
        self._phase_of = {row.tobytes(): p
                          for p, row in enumerate(phase_membership(config))}

    def __call__(self, obs: np.ndarray) -> int:
        queues = obs[:, 0].tolist()
        pressures = [sum(queues[m] for m in phase) for phase in self.config.phases]
        best = max(pressures)
        current = self._phase_of[obs[:, 1].tobytes()]
        if pressures[current] == best:
            return current
        return pressures.index(best)


class RandomPolicy:
    """Uniform random phase each decision; reseedable per episode."""

    def __init__(self, config: IntersectionConfig, seed: int = 0):
        self.n_phases = config.n_phases
        self.seed = seed
        self._rng = spawn_rng(seed, 99, 0)

    def reset(self, seed: int = 0) -> None:
        self._rng = spawn_rng(self.seed, 99, seed)

    def __call__(self, obs) -> int:
        return int(self._rng.integers(self.n_phases))

