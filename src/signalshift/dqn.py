"""Value-based training loop and non-learning baseline policies.

`TDLearner` is the one online TD update rule: per decision it acts
epsilon-greedily, stores the transition and, once its replay memory holds
a batch, takes a clipped TD step.  DQN training syncs its target every
`target_sync` updates; MetaLight's base learners and adaptation are their
own target.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .intersection import IntersectionConfig, check_finite_fields, phase_membership, rollout
# kept bound here: bench/selftest.py checks that the tracer restores
# `dqn.step`, a function imported from another module
from .intersection import step  # noqa: F401
from .network import (
    DEFAULT_COMPETE_DIM,
    DEFAULT_EMBED_DIM,
    Batch,
    BoundNetwork,
    QNetworkParams,
    bellman_grads,
    bind,
    check_bounded,
    clip_gradients,
    greedy_phase,
    init_params,
    sgd_step,
)
from .scenarios import write_file
from .seeding import NS_DQN, NS_RANDOM_POLICY, as_rng, spawn_rng


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
        self._rng = as_rng(seed)

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
        return Batch(self._x.take(idx, axis=0), self._a.take(idx), self._r.take(idx),
                     self._x_next.take(idx, axis=0))


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
        check_finite_fields(self)
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


def _explore(epsilon: float, rng: np.random.Generator | None, n_phases: int) -> int | None:
    """The exploration draw of `epsilon_greedy`: with probability epsilon a
    uniformly random phase, else None (exploit).  It draws from `rng` only
    when epsilon > 0: one coin, then the phase if exploring."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an RNG")
        if rng.random() < epsilon:
            return int(rng.integers(n_phases))
    return None


def epsilon_greedy(network: BoundNetwork, obs: np.ndarray, epsilon: float,
                   rng: np.random.Generator | None) -> int:
    """A uniformly random phase with probability epsilon, otherwise the
    greedy phase of `network` for the (M, 2) observation `obs` (ties to the
    lowest index).  The forward runs on exploit decisions only and draws
    nothing from `rng`."""
    explored = _explore(epsilon, rng, network.select.shape[1])
    return greedy_phase(network, obs) if explored is None else explored


def td_grads(network: BoundNetwork, target: BoundNetwork, memory: ReplayMemory,
             hyper) -> tuple[float, QNetworkParams]:
    """Squared TD loss and its gradients, clipped to `hyper.grad_clip`, on a
    fresh replay batch: the gradient of `TDLearner.td_step`, and of a meta
    task at its adapted network (`hyper` is a DqnHyper or a MetaHyper)."""
    batch = memory.sample(hyper.batch_size)
    loss, grads = bellman_grads(network, batch, target, hyper.gamma)
    return loss, clip_gradients(grads, hyper.grad_clip)


class TDLearner:
    """The online TD update rule: an iterate, its binding, a bootstrap target
    synced to it every `target_sync` updates (at 1 the learner is its own
    target), a replay memory and the update count.  Each parameter version
    is bound once, after its SGD step, for the next decisions and TD step.
    A memory made here samples from `rng`, the generator of the epsilon
    draws: a decision's coin, then its random phase, then its TD batch."""

    def __init__(self, params: QNetworkParams, config: IntersectionConfig, hyper, lr: float,
                 rng: np.random.Generator | None, epsilon: float = 0.0, target_sync: int = 1,
                 memory: ReplayMemory | None = None):
        self.params, self.config, self.hyper, self.lr, self.rng = params, config, hyper, lr, rng
        self.network = self.target = bind(params, config)
        self.epsilon, self.target_sync, self.updates = epsilon, target_sync, 0
        self.memory = ReplayMemory(hyper.capacity, seed=rng) if memory is None else memory

    def act(self, live, obs) -> list[int]:
        """`rollout`'s act for one episode: epsilon-greedy on the iterate."""
        return [epsilon_greedy(self.network, obs[0], self.epsilon, self.rng)]

    def learn(self, i, transition) -> float | None:
        """`rollout`'s on_step: store the transition, then take a TD step once
        the memory holds a batch; returns its loss, else None."""
        self.memory.push(transition)
        return self.td_step() if len(self.memory) >= self.hyper.batch_size else None

    def td_step(self) -> float:
        """One clipped TD step of size `lr`; returns its loss."""
        loss, grads = td_grads(self.network, self.target, self.memory, self.hyper)
        self.params = sgd_step(self.params, grads, self.lr)
        self.network = bind(self.params, self.config)
        self.updates += 1
        if self.updates % self.target_sync == 0:
            self.target = self.network
        return loss


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
    step, the target synced every `hyper.target_sync` updates.  Episodes
    run through the demand horizon plus the drain period.  Fully determined
    by (config, scenarios, hyper, dims).
    """
    flows = list(scenarios)
    if not flows:
        raise ValueError("need at least one training scenario")
    t_start = time.perf_counter()
    params = init_params(dims or (DEFAULT_EMBED_DIM, DEFAULT_COMPETE_DIM), hyper.seed)
    learner = TDLearner(params, config, hyper, hyper.lr, spawn_rng(hyper.seed, NS_DQN),
                        target_sync=hyper.target_sync)

    decisions_per_episode = max(1, int(config.horizon // config.decision_interval))
    decay_steps = max(1, int(round(hyper.epsilon_fraction * hyper.episodes
                                   * decisions_per_episode)))

    log: list[LogRow] = []
    step_counter = 0

    def act(live, obs):
        frac = min(1.0, step_counter / decay_steps)
        learner.epsilon = (hyper.epsilon_start
                           + (hyper.epsilon_end - hyper.epsilon_start) * frac)
        return learner.act(live, obs)

    def learn(i, transition):
        nonlocal step_counter, reward_sum, reward_n
        reward_sum += transition[2]
        reward_n += 1
        step_counter += 1
        if (loss := learner.learn(i, transition)) is not None:
            log.append(LogRow(learner.updates, episode, loss, reward_sum / reward_n,
                              learner.epsilon))

    for episode in range(hyper.episodes):
        reward_sum, reward_n = 0.0, 0
        rollout(config, [flows[episode % len(flows)]], act, learn)

    return TrainResult(check_bounded(learner.params), log, time.perf_counter() - t_start,
                       learner.updates)


def write_training_log(log: list[LogRow], path) -> None:
    write_file(path, ["update,episode,loss,mean_reward,epsilon",
                      *(f"{r.update},{r.episode},{r.loss!r},{r.mean_reward!r},{r.epsilon!r}"
                        for r in log)])


# ---------------------------------------------------------------------------
# Policies

class GreedyPolicy:
    """Deterministic argmax policy over the network's Q-values, through
    `greedy_phase`; the network is bound to the config once, for every
    decision."""

    def __init__(self, params: QNetworkParams, config: IntersectionConfig):
        self.params = params
        self.config = config
        self._network = bind(params, config)

    def __call__(self, obs: np.ndarray) -> int:
        return greedy_phase(self._network, obs)


class FixedTimePolicy:
    """Cycles the phases in order, one per decision, blind to traffic:
    decision d of an episode serves phase d mod P.

    Call `reset()` (run_episode does) before reusing an instance for a new
    episode; it restarts the count of decisions taken.
    """

    def __init__(self, config: IntersectionConfig):
        self.config = config
        self._decisions = 0

    def reset(self, seed: int = 0) -> None:
        self._decisions = 0

    def __call__(self, obs) -> int:
        phase = self._decisions % self.config.n_phases
        self._decisions += 1
        return phase


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
        self.reset()

    def reset(self, seed: int = 0) -> None:
        self._rng = spawn_rng(self.seed, NS_RANDOM_POLICY, seed)

    def __call__(self, obs) -> int:
        return int(self._rng.integers(self.n_phases))

