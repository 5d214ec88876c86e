"""Meta-training of the Q-network initialization and scenario adaptation.

Meta-training alternates two levels.  Individually, a base learner starts
from the shared initialization theta0 and takes per-decision TD gradient
steps inside one episode of a sampled scenario: it is `dqn.TDLearner` with
step size alpha and itself as its bootstrap target.  Globally, theta0 moves
against the sum of the adapted learners' gradients on fresh batches, using
the first-order approximation (the gradient at the adapted parameters is
applied directly to theta0).  Adaptation to a new scenario collects a
small experience budget from theta0 and takes a handful of the same
learner's TD steps on it.
"""

from __future__ import annotations

import hashlib
import time
from collections import namedtuple
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .intersection import IntersectionConfig, check_finite_fields, episode_result, rollout
from .network import (
    CHECKPOINT_KEYS,
    DEFAULT_COMPETE_DIM,
    DEFAULT_EMBED_DIM,
    QNetworkParams,
    bind,
    check_bounded,
    greedy_phases,
    init_params,
    params_from_lines,
    params_to_text,
    sgd_step,
)
from .scenarios import (
    FlowSpec,
    ParseError,
    file_text,
    read_known_keys,
    require_vehicles,
)
from .dqn import ReplayMemory, TDLearner, _explore, td_grads
# kept bound here: bench/selftest.py checks that the tracer restores
# `meta.bellman_grads`; TD steps go through `td_grads`
from .network import bellman_grads  # noqa: F401
from .seeding import META_ADAPT, NS_META, spawn_rng


@dataclass
class MetaHyper:
    alpha: float = 1e-3            # individual-level learning rate
    beta: float = 1e-3             # global-level learning rate
    task_batch: int = 3            # scenarios sampled per meta-iteration
    meta_iterations: int = 100
    adapt_steps: int = 3           # gradient steps when adapting to a new scenario
    adapt_data_budget: int = 1     # episodes of fresh experience for adaptation
    rollout_epsilon: float = 0.1   # exploration while collecting experience
    batch_size: int = 32
    gamma: float = 0.8
    capacity: int = 10_000
    grad_clip: float = 10.0   # global gradient-norm cap; <=0 disables
    seed: int = 0

    def __post_init__(self):
        check_finite_fields(self)
        for name in ("alpha", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("task_batch", "adapt_steps", "adapt_data_budget",
                     "batch_size", "capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.meta_iterations < 0:
            raise ValueError("meta_iterations must be non-negative")
        if not 0.0 <= self.rollout_epsilon <= 1.0:
            raise ValueError("rollout_epsilon must be in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")


@dataclass
class MetaCheckpoint:
    theta0: QNetworkParams
    hyper: MetaHyper
    scenario_digest: str


MetaLogRow = namedtuple("MetaLogRow", "iteration mean_rollout_loss mean_meta_loss")


@dataclass
class MetaTrainResult:
    checkpoint: MetaCheckpoint
    log: list[MetaLogRow]
    wall_time_s: float


@dataclass
class AdaptResult:
    params: QNetworkParams
    wall_time_s: float
    episodes_used: int
    update_steps: int


def scenario_digest(scenarios) -> str:
    """Order-independent SHA-256 over every scenario's label, then its
    canonical CSV text (`FlowSpec.csv_text`, formatted once per flow)."""
    entries = sorted((flow.label, flow.csv_text) for flow in scenarios)
    h = hashlib.sha256()
    for label, text in entries:
        h.update(label.encode())
        h.update(text.encode())
    return h.hexdigest()


def individual_adapt(theta: QNetworkParams, memory: ReplayMemory, steps: int,
                     config: IntersectionConfig, hyper: MetaHyper) -> QNetworkParams:
    """`steps` clipped TD gradient steps of size `hyper.alpha` from theta,
    fresh batch each step, by a `TDLearner` that is its own bootstrap
    target.  The original theta is untouched.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if len(memory) < hyper.batch_size:
        raise ValueError(
            f"memory holds {len(memory)} transitions, need >= {hyper.batch_size}")
    learner = TDLearner(theta, config, hyper, hyper.alpha, None, memory=memory)
    for _ in range(steps):
        learner.td_step()
    return learner.params


def global_update(theta0: QNetworkParams, adapted_grads: list[QNetworkParams],
                  beta: float) -> QNetworkParams:
    """Move theta0 against the summed per-task gradients (first order)."""
    if not adapted_grads:
        raise ValueError("need at least one task gradient")
    total = sum((g.theta for g in adapted_grads[1:]), adapted_grads[0].theta)
    return sgd_step(theta0, adapted_grads[0].with_theta(total), beta)


def train_metalight(config: IntersectionConfig, train_scenarios, hyper: MetaHyper,
                    dims: tuple[int, int] | None = None) -> MetaTrainResult:
    """Meta-train theta0 over the training scenarios.

    Per meta-iteration: sample `task_batch` scenarios without replacement;
    each base learner inherits theta0 and adapts through one episode; then
    theta0 takes the global update from fresh batches drawn from each
    task's memory.  Deterministic per (config, scenarios, hyper, dims).
    """
    flows = list(train_scenarios)
    if len(flows) < hyper.task_batch:
        raise ValueError(
            f"{len(flows)} scenarios but task_batch={hyper.task_batch}")
    t_start = time.perf_counter()
    theta0 = init_params(dims or (DEFAULT_EMBED_DIM, DEFAULT_COMPETE_DIM), hyper.seed)
    rng = spawn_rng(hyper.seed, NS_META)
    log: list[MetaLogRow] = []

    for iteration in range(hyper.meta_iterations):
        task_idx = rng.choice(len(flows), size=hyper.task_batch, replace=False)
        task_grads: list[QNetworkParams] = []
        rollout_losses: list[float] = []
        meta_losses: list[float] = []
        for ti in task_idx:
            learner = TDLearner(theta0, config, hyper, hyper.alpha, rng,
                                epsilon=hyper.rollout_epsilon)

            def adapt_step(i, transition):
                # the base learner takes one TD step per decision
                if (loss := learner.learn(i, transition)) is not None:
                    rollout_losses.append(loss)

            rollout(config, [flows[int(ti)]], learner.act, adapt_step)
            if len(learner.memory) >= hyper.batch_size:
                loss, grads = td_grads(learner.network, learner.network, learner.memory, hyper)
                task_grads.append(grads)
                meta_losses.append(loss)
        if task_grads:
            theta0 = global_update(theta0, task_grads, hyper.beta)
        log.append(MetaLogRow(
            iteration,
            float(np.mean(rollout_losses)) if rollout_losses else float("nan"),
            float(np.mean(meta_losses)) if meta_losses else float("nan"),
        ))

    checkpoint = MetaCheckpoint(check_bounded(theta0), hyper, scenario_digest(flows))
    return MetaTrainResult(checkpoint, log, time.perf_counter() - t_start)


def _live_stack(thetas: np.ndarray, dims: tuple[int, int], config: IntersectionConfig):
    """`stack(live)`: the networks of the live episodes of a lockstep
    rollout, row i of `thetas` being episode i's, bound as one stack for a
    forward at B=1.  The stack is bound again only when the live set
    changes."""
    bound, bound_live = None, None

    def stack(live):
        nonlocal bound, bound_live
        if live != bound_live:
            bound = bind(QNetworkParams(*dims, thetas[live]), config)
            bound_live = live
        return bound
    return stack


def _collect_experience(theta: QNetworkParams, scenarios: list[FlowSpec],
                        config: IntersectionConfig, hyper: MetaHyper,
                        rngs) -> list[ReplayMemory]:
    """`adapt_params`'s experience for several scenarios at once, stepped in
    lockstep: `hyper.adapt_data_budget` episodes each, acting
    epsilon-greedily from theta.  Each decision draws every live episode's
    exploration from its own generator (rngs[i] for scenario i), then
    `greedy_phases` decides the exploiting episodes' rows of theta stacked
    over the live set, each row the Q-values that episode alone would get.
    The memory returned at i samples from rngs[i], so it is the one
    `adapt_params` collects for scenario i."""
    memories = [ReplayMemory(hyper.capacity, seed=rng) for rng in rngs]
    stack = _live_stack(np.broadcast_to(theta.theta, (len(scenarios), theta.theta.size)),
                        (theta.embed_dim, theta.compete_dim), config)

    def act(live, obs):
        phases = [_explore(hyper.rollout_epsilon, rngs[i], config.n_phases) for i in live]
        exploit = [j for j, phase in enumerate(phases) if phase is None]
        if exploit:
            greedy = greedy_phases(stack(live), np.array(obs), exploit)
            for j, phase in zip(exploit, greedy):
                phases[j] = phase
        return phases

    for _ in range(hyper.adapt_data_budget):
        rollout(config, scenarios, act, lambda i, transition: memories[i].push(transition))
    return memories


def adapt_params(theta: QNetworkParams, scenario: FlowSpec, config: IntersectionConfig,
                 hyper: MetaHyper, steps: int, rng) -> AdaptResult:
    """Collect `hyper.adapt_data_budget` episodes acting epsilon-greedily
    from theta, through a `TDLearner` that only acts and stores (its
    epsilon draws and its memory's batches both from `rng`), then take
    `steps` TD gradient steps on the collected memory."""
    t_start = time.perf_counter()
    learner = TDLearner(theta, config, hyper, hyper.alpha, rng, epsilon=hyper.rollout_epsilon)
    for _ in range(hyper.adapt_data_budget):
        rollout(config, [scenario], learner.act, lambda i, t: learner.memory.push(t))
    adapted = individual_adapt(theta, learner.memory, steps, config, hyper)
    return AdaptResult(check_bounded(adapted), time.perf_counter() - t_start,
                       episodes_used=hyper.adapt_data_budget, update_steps=steps)


def adapt_to_scenario(checkpoint: MetaCheckpoint, scenario: FlowSpec,
                      config: IntersectionConfig, k_override: int | None = None,
                      seed: int = 0) -> AdaptResult:
    """Adapt the meta-trained initialization to one new scenario.

    Never mutates the checkpoint; uses the checkpoint's hyperparameters
    except for an optional gradient-step override.
    """
    hyper = checkpoint.hyper
    k = hyper.adapt_steps if k_override is None else int(k_override)
    if k < 1:
        raise ValueError("adaptation needs at least one gradient step")
    return adapt_params(checkpoint.theta0, scenario, config, hyper, k,
                        _adapt_rng(hyper, seed))


def _adapt_rng(hyper: MetaHyper, seed: int):
    """The generator of one adaptation: the same for every scenario and k."""
    return spawn_rng(hyper.seed, NS_META, META_ADAPT, seed)


AblationRow = namedtuple("AblationRow", "k avg_travel_time_s scenario_count seed")


def ablate_steps(checkpoint: MetaCheckpoint, scenarios, ks: list[int],
                 config: IntersectionConfig, seed: int = 0) -> list[AblationRow]:
    """Mean greedy travel time after adapting with each gradient-step count.

    One row per entry of `ks`, in the given order; the shape of the curve
    is reported, never asserted.  A row is what `adapt_to_scenario(k)` and
    a greedy episode per scenario give, computed with less work: for every
    k that adaptation draws the same experience and batches from the same
    generator, so k steps are the first k of max(ks) steps.  Each scenario
    is therefore adapted once, keeping the iterate at each k, and the
    greedy episodes of all (k, scenario) pairs run in lockstep.  A scenario
    without vehicles has no travel time: one is refused, by name, before
    any work.
    """
    flows = list(scenarios)
    if not ks:
        raise ValueError("ks must be non-empty")
    if not flows:
        raise ValueError("need at least one scenario")
    require_vehicles(flows)
    ks = [int(k) for k in ks]
    for k in ks:
        if k < 1:
            raise ValueError(f"adaptation needs at least one gradient step, got k={k}")
    hyper, theta0 = checkpoint.hyper, checkpoint.theta0
    steps = sorted(set(ks))
    rngs = [_adapt_rng(hyper, seed) for _ in flows]
    iterates = {k: [] for k in steps}      # k -> adapted theta per scenario
    for memory in _collect_experience(theta0, flows, config, hyper, rngs):
        adapted, done = theta0, 0
        for k in steps:
            adapted = individual_adapt(adapted, memory, k - done, config, hyper)
            iterates[k].append(check_bounded(adapted).theta)
            done = k
    thetas = np.stack([theta for k in steps for theta in iterates[k]])
    stack = _live_stack(thetas, (theta0.embed_dim, theta0.compete_dim), config)

    def act(live, obs):
        return greedy_phases(stack(live), np.array(obs))

    times = [0.0] * len(thetas)

    def score(i, state):
        # keep the travel time only: every episode's vehicle trace held
        # until the last one ends would add to the peak memory
        times[i] = episode_result(state, []).avg_travel_time

    rollout(config, flows * len(steps), act, on_end=score)
    mean_time = {k: float(np.mean(times[j * len(flows):(j + 1) * len(flows)]))
                 for j, k in enumerate(steps)}
    return [AblationRow(k, mean_time[k], len(flows), seed) for k in ks]


# ---------------------------------------------------------------------------
# Meta checkpoint file: network checkpoint plus hyper block and digest.

def save_meta_checkpoint(checkpoint: MetaCheckpoint, path) -> None:
    lines = ["# meta"]
    lines.extend(f"{f.name}={getattr(checkpoint.hyper, f.name)!r}" for f in fields(MetaHyper))
    lines.append(f"scenario_digest={checkpoint.scenario_digest}")
    Path(path).write_text(file_text(lines) + params_to_text(checkpoint.theta0))


# the header's keys and their parsers: the hyperparameters (each the type of
# its default) and the digest, which `save_meta_checkpoint` always writes and
# a load requires, then the network's dims
REQUIRED_KEYS = {**{f.name: type(f.default) for f in fields(MetaHyper)}, "scenario_digest": str}
HEADER_KEYS = REQUIRED_KEYS | CHECKPOINT_KEYS


def load_meta_checkpoint(path) -> MetaCheckpoint:
    lines = Path(path).read_text().splitlines()
    # the header is every line before the first tensor
    n_header = next((i for i, line in enumerate(lines) if line.strip().startswith("tensor ")),
                    len(lines))
    header = lines[:n_header]
    kv = read_known_keys(header, path, HEADER_KEYS)
    if missing := [key for key in REQUIRED_KEYS if key not in kv]:
        raise ParseError(path, max(n_header, 1), f"the header ends without {missing}")
    hyper = MetaHyper(**{f.name: kv[f.name] for f in fields(MetaHyper)})
    theta0 = params_from_lines(lines, path, HEADER_KEYS)
    return MetaCheckpoint(theta0, hyper, kv["scenario_digest"])
