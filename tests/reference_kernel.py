"""Earlier forms of the program, kept as test oracles; the program does not
use them.

The per-pair network is the kernel `signalshift.network` ran before its
forward and backward became 2-D products: it concatenates the K = P(P-1)
ordered phase pairs (rho_p, rho_q) and multiplies them by the whole W_c.
Property tests compare the array kernel against it.

`forward`, `td_backward`, `td_bellman_grads`, `clip_gradients` and
`sgd_step` are the array kernel's TD step before it took bound networks:
it bound the learner and, apart, the target on every call, formed dL/dQ as
a one-hot (B, P) array, took the pair gradient as `d_q @ select[0]`, and
wrote each tensor's gradient through a view.  The TD step of
`signalshift.network` must give the same bits.

`ablate_steps` is the gradient-step ablation before it adapted each scenario
once and ran its greedy episodes in lockstep: one adaptation and one greedy
episode per k and scenario.

`train_dqn`, `train_metalight` and `individual_adapt` are the three
training loops as each kept its own TD bookkeeping (the iterate, the
target and its sync, the update count), run here on the TD step above and
on epsilon-greedy over raw Q-values.  `collect_experience` is an
adaptation's collection on the same epsilon-greedy, before it went
through the TD learner, and `individual_adapt` its steps on that memory,
before the learner that collects took them.  Their draws from the one generator
come in the program's order: the epsilon coin, then the random phase if
exploring, then each replay batch.
"""

import math
from dataclasses import replace

import numpy as np

import signalshift as ss
from signalshift.dqn import LogRow
from signalshift.intersection import rollout
from signalshift.meta import MetaLogRow
from signalshift.network import _forward_bound, bind
from signalshift.seeding import NS_DQN, NS_META, spawn_rng


def phase_structs(config: ss.IntersectionConfig):
    """Membership/pair matrices used by the per-pair forward/backward."""
    n_phases, n_mov = config.n_phases, config.n_movements
    mem_norm = np.zeros((n_phases, n_mov))
    for p, movements in enumerate(config.phases):
        mem_norm[p, list(movements)] = 1.0 / len(movements)
    pairs = [(p, q) for p in range(n_phases) for q in range(n_phases) if q != p]
    p_idx = np.array([p for p, _ in pairs], dtype=int)
    q_idx = np.array([q for _, q in pairs], dtype=int)
    agg_p = np.zeros((n_phases, len(pairs)))
    agg_q = np.zeros((n_phases, len(pairs)))
    agg_p[p_idx, np.arange(len(pairs))] = 1.0
    agg_q[q_idx, np.arange(len(pairs))] = 1.0
    return mem_norm, p_idx, q_idx, agg_p, agg_q


def forward_batch(params: ss.QNetworkParams, x: np.ndarray, config: ss.IntersectionConfig):
    """Q-values (B, n_phases) for x (B, M, 2), plus the backward cache."""
    mem_norm, p_idx, q_idx, agg_p, _ = phase_structs(config)
    z_e = x @ params.W_e.T + params.b_e                       # (B, M, E)
    e = np.maximum(z_e, 0.0)
    rho = mem_norm @ e                                        # (B, P, E)
    u = np.concatenate([rho[:, p_idx, :], rho[:, q_idx, :]], axis=-1)  # (B, K, 2E)
    z_c = u @ params.W_c.T + params.b_c                       # (B, K, C)
    c = np.maximum(z_c, 0.0)
    s = c @ params.w_r + params.b_r                           # (B, K)
    q_values = s @ agg_p.T                                    # (B, P)
    return q_values, (x, z_e, u, z_c, c)


def backward_batch(params: ss.QNetworkParams, cache, d_q: np.ndarray,
                   config: ss.IntersectionConfig) -> ss.QNetworkParams:
    """Reverse-mode accumulation of d(loss)/d(params) given d(loss)/dQ."""
    mem_norm, _, _, agg_p, agg_q = phase_structs(config)
    x, z_e, u, z_c, c = cache
    grads = ss.QNetworkParams(params.embed_dim, params.compete_dim)
    d_s = d_q @ agg_p                                         # (B, K)
    grads.b_r[...] = d_s.sum()
    grads.w_r[...] = np.tensordot(d_s, c, axes=([0, 1], [0, 1]))
    d_z_c = d_s[..., None] * params.w_r * (z_c > 0.0)         # (B, K, C)
    grads.W_c[...] = np.tensordot(d_z_c, u, axes=([0, 1], [0, 1]))
    grads.b_c[...] = d_z_c.sum(axis=(0, 1))
    d_u = d_z_c @ params.W_c                                  # (B, K, 2E)
    embed = params.embed_dim
    d_rho = agg_p @ d_u[..., :embed] + agg_q @ d_u[..., embed:]  # (B, P, E)
    d_z_e = (mem_norm.T @ d_rho) * (z_e > 0.0)                # (B, M, E)
    grads.W_e[...] = np.tensordot(d_z_e, x, axes=([0, 1], [0, 1]))
    grads.b_e[...] = d_z_e.sum(axis=(0, 1))
    return grads


def bellman_grads(params, batch, target_params, gamma, config):
    """The TD loss and gradients of `network.bellman_grads`, per pair."""
    q_values, cache = forward_batch(params, batch.x, config)
    q_next, _ = forward_batch(target_params, batch.x_next, config)
    rows = np.arange(len(batch.a))
    diff = q_values[rows, batch.a] - (batch.r + gamma * q_next.max(axis=1))
    d_q = np.zeros_like(q_values)
    d_q[rows, batch.a] = 2.0 * diff / len(rows)
    return float(np.mean(diff ** 2)), backward_batch(params, cache, d_q, config)


def ablate_steps(checkpoint, scenarios, ks, config, seed=0):
    """Rows of `meta.ablate_steps`, one `adapt_to_scenario` with
    `adapt_steps=k` and one greedy `run_episode` per k and scenario."""
    rows = []
    for k in ks:
        times = []
        for flow in scenarios:
            hyper = replace(checkpoint.hyper, adapt_steps=k)
            adapted = ss.adapt_to_scenario(replace(checkpoint, hyper=hyper), flow, config,
                                           seed=seed)
            result = ss.run_episode(config, flow, ss.GreedyPolicy(adapted.params, config),
                                    seed=seed)
            times.append(result.avg_travel_time)
        rows.append(ss.meta.AblationRow(int(k), float(np.mean(times)), len(scenarios), seed))
    return rows


def forward(params: ss.QNetworkParams, x: np.ndarray, config: ss.IntersectionConfig):
    """Q-values (B, P) for observations x (B, M, 2), plus the cache the
    backward pass reads: `bind`, then `_forward_bound`."""
    return _forward_bound(bind(params, config), x)


def td_backward(network, cache, d_q: np.ndarray) -> ss.QNetworkParams:
    """Reverse-mode d(loss)/d(params) given d(loss)/dQ (B, P)."""
    x, e, rho, c = cache
    n, n_mov = x.shape[0], x.shape[1]
    embed, compete = network.embed_dim, network.compete_dim
    n_phases = network.select.shape[1]

    grads = ss.QNetworkParams(embed, compete)
    d_s = (d_q @ network.select[0]).reshape(-1)               # (B·K,)
    grads.b_r[...] = d_s.sum()
    grads.w_r[...] = c @ d_s
    d_z_c = network.w_r[:, None] * d_s                        # (C, B·K)
    d_z_c *= c > 0.0
    d_h = (d_z_c.reshape(compete * n, -1) @ network.select_t).reshape(
        2 * compete, n * n_phases)
    grads.W_c.reshape(compete, 2, embed)[...] = (
        (d_h @ rho.T).reshape(2, compete, embed).transpose(1, 0, 2))
    grads.b_c[...] = d_h[:compete].sum(axis=1)
    d_rho = network.w_pq.T @ d_h                              # (E, B·P)
    d_e = (d_rho.reshape(embed * n, n_phases) @ network.mem_norm.T).reshape(
        embed, n * n_mov)
    d_e *= e > 0.0
    grads.W_e[...] = d_e @ x.reshape(n * n_mov, 2)
    grads.b_e[...] = d_e.sum(axis=1)
    return grads


def td_bellman_grads(params, batch, target_params, gamma, config):
    """Squared TD loss and its gradients, the learner and the target each
    bound here."""
    n = len(batch.a)
    network = bind(params, config)
    q_values, cache = _forward_bound(network, batch.x)
    q_next, _ = forward(target_params, batch.x_next, config)
    targets = batch.r + gamma * q_next.max(axis=1)

    rows = np.arange(n)
    diff = q_values[rows, batch.a] - targets
    loss = float(np.mean(diff ** 2))
    d_q = np.zeros_like(q_values)
    d_q[rows, batch.a] = 2.0 * diff / n
    return loss, td_backward(network, cache, d_q)


def clip_gradients(grads: ss.QNetworkParams, max_norm: float) -> ss.QNetworkParams:
    """Rescale so the global norm is at most max_norm; max_norm<=0 disables."""
    if max_norm <= 0 or (total := math.sqrt(grads.theta @ grads.theta)) <= max_norm:
        return grads
    return grads.with_theta(grads.theta * (max_norm / total))


def sgd_step(params: ss.QNetworkParams, grads: ss.QNetworkParams,
             lr: float) -> ss.QNetworkParams:
    return params.with_theta(params.theta - lr * grads.theta)


# ---------------------------------------------------------------------------
# The training loops, each with its own TD bookkeeping

def epsilon_greedy(q: np.ndarray, epsilon: float, rng) -> int:
    """A random phase with probability epsilon, else the first argmax of the
    Q-values `q`; one coin when epsilon > 0, then the phase if exploring."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.size))
    return int(q.argmax())


def decision_q(params, obs, config) -> np.ndarray:
    """Q (P,) of one observation (M, 2), through the batch forward at B=1."""
    return forward(params, obs[None], config)[0][0]


def td_grads(params, target, memory, hyper, config):
    """The clipped TD step on a fresh replay batch."""
    batch = memory.sample(hyper.batch_size)
    loss, grads = td_bellman_grads(params, batch, target, hyper.gamma, config)
    return loss, clip_gradients(grads, hyper.grad_clip)


def train_dqn(config, scenarios, hyper, dims=(16, 16)):
    """(params, log, updates) of `dqn.train_dqn`: the target is a copy of
    the learner taken every `hyper.target_sync` updates."""
    flows = list(scenarios)
    params = target = ss.init_params(dims, hyper.seed)
    rng = spawn_rng(hyper.seed, NS_DQN)
    memory = ss.ReplayMemory(hyper.capacity, seed=rng)
    decisions_per_episode = max(1, int(config.horizon // config.decision_interval))
    decay_steps = max(1, int(round(hyper.epsilon_fraction * hyper.episodes
                                   * decisions_per_episode)))
    log = []
    step_counter = updates = 0
    epsilon = hyper.epsilon_start

    def act(live, obs):
        nonlocal epsilon
        frac = min(1.0, step_counter / decay_steps)
        epsilon = hyper.epsilon_start + (hyper.epsilon_end - hyper.epsilon_start) * frac
        return [epsilon_greedy(decision_q(params, obs[0], config), epsilon, rng)]

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
        reward_sum, reward_n = 0.0, 0
        rollout(config, [flows[episode % len(flows)]], act, learn)
    return params, log, updates


def train_metalight(config, train_scenarios, hyper, dims=(16, 16)):
    """(theta0, log) of `meta.train_metalight`: each task's base learner
    bootstraps from itself; theta0 moves against the tasks' gradients at
    their adapted parameters."""
    flows = list(train_scenarios)
    theta0 = ss.init_params(dims, hyper.seed)
    rng = spawn_rng(hyper.seed, NS_META)
    log = []
    for iteration in range(hyper.meta_iterations):
        task_idx = rng.choice(len(flows), size=hyper.task_batch, replace=False)
        task_grads, rollout_losses, meta_losses = [], [], []
        for ti in task_idx:
            memory = ss.ReplayMemory(hyper.capacity, seed=rng)
            adapted = theta0

            def act(live, obs):
                return [epsilon_greedy(decision_q(adapted, obs[0], config),
                                       hyper.rollout_epsilon, rng)]

            def adapt_step(i, transition):
                nonlocal adapted
                memory.push(transition)
                if len(memory) >= hyper.batch_size:
                    loss, grads = td_grads(adapted, adapted, memory, hyper, config)
                    adapted = sgd_step(adapted, grads, hyper.alpha)
                    rollout_losses.append(loss)

            rollout(config, [flows[int(ti)]], act, adapt_step)
            if len(memory) >= hyper.batch_size:
                loss, grads = td_grads(adapted, adapted, memory, hyper, config)
                task_grads.append(grads)
                meta_losses.append(loss)
        if task_grads:
            total = sum((g.theta for g in task_grads[1:]), task_grads[0].theta)
            theta0 = sgd_step(theta0, task_grads[0].with_theta(total), hyper.beta)
        log.append(MetaLogRow(
            iteration,
            float(np.mean(rollout_losses)) if rollout_losses else float("nan"),
            float(np.mean(meta_losses)) if meta_losses else float("nan"),
        ))
    return theta0, log


def collect_experience(theta, scenario, config, hyper, rng):
    """The memory of the learner `meta._collect_experience` returns:
    `hyper.adapt_data_budget` epsilon-greedy episodes from theta, each
    transition stored."""
    memory = ss.ReplayMemory(hyper.capacity, seed=rng)

    def act(live, obs):
        return [epsilon_greedy(decision_q(theta, obs[0], config), hyper.rollout_epsilon, rng)]

    for _ in range(hyper.adapt_data_budget):
        rollout(config, [scenario], act, lambda i, transition: memory.push(transition))
    return memory


def apply_gradient_steps(theta, grad_fn, lr, steps):
    """Iterate theta <- theta - lr * grad for `steps` steps, `grad_fn(theta)
    -> (loss, gradient)` evaluated afresh each step."""
    losses = []
    for _ in range(steps):
        loss, grads = grad_fn(theta)
        losses.append(loss)
        theta = sgd_step(theta, grads, lr)
    return theta, losses


def individual_adapt(theta, memory, steps, config, hyper):
    """`meta.individual_adapt` of a learner from theta whose memory is
    `memory`: `steps` TD steps of size `hyper.alpha`, each bootstrapping
    from the current iterate."""
    adapted, _ = apply_gradient_steps(
        theta, lambda params: td_grads(params, params, memory, hyper, config),
        hyper.alpha, steps)
    return adapted
