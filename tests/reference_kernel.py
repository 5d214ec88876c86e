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
"""

import math

import numpy as np

import signalshift as ss
from signalshift.network import _forward_bound, bind


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
    """Rows of `meta.ablate_steps`, one `adapt_to_scenario(k)` and one greedy
    `run_episode` per k and scenario."""
    rows = []
    for k in ks:
        times = []
        for flow in scenarios:
            adapted = ss.adapt_to_scenario(checkpoint, flow, config, k_override=k, seed=seed)
            result = ss.run_episode(config, flow, ss.GreedyPolicy(adapted.params, config),
                                    seed=seed)
            if result.avg_travel_time is not None:
                times.append(result.avg_travel_time)
        rows.append(ss.meta.AblationRow(int(k), float(np.mean(times)) if times else float("nan"),
                                        len(scenarios), seed))
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
