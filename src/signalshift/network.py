"""Phase-competition Q-network with explicit reverse-mode gradients.

One shared embedding maps each movement's (demand, green flag) pair to a
feature vector; a phase is the mean of its movements' features; a shared
competition layer scores every ordered phase pair; a phase's Q-value is
the sum of its scores against all rivals.  Because every layer is shared
across movements and pairs, the network has no notion of movement
identity: relabeling phases permutes the Q-values and nothing else.

Weights and gradients are one type: a flat float64 vector `theta` with a
named view per tensor, so SGD is `theta - lr * g.theta`.  Updates return
new objects and never mutate their inputs, which keeps meta-learning
bookkeeping honest.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np

from .intersection import IntersectionConfig, Observation
from .seeding import spawn_rng

DEFAULT_EMBED_DIM = 16
DEFAULT_COMPETE_DIM = 16

PARAM_FIELDS = ("W_e", "b_e", "W_c", "b_c", "w_r", "b_r")

CHECKPOINT_SCHEMA = "# schema=1"


@lru_cache(maxsize=64)
def _layout(embed_dim: int, compete_dim: int) -> tuple:
    """(name, shape, slice of theta) per tensor, in PARAM_FIELDS order."""
    shapes = ((embed_dim, 2), (embed_dim,), (compete_dim, 2 * embed_dim),
              (compete_dim,), (compete_dim,), ())
    ends = accumulate(math.prod(shape) for shape in shapes)
    return tuple((name, shape, slice(end - math.prod(shape), end))
                 for name, shape, end in zip(PARAM_FIELDS, shapes, ends))


class QNetworkParams:
    """Weights or loss gradients of the Q-network: the flat vector `theta`
    (zeros if omitted) and a view of it per tensor, W_e (E, 2), b_e (E,),
    W_c (C, 2E), b_c (C,), w_r (C,) and b_r ().  The views are bound once:
    writing through one changes `theta`; rebinding an attribute raises."""

    __slots__ = ("embed_dim", "compete_dim", "theta") + PARAM_FIELDS

    def __init__(self, embed_dim: int = DEFAULT_EMBED_DIM,
                 compete_dim: int = DEFAULT_COMPETE_DIM, theta=None):
        bind = object.__setattr__
        bind(self, "embed_dim", int(embed_dim))
        bind(self, "compete_dim", int(compete_dim))
        layout = _layout(self.embed_dim, self.compete_dim)
        size = layout[-1][2].stop
        theta = np.zeros(size) if theta is None else np.ascontiguousarray(theta, np.float64)
        if theta.shape != (size,):
            raise ValueError(f"theta has shape {theta.shape}, the dims need ({size},)")
        bind(self, "theta", theta)
        for name, shape, span in layout:
            bind(self, name, theta[span].reshape(shape))

    def with_theta(self, theta) -> QNetworkParams:
        return QNetworkParams(self.embed_dim, self.compete_dim, theta)

    def __setattr__(self, name, value):
        # `p.W_e += x` writes in place, then rebinds the same view: allowed
        if getattr(self, name, None) is not value:
            raise AttributeError(f"cannot rebind {name!r}; write through the view "
                                 f"instead (p.{name}[...] = value)")


def init_params(dims: tuple[int, int] = (DEFAULT_EMBED_DIM, DEFAULT_COMPETE_DIM),
                seed: int = 0) -> QNetworkParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    embed_dim, compete_dim = (int(d) for d in dims)
    if embed_dim <= 0 or compete_dim <= 0:
        raise ValueError("network dimensions must be positive")
    rng = spawn_rng(seed)
    params = QNetworkParams(embed_dim, compete_dim)
    for name, fan_in in (("W_e", 2), ("W_c", 2 * embed_dim), ("w_r", compete_dim)):
        weights = getattr(params, name)
        bound = 1.0 / np.sqrt(fan_in)
        weights[...] = rng.uniform(-bound, bound, size=weights.shape)
    return params


@lru_cache(maxsize=64)
def _phase_structs(config: IntersectionConfig):
    """Membership/pair matrices used by the batched forward/backward."""
    n_phases, n_mov = config.n_phases, config.n_movements
    mem_norm = np.zeros((n_phases, n_mov))
    for p, movements in enumerate(config.phases):
        mem_norm[p, list(movements)] = 1.0 / len(movements)
    pairs = [(p, q) for p in range(n_phases) for q in range(n_phases) if q != p]
    p_idx = np.array([p for p, _ in pairs])
    q_idx = np.array([q for _, q in pairs])
    agg_p = np.zeros((n_phases, len(pairs)))
    agg_q = np.zeros((n_phases, len(pairs)))
    agg_p[p_idx, np.arange(len(pairs))] = 1.0
    agg_q[q_idx, np.arange(len(pairs))] = 1.0
    return mem_norm, p_idx, q_idx, agg_p, agg_q


def _forward_batch(params: QNetworkParams, demands: np.ndarray, greens: np.ndarray,
                   config: IntersectionConfig):
    """Q-values (B, n_phases) plus the cache needed for the backward pass."""
    mem_norm, p_idx, q_idx, agg_p, _ = _phase_structs(config)
    x = np.stack([demands, greens], axis=-1)                  # (B, M, 2)
    z_e = x @ params.W_e.T + params.b_e                       # (B, M, E)
    e = np.maximum(z_e, 0.0)
    rho = mem_norm @ e                                        # (B, P, E)
    u = np.concatenate([rho[:, p_idx, :], rho[:, q_idx, :]], axis=-1)  # (B, K, 2E)
    z_c = u @ params.W_c.T + params.b_c                       # (B, K, C)
    c = np.maximum(z_c, 0.0)
    s = c @ params.w_r + params.b_r                           # (B, K)
    q_values = s @ agg_p.T                                    # (B, P)
    cache = (x, z_e, rho, u, z_c, c)
    return q_values, cache


def _backward_batch(params: QNetworkParams, cache, d_q: np.ndarray,
                    config: IntersectionConfig) -> QNetworkParams:
    """Reverse-mode accumulation of d(loss)/d(params) given d(loss)/dQ."""
    mem_norm, _, _, agg_p, agg_q = _phase_structs(config)
    x, z_e, _, u, z_c, c = cache

    grads = QNetworkParams(params.embed_dim, params.compete_dim)
    d_s = d_q @ agg_p                                         # (B, K)
    grads.b_r[...] = d_s.sum()
    grads.w_r[...] = np.tensordot(d_s, c, axes=([0, 1], [0, 1]))
    d_c = d_s[..., None] * params.w_r                         # (B, K, C)
    d_z_c = d_c * (z_c > 0.0)
    grads.W_c[...] = np.tensordot(d_z_c, u, axes=([0, 1], [0, 1]))
    grads.b_c[...] = d_z_c.sum(axis=(0, 1))
    d_u = d_z_c @ params.W_c                                  # (B, K, 2E)
    embed = params.embed_dim
    d_rho = agg_p @ d_u[..., :embed] + agg_q @ d_u[..., embed:]  # (B, P, E)
    d_e = mem_norm.T @ d_rho                                  # (B, M, E)
    d_z_e = d_e * (z_e > 0.0)
    grads.W_e[...] = np.tensordot(d_z_e, x, axes=([0, 1], [0, 1]))
    grads.b_e[...] = d_z_e.sum(axis=(0, 1))
    return grads


def _obs_arrays(observations) -> tuple[np.ndarray, np.ndarray]:
    demands = np.array([o.queue_counts for o in observations], dtype=np.float64)
    greens = np.array([o.green_flags for o in observations], dtype=np.float64)
    return demands, greens


def frap_forward(params: QNetworkParams, obs: Observation,
                 config: IntersectionConfig) -> np.ndarray:
    """Q-value per phase for a single observation."""
    if len(obs.queue_counts) != config.n_movements:
        raise ValueError("observation/config movement count mismatch")
    q_values, _ = _forward_batch(params, *_obs_arrays([obs]), config)
    q = q_values[0]
    if not np.all(np.isfinite(q)):
        raise FloatingPointError("non-finite Q-values")
    return q


def bellman_grads(params: QNetworkParams, batch, target_params: QNetworkParams,
                  gamma: float, config: IntersectionConfig) -> tuple[float, QNetworkParams]:
    """Squared TD loss over a batch of transitions and its gradients.

    Targets r + gamma * max_a' Q_target(s', a') are computed with
    `target_params` and treated as constants; only Q(s, a) is
    differentiated.
    """
    if not batch:
        raise ValueError("empty transition batch")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    batch = list(batch)
    n = len(batch)
    demands, greens = _obs_arrays([t.s for t in batch])
    q_values, cache = _forward_batch(params, demands, greens, config)
    actions = np.array([t.a for t in batch])
    rewards = np.array([t.r for t in batch], dtype=np.float64)

    next_demands, next_greens = _obs_arrays([t.s_next for t in batch])
    q_next, _ = _forward_batch(target_params, next_demands, next_greens, config)
    targets = rewards + gamma * q_next.max(axis=1)

    rows = np.arange(n)
    diff = q_values[rows, actions] - targets
    loss = float(np.mean(diff ** 2))
    d_q = np.zeros_like(q_values)
    d_q[rows, actions] = 2.0 * diff / n
    return loss, _backward_batch(params, cache, d_q, config)


def sgd_step(params: QNetworkParams, grads: QNetworkParams, lr: float) -> QNetworkParams:
    """One gradient-descent update; returns fresh params, inputs untouched."""
    if (grads.embed_dim, grads.compete_dim) != (params.embed_dim, params.compete_dim):
        raise ValueError("gradient and parameter dims differ")
    return params.with_theta(params.theta - lr * grads.theta)


def grad_norm(grads: QNetworkParams) -> float:
    # per-tensor sums of squares added in layout order: one sum over theta
    # rounds differently and would move every clipped step's last bits
    return float(np.sqrt(sum(float(np.sum(getattr(grads, name) ** 2))
                             for name in PARAM_FIELDS)))


def clip_gradients(grads: QNetworkParams, max_norm: float) -> QNetworkParams:
    """Rescale so the global norm is at most max_norm; max_norm<=0 disables.

    TD errors early in training can reach the hundreds (the reward is a raw
    queue count), and unclipped squared-loss steps at the default learning
    rate diverge; clipping caps the step size without biasing its direction.
    Returns `grads` itself when it does not rescale.
    """
    if max_norm <= 0 or (total := grad_norm(grads)) <= max_norm:
        return grads
    return grads.with_theta(grads.theta * (max_norm / total))


# ---------------------------------------------------------------------------
# Checkpoint file: textual, hex-encoded float64 payload, bit-exact round-trip.

def params_to_text(params: QNetworkParams) -> str:
    lines = [CHECKPOINT_SCHEMA,
             f"embed_dim={params.embed_dim}",
             f"compete_dim={params.compete_dim}"]
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dims}".rstrip())
        lines.append(arr.astype("<f8").tobytes().hex())
    return "\n".join(lines) + "\n"


def params_from_lines(lines: list[str]) -> QNetworkParams:
    """Parse a checkpoint; every tensor must have the shape its header dims
    give it, or ValueError names the tensor."""
    header: dict[str, str] = {}
    tensors: dict[str, tuple] = {}        # name -> (shape, values)
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        if line.startswith("tensor "):
            name, *dims = line.split()[1:]
            values = np.frombuffer(bytes.fromhex(lines[i].strip()), dtype="<f8")
            tensors[name] = (tuple(int(d) for d in dims), values)
            i += 1
        elif "=" in line:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
    params = QNetworkParams(int(header.get("embed_dim", DEFAULT_EMBED_DIM)),
                            int(header.get("compete_dim", DEFAULT_COMPETE_DIM)))
    for name in PARAM_FIELDS:
        if name not in tensors:
            raise ValueError(f"checkpoint missing tensor {name}")
        view, (shape, values) = getattr(params, name), tensors[name]
        if shape != view.shape or values.size != view.size:
            raise ValueError(f"tensor {name}: shape {shape} with {values.size} values; "
                             f"the header dims give {view.shape}")
        view[...] = values.reshape(shape)
    return params


def save_params(params: QNetworkParams, path) -> None:
    Path(path).write_text(params_to_text(params))


def load_params(path) -> QNetworkParams:
    return params_from_lines(Path(path).read_text().splitlines())
