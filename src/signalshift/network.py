"""Phase-competition Q-network with explicit reverse-mode gradients.

One shared embedding maps each movement's (demand, green flag) pair to a
feature vector; a phase is the mean of its movements' features; a shared
competition layer scores every ordered phase pair; a phase's Q-value is
the sum of its scores against all rivals.  Because every layer is shared
across movements and pairs, the network has no notion of movement
identity: relabeling phases permutes the Q-values and nothing else.

The passes run on a `Batch` of arrays, x (B, M, 2), as 2-D products over
the whole batch.  W_c splits into the half that sees the scored phase p and
the half that sees its rival q, so each of the P phase vectors goes through
each half once; the P x P pair grid then takes its K = P(P-1) off-diagonal
entries, p != q, as sums of one p-side and one q-side score, and the
diagonal is never formed.  No pair input of width 2E is built.

The batch forward is written over leading axes: a stack of T networks,
theta (T, n) with observations x (T, B, M, 2), runs as the same 2-D
products, one per network, through stacked `matmul` and `vecmat`.  Its
Q-values equal the T separate forwards bit for bit (a property test checks
this under one BLAS thread), which lets T greedy episodes act together at
B=1 (see `greedy_phases`).  Stack networks along T, never observations
along B: rows batched under one network round differently from B=1 rows.

A forward has two parts.  `bind` makes what depends on the weights and the
config only: the p/q relayout w_pq of W_c, the bias columns and the
config's phase matrices.  The products then run on them, with the same
shapes whether bound once or per call, so the Q-values are the same bits.
Every entry point takes bound networks, and each parameter version is
bound once: a greedy policy and each live stack of a lockstep rollout for
all their decisions; the TD learner (`dqn.TDLearner`, the one update rule
and one-network epsilon-greedy actor of DQN training, meta-training and
adaptation) binds each new iterate once, after its SGD step, for the next
decision and TD step (and the target, while it is the learner itself).

There are two forwards on a bound network.  `_forward_bound` is the batch
forward of the TD step, x (B, M, 2), with the cache the backward pass
reads; at B=1 it also makes every stacked decision (`greedy_phases`).
`_decide_one` is one network's decision forward, for one observation
(M, 2): `greedy_phase`, and so every greedy evaluation step and every
exploiting decision of a `dqn.TDLearner`, runs it.  It returns the batch
forward's bits at B=1 (property tests check this under several BLAS
kernels) from the same 2-D products, called through `np.dot`, with each
pair's two sides taken by a gather instead of the 0/1 products:
10.4 µs against 14.5 µs (one BLAS thread, OpenBLAS's SkylakeX kernel).
The gather is slower in the batch forward (40.0 -> 59.2 µs at B=32).  A
stacked decision pays ~2.5 µs for the batch forward's B axis and cache
(T=5 26.7 -> 29.1 µs, T=25 64.2 -> 66.7 µs against a stacked forward of
its own).

Every decision goes through one greedy rule, `_greedy`: on a Python list
of the P Q-values, finiteness, then the lowest index of the largest.
`greedy_phase` applies it to one network's decision forward; its stacked
twin `greedy_phases` applies it to one row per network of a stack, as
lockstep episodes act at B=1: by the bit-equality above each row is the
Q-values that episode would get alone.

Weights and gradients are one type: a flat float64 vector `theta` with a
named view per tensor, so SGD is `theta - lr * g.theta`; the backward pass
writes its gradient as one such vector.  Updates return new objects and
never mutate their inputs, which keeps meta-learning bookkeeping honest.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .intersection import IntersectionConfig, phase_membership
from .scenarios import ParseError, file_text, read_known_keys
from .seeding import spawn_rng

DEFAULT_EMBED_DIM = 16
DEFAULT_COMPETE_DIM = 16

PARAM_FIELDS = ("W_e", "b_e", "W_c", "b_c", "w_r", "b_r")


@lru_cache(maxsize=64)
def _layout(embed_dim: int, compete_dim: int) -> dict:
    """name -> (shape, slice of theta) per tensor, in PARAM_FIELDS order."""
    shapes = ((embed_dim, 2), (embed_dim,), (compete_dim, 2 * embed_dim),
              (compete_dim,), (compete_dim,), ())
    ends = accumulate(math.prod(shape) for shape in shapes)
    return {name: (shape, slice(end - math.prod(shape), end))
            for name, shape, end in zip(PARAM_FIELDS, shapes, ends)}


class QNetworkParams:
    """Weights or loss gradients of the Q-network: the flat vector `theta`
    (zeros if omitted) and a view of it per tensor, W_e (E, 2), b_e (E,),
    W_c (C, 2E), b_c (C,), w_r (C,) and b_r ().  A view is made on its
    first read and kept: writing through one changes `theta`; rebinding an
    attribute raises.  A gradient that is only clipped and applied never
    makes its views.

    A stack of T networks for the forward pass is a theta of shape (T, n);
    each view then has the leading T axis, W_e (T, E, 2) and so on."""

    __slots__ = ("embed_dim", "compete_dim", "theta") + PARAM_FIELDS

    def __init__(self, embed_dim: int = DEFAULT_EMBED_DIM,
                 compete_dim: int = DEFAULT_COMPETE_DIM, theta=None):
        bind = object.__setattr__
        bind(self, "embed_dim", int(embed_dim))
        bind(self, "compete_dim", int(compete_dim))
        size = _layout(self.embed_dim, self.compete_dim)["b_r"][1].stop
        theta = np.zeros(size) if theta is None else np.ascontiguousarray(theta, np.float64)
        if theta.ndim not in (1, 2) or theta.shape[-1] != size:
            raise ValueError(f"theta has shape {theta.shape}, the dims need ({size},) "
                             f"or (T, {size})")
        bind(self, "theta", theta)

    def __getattr__(self, name):
        # reached only through an empty slot: a view not read before
        if name not in PARAM_FIELDS:
            raise AttributeError(name)
        shape, span = _layout(self.embed_dim, self.compete_dim)[name]
        view = self.theta[..., span].reshape(self.theta.shape[:-1] + shape)
        object.__setattr__(self, name, view)
        return view

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


class Batch(NamedTuple):
    """A batch of transitions as arrays: x and x_next (B, M, 2) stack the
    observations before and after (rows of `intersection.observe`: each
    movement's queue count and green flag), a (B,) holds the int64 actions
    and r (B,) the rewards."""

    x: np.ndarray
    a: np.ndarray
    r: np.ndarray
    x_next: np.ndarray


@lru_cache(maxsize=64)
def _phase_structs(config: IntersectionConfig):
    """The fixed matrices of the forward and backward passes: the phase
    membership (M, P), each column the mean over the phase's movements;
    the 0/1 selections (2, P, K) of the p and the q phase of each ordered
    pair p != q, their transposes (2, K, P), and the p phase and the q
    phase of each pair (K,) each."""
    n_phases = config.n_phases
    member = phase_membership(config)
    mem_norm = np.ascontiguousarray((member / member.sum(axis=1, keepdims=True)).T)
    pairs = [(p, q) for p in range(n_phases) for q in range(n_phases) if q != p]
    select = np.zeros((2, n_phases, len(pairs)))
    for k, (p, q) in enumerate(pairs):
        select[0, p, k] = select[1, q, k] = 1.0
    pair_phase = np.array([p for p, _ in pairs], dtype=np.int64)
    pair_rival = np.array([q for _, q in pairs], dtype=np.int64)
    return (mem_norm, select, np.ascontiguousarray(select.transpose(0, 2, 1)), pair_phase,
            pair_rival)


class BoundNetwork(NamedTuple):
    """What a forward reads besides the observations, made by `bind`; the
    weight operands keep the network's leading T axis if it is a stack."""

    W_e: np.ndarray
    b_e: np.ndarray            # (E, 1)
    w_pq: np.ndarray           # (2C, E): the p-half of W_c above the q-half
    b_c: np.ndarray            # (C, 1)
    w_r: np.ndarray
    b_r: np.ndarray            # (1,)
    mem_norm: np.ndarray       # (M, P)
    select: np.ndarray         # (2, P, K)
    select_t: np.ndarray       # (2, K, P)
    pair_phase: np.ndarray     # (K,): the p phase of each pair
    pair_rival: np.ndarray     # (K,): the q phase of each pair
    embed_dim: int
    compete_dim: int
    obs_shape: tuple           # lead + (M, 2)


def bind(params: QNetworkParams, config: IntersectionConfig) -> BoundNetwork:
    """Bind a network (or a stack) to a config for any number of forwards.

    The operands are views of `params.theta`, except w_pq, a copy: write to
    the weights after binding and the bound network no longer follows them.
    They are sliced from theta, not read through the tensor views, which
    would make and keep six views on `params`."""
    mem_norm, select, select_t, pair_phase, pair_rival = _phase_structs(config)
    theta, embed, compete = params.theta, params.embed_dim, params.compete_dim
    lead = theta.shape[:-1]
    W_e, b_e, W_c, b_c, w_r, b_r = (theta[..., span]
                                    for _, span in _layout(embed, compete).values())
    w_pq = W_c.reshape(lead + (compete, 2, embed)).swapaxes(-3, -2).reshape(
        lead + (2 * compete, embed))
    return BoundNetwork(W_e.reshape(lead + (embed, 2)), b_e.reshape(lead + (embed, 1)), w_pq,
                        b_c.reshape(lead + (compete, 1)), w_r, b_r, mem_norm, select,
                        select_t, pair_phase, pair_rival, embed, compete,
                        (*lead, config.n_movements, 2))


def _forward_bound(network: BoundNetwork, x: np.ndarray):
    """The forward products on a bound network.

    Features run along rows and samples along columns, so each layer is one
    2-D GEMM over the whole batch and every bias and mask runs along rows:
    W_e (E, 2) @ (2, B·M) embeds, (E·B, M) @ (M, P) takes the phase means,
    the stacked p-half and q-half of W_c (2C, E) @ (E, B·P) score every
    phase as each side of a pair, and 0/1 selections (P, K) add the two
    sides of each of the K ordered pairs p != q.

    A stack of networks, theta (T, n) with x (T, B, M, 2), gives Q (T, B, P):
    every product above gains the leading T axis and runs once per network.
    The B axis stays even at B=1: the products keep these shapes, because
    BLAS may round others differently.
    """
    W_e, b_e, w_pq, b_c, w_r, b_r, mem_norm, select, _, _, _, embed, compete, _ = network
    lead = x.shape[:-3]                                       # () or (T,)
    n, n_mov = x.shape[-3:-1]
    n_phases, n_pairs = select.shape[1:]
    e = W_e @ x.reshape(lead + (n * n_mov, 2)).mT             # (E, B·M)
    e += b_e
    np.maximum(e, 0.0, out=e)
    rho = (e.reshape(lead + (embed * n, n_mov)) @ mem_norm).reshape(
        lead + (embed, n * n_phases))
    h = w_pq @ rho                                            # (2C, B·P)
    h[..., :compete, :] += b_c
    z_c = h.reshape(lead + (2, compete * n, n_phases)) @ select  # (2, C·B, K)
    c = z_c[..., 0, :, :]
    c += z_c[..., 1, :, :]
    np.maximum(c, 0.0, out=c)
    c = c.reshape(lead + (compete, n * n_pairs))
    s = np.vecmat(w_r, c)                                     # (B·K,)
    s += b_r
    q_values = s.reshape(lead + (n, n_pairs)) @ select[0].T   # (B, P)
    return q_values, (x, e, rho, c)


def _backward(network: BoundNetwork, cache, d_s: np.ndarray) -> QNetworkParams:
    """Reverse-mode d(loss)/d(params) given d(loss)/ds (B, K), the gradient
    of the pair scores; the tensors' gradients go into one flat vector."""
    _, _, w_pq, _, w_r, _, mem_norm, _, select_t, _, _, embed, compete, _ = network
    x, e, rho, c = cache
    n, n_mov = x.shape[0], x.shape[1]
    n_phases = select_t.shape[2]

    d_s = d_s.reshape(-1)                                     # (B·K,)
    d_z_c = w_r[:, None] * d_s                                # (C, B·K)
    d_z_c *= c > 0.0
    d_h = (d_z_c.reshape(compete * n, -1) @ select_t).reshape(2 * compete, n * n_phases)
    d_w_c = (d_h @ rho.T).reshape(2, compete, embed).transpose(1, 0, 2)
    d_rho = w_pq.T @ d_h                                      # (E, B·P)
    d_e = (d_rho.reshape(embed * n, n_phases) @ mem_norm.T).reshape(embed, n * n_mov)
    d_e *= e > 0.0
    theta = np.concatenate([                                  # in PARAM_FIELDS order
        (d_e @ x.reshape(n * n_mov, 2)).reshape(-1), d_e.sum(axis=1),
        d_w_c.reshape(-1), d_h[:compete].sum(axis=1), c @ d_s, d_s.sum(keepdims=True)])
    return QNetworkParams(embed, compete, theta)


def _decide_one(network: BoundNetwork, obs: np.ndarray) -> np.ndarray:
    """The decision forward of one network: Q (P,) for one observation (M, 2).

    Its products are those of `_forward_bound` at B=1, on the same 2-D
    shapes, called through `np.dot`, which dispatches to BLAS with less
    overhead than `@` and `vecmat` and gave the same bits under every
    kernel tried.  The pair stage gathers instead of multiplying: each
    pair's two sides are columns of the p-half and the q-half scores, and a
    0/1 product with one 1 per column returns the selected value bit for
    bit, so the Q-values equal the batch forward's while every score is
    finite.  (A non-finite score reaches only its own pairs here, where the
    product made every pair NaN; scores that large need weights far past
    MAX_PARAM_ABS.)  No cache is kept."""
    (W_e, b_e, w_pq, b_c, w_r, b_r, mem_norm, select, _, pair_phase, pair_rival, _,
     compete, _) = network
    e = np.dot(W_e, obs.T)                                    # (E, M)
    e += b_e
    np.maximum(e, 0.0, out=e)
    h = np.dot(w_pq, np.dot(e, mem_norm))                     # (2C, P)
    h_p = h[:compete]
    h_p += b_c
    c = h_p.take(pair_phase, axis=1)                          # (C, K)
    c += h[compete:].take(pair_rival, axis=1)
    np.maximum(c, 0.0, out=c)
    s = np.dot(w_r, c)                                        # (K,)
    s += b_r
    return np.dot(s, select[0].T)                             # (P,)


def _check_shape(network: BoundNetwork, obs: np.ndarray, stack: bool = False) -> None:
    if (len(network.obs_shape) == 3) != stack:
        raise ValueError(f"{'one network' if stack else 'a stack'} given: greedy_phases takes "
                         "a stack of networks, greedy_phase and frap_forward one network")
    if obs.shape != network.obs_shape:
        raise ValueError(f"observation has shape {obs.shape}, the config and the "
                         f"network need {network.obs_shape}")


def _greedy(q: list[float]) -> int:
    """The one greedy rule: the lowest index of the largest of the Q-values
    `q`, a Python list.  Values that are not finite raise FloatingPointError.

    Phases whose Q-values are equal in exact arithmetic sum their pair
    scores in different orders, so which of them wins still rests on
    rounding."""
    if not all(map(math.isfinite, q)):
        raise FloatingPointError("non-finite Q-values")
    return q.index(max(q))


def frap_forward(network: BoundNetwork, obs: np.ndarray) -> np.ndarray:
    """Q-value per phase (P,) of one network for a single (M, 2) observation
    from `observe`; a stack decides through `greedy_phases`."""
    _check_shape(network, obs)
    q = _decide_one(network, obs)
    if not np.isfinite(q).all():
        raise FloatingPointError("non-finite Q-values")
    return q


def greedy_phase(network: BoundNetwork, obs: np.ndarray) -> int:
    """The greedy decision (`_greedy`) of one bound network for one (M, 2)
    observation.  Q-values that are not finite raise FloatingPointError, a
    stack or an observation of the wrong shape ValueError."""
    _check_shape(network, obs)
    return _greedy(_decide_one(network, obs).tolist())


def greedy_phases(stack: BoundNetwork, obs: np.ndarray) -> list[int]:
    """`greedy_phase` for a stack of T networks and observations (T, M, 2),
    one each: the greedy phase of every row, each row's Q-values checked.
    The stack runs the batch forward at B=1, as lockstep greedy episodes
    act (`meta.ablate_steps`)."""
    _check_shape(stack, obs, stack=True)
    q = _forward_bound(stack, obs[:, None])[0][:, 0].tolist()     # (T, 1, P) at B=1
    return [_greedy(row) for row in q]


def bellman_grads(network: BoundNetwork, batch: Batch, target: BoundNetwork,
                  gamma: float) -> tuple[float, QNetworkParams]:
    """Squared TD loss over a batch of transitions and its gradients.

    Targets r + gamma * max_a' Q_target(s', a') are computed with the bound
    `target` and treated as constants; only Q(s, a) is differentiated.  A
    learner that is its own target passes its binding twice.  A non-finite
    loss or gradient raises FloatingPointError, so a diverging run stops at
    the update that diverged.
    """
    n = len(batch.a)
    if n == 0:
        raise ValueError("empty transition batch")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    q_values, cache = _forward_bound(network, batch.x)
    q_next, _ = _forward_bound(target, batch.x_next)
    targets = batch.r + gamma * q_next.max(axis=1)

    diff = q_values[np.arange(n), batch.a] - targets
    loss = float(np.add.reduce(diff * diff) / n)
    # dL/dQ(s, a) = 2 diff / n reaches the pair scores of the pairs whose p
    # phase is a, with weight 1
    d_s = np.where(network.pair_phase == batch.a[:, None], (2.0 * diff / n)[:, None], 0.0)
    grads = _backward(network, cache, d_s)
    if not (math.isfinite(loss) and np.isfinite(grads.theta).all()):
        raise FloatingPointError(f"non-finite TD loss or gradient (loss={loss!r})")
    return loss, grads


# Largest |entry| of theta a training or adaptation run may return.  The
# trained networks here stay below 2 (1.74 at most), so an entry past this
# bound means the updates ran away, even while every value is still finite.
MAX_PARAM_ABS = 1e6


def check_bounded(params: QNetworkParams) -> QNetworkParams:
    """Return `params`; raise FloatingPointError when an entry of theta is
    not finite or exceeds MAX_PARAM_ABS in magnitude.  Runs check it once
    where they return, not per update."""
    largest = float(np.max(np.abs(params.theta)))
    if not largest <= MAX_PARAM_ABS:
        raise FloatingPointError(
            f"parameters ran away: max |theta| = {largest!r} > {MAX_PARAM_ABS:g}")
    return params


def sgd_step(params: QNetworkParams, grads: QNetworkParams, lr: float) -> QNetworkParams:
    """One gradient-descent update; returns fresh params, inputs untouched."""
    if (grads.embed_dim, grads.compete_dim) != (params.embed_dim, params.compete_dim):
        raise ValueError("gradient and parameter dims differ")
    return params.with_theta(params.theta - lr * grads.theta)


def grad_norm(grads: QNetworkParams) -> float:
    return math.sqrt(grads.theta @ grads.theta)


def clip_gradients(grads: QNetworkParams, max_norm: float) -> QNetworkParams:
    """Rescale so the global norm is at most max_norm; max_norm<=0 disables.

    The reward is a raw queue count, so at the default max_norm of 10 the
    clip rescales nearly every step, not only early ones: measured on the
    default report's inputs, 100 % of meta TD steps (median raw norm 1.3e4)
    and 99.9 % of DQN steps (median 785).  Training is then normalised SGD
    with step length lr * max_norm; the direction is left unbiased.
    Returns `grads` itself when it does not rescale.
    """
    if max_norm <= 0 or (total := grad_norm(grads)) <= max_norm:
        return grads
    return grads.with_theta(grads.theta * (max_norm / total))


# ---------------------------------------------------------------------------
# Checkpoint file: textual, hex-encoded float64 payload, bit-exact round-trip.

def params_to_text(params: QNetworkParams) -> str:
    lines = [f"embed_dim={params.embed_dim}", f"compete_dim={params.compete_dim}"]
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dims}".rstrip())
        lines.append(arr.astype("<f8").tobytes().hex())
    return file_text(lines)


# the key=value lines of a network checkpoint, each with its parser
CHECKPOINT_KEYS = {"embed_dim": int, "compete_dim": int}


def params_from_lines(lines: list[str], source,
                      known=CHECKPOINT_KEYS) -> tuple[QNetworkParams, dict]:
    """Parse a checkpoint read from `source` into the network and its keys:
    comments, `key=value` lines with keys from `known` (`read_known_keys`:
    a later key wins, wherever it stands), and a `tensor` header per
    tensor, each followed by its payload line.  Any other line, an unknown
    key or an unknown tensor raises ParseError at its line.  Every tensor
    must have the shape its header dims give it, or ValueError names the
    tensor."""
    rest = list(lines)                    # the lines outside the tensors
    tensors: dict[str, tuple] = {}        # name -> (shape, values)
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line.startswith("tensor "):
            i += 1
            continue
        name, *dims = line.split()[1:]
        if name not in PARAM_FIELDS:
            raise ParseError(source, i + 1, f"unknown tensor {name!r}")
        if i + 1 == len(lines):
            raise ValueError(f"tensor {name}: the checkpoint ends before its values")
        try:
            tensors[name] = (tuple(int(d) for d in dims),
                             np.frombuffer(bytes.fromhex(lines[i + 1].strip()), dtype="<f8"))
        except ValueError as exc:
            raise ValueError(f"tensor {name}: {exc}") from None
        rest[i] = rest[i + 1] = ""
        i += 2
    header = read_known_keys(rest, source, known)
    params = QNetworkParams(header.get("embed_dim", DEFAULT_EMBED_DIM),
                            header.get("compete_dim", DEFAULT_COMPETE_DIM))
    for name in PARAM_FIELDS:
        if name not in tensors:
            raise ValueError(f"checkpoint missing tensor {name}")
        view, (shape, values) = getattr(params, name), tensors[name]
        if shape != view.shape or values.size != view.size:
            raise ValueError(f"tensor {name}: shape {shape} with {values.size} values; "
                             f"the header dims give {view.shape}")
        view[...] = values.reshape(shape)
    return params, header


def save_params(params: QNetworkParams, path) -> None:
    Path(path).write_text(params_to_text(params))


def load_params(path) -> QNetworkParams:
    return params_from_lines(Path(path).read_text().splitlines(), path)[0]
