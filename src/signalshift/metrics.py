"""Movement-share distributions and the KL distance between them.

A traffic pattern is summarized by the fraction of vehicles using each
movement; the divergence between two such share vectors is the scalar
shift measure used throughout the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_KL_EPSILON = 1e-6


def _check_finite(v: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first non-finite entry of `v`."""
    bad = ~np.isfinite(v)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"{name} entry {i} is not finite: {float(v.flat[i])}")


@dataclass
class MovementDistribution:
    """Per-movement probability vector; sums to 1."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.p.ndim != 1:
            raise ValueError("distribution must be a 1-d vector")
        _check_finite(self.p, "distribution")
        if np.any(self.p < 0):
            raise ValueError("distribution has negative entries")
        if abs(float(self.p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"distribution sums to {self.p.sum()!r}, not 1")


def movement_distribution(volumes: Sequence[float]) -> MovementDistribution:
    """Share vector n_i / sum_j n_j of per-movement volumes."""
    v = np.asarray(volumes, dtype=np.float64)
    _check_finite(v, "volumes")
    if np.any(v < 0):
        raise ValueError("volumes must be non-negative")
    total = float(v.sum())
    if total <= 0:
        raise ValueError("all-zero volumes: movement distribution undefined")
    return MovementDistribution(v / total)


def _as_prob_vector(dist) -> np.ndarray:
    if isinstance(dist, MovementDistribution):
        return dist.p
    return MovementDistribution(np.asarray(dist, dtype=np.float64)).p


def _smooth(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Replace zero cells by epsilon and renormalize; no-op when epsilon=0."""
    if epsilon == 0:
        return p
    q = np.where(p <= 0.0, epsilon, p)
    return q / q.sum()


def kl_distance(p_train, p_test, epsilon: float = DEFAULT_KL_EPSILON) -> float:
    """KL divergence D(p_train || p_test) in nats.

    Zero test-cells make the ratio undefined, so cells equal to zero are
    smoothed to `epsilon` (then renormalized) before taking logs.  With
    epsilon=0 a support mismatch yields +inf.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    p = _as_prob_vector(p_train)
    q = _as_prob_vector(p_test)
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    p = _smooth(p, epsilon)
    q = _smooth(q, epsilon)
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def average_distribution(dists: Iterable[MovementDistribution]) -> MovementDistribution:
    """Arithmetic mean of distributions, renormalized."""
    stack = [_as_prob_vector(d) for d in dists]
    if not stack:
        raise ValueError("cannot average an empty collection of distributions")
    mean = np.mean(np.stack(stack), axis=0)
    return MovementDistribution(mean / mean.sum())


def average_training_distribution(scenario_set) -> MovementDistribution:
    """Mean movement distribution of a ScenarioSet (see scenarios module)."""
    flows = list(scenario_set)
    if not flows:
        raise ValueError("scenario set is empty")
    return average_distribution(
        movement_distribution(f.movement_counts()) for f in flows
    )
