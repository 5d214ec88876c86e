"""Shared fixtures: canonical base volumes and one expensive session-scoped
training run on the skewed toy scenario (reused by the DQN tests and the
acceptance suite)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import signalshift as ss
from signalshift.intersection import rollout

# Five synthetic hourly base volumes (vehicles/hour per movement) plus the
# movement shares they imply; movement columns sum to the totals below.
SYNTHETIC_BASES = {
    "base1": [98, 159, 114, 147, 157, 174, 165, 289],
    "base2": [164, 332, 73, 308, 339, 58, 25, 45],
    "base3": [345, 85, 190, 101, 153, 127, 125, 188],
    "base4": [188, 418, 98, 445, 436, 72, 27, 74],
    "base5": [451, 101, 252, 139, 169, 159, 170, 250],
}
SYNTHETIC_SHARES_PCT = {
    "base1": [7.52, 12.2, 8.74, 11.28, 12.04, 13.35, 12.66, 22.17],
    "base2": [12.2, 24.7, 5.43, 22.91, 25.22, 4.31, 1.86, 3.34],
    "base3": [26.25, 6.46, 14.45, 7.68, 11.64, 9.66, 9.51, 14.3],
    "base4": [10.69, 23.77, 5.57, 25.31, 24.8, 4.09, 1.53, 4.2],
    "base5": [26.67, 5.97, 14.9, 8.21, 9.99, 9.4, 10.05, 14.78],
}

# Real-world hourly volumes for the three peak windows (5-minute buckets
# summed per movement).
PEAK_BASES = {
    "am_peak": [45, 218, 58, 290, 30, 476, 54, 65],
    "midday_peak": [36, 101, 35, 309, 53, 415, 49, 288],
    "pm_peak": [93, 304, 87, 446, 89, 358, 107, 489],
}


def synthetic_base_list() -> list[ss.BaseDistribution]:
    return [ss.BaseDistribution(np.array(v), label)
            for label, v in SYNTHETIC_BASES.items()]


@pytest.fixture(scope="session")
def synthetic_bases() -> list[ss.BaseDistribution]:
    return synthetic_base_list()


@pytest.fixture(scope="session")
def default_config() -> ss.IntersectionConfig:
    return ss.IntersectionConfig()


def params_equal(a: ss.QNetworkParams, b: ss.QNetworkParams) -> bool:
    """Same dims and bit-for-bit the same weights."""
    return ((a.embed_dim, a.compete_dim) == (b.embed_dim, b.compete_dim)
            and np.array_equal(a.theta, b.theta))


def zero_grads(params: ss.QNetworkParams) -> ss.QNetworkParams:
    """An all-zero gradient with the layout of `params`."""
    return ss.QNetworkParams(params.embed_dim, params.compete_dim)


def obs_row(counts, flags) -> np.ndarray:
    """An (M, 2) observation as `observe` writes it: queue counts and green
    flags per movement."""
    return np.stack([counts, flags], axis=-1).astype(np.float64)


def batch_of(transitions) -> ss.Batch:
    """Stack (x, a, r, x_next) transitions into the arrays `bellman_grads` takes."""
    transitions = list(transitions)

    def column(i, dtype):
        return np.array([t[i] for t in transitions], dtype=dtype)

    return ss.Batch(column(0, np.float64), column(1, np.int64),
                    column(2, np.float64), column(3, np.float64))


def param_distance(a: ss.QNetworkParams, b: ss.QNetworkParams) -> float:
    """Euclidean distance between two parameter sets, over every tensor."""
    return float(np.sqrt(sum(np.sum((getattr(a, name) - getattr(b, name)) ** 2)
                             for name in ss.network.PARAM_FIELDS)))


def episode_rewards(config: ss.IntersectionConfig, flow: ss.FlowSpec, policy,
                    seed: int = 0) -> list[float]:
    """The rewards of `run_episode(config, flow, policy, seed)`, one per
    decision, as `rollout` hands them to `on_step`."""
    if hasattr(policy, "reset"):
        policy.reset(seed)
    rewards = []
    rollout(config, [flow], lambda live, obs: [policy(obs[0])],
            lambda i, transition: rewards.append(transition[2]))
    return rewards


def queued_state(config: ss.IntersectionConfig, queues: dict[int, int]) -> ss.SimState:
    """A consistent state with `queues[m]` vehicles waiting on movement m:
    they arrived at t=0 and are marked as at the stop line, with the
    cursor moved past them."""
    arrivals = sorted((0.0, m) for m, count in queues.items() for _ in range(count))
    state = ss.initial_state(config, ss.FlowSpec(arrivals, n_movements=config.n_movements))
    for _, m in arrivals:
        state.queued[m] += 1
    state.cursor = len(arrivals)
    return state


def make_toy_flow(total: int = 720, heavy_phase: int = 1,
                  seed: int = 11) -> ss.FlowSpec:
    """Scenario with 90% of the volume on one phase's two movements.

    That is 90% of arrivals, not of queues: the heavy queues are often empty.
    """
    config = ss.IntersectionConfig()
    heavy = config.phases[heavy_phase]
    per_heavy = int(round(0.45 * total))
    per_light = (total - 2 * per_heavy) // (config.n_movements - 2)
    volumes = np.full(config.n_movements, per_light)
    for m in heavy:
        volumes[m] = per_heavy
    return ss.sample_arrivals(volumes, config.horizon, seed, label="toy_skewed")


@dataclass
class ToyTraining:
    config: ss.IntersectionConfig
    flow: ss.FlowSpec
    result: ss.TrainResult
    dqn_time: float
    fixed_time: ss.EpisodeResult
    max_pressure: ss.EpisodeResult
    dqn: ss.EpisodeResult


@pytest.fixture(scope="session")
def toy_training(default_config) -> ToyTraining:
    """Full default-hyperparameter DQN run on the toy scenario (~1 min)."""
    flow = make_toy_flow()
    result = ss.train_dqn(default_config, [flow], ss.DqnHyper(seed=0))
    return ToyTraining(
        config=default_config,
        flow=flow,
        result=result,
        dqn_time=result.wall_time_s,
        fixed_time=ss.run_episode(default_config, flow, ss.FixedTimePolicy(default_config)),
        max_pressure=ss.run_episode(default_config, flow, ss.MaxPressurePolicy(default_config)),
        dqn=ss.run_episode(default_config, flow, ss.GreedyPolicy(result.params, default_config)),
    )
