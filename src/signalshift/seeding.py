"""Deterministic RNG streams derived from a single 64-bit seed.

Every random draw in the package goes through a PCG64 generator obtained
from `spawn_rng(seed, *path)`.  The path is a tuple of small integers that
names the consumer (scenario index, pipeline stage, ...), so two streams
with different paths are independent and adding a new consumer never
reshuffles the draws of an existing one.  This module names every path
component; the streams, as root seed: path, and their consumers:

  seed: ()                               `init_params`; `as_rng` of an int
  seed: (NS_TRAIN_SET, base, scale, stage)   a training scenario
  seed: (NS_TEST_VARIABILITY or NS_TEST_VOLUME, j, stage)   test scenario j
  hyper.seed: (NS_DQN,)                  `train_dqn`: epsilon, replay
  hyper.seed: (NS_META,)                 `train_metalight`: tasks, epsilon, replay
  hyper.seed: (NS_META, META_ADAPT, seed)    adapting a meta checkpoint
  seed: (NS_RL_ADAPT, crc32(label))      the report's rl_adapt adaptation
  seed: (NS_RANDOM_POLICY, episode)      `RandomPolicy`
"""

from __future__ import annotations

import numpy as np

# Stream namespaces used as the first path component.
NS_TRAIN_SET = 0
NS_TEST_VARIABILITY = 1
NS_TEST_VOLUME = 2
NS_DQN = 10
NS_META = 11
NS_RL_ADAPT = 51
NS_RANDOM_POLICY = 99

# Stage ids used as the last path component of scenario streams.
STAGE_PERTURB = 0
STAGE_ARRIVALS = 1
# The second path component of adaptation streams under NS_META.
META_ADAPT = 50


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a fresh Generator for stream `path` under the root `seed`."""
    if int(seed) < 0:
        raise ValueError(f"seed {seed} is negative; a seed is a non-negative integer")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def as_rng(seed) -> np.random.Generator:
    """`seed` itself if it is a Generator, else the root stream of the int."""
    if isinstance(seed, np.random.Generator):
        return seed
    return spawn_rng(int(seed))
