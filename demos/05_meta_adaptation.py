#!/usr/bin/env python3
"""Meta-learning an adaptable initialization and adapting it.

Meta-training alternates individual-level TD adaptation inside each
sampled scenario with a global first-order update of the shared
initialization theta0.  Adapting to a new scenario then costs one episode
of experience and a handful of gradient steps, orders of magnitude less
than training from scratch.

The held-out scenario here is a mild skew; on extreme shift the few-step
adaptation can hurt instead, which is what the gradient-step ablation
below lets you see.
"""

import numpy as np

import signalshift as ss

config = ss.IntersectionConfig(horizon=1200.0, drain=300.0)
rng = np.random.default_rng(1)
train = [ss.sample_arrivals(rng.integers(30, 70, size=8), config.horizon,
                            300 + i, label=f"train{i}") for i in range(6)]

hyper = ss.MetaHyper(meta_iterations=40, task_batch=3, seed=0)
print(f"meta-training on {len(train)} scenarios "
      f"({hyper.meta_iterations} iterations, task batch {hyper.task_batch})...")
meta = ss.train_metalight(config, train, hyper)
print(f"done in {meta.wall_time_s:.1f}s; "
      f"scenario digest {meta.checkpoint.scenario_digest[:12]}...\n")

held = ss.sample_arrivals([30, 30, 80, 80, 30, 30, 30, 30], config.horizon,
                          999, label="held_out")
frozen = ss.run_episode(config, held,
                        ss.GreedyPolicy(meta.checkpoint.theta0, config))
print(f"held-out scenario, frozen theta0: {frozen.avg_travel_time:.1f}s")

adapted = ss.adapt_to_scenario(meta.checkpoint, held, config, seed=0)
run = ss.run_episode(config, held, ss.GreedyPolicy(adapted.params, config))
print(f"after adaptation ({meta.checkpoint.hyper.adapt_data_budget} episode, "
      f"{meta.checkpoint.hyper.adapt_steps} gradient steps, {adapted.wall_time_s:.2f}s): "
      f"{run.avg_travel_time:.1f}s\n")

rows = ss.ablate_steps(meta.checkpoint, [held], [1, 2, 3, 5, 10], config, seed=0)
print("gradient-step ablation on the held-out scenario:")
for row in rows:
    print(f"  k={row.k:2d}  avg travel {row.avg_travel_time_s:7.1f}s")
print("\nmore steps is not monotonically better; the curve is reported as-is")
