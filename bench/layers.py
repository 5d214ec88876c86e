"""Per-layer metrics of a traced run, computed from its spans and counters.

A metric is named `<module>.<function or Class[.method]>.<stat>`; the span
it reads is the name without the stat.  `share` and `self_share` are the
span's summed self time over the traced wall time (the summed wall time of
the traced units).  `calls` and `intersection.vehicles` are per traced
unit: every unit does the same work, so they change only when the work
does, not with the host's speed.  Percentiles are of the span's duration;
`self_*` of its self time.  `ms` is the median duration over every call in
the run, set-ups included.  A metric whose function no longer exists is
absent.
"""

from __future__ import annotations

import statistics

from tracing import percentile, span_stats

LAYER_METRICS = (
    # TD update: moves td_updates_per_s and wall_s on train_dqn, train_meta.
    "network.bellman_grads.calls",
    "network.bellman_grads.us_p50",
    "network.bellman_grads.us_p90",
    "network.bellman_grads.share",
    "network.clip_gradients.us_p50",
    "network.clip_gradients.clip_rate",
    "network.sgd_step.us_p50",
    "dqn.ReplayMemory.sample.us_p50",
    "dqn.ReplayMemory.push.us_p50",
    # Decisions: move decisions_per_s and cell_ms_p50 on evaluate.
    "network.frap_forward.calls",
    "network.frap_forward.us_p50",
    "network.frap_forward.share",
    "intersection.step.calls",
    "intersection.step.us_p50",
    "intersection.step.share",
    "intersection.observe.us_p50",
    "intersection.observe.share",
    "intersection.vehicles",
    "intersection.run_episode.ms_p50",
    "dqn.GreedyPolicy.self_us_p50",
    "dqn.epsilon_greedy.us_p50",
    "harness.evaluate.self_ms_p50",
    # Adaptation: moves cell_ms_p90 and wall_s on evaluate.
    "meta.adapt_to_scenario.ms_p50",
    "meta.adapt_to_scenario.ms_p90",
    "meta.individual_adapt.ms_p50",
    "meta.ablate_steps.self_share",
    # Training loops: move wall_s on train_meta and train_dqn.
    "meta.train_metalight.self_share",
    "meta.train_metalight.ms_per_iteration",
    "meta.global_update.us_p50",
    "dqn.train_dqn.self_share",
    "dqn.train_dqn.ms_per_episode",
    # Set-up (setup_s) and the evaluate workload's input stage (wall_s).
    "config.load_settings.ms",
    "scenarios.make_training_set.ms",
    "scenarios.make_test_scenarios.ms",
    "scenarios.write_scenario_set.ms",
    "scenarios.load_scenario_dir.ms",
    "network.load_params.ms",
    "meta.load_meta_checkpoint.ms",
    "metrics.average_training_distribution.ms",
    "metrics.kl_distance.us_p50",
    "trace.overhead_share",
)

# Metrics read from a tracer counter: metric -> (counter, span that feeds it).
COUNTER_METRICS = {
    "intersection.vehicles": ("intersection.vehicles", "intersection.initial_state"),
}
# Counters divided by the span's call count or into its total time.
PER_CALL = {
    "network.clip_gradients.clip_rate": "network.clip_gradients.clipped",
}
PER_UNIT_OF_WORK = {
    "dqn.train_dqn.ms_per_episode": "dqn.train_dqn.episodes",
    "meta.train_metalight.ms_per_iteration": "meta.train_metalight.iterations",
}


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat in ("calls", "vehicles"):
        return "count"
    if stat.endswith("share") or stat.endswith("rate"):
        return "share"
    return "us" if stat.startswith(("us", "self_us")) else "ms"


def _value(stat: str, entry: dict, traced_ns: int, traced_units: int) -> float:
    dur, own = entry["dur"], entry["self"]
    if stat == "calls":
        return len(dur) / traced_units
    if stat in ("share", "self_share"):
        return sum(own) / traced_ns
    scale, _, which = stat.partition("_")        # e.g. "us", "p50" / "self", "us_p50"
    values = dur
    if scale == "self":
        values = own
        scale, _, which = which.partition("_")
    q = float(which[1:]) / 100
    return percentile(values, q) / (1e3 if scale == "us" else 1e6)


def layer_metrics(tracer, setup_spans: int, untraced, traced):
    """(metrics {name: (value, unit)}, absent names) of a traced run.

    `untraced` and `traced` are the per-unit tuples of `run_units`, taken
    in alternating pairs; spans from index `setup_spans` on belong to the
    traced units."""
    traced_ns = int(sum(u[0] for u in traced) * 1e9)
    timed = span_stats(tracer.spans, setup_spans, len(tracer.spans))
    every = span_stats(tracer.spans, 0, len(tracer.spans))
    empty = {"dur": [], "self": []}
    metrics, absent = {}, []
    for metric in LAYER_METRICS:
        span, stat = metric.rsplit(".", 1)
        unit = unit_of(metric)
        if metric == "trace.overhead_share":
            ratios = [t[0] / u[0] for u, t in zip(untraced, traced)]
            metrics[metric] = (statistics.median(ratios) - 1.0, unit)
            continue
        if metric in COUNTER_METRICS:
            counter, span = COUNTER_METRICS[metric]
            if span not in tracer.wrapped:
                absent.append(metric)
            else:
                metrics[metric] = (tracer.counters[counter] / len(traced), unit)
            continue
        if span not in tracer.wrapped:
            absent.append(metric)
            continue
        entry = timed.get(span, empty)
        if metric in PER_CALL:
            calls = len(entry["dur"])
            value = tracer.counters[PER_CALL[metric]] / calls if calls else 0.0
        elif metric in PER_UNIT_OF_WORK:
            work = tracer.counters[PER_UNIT_OF_WORK[metric]]
            value = sum(entry["dur"]) / work / 1e6 if work else 0.0
        elif stat == "ms":
            durations = every.get(span, empty)["dur"]
            value = statistics.median(durations) / 1e6 if durations else 0.0
        else:
            value = _value(stat, entry, traced_ns, len(traced))
        metrics[metric] = (value, unit)
    return metrics, absent
