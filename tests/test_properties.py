"""Property tests (hypothesis) for invariants that refactors must keep."""

import string
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import signalshift as ss
from signalshift.intersection import episode_result, rollout
from signalshift.network import (
    _decide_one,
    _forward_bound,
    bind,
    clip_gradients,
    greedy_phase,
    greedy_phases,
    params_to_text,
)

import reference_kernel
import reference_sim
from conftest import episode_rewards
from reference_kernel import bellman_grads as reference_bellman_grads
from reference_kernel import forward
from reference_kernel import forward_batch as reference_forward

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

# every finite float64, with subnormals and values near the range ends drawn often
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2e-308, -0.0, 1e300, -1e300, 1.7976931348623157e308])


@st.composite
def any_params(draw) -> ss.QNetworkParams:
    embed_dim, compete_dim = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    size = ss.QNetworkParams(embed_dim, compete_dim).theta.size
    return ss.QNetworkParams(embed_dim, compete_dim,
                             draw(arrays(np.float64, size, elements=FINITE)))


@settings(max_examples=100, deadline=None)
@given(params=any_params())
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("ckpt") / "params.txt"
    ss.save_params(params, path)
    loaded = ss.load_params(path)
    assert (loaded.embed_dim, loaded.compete_dim) == (params.embed_dim, params.compete_dim)
    assert np.array_equal(loaded.theta.view(np.uint64), params.theta.view(np.uint64))
    assert params_to_text(loaded) == path.read_text()


# ---------------------------------------------------------------------------
# The array kernel of the Q-network against the per-pair reference

# float sums run in another order than the reference's, so values agree to
# a few units in the last place of the array's largest magnitude
REL = 1e-12


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want), initial=0.0))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= REL * scale


@st.composite
def phase_configs(draw) -> ss.IntersectionConfig:
    """1..6 distinct phases over 1..10 movements, of unequal sizes and
    sharing movements; every movement is in at least one phase."""
    n_mov = draw(st.integers(1, 10))
    n_phases = draw(st.integers(1, min(6, 2 ** n_mov - 1)))
    phases = [set() for _ in range(n_phases)]
    for m in range(n_mov):
        phases[draw(st.integers(0, n_phases - 1))].add(m)
    for p, m in draw(st.lists(st.tuples(st.integers(0, n_phases - 1),
                                        st.integers(0, n_mov - 1)), max_size=12)):
        phases[p].add(m)
    for members in phases:
        if not members:
            members.add(draw(st.integers(0, n_mov - 1)))
    phases = tuple(tuple(sorted(members)) for members in phases)
    assume(len(set(phases)) == n_phases)
    return ss.IntersectionConfig(n_movements=n_mov, phases=phases)


def random_case(config, embed_dim, compete_dim, n, seed):
    """Weights with biases moved off zero, a target network and a batch."""
    rng = np.random.default_rng(seed)
    params, target = (ss.init_params((embed_dim, compete_dim), seed=s)
                      for s in rng.integers(0, 2 ** 31, size=2))
    params.b_e += rng.uniform(0.05, 0.2, embed_dim)
    params.b_c += rng.uniform(0.05, 0.2, compete_dim)
    m = config.n_movements

    def observations():
        return np.stack([rng.integers(0, 40, (n, m)), rng.integers(0, 2, (n, m))],
                        axis=-1).astype(np.float64)

    batch = ss.Batch(observations(), rng.integers(0, config.n_phases, n),
                     -rng.integers(0, 40, n).astype(np.float64), observations())
    return params, target, batch


CASES = dict(config=phase_configs(), embed_dim=st.integers(1, 16),
             compete_dim=st.integers(1, 16), n=st.integers(1, 64),
             seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(**CASES)
def test_array_kernel_matches_the_per_pair_reference(config, embed_dim, compete_dim, n, seed):
    params, target, batch = random_case(config, embed_dim, compete_dim, n, seed)
    assert_close(forward(params, batch.x, config)[0],
                 reference_forward(params, batch.x, config)[0])
    loss, grads = ss.bellman_grads(bind(params, config), batch, bind(target, config), 0.8)
    want_loss, want = reference_bellman_grads(params, batch, target, 0.8, config)
    assert_close(loss, want_loss)
    assert_close(grads.theta, want.theta)


@settings(max_examples=150, deadline=None)
@given(target_case=st.sampled_from(["shared binding", "own binding", "other network"]),
       max_norm=st.sampled_from([0.0, 1e-3, 1.0, 1e9]), **CASES)
def test_td_step_equals_the_per_call_binding_td_step_bit_for_bit(
        config, embed_dim, compete_dim, n, seed, target_case, max_norm):
    # the TD step with the learner's own binding as its target, the same
    # weights bound apart, or another network, against the TD step that
    # bound both per call and took the pair gradient through a one-hot dL/dQ
    params, target, batch = random_case(config, embed_dim, compete_dim, n, seed)
    if target_case != "other network":
        target = params
    learner = bind(params, config)
    target_arg = learner if target_case == "shared binding" else bind(target, config)
    loss, grads = ss.bellman_grads(learner, batch, target_arg, 0.8)
    want_loss, want = reference_kernel.td_bellman_grads(params, batch, target, 0.8, config)
    assert np.float64(loss).view(np.uint64) == np.float64(want_loss).view(np.uint64)
    assert np.array_equal(grads.theta, want.theta)
    lr = 1e-3
    got = ss.sgd_step(params, clip_gradients(grads, max_norm), lr)
    want = reference_kernel.sgd_step(params, reference_kernel.clip_gradients(want, max_norm),
                                     lr)
    assert np.array_equal(got.theta.view(np.uint64), want.theta.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(perm_seed=st.integers(0, 2 ** 32 - 1), **CASES)
def test_relabeling_phases_permutes_q_and_keeps_the_td_step(config, embed_dim, compete_dim,
                                                           n, seed, perm_seed):
    params, target, batch = random_case(config, embed_dim, compete_dim, n, seed)
    perm = np.random.default_rng(perm_seed).permutation(config.n_phases)
    relabeled = replace(config, phases=tuple(config.phases[p] for p in perm))
    # new phase i is old phase perm[i]
    q = forward(params, batch.x, config)[0]
    assert_close(forward(params, batch.x, relabeled)[0], q[:, perm])
    loss, grads = ss.bellman_grads(bind(params, config), batch, bind(target, config), 0.8)
    relabeled_batch = batch._replace(a=np.argsort(perm)[batch.a])
    loss_p, grads_p = ss.bellman_grads(bind(params, relabeled), relabeled_batch,
                                       bind(target, relabeled), 0.8)
    assert_close(loss_p, loss)
    assert_close(grads_p.theta, grads.theta)


@settings(max_examples=150, deadline=None)
@given(config=phase_configs(), embed_dim=st.integers(1, 16), compete_dim=st.integers(1, 16),
       n_sets=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_forward_equals_each_network_bit_for_bit(config, embed_dim, compete_dim,
                                                         n_sets, seed):
    # T networks at B=1, the shape lockstep episodes act with; their greedy
    # phases are each row's own network's
    cases = [random_case(config, embed_dim, compete_dim, 1, seed + t) for t in range(n_sets)]
    stack = ss.QNetworkParams(embed_dim, compete_dim,
                              np.stack([params.theta for params, _, _ in cases]))
    x = np.stack([batch.x for _, _, batch in cases])                  # (T, 1, M, 2)
    q = forward(stack, x, config)[0]
    assert q.shape == (n_sets, 1, config.n_phases)
    for t, (params, _, batch) in enumerate(cases):
        assert np.array_equal(q[t], forward(params, batch.x, config)[0])
    want = [greedy_phase(bind(params, config), batch.x[0]) for params, _, batch in cases]
    assert greedy_phases(bind(stack, config), x[:, 0]) == want


@settings(max_examples=150, deadline=None)
@given(config=phase_configs(), embed_dim=st.integers(1, 16), compete_dim=st.integers(1, 16),
       n_sets=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_bound_forward_equals_forward_bit_for_bit(config, embed_dim, compete_dim, n_sets,
                                                  seed):
    # bound once, then used for every decision: one network at B=1, each
    # forward twice, so a forward that wrote to its bound operands would
    # show in the second.  (A stack's decisions run the batch forward
    # itself; the stacked property above pins its rows.)
    cases = [random_case(config, embed_dim, compete_dim, 1, seed + t) for t in range(n_sets)]
    for params, _, batch in cases:
        q = forward(params, batch.x, config)[0][0]
        network = bind(params, config)
        for _ in range(2):
            assert np.array_equal(ss.frap_forward(network, batch.x[0]), q)
        assert ss.GreedyPolicy(params, config)(batch.x[0]) == \
            int(ss.frap_forward(network, batch.x[0]).argmax())


def random_observation(rng, config):
    m = config.n_movements
    return np.stack([rng.integers(0, 40, m), rng.integers(0, 2, m)], axis=-1).astype(np.float64)


@settings(max_examples=200, deadline=None)
@example(config=ss.IntersectionConfig(), embed_dim=16, compete_dim=16, scale=0.0, seed=0)
@given(config=phase_configs(), embed_dim=st.integers(1, 16), compete_dim=st.integers(1, 16),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_decision_forward_equals_the_batch_forward_at_b1_bit_for_bit(
        config, embed_dim, compete_dim, scale, seed):
    # one network's gathering forward, the one `greedy_phase` runs, with
    # random weights and biases; at scale 0 they are signed zeros, where a
    # gather and a 0/1 product could round the sign of a zero apart
    rng = np.random.default_rng(seed)
    size = ss.QNetworkParams(embed_dim, compete_dim).theta.size
    network = bind(ss.QNetworkParams(embed_dim, compete_dim,
                                     scale * rng.standard_normal(size)), config)
    x = random_observation(rng, config)
    want = _forward_bound(network, x[None])[0]
    q = _decide_one(network, x)
    assert q.shape == (config.n_phases,)
    assert np.array_equal(q.view(np.uint64), want[0].view(np.uint64))


@settings(max_examples=200, deadline=None)
@example(config=ss.IntersectionConfig(), embed_dim=16, compete_dim=16, scale=0.0, tie=False,
         seed=0)
@given(config=phase_configs(), embed_dim=st.integers(1, 16), compete_dim=st.integers(1, 16),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0]), tie=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_greedy_phase_is_the_argmax_of_the_checked_forward(config, embed_dim, compete_dim,
                                                           scale, tie, seed):
    rng = np.random.default_rng(seed)
    size = ss.QNetworkParams(embed_dim, compete_dim).theta.size
    params = ss.QNetworkParams(embed_dim, compete_dim, scale * rng.standard_normal(size))
    if tie:
        # no competition unit fires and b_r is 0: every pair scores exactly
        # 0, so every Q-value is 0.  (Equal nonzero pair scores are no exact
        # tie: the phases sum them in different orders.)
        params.W_c[...] = 0.0
        params.b_c[...] = -np.abs(params.b_c)
        params.b_r[...] = 0.0
    obs = random_observation(rng, config)
    network = bind(params, config)
    phase = greedy_phase(network, obs)
    assert phase == int(ss.frap_forward(network, obs).argmax())
    if tie or scale == 0.0:
        assert phase == 0


@settings(max_examples=60, deadline=None)
@given(config=phase_configs(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_greedy_decisions_check_the_q_values_and_the_observation(config, bad, seed):
    # one phase has no rival: its Q-value is an empty sum, 0 whatever b_r is
    assume(config.n_phases >= 2)
    rng = np.random.default_rng(seed)
    params = ss.init_params((4, 3), seed=seed)
    obs = random_observation(rng, config)
    m = config.n_movements
    for wrong in (obs[:, :1], np.zeros((m + 1, 2)), obs[None]):
        with pytest.raises(ValueError):
            ss.GreedyPolicy(params, config)(wrong)
        with pytest.raises(ValueError):
            ss.epsilon_greedy(bind(params, config), wrong, 0.0, None)
    params.b_r[...] = bad
    # the forward's own inf * 0 would warn, and warnings are errors here
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError):
            ss.epsilon_greedy(bind(params, config), obs, 0.0, None)
        with pytest.raises(FloatingPointError):
            ss.GreedyPolicy(params, config)(obs)


# ---------------------------------------------------------------------------
# The observation row and the max-pressure rule, read against the state

def max_pressure_reference(state, config) -> int:
    """The documented rule on the state itself: the largest total queue wins;
    a tie keeps the current phase if it is among the best, otherwise the
    lowest phase index wins."""
    passed = [m for _, m in state.scenario.arrivals[:state.cursor]]
    queues = [passed.count(m) - len(state.exits[m]) for m in range(config.n_movements)]
    pressures = [sum(queues[m] for m in phase) for phase in config.phases]
    best = [p for p, v in enumerate(pressures) if v == max(pressures)]
    return state.current_phase if state.current_phase in best else best[0]


@settings(max_examples=100, deadline=None)
@example(config=ss.IntersectionConfig(n_movements=2, phases=((0,), (0, 1))), seed=0)
@example(config=ss.IntersectionConfig(n_movements=3, phases=((0, 1, 2), (1,), (0, 1))),
         seed=1)
@given(config=phase_configs(), seed=st.integers(0, 2 ** 32 - 1))
def test_observe_and_max_pressure_read_the_state(config, seed):
    # random demand and random decisions, through yellow and green, with
    # phases that may nest in one another (one green set inside another)
    rng = np.random.default_rng(seed)
    config = replace(config, horizon=200.0, drain=100.0)
    n_mov = config.n_movements
    flow = ss.sample_arrivals(rng.integers(0, 60, n_mov), config.horizon, rng)
    state = ss.initial_state(config, flow)
    policy = ss.MaxPressurePolicy(config)
    for action in rng.integers(0, config.n_phases, size=30):
        obs = ss.observe(state, config)
        assert obs.shape == (n_mov, 2) and obs.dtype == np.float64
        # a movement's queue: its vehicles the cursor has passed, less the served
        passed = [m for _, m in state.scenario.arrivals[:state.cursor]]
        assert obs[:, 0].tolist() == [passed.count(m) - len(state.exits[m])
                                      for m in range(n_mov)]
        green = config.phases[state.current_phase]
        assert obs[:, 1].tolist() == [float(m in green) for m in range(n_mov)]
        assert policy(obs) == max_pressure_reference(state, config)
        state, _ = ss.step(state, int(action), config, validate=True)


# ---------------------------------------------------------------------------
# The lockstep episode loop

POLICIES = st.sampled_from(["random", "max_pressure", "fixed_time", "phase_0"])


def make_policy(kind, config, seed):
    if kind == "random":
        return ss.RandomPolicy(config, seed=seed)
    if kind == "max_pressure":
        return ss.MaxPressurePolicy(config)
    if kind == "fixed_time":
        return ss.FixedTimePolicy(config)
    return lambda obs: 0


@settings(max_examples=60, deadline=None)
@given(config=phase_configs(), kinds=st.lists(POLICIES, min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lockstep_episodes_conserve_vehicles_and_equal_lone_episodes(config, kinds, seed):
    rng = np.random.default_rng(seed)
    config = replace(config, horizon=200.0, drain=100.0)
    flows = [ss.sample_arrivals(rng.integers(0, 60, config.n_movements), config.horizon, rng)
             for _ in kinds]
    policies = [make_policy(kind, config, i) for i, kind in enumerate(kinds)]
    for policy in policies:
        if hasattr(policy, "reset"):
            policy.reset(0)
    rewards = [[] for _ in flows]
    results = [None] * len(flows)

    def score(i, state):
        results[i] = episode_result(state)

    rollout(config, flows, lambda live, obs: [policies[i](x) for i, x in zip(live, obs)],
            lambda i, transition: rewards[i].append(transition[2]), score, validate=True)
    for i, (flow, kind, result) in enumerate(zip(flows, kinds, results)):
        assert result.completed_count + result.residual_count == len(flow.arrivals)
        lone = ss.run_episode(config, flow, make_policy(kind, config, i), validate=True)
        assert result == lone
        assert rewards[i] == episode_rewards(config, flow, make_policy(kind, config, i))


# ---------------------------------------------------------------------------
# The simulator against its earlier form (tests/reference_sim.py)

# ticks that are and are not binary fractions, with rates and times that
# are not, so clocks and credits accumulate rounding as they do at 0.1 s
TICKS = st.sampled_from([0.1, 0.25, 0.5, 1.0])
NON_DYADIC = st.sampled_from([0.3, 0.7, 1.1, 2.9, 13.7, 1 / 3]) | st.floats(0.05, 30.0)


@st.composite
def sim_configs(draw) -> ss.IntersectionConfig:
    tick = draw(TICKS)
    decision_interval = tick * draw(st.integers(4, 60))
    return replace(draw(phase_configs()), tick=tick, decision_interval=decision_interval,
                   saturation_rate=draw(NON_DYADIC.filter(lambda r: r <= 5.0)),
                   approach_time=draw(NON_DYADIC),
                   lost_time=decision_interval * draw(st.floats(0.01, 0.95)),
                   horizon=draw(st.sampled_from([60.0, 150.0, 300.0])),
                   drain=draw(st.sampled_from([30.0, 100.0])))


def sim_state(state):
    return (state.clock, state.current_phase, state.in_yellow, state.cursor,
            state.queued, state.exits, state.credits)


@settings(max_examples=80, deadline=None)
@example(config=ss.IntersectionConfig(horizon=60.0, drain=30.0), grid=1.0, seed=0)
@given(config=sim_configs(), grid=st.sampled_from([None, 1.0, 0.5, 0.1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_step_and_episode_result_equal_the_reference(config, grid, seed):
    # arrival times on a grid tie within and across movements, so the
    # (arrival, movement) order of the score is exercised
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40 * config.n_movements))
    times = rng.uniform(0.0, config.horizon, n)
    if grid is not None:
        times = np.floor(times / grid) * grid
    arrivals = sorted(zip(times.tolist(), rng.integers(0, config.n_movements, n).tolist()),
                      key=lambda a: a[0])
    flow = ss.FlowSpec(arrivals, horizon=config.horizon, n_movements=config.n_movements)
    state, ref = ss.initial_state(config, flow), ss.initial_state(config, flow)
    end = config.horizon + config.drain
    while state.clock < config.horizon or (
            state.clock < end and not reference_sim.is_empty(state)):
        action = int(rng.integers(0, config.n_phases))
        state, reward = ss.step(state, action, config, validate=True)
        ref, ref_reward = reference_sim.step(ref, action, config, validate=True)
        assert sim_state(state) == sim_state(ref)
        assert reward == ref_reward
    result = episode_result(state)
    want = reference_sim.episode_result(ref)
    assert result.avg_travel_time == want.avg_travel_time
    assert (result.completed_count, result.residual_count) == \
        (want.completed_count, want.residual_count)
    assert result.per_vehicle == want.per_vehicle


@settings(max_examples=80, deadline=None)
@given(config=sim_configs(), seed=st.integers(0, 2 ** 32 - 1))
def test_queue_counters_equal_the_queues_recounted_after_every_step(config, seed):
    rng = np.random.default_rng(seed)
    flow = ss.sample_arrivals(rng.integers(0, 40, config.n_movements), config.horizon, rng)
    state = ss.initial_state(config, flow)
    end = config.horizon + config.drain
    while state.clock < config.horizon or (
            state.clock < end and not reference_sim.is_empty(state)):
        state, reward = ss.step(state, int(rng.integers(config.n_phases)), config)
        # a movement's queue: its vehicles the cursor has passed, less the served
        passed = [m for _, m in state.scenario.arrivals[:state.cursor]]
        queues = [passed.count(m) - len(state.exits[m]) for m in range(config.n_movements)]
        assert state.queued == queues
        assert reward == -sum(queues)


# ---------------------------------------------------------------------------
# Flow files and the KL distance

# the characters scenario generators leave in labels (scenarios._slug)
LABELS = st.text(string.ascii_letters + string.digits + "_-", min_size=1, max_size=30)


@st.composite
def flows(draw) -> ss.FlowSpec:
    n_mov = draw(st.integers(1, 12))
    horizon = draw(st.floats(1e-6, 1e7))
    times = sorted(draw(st.lists(st.floats(0.0, horizon, exclude_max=True), max_size=60)))
    movements = draw(st.lists(st.integers(0, n_mov - 1), min_size=len(times),
                              max_size=len(times)))
    provenance = draw(st.none() | st.builds(
        ss.Provenance, LABELS, st.floats(-0.5, 0.5), st.floats(0.0, 0.5),
        st.integers(0, 2 ** 63 - 1)))
    return ss.FlowSpec(list(zip(times, movements)), horizon=horizon, n_movements=n_mov,
                       label=draw(LABELS), provenance=provenance)


@settings(max_examples=150, deadline=None)
@example(flow=ss.FlowSpec([], n_movements=3))
@example(flow=ss.FlowSpec([(0.0, 2), (1.0, 2)], n_movements=5))
@given(flow=flows())
def test_movement_counts_equal_a_counting_loop(flow):
    counts = [0] * flow.n_movements
    for _, m in flow.arrivals:
        counts[m] += 1
    got = flow.movement_counts()
    assert got.dtype == np.int64 and got.tolist() == counts


@settings(max_examples=150, deadline=None)
@given(flow=flows())
def test_flow_csv_write_then_read_is_identity(tmp_path_factory, flow):
    path = tmp_path_factory.mktemp("flow") / f"{flow.label}.csv"
    ss.write_flow_csv(flow, path)
    assert ss.read_flow_csv(path) == flow


# labels a user may give: some begin like a CSV header's first field, and
# some hold what a file cannot hold as it is
FILE_LABELS = st.builds(
    str.__add__,
    st.sampled_from(["", "label", "Label", "LABEL_", "arrival_s", "Arrival_s",
                     "timestamp_iso8601"]),
    st.text("ab1_- ,#=\t\n\r\x85\u2028\u00e9", max_size=8))


@settings(max_examples=200, deadline=None)
@example(label="Labelled_peak", volumes=[1, 2], flow=ss.FlowSpec([(1.0, 0)]))
@example(label="east,peak", volumes=[1, 2], flow=ss.FlowSpec([(1.0, 0)]))
@given(label=FILE_LABELS, flow=flows(),
       volumes=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8).filter(any))
def test_bases_and_flow_files_give_back_their_labels_or_refuse_them(tmp_path_factory, label,
                                                                     volumes, flow):
    directory = tmp_path_factory.mktemp("labels")
    bases = [ss.BaseDistribution(np.array(volumes), "first"),
             ss.BaseDistribution(np.array(volumes), label)]
    flow = replace(flow, label=label, provenance=flow.provenance and replace(
        flow.provenance, base_label=label))

    def round_trips() -> bool:
        ss.write_bases_csv(bases, directory / "bases.csv")
        ss.write_flow_csv(flow, directory / "flow.csv")
        back = ss.read_bases_csv(directory / "bases.csv")
        return ([(b.label, b.volumes.tolist()) for b in back]
                == [(b.label, b.volumes.tolist()) for b in bases]
                and ss.read_flow_csv(directory / "flow.csv") == flow)

    try:
        assert round_trips()
    except ValueError as exc:
        assert f"label {label!r} cannot go into a file" in str(exc)
        # a refusal is owed: written unchecked, the label does not come back
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ss.scenarios, "_label_field", lambda text: text)
            try:
                assert not round_trips()
            except ValueError:
                pass


def tuple_arrivals(volumes, horizon, rng) -> list[tuple[float, int]]:
    """`sample_arrivals` as it was built from tuples: each movement's times
    drawn in turn, then sorted by (time, movement)."""
    arrivals = []
    for m, v in enumerate(volumes):
        arrivals.extend((float(t), m) for t in rng.uniform(0.0, horizon, size=v))
    arrivals.sort(key=lambda a: (a[0], a[1]))
    return arrivals


# a subnormal horizon puts the times on a grid of a few hundred values, so
# equal times on different movements are common; the draws then also reach
# the horizon itself at times, which the flow must reject
HORIZONS = st.sampled_from([1e-321, 300.0, 3600.0]) | st.floats(1e-3, 1e7)


@settings(max_examples=150, deadline=None)
@example(volumes=[0] * 8, horizon=3600.0, seed=0)
@given(volumes=st.lists(st.integers(0, 60) | st.just(0), min_size=1, max_size=12),
       horizon=HORIZONS, seed=st.integers(0, 2 ** 64 - 1))
def test_sample_arrivals_and_flow_files_equal_the_tuple_construction(
        tmp_path_factory, volumes, horizon, seed):
    want = tuple_arrivals(volumes, horizon, np.random.default_rng(seed))
    if any(t >= horizon for t, _ in want):
        with pytest.raises(ValueError, match="outside"):
            ss.sample_arrivals(volumes, horizon, np.random.default_rng(seed))
        return
    flow = ss.sample_arrivals(volumes, horizon, np.random.default_rng(seed))
    assert repr(flow.arrivals.tolist()) == repr(want)
    path = tmp_path_factory.mktemp("flow") / "flow.csv"
    ss.write_flow_csv(flow, path)
    back = ss.read_flow_csv(path)
    assert back == flow and back.arrivals.tobytes() == flow.arrivals.tobytes()


def count_vectors(n_mov):
    return st.lists(st.integers(0, 10 ** 6), min_size=n_mov, max_size=n_mov).filter(any)


EPSILONS = st.sampled_from([ss.metrics.DEFAULT_KL_EPSILON, 0.0, 1e-12, 0.1])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_mov=st.integers(1, 12), epsilon=EPSILONS)
def test_kl_is_non_negative(data, n_mov, epsilon):
    p, q = (ss.movement_distribution(data.draw(count_vectors(n_mov))) for _ in range(2))
    assert ss.kl_distance(p, q, epsilon) >= 0.0


@settings(max_examples=300, deadline=None)
@given(counts=st.integers(1, 12).flatmap(count_vectors), scale=st.integers(1, 1000),
       epsilon=EPSILONS)
def test_kl_is_zero_on_equal_counts_and_scaled_copies(counts, scale, epsilon):
    p = ss.movement_distribution(counts)
    assert ss.kl_distance(p, p, epsilon) == 0.0
    scaled = ss.movement_distribution([scale * c for c in counts])
    assert ss.kl_distance(p, scaled, epsilon) == 0.0
    assert ss.kl_distance(scaled, p, epsilon) == 0.0


# ---------------------------------------------------------------------------
# Fixed-time cycle

@settings(max_examples=100, deadline=None)
@given(interval=st.floats(0.05, 120.0) | st.integers(1, 1200).map(lambda k: k / 10),
       n_phases=st.integers(1, 8))
@example(interval=1.1, n_phases=2)
def test_fixed_time_equal_splits_visit_decisions_mod_phases(interval, n_phases):
    config = ss.IntersectionConfig(n_movements=n_phases,
                                   phases=tuple((p,) for p in range(n_phases)),
                                   decision_interval=interval, tick=interval,
                                   lost_time=interval / 2)
    policy = ss.FixedTimePolicy(config)
    assert [policy(None) for _ in range(3000)] == [d % n_phases for d in range(3000)]


# ---------------------------------------------------------------------------
# The repository's pytest settings still let a failing property report itself

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 10\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output
