"""Property tests (hypothesis) for invariants that refactors must keep."""

import string
from dataclasses import replace

import numpy as np
import pytest

import signalshift as ss
from signalshift.intersection import episode_result, rollout
from signalshift.network import _forward, params_to_text

from reference_kernel import bellman_grads as reference_bellman_grads
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
    assert_close(_forward(params, batch.x, config)[0],
                 reference_forward(params, batch.x, config)[0])
    loss, grads = ss.bellman_grads(params, batch, target, 0.8, config)
    want_loss, want = reference_bellman_grads(params, batch, target, 0.8, config)
    assert_close(loss, want_loss)
    assert_close(grads.theta, want.theta)


@settings(max_examples=100, deadline=None)
@given(perm_seed=st.integers(0, 2 ** 32 - 1), **CASES)
def test_relabeling_phases_permutes_q_and_keeps_the_td_step(config, embed_dim, compete_dim,
                                                           n, seed, perm_seed):
    params, target, batch = random_case(config, embed_dim, compete_dim, n, seed)
    perm = np.random.default_rng(perm_seed).permutation(config.n_phases)
    relabeled = replace(config, phases=tuple(config.phases[p] for p in perm))
    # new phase i is old phase perm[i]
    q = _forward(params, batch.x, config)[0]
    assert_close(_forward(params, batch.x, relabeled)[0], q[:, perm])
    loss, grads = ss.bellman_grads(params, batch, target, 0.8, config)
    relabeled_batch = batch._replace(a=np.argsort(perm)[batch.a])
    loss_p, grads_p = ss.bellman_grads(params, relabeled_batch, target, 0.8, relabeled)
    assert_close(loss_p, loss)
    assert_close(grads_p.theta, grads.theta)


@settings(max_examples=150, deadline=None)
@given(config=phase_configs(), embed_dim=st.integers(1, 16), compete_dim=st.integers(1, 16),
       n_sets=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_forward_equals_each_network_bit_for_bit(config, embed_dim, compete_dim,
                                                         n_sets, seed):
    # T networks at B=1, the shape lockstep episodes act with
    cases = [random_case(config, embed_dim, compete_dim, 1, seed + t) for t in range(n_sets)]
    stack = ss.QNetworkParams(embed_dim, compete_dim,
                              np.stack([params.theta for params, _, _ in cases]))
    x = np.stack([batch.x for _, _, batch in cases])                  # (T, 1, M, 2)
    q = _forward(stack, x, config)[0]
    assert q.shape == (n_sets, 1, config.n_phases)
    for t, (params, _, batch) in enumerate(cases):
        assert np.array_equal(q[t], _forward(params, batch.x, config)[0])


# ---------------------------------------------------------------------------
# The observation row and the max-pressure rule, read against the state

def max_pressure_reference(state, config) -> int:
    """The documented rule on the state itself: the largest total queue wins;
    a tie keeps the current phase if it is among the best, otherwise the
    lowest phase index wins."""
    queues = [n - len(served) for n, served in zip(state.arrived, state.exits)]
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
        passed = [m for _, m in state.flow[:state.cursor]]
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
        results[i] = episode_result(state, rewards[i])

    rollout(config, flows, lambda live, obs: [policies[i](x) for i, x in zip(live, obs)],
            lambda i, transition: rewards[i].append(transition[2]), score, validate=True)
    for i, (flow, kind, result) in enumerate(zip(flows, kinds, results)):
        assert result.completed_count + result.residual_count == len(flow.arrivals)
        lone = ss.run_episode(config, flow, make_policy(kind, config, i), validate=True)
        assert result == lone


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
@given(flow=flows())
def test_flow_csv_write_then_read_is_identity(tmp_path_factory, flow):
    path = tmp_path_factory.mktemp("flow") / f"{flow.label}.csv"
    ss.write_flow_csv(flow, path)
    assert ss.read_flow_csv(path) == flow


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
