import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import signalshift as ss
import signalshift.scenarios as scenarios_module
from signalshift.dqn import TDLearner
from signalshift.meta import (
    AblationRow,
    MetaLogRow,
    _collect_experience,
    adapt_params,
    scenario_digest,
)
from signalshift.network import params_to_text
from signalshift.scenarios import write_rows
from signalshift.seeding import spawn_rng

from conftest import episode_rewards, make_toy_flow, param_distance, params_equal, zero_grads
from reference_kernel import ablate_steps as reference_ablate_steps
from reference_kernel import collect_experience as reference_collect_experience
from reference_kernel import individual_adapt as reference_individual_adapt
from reference_kernel import train_metalight as reference_train_metalight


def small_config():
    return ss.IntersectionConfig(horizon=300.0, drain=120.0)


def small_scenarios(n=3):
    return [ss.sample_arrivals([8, 30, 4, 6, 8, 30, 4, 6], 300.0, seed)
            for seed in range(n)]


def fill(memory, rng, cfg, params, episodes=2):
    """`memory` with the experience of acting epsilon-greedily from `params`,
    drawing from `rng`."""
    network = ss.bind(params, cfg)
    for i, flow in enumerate(small_scenarios(episodes)):
        state = ss.initial_state(cfg, flow)
        obs = ss.observe(state, cfg)
        while state.clock < cfg.horizon:
            a = ss.epsilon_greedy(network, obs, 0.3, rng)
            state, r = ss.step(state, a, cfg)
            obs2 = ss.observe(state, cfg)
            memory.push((obs, a, r, obs2))
            obs = obs2
    return memory


def filled_memory(cfg, params, seed=0):
    """A memory filled by `fill`; it samples from the generator of the
    epsilon draws, as a TD learner's does."""
    rng = spawn_rng(seed, 1234)
    return fill(ss.ReplayMemory(5000, seed=rng), rng, cfg, params)


def filled_learner(cfg, params, hyper, seed=0):
    """A learner from `params` whose memory holds what `filled_memory`'s
    does, with the same generator state: its batches are the same."""
    learner = TDLearner(params, cfg, hyper, hyper.alpha, spawn_rng(seed, 1234))
    fill(learner.memory, learner.rng, cfg, params)
    return learner


# ---------------------------------------------------------------------------
# global update

def test_first_order_reduction_matches_two_plain_steps():
    # one meta-iteration at task_batch 1 and k=1 is exactly: an alpha step
    # on the adaptation batch, then a beta step (taken from theta0) with the
    # gradient evaluated at the adapted parameters; here on the scalar loss
    # (b_r - 2)^2, whose gradient is 2 (b_r - 2) in b_r and 0 elsewhere
    alpha, beta = 0.25, 0.1
    theta0 = ss.init_params((2, 2), seed=0)

    def grad_at(params):
        grads = zero_grads(params)
        grads.b_r[...] = 2.0 * (float(params.b_r) - 2.0)
        return grads

    adapted = ss.sgd_step(theta0, grad_at(theta0), alpha)
    assert float(adapted.b_r) == 1.0
    assert float(theta0.b_r) == 0.0  # input untouched
    task_grad = grad_at(adapted)
    theta1 = ss.global_update(theta0, [task_grad], beta)
    # hand arithmetic: grad at adapted = 2*(1-2) = -2, so theta0 moves to 0.2
    assert float(theta1.b_r) == pytest.approx(0.2, abs=1e-12)
    plain = ss.sgd_step(theta0, task_grad, beta)
    assert params_equal(theta1, plain)


def test_global_update_probes():
    theta0 = ss.init_params((2, 2), seed=1)
    g1, g3 = zero_grads(theta0), zero_grads(theta0)
    g1.b_r[...], g3.b_r[...] = 1.0, 3.0
    assert float(ss.global_update(theta0, [g1, g3], 0.1).b_r) == pytest.approx(-0.4)
    assert params_equal(ss.global_update(theta0, [g1, g3], 0.0), theta0)
    assert params_equal(ss.global_update(theta0, [g1], 0.2),
                        ss.sgd_step(theta0, g1, 0.2))
    with pytest.raises(ValueError):
        ss.global_update(theta0, [], 0.1)


# ---------------------------------------------------------------------------
# individual_adapt

def test_individual_adapt_zero_alpha_is_identity():
    cfg = small_config()
    params = ss.init_params((8, 8), seed=2)
    adapted = ss.individual_adapt(filled_learner(cfg, params, ss.MetaHyper(alpha=0.0)), 3)
    assert params_equal(adapted, params)


def test_individual_adapt_requires_warm_memory():
    cfg = small_config()
    params = ss.init_params((8, 8), seed=2)
    learner = TDLearner(params, cfg, ss.MetaHyper(alpha=1e-3), 1e-3, spawn_rng(0))
    with pytest.raises(ValueError):
        ss.individual_adapt(learner, 1)


def test_individual_adapt_needs_a_step():
    cfg = small_config()
    params = ss.init_params((8, 8), seed=2)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        ss.individual_adapt(filled_learner(cfg, params, ss.MetaHyper()), 0)


def test_individual_adapt_fixed_point():
    # constant network whose Q equals its own bootstrap target everywhere
    from test_network import constant_net, hand_case_batch
    cfg = ss.IntersectionConfig()
    params = constant_net(1.0 / 3.0)
    learner = TDLearner(params, cfg, ss.MetaHyper(alpha=1e-3, gamma=0.9, capacity=64), 1e-3,
                        spawn_rng(3))
    for t in hand_case_batch(cfg, 0.1) * 40:
        learner.memory.push(t)
    adapted = ss.individual_adapt(learner, 3)
    assert params_equal(adapted, params)


def test_individual_adapt_equals_the_reference_steps():
    cfg = small_config()
    params = ss.init_params((8, 8), seed=4)
    hyper = ss.MetaHyper(alpha=1e-2)
    got = ss.individual_adapt(filled_learner(cfg, params, hyper), 4)
    want = reference_individual_adapt(params, filled_memory(cfg, params), 4, cfg, hyper)
    assert params_equal(got, want)
    assert not params_equal(got, params)


def test_individual_adapt_does_not_mutate_input():
    cfg = small_config()
    params = ss.init_params((8, 8), seed=4)
    snapshot = params_to_text(params)
    ss.individual_adapt(filled_learner(cfg, params, ss.MetaHyper(alpha=1e-3)), 2)
    assert params_to_text(params) == snapshot


# ---------------------------------------------------------------------------
# train_metalight

def test_metalight_beta_zero_freezes_theta0():
    cfg = small_config()
    hyper = ss.MetaHyper(beta=0.0, task_batch=2, meta_iterations=3, seed=5)
    result = ss.train_metalight(cfg, small_scenarios(), hyper)
    assert params_equal(result.checkpoint.theta0, ss.init_params((16, 16), seed=5))


def test_metalight_determinism():
    cfg = small_config()
    hyper = ss.MetaHyper(task_batch=2, meta_iterations=3, seed=6)
    a = ss.train_metalight(cfg, small_scenarios(), hyper)
    b = ss.train_metalight(cfg, small_scenarios(), hyper)
    assert params_to_text(a.checkpoint.theta0) == params_to_text(b.checkpoint.theta0)
    assert a.log == b.log
    assert a.checkpoint.scenario_digest == b.checkpoint.scenario_digest


def test_metalight_equals_the_reference_loop():
    cfg = small_config()
    hyper = ss.MetaHyper(task_batch=2, meta_iterations=3, alpha=1e-2, beta=1e-2, seed=6)
    result = ss.train_metalight(cfg, small_scenarios(), hyper, dims=(6, 5))
    theta0, log = reference_train_metalight(cfg, small_scenarios(), hyper, dims=(6, 5))
    assert params_equal(result.checkpoint.theta0, theta0)
    assert repr(result.log) == repr(log)
    assert not params_equal(theta0, ss.init_params((6, 5), seed=6))


def test_metalight_needs_enough_scenarios():
    cfg = small_config()
    with pytest.raises(ValueError):
        ss.train_metalight(cfg, small_scenarios(2), ss.MetaHyper(task_batch=3))


def test_metalight_log_rows():
    cfg = small_config()
    hyper = ss.MetaHyper(task_batch=2, meta_iterations=4, seed=7)
    result = ss.train_metalight(cfg, small_scenarios(), hyper)
    assert [r.iteration for r in result.log] == [0, 1, 2, 3]
    assert all(np.isfinite(r.mean_rollout_loss) for r in result.log)


# ---------------------------------------------------------------------------
# adaptation to a scenario

def tiny_checkpoint(cfg, **hyper_kwargs):
    hyper = ss.MetaHyper(task_batch=2, meta_iterations=2, seed=8, **hyper_kwargs)
    return ss.train_metalight(cfg, small_scenarios(), hyper).checkpoint


def test_adapt_zero_alpha_returns_theta0():
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg, alpha=0.0)
    out = ss.adapt_to_scenario(ckpt, small_scenarios(4)[3], cfg, seed=1)
    assert params_equal(out.params, ckpt.theta0)


def test_adapt_determinism_and_locality():
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg)
    theta0_before = params_to_text(ckpt.theta0)
    scenario = small_scenarios(4)[3]
    a = ss.adapt_to_scenario(ckpt, scenario, cfg, seed=2)
    b = ss.adapt_to_scenario(ckpt, scenario, cfg, seed=2)
    assert params_to_text(a.params) == params_to_text(b.params)
    assert params_to_text(ckpt.theta0) == theta0_before
    assert not params_equal(a.params, ckpt.theta0)


def test_adapt_budget_accounting(monkeypatch):
    # the budget is what adaptation does: `adapt_data_budget` collection
    # rollouts, then `adapt_steps` TD steps
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg, adapt_data_budget=2, adapt_steps=4)
    counts = {"rollouts": 0, "td_steps": 0}
    real_rollout, real_td_step = ss.meta.rollout, ss.dqn.TDLearner.td_step

    def counting_rollout(*args, **kwargs):
        counts["rollouts"] += 1
        return real_rollout(*args, **kwargs)

    def counting_td_step(self):
        counts["td_steps"] += 1
        return real_td_step(self)

    monkeypatch.setattr(ss.meta, "rollout", counting_rollout)
    monkeypatch.setattr(ss.dqn.TDLearner, "td_step", counting_td_step)
    out = ss.adapt_to_scenario(ckpt, small_scenarios(4)[3], cfg, seed=0)
    assert counts == {"rollouts": 2, "td_steps": 4}
    assert out.wall_time_s > 0
    counts.update(rollouts=0, td_steps=0)
    ss.adapt_to_scenario(replace(ckpt, hyper=replace(ckpt.hyper, adapt_steps=5)),
                         small_scenarios(4)[3], cfg, seed=0)
    assert counts == {"rollouts": 2, "td_steps": 5}
    # no adaptation takes zero steps: its hyperparameters refuse them
    with pytest.raises(ValueError, match="adapt_steps"):
        replace(ckpt.hyper, adapt_steps=0)


def test_one_learner_per_adaptation_and_per_ablated_scenario(monkeypatch):
    # the learner that collects is the learner that steps: one per
    # adaptation, and one per scenario of an ablation whatever its ks
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg)
    made = []

    class CountingLearner(TDLearner):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ss.meta, "TDLearner", CountingLearner)
    ss.adapt_to_scenario(ckpt, small_scenarios(4)[3], cfg)
    assert len(made) == 1
    made.clear()
    ss.ablate_steps(ckpt, small_scenarios(2), [3, 1, 2, 3], cfg)
    assert len(made) == 2


def test_adapt_params_steps_are_clipped():
    # each of the `steps` updates moves theta by alpha times a gradient whose
    # norm is capped at grad_clip, here on a memory whose raw gradient is
    # larger than the cap
    cfg = small_config()
    theta = ss.init_params((8, 8), seed=2)
    flow = small_scenarios(1)[0]
    alpha, clip, steps = 1e-2, 0.05, 3
    raw = adapt_params(theta, flow, cfg,
                       ss.MetaHyper(alpha=alpha, grad_clip=0.0, adapt_steps=1),
                       spawn_rng(0, 77))
    raw_norm = param_distance(raw.params, theta) / alpha
    assert raw_norm > 2 * clip, raw_norm
    clipped = adapt_params(theta, flow, cfg,
                           ss.MetaHyper(alpha=alpha, grad_clip=clip, adapt_steps=steps),
                           spawn_rng(0, 77))
    moved = param_distance(clipped.params, theta)
    assert 0.0 < moved <= steps * alpha * clip * (1 + 1e-9), (moved, raw_norm)


# ---------------------------------------------------------------------------
# ablation

def test_ablate_default_ks_rows(tmp_path):
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg)
    scenarios = small_scenarios(2)
    rows = ss.ablate_steps(ckpt, scenarios, [1, 2, 3, 5, 10], cfg, seed=3)
    assert [r.k for r in rows] == [1, 2, 3, 5, 10]
    assert all(r.scenario_count == 2 and r.seed == 3 for r in rows)
    assert all(np.isfinite(r.avg_travel_time_s) for r in rows)
    path = tmp_path / "ablation.csv"
    write_rows(path, AblationRow, rows)
    lines = path.read_text().splitlines()
    assert lines[1] == "k,avg_travel_time_s,scenario_count,seed"
    assert len(lines) == 7


def test_ablate_duplicate_ks_identical_rows():
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg)
    rows = ss.ablate_steps(ckpt, small_scenarios(2), [3, 3], cfg, seed=1)
    assert rows[0].avg_travel_time_s == rows[1].avg_travel_time_s


def test_ablate_validations():
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg)
    with pytest.raises(ValueError):
        ss.ablate_steps(ckpt, small_scenarios(2), [], cfg)
    with pytest.raises(ValueError):
        ss.ablate_steps(ckpt, [], [1], cfg)


def test_ablate_rejects_a_bad_k_before_any_rollout(monkeypatch):
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg)

    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before checking ks")
    monkeypatch.setattr(ss.meta, "rollout", no_rollout)
    with pytest.raises(ValueError, match=r"at least one gradient step, got k=0"):
        ss.ablate_steps(ckpt, small_scenarios(2), [1, 0], cfg)
    with pytest.raises(ValueError, match=r"got k=-2"):
        ss.ablate_steps(ckpt, small_scenarios(2), [3, -2, 0], cfg)


def test_ablate_rows_equal_one_adaptation_per_k_and_scenario():
    cfg = small_config()
    # two episodes of experience: a flow of one early vehicle yields 30
    # transitions per episode
    ckpt = tiny_checkpoint(cfg, adapt_data_budget=2)
    flows = [ss.sample_arrivals([8, 30, 4, 6, 8, 30, 4, 6], 300.0, 0),
             ss.FlowSpec([(0.0, 0)], horizon=300.0),
             ss.sample_arrivals([2] * 8, 300.0, 1),
             ss.sample_arrivals([40, 60, 30, 50, 40, 60, 30, 50], 300.0, 2)]
    # the greedy episodes leave the lockstep at different decisions
    lengths = {len(episode_rewards(cfg, flow, ss.GreedyPolicy(ckpt.theta0, cfg)))
               for flow in flows}
    assert len(lengths) > 1
    ks = [5, 1, 3, 3, 10]
    rows = ss.ablate_steps(ckpt, flows, ks, cfg, seed=2)
    assert repr(rows) == repr(reference_ablate_steps(ckpt, flows, ks, cfg, seed=2))
    assert [r.k for r in rows] == ks


def test_ablate_refuses_vehicle_less_scenarios_before_any_work(monkeypatch):
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg)

    def collect(*args):
        raise AssertionError("adaptation ran")

    monkeypatch.setattr(ss.meta, "_collect_experience", collect)
    flows = [ss.FlowSpec([], horizon=300.0, label="idle_a"), *small_scenarios(1),
             ss.FlowSpec([], horizon=300.0, label="idle_b")]
    with pytest.raises(ValueError, match=r"^scenarios without vehicles: idle_a, idle_b$"):
        ss.ablate_steps(ckpt, flows, [1, 2], cfg)


def memory_rows(memory):
    n = len(memory)
    return (n, memory._cursor, memory._x[:n].tobytes(), memory._x_next[:n].tobytes(),
            memory._a[:n].tobytes(), memory._r[:n].tobytes())


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("capacity", [10_000, 50])
def test_collection_equals_epsilon_greedy_over_raw_q_values(epsilon, capacity):
    # the collection through the TD learner against the oracle's plain
    # epsilon-greedy loop: the same transitions, in the same slots, and the
    # same draws from the generator; at capacity 50 the memory wraps
    cfg = small_config()
    theta = tiny_checkpoint(cfg).theta0
    hyper = ss.MetaHyper(rollout_epsilon=epsilon, adapt_data_budget=2, capacity=capacity)
    flows = [ss.sample_arrivals([40, 60, 30, 50, 40, 60, 30, 50], 300.0, 2),
             ss.FlowSpec([], horizon=300.0),
             ss.sample_arrivals([2] * 8, 300.0, 1)]
    for i, flow in enumerate(flows):
        rng, oracle_rng = spawn_rng(7, i), spawn_rng(7, i)
        learner = _collect_experience(theta, flow, cfg, hyper, rng)
        assert learner.updates == 0
        memory = learner.memory
        want = reference_collect_experience(theta, flow, cfg, hyper, oracle_rng)
        assert memory_rows(memory) == memory_rows(want)
        assert len(memory) == min(capacity, len(want)) and len(memory) > 0
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_collection_from_a_nan_theta_raises_at_its_first_decision(monkeypatch):
    # at epsilon 0 every decision exploits; the first one raises before
    # any transition is stored
    cfg = small_config()
    theta = ss.init_params((4, 3), seed=1)
    theta.b_r[...] = np.nan
    pushed = []
    monkeypatch.setattr(ss.ReplayMemory, "push", lambda memory, transition: pushed.append(1))
    hyper = ss.MetaHyper(rollout_epsilon=0.0)
    with pytest.raises(FloatingPointError, match="non-finite Q-values"):
        _collect_experience(theta, small_scenarios(1)[0], cfg, hyper, spawn_rng(7, 0))
    assert pushed == []


# ---------------------------------------------------------------------------
# checkpoint file

def test_meta_checkpoint_round_trip(tmp_path):
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg, alpha=5e-4, adapt_steps=7)
    path = tmp_path / "meta.txt"
    ss.save_meta_checkpoint(ckpt, path)
    loaded = ss.load_meta_checkpoint(path)
    assert params_equal(loaded.theta0, ckpt.theta0)
    assert loaded.hyper == ckpt.hyper
    assert loaded.scenario_digest == ckpt.scenario_digest
    # byte-stable re-serialization
    twice = tmp_path / "meta2.txt"
    ss.save_meta_checkpoint(loaded, twice)
    assert twice.read_text() == path.read_text()


def test_meta_checkpoint_header_line_without_equals_names_its_line(tmp_path):
    path = tmp_path / "m.ckpt"
    ss.save_meta_checkpoint(tiny_checkpoint(small_config()), path)
    lines = path.read_text().splitlines()
    line_no = next(i for i, line in enumerate(lines, start=1) if line.startswith("alpha="))
    lines[line_no - 1] = "alpha: 0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"m\.ckpt:{line_no}: expected key=value"):
        ss.load_meta_checkpoint(path)


def test_meta_checkpoint_header_rejects_an_unknown_key(tmp_path):
    # a misspelt key once fell back to its default
    path = tmp_path / "m.ckpt"
    ss.save_meta_checkpoint(tiny_checkpoint(small_config(), alpha=5e-4), path)
    lines = path.read_text().splitlines()
    line_no = next(i for i, line in enumerate(lines, start=1) if line.startswith("alpha="))
    lines[line_no - 1] = "alpah=0.0005"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ss.ParseError, match=rf"m\.ckpt:{line_no}: unknown key 'alpah'"):
        ss.load_meta_checkpoint(path)


@pytest.mark.parametrize("key", ["alpha", "scenario_digest"])
def test_meta_checkpoint_header_requires_every_field(tmp_path, key):
    # a missing field once loaded its default without a word
    path = tmp_path / "m.ckpt"
    ss.save_meta_checkpoint(tiny_checkpoint(small_config(), alpha=5e-4), path)
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(f"{key}=")]
    path.write_text("\n".join(lines) + "\n")
    header_end = next(i for i, line in enumerate(lines) if line.startswith("tensor "))
    with pytest.raises(ss.ParseError,
                       match=rf"m\.ckpt:{header_end}: the header ends without \['{key}'\]"):
        ss.load_meta_checkpoint(path)


@pytest.mark.parametrize("key,value", [("alpha", "abc"), ("adapt_steps", "1.5"),
                                       ("seed", "zero")])
def test_meta_checkpoint_value_that_does_not_parse_names_its_line(tmp_path, key, value):
    # each once raised a bare "could not convert ..." or "invalid literal ..."
    path = tmp_path / "m.ckpt"
    ss.save_meta_checkpoint(tiny_checkpoint(small_config()), path)
    lines = path.read_text().splitlines()
    line_no = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key}="))
    lines[line_no - 1] = f"{key}={value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ss.ParseError, match=rf"m\.ckpt:{line_no}: {key}: .*'{value}'"):
        ss.load_meta_checkpoint(path)


def test_meta_checkpoint_key_after_the_tensors_wins(tmp_path):
    # the keys were once read twice: the header's validated and kept, every
    # line's validated and dropped, so a later alpha was ignored
    path = tmp_path / "m.ckpt"
    ss.save_meta_checkpoint(tiny_checkpoint(small_config(), alpha=1e-3), path)
    path.write_text(path.read_text() + "alpha=0.5\n")
    assert ss.load_meta_checkpoint(path).hyper.alpha == 0.5
    path.write_text(path.read_text() + "alpha=abc\n")
    n_lines = len(path.read_text().splitlines())
    with pytest.raises(ss.ParseError, match=rf"m\.ckpt:{n_lines}: alpha: .*'abc'"):
        ss.load_meta_checkpoint(path)


def test_checked_in_meta_checkpoint_loads_and_resaves_byte_identical(tmp_path):
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "meta_seed0.ckpt"
    loaded = ss.load_meta_checkpoint(path)
    ss.save_meta_checkpoint(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_scenario_digest_tracks_content():
    flows = small_scenarios(2)
    d1 = scenario_digest(flows)
    assert d1 == scenario_digest(list(reversed(flows)))  # order-independent
    other = small_scenarios(3)[2:]
    assert scenario_digest(other) != d1


def test_scenario_digest_hashes_each_label_then_its_written_file(tmp_path):
    flows = small_scenarios(3)
    flows[1].label = "a_first"
    entries = []
    for i, flow in enumerate(flows):
        path = tmp_path / f"{i}.csv"
        ss.write_flow_csv(flow, path)
        entries.append((flow.label, path.read_bytes()))
    h = hashlib.sha256()
    for label, data in sorted(entries):
        h.update(label.encode())
        h.update(data)
    assert scenario_digest(flows) == h.hexdigest()


def test_scenario_digest_formats_each_flow_once(monkeypatch):
    calls = []
    original = scenarios_module.flow_to_csv_text
    monkeypatch.setattr(scenarios_module, "flow_to_csv_text",
                        lambda flow: calls.append(flow) or original(flow))
    flows = small_scenarios(3)
    first = scenario_digest(flows)
    assert len(calls) == 3
    assert scenario_digest(flows) == first
    assert len(calls) == 3


def test_scenario_digest_reads_the_label_afresh():
    flows = small_scenarios(2)
    first = scenario_digest(flows)
    flows[0].label = "renamed"
    renamed = small_scenarios(2)
    renamed[0].label = "renamed"
    assert scenario_digest(flows) == scenario_digest(renamed) != first


def test_adaptation_beats_frozen_theta0_on_held_out_skew():
    # paired evaluation: the meta-trained initialization adapted with the
    # default budget should beat the frozen initialization on a held-out
    # mildly-skewed scenario for at least 2 of 3 adaptation seeds.  (On
    # extreme shift the few-step adaptation can hurt instead; the ablation
    # harness reports that regime rather than asserting it away.)
    cfg = ss.IntersectionConfig(horizon=1200.0, drain=300.0)
    rng = np.random.default_rng(1)
    trains = [ss.sample_arrivals(rng.integers(30, 70, size=8), 1200.0, 300 + i,
                                 label=f"train{i}")
              for i in range(6)]
    hyper = ss.MetaHyper(meta_iterations=40, task_batch=3, seed=0)
    checkpoint = ss.train_metalight(cfg, trains, hyper).checkpoint

    held = ss.sample_arrivals([30, 30, 80, 80, 30, 30, 30, 30], 1200.0, 999,
                              label="held_out")
    frozen = ss.run_episode(cfg, held, ss.GreedyPolicy(checkpoint.theta0, cfg))
    wins = 0
    for adapt_seed in (0, 1, 2):
        adapted = ss.adapt_to_scenario(checkpoint, held, cfg, seed=adapt_seed)
        run = ss.run_episode(cfg, held, ss.GreedyPolicy(adapted.params, cfg))
        wins += run.avg_travel_time < frozen.avg_travel_time
    assert wins >= 2
