import numpy as np
import pytest

import signalshift as ss
from signalshift.meta import (
    MetaLogRow,
    adapt_params,
    scenario_digest,
    write_ablation_csv,
)
from signalshift.network import params_to_text
from signalshift.seeding import spawn_rng

from conftest import make_toy_flow, param_distance, params_equal, zero_grads
from reference_kernel import ablate_steps as reference_ablate_steps


def small_config():
    return ss.IntersectionConfig(horizon=300.0, drain=120.0)


def small_scenarios(n=3):
    return [ss.sample_arrivals([8, 30, 4, 6, 8, 30, 4, 6], 300.0, seed)
            for seed in range(n)]


def filled_memory(cfg, params, seed=0, episodes=2):
    """Experience gathered by acting epsilon-greedily from `params`."""
    rng = spawn_rng(seed, 1234)
    memory = ss.ReplayMemory(5000, seed=rng)
    for i, flow in enumerate(small_scenarios(episodes)):
        state = ss.initial_state(cfg, flow)
        obs = ss.observe(state, cfg)
        while state.clock < cfg.horizon:
            a = ss.epsilon_greedy(ss.frap_forward(params, obs, cfg), 0.3, rng)
            state, r = ss.step(state, a, cfg)
            obs2 = ss.observe(state, cfg)
            memory.push((obs, a, r, obs2))
            obs = obs2
    return memory


def b_r_probe_grad(target: float):
    """Gradient function realizing the scalar loss (b_r - target)^2."""
    def grad_fn(params):
        grads = zero_grads(params)
        grads.b_r[...] = 2.0 * (float(params.b_r) - target)
        return (float(params.b_r) - target) ** 2, grads
    return grad_fn


# ---------------------------------------------------------------------------
# gradient-step engine and probes

def test_scalar_probe_one_step():
    # L(x) = (x-2)^2 from x=0 with lr 0.25 lands on x=1
    params = ss.init_params((2, 2), seed=0)
    adapted, losses = ss.apply_gradient_steps(params, b_r_probe_grad(2.0), 0.25, 1)
    assert float(adapted.b_r) == 1.0
    assert losses == [4.0]
    assert float(params.b_r) == 0.0  # input untouched


def test_scalar_probe_converges():
    params = ss.init_params((2, 2), seed=0)
    adapted, _ = ss.apply_gradient_steps(params, b_r_probe_grad(2.0), 0.25, 20)
    assert float(adapted.b_r) == pytest.approx(2.0, abs=1e-5)


def test_first_order_reduction_matches_two_plain_steps():
    # one meta-iteration at task_batch 1 and k=1 is exactly: an alpha step
    # on the adaptation batch, then a beta step (taken from theta0) with the
    # gradient evaluated at the adapted parameters
    alpha, beta = 0.25, 0.1
    theta0 = ss.init_params((2, 2), seed=0)
    adapted, _ = ss.apply_gradient_steps(theta0, b_r_probe_grad(2.0), alpha, 1)
    assert float(adapted.b_r) == 1.0
    _, task_grad = b_r_probe_grad(2.0)(adapted)
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
    memory = filled_memory(cfg, params)
    adapted = ss.individual_adapt(params, memory, 3, cfg, ss.MetaHyper(alpha=0.0))
    assert params_equal(adapted, params)


def test_individual_adapt_requires_warm_memory():
    cfg = small_config()
    params = ss.init_params((8, 8), seed=2)
    with pytest.raises(ValueError):
        ss.individual_adapt(params, ss.ReplayMemory(16, seed=0), 1, cfg,
                            ss.MetaHyper(alpha=1e-3))


def test_individual_adapt_fixed_point():
    # constant network whose Q equals its own bootstrap target everywhere
    from test_network import constant_net, hand_case_batch
    cfg = ss.IntersectionConfig()
    params = constant_net(1.0 / 3.0)
    memory = ss.ReplayMemory(64, seed=3)
    for t in hand_case_batch(cfg, 0.1) * 40:
        memory.push(t)
    adapted = ss.individual_adapt(params, memory, 3, cfg,
                                   ss.MetaHyper(alpha=1e-3, gamma=0.9))
    assert params_equal(adapted, params)


def test_individual_adapt_does_not_mutate_input():
    cfg = small_config()
    params = ss.init_params((8, 8), seed=4)
    snapshot = params_to_text(params)
    memory = filled_memory(cfg, params)
    ss.individual_adapt(params, memory, 2, cfg, ss.MetaHyper(alpha=1e-3))
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


def test_adapt_budget_accounting():
    cfg = small_config()
    ckpt = tiny_checkpoint(cfg, adapt_data_budget=2, adapt_steps=4)
    out = ss.adapt_to_scenario(ckpt, small_scenarios(4)[3], cfg, seed=0)
    assert out.episodes_used == 2
    assert out.update_steps == 4
    assert out.wall_time_s > 0
    k5 = ss.adapt_to_scenario(ckpt, small_scenarios(4)[3], cfg, k_override=5, seed=0)
    assert k5.update_steps == 5
    with pytest.raises(ValueError):
        ss.adapt_to_scenario(ckpt, small_scenarios(4)[3], cfg, k_override=0)


def test_adapt_params_steps_are_clipped():
    # each of the `steps` updates moves theta by alpha times a gradient whose
    # norm is capped at grad_clip, here on a memory whose raw gradient is
    # larger than the cap
    cfg = small_config()
    theta = ss.init_params((8, 8), seed=2)
    flow = small_scenarios(1)[0]
    alpha, clip, steps = 1e-2, 0.05, 3
    raw = adapt_params(theta, flow, cfg, ss.MetaHyper(alpha=alpha, grad_clip=0.0), 1,
                       spawn_rng(0, 77))
    raw_norm = param_distance(raw.params, theta) / alpha
    assert raw_norm > 2 * clip, raw_norm
    clipped = adapt_params(theta, flow, cfg, ss.MetaHyper(alpha=alpha, grad_clip=clip),
                           steps, spawn_rng(0, 77))
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
    write_ablation_csv(rows, path)
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
    # two episodes of experience: an empty flow yields 30 transitions per episode
    ckpt = tiny_checkpoint(cfg, adapt_data_budget=2)
    flows = [ss.sample_arrivals([8, 30, 4, 6, 8, 30, 4, 6], 300.0, 0),
             ss.FlowSpec([], horizon=300.0),
             ss.sample_arrivals([2] * 8, 300.0, 1),
             ss.sample_arrivals([40, 60, 30, 50, 40, 60, 30, 50], 300.0, 2)]
    # the greedy episodes leave the lockstep at different decisions
    lengths = {len(ss.run_episode(cfg, flow, ss.GreedyPolicy(ckpt.theta0, cfg)).reward_trace)
               for flow in flows}
    assert len(lengths) > 1
    ks = [5, 1, 3, 3, 10]
    rows = ss.ablate_steps(ckpt, flows, ks, cfg, seed=2)
    assert repr(rows) == repr(reference_ablate_steps(ckpt, flows, ks, cfg, seed=2))
    assert [r.k for r in rows] == ks


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


def test_scenario_digest_tracks_content():
    flows = small_scenarios(2)
    d1 = scenario_digest(flows)
    assert d1 == scenario_digest(list(reversed(flows)))  # order-independent
    other = small_scenarios(3)[2:]
    assert scenario_digest(other) != d1


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
