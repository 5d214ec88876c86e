import itertools
from dataclasses import replace

import numpy as np
import pytest

import signalshift as ss
from signalshift.network import PARAM_FIELDS, clip_gradients, grad_norm, params_to_text

from conftest import batch_of, obs_row, params_equal, zero_grads


def constant_net(per_pair_score: float, dims=(1, 1)) -> ss.QNetworkParams:
    """Weights chosen so every phase's Q equals 3 * per_pair_score.

    Zero embedding/competition weights with unit biases make every pair
    feature exactly 1, so the readout alone sets the score.
    """
    params = ss.init_params(dims, seed=0)
    params.W_e[:] = 0.0
    params.b_e[:] = 1.0
    params.W_c[:] = 0.0
    params.b_c[:] = 1.0
    params.w_r[:] = per_pair_score
    params.b_r[...] = 0.0
    return params


def random_obs(cfg, rng):
    phase = int(rng.integers(cfg.n_phases))
    flags = np.array([1 if m in cfg.phases[phase] else 0
                      for m in range(cfg.n_movements)])
    return obs_row(rng.integers(0, 15, cfg.n_movements), flags)


# ---------------------------------------------------------------------------
# init

def test_init_deterministic_and_biases_zero():
    a = ss.init_params((16, 16), seed=5)
    b = ss.init_params((16, 16), seed=5)
    assert params_equal(a, b)
    assert np.all(a.b_e == 0) and np.all(a.b_c == 0) and a.b_r == 0


def test_init_weight_bounds():
    p = ss.init_params((16, 16), seed=1)
    assert np.all(np.abs(p.W_e) <= 1 / np.sqrt(2))
    assert np.all(np.abs(p.W_c) <= 1 / np.sqrt(32))
    assert np.all(np.abs(p.w_r) <= 1 / np.sqrt(16))


def test_init_rejects_zero_dims():
    with pytest.raises(ValueError):
        ss.init_params((0, 16), seed=1)


# ---------------------------------------------------------------------------
# forward

def test_forward_shape_and_symmetry():
    cfg = ss.IntersectionConfig()
    params = ss.init_params((8, 8), seed=2)
    obs = obs_row(np.full(8, 5), np.zeros(8))
    q = ss.frap_forward(params, obs, cfg)
    assert q.shape == (4,)
    # identical inputs on every movement make all phases indistinguishable
    assert np.allclose(q, q[0], atol=1e-12)


def test_forward_phase_reorder_equivariance():
    cfg = ss.IntersectionConfig()
    params = ss.init_params((16, 16), seed=3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        obs = random_obs(cfg, rng)
        q = ss.frap_forward(params, obs, cfg)
        for perm in itertools.permutations(range(4)):
            cfg_p = replace(cfg, phases=tuple(cfg.phases[p] for p in perm))
            q_p = ss.frap_forward(params, obs, cfg_p)
            assert np.max(np.abs(q_p - q[list(perm)])) < 1e-9


def test_forward_movement_relabel_invariance():
    # movement identity never enters the network: relabeling movements
    # (and remapping phases and the observation) leaves Q unchanged
    cfg = ss.IntersectionConfig()
    params = ss.init_params((16, 16), seed=6)
    rng = np.random.default_rng(7)
    obs = random_obs(cfg, rng)
    q = ss.frap_forward(params, obs, cfg)
    perm = rng.permutation(8)
    inv = np.argsort(perm)
    cfg_p = replace(cfg, phases=tuple(tuple(int(perm[m]) for m in ph)
                                      for ph in cfg.phases))
    obs_p = obs[inv]
    q_p = ss.frap_forward(params, obs_p, cfg_p)
    assert np.max(np.abs(q_p - q)) < 1e-12


def test_forward_dimension_mismatch():
    cfg = ss.IntersectionConfig()
    params = ss.init_params((4, 4), seed=0)
    obs = obs_row(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        ss.frap_forward(params, obs, cfg)


def test_forward_backward_bit_stable():
    cfg = ss.IntersectionConfig()
    params = ss.init_params((16, 16), seed=9)
    rng = np.random.default_rng(10)
    batch = batch_of([(random_obs(cfg, rng), 1, -3.0, random_obs(cfg, rng))
                      for _ in range(4)])
    loss1, g1 = ss.bellman_grads(params, batch, params, 0.8, cfg)
    loss2, g2 = ss.bellman_grads(params, batch, params, 0.8, cfg)
    assert loss1 == loss2
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(g1, name), getattr(g2, name))


# ---------------------------------------------------------------------------
# bellman loss

def hand_case_batch(cfg, r):
    obs = obs_row(np.full(8, 2), np.zeros(8))
    return [(obs, 0, r, obs)]


def test_bellman_hand_case():
    # Q(s,a)=1.0 everywhere, r=0.5, gamma=0.9, max target Q=1.0:
    # TD = 1.0 - 0.5 - 0.9 = -0.4, squared loss 0.16
    cfg = ss.IntersectionConfig()
    params = constant_net(1.0 / 3.0)
    loss, _ = ss.bellman_grads(params, batch_of(hand_case_batch(cfg, 0.5)), params, 0.9, cfg)
    assert loss == pytest.approx(0.16, abs=1e-12)


def test_bellman_fixed_point_has_zero_gradients():
    # reward chosen so Q already equals its own bootstrap target
    cfg = ss.IntersectionConfig()
    params = constant_net(1.0 / 3.0)
    loss, grads = ss.bellman_grads(params, batch_of(hand_case_batch(cfg, 0.1)), params,
                                    0.9, cfg)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert grad_norm(grads) == pytest.approx(0.0, abs=1e-12)


def test_bellman_validations():
    cfg = ss.IntersectionConfig()
    params = ss.init_params((4, 4), seed=0)
    with pytest.raises(ValueError):
        ss.bellman_grads(params, batch_of([]), params, 0.8, cfg)
    with pytest.raises(ValueError):
        ss.bellman_grads(params, batch_of(hand_case_batch(cfg, 0.0)), params, 1.0, cfg)


def test_bellman_non_finite_loss_raises():
    # a readout bias near the float range squares to inf in the loss
    cfg = ss.IntersectionConfig()
    params = constant_net(1.0 / 3.0)
    params.b_r[...] = 1e300
    with pytest.raises(FloatingPointError), np.errstate(all="ignore"):
        ss.bellman_grads(params, batch_of(hand_case_batch(cfg, 0.5)), params, 0.9, cfg)


def test_bellman_loss_non_negative():
    cfg = ss.IntersectionConfig()
    rng = np.random.default_rng(11)
    params = ss.init_params((8, 8), seed=12)
    for _ in range(20):
        batch = batch_of([(random_obs(cfg, rng), int(rng.integers(4)),
                           -float(rng.integers(0, 40)), random_obs(cfg, rng))
                          for _ in range(5)])
        loss, _ = ss.bellman_grads(params, batch, params, 0.8, cfg)
        assert loss >= 0.0


def test_gradients_match_finite_differences_small():
    cfg = ss.IntersectionConfig()
    params = ss.init_params((3, 3), seed=13)
    jitter = np.random.default_rng(14)
    params.b_e += jitter.uniform(0.05, 0.2, params.b_e.shape)
    params.b_c += jitter.uniform(0.05, 0.2, params.b_c.shape)
    rng = np.random.default_rng(15)
    batch = batch_of([(random_obs(cfg, rng), int(rng.integers(4)),
                       -float(rng.integers(0, 20)), random_obs(cfg, rng))
                      for _ in range(4)])
    target = ss.init_params((3, 3), seed=16)
    _, grads = ss.bellman_grads(params, batch, target, 0.8, cfg)
    h = 1e-6
    for name in PARAM_FIELDS:
        flat = getattr(params, name).reshape(-1)
        gflat = getattr(grads, name).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = ss.bellman_grads(params, batch, target, 0.8, cfg)
            flat[i] = orig - h
            dn, _ = ss.bellman_grads(params, batch, target, 0.8, cfg)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8) < 1e-4


# ---------------------------------------------------------------------------
# flat vector and its views

def test_views_alias_theta():
    params = ss.init_params((4, 3), seed=7)
    assert params.theta.size == 4 * 2 + 4 + 3 * 8 + 3 + 3 + 1
    params.W_e[0, 0] = 123.0
    assert params.theta[0] == 123.0
    params.b_r[...] = -5.0
    assert params.theta[-1] == -5.0
    params.theta[4 * 2] = 7.0          # first entry of b_e
    assert params.b_e[0] == 7.0
    # bound once, not rebuilt per read (frap_forward reads all six per call)
    assert params.W_c is params.W_c


def test_rebinding_a_view_raises():
    params = ss.init_params((4, 3), seed=8)
    before = params.theta.copy()
    for name in ("b_r", "W_e", "theta"):
        with pytest.raises(AttributeError):
            setattr(params, name, np.asarray(0.0))
    assert np.array_equal(params.theta, before)
    params.W_e += 1.0                  # in place, then the same view rebound
    assert np.array_equal(params.W_e, before[:8].reshape(4, 2) + 1.0)


# ---------------------------------------------------------------------------
# sgd + helpers

def test_sgd_zero_lr_is_identity():
    params = ss.init_params((4, 4), seed=1)
    grads = zero_grads(params)
    grads.W_e += 1.0
    out = ss.sgd_step(params, grads, 0.0)
    assert params_equal(out, params)


def test_sgd_scalar_probe():
    params = constant_net(0.0)
    params.b_r[...] = 0.0
    grads = zero_grads(params)
    grads.b_r[...] = 1.0
    out = ss.sgd_step(params, grads, 0.25)
    assert out.b_r == -0.25


def test_sgd_two_steps_compose():
    params = ss.init_params((4, 4), seed=2)
    grads = zero_grads(params)
    grads.W_c += 0.5
    twice = ss.sgd_step(ss.sgd_step(params, grads, 0.1), grads, 0.1)
    once = ss.sgd_step(params, grads, 0.2)
    for name in PARAM_FIELDS:  # algebraic identity, up to float rounding
        assert np.allclose(getattr(twice, name), getattr(once, name),
                           rtol=0, atol=1e-12)


def test_sgd_value_semantics():
    params = ss.init_params((4, 4), seed=3)
    before = params.with_theta(params.theta.copy())
    grads = zero_grads(params)
    grads.w_r += 1.0
    ss.sgd_step(params, grads, 0.5)
    assert params_equal(params, before)


def test_sgd_shape_mismatch():
    params = ss.init_params((4, 4), seed=4)
    grads = zero_grads(ss.init_params((5, 4), seed=4))
    with pytest.raises(ValueError):
        ss.sgd_step(params, grads, 0.1)


def test_clip_gradients():
    params = ss.init_params((4, 4), seed=5)
    grads = zero_grads(params)
    grads.W_e += 3.0
    clipped = clip_gradients(grads, 1.0)
    assert grad_norm(clipped) == pytest.approx(1.0, rel=1e-12)
    assert clip_gradients(grads, 0.0) is grads          # disabled
    small = zero_grads(params)
    assert clip_gradients(small, 1.0) is small          # under the cap


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = ss.init_params((16, 16), seed=21)
    grads = zero_grads(params)
    grads.W_e += np.pi  # irrational values exercise exact float transport
    params = ss.sgd_step(params, grads, 1e-3)
    path = tmp_path / "ckpt.txt"
    ss.save_params(params, path)
    loaded = ss.load_params(path)
    assert params_equal(loaded, params)
    assert loaded.embed_dim == 16 and loaded.compete_dim == 16
    # serializing the loaded copy reproduces the file byte for byte
    assert params_to_text(loaded) == path.read_text()


def test_checkpoint_header_dims_mismatch_names_tensor(tmp_path):
    text = params_to_text(ss.init_params((8, 16), seed=22))
    path = tmp_path / "ckpt.txt"
    path.write_text(text.replace("embed_dim=8", "embed_dim=16"))
    with pytest.raises(ValueError, match="W_e"):
        ss.load_params(path)


def test_checkpoint_tensor_shape_mismatch_names_tensor(tmp_path):
    text = params_to_text(ss.init_params((8, 8), seed=23))
    assert "\ntensor b_r\n" in text
    path = tmp_path / "ckpt.txt"
    path.write_text(text.replace("\ntensor b_r\n", "\ntensor b_r 1\n"))
    with pytest.raises(ValueError, match="b_r"):
        ss.load_params(path)


def test_checkpoint_truncated_after_a_tensor_header_names_tensor(tmp_path):
    lines = params_to_text(ss.init_params((8, 8), seed=24)).splitlines()
    assert lines[-2] == "tensor b_r"
    path = tmp_path / "ckpt.txt"
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="tensor b_r: the checkpoint ends"):
        ss.load_params(path)


def test_checkpoint_non_hex_payload_names_tensor(tmp_path):
    lines = params_to_text(ss.init_params((8, 8), seed=25)).splitlines()
    assert lines[-4].startswith("tensor w_r ")
    lines[-3] = "zz" + lines[-3][2:]
    path = tmp_path / "ckpt.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="tensor w_r: non-hexadecimal"):
        ss.load_params(path)
