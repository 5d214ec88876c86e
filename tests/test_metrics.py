import math

import numpy as np
import pytest

import signalshift as ss
from signalshift.metrics import average_distribution

from conftest import SYNTHETIC_BASES, SYNTHETIC_SHARES_PCT, synthetic_base_list

# Hand evaluation of the divergence formula for ([0.5,0.5], [0.25,0.75]):
# 0.5*ln(2) + 0.5*ln(2/3) = 0.1438410362...
KL_ORACLE = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)


def test_movement_distribution_matches_published_shares():
    d = ss.movement_distribution(SYNTHETIC_BASES["base2"])
    expected = np.array(SYNTHETIC_SHARES_PCT["base2"]) / 100.0
    assert np.all(np.abs(d.p - expected) < 1e-4)  # 0.01 percentage points


def test_movement_distribution_uniform():
    d = ss.movement_distribution([100] * 8)
    assert np.allclose(d.p, 0.125, atol=0)


def test_movement_distribution_all_zero_is_error():
    with pytest.raises(ValueError):
        ss.movement_distribution([0] * 8)


def test_movement_distribution_scale_invariance():
    base = np.array(SYNTHETIC_BASES["base3"])
    d1 = ss.movement_distribution(base)
    for k in (2, 3, 7):
        dk = ss.movement_distribution(base * k)
        assert np.allclose(d1.p, dk.p, atol=1e-12)


def test_kl_identity_is_exact_zero():
    p = ss.movement_distribution(SYNTHETIC_BASES["base1"])
    assert ss.kl_distance(p, p) == 0.0


def test_kl_hand_oracle():
    assert ss.kl_distance([0.5, 0.5], [0.25, 0.75], epsilon=0.0) == pytest.approx(
        KL_ORACLE, abs=1e-12)
    assert KL_ORACLE == pytest.approx(0.143841, abs=1e-6)


def test_kl_asymmetry_witness():
    ab = ss.kl_distance([0.5, 0.5], [0.25, 0.75], epsilon=0.0)
    ba = ss.kl_distance([0.25, 0.75], [0.5, 0.5], epsilon=0.0)
    assert ab != ba


def test_kl_support_mismatch():
    p, q = [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]
    assert ss.kl_distance(p, q, epsilon=0.0) == math.inf
    smoothed = ss.kl_distance(p, q, epsilon=1e-6)
    assert math.isfinite(smoothed) and smoothed > 0


def test_kl_smoothing_leaves_full_support_untouched():
    # zero-cell smoothing must not change distributions without zeros
    exact = ss.kl_distance([0.5, 0.5], [0.25, 0.75], epsilon=0.0)
    assert ss.kl_distance([0.5, 0.5], [0.25, 0.75], epsilon=1e-6) == exact


def test_kl_length_mismatch():
    with pytest.raises(ValueError):
        ss.kl_distance([0.5, 0.5], [0.2, 0.3, 0.5])


def test_kl_non_negative_on_random_pairs():
    rng = np.random.default_rng(123)
    for _ in range(200):
        p = rng.uniform(0, 1, 8)
        q = rng.uniform(0, 1, 8)
        d = ss.kl_distance(p / p.sum(), q / q.sum())
        assert d >= 0.0


def test_average_of_singleton_is_itself():
    d = ss.movement_distribution(SYNTHETIC_BASES["base4"])
    assert np.allclose(average_distribution([d]).p, d.p, atol=0)


def test_average_of_mirror_pair_is_uniform_on_pairs():
    d = ss.movement_distribution([10, 30, 10, 30, 10, 30, 10, 30])
    mirror = ss.movement_distribution([30, 10, 30, 10, 30, 10, 30, 10])
    avg = average_distribution([d, mirror])
    assert np.allclose(avg.p, 0.125, atol=1e-12)


def test_average_empty_set_is_error():
    with pytest.raises(ValueError):
        average_distribution([])
    with pytest.raises(ValueError):
        ss.average_training_distribution(ss.ScenarioSet([], kind="test"))


def test_training_average_vs_shifted_scenario_kl_scale():
    # A widened-variability test scenario should sit a measurable but
    # moderate distance from the 25-scenario training average.
    bases = synthetic_base_list()
    train = ss.make_training_set(bases, seed=7)
    avg = ss.average_training_distribution(train)
    test = ss.make_test_scenarios(bases, seed=7).scenarios[0]
    kl = ss.kl_distance(avg, ss.movement_distribution(test.movement_counts()))
    assert 0.005 < kl < 1.5


@pytest.mark.parametrize("epsilon", [-1e-6, math.nan, math.inf])
def test_kl_rejects_a_negative_or_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        ss.kl_distance([0.5, 0.5], [0.25, 0.75], epsilon=epsilon)


@pytest.mark.parametrize("build,match", [
    (lambda: ss.MovementDistribution([math.nan, 1.0]), "distribution entry 0 is not finite: nan"),
    (lambda: ss.MovementDistribution([1.0, -math.inf]),
     "distribution entry 1 is not finite: -inf"),
    (lambda: ss.movement_distribution([math.inf, 1.0]), "volumes entry 0 is not finite: inf"),
    (lambda: ss.movement_distribution([3.0, math.nan]), "volumes entry 1 is not finite: nan"),
    (lambda: ss.kl_distance([math.nan, 1.0], [0.5, 0.5]),
     "distribution entry 0 is not finite: nan"),
    (lambda: ss.kl_distance([0.5, 0.5], [0.5, math.nan]),
     "distribution entry 1 is not finite: nan"),
], ids=["distribution-nan", "distribution-minus-inf", "volumes-inf", "volumes-nan",
        "kl-train-nan", "kl-test-nan"])
def test_non_finite_share_entries_are_rejected(build, match):
    # a NaN share once passed both checks, and kl_distance read it as 0.0
    with pytest.raises(ValueError, match=match):
        build()
