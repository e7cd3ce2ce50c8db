"""Distribution container, entropy, and KL divergence."""

import math

import numpy as np
import pytest

from typecipher.simplex import Distribution, entropy, kl_divergence, uniform


def test_distribution_validates():
    with pytest.raises(ValueError):
        Distribution([0.5, 0.6])
    with pytest.raises(ValueError):
        Distribution([-0.1, 1.1])
    with pytest.raises(ValueError):
        Distribution([])


def test_distribution_immutable():
    d = Distribution([0.25, 0.75])
    with pytest.raises(AttributeError):
        d.probs = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        np.asarray(d.probs)[0] = 1.0  # backing array is read-only


def test_distribution_sequence_protocol():
    d = Distribution([0.25, 0.75])
    assert len(d) == 2
    assert d[1] == 0.75
    assert list(d) == [0.25, 0.75]
    assert np.asarray(d).dtype == np.float64


def test_text_roundtrip():
    d = Distribution([0.9, 0.1])
    assert Distribution.from_text(d.to_text()).probs.tolist() == [0.9, 0.1]
    with pytest.raises(ValueError):
        Distribution.from_text("0.9;0.1")


def test_entropy_worked_values():
    assert entropy(Distribution([0.25, 0.75])) == pytest.approx(0.811278, abs=1e-6)
    assert entropy(uniform(2)) == pytest.approx(1.0, abs=1e-12)
    assert entropy(uniform(8)) == pytest.approx(3.0, abs=1e-12)
    assert entropy(Distribution([1.0, 0.0])) == 0.0
    assert entropy(Distribution([0.9, 0.1])) == pytest.approx(0.468996, abs=1e-6)


def test_entropy_of_a_point_mass_is_positive_zero():
    # the sum over the support is +0.0; negating it must not give -0.0
    for p in ([1, 0], [0, 1, 0], [1.0]):
        h = entropy(p)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0, p


def test_entropy_bounds_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = int(rng.integers(2, 7))
        p = Distribution(rng.dirichlet(np.ones(q)))
        h = entropy(p)
        assert -1e-12 <= h <= math.log2(q) + 1e-12


def test_kl_worked_value():
    d = kl_divergence(Distribution([0.5, 0.5]), Distribution([0.9, 0.1]))
    assert d == pytest.approx(0.736966, abs=1e-6)


def test_kl_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = int(rng.integers(2, 6))
        p = Distribution(rng.dirichlet(np.ones(q)))
        r = Distribution(rng.dirichlet(np.ones(q)))
        assert kl_divergence(p, r) >= -1e-12
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


def test_kl_infinite_off_support():
    p = Distribution([0.5, 0.5])
    r = Distribution([1.0, 0.0])
    assert kl_divergence(p, r) == math.inf
    # support containment the other way is fine
    assert math.isfinite(kl_divergence(r, p))


def test_kl_shape_mismatch():
    with pytest.raises(ValueError):
        kl_divergence(uniform(2), uniform(3))


def test_entropy_kl_uniform_identity():
    # D(P || uniform_q) = log2 q - H(P)
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = int(rng.integers(2, 8))
        p = Distribution(rng.dirichlet(np.ones(q)))
        assert kl_divergence(p, uniform(q)) == pytest.approx(
            math.log2(q) - entropy(p), abs=1e-10
        )
