"""Exponent solvers: tilted-family minimizers against the grid oracle."""

import math

import numpy as np
import pytest

from typecipher.exponents import (
    ExponentResult,
    admissible_thresholds,
    exponent_E,
    exponent_F,
    positivity_region,
)
from typecipher.simplex import Distribution, entropy, kl_divergence, uniform


def _f_objective(P, p, R):
    return max(entropy(P) - R, 0.0) + kl_divergence(P, p)


def test_E_zero_at_and_below_entropy():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = Distribution(rng.dirichlet(np.ones(2)))
        h = entropy(p)
        for R in (h * 0.3, h * 0.9, h):
            if R <= 0:
                continue
            assert exponent_E(R, p, method="tilted").value <= 1e-9


def test_E_infinite_above_support_capacity():
    p = Distribution([0.9, 0.1])
    r = exponent_E(1.0001, p, method="tilted")
    assert math.isinf(r.value) and r.argmin is None
    # zero entries shrink the support: log2 of support size caps the rate
    p3 = Distribution([0.5, 0.5, 0.0])
    assert math.isinf(exponent_E(1.2, p3, method="tilted").value)
    assert exponent_E(0.9, p3, method="tilted").value < math.inf


def test_E_worked_value_binary():
    # boundary solution: H(P*) = 0.8 with P* on the p side, D(P*||p)
    p = Distribution([0.9, 0.1])
    r = exponent_E(0.8, p, method="tilted")
    assert r.value == pytest.approx(0.1223, abs=2e-3)
    assert entropy(r.argmin) == pytest.approx(0.8, abs=1e-6)
    assert kl_divergence(r.argmin, p) == pytest.approx(r.value, abs=1e-9)


def test_E_monotone_in_rate():
    p = Distribution([0.8, 0.15, 0.05])
    values = [
        exponent_E(R, p, method="tilted").value for R in np.linspace(0.1, 1.55, 15)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_F_uniform_analytic():
    for q in (2, 3):
        u = uniform(q)
        for R in np.linspace(0.05, math.log2(q) - 0.05, 8):
            r = exponent_F(float(R), u, method="tilted")
            assert r.value == pytest.approx(math.log2(q) - R, abs=1e-6)


def test_F_zero_at_and_above_entropy():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = Distribution(rng.dirichlet(np.ones(3)))
        h = entropy(p)
        for R in (h, h + 0.1, 1.7):
            assert exponent_F(R, p, method="tilted").value <= 1e-9


def test_F_nonincreasing_in_rate():
    p = Distribution([0.6, 0.3, 0.1])
    values = [
        exponent_F(R, p, method="tilted").value for R in np.linspace(0.0, 1.6, 17)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_F_worked_value_binary():
    p = Distribution([0.9, 0.1])
    r = exponent_F(0.3, p, method="tilted")
    assert r.value == pytest.approx(0.0208, abs=2e-3)
    assert _f_objective(r.argmin, p, 0.3) == pytest.approx(r.value, abs=1e-9)


def test_tilted_vs_grid_binary():
    rng = np.random.default_rng(15)
    for _ in range(12):
        p = Distribution(rng.dirichlet(np.ones(2)))
        R = float(rng.uniform(0.05, 1.4))
        for solver, other in ((exponent_E, exponent_E), (exponent_F, exponent_F)):
            a = solver(R, p, method="tilted").value
            b = other(R, p, method="grid", tol=1e-4).value
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert abs(a - b) <= 1e-3


def test_tilted_vs_grid_ternary():
    rng = np.random.default_rng(16)
    for _ in range(8):
        p = Distribution(rng.dirichlet(np.ones(3)))
        R = float(rng.uniform(0.05, 1.55))
        for solver in (exponent_E, exponent_F):
            a = solver(R, p, method="tilted").value
            b = solver(R, p, method="grid", tol=1e-4).value
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert abs(a - b) <= 1e-3


def test_grid_never_beats_tilted_by_more_than_resolution():
    # the grid value is a feasible-point upper bound, so the tilted value
    # should never sit far above it
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = Distribution(rng.dirichlet(np.ones(2)))
        R = float(rng.uniform(0.1, 0.95))
        g = exponent_F(R, p, method="grid", tol=1e-4).value
        t = exponent_F(R, p, method="tilted").value
        assert t <= g + 1e-9


def test_argmin_feasibility_E():
    rng = np.random.default_rng(18)
    for _ in range(10):
        p = Distribution(rng.dirichlet(np.ones(3)))
        R = entropy(p) + float(rng.uniform(0.0, 0.5))
        r = exponent_E(R, p, method="tilted")
        if math.isinf(r.value):
            continue
        assert entropy(r.argmin) >= R - 1e-6
        assert kl_divergence(r.argmin, p) == pytest.approx(r.value, abs=1e-8)


def test_rounded_down_is_conservative():
    r = ExponentResult(value=0.25, argmin=None, method="tilted", tolerance=1e-3)
    assert r.rounded_down() == pytest.approx(0.249)
    z = ExponentResult(value=0.0, argmin=None, method="tilted", tolerance=1e-3)
    assert z.rounded_down() == 0.0


def test_input_validation():
    p = uniform(2)
    with pytest.raises(ValueError):
        exponent_E(0.0, p)
    with pytest.raises(ValueError):
        exponent_E(-0.5, p)
    with pytest.raises(ValueError):
        exponent_F(-0.1, p)
    with pytest.raises(ValueError):
        exponent_E(0.5, p, method="magic")
    with pytest.raises(ValueError):
        exponent_E(0.5, uniform(5), method="grid")
    # F at R = 0 is legal: it is min D over the whole simplex plus H
    assert exponent_F(0.0, p).value >= 0.0


def test_positivity_region_matches_entropy_window():
    p_x = Distribution([0.9, 0.1])
    p_k = Distribution([0.55, 0.45])
    hx, hk = entropy(p_x), entropy(p_k)
    grid = np.linspace(0.02, 1.25, 40)
    rows = positivity_region(p_x, p_k, grid, method="tilted")
    for row in rows:
        R = row["R"]
        if abs(R - hx) > 2e-3 and abs(R - hk) > 2e-3:
            assert row["E_positive"] == (R > hx)
            assert row["F_positive"] == (R < hk)


def test_admissible_thresholds():
    p_x = Distribution([0.9, 0.1])
    p_k = uniform(2)
    t = admissible_thresholds(p_x, p_k)
    assert t["achievable_threshold"] == pytest.approx(entropy(p_x))
    assert t["converse_threshold"] == pytest.approx(entropy(p_x))
    assert t["strong_converse_rate"] == pytest.approx(entropy(p_x))
    # H(X) > H(K): no admissible rate at all
    t2 = admissible_thresholds(uniform(2), Distribution([0.95, 0.05]))
    assert math.isinf(t2["achievable_threshold"])
    assert t2["strong_converse_rate"] is None
    # boundary H(X) = H(K): converse threshold exists, achievable does not
    t3 = admissible_thresholds(uniform(2), uniform(2))
    assert math.isinf(t3["achievable_threshold"])
    assert t3["converse_threshold"] == pytest.approx(1.0)


@pytest.mark.xfail(
    strict=True,
    reason="bisection rounding on the flat root at s=0 leaves E(log2 k) "
    "1.1e-8 below D(U||p), above the stated tol of 1e-9",
)
def test_E_at_log_alphabet_is_divergence_from_uniform():
    # at R = log2 k only the uniform law is feasible, so E = D(U || p)
    p = Distribution([0.82, 0.18])
    result = exponent_E(1.0, p, method="tilted", tol=1e-9)
    want = kl_divergence(uniform(2), p)
    assert abs(result.value - want) <= result.tolerance
