"""The exponent solver: tilted-family minimizers against the grid oracle and
against the scalar tilted solver that the stacked one replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from typecipher import exponents
from typecipher.cli import DEFAULT_RATE_GRID
from typecipher.exponents import (
    ExponentResult,
    admissible_thresholds,
    exponent_E,
    exponent_F,
    exponent_pair,
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
            assert exponent_E(R, p).value <= 1e-9


def test_E_infinite_above_support_capacity():
    p = Distribution([0.9, 0.1])
    r = exponent_E(1.0001, p)
    assert math.isinf(r.value) and r.argmin is None
    # zero entries shrink the support: log2 of support size caps the rate
    p3 = Distribution([0.5, 0.5, 0.0])
    assert math.isinf(exponent_E(1.2, p3).value)
    assert exponent_E(0.9, p3).value < math.inf


def test_E_worked_value_binary():
    # boundary solution: H(P*) = 0.8 with P* on the p side, D(P*||p)
    p = Distribution([0.9, 0.1])
    r = exponent_E(0.8, p)
    assert r.value == pytest.approx(0.1223, abs=2e-3)
    assert entropy(r.argmin) == pytest.approx(0.8, abs=1e-6)
    assert kl_divergence(r.argmin, p) == pytest.approx(r.value, abs=1e-9)


def test_E_monotone_in_rate():
    p = Distribution([0.8, 0.15, 0.05])
    values = [
        exponent_E(R, p).value for R in np.linspace(0.1, 1.55, 15)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_F_uniform_analytic():
    for q in (2, 3):
        u = uniform(q)
        for R in np.linspace(0.05, math.log2(q) - 0.05, 8):
            r = exponent_F(float(R), u)
            assert r.value == pytest.approx(math.log2(q) - R, abs=1e-6)


def test_F_zero_at_and_above_entropy():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = Distribution(rng.dirichlet(np.ones(3)))
        h = entropy(p)
        for R in (h, h + 0.1, 1.7):
            assert exponent_F(R, p).value <= 1e-9


def test_F_nonincreasing_in_rate():
    p = Distribution([0.6, 0.3, 0.1])
    values = [
        exponent_F(R, p).value for R in np.linspace(0.0, 1.6, 17)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_F_worked_value_binary():
    p = Distribution([0.9, 0.1])
    r = exponent_F(0.3, p)
    assert r.value == pytest.approx(0.0208, abs=2e-3)
    assert _f_objective(r.argmin, p, 0.3) == pytest.approx(r.value, abs=1e-9)


def test_tilted_vs_grid_binary():
    rng = np.random.default_rng(15)
    for _ in range(12):
        p = Distribution(rng.dirichlet(np.ones(2)))
        R = float(rng.uniform(0.05, 1.4))
        for solver, grid in ((exponent_E, oracles.grid_E), (exponent_F, oracles.grid_F)):
            a = solver(R, p).value
            b = grid(R, p).value
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert abs(a - b) <= 1e-3


def test_tilted_vs_grid_ternary():
    rng = np.random.default_rng(16)
    for _ in range(8):
        p = Distribution(rng.dirichlet(np.ones(3)))
        R = float(rng.uniform(0.05, 1.55))
        for solver, grid in ((exponent_E, oracles.grid_E), (exponent_F, oracles.grid_F)):
            a = solver(R, p).value
            b = grid(R, p).value
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
        g = oracles.grid_F(R, p).value
        t = exponent_F(R, p).value
        assert t <= g + 1e-9


def test_argmin_feasibility_E():
    rng = np.random.default_rng(18)
    for _ in range(10):
        p = Distribution(rng.dirichlet(np.ones(3)))
        R = entropy(p) + float(rng.uniform(0.0, 0.5))
        r = exponent_E(R, p)
        if math.isinf(r.value):
            continue
        assert entropy(r.argmin) >= R - 1e-6
        assert kl_divergence(r.argmin, p) == pytest.approx(r.value, abs=1e-8)


def test_rounded_down_is_conservative():
    r = ExponentResult(value=0.25, argmin=None, tolerance=1e-3)
    assert r.rounded_down() == pytest.approx(0.249)
    z = ExponentResult(value=0.0, argmin=None, tolerance=1e-3)
    assert z.rounded_down() == 0.0


def test_input_validation():
    p = uniform(2)
    with pytest.raises(ValueError):
        exponent_E(0.0, p)
    with pytest.raises(ValueError):
        exponent_E(-0.5, p)
    with pytest.raises(ValueError):
        exponent_F(-0.1, p)
    # F at R = 0 is legal: it is min D over the whole simplex plus H
    assert exponent_F(0.0, p).value >= 0.0


def test_positivity_region_matches_entropy_window():
    p_x = Distribution([0.9, 0.1])
    p_k = Distribution([0.55, 0.45])
    hx, hk = entropy(p_x), entropy(p_k)
    grid = np.linspace(0.02, 1.25, 40)
    rows = positivity_region(p_x, p_k, grid)
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


@pytest.mark.parametrize(
    "p_x, p_k",
    [((0.82, 0.18), (0.62, 0.38)), ((0.65, 0.2, 0.15), (0.4, 0.35, 0.25))],
    ids=["q2", "q3"],
)
def test_admissible_thresholds_bound_the_positivity_region(p_x, p_k):
    # H(X) < H(K): the rates where both exponents are positive lie in
    # (H(X), H(K)), above the achievable threshold H(X)
    p_x, p_k = Distribution(p_x), Distribution(p_k)
    t = admissible_thresholds(p_x, p_k)
    assert t["h_x"] < t["h_k"] and t["achievable_threshold"] == entropy(p_x)
    both = [
        row["R"]
        for row in positivity_region(p_x, p_k, DEFAULT_RATE_GRID)
        if row["E_positive"] and row["F_positive"]
    ]
    assert both and all(t["achievable_threshold"] < R < t["h_k"] for R in both)
    # H(X) >= H(K), the laws swapped or equal: no admissible rate, and no
    # rate on the grid makes both exponents positive
    for px, pk in ((p_k, p_x), (p_k, p_k)):
        t = admissible_thresholds(px, pk)
        assert math.isinf(t["achievable_threshold"])
        assert t["strong_converse_rate"] is None
        rows = positivity_region(px, pk, DEFAULT_RATE_GRID)
        assert not any(row["E_positive"] and row["F_positive"] for row in rows)


@pytest.mark.xfail(
    strict=True,
    reason="bisection rounding on the flat root at s=0 leaves E(log2 k) "
    "1.1e-8 below D(U||p), above the stated tol of 1e-9",
)
def test_E_at_log_alphabet_is_divergence_from_uniform():
    # at R = log2 k only the uniform law is feasible, so E = D(U || p)
    p = Distribution([0.82, 0.18])
    result = exponent_E(1.0, p)
    want = kl_divergence(uniform(2), p)
    assert abs(result.value - want) <= result.tolerance


# ----------------------------------------------------------------------
# the stacked tilted solver against the scalar one it replaced
# ----------------------------------------------------------------------


@st.composite
def _laws(draw, q=None):
    if q is None:
        q = draw(st.sampled_from([2, 3, 5, 7, 11]))
    w = draw(st.lists(st.integers(0, 9), min_size=q, max_size=q))
    w[draw(st.integers(0, q - 1))] += 1  # zeros allowed, not everywhere
    if draw(st.booleans()):
        tied = draw(st.integers(1, q))  # tie the first `tied` weights at the top
        w[:tied] = [max(w)] * tied
    return Distribution([v / sum(w) for v in w])


def _special_rates(p):
    """H(p), log2 k, log2(ties), 0 and two rates above log2 k."""
    sub = np.asarray(p)[np.asarray(p) > 0.0]
    log_k = math.log2(sub.size)
    ties = int(np.sum(sub >= sub.max() * (1.0 - 1e-12)))
    return [entropy(p), log_k, math.log2(ties), 0.0, log_k + 0.25, 2.0 * log_k + 1.0]


def _assert_same(got, want):
    # both solvers sum in order and share their elementwise arithmetic, so
    # they agree bit for bit at every support size, argmins included
    assert got.value == want.value
    assert (got.argmin is None) == (want.argmin is None)
    if got.argmin is not None:
        assert np.array_equal(np.asarray(got.argmin), np.asarray(want.argmin))


@settings(max_examples=30, deadline=None)
@given(_laws(), st.lists(st.floats(0.0, 4.0), max_size=2))
@example(Distribution([0.82, 0.18]), [])
@example(Distribution([0.5, 0.5, 0.0]), [0.3])
@example(Distribution([0.25, 0.25, 0.25, 0.25, 0.0]), [1.5])
@example(Distribution([0.3, 0.3, 0.1, 0.1, 0.1, 0.1, 0.0]), [1.0])
@example(Distribution([0.2, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05]), [2.5])
@example(Distribution(np.array([2, 2, 2, 2, 2, 2, 0, 0, 0, 1, 2]) / 15), [])  # tied minimizers
def test_stacked_solver_matches_scalar_oracle(p, extra):
    for R in _special_rates(p) + extra:
        _assert_same(exponent_F(R, p), oracles.tilted_F(R, p))
        if R > 0.0:
            _assert_same(exponent_E(R, p), oracles.tilted_E(R, p))


def test_no_plain_crossing_is_queued_above_its_face_entropy_cap(monkeypatch):
    # H(P_s) <= log2|f| on a face f, so a column with a higher target could
    # never cross it; every column queued must be crossable on its face
    stacks = []
    solve = exponents._Stack.solve

    def recording(self):
        stacks.append(self)
        return solve(self)

    monkeypatch.setattr(exponents._Stack, "solve", recording)
    rates = [round(0.05 * i, 10) for i in range(1, 61)]
    for laws in _PAIR_LAWS.values():
        for _, pk in laws:
            exponent_pair(Distribution(pk), Distribution(pk), rates)
    exponent_pair(Distribution([0.3, 0.3, 0.3, 0.1]), Distribution([0.3, 0.3, 0.3, 0.1]), rates)
    assert stacks
    for stack in stacks:
        for faces, targets, _, _ in stack.queued:
            for fid, R in zip(faces.tolist(), targets.tolist()):
                assert R <= math.log2(stack.faces[fid].size)


def test_tied_sub_face_above_its_entropy_cap_matches_scalar_oracle():
    # the face {0, 1, 2} has log2 3 < 1.7 < H(p): no crossing is queued on
    # it, and its own law (uniform, entropy log2 3) is its candidate
    p = Distribution([0.3, 0.3, 0.3, 0.1])
    _assert_same(exponent_F(1.7, p), oracles.tilted_F(1.7, p))


# The benchmark's base laws: p_X and p_K per alphabet size.
_BENCHMARK_LAWS = {
    2: ((0.82, 0.18), (0.62, 0.38)),
    3: ((0.65, 0.2, 0.15), (0.4, 0.35, 0.25)),
    5: ((0.38, 0.24, 0.15, 0.12, 0.11), (0.3, 0.25, 0.2, 0.15, 0.1)),
}


@pytest.mark.parametrize("q", sorted(_BENCHMARK_LAWS))
def test_benchmark_grids_match_scalar_oracle_exactly(q):
    p_x, p_k = (Distribution(p) for p in _BENCHMARK_LAWS[q])
    for row in positivity_region(p_x, p_k, DEFAULT_RATE_GRID):
        assert row["E"] == oracles.tilted_E(row["R"], p_x).value
        assert row["F"] == oracles.tilted_F(row["R"], p_k).value


def test_benchmark_grids_take_one_table_call(monkeypatch):
    # the doubling tables of every branch a grid needs are one entropy call
    calls = []
    entropy_of = exponents._Stack.entropy

    def counting(self, faces, s):
        calls.append(s.size)
        return entropy_of(self, faces, s)

    monkeypatch.setattr(exponents._Stack, "entropy", counting)
    for p_x, p_k in _BENCHMARK_LAWS.values():
        calls.clear()
        positivity_region(Distribution(p_x), Distribution(p_k), DEFAULT_RATE_GRID)
        assert len(calls) == 1


def _edge_rates(p):
    """Each multi-symbol face's own entropy (as the solver and the oracle sum
    it) and log2|f|, with their float neighbours at or below log2|f|, where
    the crossing rule still reaches the face (above it a flat face parts
    from the oracle by an ulp: the strict xfail below).  And H(p)."""
    sub = np.asarray(p)[np.asarray(p) > 0.0]
    rates = {entropy(p)}
    for face in exponents._faces(sub):
        if face.size > 1:
            law, cap = sub[face] / sub[face].sum(), math.log2(face.size)
            for h in (float(exponents._H(law)), oracles._H(law), cap):
                near = (h, float(np.nextafter(h, 0.0)), float(np.nextafter(h, np.inf)))
                rates |= {R for R in near if R <= cap}
    return sorted(rates)


@settings(max_examples=12, deadline=None)
@given(_laws())
@example(Distribution([0.5, 0.5]))
@example(Distribution([0.25, 0.25, 0.5]))  # the face {0, 1} is flat
@example(Distribution([0.4, 0.0, 0.4, 0.2, 0.0]))
@example(Distribution(np.array([3, 3, 3, 1, 0, 1, 2]) / 13))
@example(Distribution(np.array([2, 2, 2, 2, 2, 2, 0, 0, 0, 1, 2]) / 15))
@example(Distribution(np.array([5, 5, 5, 5, 0, 0, 0, 0, 0, 3, 5]) / 28))
def test_F_at_face_entropies_matches_scalar_oracle(p):
    # at these rates a face's own law and its crossings tie or swap places,
    # so the one s > 0 branch per face must pick the candidate the scalar
    # solver picks from both branches
    rates = _edge_rates(p)
    want = [oracles.tilted_F(R, p) for R in rates]
    for R, w in zip(rates, want):
        _assert_same(exponent_F(R, p), w)
    positive = [(R, w) for R, w in zip(rates, want) if R > 0.0]
    _, F = exponent_pair(p, p, [R for R, _ in positive])
    assert [f.value for f in F] == [w.value for _, w in positive]


@pytest.mark.xfail(
    strict=True,
    reason="no crossing is queued above log2|f|, where the scalar oracle's "
    "crossing on a flat face (exactly uniform bits) can undercut the face's "
    "own law (p / p(f) bits) by an ulp",
)
def test_F_one_ulp_above_a_flat_face_cap_matches_scalar_oracle():
    # the face of three 5/28 is flat: at R one ulp above log2 3 the scalar
    # solver keeps its crossing there, 6e-16 below the face's own law
    p = Distribution(np.array([5, 5, 5, 5, 0, 0, 0, 0, 0, 3, 5]) / 28)
    R = float(np.nextafter(math.log2(3), np.inf))
    _assert_same(exponent_F(R, p), oracles.tilted_F(R, p))


def _queued(laws, rates):
    """The block of columns that E and F on every law queue at `rates`: their
    log2 p, masked rows, targets and brackets; None when none is queued."""
    stack = exponents._Stack(max(int(np.count_nonzero(np.asarray(p))) for p in laws))
    for p in laws:
        for kind in (exponents._TiltedE, exponents._TiltedF):
            kind(exponents._Law(p), np.asarray(rates, dtype=np.float64), stack)
    if not stack.size:
        return None
    face, target, s_lo, s_hi = (np.concatenate(part) for part in zip(*stack.queued))
    return (*stack._packed(face), target, s_lo, s_hi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 5, 7]).flatmap(_laws), min_size=1, max_size=2),
       st.lists(st.floats(0.0, 3.0), max_size=3))
@example([Distribution([0.82, 0.18])], [1.0])  # E at R = log2 k: flat root at s = 0
@example([Distribution([0.25, 0.25, 0.5])], [0.3, 1.2])  # an exactly tied face
@example([uniform(7), Distribution([0.5, 0.0, 0.5])], [0.9, 2.0])  # flat faces, masked rows
@example([Distribution([0.4, 0.3, 0.2, 0.1, 0.0]), Distribution([0.9, 0.1])], [0.05, 1.9])
def test_settled_columns_leave_with_the_bits_of_every_step(laws, extra):
    # the loop that retires settled columns ends with every column's last
    # s_lo, and so its P_s, bit-equal to all 80 steps on the whole stack
    rates = sorted({R for p in laws for R in _special_rates(p) + extra})
    block = _queued(laws, rates)
    if block is None:
        return
    L, dead, target, s_lo, s_hi = block
    got = exponents._bisect(L, dead, target, s_lo, s_hi)
    want_s, want_P = oracles.stacked_bisect(L, ~dead, target, s_lo, s_hi)
    assert got.tobytes() == want_s.tobytes()
    assert exponents._tilt(L, dead, got).tobytes() == want_P.tobytes()


def test_single_rate_F_stops_bisecting_before_step_60(monkeypatch):
    # its three columns last move at step 53 of STEPS = 80
    evaluations, steps = [], []
    bisect, H = exponents._bisect, exponents._H

    def counting_H(P, out=None):
        evaluations.append(P.shape)
        return H(P, out)

    def counting_bisect(*args):
        before = len(evaluations)
        s = bisect(*args)
        steps.append(len(evaluations) - before - 1)  # one at the first s_lo
        return s

    monkeypatch.setattr(exponents, "_H", counting_H)
    monkeypatch.setattr(exponents, "_bisect", counting_bisect)
    p = Distribution([0.62, 0.38])
    _assert_same(exponent_F(0.9, p), oracles.tilted_F(0.9, p))
    assert len(steps) == 1 and steps[0] < 60


@pytest.mark.parametrize("q", [2, 3, 7])
def test_uniform_key_takes_one_table_call(monkeypatch, q):
    # every face of a uniform law is flat: its one table call shows that
    # no face crosses the rate, and the tied maxima cover the active regime
    calls = []
    entropy_of = exponents._Stack.entropy

    def counting(self, faces, s):
        calls.append(s.size)
        return entropy_of(self, faces, s)

    monkeypatch.setattr(exponents._Stack, "entropy", counting)
    _assert_same(exponent_F(0.9, uniform(q)), oracles.tilted_F(0.9, uniform(q)))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "p",
    [
        (0.5 + 1e-13, 0.5 - 1e-13),  # nearly flat: crossings about 2^42 out
        (0.3 + 1e-13, 0.3 - 1e-13, 0.4),
        (0.25, 0.25, 0.5),  # the face {0, 1} is flat
        tuple(np.full(7, 1.0 / 7.0)),  # every face is flat
        (0.62, 0.38),
    ],
)
def test_F_table_queues_the_scalar_brackets(p):
    # every crossing F needs is queued on the bracket that the scalar
    # doubling search finds, however flat or nearly flat its face: one s > 0
    # branch per multi-symbol face, then the active branch
    law = exponents._Law(Distribution(p))
    rates = np.array([0.01, 0.3, 0.5, 0.9, 1.2, 1.5, 2.5])
    stack = exponents._Stack(law.k)
    F = exponents._TiltedF(law, rates, stack)
    assert [f.tolist() for f in F.faces[:-1]] == [
        f.tolist() for f in exponents._faces(law.sub) if f.size > 1
    ]
    want = []
    for b, face in enumerate(F.faces):
        if b == len(F.faces) - 1:
            need = (rates <= law.log_k) & (rates > F.log_ties)
        else:
            need = (rates < law.H) & (rates <= math.log2(face.size))
        for R in rates[need].tolist():
            far = oracles._expand_until(law.logp[face], R, 1.0)
            if far is not None:
                bracket = (0.0, far) if b == len(F.faces) - 1 else (far, 0.0)
                want.append((law.logp[face].tolist(), R, *bracket))
    got = [
        (stack.faces[fid].tolist(), R, lo, hi)
        for faces, targets, s_lo, s_hi in stack.queued
        for fid, R, lo, hi in zip(faces.tolist(), targets.tolist(), s_lo.tolist(), s_hi.tolist())
    ]
    assert sorted(got) == sorted(want)


@st.composite
def _region_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 11]))
    p_x, p_k = draw(_laws(q)), draw(_laws(q))
    grid = [entropy(p_x), entropy(p_k)] + draw(st.lists(st.floats(0.01, 4.0), max_size=5))
    return p_x, p_k, [R for R in grid if R > 0.0]


@settings(max_examples=30, deadline=None)
@given(_region_cases())
def test_region_rows_equal_single_rate_calls(case):
    # stacking must not make one rate depend on its neighbours, nor E on F
    p_x, p_k, grid = case
    for row in positivity_region(p_x, p_k, grid):
        assert row["E"] == exponent_E(row["R"], p_x).value
        assert row["F"] == exponent_F(row["R"], p_k).value


# Per alphabet size, (p_X, p_K) pairs: full support, zero-probability
# symbols, and laws of different support widths stacked together.
_PAIR_LAWS = {
    2: [((0.82, 0.18), (0.62, 0.38)), ((1.0, 0.0), (0.5, 0.5)), ((0.3, 0.7), (0.0, 1.0))],
    3: [((0.65, 0.2, 0.15), (0.4, 0.35, 0.25)), ((0.9, 0.0, 0.1), (0.2, 0.3, 0.5)),
        ((0.5, 0.25, 0.25), (0.0, 0.0, 1.0))],
    5: [((0.38, 0.24, 0.15, 0.12, 0.11), (0.3, 0.25, 0.2, 0.15, 0.1)),
        ((0.7, 0.0, 0.3, 0.0, 0.0), (0.2, 0.2, 0.2, 0.2, 0.2)),
        ((0.2, 0.2, 0.2, 0.2, 0.2), (0.0, 0.6, 0.0, 0.25, 0.15))],
}


@pytest.mark.parametrize("q", sorted(_PAIR_LAWS))
def test_exponent_pair_equals_single_law_calls(q):
    # one stack for both laws must leave each column as its own call solves
    # it: R <= H(p) (value 0), R past log2 q (value inf) and the rates between
    for px, pk in _PAIR_LAWS[q]:
        p_x, p_k = Distribution(px), Distribution(pk)
        rates = [entropy(p_x), entropy(p_k), 0.5 * entropy(p_x), 0.05, 0.6, 1.3,
                 math.log2(q), math.log2(q) + 0.25]
        rates = [R for R in rates if R > 0.0]
        E, F = exponent_pair(p_x, p_k, rates)
        assert len(E) == len(F) == len(rates)
        for R, e, f in zip(rates, E, F):
            assert e.value == exponent_E(R, p_x).value, (q, px, R)
            assert f.value == exponent_F(R, p_k).value, (q, pk, R)
            assert e.argmin is None and f.argmin is None
            assert e.tolerance == f.tolerance == exponents.TOLERANCE
            if R <= entropy(p_x):
                assert e.value == 0.0
            if R > math.log2(q):
                assert e.value == math.inf and f.value == 0.0


@pytest.mark.parametrize("bad", [0.0, -0.3, math.nan])
def test_positivity_region_checks_every_rate_before_solving(bad, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the grid was checked")

    monkeypatch.setattr(exponents, "_tilted", unreachable)
    with pytest.raises(ValueError, match=f"rate must be positive, got {bad}"):
        positivity_region(uniform(2), uniform(2), [0.5, 0.9, bad, 1.2])


def test_positivity_region_empty_grid():
    assert positivity_region(uniform(3), uniform(3), []) == []
