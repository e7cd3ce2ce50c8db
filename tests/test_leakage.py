"""Leakage accounting: exact MI, bound chain, row sums, converse probes."""

import itertools
import math
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from typecipher.cipher import (
    CipherSystem,
    derandomize,
    draw_encoder,
    encrypt,
    make_encoder,
)
from typecipher.code import build_codebook, encode, explicit_m_plan, make_rate_plan
from typecipher.fields import FieldError, FieldSpec, all_vectors, index_encode
from typecipher.leakage import (
    check_birkhoff,
    converse_diagnostics,
    exact_laws,
    exact_mutual_info,
    monte_carlo_mi,
    security_bound_curve,
    security_certificate,
    strong_converse_probe,
)
from typecipher.simplex import Distribution, entropy, uniform

import oracles
from oracles import pad_law_fraction


def _mi_oracle(sys_, p_X, p_K):
    """Mutual information from the full joint table, built pair by pair.

    Independent of the library's shift-structure shortcut: every (key,
    plaintext) pair is pushed through encrypt() and accumulated.
    """
    q, n = sys_.spec.q, sys_.plan.n
    joint = defaultdict(float)
    for k in itertools.product(range(q), repeat=n):
        pk = math.prod(p_K[a] for a in k)
        if pk == 0.0:
            continue
        for x in itertools.product(range(q), repeat=n):
            px = math.prod(p_X[a] for a in x)
            if px == 0.0:
                continue
            joint[(x, encrypt(sys_, k, x))] += pk * px
    mx = defaultdict(float)
    mc = defaultdict(float)
    for (x, c), v in joint.items():
        mx[x] += v
        mc[c] += v
    return sum(v * math.log2(v / (mx[x] * mc[c])) for (x, c), v in joint.items())


def _canonical_laws(n, R, p_x, p_k, seed=0):
    """Exact laws of a binary canonical system whose encoder `derandomize`
    found, search result included."""
    plan = make_rate_plan(n, R, FieldSpec(2))
    search = derandomize(plan, base_seed=seed)
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=search.encoder)
    return exact_laws(sys_, p_x, p_k, search)


def _perfect_system():
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    cb = build_codebook(plan)
    enc = make_encoder([[1, 0], [0, 1], [0, 0]], (0, 0), spec)
    return CipherSystem(codebook=cb, key_encoder=enc)


def _perfect_laws(p_x, p_k):
    return exact_laws(_perfect_system(), p_x, p_k)


def test_exact_mi_matches_joint_table_oracle():
    rng = np.random.default_rng(40)
    for n, R in ((2, 0.6), (3, 0.9), (4, 0.9)):
        seed = int(rng.integers(100))
        p_x = Distribution(rng.dirichlet(np.ones(2)))
        p_k = Distribution(rng.dirichlet(np.ones(2)))
        laws = _canonical_laws(n, R, p_x, p_k, seed=seed)
        rep = exact_mutual_info(laws)
        assert rep.mi_exact == pytest.approx(_mi_oracle(laws.sys, p_x, p_k), abs=1e-9)


def _transform_case(q, n, R=None, m=None, point_mass=False, seed=0):
    spec = FieldSpec(q)
    plan = make_rate_plan(n, R, spec) if m is None else explicit_m_plan(n, m, spec)
    rng = np.random.default_rng(seed)
    enc = draw_encoder(plan, int(rng.integers(1000)))
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=enc)
    p_x = Distribution(rng.dirichlet(np.ones(q)))
    p_k = Distribution(np.eye(q)[0]) if point_mass else Distribution(rng.dirichlet(np.ones(q)))
    return sys_, p_x, p_k, rng


@pytest.mark.parametrize(
    "case",
    [
        dict(q=2, n=5, R=0.9),
        dict(q=3, n=3, R=1.0),
        dict(q=5, n=2, R=1.0),
        dict(q=2, n=4, R=0.9, point_mass=True),
        dict(q=3, n=3, R=1.0, point_mass=True),
        dict(q=5, n=2, R=1.0, point_mass=True),
        dict(q=2, n=4, m=6),
        dict(q=3, n=3, m=4),
        dict(q=5, n=2, m=3),
    ],
    ids=lambda c: "-".join(f"{k}{v}" for k, v in c.items()),
)
def test_transform_matches_shift_loop(case):
    sys_, p_x, p_k, rng = _transform_case(**case)
    q, m = sys_.spec.q, sys_.plan.m
    laws = exact_laws(sys_, p_x, p_k)
    digits = all_vectors(m, sys_.spec)
    weights = np.zeros(q**m)
    hits = rng.choice(q**m, size=min(12, q**m), replace=False)
    weights[hits] = rng.uniform(0.0, 1.0, size=hits.size)
    for got, want in (
        (laws.mixture(weights), oracles.shift_mixture(laws.pad, weights, digits, q)),
        (laws.ciphertext, oracles.ciphertext_law(sys_, p_x, p_k)),
    ):
        assert got.min() >= 0.0
        assert np.max(np.abs(got - want)) <= 1e-12


def test_exact_laws_refuses_search_for_another_encoder():
    plan = make_rate_plan(4, 0.9, FieldSpec(2))
    search = derandomize(plan, base_seed=3)
    cb = build_codebook(plan)
    p_x, p_k = Distribution([0.9, 0.1]), uniform(2)
    # an equal encoder drawn again is still another encoder
    for enc in (draw_encoder(plan, search.seed + 1), draw_encoder(plan, search.seed)):
        other = CipherSystem(codebook=cb, key_encoder=enc)
        with pytest.raises(ValueError, match="another encoder"):
            exact_laws(other, p_x, p_k, search)
    mine = CipherSystem(codebook=cb, key_encoder=search.encoder)
    assert exact_laws(mine, p_x, p_k, search).search is search


def test_search_divergences_reused_and_checked(monkeypatch):
    spec = FieldSpec(2)
    plan = make_rate_plan(5, 0.9, spec)
    search = derandomize(plan, base_seed=3)
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=search.encoder)
    p_x, p_k = Distribution([0.8, 0.2]), Distribution([0.6, 0.4])
    fresh = exact_mutual_info(exact_laws(sys_, p_x, p_k))
    cert = security_certificate(exact_laws(sys_, p_x, p_k))

    def refuse(*args, **kwargs):
        raise AssertionError("divergences recomputed")

    monkeypatch.setattr("typecipher.leakage.omega_divergences", refuse)
    laws = exact_laws(sys_, p_x, p_k, search)
    assert exact_mutual_info(laws) == fresh
    reused = security_certificate(laws)
    # the search adds the theta steps and changes nothing else
    assert reused.derandomized and not cert.derandomized
    theta = {"typewise_vs_theta", "mi_vs_theta", "theta_vs_padded_exponent"}
    assert [c for c in reused.checks if c.name not in theta] == list(cert.checks)
    assert {c.name for c in reused.checks} - {c.name for c in cert.checks} == theta
    assert reused.report == cert.report


def test_one_handle_shared_by_every_figure_matches_fresh_handles():
    p_x, p_k = Distribution([0.9, 0.1]), Distribution([0.7, 0.3])
    laws = _canonical_laws(4, 0.9, p_x, p_k)

    def fresh():
        return exact_laws(laws.sys, p_x, p_k, laws.search)

    shared = (
        security_certificate(laws).to_json(),
        check_birkhoff(laws),
        converse_diagnostics(laws, gamma=0.1).to_json(),
        exact_mutual_info(laws),
    )
    assert shared == (
        security_certificate(fresh()).to_json(),
        check_birkhoff(fresh()),
        converse_diagnostics(fresh(), gamma=0.1).to_json(),
        exact_mutual_info(fresh()),
    )


def test_perfect_secrecy_zero_mi():
    rep = exact_mutual_info(_perfect_laws(Distribution([0.7, 0.3]), uniform(2)))
    assert rep.mi_exact <= 1e-10
    assert rep.h_pad == pytest.approx(2.0, abs=1e-12)
    assert rep.pad_divergence == pytest.approx(0.0, abs=1e-12)


def test_point_mass_key_leaks_codeword_entropy():
    sys_ = _perfect_system()
    p_x = Distribution([0.7, 0.3])
    rep = exact_mutual_info(exact_laws(sys_, p_x, Distribution([1.0, 0.0])))
    law = defaultdict(float)
    for x in itertools.product(range(2), repeat=3):
        law[encode(sys_.codebook, x)] += math.prod(p_x[a] for a in x)
    h_codeword = -sum(v * math.log2(v) for v in law.values() if v > 0)
    assert rep.mi_exact == pytest.approx(h_codeword, abs=1e-10)


def test_report_chain_invariant_random_systems():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        R, seed = float(rng.uniform(0.4, 1.1)), int(rng.integers(100))
        p_x = Distribution(rng.dirichlet(np.ones(2)))
        p_k = Distribution(rng.dirichlet(np.ones(2)))
        rep = exact_mutual_info(_canonical_laws(n, R, p_x, p_k, seed=seed))
        assert 0.0 <= rep.mi_exact <= rep.pad_divergence + 1e-10
        assert rep.pad_divergence <= rep.typewise_bound + 1e-10
        assert rep.security_bound is not None
        assert rep.mi_exact <= rep.security_bound + 1e-9


def test_pad_divergence_identity():
    # m log2 q - H(pad) = D(pad || uniform), here via exact rationals
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    cb = build_codebook(plan)
    enc = draw_encoder(plan, 19)
    sys_ = CipherSystem(codebook=cb, key_encoder=enc)
    p_k = Distribution([0.75, 0.25])
    rep = exact_mutual_info(exact_laws(sys_, Distribution([0.6, 0.4]), p_k))
    pad = pad_law_fraction(enc, [Fraction(3, 4), Fraction(1, 4)], spec)
    direct = sum(
        float(v) * math.log2(float(v) * 4) for v in pad if v > 0
    )
    assert rep.pad_divergence == pytest.approx(direct, abs=1e-10)


def test_security_certificate_canonical_passes():
    laws = _canonical_laws(4, 0.9, Distribution([0.9, 0.1]), uniform(2))
    cert = security_certificate(laws)
    assert cert.passed
    names = [c.name for c in cert.checks]
    assert "theta_vs_padded_exponent" in names
    assert "mi_vs_security_bound" in names
    for c in cert.checks:
        assert c.holds, c.name


def test_security_certificate_explicit_m_skips_exponent_steps():
    cert = security_certificate(_perfect_laws(Distribution([0.7, 0.3]), uniform(2)))
    assert cert.passed
    names = [c.name for c in cert.checks]
    assert "mi_vs_security_bound" not in names
    assert "theta_vs_padded_exponent" not in names
    assert cert.report.security_bound is None


@pytest.mark.parametrize("canonical", [True, False])
def test_certificate_json_lists_skipped_steps_iff_non_canonical(canonical):
    p_x, p_k = Distribution([0.8, 0.2]), Distribution([0.6, 0.4])
    laws = _canonical_laws(4, 0.9, p_x, p_k) if canonical else _perfect_laws(p_x, p_k)
    payload = security_certificate(laws).to_json()
    assert ("skipped" in payload) is (not canonical)
    if not canonical:
        assert payload["skipped"] == [
            "theta_vs_padded_exponent",
            "padded_equals_security_bound",
            "mi_vs_security_bound",
        ]


def test_monte_carlo_known_zero():
    sys_ = _perfect_system()
    est = monte_carlo_mi(sys_, Distribution([0.7, 0.3]), uniform(2), samples=2000, seed=1)
    assert abs(est.estimate) <= 3 * est.std_error + 1e-12
    assert est.corrected and est.samples == 2000


def test_monte_carlo_tracks_exact_value():
    p_x = Distribution([0.8, 0.2])
    p_k = Distribution([0.9, 0.1])
    laws = _canonical_laws(4, 0.9, p_x, p_k)
    exact = exact_mutual_info(laws).mi_exact
    est = monte_carlo_mi(laws.sys, p_x, p_k, samples=6000, seed=2)
    assert abs(est.estimate - exact) <= 3 * est.std_error


def test_monte_carlo_se_scales_with_samples():
    p_x = Distribution([0.8, 0.2])
    sys_ = _canonical_laws(3, 0.9, p_x, uniform(2)).sys
    small = monte_carlo_mi(sys_, p_x, uniform(2), samples=1000, seed=3)
    large = monte_carlo_mi(sys_, p_x, uniform(2), samples=4000, seed=3)
    ratio = small.std_error / large.std_error
    assert 1.2 <= ratio <= 3.5  # ~2 expected; bootstrap noise allowed for


def test_monte_carlo_sample_floor():
    with pytest.raises(ValueError):
        monte_carlo_mi(_perfect_system(), uniform(2), uniform(2), samples=999, seed=0)


@pytest.mark.parametrize("bootstrap", [1, -1])
def test_monte_carlo_refuses_a_bootstrap_without_a_deviation(bootstrap):
    # one replicate has no sample deviation (NaN) and a negative count no
    # replicates at all; 0 is the explicit "no standard error"
    with pytest.raises(ValueError, match=f"bootstrap must be 0 .* got {bootstrap}"):
        monte_carlo_mi(_perfect_system(), uniform(2), uniform(2), samples=1000, seed=0,
                       bootstrap=bootstrap)


def test_monte_carlo_without_bootstrap_keeps_the_point_estimate():
    # the replicates draw after every sample of the point estimate, so
    # skipping them leaves its bits alone (a sweep-sized binary n=16 system)
    plan = make_rate_plan(16, 0.9, FieldSpec(2))
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=draw_encoder(plan, 9))
    p_x, p_k = Distribution([0.82, 0.18]), Distribution([0.62, 0.38])
    full = monte_carlo_mi(sys_, p_x, p_k, samples=4000, seed=2024)
    bare = monte_carlo_mi(sys_, p_x, p_k, samples=4000, seed=2024, bootstrap=0)
    assert bare.std_error is None and math.isfinite(full.std_error)
    assert bare == replace(full, std_error=None)


@st.composite
def _mc_cases(draw):
    q = draw(st.sampled_from([2, 3, 5]))

    def law():
        w = draw(st.lists(st.integers(0, 9), min_size=q, max_size=q))
        w[draw(st.integers(0, q - 1))] += 1  # zeros allowed, not everywhere
        return tuple(v / sum(w) for v in w)

    return dict(
        q=q,
        n=draw(st.integers(1, {2: 8, 3: 5, 5: 3}[q])),
        R=draw(st.floats(0.2, 1.0)) * math.log2(q),
        p_x=law(),
        p_k=law(),
        encoder_seed=draw(st.integers(0, 1 << 30)),
        samples=draw(st.integers(1000, 1500)),
        seed=draw(st.integers(0, 1 << 30)),
        corrected=draw(st.booleans()),
        bootstrap=draw(st.one_of(st.just(0), st.integers(2, 12))),
    )


_BINARY_N6 = dict(q=2, n=6, R=0.9, p_x=(0.82, 0.18), p_k=(0.62, 0.38), encoder_seed=5,
                  samples=2000, seed=7, bootstrap=200)


@settings(max_examples=25, deadline=None)
@given(_mc_cases())
@example(dict(_BINARY_N6, corrected=True))
@example(dict(_BINARY_N6, corrected=False))
@example(dict(q=3, n=4, R=1.2, p_x=(0.65, 0.2, 0.15), p_k=(1.0, 0.0, 0.0), encoder_seed=1,
              samples=2000, seed=2, corrected=False, bootstrap=3))
@example(dict(q=5, n=3, R=1.5, p_x=(0.38, 0.24, 0.15, 0.12, 0.11), p_k=(0, 0, 1.0, 0, 0),
              encoder_seed=3, samples=1000, seed=4, corrected=True, bootstrap=2))
@example(dict(_BINARY_N6, corrected=True, bootstrap=0))
def test_monte_carlo_matches_sorting_oracle(case):
    # same seed, same bytes: counted cells must reproduce every bit of the
    # row-sorting estimator, zero-probability symbols and point-mass keys
    # included
    plan = make_rate_plan(case["n"], case["R"], FieldSpec(case["q"]))
    enc = draw_encoder(plan, case["encoder_seed"])
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=enc)
    p_x, p_k = Distribution(case["p_x"]), Distribution(case["p_k"])
    kwargs = {k: case[k] for k in ("samples", "seed", "corrected", "bootstrap")}
    got = monte_carlo_mi(sys_, p_x, p_k, **kwargs)
    assert got == oracles.monte_carlo_mi(sys_, p_x, p_k, **kwargs)


# The benchmark's base laws: p_X and p_K per alphabet size.
_CALIBRATION_LAWS = {
    2: ((0.82, 0.18), (0.62, 0.38)),
    3: ((0.65, 0.2, 0.15), (0.4, 0.35, 0.25)),
}


@pytest.mark.parametrize(
    "q, n, R",
    [
        pytest.param(
            2, 5, 0.9,
            marks=pytest.mark.xfail(
                strict=True,
                reason="biased high: +-3 SE covers the exact MI on 30/40 seeds "
                "(mean z 2.6); 2^11 ciphertext words against 4000 samples",
            ),
        ),
        (3, 3, 1.2),
        pytest.param(
            2, 6, 0.9,
            marks=pytest.mark.xfail(
                strict=True,
                reason="biased high: +-3 SE covers the exact MI on 0/40 seeds "
                "(mean z 11.7); about as many cells as samples, beyond what "
                "the Miller-Madow correction removes",
            ),
        ),
    ],
)
def test_monte_carlo_calibration_grid(q, n, R):
    # 40 seeds at 4000 samples against the exact value: the +-3 SE interval
    # should cover it on at least 36 (a z-score beyond 3 is a 0.3% event)
    plan = make_rate_plan(n, R, FieldSpec(q))
    search = derandomize(plan, base_seed=0)
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=search.encoder)
    p_x, p_k = (Distribution(law) for law in _CALIBRATION_LAWS[q])
    exact = exact_mutual_info(exact_laws(sys_, p_x, p_k, search)).mi_exact
    covered = 0
    for seed in range(40):
        est = monte_carlo_mi(sys_, p_x, p_k, samples=4000, seed=seed)
        covered += abs(est.estimate - exact) <= 3 * est.std_error
    assert covered >= 36, f"+-3 SE covers the exact MI on {covered}/40 seeds"


def test_birkhoff_point_mass_key():
    laws = _perfect_laws(uniform(2), Distribution([1.0, 0.0]))
    assert check_birkhoff(laws) == pytest.approx(1.0, abs=1e-12)


def test_birkhoff_uniform_key_flat_rows():
    # uniform pad over all of X^m: every row sum is |members| / q^m
    laws = _perfect_laws(uniform(2), uniform(2))
    got = check_birkhoff(laws)
    assert got == pytest.approx(laws.sys.codebook.member_count / 4, abs=1e-12)


def test_birkhoff_random_configs_below_one():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        R, seed = float(rng.uniform(0.4, 1.2)), int(rng.integers(100))
        p_k = Distribution(rng.dirichlet(np.ones(2)))
        laws = _canonical_laws(n, R, uniform(2), p_k, seed=seed)
        assert check_birkhoff(laws) <= 1.0 + 1e-12


def test_birkhoff_exact_rational_oracle():
    # row sums recomputed in exact rationals never exceed 1
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    cb = build_codebook(plan)
    enc = draw_encoder(plan, 50)
    p_frac = [Fraction(5, 8), Fraction(3, 8)]
    pad = pad_law_fraction(enc, p_frac, spec)
    words = [index_encode(encode(cb, x), spec) for x in oracles.members(cb)]
    for c in range(4):
        row = Fraction(0)
        for w in words:
            diff = []
            cc, ww = c, w
            for _ in range(2):
                cc, cd = divmod(cc, 2)
                ww, wd = divmod(ww, 2)
                diff.append((cd - wd) % 2)
            idx = diff[1] * 2 + diff[0]
            row += pad[idx]
        assert row <= 1


def test_converse_gamma_above_entropy_keeps_everything():
    p_x = Distribution([0.7, 0.3])
    laws = _canonical_laws(4, 0.9, p_x, uniform(2))
    d = converse_diagnostics(laws, gamma=entropy(p_x) + 0.05)
    assert d.nu_n == pytest.approx(0.0, abs=1e-12)
    assert d.coverage == pytest.approx(1.0 - d.measured_eps, abs=1e-12)


def test_converse_inequalities_small_matrix():
    rng = np.random.default_rng(46)
    for n in (2, 3, 4):
        for gamma in (0.05, 0.1, 0.2):
            seed = int(rng.integers(100))
            p_x = Distribution(rng.dirichlet(np.ones(2)))
            p_k = Distribution(rng.dirichlet(np.ones(2)))
            laws = _canonical_laws(n, 0.9, p_x, p_k, seed=seed)
            d = converse_diagnostics(laws, gamma=gamma)
            assert d.peak_ok
            assert d.entropy_floor_ok
            assert d.pad_entropy_cap_ok
            assert d.mi_amplification_ok
            assert d.coverage_ok
            assert d.key_rate_proof_holds
            assert d.passed


def test_converse_passed_ignores_the_display_form():
    gated = (
        "peak_ok",
        "entropy_floor_ok",
        "pad_entropy_cap_ok",
        "mi_amplification_ok",
        "coverage_ok",
        "key_rate_proof_holds",
    )
    laws = _canonical_laws(4, 0.9, Distribution([0.97, 0.03]), uniform(2))
    d = converse_diagnostics(laws, gamma=0.05)
    assert d.passed and not d.key_rate_display_holds
    assert d.to_json()["informational"] == ["key_rate_display_holds"]
    assert replace(d, key_rate_display_holds=True).passed
    for flag in gated:
        assert not replace(d, **{flag: False}).passed, flag


def test_converse_margin_formula():
    p_x = Distribution([0.9, 0.1])
    d = converse_diagnostics(_canonical_laws(4, 0.9, p_x, uniform(2)), gamma=0.1)
    shrink = 1.0 - (d.nu_n + d.measured_eps)
    want = (d.measured_eps / shrink + math.log2(1.0 / shrink)) / 4
    assert d.leak_margin == pytest.approx(want, abs=1e-12)
    want_delta = (d.measured_delta / shrink + math.log2(1.0 / shrink)) / 4
    assert d.leak_margin_delta == pytest.approx(want_delta, abs=1e-12)


def test_converse_hypotheses_gate():
    # leakage above the budget cap means the admissibility hypotheses fail
    laws = _canonical_laws(4, 0.9, Distribution([0.9, 0.1]), uniform(2))
    d = converse_diagnostics(laws, gamma=0.1)
    assert d.measured_delta > 1.0
    assert not d.hypotheses_hold
    d2 = converse_diagnostics(laws, gamma=0.1, delta_cap=10.0)
    assert d2.hypotheses_hold


def test_converse_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        converse_diagnostics(_perfect_laws(uniform(2), uniform(2)), gamma=0.0)


def test_probe_matches_brute_force_topmass():
    p_x = Distribution([0.7, 0.3])
    for n in (4, 6, 8):
        rows = strong_converse_probe(p_x, 0.6, [n])
        budget = 2 ** rows[0]["log2_size"]
        probs = sorted(
            (
                math.prod(p_x[a] for a in x)
                for x in itertools.product(range(2), repeat=n)
            ),
            reverse=True,
        )
        want = 1.0 - sum(probs[:budget])
        assert rows[0]["error"] == pytest.approx(want, abs=1e-12)


def test_probe_uniform_closed_form():
    # uniform binary source at R=0.5: error = 1 - 2^(floor(n/2) - n)
    u = uniform(2)
    rows = strong_converse_probe(u, 0.5, [2, 4, 6, 8])
    for row in rows:
        n = row["n"]
        assert row["error"] == pytest.approx(1.0 - 2.0 ** (n // 2 - n), abs=1e-12)


def test_probe_walks_types_past_the_sequence_cap():
    # q^n once capped the probe at binary n=24; it walks only the n+1 types
    p_x = Distribution([0.82, 0.18])
    rows = strong_converse_probe(p_x, 0.5, [24, 30, 40, 100, 400])
    errors = [r["error"] for r in rows]
    assert all(0.0 <= e <= 1.0 for e in errors)
    assert errors[-1] > errors[0]
    assert errors[-1] > 0.999  # below entropy the error tends to 1


def test_probe_refuses_types_outside_double_range():
    # binary n=1040 at R=0.99: the first type taken has probability 2^-1040
    with pytest.raises(FieldError, match="double range"):
        strong_converse_probe(uniform(2), 0.99, [1040])


def test_probe_rejects_rates_at_or_above_entropy():
    with pytest.raises(ValueError):
        strong_converse_probe(uniform(2), 1.0, [4])
    with pytest.raises(ValueError):
        strong_converse_probe(Distribution([0.7, 0.3]), 0.95, [4])


def test_security_bound_curve_per_symbol_decreases():
    rows = security_bound_curve(0.5, uniform(2), [4, 6, 8, 12, 16])
    per_symbol = [r["per_symbol"] for r in rows]
    assert all(b < a for a, b in zip(per_symbol, per_symbol[1:]))
    assert all(r["f_exponent"] == pytest.approx(0.5, abs=1e-6) for r in rows)


def test_security_bound_curve_takes_the_alphabet_from_the_key_law():
    # log2 bound = log2(2 R_n + 1) + log2 q + 4 q log2(n+1) - n F, q = 3 here
    p_k = uniform(3)
    (row,) = security_bound_curve(0.5, p_k, [4])
    plan = make_rate_plan(4, 0.5, FieldSpec(3))
    want = (
        math.log2(2 * plan.R_n + 1)
        + math.log2(3)
        + 12 * math.log2(5)
        - 4 * row["f_exponent"]
    )
    assert row["log2_bound"] == pytest.approx(want, abs=1e-12)


def test_exact_mi_scale_guard():
    spec = FieldSpec(2)
    plan = make_rate_plan(13, 0.5, spec)  # 2^26 pairs: past the guard
    cb = build_codebook(plan)
    enc = draw_encoder(plan, 0)
    sys_ = CipherSystem(codebook=cb, key_encoder=enc)
    with pytest.raises(FieldError):
        exact_laws(sys_, uniform(2), uniform(2))
