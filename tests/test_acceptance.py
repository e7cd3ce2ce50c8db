"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single PASS/FAIL line
(visible with -v through the test outcome, and with -s through stdout).
The key-rate display-form criterion is known not to hold at these block
lengths; its test states the required inequality faithfully and is
expected to fail.  See the converse tests for the form that does hold.
"""

import math
import time

import numpy as np
import pytest

import oracles
from typecipher.cipher import (
    CipherSystem,
    check_decryption_condition,
    derandomize,
    draw_encoder,
    make_encoder,
    n_types,
    omega_divergences,
    theta_n,
)
from typecipher.code import build_codebook, exact_error_prob, explicit_m_plan, make_rate_plan
from typecipher.exponents import exponent_E, exponent_F, positivity_region
from typecipher.fields import FieldSpec
from typecipher.leakage import (
    check_birkhoff,
    converse_diagnostics,
    exact_laws,
    exact_mutual_info,
    security_certificate,
    strong_converse_probe,
)
from typecipher.simplex import Distribution, entropy, uniform


def _verdict(label: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"{label} exceeded {budget}s budget ({elapsed:.2f}s)"


def _system(n, R, q=2, seed=0):
    """A system with the encoder drawn at `seed`."""
    plan = make_rate_plan(n, R, FieldSpec(q))
    return CipherSystem(codebook=build_codebook(plan), key_encoder=draw_encoder(plan, seed))


def _derandomized_laws(n, R, px, pk, seed=0):
    """Exact laws of a binary system whose encoder `derandomize` found."""
    plan = make_rate_plan(n, R, FieldSpec(2))
    search = derandomize(plan, base_seed=seed)
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=search.encoder)
    return exact_laws(sys_, Distribution(px), Distribution(pk), search)


def test_a01_decryption_condition_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for q, n_range in ((2, range(2, 9)), (3, range(2, 5))):
        for n in n_range:
            # the q^2 digit table, and every key/message pair through the
            # tuple oracle
            sys_ = _system(n, 0.9, q=q, seed=1)
            if not (check_decryption_condition(sys_) and oracles.check_decryption_condition(sys_)):
                failures.append((q, n))
    _verdict("criterion 01 decryption-condition", not failures, t0, 5.0)
    assert not failures, failures


def test_a02_rate_window():
    t0 = time.perf_counter()
    failures = []
    for q in (2, 3, 5):
        spec = FieldSpec(q)
        lg = math.log2(q)
        for n in range(1, 65):
            for R in [round(0.1 * i, 10) for i in range(1, 16)]:
                plan = make_rate_plan(n, R, spec)
                rate = plan.m * lg / n
                if not (plan.R_n - lg / n - 1e-12 <= rate <= plan.R_n + 1e-12):
                    failures.append((q, n, R))
    _verdict("criterion 02 rate-window", not failures, t0, 1.0)
    assert not failures, failures[:5]


def test_a03_reliability_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    spec = FieldSpec(2)
    failures = []
    for _ in range(20):
        p_x = Distribution(rng.dirichlet(np.ones(2)))
        for _ in range(5):
            R = float(rng.uniform(0.1, 1.3))
            e_val = oracles.grid_E(R, p_x).value
            for n in (4, 8, 12):
                plan = make_rate_plan(n, R, spec)
                cb = build_codebook(plan)
                p_e = exact_error_prob(cb, p_x)
                bound = (n + 1) ** 2 * 2.0 ** (-n * (e_val - 1e-4))
                if p_e > bound + 1e-12:
                    failures.append((tuple(p_x), R, n, p_e, bound))
    _verdict("criterion 03 reliability-bound", not failures, t0, 30.0)
    assert not failures, failures[:3]


def test_a04_security_bound_chain():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3, 4):
        for R in (0.6, 0.9):
            for px in ((0.9, 0.1), (0.8, 0.2)):
                for pk in ((0.5, 0.5), (0.7, 0.3)):
                    cert = security_certificate(_derandomized_laws(n, R, px, pk, seed=n))
                    for c in cert.checks:
                        if not c.holds:
                            failures.append((n, R, px, pk, c.name, c.lhs, c.rhs))
    _verdict("criterion 04 security-bound-chain", not failures, t0, 60.0)
    assert not failures, failures[:3]


def test_a05_perfect_secrecy():
    t0 = time.perf_counter()
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    cb = build_codebook(plan)
    enc = make_encoder([[1, 0], [0, 1], [0, 0]], (0, 0), spec)
    sys_ = CipherSystem(codebook=cb, key_encoder=enc)
    mi = exact_mutual_info(exact_laws(sys_, Distribution([0.7, 0.3]), uniform(2))).mi_exact
    ok = mi <= 1e-10
    _verdict("criterion 05 perfect-secrecy", ok, t0, 1.0)
    assert ok, mi


def test_a06_birkhoff_row_sums():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    failures = []
    for _ in range(20):
        n = int(rng.integers(2, 5))
        sys_ = _system(n, float(rng.uniform(0.4, 1.2)), seed=int(rng.integers(1000)))
        p_k = Distribution(rng.dirichlet(np.ones(2)))
        worst = check_birkhoff(exact_laws(sys_, uniform(2), p_k))
        if worst > 1.0 + 1e-12:
            failures.append((n, tuple(p_k), worst))
    _verdict("criterion 06 birkhoff-row-sums", not failures, t0, 10.0)
    assert not failures, failures


def test_a07_mean_divergence_vs_theta():
    t0 = time.perf_counter()
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 3, spec)
    samples: dict = {}
    for seed in range(2000):
        enc = draw_encoder(plan, seed)
        for P, div in omega_divergences(enc, plan):
            samples.setdefault(P.counts, []).append(div)
    failures = []
    for counts, divs in samples.items():
        arr = np.asarray(divs)
        se = arr.std(ddof=1) / math.sqrt(arr.size)
        theta = theta_n(
            next(P for P, _ in omega_divergences(draw_encoder(plan, 0), plan)
                 if P.counts == counts),
            plan,
        )
        if arr.mean() > theta + 3 * se:
            failures.append((counts, arr.mean(), theta, se))
    _verdict("criterion 07 mean-divergence-vs-theta", not failures, t0, 30.0)
    assert not failures, failures


def test_a08_derandomization_certificate():
    t0 = time.perf_counter()
    spec = FieldSpec(2)
    failures = []
    for n in range(2, 7):
        for m in range(1, 5):
            plan = explicit_m_plan(n, m, spec)
            result = derandomize(plan, max_attempts=1000, base_seed=0)
            count = n_types(n, 2)
            for P, div in omega_divergences(result.encoder, plan):
                cap = count * theta_n(P, plan)
                if div > cap + 1e-12:
                    failures.append((n, m, P.counts, div, cap))
    _verdict("criterion 08 derandomization", not failures, t0, 60.0)
    assert not failures, failures[:3]


def test_a09_exponent_solvers():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    failures = []
    # tilted vs grid on random binary and ternary pairs
    for i in range(50):
        q = 2 if i < 30 else 3
        p = Distribution(rng.dirichlet(np.ones(q)))
        R = float(rng.uniform(0.05, math.log2(q) - 0.05))
        for fn, grid, tag in ((exponent_E, oracles.grid_E, "E"), (exponent_F, oracles.grid_F, "F")):
            a = fn(R, p).value
            b = grid(R, p).value
            if abs(a - b) > 1e-3:
                failures.append((tag, tuple(p), R, a, b))
    # uniform-key security exponent is linear in the rate
    for q in (2, 3):
        for R in np.linspace(0.05, math.log2(q) - 0.05, 10):
            got = exponent_F(float(R), uniform(q)).value
            if abs(got - (math.log2(q) - R)) > 1e-6:
                failures.append(("F-uniform", q, float(R), got))
    # no error exponent at or below the source entropy
    for _ in range(10):
        p = Distribution(rng.dirichlet(np.ones(2)))
        h = entropy(p)
        for R in (h * float(rng.uniform(0.2, 1.0)), h):
            if R > 0 and abs(exponent_E(R, p).value) > 1e-9:
                failures.append(("E-zero", tuple(p), R))
    # joint positivity region is exactly the open entropy window
    px, pk = Distribution([0.8, 0.2]), Distribution([0.6, 0.4])
    hx, hk = entropy(px), entropy(pk)
    for row in positivity_region(px, pk, list(np.linspace(0.005, 1.0, 200))):
        if row["E_positive"] != (row["R"] > hx) or row["F_positive"] != (row["R"] < hk):
            failures.append(("region", row["R"]))
    _verdict("criterion 09 exponent-solvers", not failures, t0, 30.0)
    assert not failures, failures[:5]


def _converse_matrix():
    configs = []
    for n in (2, 3, 4):
        for gamma in (0.05, 0.1, 0.2):
            for px in ((0.9, 0.1), (0.7, 0.3)):
                configs.append((n, 0.9, px, (0.5, 0.5), gamma))
    configs.append((4, 0.9, (0.97, 0.03), (0.5, 0.5), 0.05))
    configs.append((4, 0.7, (0.8, 0.2), (0.7, 0.3), 0.1))
    for n, R, px, pk, gamma in configs:
        laws = _derandomized_laws(n, R, px, pk, seed=0)
        yield (n, R, px, pk, gamma), converse_diagnostics(laws, gamma=gamma)


def test_a10_converse_inequalities():
    t0 = time.perf_counter()
    failures = []
    for cfg, d in _converse_matrix():
        flags = {
            "peak": d.peak_ok,
            "entropy_floor": d.entropy_floor_ok,
            "pad_entropy_cap": d.pad_entropy_cap_ok,
            "mi_amplification": d.mi_amplification_ok,
            "coverage": d.coverage_ok,
        }
        for name, ok in flags.items():
            if not ok:
                failures.append((cfg, name))
        if not d.key_rate_proof_holds:
            failures.append((cfg, "key_rate_proof"))
    _verdict("criterion 10a converse-inequalities", not failures, t0, 60.0)
    assert not failures, failures


def test_a10_key_rate_display():
    # Known failure.  The display-form conclusion H(K) >= H(X) + gamma +
    # margin is required here whenever 0 < eps < 1 and 0 < delta <= 1, but
    # at these block lengths the margin term exceeds the available room for
    # every admissible configuration (e.g. n=4, p_X=(0.97,0.03): H(K)=1
    # versus a right-hand side above 1.05).  The sign-flipped proof form is
    # asserted in test_a10_converse_inequalities and holds everywhere.
    t0 = time.perf_counter()
    failures = []
    applicable = 0
    for cfg, d in _converse_matrix():
        if not d.hypotheses_hold:
            continue
        applicable += 1
        if not d.key_rate_display_holds:
            failures.append((cfg, d.h_k, d.key_rate_display_rhs))
    assert applicable > 0
    _verdict("criterion 10b key-rate-display", not failures, t0, 60.0)
    assert not failures, failures[:3]


def test_a11_strong_converse_probe():
    t0 = time.perf_counter()
    rows = strong_converse_probe(Distribution([0.7, 0.3]), 0.6, [4, 8, 12, 16, 20])
    errors = [r["error"] for r in rows]
    ok = all(b >= a - 1e-12 for a, b in zip(errors, errors[1:])) and errors[-1] > 0.5
    _verdict("criterion 11 strong-converse-probe", ok, t0, 10.0)
    assert ok, errors
