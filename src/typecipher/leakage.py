"""Exact and estimated security quantities for the affine cipher.

The adversary sees only the ciphertext C = phi(K) + encode(X); leakage is
measured by the mutual information I(C; X) in bits.  Because every
conditional law C | X=x is a cyclic shift of the pad law, the exact value
collapses to H(C) - H(pad), and the ciphertext law is the pad law cyclically
convolved with the codeword law over Z_q^m.  This module computes that
convolution with one transform along the m base-q digits at small scales
and estimates the leakage by sampling beyond them.

Every exact figure is a function of one system, the two source laws and,
for an encoder found by `derandomize`, its search result.  `exact_laws`
gathers them into one `ExactLaws` handle, after the MAX_EXACT_PAIRS check
and the check that the search belongs to the system's encoder;
`exact_mutual_info`, `security_certificate`, `check_birkhoff` and
`converse_diagnostics` take only that handle, so each law is computed once
per report however many figures read it.

On top of the exact value sit the certified upper bounds, checked as a
chain with explicit margins:

    I(C;X) <= m log2 q - H(pad)                       (pad divergence)
           <= sum_P class_prob(P, p_K) D(Omega_P||U)  (typewise bound)
           <= |P_n| sum_P class_prob(P, p_K) theta(P) (derandomized encoders)
           <= (R_n + 1/2) (n+1)^{3q} 2^{-n(F - gamma_n)}
            = (2 R_n + 1) q (n+1)^{4q} 2^{-n F(R|p_K)} (security bound)

with F the key-law exponent from `exponents`.  The final equality is the
identity 2^{n gamma_n} = 2 (n+1)^q q.

The converse side conditions on the high-information plaintexts that decode
correctly and checks the entropy/peak/amplification inequalities that force
H(K) to be large whenever leakage and error are both small; the strong
converse probe evaluates the best possible error of *any* code of a given
size to show rates below H(X) are hopeless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from sys import float_info
from typing import Sequence

import numpy as np

from .cipher import (
    CipherSystem,
    SearchResult,
    _encrypt_words,
    _key_pads,
    n_types,
    omega_divergences,
    pad_law,
    theta_n,
)
from .code import RatePlan, exact_error_prob, make_rate_plan
from .exponents import exponent_F
from .fields import FieldError, FieldSpec, indices_to_vectors, vectors_to_indices
from .simplex import Distribution, entropy
from .typeclasses import (
    TypeComposition,
    class_prob,
    class_size,
    enumerate_types,
    sequence_probs,
)

__all__ = [
    "MAX_EXACT_PAIRS",
    "ExactLaws",
    "exact_laws",
    "LeakageReport",
    "exact_mutual_info",
    "security_bound",
    "MonteCarloMI",
    "monte_carlo_mi",
    "check_birkhoff",
    "BoundCheck",
    "SecurityCertificate",
    "security_certificate",
    "security_bound_curve",
    "ConverseDiagnostics",
    "converse_diagnostics",
    "strong_converse_probe",
]

# Exact figures are refused past q**(2n) (key, plaintext) pairs.
MAX_EXACT_PAIRS = 1 << 24

DELTA_CAP_DEFAULT = 1.0

# Relative slack of every inequality checked in the bound chain and the
# converse diagnostics: lhs <= rhs + SLACK * max(1, |lhs|, |rhs|).
SLACK = 1e-9


def _digit_transform(
    law: np.ndarray, q: int, m: int, inverse: bool = False
) -> np.ndarray:
    """The characters of Z_q^m applied to a law over word indices.

    One pass per base-q digit: a Walsh-Hadamard butterfly when q = 2 (real,
    its own inverse up to the factor 2^-m), a q-point DFT otherwise.
    Convolution over Z_q^m becomes a pointwise product of transforms.
    """
    if q != 2:
        out = law.reshape(1, -1)
        for j in range(m):
            out = out.reshape(q**j, q, -1)
            out = np.fft.ifft(out, axis=1) if inverse else np.fft.fft(out, axis=1)
        return out.reshape(-1)
    out = np.array(law, dtype=np.float64)
    for j in range(m):
        pair = out.reshape(2**j, 2, -1)
        head = pair[:, 0].copy()
        pair[:, 0] += pair[:, 1]
        pair[:, 1] = head - pair[:, 1]
    if inverse:
        out /= 2.0**m
    return out


@dataclass(frozen=True, eq=False)
class ExactLaws:
    """One system and its two source laws: the handle of every exact figure.

    Holds the system, p_X, p_K and, when the system's encoder came from
    `derandomize`, that search result.  The pad law and its transform over
    Z_q^m are computed once, on first use; `mixture` convolves the pad law
    with any weights over word indices, so the ciphertext law, the row sums
    and the conditioned ciphertext law all reuse the one transform.  Build
    it with `exact_laws` and pass it to `exact_mutual_info`,
    `security_certificate`, `check_birkhoff` and `converse_diagnostics`.
    """

    sys: CipherSystem
    p_X: Distribution
    p_K: Distribution
    search: SearchResult | None

    @property
    def plan(self) -> RatePlan:
        return self.sys.plan

    @property
    def spec(self) -> FieldSpec:
        return self.sys.spec

    @cached_property
    def pad(self) -> np.ndarray:
        return pad_law(self.sys.key_encoder, self.p_K, self.spec)

    @cached_property
    def pad_hat(self) -> np.ndarray:
        return _digit_transform(self.pad, self.spec.q, self.plan.m)

    @cached_property
    def divergences(self) -> Sequence[tuple[TypeComposition, float]]:
        """(P, D(Omega_P || uniform)) per key type: the search's own, if any."""
        if self.search is not None:
            return self.search.divergences
        return omega_divergences(self.sys.key_encoder, self.plan)

    def mixture(self, weights: np.ndarray) -> np.ndarray:
        """sum_w weights[w] pad((. - w) mod q), over word indices.

        Negative round-off of the inverse transform is clipped to 0.
        """
        q, m = self.spec.q, self.plan.m
        hat = self.pad_hat * _digit_transform(weights, q, m)
        return np.maximum(_digit_transform(hat, q, m, inverse=True).real, 0.0)

    def codeword_weights(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Plaintext mass grouped by codeword index (non-members on x0 = 0)."""
        words, px = self.sys.codebook.rank_of + 1, self.plaintext_probs
        if mask is not None:
            words, px = words[mask], px[mask]
        return np.bincount(words, weights=px, minlength=self.spec.q**self.plan.m)

    @cached_property
    def plaintext_probs(self) -> np.ndarray:
        return sequence_probs(self.p_X, self.plan.n, self.spec)

    @cached_property
    def ciphertext(self) -> np.ndarray:
        """Law of C = phi(K) + encode(X) over word indices."""
        return self.mixture(self.codeword_weights())

    @cached_property
    def h_pad(self) -> float:
        return entropy(self.pad)

    @cached_property
    def h_ciphertext(self) -> float:
        return entropy(self.ciphertext)

    @cached_property
    def mi(self) -> float:
        """I(C; X) = H(C) - H(pad), clipped at 0 against round-off."""
        return max(0.0, self.h_ciphertext - self.h_pad)


def exact_laws(
    sys: CipherSystem,
    p_X: Distribution,
    p_K: Distribution,
    search: SearchResult | None = None,
) -> ExactLaws:
    """The handle of every exact figure of `sys` under p_X and p_K.

    `search` is the `derandomize` result that produced the system's encoder;
    given, the typewise bound reuses its divergences and the certificate
    adds the theta steps.  Refused past MAX_EXACT_PAIRS (key, plaintext)
    pairs, and for a search made for another encoder.
    """
    q, n = sys.spec.q, sys.plan.n
    if q ** (2 * n) > MAX_EXACT_PAIRS:
        raise FieldError(
            f"exact leakage over {q}^{2 * n} (key, plaintext) pairs exceeds "
            f"{MAX_EXACT_PAIRS}; use monte_carlo_mi instead"
        )
    if search is not None and search.encoder is not sys.key_encoder:
        raise ValueError("divergences were computed for another encoder")
    return ExactLaws(sys=sys, p_X=p_X, p_K=p_K, search=search)


@dataclass(frozen=True)
class LeakageReport:
    """Exact leakage of one system together with its certified upper bounds.

    `security_bound` and `f_exponent` are None when the rate plan does not
    use the canonical word length m (the exponent bound is proved only for
    that choice).
    """

    mi_exact: float
    h_pad: float
    h_ciphertext: float
    pad_divergence: float
    typewise_bound: float
    security_bound: float | None
    f_exponent: float | None
    canonical: bool

    def to_json(self) -> dict:
        return {
            "mi_exact": self.mi_exact,
            "h_pad": self.h_pad,
            "h_ciphertext": self.h_ciphertext,
            "pad_divergence": self.pad_divergence,
            "typewise_bound": self.typewise_bound,
            "security_bound": self.security_bound,
            "f_exponent": self.f_exponent,
            "canonical": self.canonical,
            "provenance": "exact",
        }


def security_bound(plan: RatePlan, f: float) -> float:
    """(2 R_n + 1) q (n+1)^{4q} 2^{-n f}, the leakage bound at exponent f."""
    n, q = plan.n, plan.q
    return (2 * plan.R_n + 1) * q * (n + 1) ** (4 * q) * 2.0 ** (-n * f)


def exact_mutual_info(laws: ExactLaws) -> LeakageReport:
    """I(C; X) from the exact ciphertext law, plus every upper bound in the chain.

    Independence of K and X and the shift structure give
    H(C | X = x) = H(pad) for every x, so I(C; X) = H(C) - H(pad) exactly;
    the ciphertext law comes from one transform over Z_q^m (`ExactLaws`).
    """
    plan = laws.plan
    typewise = sum(class_prob(P, laws.p_K) * d for P, d in laws.divergences)
    bound = None
    f_value = None
    if plan.canonical:
        f_value = exponent_F(plan.R, laws.p_K).rounded_down()
        bound = security_bound(plan, f_value)
    return LeakageReport(
        mi_exact=laws.mi,
        h_pad=laws.h_pad,
        h_ciphertext=laws.h_ciphertext,
        pad_divergence=plan.m * math.log2(plan.q) - laws.h_pad,
        typewise_bound=typewise,
        security_bound=bound,
        f_exponent=f_value,
        canonical=plan.canonical,
    )


# ----------------------------------------------------------------------
# sampling estimator
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloMI:
    estimate: float
    std_error: float | None
    samples: int
    raw_plugin: float
    corrected: bool

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "samples": self.samples,
            "raw_plugin": self.raw_plugin,
            "corrected": self.corrected,
            "provenance": "estimate",
        }


def _mi_from_counts(
    x_counts: np.ndarray,
    c_counts: np.ndarray,
    joint_counts: np.ndarray,
    n_samples: int,
    corrected: bool,
) -> float:
    def h(counts: np.ndarray) -> float:
        p = counts / n_samples
        return float(-np.sum(p * np.log2(p)))

    mi = h(x_counts) + h(c_counts) - h(joint_counts)
    if corrected:
        # Miller-Madow: each plug-in entropy is low by ~(cells-1)/(2N ln 2),
        # so the net MI bias is (K_x + K_c - K_joint - 1)/(2N ln 2) with
        # the joint term dominating; subtracting it recentres near-zero MI.
        mi += (x_counts.size + c_counts.size - joint_counts.size - 1) / (
            2.0 * n_samples * math.log(2.0)
        )
    return mi


def monte_carlo_mi(
    sys: CipherSystem,
    p_X: Distribution,
    p_K: Distribution,
    samples: int,
    seed: int,
    corrected: bool = True,
    bootstrap: int = 200,
) -> MonteCarloMI:
    """Plug-in estimate of I(C; X) from sampled pairs, with a bootstrap SE.

    Each sampled plaintext x and ciphertext c is replaced by its cell: the
    rank of its value among the distinct sampled values (the joint cell
    packs the two ranks, so it stays below samples**2 whatever q**(n+m)
    is).  Only the distinct plaintexts are encoded, by rank arithmetic
    (`Codebook.ranks`), so no member tuple is built; pads and ciphertexts
    come from the cipher's own array helpers.  The point estimate and
    each of the `bootstrap` replicates (one index redraw of all samples)
    then take their three entropies from cell counts, so a replicate costs
    O(samples + cells) and sorts nothing.  `bootstrap=0` skips the
    replicates and leaves `std_error` None; the replicates draw their
    indices after every sample the point estimate uses, so `estimate` and
    `raw_plugin` are the same bits either way.  Any other `bootstrap` below
    2 has no sample standard deviation and is refused.

    The plug-in estimator is biased upward by roughly (cells - 1)/(2N ln 2);
    the default first-order correction removes most of it, which matters
    when testing near-zero leakage.  The uncorrected value is kept in
    `raw_plugin`.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    if bootstrap != 0 and bootstrap < 2:
        raise ValueError(
            f"bootstrap must be 0 (no standard error) or at least 2, got {bootstrap}"
        )
    spec = sys.spec
    plan = sys.plan
    cb = sys.codebook
    rng = np.random.default_rng(seed)
    q = spec.q
    xs = rng.choice(q, size=(samples, plan.n), p=np.asarray(p_X))
    ks = rng.choice(q, size=(samples, plan.n), p=np.asarray(p_K))
    pads = _key_pads(sys.key_encoder, ks, spec)
    xi = vectors_to_indices(xs.astype(np.int64), spec)
    _, first, x_cell = np.unique(xi, return_index=True, return_inverse=True)
    # encode: member rank r -> word value r + 1, non-members (-1) -> x0
    words = indices_to_vectors(cb.ranks(xs[first]) + 1, plan.m, spec)[x_cell]
    ci = vectors_to_indices(_encrypt_words(sys, pads, words), spec)
    _, c_cell = np.unique(ci, return_inverse=True)
    n_c = int(c_cell.max()) + 1
    _, joint_cell = np.unique(x_cell * n_c + c_cell, return_inverse=True)
    cells = (x_cell, c_cell, joint_cell)

    def counts(idx: np.ndarray | None) -> list[np.ndarray]:
        # occupied cells only, in rank order: the counts np.unique would give
        tallies = (np.bincount(cell if idx is None else cell[idx]) for cell in cells)
        return [t[t > 0] for t in tallies]

    full = counts(None)
    point = _mi_from_counts(*full, samples, corrected)
    raw = point if not corrected else _mi_from_counts(*full, samples, False)
    reps = np.empty(bootstrap)
    for b in range(bootstrap):
        idx = rng.integers(0, samples, size=samples)
        reps[b] = _mi_from_counts(*counts(idx), samples, corrected)
    return MonteCarloMI(
        estimate=point,
        std_error=float(np.std(reps, ddof=1)) if bootstrap else None,
        samples=samples,
        raw_plugin=raw,
        corrected=corrected,
    )


# ----------------------------------------------------------------------
# row-sum (substochasticity) check
# ----------------------------------------------------------------------


def check_birkhoff(laws: ExactLaws) -> float:
    """max over ciphertexts c of sum over decodable x of Pr[encrypt(K,x)=c].

    Each conditional law is a shift of the pad law and members map to
    distinct codewords, so every row sum is at most 1 (the
    doubly-substochastic property, Birkhoff/von Neumann flavor).  Returns
    the maximum so callers can check the contract max <= 1 + 1e-12.
    """
    cb = laws.sys.codebook
    if not cb.member_count:
        return 0.0
    # members take the word values 1..member_count, one each
    weights = np.zeros(laws.spec.q**laws.plan.m)
    weights[1 : cb.member_count + 1] = 1.0
    return float(laws.mixture(weights).max())


# ----------------------------------------------------------------------
# certified bound chain
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    holds: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "holds": self.holds,
        }


# The chain steps that need the canonical word length m.
EXPONENT_STEPS = (
    "theta_vs_padded_exponent",
    "padded_equals_security_bound",
    "mi_vs_security_bound",
)


@dataclass(frozen=True)
class SecurityCertificate:
    """The bound chain checked on one system; `skipped` in the JSON names
    the exponent steps a non-canonical plan leaves out."""

    report: LeakageReport
    checks: tuple[BoundCheck, ...]
    typewise_theta_bound: float | None
    padded_exponent_bound: float | None
    derandomized: bool

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> dict:
        out = {
            "report": self.report.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "typewise_theta_bound": self.typewise_theta_bound,
            "padded_exponent_bound": self.padded_exponent_bound,
            "derandomized": self.derandomized,
            "passed": self.passed,
        }
        if not self.report.canonical:
            out["skipped"] = list(EXPONENT_STEPS)
        return out


def _le(name: str, lhs: float, rhs: float) -> BoundCheck:
    tol = SLACK * max(1.0, abs(lhs), abs(rhs))
    return BoundCheck(name=name, lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol)


def _eq(name: str, lhs: float, rhs: float) -> BoundCheck:
    tol = SLACK * max(1.0, abs(rhs))
    return BoundCheck(name=name, lhs=lhs, rhs=rhs, holds=abs(lhs - rhs) <= tol)


def security_certificate(laws: ExactLaws) -> SecurityCertificate:
    """Evaluate the whole bound chain with margins; nothing is assumed.

    Steps needing extra hypotheses are included only when they apply: the
    theta steps require an encoder whose per-type divergences were
    certified (a handle built with the `derandomize` search), and the
    exponent steps require the canonical word length.  A failing check
    falsifies the implementation, not the theory, so callers should treat
    failures as bugs.
    """
    plan = laws.plan
    derandomized = laws.search is not None
    report = exact_mutual_info(laws)
    pad = laws.pad
    direct_divergence = plan.m * math.log2(plan.q) + float(
        np.sum(pad[pad > 0] * np.log2(pad[pad > 0]))
    )

    checks: list[BoundCheck] = [
        _le("mi_nonnegative", 0.0, report.mi_exact),
        _le("mi_vs_pad_divergence", report.mi_exact, report.pad_divergence),
        _eq("pad_divergence_identity", report.pad_divergence, direct_divergence),
        _le(
            "pad_divergence_vs_typewise",
            report.pad_divergence,
            report.typewise_bound,
        ),
    ]

    theta_bound = None
    padded_bound = None
    if derandomized:
        count = n_types(plan.n, plan.q)
        theta_sum = sum(
            class_prob(P, laws.p_K) * theta_n(P, plan)
            for P in enumerate_types(plan.n, plan.spec)
        )
        theta_bound = count * theta_sum
        checks.append(_le("typewise_vs_theta", report.typewise_bound, theta_bound))
        checks.append(_le("mi_vs_theta", report.mi_exact, theta_bound))
    if plan.canonical:
        n, q = plan.n, plan.q
        padded_bound = (
            (plan.R_n + 0.5)
            * (n + 1) ** (3 * q)
            * 2.0 ** (-n * (report.f_exponent - plan.gamma_n))
        )
        if derandomized:
            checks.append(_le("theta_vs_padded_exponent", theta_bound, padded_bound))
        checks.append(
            _eq("padded_equals_security_bound", padded_bound, report.security_bound)
        )
        checks.append(
            _le("mi_vs_security_bound", report.mi_exact, report.security_bound)
        )
    return SecurityCertificate(
        report=report,
        checks=tuple(checks),
        typewise_theta_bound=theta_bound,
        padded_exponent_bound=padded_bound,
        derandomized=derandomized,
    )


def security_bound_curve(
    R: float,
    p_K: Distribution,
    n_list: Sequence[int],
) -> list[dict]:
    """log2 of the security bound across block lengths, at fixed rate.

    The raw bound carries a polynomial factor (n+1)^{4q} that dominates at
    desk-scale n, so the quantity that actually decays is the per-symbol
    value log2(bound)/n; both are reported.  The alphabet is p_K's.
    """
    q = len(p_K)
    spec = FieldSpec(q)
    f = exponent_F(R, p_K).rounded_down()
    rows = []
    for n in n_list:
        plan = make_rate_plan(int(n), R, spec)
        log_bound = (
            math.log2(2 * plan.R_n + 1)
            + math.log2(q)
            + 4 * q * math.log2(n + 1)
            - n * f
        )
        rows.append(
            {
                "n": int(n),
                "f_exponent": f,
                "log2_bound": log_bound,
                "per_symbol": log_bound / n,
            }
        )
    return rows


# ----------------------------------------------------------------------
# converse-side diagnostics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConverseDiagnostics:
    """Measured quantities behind the key-rate converse, on one system.

    Conditioning is on B = {x : information density >= H(X) - gamma and x
    decodes correctly}; `coverage` is its probability Q.  The four `*_ok`
    flags are the enumeration-checked inequalities; the key-rate fields
    evaluate the end-to-end conclusion in two instantiations of the margin
    term (error-numerator and leakage-numerator), both reported because the
    two appear in different roles in the derivation.  `passed` gates on the
    four flags, `coverage_ok` and the proof form; the display form is
    informational (it demands more than the finite-n inequalities provide).
    """

    gamma: float
    nu_n: float
    coverage: float
    measured_eps: float
    measured_delta: float
    leak_margin: float
    leak_margin_delta: float
    max_conditional: float
    conditional_cap: float
    peak_ok: bool
    h_cond_ciphertext: float
    entropy_floor: float
    entropy_floor_ok: bool
    h_pad: float
    pad_entropy_cap: float
    pad_entropy_cap_ok: bool
    conditional_mi: float
    amplified_mi: float
    mi_amplification_ok: bool
    coverage_floor: float
    coverage_ok: bool
    h_x: float
    h_k: float
    key_rate_display_rhs: float
    key_rate_display_holds: bool
    key_rate_proof_rhs: float
    key_rate_proof_holds: bool
    hypotheses_hold: bool
    degenerate: bool

    @property
    def passed(self) -> bool:
        return (
            self.peak_ok
            and self.entropy_floor_ok
            and self.pad_entropy_cap_ok
            and self.mi_amplification_ok
            and self.coverage_ok
            and self.key_rate_proof_holds
        )

    def to_json(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["informational"] = ["key_rate_display_holds"]
        return out


def converse_diagnostics(
    laws: ExactLaws, gamma: float, delta_cap: float = DELTA_CAP_DEFAULT
) -> ConverseDiagnostics:
    """Exhaustive evaluation of the converse inequalities at small scale.

    gamma > 0 widens the set of "typical enough" plaintexts; nu_n is the
    mass it misses.  With Q the mass that is both typical and decodable,
    the checks certify: the conditioned ciphertext law has no point mass
    above Q^{-1} 2^{-n(H(X)-gamma)}; its entropy is at least
    n(H(X)-gamma) + log2 Q; the conditional entropy given the plaintext is
    exactly H(pad) <= n H(K); and Q^{-1} I(C;X) dominates the conditioned
    mutual information.  The key-rate conclusion is evaluated in display
    form H(K) >= H(X) + gamma + margin (recorded, not asserted — it demands
    more than the finite-n inequalities provide) and in the proof's form
    H(K) >= H(X) - gamma - margin_delta.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = laws.plan.n
    h_x = entropy(laws.p_X)
    h_k = entropy(laws.p_K)

    px = laws.plaintext_probs
    with np.errstate(divide="ignore"):
        info = -np.log2(px) / n
    typical = info >= h_x - gamma - 1e-12
    nu_n = float(px[~typical].sum())
    retained = typical & (laws.sys.codebook.rank_of >= 0)
    coverage = float(px[retained].sum())
    measured_eps = exact_error_prob(laws.sys.codebook, laws.p_X)

    h_pad = laws.h_pad
    measured_delta = laws.mi

    nu_tilde = nu_n + measured_eps
    if nu_tilde < 1.0:
        shrink = 1.0 - nu_tilde
        leak_margin = (measured_eps / shrink + math.log2(1.0 / shrink)) / n
        leak_margin_delta = (measured_delta / shrink + math.log2(1.0 / shrink)) / n
    else:
        leak_margin = math.inf
        leak_margin_delta = math.inf

    degenerate = coverage <= 0.0
    amplified = math.inf if degenerate else measured_delta / coverage
    if degenerate:
        max_conditional = 0.0
        conditional_cap = math.inf
        h_cond = 0.0
        entropy_floor = -math.inf
        conditional_mi = 0.0
        peak_ok = entropy_ok = amplification_ok = True
    else:
        q_cond = laws.mixture(laws.codeword_weights(mask=retained)) / coverage
        max_conditional = float(q_cond.max())
        conditional_cap = 2.0 ** (-n * (h_x - gamma)) / coverage
        peak_ok = max_conditional <= conditional_cap * (1 + SLACK)
        h_cond = entropy(q_cond)
        entropy_floor = n * (h_x - gamma) + math.log2(coverage)
        entropy_ok = h_cond >= entropy_floor - SLACK * max(1.0, abs(entropy_floor))
        conditional_mi = max(0.0, h_cond - h_pad)
        amplification_ok = conditional_mi <= amplified + SLACK * max(1.0, amplified)

    pad_entropy_cap = n * h_k
    pad_cap_ok = h_pad <= pad_entropy_cap + SLACK * max(1.0, pad_entropy_cap)
    coverage_floor = 1.0 - nu_n - measured_eps
    coverage_ok = coverage >= coverage_floor - SLACK

    hypotheses = 0.0 < measured_eps < 1.0 and 0.0 < measured_delta <= delta_cap
    display_rhs = h_x + gamma + leak_margin
    proof_rhs = h_x - gamma - leak_margin_delta

    return ConverseDiagnostics(
        gamma=gamma,
        nu_n=nu_n,
        coverage=coverage,
        measured_eps=measured_eps,
        measured_delta=measured_delta,
        leak_margin=leak_margin,
        leak_margin_delta=leak_margin_delta,
        max_conditional=max_conditional,
        conditional_cap=conditional_cap,
        peak_ok=peak_ok,
        h_cond_ciphertext=h_cond,
        entropy_floor=entropy_floor,
        entropy_floor_ok=entropy_ok,
        h_pad=h_pad,
        pad_entropy_cap=pad_entropy_cap,
        pad_entropy_cap_ok=pad_cap_ok,
        conditional_mi=conditional_mi,
        amplified_mi=amplified,
        mi_amplification_ok=amplification_ok,
        coverage_floor=coverage_floor,
        coverage_ok=coverage_ok,
        h_x=h_x,
        h_k=h_k,
        key_rate_display_rhs=display_rhs,
        key_rate_display_holds=h_k >= display_rhs,
        key_rate_proof_rhs=proof_rhs,
        key_rate_proof_holds=h_k >= proof_rhs,
        hypotheses_hold=hypotheses,
        degenerate=degenerate,
    )


# ----------------------------------------------------------------------
# strong-converse probe for plain source coding
# ----------------------------------------------------------------------


def _stable_floor(v: float) -> int:
    f = math.floor(v)
    if v - f > 1.0 - 1e-9:
        f += 1
    return f


def strong_converse_probe(
    p_X: Distribution, R: float, n_list: Sequence[int]
) -> list[dict]:
    """Best achievable error of ANY size-2^{floor(nR)} code, per block length.

    The optimum keeps the 2^{floor(nR)} most probable sequences, so the
    error is one minus that top mass, computed per type (all sequences of a
    type share one probability).  Below-entropy rates drive it to 1.

    The walk covers the O(n^(q-1)) types, never the q^n sequences.  Each
    type adds take * 2**logp in double precision, so the probe refuses to
    take a type whose sequence probability 2**logp is below the smallest
    normal double (class sizes then no longer fit a float either; binary
    n past about 1030).
    """
    h = entropy(p_X)
    if R >= h:
        raise ValueError(f"rate {R} is not below the source entropy {h:.6f}")
    q = len(p_X)
    spec = FieldSpec(q)
    p = np.asarray(p_X)
    out = []
    for n in n_list:
        n = int(n)
        log_size = _stable_floor(n * R)
        budget = 2**log_size
        per_type = []
        for P in enumerate_types(n, spec):
            if any(c > 0 and p[a] == 0 for a, c in enumerate(P.counts)):
                continue
            logp = sum(c * math.log2(p[a]) for a, c in enumerate(P.counts) if c > 0)
            per_type.append((logp, class_size(P)))
        per_type.sort(key=lambda t: -t[0])
        mass = 0.0
        remaining = budget
        for logp, size in per_type:
            take = min(size, remaining)
            # A normal 2**logp also keeps take <= 2**-logp below 2**1022.
            if logp < float_info.min_exp - 1:
                raise FieldError(
                    f"converse probe at n={n}: a type's mass take * 2**logp "
                    f"(logp {logp:.1f}) leaves the normal double range "
                    f"(logp >= {float_info.min_exp - 1}) the probe computes in"
                )
            mass += take * 2.0**logp
            remaining -= take
            if remaining == 0:
                break
        out.append({"n": n, "log2_size": log_size, "error": max(0.0, 1.0 - mass)})
    return out
