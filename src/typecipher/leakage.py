"""Exact and estimated security quantities for the affine cipher.

The adversary sees only the ciphertext C = phi(K) + encode(X); leakage is
measured by the mutual information I(C; X) in bits.  Because every
conditional law C | X=x is a cyclic shift of the pad law, the exact value
collapses to H(C) - H(pad), and the ciphertext law is the pad law cyclically
convolved with the codeword law over Z_q^m.

Every pad kA + b lies on one coset b + V of V = rowspace(A), which has only
q**r points (r = rank A <= n), so the exact laws live on the cosets of V.
A is row-reduced once over Z_q; each word w then has a label (which coset
it is on, w[~P] - w[P] B[:, ~P] for the reduced basis B and its pivot
columns P) and a coordinate (where on it, w[P]).  A ciphertext's label is
b's plus its codeword's, so the codewords in use split by label, and each
occupied coset is the pad's coordinate law convolved over Z_q^r with the
weights of the codewords on it: all such cosets go through one batched
transform along the r base-q digits (r rotated passes over contiguous rows:
a butterfly for q = 2, one product with the q x q character table
otherwise), and a coset holding a single codeword is the pad itself, scaled
and moved, with no transform.  No array over the q**m words is built.
Under a uniform key the pad is uniform on its coset, so every ciphertext
coset law is uniform and I(C;X) = H(J), the entropy of the coset masses:
each occupied coset is one such single, and neither a key pass nor a
transform runs.  Beyond the exact path's caps the leakage is estimated by
sampling.

Every exact figure is a function of one system, the two source laws and,
for an encoder found by `derandomize`, its search result.  `exact_laws`
gathers them into one `ExactLaws` handle, after checking that the search
belongs to the system's encoder; `exact_mutual_info`,
`security_certificate`, `check_birkhoff` and `converse_diagnostics` take
only that handle, so each law is computed once per report however many
figures read it.  One cap, `fields.MAX_ENUM`, bounds the exact path: the
q**n keys and, for a key law that is not uniform, the q**m words must be
within it, and `exact_refusal` reads both sizes from the plan and the key
law before anything is built.  The command line's one exact-or-sampled
gate, `cli._system`, first checks that the words have an int64 index,
which both paths need whatever the key law, then asks `exact_refusal`.

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
from functools import cached_property
from sys import float_info
from typing import Sequence

import numpy as np

from .cipher import (
    AffineEncoder,
    CipherSystem,
    SearchResult,
    _bounded,
    _choice,
    _encrypt_words,
    _PCG64,
    _key_pads,
    _row_reduce,
    n_types,
    omega_divergences,
    pad_law,
    theta_n,
)
from .code import RatePlan, _check_rate, exact_error_prob, make_rate_plan
from .exponents import exponent_F
from .fields import (
    FieldError,
    FieldSpec,
    Record,
    _check_enum,
    _power,
    indices_to_vectors,
    vectors_to_indices,
)
from .simplex import Distribution, entropy
from .typeclasses import (
    TypeComposition,
    class_prob,
    class_size,
    enumerate_types,
)

__all__ = [
    "exact_refusal",
    "CosetMixture",
    "ExactLaws",
    "exact_laws",
    "LeakageReport",
    "exact_mutual_info",
    "security_bound",
    "scaled_power",
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

DELTA_CAP_DEFAULT = 1.0

# Relative slack of every inequality checked in the bound chain and the
# converse diagnostics: lhs <= rhs + SLACK * max(1, |lhs|, |rhs|).
SLACK = 1e-9


def _digit_transform(
    law: np.ndarray, q: int, m: int, inverse: bool = False
) -> np.ndarray:
    """The characters of Z_q^m applied along the last axis of `law`: one law
    over word indices, or a stack of them (a leading batch axis).

    One pass per base-q digit, each on contiguous rows: the leading digit is
    axis 1 of `out.reshape(batch, q, -1)`, and the q x q character table
    applied to it is written with that digit moved to the back, so after m
    passes the digits are in their original order again.  For q = 2 the
    table is the Walsh-Hadamard butterfly (real, its own inverse up to the
    factor 2^-m); otherwise it is exp(-2 pi i ab/q) (+ for the inverse), one
    matrix product per pass.  Convolution over Z_q^m becomes a pointwise
    product of transforms.
    """
    shape = np.shape(law)
    if q == 2:
        out = np.array(law, dtype=np.float64)
    else:
        out = np.array(law, dtype=np.complex128)
        digits = np.arange(q)
        sign = 2j if inverse else -2j
        table = np.exp(sign * np.pi / q * (np.outer(digits, digits) % q))
    out = out.reshape(-1, q**m)
    batch = out.shape[0]
    buf = np.empty_like(out)
    for _ in range(m):
        rows, dst = out.reshape(batch, q, -1), buf.reshape(batch, -1, q).transpose(0, 2, 1)
        if q == 2:
            np.add(rows[:, 0], rows[:, 1], out=dst[:, 0])
            np.subtract(rows[:, 0], rows[:, 1], out=dst[:, 1])
        else:
            np.matmul(table, rows, out=dst)
        out, buf = buf, out
    if inverse:
        out /= q**m
    return out.reshape(shape)


def _is_uniform(p: Distribution) -> bool:
    """Whether every entry of p is the same number."""
    return len(set(p)) == 1


def exact_refusal(plan: RatePlan, p_K: Distribution) -> FieldError | None:
    """None where `plan` and the key law p_K are within the exact path's
    cap, otherwise the FieldError naming the space past it, the cap and the
    way out (sampling), the words checked first.  Reads the sizes only;
    builds nothing.

    Every key law needs q**n keys within `fields.MAX_ENUM`: the pad over
    Z_q^r (r <= n) and a rank-deficient `derandomize` draw's key pass are
    that large at most.  A non-uniform p_K also needs its q**m words within
    the same cap, which bounds the coset rows of `ExactLaws.mixture`; a
    uniform p_K builds no coset row and reads no word cap.  That the words
    have an int64 index, which the sampled path needs as well, is checked
    before this gate (`cli._system`), not by it.
    """
    q, sampled = plan.q, "past it `exact-mi --samples N` and `sweep` estimate the leakage"
    try:
        if not _is_uniform(p_K):
            _check_enum(_power(q, plan.m), f"word space {q}^{plan.m}", sampled)
        _check_enum(_power(q, plan.n), f"{q}^{plan.n} keys", sampled)
    except FieldError as exc:
        return exc
    return None


class CosetMixture:
    """A mixture of shifted pads, sum_w weights[w] pad((. - w) mod q), held
    on the cosets of V = rowspace(A) that it occupies.

    Row i of `laws` is the mass over the q**r coordinates of the coset of the
    codewords labelled `labels[i]` (the ciphertexts lie on the coset whose
    label is that plus the label of b).  A coset that holds a single
    codeword w is the pad scaled by w's weight and moved by w's coordinate:
    it is kept as (`single_labels`, `single_coords`, `single_weights`), with
    no transform; so is every occupied coset under a uniform pad, at
    coordinate 0 with its total weight.  Every other word has mass 0, so
    `max` and `entropy` read the rows and the singles only.
    """

    def __init__(
        self,
        laws: np.ndarray,
        labels: np.ndarray,
        singles: tuple[np.ndarray, np.ndarray, np.ndarray],
        pad: np.ndarray,
        h_pad: float,
    ):
        self.laws, self.labels, self.pad, self.h_pad = laws, labels, pad, h_pad
        self.single_labels, self.single_coords, self.single_weights = singles

    @property
    def max(self) -> float:
        singles = float(self.single_weights.max(initial=0.0)) * float(self.pad.max())
        return max(float(self.laws.max(initial=0.0)), singles)

    @property
    def entropy(self) -> float:
        # a single codeword of weight s adds -sum s p log2(s p) = s (H(pad) - log2 s)
        s = self.single_weights
        return entropy(self.laws) + float(np.sum(s * (self.h_pad - np.log2(s))))


class ExactLaws(Record):
    """One system and its two source laws: the handle of every exact figure.

    Holds the system, p_X, p_K and, when the system's encoder came from
    `derandomize`, that search result.  A is row-reduced once, by the search
    if any (`reduced`: the basis B of V = rowspace(A), pivot columns P and
    r = rank A); `pad` is the law of the pad's coordinate over Z_q^r, one
    key pass over the columns P, and its transform is computed once.
    `mixture` convolves it with weights over the codewords in use (word
    values 0..member_count), coset by coset (`cells` holds each codeword's
    label and coordinate), so the ciphertext law, the row sums and the
    conditioned ciphertext law all reuse the one pad transform.  The
    plaintext side is read from the types (`codeword_weights`), so only the
    pad visits the q**n sequences, as keys.

    A uniform p_K (`uniform_key`) makes the cipher a one-time pad on each
    coset: k -> k A[:, P] maps the uniform keys onto Z_q^r, so the pad is
    the constant q**-r with no key pass, and a uniform pad moved by any
    coordinate is itself, so each occupied coset of a mixture is the pad
    scaled by the coset's mass, with no transform; I(C;X) is then H(J),
    the entropy of the ciphertext's coset.

    Build it with `exact_laws` and pass it to `exact_mutual_info`,
    `security_certificate`, `check_birkhoff` and `converse_diagnostics`.
    """

    sys: CipherSystem
    p_X: Distribution
    p_K: Distribution
    search: SearchResult | None

    # equal only to itself: a handle on the figures it caches
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def plan(self) -> RatePlan:
        return self.sys.plan

    @property
    def spec(self) -> FieldSpec:
        return self.sys.spec

    @cached_property
    def reduced(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """(B, P): the row-reduced basis of V = rowspace(A) and its pivots,
        the search's own, if any."""
        if self.search is not None:
            return self.search.reduced
        return _row_reduce(self.sys.key_encoder.A, self.spec.q)

    @property
    def rank(self) -> int:
        """r = rank A = dim V: each coset has q**r points."""
        return len(self.reduced[1])

    @cached_property
    def uniform_key(self) -> bool:
        """Whether p_K is exactly uniform (all entries equal)."""
        return _is_uniform(self.p_K)

    @cached_property
    def pad(self) -> np.ndarray:
        """Law of the pad's coordinate k A[:, P] + b[P] over Z_q^r."""
        if self.uniform_key:
            size = self.spec.q**self.rank
            return np.full(size, 1.0 / size)
        enc, pivots = self.sys.key_encoder, list(self.reduced[1])
        coordinate = AffineEncoder(A=enc.A[:, pivots], b=tuple(enc.b[c] for c in pivots))
        return pad_law(coordinate, self.p_K, self.spec)

    @cached_property
    def pad_hat(self) -> np.ndarray:
        return _digit_transform(self.pad, self.spec.q, self.rank)

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(label, coordinate) indices of each codeword in use, by word value."""
        basis, pivots = self.reduced
        spec = self.spec
        free = [c for c in range(self.plan.m) if c not in pivots]
        words = np.arange(self.sys.codebook.member_count + 1)
        words = indices_to_vectors(words, self.plan.m, spec)
        coords = words[:, list(pivots)]
        labels = (words[:, free] - coords @ basis[:, free]) % spec.q
        return vectors_to_indices(labels, spec), vectors_to_indices(coords, spec)

    @cached_property
    def divergences(self) -> Sequence[tuple[TypeComposition, float]]:
        """(P, D(Omega_P || uniform)) per key type: the search's own, if any."""
        if self.search is not None:
            return self.search.divergences
        return omega_divergences(self.sys.key_encoder, self.plan)

    @cached_property
    def cosets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The codewords in use grouped by label: their order in a stable
        sort of the labels, where each label's run starts in that order,
        and the run's label.  Sorted, not counted: the q**(m - r) labels
        need not fit an array under a uniform key, and a cold `np.unique`
        costs about twice the sort."""
        labels = self.cells[0]
        order = labels.argsort(kind="stable")
        labels = labels[order]
        first = np.empty(len(labels), dtype=bool)
        first[:1] = True
        np.not_equal(labels[1:], labels[:-1], out=first[1:])
        starts = first.nonzero()[0]
        return order, starts, labels[starts]

    def mixture(self, weights: np.ndarray) -> CosetMixture:
        """sum_w weights[w] pad((. - w) mod q) over the codewords w in use.

        The codewords with positive weight are grouped by label; each coset
        holding two or more is a row of their weights over the coordinates,
        and all rows go through one batched transform over Z_q^r, times the
        pad's.  Negative round-off of the inverse transform is clipped to 0.
        Under a uniform key every occupied coset is a single instead: its
        label, coordinate 0 and its total weight (`cosets`).
        """
        q, r = self.spec.q, self.rank
        if self.uniform_key:
            order, starts, labels = self.cosets
            mass = np.add.reduceat(weights[order], starts)
            held = mass > 0
            labels = labels[held]
            singles = labels, np.zeros(len(labels), dtype=np.int64), mass[held]
            return CosetMixture(np.empty((0, q**r)), labels[:0], singles, self.pad, self.h_pad)
        keep = weights > 0
        labels, coords = (a[keep] for a in self.cells)
        weights = weights[keep]
        size = np.bincount(labels)
        single = size[labels] == 1
        shared = size > 1
        # the row of each coset holding two or more codewords, in label order
        row = np.cumsum(shared) - 1
        grid = np.bincount(
            row[labels[~single]] * q**r + coords[~single],
            weights=weights[~single],
            minlength=int(shared.sum()) * q**r,
        ).reshape(-1, q**r)
        if len(grid):
            hat = _digit_transform(grid, q, r)
            hat *= self.pad_hat
            grid = np.maximum(_digit_transform(hat, q, r, inverse=True).real, 0.0)
        singles = labels[single], coords[single], weights[single]
        return CosetMixture(grid, np.flatnonzero(shared), singles, self.pad, self.h_pad)

    @cached_property
    def p_e(self) -> float:
        """Pr[X^n outside the codebook] (`exact_error_prob`)."""
        return exact_error_prob(self.sys.codebook, self.p_X)

    def codeword_weights(self, types: set | None = None) -> np.ndarray:
        """Plaintext mass on each word value 0..member_count, read from the
        types: x0 carries p_e (every non-member encodes to it), and the
        members of a type hold consecutive ranks, each with the type's
        sequence probability p^n(P) = prod_a p(a)**c_a.  Given a set of
        types, only the members of those types carry mass (x0 none)."""
        cb = self.sys.codebook
        probs = np.prod(np.asarray(self.p_X) ** [P.counts for P in cb.member_types], axis=1)
        if types is not None:
            probs *= [P in types for P in cb.member_types]
        head = self.p_e if types is None else 0.0
        return np.concatenate(([head], np.repeat(probs, [class_size(P) for P in cb.member_types])))

    @cached_property
    def ciphertext(self) -> CosetMixture:
        """Law of C = phi(K) + encode(X), on the cosets it occupies."""
        return self.mixture(self.codeword_weights())

    @cached_property
    def h_pad(self) -> float:
        return entropy(self.pad)

    @cached_property
    def h_ciphertext(self) -> float:
        return self.ciphertext.entropy

    @cached_property
    def mi(self) -> float:
        """I(C; X) = H(C) - H(pad), clipped at 0 against round-off.  Under a
        uniform key it is H(J), the entropy of the ciphertext's coset masses
        (normalized, so a single coset reads exactly 0)."""
        if self.uniform_key:
            mass = self.ciphertext.single_weights
            return entropy(mass / mass.sum())
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
    adds the theta steps.  Refused for a search made for another encoder.
    """
    if search is not None and search.encoder is not sys.key_encoder:
        raise ValueError("divergences were computed for another encoder")
    return ExactLaws(sys=sys, p_X=p_X, p_K=p_K, search=search)


def _fields_json(report, **extra) -> dict:
    """A report record's fields by name, plus the `extra` keys."""
    return {k: getattr(report, k) for k in report._fields} | extra


class LeakageReport(Record):
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
        return _fields_json(self, provenance="exact")


def scaled_power(coef: float, base: int, power: int, exponent: float) -> float:
    """coef * base**power * 2**exponent, for coef > 0, as the plain float
    expression while the integer base**power converts to a float.  Past
    that (large q), from its log2: the value when it is a finite double,
    inf above the double range."""
    try:
        return coef * base**power * 2.0**exponent
    except OverflowError:
        log2 = math.log2(coef) + power * math.log2(base) + exponent
        return 2.0**log2 if log2 < float_info.max_exp else math.inf


def security_bound(plan: RatePlan, f: float) -> float:
    """(2 R_n + 1) q (n+1)^{4q} 2^{-n f}, the leakage bound at exponent f."""
    n, q = plan.n, plan.q
    return scaled_power((2 * plan.R_n + 1) * q, n + 1, 4 * q, -n * f)


def exact_mutual_info(laws: ExactLaws) -> LeakageReport:
    """I(C; X) from the exact ciphertext law, plus every upper bound in the chain.

    Independence of K and X and the shift structure give
    H(C | X = x) = H(pad) for every x, so I(C; X) = H(C) - H(pad) exactly;
    the ciphertext law comes from batched transforms over the occupied
    cosets of rowspace(A) (`ExactLaws`).
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


class MonteCarloMI(Record):
    estimate: float
    std_error: float | None
    samples: int
    raw_plugin: float
    corrected: bool

    def to_json(self) -> dict:
        return _fields_json(self, provenance="estimate")


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

    Every draw reads one PCG64 stream seeded from `seed` (`cipher._PCG64`):
    the plaintexts, then the keys, each numpy's `Generator.choice` with p
    written out (one 64-bit output per symbol, counted against the law's
    cut points), then each replicate's indices, numpy's `Generator.integers(0, samples,
    samples)`.  So the same seed gives the same bits whatever numpy is
    installed, and no draw imports numpy's random module.

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
    rng = _PCG64(seed)
    xs = _choice(rng, p_X, (samples, plan.n))
    ks = _choice(rng, p_K, (samples, plan.n))
    pads = _key_pads(sys.key_encoder, ks, spec)
    xi = vectors_to_indices(xs, spec)
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
        idx = _bounded(rng.uint32s, samples, samples)
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
    weights = np.ones(cb.member_count + 1)
    weights[0] = 0.0
    return laws.mixture(weights).max


# ----------------------------------------------------------------------
# certified bound chain
# ----------------------------------------------------------------------


class BoundCheck(Record):
    name: str
    lhs: float
    rhs: float
    holds: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return _fields_json(self, margin=self.margin)


# The chain steps that need the canonical word length m.
EXPONENT_STEPS = (
    "theta_vs_padded_exponent",
    "padded_equals_security_bound",
    "mi_vs_security_bound",
)


class SecurityCertificate(Record):
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


class ConverseDiagnostics(Record):
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
        return _fields_json(self, informational=["key_rate_display_holds"])


def _log2_sequence_prob(P: TypeComposition, p) -> float:
    """log2 p^n(x) of each sequence x of type P: sum_a c_a log2 p(a) over
    the symbols P uses (0 log2 0 = 0), -inf when one of them has mass 0."""
    if any(c > 0 and p[a] == 0 for a, c in enumerate(P.counts)):
        return -math.inf
    return sum(c * math.log2(p[a]) for a, c in enumerate(P.counts) if c > 0)


def converse_diagnostics(
    laws: ExactLaws, gamma: float, delta_cap: float = DELTA_CAP_DEFAULT
) -> ConverseDiagnostics:
    """Exhaustive evaluation of the converse inequalities at small scale.

    gamma > 0 widens the set of "typical enough" plaintexts, of information
    density -log2 p_X^n(x) / n >= H(X) - gamma: a set of types, since all
    sequences of a type share it (+inf, typical with mass 0, on a symbol of
    mass 0); nu_n is the mass it misses.  With Q the mass that is both
    typical and decodable, the checks certify: the conditioned ciphertext
    law has no point mass above Q^{-1} 2^{-n(H(X)-gamma)}; its entropy is
    at least n(H(X)-gamma) + log2 Q; the conditional entropy given the
    plaintext is exactly H(pad) <= n H(K); and Q^{-1} I(C;X) dominates the
    conditioned mutual information.  The key-rate conclusion is evaluated in
    display form H(K) >= H(X) + gamma + margin (recorded, not asserted — it
    demands more than the finite-n inequalities provide) and in the proof's
    form H(K) >= H(X) - gamma - margin_delta.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    n = laws.plan.n
    h_x = entropy(laws.p_X)
    h_k = entropy(laws.p_K)
    if not n * (gamma - h_x) < float_info.max_exp:
        raise ValueError(f"gamma {gamma} at n={n}: the peak cap 2^(n(gamma - H(X))) overflows")

    cb = laws.sys.codebook
    types = enumerate_types(n, laws.spec)
    floor = h_x - gamma - 1e-12
    typical = {P for P in types if -_log2_sequence_prob(P, laws.p_X) / n >= floor}
    nu_n = sum((class_prob(P, laws.p_X) for P in types if P not in typical), 0.0)
    retained = [P for P in cb.member_types if P in typical]
    coverage = sum((class_prob(P, laws.p_X) for P in retained), 0.0)
    measured_eps = laws.p_e

    h_pad = laws.h_pad
    measured_delta = laws.mi

    # 1 - nu_n - eps, the typical members' mass less the atypical errors'
    # (counted in both nu_n and eps), from the two sums of types: no
    # difference of numbers near 1
    atypical_errors = sum(
        (class_prob(P, laws.p_X) for P in cb.error_types if P not in typical), 0.0
    )
    shrink = coverage - atypical_errors
    if shrink > 0.0:
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
        q_cond = laws.mixture(laws.codeword_weights(typical) / coverage)
        max_conditional = q_cond.max
        conditional_cap = 2.0 ** (-n * (h_x - gamma)) / coverage
        peak_ok = max_conditional <= conditional_cap * (1 + SLACK)
        h_cond = q_cond.entropy
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
    _check_rate(R)
    h = entropy(p_X)
    if R >= h:
        raise ValueError(f"rate {R} is not below the source entropy {h:.6f}")
    q = len(p_X)
    spec = FieldSpec(q)
    p = p_X.probs.tolist()  # Python floats: math.log2 reads the same doubles
    out = []
    for n in n_list:
        n = int(n)
        log_size = _stable_floor(n * R)
        budget = 2**log_size
        per_type = []
        for P in enumerate_types(n, spec):
            logp = _log2_sequence_prob(P, p)
            if logp > -math.inf:
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
