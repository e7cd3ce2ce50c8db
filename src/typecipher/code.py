"""Universal fixed-length source code built from low-entropy type classes.

The codebook at block length n and target rate R collects every sequence
whose type P satisfies H(P) < R (strictly; ties go to the error set).  Rate
bookkeeping follows

    gamma_n = (1/n) (q log2(n+1) + log2 q + 1),
    R_n     = R + gamma_n,
    m       = floor(n R_n / log2 q),

so the number of codebook members never reaches q**m - 1 and one ciphertext
word (the all-zero word x0) stays reserved for the error report.  The
encoder maps the i-th member (in type order, then lexicographic order) to
the word with positional value i+1; the decoder inverts that and maps x0 and
any out-of-image word to a fixed default sequence.  So a member's rank is its
type's offset (the sizes of the member types before it) plus its rank within
its type class: `Codebook` keeps only the offsets, and encodes and decodes
by that arithmetic (Cover's enumerative coding), with no table.

At desk scale gamma_n is large (over a bit per symbol for n <= 8), so m
routinely exceeds n; that is what the formulas give, and every finite-n bound
downstream remains valid.  An explicit-m plan exists for experiments that
need a small word space; it is flagged non-canonical and excluded from the
bound checks that assume the canonical m.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .fields import (
    FieldError,
    FieldSpec,
    _INT64_MAX,
    Record,
    _check_enum,
    _power,
    field_row,
    index_decode,
    index_encode,
    vector_to_text,
    vectors_to_indices,
)
from .simplex import Distribution
from .typeclasses import (
    TypeComposition,
    _class_sizes,
    _group_types,
    _walk_members,
    _walk_ranks,
    class_prob,
    class_size,
    enumerate_types,
    type_counts,
    type_entropy,
)

__all__ = [
    "RatePlan",
    "make_rate_plan",
    "explicit_m_plan",
    "Codebook",
    "build_codebook",
    "encode",
    "decode",
    "decode_indices",
    "exact_error_prob",
    "codebook_to_json",
    "codebook_size_margins",
]

class RatePlan(Record):
    """Block length, target rate, and the derived slack / word length.

    canonical is True when m came from the floor rule above; explicit-m plans
    set R_n = (m/n) log2 q and gamma_n = R_n - R instead, so the identity
    R_n = R + gamma_n holds either way.
    """

    spec: FieldSpec
    n: int
    R: float
    gamma_n: float
    R_n: float
    m: int
    canonical: bool = True

    @property
    def q(self) -> int:
        return self.spec.q


def _check_rate(R: float) -> None:
    if not 0 < R < math.inf:
        raise ValueError(f"target rate must be positive and finite, got {R}")


def make_rate_plan(n: int, R: float, spec: FieldSpec) -> RatePlan:
    """Canonical rate plan: the slack gamma_n and word length m at rate R."""
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    _check_rate(R)
    q = spec.q
    log_q = math.log2(q)
    gamma_n = (q * math.log2(n + 1) + log_q + 1.0) / n
    R_n = R + gamma_n
    # the float sandwich below tells m from m + 1 only under 2^53
    if not n * R_n / log_q < 2**53:
        raise ValueError(f"target rate {R} at n={n} asks a word length past 2^53")
    # Nudge before flooring so an exact-integer quotient is not lost to
    # rounding, then repair against the float-evaluated sandwich.
    m = math.floor(n * R_n / log_q + 1e-12)
    while m * log_q > n * R_n:
        m -= 1
    while (m + 1) * log_q <= n * R_n:
        m += 1
    if m < 1:
        raise ValueError(f"degenerate plan: m = {m} at n={n}, R={R}, q={q}")
    return RatePlan(spec=spec, n=n, R=R, gamma_n=gamma_n, R_n=R_n, m=m)


def explicit_m_plan(n: int, m: int, spec: FieldSpec, R: float | None = None) -> RatePlan:
    """Non-canonical plan with a caller-chosen word length m.

    R defaults to the raw ciphertext rate (m/n) log2 q, which then also
    drives codebook membership.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if not 1 <= m < 2**53:  # the bound make_rate_plan puts on m
        raise ValueError(f"word length must be in [1, 2^53), got {m}")
    R_n = m * math.log2(spec.q) / n
    if R is None:
        R = R_n
    _check_rate(R)
    return RatePlan(
        spec=spec, n=n, R=R, gamma_n=R_n - R, R_n=R_n, m=m, canonical=False
    )


class Codebook:
    """The codebook as type offsets, both ways by rank arithmetic.

    Members are listed type by type (in `enumerate_types` order), each type
    in lexicographic order, so a member's rank is its type's offset plus its
    rank within the class.  `ranks` adds the class-rank walk to the offset
    (the encoder); `members` finds each rank's type among the offsets and
    runs the walk backwards (the decoder).  No table over the members or the
    q**n sequences is kept.  `offsets` (int64) holds the offset of each
    member type whose ranks fit int64, then the end of the last; later types
    refuse, as do classes whose size times n leaves int64.
    """

    def __init__(self, plan: RatePlan):
        spec = plan.spec
        n, q, m = plan.n, plan.q, plan.m
        member_types: list[TypeComposition] = []
        error_types: list[TypeComposition] = []
        for P in enumerate_types(n, spec):
            if type_entropy(P) < plan.R:
                member_types.append(P)
            else:
                error_types.append(P)

        ends = list(accumulate((class_size(P) for P in member_types), initial=0))
        count = ends[-1]
        if count > _power(q, m, count.bit_length() + 1) - 1:
            # The size bound rules this out for canonical plans only.
            raise FieldError(
                f"{count} members at rate {plan.R} exceed the {q}^{m} - 1 "
                f"usable words of m={m}; use a larger --m or a lower --rate"
            )

        self.plan = plan
        self.spec = spec
        self.member_types = tuple(member_types)
        self.error_types = tuple(error_types)
        self.member_count = count
        self.type_index = {P.counts: i for i, P in enumerate(member_types)}
        self.offsets = np.array([end for end in ends if end <= _INT64_MAX], dtype=np.int64)
        self.default_decode = self._smallest_non_member()

    @property
    def x0(self) -> tuple[int, ...]:
        """The all-zero word, reserved for the error report."""
        return (0,) * self.plan.m

    def _smallest_non_member(self) -> tuple[int, ...]:
        # Sequence indices run in lexicographic order, and the smallest
        # sequence of a type is its sorted one.
        if not self.error_types:
            return (0,) * self.plan.n
        return min(
            tuple(s for s, c in enumerate(P.counts) for _ in range(c))
            for P in self.error_types
        )

    def ranks(self, xs) -> np.ndarray:
        """Member rank of each sequence row of xs, -1 for non-members.

        The rows are counted and grouped by type once; each member row then
        gets its type's offset plus its rank within the class, from the
        class-rank walk on its counts and class size.  A member type past
        `offsets` raises ValueError.
        """
        n, q = self.plan.n, self.plan.q
        xs = np.asarray(xs).reshape(-1, n)
        counts = type_counts(xs, q)
        types, inverse = _group_types(counts)
        types = types.tolist()
        index = np.array([self.type_index.get(tuple(t), -1) for t in types], dtype=np.int64)
        if index.max(initial=-1) >= len(self.offsets) - 1:
            raise ValueError(f"member ranks at n={n} pass int64 ({self.member_count} members)")
        sizes = np.zeros(len(types), dtype=np.int64)
        kept = np.flatnonzero(index >= 0)
        sizes[kept] = _class_sizes([types[j] for j in kept], n)
        rank = np.where(index >= 0, self.offsets[index], -1)[inverse]
        member = rank >= 0
        rank[member] += _walk_ranks(xs[member], counts[member], sizes[inverse[member]])
        return rank

    def members(self, ranks) -> np.ndarray:
        """The member sequence at each rank, one row each: the inverse of
        `ranks`.  One `searchsorted` over `offsets` finds each rank's type,
        and the class walk run backwards places the rest of the rank in the
        class.  Ranks outside [0, member_count), or past `offsets`, raise
        ValueError."""
        end = int(self.offsets[-1])
        try:
            rank = np.asarray(ranks, dtype=np.int64).reshape(-1)
            inside = not rank.size or (rank.min() >= 0 and rank.max() < end)
        except OverflowError:  # a Python int past int64
            inside = False
        if not inside:
            raise ValueError(f"member ranks must lie in [0, {end}), those that fit int64")
        which = self.offsets.searchsorted(rank, side="right") - 1
        types = np.array([P.counts for P in self.member_types], dtype=np.int64)
        sizes = np.zeros(len(types), dtype=np.int64)
        touched = np.flatnonzero(np.bincount(which, minlength=len(types)))
        sizes[touched] = _class_sizes(types[touched].tolist(), self.plan.n)
        seqs = _walk_members(rank - self.offsets[which], types[which], sizes[which])
        return seqs.reshape(-1, self.plan.n)  # no ranks walk to a (0, 0) array

    def __repr__(self) -> str:
        p = self.plan
        return (
            f"Codebook(n={p.n}, R={p.R}, q={p.q}, m={p.m}, "
            f"members={self.member_count})"
        )


def build_codebook(plan: RatePlan) -> Codebook:
    return Codebook(plan)


def encode(cb: Codebook, x) -> tuple[int, ...]:
    """Member i maps to the word with positional value i+1; others to x0."""
    (rank,) = cb.ranks(field_row(x, cb.plan.n, cb.spec, "plaintext"))
    return index_decode(int(rank) + 1, cb.plan.m, cb.spec)


def decode(cb: Codebook, w) -> tuple[int, ...]:
    """Inverse of encode on its image; default elsewhere (including x0)."""
    word = field_row(w, cb.plan.m, cb.spec, "word")
    return index_decode(int(decode_indices(cb, word)), cb.plan.n, cb.spec)


def decode_indices(cb: Codebook, words) -> np.ndarray:
    """Array form of decode: the sequence index decoded from each word row."""
    value = vectors_to_indices(np.asarray(words), cb.spec)
    # x0 and the values past the members (out of the image) decode to the default
    image = (value > 0) & (value <= cb.member_count)
    out = np.full(value.shape, index_encode(cb.default_decode, cb.spec), dtype=np.int64)
    out[image] = vectors_to_indices(cb.members(value[image] - 1), cb.spec)
    return out


def _member_list(cb: Codebook) -> np.ndarray:
    """Every member in rank order, one row each, refused past MAX_ENUM."""
    _check_enum(cb.member_count, f"a list of {cb.member_count} members", "decode needs none")
    return cb.members(np.arange(cb.member_count))


def exact_error_prob(cb: Codebook, p_X: Distribution) -> float:
    """Pr[X^n outside the codebook], summed exactly over excluded types."""
    return sum((class_prob(P, p_X) for P in cb.error_types), 0.0)


def codebook_to_json(cb: Codebook, include_members: bool = False) -> dict:
    plan = cb.plan
    out = {
        "n": plan.n,
        "R": plan.R,
        "q": plan.q,
        "gamma_n": plan.gamma_n,
        "R_n": plan.R_n,
        "m": plan.m,
        "canonical": plan.canonical,
        "member_count": cb.member_count,
        "default_decode": vector_to_text(cb.default_decode, cb.spec),
    }
    if include_members:
        out["members"] = [vector_to_text(x, cb.spec) for x in _member_list(cb).tolist()]
    return out


def codebook_size_margins(cb: Codebook) -> dict:
    """The two codebook size bounds, reported with their margins.

    member_count <= (n+1)**q 2**(n R) <= q**m / 2 <= q**m - 1.
    """
    plan = cb.plan
    n, q = plan.n, plan.q
    count = cb.member_count
    entropy_bound = (n + 1) ** q * 2.0 ** (n * plan.R)
    word_budget = q**plan.m - 1
    return {
        "member_count": count,
        "entropy_bound": entropy_bound,
        "word_budget": word_budget,
        "holds": count <= entropy_bound and count <= word_budget,
    }

