"""Method-of-types machinery: type compositions, class sizes, class probabilities.

The type of a length-n string is its symbol-count vector.  Everything here is
exact: class sizes are big-integer multinomials, class probabilities convert
to float only in the final product (in log space once a class size no longer
fits a float), and the entropy of a type is computed from integer counts.
The order inside a class is lexicographic, and it is computed by arithmetic
alone: `class_ranks` (the `_walk_ranks` walk) gives a sequence's rank in its
class, and `_walk_members` gives the sequence at a rank.  These are the
quantities behind the standard sandwich bounds

    |P_n(X)| <= (n+1)**(q-1),
    (n+1)**-(q-1) <= |T^n(P)| / 2**(n H(P)) <= 1,
    (n+1)**-(q-1) <= p^n(T^n(P)) / 2**(-n D(P||p)) <= 1,

which the test suite verifies by enumeration.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

import numpy as np

from .fields import FieldSpec, Record, _check_enum, _power
from .simplex import Distribution

__all__ = [
    "TypeComposition",
    "type_of",
    "enumerate_types",
    "n_types",
    "class_size",
    "class_prob",
    "sequence_probs",
    "type_counts",
    "class_ranks",
    "type_entropy",
]


class TypeComposition(Record):
    """Symbol counts of a length-n string over an alphabet of size q."""

    counts: tuple[int, ...]

    def __init__(self, counts: tuple[int, ...]) -> None:
        if min(counts, default=0) < 0:
            raise ValueError(f"negative count in {counts}")
        self.__dict__["counts"] = counts

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def q(self) -> int:
        return len(self.counts)

    def empirical(self) -> Distribution:
        """The normalized type counts/n as a point of the simplex."""
        n = self.n
        if n == 0:
            raise ValueError("empty composition has no empirical distribution")
        return Distribution(c / n for c in self.counts)


def type_of(x: Sequence[int], spec: FieldSpec) -> TypeComposition:
    counts = np.bincount(np.asarray(x, dtype=np.int64), minlength=spec.q)
    if len(counts) > spec.q:
        raise ValueError(f"symbol out of range [0, {spec.q})")
    return TypeComposition(tuple(int(c) for c in counts))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every `parts`-tuple of counts summing to `total`, lexicographically, by
    stars and bars: each count is the gap between running sums at the bars."""
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        prev, counts = 0, []
        for cut in cuts:
            counts.append(cut - prev)
            prev = cut
        counts.append(total - prev)
        yield tuple(counts)


def n_types(n: int, q: int) -> int:
    """|P_n(X)| = C(n+q-1, q-1), the number of length-n types."""
    return math.comb(n + q - 1, q - 1)


def _check_types(n: int, spec: FieldSpec) -> None:
    """Refuse where neither the q**n sequences of length n nor their types,
    q counts each, are within `fields.MAX_ENUM`, naming the sequences."""
    q = spec.q
    _check_enum(min(_power(q, n), n_types(n, q) * q), f"{q}^{n} vectors")


def enumerate_types(n: int, spec: FieldSpec) -> list[TypeComposition]:
    """All of P_n(X) in lexicographic order of the count vector, refused
    before listing where `_check_types` refuses."""
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    _check_types(n, spec)
    return [TypeComposition(c) for c in _compositions(n, spec.q)]


def class_size(P: TypeComposition) -> int:
    """|T^n(P)| = n! / prod(counts!), exact big integer."""
    size = math.factorial(P.n)
    for c in P.counts:
        if c > 1:
            size //= math.factorial(c)
    return size


def class_prob(P: TypeComposition, p: Distribution) -> float:
    """p^n(T^n(P)) = |T^n(P)| * prod p(a)**counts[a].

    A class size too large for a float (binary n past about 1030) moves the
    product to log space: log2 |T^n(P)| + sum counts[a] log2 p(a).
    """
    if len(p) != P.q:
        raise ValueError(f"alphabet mismatch: {len(p)} vs {P.q}")
    size = class_size(P)
    try:
        value = float(size)
    except OverflowError:
        if any(c and p[a] == 0 for a, c in enumerate(P.counts)):
            return 0.0
        log_value = math.log2(size)
        for a, c in enumerate(P.counts):
            if c:
                log_value += c * math.log2(p[a])
        return 2.0**log_value
    for a, c in enumerate(P.counts):
        if c:
            value *= p[a] ** c
    return value


def sequence_probs(p: Distribution, n: int, spec: FieldSpec) -> np.ndarray:
    """p^n(x) of every length-n sequence x, in sequence-index order: the
    n-fold outer product of p, p(x_1) p(x_2) ... p(x_n) left to right."""
    _check_enum(_power(spec.q, n), f"{spec.q}^{n} vectors")
    return reduce(np.multiply.outer, [np.asarray(p)] * n).ravel()


def type_counts(xs: np.ndarray, q: int) -> np.ndarray:
    """The type of each row of xs: column a counts the symbol a."""
    return np.stack([(xs == a).sum(axis=1) for a in range(q)], axis=1)


def class_ranks(xs, q: int) -> np.ndarray:
    """Lexicographic rank of each row of xs within its own type class.

    Row x gets its position among the sequences of type_of(x) listed in
    lexicographic order.  This checks the rows, groups them by type and runs
    `_walk_ranks`; `Codebook.ranks`, which groups its rows by type anyway,
    hands its member rows to the walk itself.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if xs.ndim != 2:
        raise ValueError(f"expected a 2-d array of sequences, got shape {xs.shape}")
    if xs.size and (xs.min() < 0 or xs.max() >= q):
        raise ValueError(f"symbol out of range [0, {q})")
    counts = type_counts(xs, q)
    types, inverse = _group_types(counts)
    sizes = _class_sizes(types.tolist(), xs.shape[1])
    return _walk_ranks(xs, counts, sizes[inverse])


def _group_types(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct count rows in lexicographic order, and each row's place
    among them: `np.unique(counts, axis=0, return_inverse=True)`, from one
    stable lexsort and a flag on each row that differs from the one before.
    """
    # the last key of np.lexsort sorts first: column 0
    order = np.lexsort(counts.T[::-1])
    ordered = counts[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def _class_sizes(types: list, n: int) -> np.ndarray:
    """|T^n(P)| of each count vector in types, as int64.

    Refuses classes whose size times n leaves int64, the most the rank walk
    holds.
    """
    sizes = [class_size(TypeComposition(tuple(t))) for t in types]
    if max(sizes, default=0) * max(n, 1) > np.iinfo(np.int64).max:
        raise ValueError(f"type classes of length {n} are too large to rank in int64")
    return np.array(sizes, dtype=np.int64)


def _walk_ranks(xs: np.ndarray, counts: np.ndarray, arrangements: np.ndarray) -> np.ndarray:
    """Class rank of each row of xs, from its type counts and class size.

    Walking the positions left to right with the remaining counts c and
    length L, the M = L!/prod(c!) arrangements of the rest split by their
    first symbol, M c_s / L of them starting with s, so a row at symbol x_i
    skips the blocks of every s < x_i.  That is n (q - 1) int64 passes over
    the rows, and every value stays below the class size times n.  The walk
    uses up `counts` (one row per row of xs, one column per symbol).
    """
    rows, n = xs.shape
    rank = np.zeros(rows, dtype=np.int64)
    at = np.arange(rows)
    for i in range(n):
        left = n - i
        x = xs[:, i]
        for s in range(counts.shape[1] - 1):
            rank += np.where(x > s, arrangements * counts[:, s] // left, 0)
        arrangements = arrangements * counts[at, x] // left
        counts[at, x] -= 1
    return rank


def _walk_members(rank: np.ndarray, counts: np.ndarray, arrangements: np.ndarray) -> np.ndarray:
    """The sequence at each class rank: the inverse of `_walk_ranks`.

    The same walk run backwards: at each position, with the remaining counts
    c, length L and M arrangements, a rank passes the block of M c_s / L
    arrangements of every smaller symbol s and subtracts its size; the
    symbol it stops at is the next entry.  Returns one row of length
    n = sum(c) per rank, and uses up `rank` and `counts` (one row per rank,
    one column per symbol).
    """
    rows, q = counts.shape
    n = int(counts[:1].sum())
    xs = np.empty((rows, n), dtype=np.int64)
    at = np.arange(rows)
    for i in range(n):
        left = n - i
        x = np.zeros(rows, dtype=np.int64)
        for s in range(q - 1):
            block = arrangements * counts[:, s] // left
            past = (x == s) & (rank >= block)
            rank -= np.where(past, block, 0)
            x += past
        xs[:, i] = x
        arrangements = arrangements * counts[at, x] // left
        counts[at, x] -= 1
    return xs


def type_entropy(P: TypeComposition) -> float:
    """Entropy in bits of counts/n, computed from the integer counts."""
    n = P.n
    if n == 0:
        raise ValueError("empty composition has no entropy")
    acc = 0.0
    for c in P.counts:
        if c:
            acc += c * math.log2(c)
    return math.log2(n) - acc / n
