"""Method-of-types machinery: type compositions, class sizes, class probabilities.

The type of a length-n string is its symbol-count vector.  Everything here is
exact: class sizes are big-integer multinomials, class probabilities convert
to float only in the final product, and the entropy of a type is computed
from integer counts.  These are the quantities behind the standard sandwich
bounds

    |P_n(X)| <= (n+1)**(q-1),
    (n+1)**-(q-1) <= |T^n(P)| / 2**(n H(P)) <= 1,
    (n+1)**-(q-1) <= p^n(T^n(P)) / 2**(-n D(P||p)) <= 1,

which the test suite verifies by enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .fields import FieldSpec
from .simplex import Distribution

__all__ = [
    "TypeComposition",
    "type_of",
    "enumerate_types",
    "class_size",
    "class_prob",
    "class_prob_fraction",
    "class_members",
    "type_entropy",
]


@dataclass(frozen=True)
class TypeComposition:
    """Symbol counts of a length-n string over an alphabet of size q."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative count in {self.counts}")

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
        return Distribution(Fraction(c, n) for c in self.counts)


def type_of(x: Sequence[int], spec: FieldSpec) -> TypeComposition:
    counts = np.bincount(np.asarray(x, dtype=np.int64), minlength=spec.q)
    if len(counts) > spec.q:
        raise ValueError(f"symbol out of range [0, {spec.q})")
    return TypeComposition(tuple(int(c) for c in counts))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_types(n: int, spec: FieldSpec) -> list[TypeComposition]:
    """All of P_n(X) in lexicographic order of the count vector."""
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    return [TypeComposition(c) for c in _compositions(n, spec.q)]


def class_size(P: TypeComposition) -> int:
    """|T^n(P)| = n! / prod(counts!), exact big integer."""
    size = math.factorial(P.n)
    for c in P.counts:
        size //= math.factorial(c)
    return size


def class_prob(P: TypeComposition, p: Distribution) -> float:
    """p^n(T^n(P)) = |T^n(P)| * prod p(a)**counts[a]."""
    if len(p) != P.q:
        raise ValueError(f"alphabet mismatch: {len(p)} vs {P.q}")
    value = float(class_size(P))
    for a, c in enumerate(P.counts):
        if c:
            value *= p[a] ** c
    return value


def class_prob_fraction(P: TypeComposition, p: Sequence[Fraction]) -> Fraction:
    """Exact-rational class probability for a rational symbol law."""
    if len(p) != P.q:
        raise ValueError(f"alphabet mismatch: {len(p)} vs {P.q}")
    value = Fraction(class_size(P))
    for a, c in enumerate(P.counts):
        if c:
            value *= Fraction(p[a]) ** c
    return value


def class_members(P: TypeComposition) -> Iterator[tuple[int, ...]]:
    """All sequences of type P in lexicographic symbol order.

    Starts from the sorted sequence and steps to the next permutation of the
    multiset in place: swap the rightmost ascent a[i] < a[i+1] with the
    rightmost larger symbol after it, then reverse the (non-increasing) tail.
    """
    a = [s for s, c in enumerate(P.counts) for _ in range(c)]
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        pivot = a[i]
        j = last
        while a[j] <= pivot:
            j -= 1
        a[i], a[j] = a[j], pivot
        a[i + 1 :] = a[: i : -1]


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
