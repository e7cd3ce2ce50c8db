"""Probability distributions on the alphabet; entropy and KL divergence in bits.

All logarithms throughout the package are base 2.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

__all__ = ["Distribution", "entropy", "kl_divergence", "uniform"]

SIMPLEX_TOL = 1e-12

DistLike = Union["Distribution", Sequence[float], np.ndarray]


class Distribution:
    """A point of the probability simplex over q symbols (immutable)."""

    __slots__ = ("probs",)

    def __init__(self, probs: Iterable[float]):
        p = np.asarray(tuple(probs), dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("distribution must be a non-empty 1-D sequence")
        # ufunc reductions, not ndarray.all/min/sum, whose Python wrappers
        # cost a cold process more than the checks themselves
        if not np.logical_and.reduce(np.isfinite(p)):
            raise ValueError(f"probabilities must be finite, got {p.tolist()}")
        if np.minimum.reduce(p) < 0.0:
            raise ValueError(f"negative probability in {p.tolist()}")
        total = float(np.add.reduce(p))
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def __iter__(self):
        return iter(self.probs.tolist())

    def __array__(self, dtype=None, copy=None):
        return np.array(self.probs, dtype=dtype)

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()})"

    def to_text(self) -> str:
        return ",".join(repr(float(p)) for p in self.probs)

    @classmethod
    def from_text(cls, s: str) -> "Distribution":
        try:
            probs = [float(part) for part in s.split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse {s!r} as a distribution") from exc
        return cls(probs)


def uniform(q: int) -> Distribution:
    return Distribution([1.0 / q] * q)


def entropy(P: DistLike) -> float:
    """H(P) = -sum P(x) log2 P(x) in bits, with 0 log 0 = 0."""
    p = np.asarray(P, dtype=np.float64)
    pos = p > 0.0
    # 0.0 - s, not -s: a point mass sums to +0.0, which must not print as -0.0
    return float(0.0 - np.add.reduce(p[pos] * np.log2(p[pos])))


def kl_divergence(P: DistLike, Q: DistLike) -> float:
    """D(P||Q) = sum P(x) log2(P(x)/Q(x)) in bits; +inf off Q's support."""
    p = np.asarray(P, dtype=np.float64)
    q = np.asarray(Q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"alphabet mismatch: {p.shape} vs {q.shape}")
    pos = p > 0.0
    if np.logical_or.reduce(q[pos] == 0.0):
        return float("inf")
    return float(np.add.reduce(p[pos] * np.log2(p[pos] / q[pos])))
