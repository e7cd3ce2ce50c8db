"""Reliability and secrecy exponents of the coupled code/cipher construction.

Two variational quantities drive every finite-n bound in this package:

    E(R|p) = min { D(P||p) : H(P) >= R }           (decay of decoding error)
    F(R|p) = min_P { [H(P) - R]^+ + D(P||p) }      (decay of key-pad leakage)

with [a]^+ = max(a, 0) and all information in bits.  E is positive exactly
when R > H(p); F is positive exactly when R < H(p).

Both are solved over the exponential family P_s ∝ p**s.  The minimizer of
D(P||p) under an entropy constraint lies in this family (Lagrange
stationarity), so each regime of the objective reduces to bisections on
H(P_s) = R, all stacked as the columns of one array per call.
`exponent_pair` solves E(R|p_X) and F(R|p_K) at every rate of a list at
once; `positivity_region` (the `exponents` command's grid) and a `sweep` row
(its one rate) both call it, and `exponent_E`/`exponent_F` are the one-law,
one-rate case.  The tests hold this solver against a brute-force grid over
the simplex and against the scalar bisection it replaced.

The family argument for F needs care.  With [·]^+ inactive, F minimizes D
over {H(P) <= R}, which is not convex, so that regime takes the least of
its stationary candidates: on each sub-alphabet (face), its point mass or
its own law and the crossing of H = R on the s > 0 branch.  An s < 0 P_s
is ordered against p, and rearranged onto p's order it keeps its entropy
and lowers its cross-entropy (the rearrangement inequality), so it is never
the least; on a flat face every P_s is the face's own law.  The regime
with [·]^+ active minimizes the linear cross-entropy functional over the
convex set {H(P) >= R} and needs only the aligned branch.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations

import numpy as np

from .fields import Record
from .simplex import Distribution, entropy

__all__ = [
    "ExponentResult",
    "exponent_E",
    "exponent_F",
    "exponent_pair",
    "positivity_region",
    "admissible_thresholds",
]

POSITIVITY_THRESHOLD = 1e-9
# The accuracy every result states, which `rounded_down` subtracts.  It sets
# no work: a bisection runs until its brackets stop moving (at most STEPS).
TOLERANCE = 1e-9


class ExponentResult(Record):
    value: float
    argmin: Distribution | None
    tolerance: float

    def __init__(self, value: float, argmin: Distribution | None, tolerance: float) -> None:
        self.__dict__.update(value=value, argmin=argmin, tolerance=tolerance)

    def rounded_down(self) -> float:
        """Conservative value for use inside upper bounds."""
        if math.isinf(self.value):
            return self.value
        return max(self.value - self.tolerance, 0.0)


# ----------------------------------------------------------------------
# tilted solver: one stacked bisection per call
# ----------------------------------------------------------------------
#
# A call gathers every bisection its rates need -- E's [0, 1] branch, the
# s > 0 branch of each face of F's plain regime, F's active branch -- as the
# columns of one stack as wide as its widest law, and steps them together,
# each until its bracket stops moving.  A column holds one face's log2 p (in
# face order, packed to the top, the rest masked to -inf before the
# max-shift) and its own bracket and target.  Each column gets the
# elementwise arithmetic of a scalar bisection on that face, and its sums
# run in order down the column, where the zero padding adds nothing: no
# rate, face or branch depends on what else is stacked.
#
# The solver calls ufuncs (and their .reduce/.accumulate), C array methods
# and constructors only, never a numpy function written in Python (np.stack,
# np.full, np.tile, np.searchsorted, ndarray.sum, ...): a job runs in a fresh
# process, where such a wrapper's first call costs up to a few hundred
# microseconds more than its C-level form.  Each replacement reduces in the
# same order.

STEPS = 80  # most bisection steps, and doubling levels s = 2^i searched
RETIRE = 4  # bisection steps between tests for columns that stopped moving
STACK_CELLS = 1 << 16  # entries per block of stacked columns


def _in_order_sum(a: np.ndarray) -> np.ndarray:
    """Sum down axis 0, first row to last, whatever the layout.  Below 8 rows
    numpy's own reduction adds in that order; from 8 on it sums one column,
    or a column-major block such as fancy indexing returns, pairwise, which
    the zero padding would regroup, so the rows are added one by one."""
    return np.add.reduce(a, axis=0) if len(a) < 8 else reduce(np.add, a)


def _tilt(L: np.ndarray, dead: np.ndarray | None, s: np.ndarray, out=None) -> np.ndarray:
    """P_s proportional to p**s down each column of L, masked entries 0
    (`dead` None: none masked)."""
    w = np.multiply(s, L, out=out)
    if dead is not None:
        np.copyto(w, -np.inf, where=dead)
    w -= np.maximum.reduce(w, axis=0)
    P = np.exp2(w, out=w)
    return np.divide(P, _in_order_sum(P), out=P)


def _H(P: np.ndarray, out=None) -> np.ndarray:
    """Entropy in bits down each column (0 log 0 = 0).  A zero P adds -0.0
    (0 * log2 5e-324): no sum changes, as a column's largest P adds < 0 or +0.0."""
    v = np.maximum(P, 5e-324, out=out)
    return -_in_order_sum(np.multiply(P, np.log2(v, out=v), out=v))


def _D(P: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """D(P||p) down each column, summed over P's support."""
    pos = P > 0.0
    return _in_order_sum(np.where(pos, P * (np.log2(np.where(pos, P, 1.0)) - logp[:, None]), 0.0))


def _cross_entropy(P: np.ndarray, logp: np.ndarray) -> np.ndarray:
    return -_in_order_sum(np.where(P > 0.0, P * logp[:, None], 0.0))


def _blocks(width: int, n: int):
    step = max(1, STACK_CELLS // width)
    return (slice(i, i + step) for i in range(0, n, step))


def _bisect(L, dead, target, s_lo, s_hi) -> np.ndarray:
    """The last s_lo of a bisection on H(P_s) = target in every column.

    Each [s_lo, s_hi] brackets its crossing on a monotone branch; a step
    keeps the half whose s_lo lies on the same side of target as the first
    s_lo did.  A step is a fixed map of (s_lo, s_hi), so a column that a
    step moves neither repeats that step ever after: every RETIRE steps the
    columns the last step left in place leave the stack, which changes no
    bit of the result."""
    last = np.array(s_lo, dtype=np.float64)
    dead = dead if np.logical_or.reduce(dead, axis=None) else None
    P, T = np.empty((2, *L.shape))  # every step's buffers
    lo_side = _H(_tilt(L, dead, last, P), T) >= target
    run, lo, hi = np.arange(last.size), last.copy(), np.array(s_hi, dtype=np.float64)
    mid = np.empty_like(lo)
    for step in range(1, STEPS + 1):
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
        keep = (_H(_tilt(L, dead, mid, P), T) >= target) == lo_side
        moved = None if step % RETIRE else mid != np.where(keep, lo, hi)
        np.copyto(lo, mid, where=keep)
        np.copyto(hi, mid, where=~keep)
        if moved is not None and not np.logical_and.reduce(moved):
            last[run] = lo
            run, lo, hi, mid, target, lo_side = (
                a[moved] for a in (run, lo, hi, mid, target, lo_side))
            if not run.size:
                break
            L = L[:, moved]
            dead = None if dead is None else dead[:, moved]
            P, T = np.empty((2, *L.shape))
    last[run] = lo
    return last


class _Law:
    """A law's support in index order, with its log2 probabilities."""

    def __init__(self, p: Distribution):
        self.full = np.asarray(p, dtype=np.float64)
        self.idx = (self.full > 0.0).nonzero()[0]
        self.sub = self.full[self.idx]
        self.k = self.idx.size
        self.logp = np.log2(self.sub)
        self.H = float(_H(self.sub))
        self.log_k = math.log2(self.k)

    def embed(self, P: np.ndarray) -> Distribution:
        full = np.zeros(self.full.size)
        full[self.idx] = P
        # Clean tiny negative round-off before handing to the validator.
        np.maximum(full, 0.0, out=full)
        return Distribution(full / np.add.reduce(full))


class _Stack:
    """Faces of at most `width` symbols, and the bisections queued on them.

    Columns are numbered in the order they are queued.
    """

    def __init__(self, width: int):
        self.width = width
        self.faces: list[np.ndarray] = []
        self.queued: list[tuple[np.ndarray, ...]] = []
        self.size = 0
        self.P = np.zeros((width, 0))
        self._library = (np.zeros((width, 0)), np.zeros((width, 0), dtype=bool))

    def face(self, flog: np.ndarray) -> int:
        self.faces.append(flog)
        return len(self.faces) - 1

    def _packed(self, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The columns of `faces`, cut below the largest one: the rows under
        it are masked in every column and add nothing to any sum."""
        L, dead = self._library
        if L.shape[1] != len(self.faces):
            L = np.zeros((self.width, len(self.faces)))
            for j, flog in enumerate(self.faces):
                L[: flog.size, j] = flog
            sizes = np.array([flog.size for flog in self.faces])
            dead = np.arange(self.width)[:, None] >= sizes
            self._library = L, dead
        rows = max(self.faces[j].size for j in faces.tolist())
        return L[:rows, faces], dead[:rows, faces]

    def entropy(self, faces: np.ndarray, s: np.ndarray) -> np.ndarray:
        """H(P_s) of face faces[j] at s[j], for every j."""
        blocks = _blocks(self.width, s.size)
        return np.concatenate([_H(_tilt(*self._packed(faces[b]), s[b])) for b in blocks])

    def add(self, face: int, target: np.ndarray, s_lo, s_hi) -> np.ndarray:
        """Queue one bisection on `face` per target; their column numbers."""
        n = target.size
        lo, hi = np.empty((2, n))
        lo[:], hi[:] = s_lo, s_hi
        self.queued.append((np.array(face).repeat(n), target, lo, hi))
        self.size += n
        return np.arange(self.size - n, self.size)

    def solve(self) -> None:
        """Run every queued bisection; P_s of column j lands in self.P[:, j]."""
        if not self.queued:
            return
        face, target, s_lo, s_hi = (np.concatenate(part) for part in zip(*self.queued))
        self.P = np.zeros((self.width, self.size))
        for blk in _blocks(self.width, self.size):
            L, dead = self._packed(face[blk])
            s = _bisect(L, dead, target[blk], s_lo[blk], s_hi[blk])
            self.P[: len(L), blk] = _tilt(L, dead, s)


class _TiltedE:
    """E(R|p) = D(P_s||p) where H(P_s) = R on s in [0, 1], for H(p) < R <= log2 k."""

    def __init__(self, law: _Law, rates: np.ndarray, stack: _Stack):
        self.law, self.rates, self.stack = law, rates, stack
        self.inside = (rates > law.H) & (rates <= law.log_k)
        self.cols = stack.add(stack.face(law.logp), rates[self.inside], 0.0, 1.0)

    def results(self, argmins: bool) -> list[ExponentResult]:
        law = self.law
        P = self.stack.P[: law.k, self.cols]
        D = _D(P, law.logp).tolist()
        out, j = [], 0
        for R, inside in zip(self.rates.tolist(), self.inside.tolist()):
            if R <= law.H:
                argmin = Distribution(law.full) if argmins else None
                out.append(ExponentResult(0.0, argmin, TOLERANCE))
            elif not inside:
                out.append(ExponentResult(math.inf, None, TOLERANCE))
            else:
                argmin = law.embed(P[:, j]) if argmins else None
                out.append(ExponentResult(D[j], argmin, TOLERANCE))
                j += 1
        return out


def _faces(sub: np.ndarray) -> list[np.ndarray]:
    """Sub-alphabets searched for F's plain regime: every subset when k <= 4,
    else the prefixes of the support sorted by falling probability."""
    k = sub.size
    if k <= 4:
        return [np.array(c) for r in range(1, k + 1) for c in combinations(range(k), r)]
    order = (-sub).argsort()
    return [order[:j] for j in range(1, k + 1)]


class _TiltedF:
    """F(R|p) as the least of its stationary candidates, in a fixed order.

    [.]^+ inactive: minimize D over {H(P) <= R}.  When H(p) <= R that is p
    itself.  Otherwise the candidates run face by face: the point mass of a
    one-symbol face; else the face's own law if its entropy is at most R,
    then the crossing of H = R on the family's s > 0 branch (an s < 0 P_s,
    rearranged onto p's order, keeps its entropy and nears p; on a flat
    face every P_s is the face's own law).  [.]^+ active (R <= log2 k):
    minimize cross-entropy - R over the convex set {H(P) >= R}, which needs
    only the aligned branch: the uniform law on the tied maxima when their
    log-count reaches R, else the s > 0 crossing.  The first least
    candidate wins.
    """

    def __init__(self, law: _Law, rates: np.ndarray, stack: _Stack):
        self.law, self.rates, self.stack = law, rates, stack
        sub, logp, k = law.sub, law.logp, law.k
        tied = sub >= np.maximum.reduce(sub) * (1.0 - 1e-12)
        ties = int(np.add.reduce(tied))
        self.log_ties = math.log2(ties)
        plain = rates < law.H
        active = (rates <= law.log_k) & (rates > self.log_ties)

        # Rate-independent candidates, one column each: p, the point masses
        # and face laws in face order, the uniform law on the tied maxima.
        # Each face gives a slot (column, its law's entropy, its branch); a
        # point mass, entropy -inf here, is a candidate at every rate.
        faces = _faces(sub)
        self.fixed = np.zeros((k, len(faces) + 2))
        self.fixed[:, 0] = sub
        self.slots: list[tuple[int, float, int | None]] = []
        self.faces = []  # the face of each s > 0 branch; the active branch last
        for j, face in enumerate(faces, 1):
            if face.size == 1:
                self.fixed[face, j] = 1.0
                self.slots.append((j, -math.inf, None))
            else:
                interior = sub[face] / np.add.reduce(sub[face])
                self.fixed[face, j] = interior
                self.slots.append((j, float(_H(interior)), len(self.faces)))
                self.faces.append(face)
        self.ties_col = len(faces) + 1
        self.fixed[:, -1] = np.where(tied, 1.0, 0.0) / ties
        self.faces.append(np.arange(k))

        # Column of each (branch, rate) crossing, counted from self.base; -1
        # where the branch is not needed or never crosses the rate.
        self.col = np.zeros((len(self.faces), rates.size), dtype=np.int64) - 1
        self.base = stack.size
        # On a face f, H(P_s) <= log2|f|: a rate above that has no plain
        # crossing there, and the face's own law (in its slot, which comes
        # first) is the least candidate of the face anyway, up to rounding.
        need = [plain & (rates <= math.log2(f.size)) for f in self.faces[:-1]] + [active]
        run = [b for b, nd in enumerate(need) if np.logical_or.reduce(nd)]
        if not run:
            return
        # One doubling table per branch some rate needs: H(P_s) at s = 2^i,
        # shared by every rate, all in one call; the first i with H below R
        # is where its running minimum is.
        s = 2.0 ** np.arange(STEPS)
        fid = [stack.face(logp[self.faces[b]]) for b in run]
        H = stack.entropy(np.array(fid).repeat(STEPS), np.concatenate([s] * len(run)))
        falling = -np.minimum.accumulate(H.reshape(len(run), STEPS), axis=1)
        for b, face_id, row in zip(run, fid, falling):
            first = row.searchsorted(-rates, side="right")
            ok = need[b] & (first < STEPS)
            far = s[first[ok]]
            bracket = (far, 0.0) if b < len(self.faces) - 1 else (0.0, far)
            self.col[b, ok] = stack.add(face_id, rates[ok], *bracket) - self.base

    def results(self, argmins: bool) -> list[ExponentResult]:
        law, R = self.law, self.rates
        k = law.k
        # The solved crossings, scattered from face order into support order
        # (a column's rows past its face are 0).
        n = self.stack.size - self.base
        solved = np.zeros((k, n))
        for face, col in zip(self.faces, self.col):
            col = col[col >= 0]
            solved[face[:, None], col] = self.stack.P[: face.size, self.base + col]
        off = self.fixed.shape[1]

        def over_candidates(f):
            # the fixed columns, then the crossings block by block
            parts = [f(self.fixed, law.logp)]
            parts += [f(solved[:, blk], law.logp) for blk in _blocks(k, n)]
            return np.concatenate(parts)

        D, CE = over_candidates(_D), over_candidates(_cross_entropy)

        plain = R < law.H
        zero = np.zeros(R.size, dtype=np.int64)
        values = [np.where(plain, np.inf, 0.0)]
        refs = [zero]
        for j, h_face, b in self.slots:
            values.append(np.where(plain & (h_face <= R), D[j], np.inf))
            refs.append(zero + j)
            if b is not None:
                col = self.col[b]
                values.append(np.where(col >= 0, D[off + col], np.inf))
                refs.append(off + col)
        col = self.col[-1]
        ties = self.log_ties >= R
        crossing = np.where(col >= 0, CE[off + col] - R, np.inf)
        active = np.where(ties, CE[self.ties_col] - R, crossing)
        values.append(np.where(R <= law.log_k, active, np.inf))
        refs.append(np.where(ties, self.ties_col, off + col))
        # one row per candidate; the first least row wins at each rate
        values = np.array(values)
        best = values.argmin(axis=0)
        at = np.arange(R.size)
        out = []
        picked = np.array(refs)[best, at]
        for value, ref in zip(values[best, at].tolist(), picked.tolist()):
            P = self.fixed[:, ref] if ref < off else solved[:, ref - off]
            argmin = law.embed(P) if argmins else None
            out.append(ExponentResult(max(value, 0.0), argmin, TOLERANCE))
        return out


def _tilted(rates, requests, argmins: bool) -> list[list[ExponentResult]]:
    """Each (solver, law) request's results at every rate, from one stacked
    bisection."""
    rates = np.asarray(rates, dtype=np.float64)
    laws = [_Law(p) for _, p in requests]
    stack = _Stack(max(law.k for law in laws))
    solvers = [kind(law, rates, stack) for (kind, _), law in zip(requests, laws)]
    stack.solve()
    return [solver.results(argmins) for solver in solvers]


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------


def _check_positive(R: float) -> None:
    if not (R > 0.0):
        raise ValueError(f"rate must be positive, got {R}")


def exponent_E(R: float, p: Distribution) -> ExponentResult:
    """E(R|p): smallest divergence from p among laws of entropy at least R."""
    _check_positive(R)
    return _tilted([R], [(_TiltedE, p)], argmins=True)[0][0]


def exponent_F(R: float, p: Distribution) -> ExponentResult:
    """F(R|p): min over the simplex of [H(P)-R]^+ + D(P||p)."""
    if R < 0.0 or math.isnan(R):
        raise ValueError(f"rate must be nonnegative, got {R}")
    return _tilted([R], [(_TiltedF, p)], argmins=True)[0][0]


def exponent_pair(
    p_X: Distribution, p_K: Distribution, rates
) -> tuple[list[ExponentResult], list[ExponentResult]]:
    """E(R|p_X) and F(R|p_K) at every rate, from one stacked bisection.

    Each value is bit-equal to `exponent_E`/`exponent_F` at that rate alone;
    the results carry no argmin.  Every rate is checked before any solve.
    """
    for R in rates:
        _check_positive(R)
    E, F = _tilted(rates, [(_TiltedE, p_X), (_TiltedF, p_K)], argmins=False)
    return E, F


def positivity_region(p_X: Distribution, p_K: Distribution, R_grid) -> list[dict]:
    """Per-rate positivity flags for E(R|p_X) and F(R|p_K).

    Both are positive together exactly on {H(X) < R < H(K)} (up to grid
    resolution and POSITIVITY_THRESHOLD).  The whole grid is one
    `exponent_pair` call.
    """
    rates = [float(R) for R in R_grid]
    E, F = exponent_pair(p_X, p_K, rates)
    return [
        {
            "R": R,
            "E": e.value,
            "F": f.value,
            "E_positive": bool(e.value > POSITIVITY_THRESHOLD),
            "F_positive": bool(f.value > POSITIVITY_THRESHOLD),
        }
        for R, e, f in zip(rates, E, F)
    ]


def admissible_thresholds(p_X: Distribution, p_K: Distribution) -> dict:
    """Rate thresholds of the admissible region.

    achievable_threshold: H(X) when H(X) < H(K), else +inf — above it the
    scheme is simultaneously reliable and secret.  converse_threshold: the
    same with a non-strict comparison — below it no scheme works.
    strong_converse_rate: H(X) when the strict inequality holds (the single
    rate at which the transition is sharp); None otherwise.
    """
    hx = entropy(p_X)
    hk = entropy(p_K)
    return {
        "h_x": hx,
        "h_k": hk,
        "achievable_threshold": hx if hx < hk else math.inf,
        "converse_threshold": hx if hx <= hk else math.inf,
        "strong_converse_rate": hx if hx < hk else None,
    }
