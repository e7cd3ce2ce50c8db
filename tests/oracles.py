"""Slow reference implementations that the array paths are checked against.

These are the loops the package used before its laws moved to a transform
over Z_q^m, its decryption check to one array comparison per key, its Monte
Carlo estimator to counted cells and its type-class generator to an
iterative next-permutation; keep them to small n.  The codebook oracle is
the tuple codebook the package used to keep (`members`, `member_rank`),
listed here by the recursive generator, so the law oracles that work tuple
by tuple are independent of the codebook's rank arithmetic, of its index
arrays (`member_idx`, `rank_of`) and of the transform.  The exact-rational
pad and image laws (`pad_law_fraction`, `omega_counts`, `omega_dist`,
`class_prob_fraction`) and the scalar affine map `vec_affine` are here
because only tests use them.  The decryption oracle calls the shipped
`encrypt` and `decrypt` once per (key, plaintext) pair.  The tilted exponent
solver is the scalar one that the stacked bisection replaced: one bisection
per rate, per face and per branch, each on its own 1-D arrays, summed left
to right as the stacked solver sums each column.  The grid exponent
solver enumerates the simplex of a binary or ternary alphabet and assumes
nothing about where the minimizer lies: it is the arbiter of record for
both tilted solvers.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import combinations

import numpy as np

from typecipher.cipher import CipherSystem, decrypt, encrypt, pad_law
from typecipher.code import decode, encode
from typecipher.exponents import TOLERANCE, ExponentResult
from typecipher.fields import (
    FieldError,
    all_vectors,
    index_decode,
    index_encode,
    vectors_to_indices,
)
from typecipher.leakage import MonteCarloMI
from typecipher.simplex import Distribution
from typecipher.typeclasses import class_size


# ----------------------------------------------------------------------
# tuple codebook and exact-rational laws
# ----------------------------------------------------------------------


@cache
def members(cb):
    """Every member tuple of cb in rank order: type by type, each class in
    lexicographic order."""
    return tuple(x for P in cb.member_types for x in class_members(P))


@cache
def member_rank(cb):
    """Rank of each member tuple (the inverse of `members`)."""
    return {x: i for i, x in enumerate(members(cb))}


def encode_tuple(cb, x):
    """Member i to the word with positional value i+1, others to x0, by
    dictionary lookup."""
    rank = member_rank(cb).get(tuple(int(a) for a in x))
    return cb.x0 if rank is None else index_decode(rank + 1, cb.plan.m, cb.spec)


def vec_affine(k, A, b, spec):
    """Affine map k |-> kA + b over Z_q (k a row vector of length n, A n x m)."""
    n, m = A.shape
    if len(k) != n or len(b) != m:
        raise FieldError(f"shapes {len(k)}, {A.shape}, {len(b)} do not match")
    kv = np.asarray(k, dtype=np.int64)
    return tuple(int(v) for v in (kv @ A + np.asarray(b, dtype=np.int64)) % spec.q)


def class_prob_fraction(P, p):
    """Exact-rational class probability for a rational symbol law."""
    value = Fraction(class_size(P))
    for a, c in enumerate(P.counts):
        if c:
            value *= Fraction(p[a]) ** c
    return value


def pad_law_fraction(enc, p_K, spec):
    """Exact-rational pad law for a rational key law, key by key."""
    out = [Fraction(0)] * spec.q**enc.m
    for key in all_vectors(enc.n, spec):
        k = tuple(int(v) for v in key)
        prob = Fraction(1)
        for a in k:
            prob *= Fraction(p_K[a])
        out[index_encode(vec_affine(k, enc.A, enc.b, spec), spec)] += prob
    return out


def omega_counts(P, enc, spec):
    """Integer image counts of the type class T^n(P) under the key encoder."""
    counts = np.zeros(spec.q**enc.m, dtype=np.int64)
    for k in class_members(P):
        counts[index_encode(vec_affine(k, enc.A, enc.b, spec), spec)] += 1
    return counts, class_size(P)


def omega_dist(P, enc, spec):
    """Omega_P: the image law of a uniformly random key of type P."""
    counts, size = omega_counts(P, enc, spec)
    return Distribution(counts / size)


# ----------------------------------------------------------------------
# exact laws and checks
# ----------------------------------------------------------------------


def shift_mixture(pad, weights, digits, q):
    """sum_w weights[w] * pad((. - w) mod q), one codeword at a time."""
    out = np.zeros_like(pad)
    for w in np.nonzero(weights)[0]:
        shifted = (digits - digits[w]) % q
        idx = shifted[:, 0]
        for j in range(1, digits.shape[1]):
            idx = idx * q + shifted[:, j]
        out += weights[w] * pad[idx]
    return out


def codeword_weights(sys_: CipherSystem, p_X, mask=None):
    """Plaintext mass grouped by codeword index, through tuple lookups."""
    cb = sys_.codebook
    xs = all_vectors(sys_.plan.n, sys_.spec)
    px = np.prod(np.asarray(p_X)[xs], axis=1)
    weights = np.zeros(sys_.spec.q**sys_.plan.m)
    rows = range(xs.shape[0]) if mask is None else np.nonzero(mask)[0]
    for i in rows:
        rank = member_rank(cb).get(tuple(int(v) for v in xs[i]))
        weights[0 if rank is None else rank + 1] += px[i]
    return weights


def ciphertext_law(sys_: CipherSystem, p_X, p_K):
    """Law of C = phi(K) + encode(X) by the per-codeword shift loop."""
    spec = sys_.spec
    pad = pad_law(sys_.key_encoder, p_K, spec)
    digits = all_vectors(sys_.plan.m, spec)
    return shift_mixture(pad, codeword_weights(sys_, p_X), digits, spec.q)


def check_decryption_condition(sys_: CipherSystem) -> bool:
    """decrypt(k, encrypt(k, x)) == decode(encode(x)) pair by pair, on tuples."""
    keys = [tuple(int(v) for v in row) for row in all_vectors(sys_.plan.n, sys_.spec)]
    cb = sys_.codebook
    expected = {x: decode(cb, encode(cb, x)) for x in keys}
    for k in keys:
        for x in keys:
            if decrypt(sys_, k, encrypt(sys_, k, x)) != expected[x]:
                return False
    return True


def _members(counts, remaining):
    if remaining == 0:
        yield ()
        return
    for a, c in enumerate(counts):
        if c:
            counts[a] -= 1
            for rest in _members(counts, remaining - 1):
                yield (a,) + rest
            counts[a] += 1


def class_members(P):
    """All sequences of type P in lexicographic order, by recursion."""
    yield from _members(list(P.counts), P.n)


def _plugin_mi(xi, ci, corrected):
    n_samples = xi.size
    pairs = np.stack([xi, ci], axis=1)
    _, joint = np.unique(pairs, axis=0, return_counts=True)
    _, left = np.unique(xi, return_counts=True)
    _, right = np.unique(ci, return_counts=True)

    def h(counts):
        p = counts / n_samples
        return float(-np.sum(p * np.log2(p)))

    mi = h(left) + h(right) - h(joint)
    if corrected:
        mi += (left.size + right.size - joint.size - 1) / (
            2.0 * n_samples * math.log(2.0)
        )
    return mi


def monte_carlo_mi(sys_, p_X, p_K, samples, seed, corrected=True, bootstrap=200):
    """Plug-in I(C; X) over sampled pairs: each sample encoded through a
    tuple cache, and every bootstrap replicate re-sorting its resampled rows
    (none, and no standard error, when `bootstrap` is 0)."""
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    spec, plan, cb = sys_.spec, sys_.plan, sys_.codebook
    rng = np.random.default_rng(seed)
    q = spec.q
    xs = rng.choice(q, size=(samples, plan.n), p=np.asarray(p_X))
    ks = rng.choice(q, size=(samples, plan.n), p=np.asarray(p_K))
    pads = (ks @ sys_.key_encoder.A + np.asarray(sys_.key_encoder.b)) % q
    words = np.empty((samples, plan.m), dtype=np.int64)
    word_cache = {}
    for i in range(samples):
        x = tuple(int(v) for v in xs[i])
        w = word_cache.get(x)
        if w is None:
            w = encode_tuple(cb, x)
            word_cache[x] = w
        words[i] = w
    ci = vectors_to_indices((pads + words) % q, spec)
    xi = vectors_to_indices(xs.astype(np.int64), spec)

    point = _plugin_mi(xi, ci, corrected)
    raw = point if not corrected else _plugin_mi(xi, ci, False)
    reps = np.empty(bootstrap)
    for b in range(bootstrap):
        idx = rng.integers(0, samples, size=samples)
        reps[b] = _plugin_mi(xi[idx], ci[idx], corrected)
    return MonteCarloMI(
        estimate=point,
        std_error=float(np.std(reps, ddof=1)) if bootstrap else None,
        samples=samples,
        raw_plugin=raw,
        corrected=corrected,
    )


# ----------------------------------------------------------------------
# scalar tilted exponent solver
# ----------------------------------------------------------------------


def _support(p: Distribution) -> tuple[np.ndarray, np.ndarray]:
    full = np.asarray(p, dtype=np.float64)
    idx = np.flatnonzero(full > 0.0)
    return full, idx


def _embed(sub: np.ndarray, idx: np.ndarray, q: int) -> Distribution:
    full = np.zeros(q)
    full[idx] = sub
    # Clean tiny negative round-off before handing to the validator.
    full = np.clip(full, 0.0, None)
    return Distribution(full / full.sum())


def _sum(v: np.ndarray) -> float:
    """v[0] + v[1] + ..., left to right: the order in which the stacked
    solver sums each column."""
    return float(np.cumsum(v)[-1]) if v.size else 0.0


def _tilt(logp: np.ndarray, s: float) -> np.ndarray:
    w = s * logp
    w -= w.max()
    P = np.exp2(w)
    return P / _sum(P)


def _xlog2x(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = v > 0.0
    out[pos] = v[pos] * np.log2(v[pos])
    return out


def _H(P: np.ndarray) -> float:
    return -_sum(_xlog2x(P))


def _D(P: np.ndarray, p: np.ndarray) -> float:
    pos = P > 0.0
    return _sum(P[pos] * (np.log2(P[pos]) - np.log2(p[pos])))


def _cross_entropy(P: np.ndarray, p: np.ndarray) -> float:
    pos = P > 0.0
    return -_sum(P[pos] * np.log2(p[pos]))


def _bisect_entropy(
    logp: np.ndarray, target: float, s_lo: float, s_hi: float, iters: int = 80
) -> np.ndarray:
    """Find P_s with H(P_s) = target between two s values bracketing it.

    Caller guarantees H is monotone on [s_lo, s_hi]; returns the endpoint on
    whichever side the caller bracketed as feasible last.
    """
    h_lo = _H(_tilt(logp, s_lo))
    for _ in range(iters):
        mid = 0.5 * (s_lo + s_hi)
        if (_H(_tilt(logp, mid)) >= target) == (h_lo >= target):
            s_lo = mid
        else:
            s_hi = mid
    return _tilt(logp, s_lo)


def _expand_until(logp: np.ndarray, target: float, direction: float) -> float | None:
    """Smallest |s| along `direction` (+1/-1) with H(P_s) strictly past target."""
    s = direction
    for _ in range(80):
        if _H(_tilt(logp, s)) < target:
            return s
        s *= 2.0
    return None


def tilted_E(R: float, p: Distribution) -> ExponentResult:
    full, idx = _support(p)
    sub = full[idx]
    k = idx.size
    log_k = math.log2(k)
    Hp = _H(sub)
    if R <= Hp:
        return ExponentResult(0.0, Distribution(full), TOLERANCE)
    if R > log_k:
        return ExponentResult(math.inf, None, TOLERANCE)
    logp = np.log2(sub)
    # H(P_s) falls from log k at s=0 to H(p) at s=1; keep the feasible side.
    P = _bisect_entropy(logp, R, s_lo=0.0, s_hi=1.0)
    return ExponentResult(_D(P, sub), _embed(P, idx, len(p)), TOLERANCE)


def _regime_plain(R: float, sub: np.ndarray, logp: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Stationary candidates for min D(P||p) over {H(P) <= R}."""
    k = sub.size
    cands: list[tuple[float, np.ndarray]] = []
    if k <= 4:
        faces = [
            np.array(c) for r in range(1, k + 1) for c in combinations(range(k), r)
        ]
    else:
        order = np.argsort(-sub)
        faces = [order[:j] for j in range(1, k + 1)]
    for face in faces:
        fsub = sub[face]
        flog = logp[face]
        j = fsub.size
        if j == 1:
            P = np.zeros(k)
            P[face] = 1.0
            cands.append((_D(P, sub), P))
            continue
        interior = fsub / fsub.sum()
        if _H(interior) <= R:
            P = np.zeros(k)
            P[face] = interior
            cands.append((_D(P, sub), P))
        # Crossings of H = R on the two monotone branches of the family.
        for direction in (+1.0, -1.0):
            far = _expand_until(flog, R, direction)
            if far is None:
                continue
            Pf = _bisect_entropy(flog, R, s_lo=far, s_hi=0.0)
            P = np.zeros(k)
            P[face] = Pf
            cands.append((_D(P, sub), P))
    return cands


def tilted_F(R: float, p: Distribution) -> ExponentResult:
    full, idx = _support(p)
    sub = full[idx]
    k = idx.size
    log_k = math.log2(k)
    logp = np.log2(sub)
    Hp = _H(sub)

    candidates: list[tuple[float, np.ndarray]] = []

    # [.]^+ inactive: minimize D over {H <= R}.
    if Hp <= R:
        candidates.append((0.0, sub.copy()))
    else:
        candidates.extend(_regime_plain(R, sub, logp))

    # [.]^+ active: minimize cross-entropy - R over the convex set {H >= R}.
    if R <= log_k:
        pmax = sub.max()
        ties = int(np.sum(sub >= pmax * (1.0 - 1e-12)))
        if math.log2(ties) >= R:
            P = np.where(sub >= pmax * (1.0 - 1e-12), 1.0, 0.0)
            P /= P.sum()
            candidates.append((_cross_entropy(P, sub) - R, P))
        else:
            far = _expand_until(logp, R, +1.0)
            if far is not None:
                P = _bisect_entropy(logp, R, s_lo=0.0, s_hi=far)
                candidates.append((_cross_entropy(P, sub) - R, P))

    value, P = min(candidates, key=lambda c: c[0])
    return ExponentResult(max(value, 0.0), _embed(P, idx, len(p)), TOLERANCE)


# ----------------------------------------------------------------------
# grid exponent solver (the brute-force arbiter)
# ----------------------------------------------------------------------

GRID_MAX_ALPHABET = 3
DEFAULT_GRID_STEP = 1e-4


def _grid_points(k: int, step: float) -> np.ndarray:
    t = np.arange(0.0, 1.0 + step / 2, step)
    t[-1] = 1.0
    if k == 2:
        return np.column_stack([t, 1.0 - t])
    a, b = np.meshgrid(t, t, indexing="ij")
    keep = a + b <= 1.0 + 1e-15
    a, b = a[keep], b[keep]
    return np.column_stack([a, b, np.clip(1.0 - a - b, 0.0, None)])


def _grid_eval(P: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies and divergences against p for every row of P."""
    H = -_xlog2x(P).sum(axis=1)
    inside = np.all((P == 0.0) | (p > 0.0), axis=1)
    D = np.full(P.shape[0], np.inf)
    if np.any(inside):
        sel = P[inside]
        log_p = np.log2(np.where(p > 0, p, 1.0))
        terms = np.where(sel > 0.0, sel * (np.log2(np.where(sel > 0, sel, 1.0)) - log_p), 0.0)
        D[inside] = terms.sum(axis=1)
    return H, D


def _refine_box(center: np.ndarray, radius: float, step: float, k: int) -> np.ndarray:
    axes = []
    for c in center[: k - 1]:
        lo = max(0.0, c - radius)
        hi = min(1.0, c + radius)
        axes.append(np.arange(lo, hi + step / 2, step))
    if k == 2:
        t = axes[0]
        P = np.column_stack([t, 1.0 - t])
    else:
        a, b = np.meshgrid(axes[0], axes[1], indexing="ij")
        keep = a + b <= 1.0 + 1e-15
        a, b = a[keep], b[keep]
        P = np.column_stack([a, b, 1.0 - a - b])
    return np.clip(P, 0.0, None)


def _grid_min(objective, k: int, step: float) -> tuple[float, np.ndarray | None]:
    """Two-stage grid minimization; coarse pass only when the fine lattice
    would be too large to enumerate outright."""
    coarse = max(step, 1e-3) if k == 3 else step
    P = _grid_points(k, coarse)
    vals = objective(P)
    best = int(np.argmin(vals))
    if not np.isfinite(vals[best]):
        return math.inf, None
    best_val, best_P = float(vals[best]), P[best]
    if coarse > step:
        for center in (best_P, np.full(k, 1.0 / k)):
            Pr = _refine_box(center, 3 * coarse, step, k)
            vr = objective(Pr)
            i = int(np.argmin(vr))
            if np.isfinite(vr[i]) and vr[i] < best_val:
                best_val, best_P = float(vr[i]), Pr[i]
    return best_val, best_P


def _grid_law(p: Distribution) -> np.ndarray:
    full = np.asarray(p, dtype=np.float64)
    if full.size > GRID_MAX_ALPHABET:
        raise ValueError(f"grid solver limited to alphabets of size <= {GRID_MAX_ALPHABET}")
    return full


def grid_E(R: float, p: Distribution, step: float = DEFAULT_GRID_STEP) -> ExponentResult:
    """E(R|p) as the least divergence over a lattice of the simplex."""
    full = _grid_law(p)

    def objective(P: np.ndarray) -> np.ndarray:
        H, D = _grid_eval(P, full)
        return np.where(H >= R, D, np.inf)

    value, P = _grid_min(objective, full.size, step)
    if not np.isfinite(value):
        return ExponentResult(math.inf, None, step)
    return ExponentResult(value, Distribution(P / P.sum()), step)


def grid_F(R: float, p: Distribution, step: float = DEFAULT_GRID_STEP) -> ExponentResult:
    """F(R|p) as the least objective over a lattice of the simplex."""
    full = _grid_law(p)

    def objective(P: np.ndarray) -> np.ndarray:
        H, D = _grid_eval(P, full)
        return np.maximum(H - R, 0.0) + D

    value, P = _grid_min(objective, full.size, step)
    return ExponentResult(max(value, 0.0), Distribution(P / P.sum()), step)
