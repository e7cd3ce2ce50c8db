"""Slow reference implementations that the array paths are checked against.

These are the loops the package used before its laws moved to a transform
over Z_q^m, its decryption check to one array comparison per key, its Monte
Carlo estimator to counted cells and its type-class generator to an
iterative next-permutation; keep them to small n.  The law oracles work
tuple by tuple, so they are independent of the codebook's index arrays
(`member_idx`, `rank_of`) and of the transform.  The decryption oracle calls
the shipped `encrypt` and `decrypt` once per (key, plaintext) pair.
"""

import math

import numpy as np

from typecipher.cipher import CipherSystem, decrypt, encrypt, pad_law
from typecipher.code import decode, encode
from typecipher.fields import all_vectors, vectors_to_indices
from typecipher.leakage import MonteCarloMI


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
        rank = cb.member_rank.get(tuple(int(v) for v in xs[i]))
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
    tuple cache, and every bootstrap replicate re-sorting its resampled rows."""
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
            w = encode(cb, x)
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
        std_error=float(np.std(reps, ddof=1)),
        samples=samples,
        raw_plugin=raw,
        corrected=corrected,
    )
