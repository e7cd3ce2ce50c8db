"""Slow reference implementations that the array paths are checked against.

These are the loops the package used before its laws moved to a transform
over Z_q^m and its decryption check to one array comparison per key; keep
them to small n.  The law oracles work tuple by tuple, so they are
independent of the codebook's index arrays (`member_idx`, `rank_of`) and of
the transform.  The decryption oracle calls the shipped `encrypt` and
`decrypt` once per (key, plaintext) pair.
"""

import numpy as np

from typecipher.cipher import CipherSystem, decrypt, encrypt, pad_law
from typecipher.code import decode, encode
from typecipher.fields import all_vectors


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
