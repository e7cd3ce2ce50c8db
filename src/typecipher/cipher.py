"""Affine key encoder and the resulting cipher.

A key k in X^n is whitened to a length-m pad through phi(k) = kA + b over
Z_q, with A and b drawn entrywise uniform from a seeded generator.  The
ciphertext is the pad plus the codeword of the plaintext; the receiver
subtracts its own pad and decodes.  Both steps act digit by digit, so
decryption recovers decode(encode(x)) for every key — the correctness
condition of the cipher, which `check_decryption_condition` settles on the
q**2 digit pairs — and is exact on codebook members.

Security accounting happens per type class of the key: for each type P the
image law

    Omega_P(w) = |{k in T^n(P) : phi(k) = w}| / |T^n(P)|

measures how evenly the class spreads over the word space, and

    theta(P) = log2(1 + (q**m - 1) / |T^n(P)|)

caps its expected divergence from uniform when the encoder is drawn at
random.  The weighted score sum_P D(Omega_P || uniform) / theta(P) has
expectation at most |P_n(X)|, so scanning seeds for a score below that count
yields a concrete encoder certified type-by-type (D(Omega_P||U) <=
|P_n(X)| theta(P) for every P).  That scan is `derandomize`.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .code import Codebook, RatePlan, _member_list, decode_rows, encode
from .fields import (
    FieldError,
    FieldSpec,
    Record,
    _check_enum,
    _digit_dtype,
    _power,
    all_vectors,
    field_matrix,
    field_row,
    field_vector,
    vector_to_text,
    vectors_to_indices,
)
from .simplex import Distribution
from .typeclasses import (
    TypeComposition,
    _check_types,
    class_size,
    enumerate_types,
    n_types,
    sequence_probs,
    type_counts,
)

__all__ = [
    "AffineEncoder",
    "CipherSystem",
    "draw_encoder",
    "make_encoder",
    "encrypt",
    "decrypt",
    "check_decryption_condition",
    "injective_on_members",
    "n_types",
    "pad_law",
    "theta_n",
    "omega_divergences",
    "search_score",
    "SearchResult",
    "derandomize",
    "encoder_to_json",
]

# Most keys whose pads a key pass holds at once (a block is a power of q).
KEY_BLOCK = 1 << 15


class AffineEncoder(Record):
    """The key-whitening map k -> kA + b; seed records the draw (None if
    hand-built).  Equal only to itself: A is an array."""

    A: np.ndarray
    b: tuple[int, ...]
    seed: int | None = None

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]


# ----------------------------------------------------------------------
# seeded draws
#
# numpy's SeedSequence -> PCG64 stream and the Generator methods that read
# it (`integers` below 2^32, `choice` with p), copied bit for bit
# so that no draw, the encoder's or the Monte Carlo estimator's, imports
# numpy's random module: the import costs more than a small exact job, and
# more than all the sampling of a sampled sweep.  The stream is fixed by
# this code, not by the installed numpy.
# ----------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# A read of at most _PY_STATES outputs before any longer one steps the LCG
# in Python ints; the stream then advances rows of up to _LANES states.
_PY_STATES = 256
_LANES = 8192
_U32, _U58, _U64 = np.uint64(32), np.uint64(58), np.uint64(64)
_LOW32 = np.uint64(_MASK32)


def _entropy_words(entropy: Sequence[int]) -> list[int]:
    """Each non-negative int as its little-endian uint32 words, in turn."""
    words = []
    for value in entropy:
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


def seed_state(entropy: Sequence[int], n_words: int) -> list[int]:
    """numpy's `SeedSequence(entropy).generate_state(n_words)` as ints."""
    words = _entropy_words(entropy)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ (value >> 16))
    return out


def _halves(states: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit states as their high and low uint64 halves."""
    hi = np.array([s >> 64 for s in states], dtype=np.uint64)
    lo = np.array([s & _MASK64 for s in states], dtype=np.uint64)
    return hi, lo


def _affine(a: int, c: int, hi: np.ndarray, lo: np.ndarray):
    """a * s + c mod 2^128 for every state s = hi * 2^64 + lo, on uint64
    halves: the low product wraps, and its carry into the high half is
    taken from 32-bit limbs of lo and a."""
    a_hi, a_lo = np.uint64(a >> 64), np.uint64(a & _MASK64)
    a0, a1 = np.uint64(a & _MASK32), np.uint64(a >> 32 & _MASK32)
    c_hi, c_lo = np.uint64(c >> 64), np.uint64(c & _MASK64)
    x0, x1 = lo & _LOW32, lo >> _U32
    mid = x0 * a1 + (x0 * a0 >> _U32)
    top = x1 * a0 + (mid & _LOW32)
    new_hi = x1 * a1 + (mid >> _U32) + (top >> _U32) + hi * a_lo + lo * a_hi + c_hi
    new_lo = lo * a_lo + c_lo
    new_hi += new_lo < c_lo
    return new_hi, new_lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output: the xor-folded state rotated right by its top 6 bits
    (numpy's shift by 64 gives 0, so rotating by 0 needs no mask)."""
    x = hi ^ lo
    r = hi >> _U58
    return (x >> r) | (x << (_U64 - r))


class _PCG64:
    """numpy's PCG64 seeded from `seed`.

    `uint64s` reads its 64-bit outputs (`next_uint64`) and `uint32s` its
    32-bit words: each 64-bit output gives its low half, then (on the next
    32-bit read) its high half, which 64-bit reads leave buffered.

    Short reads step the LCG in Python ints.  The first read longer than
    _PY_STATES steps _PY_STATES states in Python ints; from then on the
    stream is a row of states (uint64 halves) that the b-step map
    s -> A_b s + C_b advances b states at once, b being the row's width
    (O'Neill's jump-ahead for LCGs).  While b < _LANES each advanced row is
    appended, doubling it; past that it replaces the row.  Outputs of a row
    beyond the read wait in `ahead` for the next read.
    """

    def __init__(self, seed: int) -> None:
        w = seed_state([seed], 8)
        w0, w1, w2, w3 = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
        self.inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self.state = ((self.inc + (w0 << 64 | w1)) * _PCG_MULT + self.inc) & _MASK128
        self.high: int | None = None
        self.row: tuple[np.ndarray, np.ndarray] | None = None
        self.jump = (1, 0)  # (A_b, C_b) for the row's width b
        self.ahead = np.empty(0, dtype=np.uint64)

    def _states(self, count: int) -> list[int]:
        state, inc, out = self.state, self.inc, []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _MASK128
            out.append(state)
        self.state = state
        return out

    def _next_row(self) -> np.ndarray:
        if self.row is None:
            start = self.state
            states = self._states(_PY_STATES)
            a = pow(_PCG_MULT, _PY_STATES, 1 << 128)
            self.row, self.jump = _halves(states), (a, (states[-1] - a * start) & _MASK128)
            return _xsl_rr(*self.row)
        (a, c), (hi, lo) = self.jump, self.row
        new = _affine(a, c, hi, lo)
        if len(hi) < _LANES:
            self.row = (np.concatenate([hi, new[0]]), np.concatenate([lo, new[1]]))
            self.jump = (a * a & _MASK128, (a * c + c) & _MASK128)
        else:
            self.row = new
        return _xsl_rr(*new)

    def _chunks(self, count: int):
        """The next `count` 64-bit outputs, as consecutive arrays."""
        if self.row is None and count <= _PY_STATES:
            yield _xsl_rr(*_halves(self._states(count)))
            return
        while count:
            if not len(self.ahead):
                self.ahead = self._next_row()
            part, self.ahead = self.ahead[:count], self.ahead[count:]
            count -= len(part)
            yield part

    def uint64s(self, count: int) -> np.ndarray:
        """The next `count` 64-bit outputs."""
        out = np.empty(count, dtype=np.uint64)
        done = 0
        for part in self._chunks(count):
            out[done : done + len(part)] = part
            done += len(part)
        return out

    def uint32s(self, count: int) -> np.ndarray:
        """The next `count` 32-bit words."""
        head = []
        if self.high is not None and count:
            head, self.high, count = [self.high], None, count - 1
        words = self.uint64s((count + 1) // 2).astype("<u8", copy=False).view("<u4")
        if count % 2:
            self.high, words = int(words[-1]), words[:-1]
        return np.concatenate([np.array(head, dtype="<u4"), words]) if head else words


def _lemire(words: np.ndarray, q: int) -> np.ndarray:
    """Lemire's bounded draw below q over 32-bit `words`: the high half of
    word * q, keeping only the words whose low half reaches the rejection
    threshold (2^32 - q) % q; a rejected word is skipped, as numpy's retry
    draws the next word and tests it the same way."""
    words = words.astype(np.uint32, copy=False)
    # the low half is the wrapping 32-bit product, cheaper than masking
    keep = words * np.uint32(q) >= np.uint32(((1 << 32) - q) % q)
    prod = words.astype(np.uint64)
    prod *= np.uint64(q)
    prod >>= np.uint64(32)
    return prod if keep.all() else prod[keep]


def _bounded(next_words, q: int, count: int) -> np.ndarray:
    """`count` draws below q (2 <= q < 2^32: numpy's 32-bit path), reading
    words from `next_words(k)` and again for each rejected word."""
    parts = []
    while count:
        part = _lemire(next_words(count), q)
        parts.append(part)
        count -= len(part)
    # every draw is below q < 2^32, so its uint64 bits read the same as int64
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)).view(np.int64)


def _choice(rng: _PCG64, p, shape: tuple[int, ...]) -> np.ndarray:
    """Symbols drawn from law p, numpy's `Generator.choice(len(p), shape,
    p=p)`, in the digit dtype of q = len(p): numpy places u = (x >> 11)
    2^-53 of each 64-bit output x in the normalized cumulative law
    (`searchsorted(u, side="right")`), which is the number of cut points
    t_j = ceil(cdf_j 2^53) 2^11 that x reaches.  A cut at 2^64 (cdf_j = 1)
    is never reached, so it is dropped."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    cuts = np.ceil(cdf[cdf < 1.0] * 2.0**53).astype(np.uint64) << np.uint64(11)
    out = np.zeros(math.prod(shape), dtype=_digit_dtype(len(cdf)))
    done = 0
    for part in rng._chunks(out.size):
        symbols = out[done : done + len(part)]
        for cut in cuts:
            symbols += part >= cut
        done += len(part)
    return out.reshape(shape)


def draw_encoder(plan: RatePlan, seed: int) -> AffineEncoder:
    """Entrywise-uniform A then b, the values numpy's
    `default_rng(seed).integers(0, q, ...)` gives for the two shapes in
    turn; a negative seed raises ValueError, and more than MAX_ENUM digits
    of A a FieldError."""
    _check_enum(plan.n * plan.m, f"{plan.n}x{plan.m} encoder digits")
    words = _PCG64(seed).uint32s
    A = _bounded(words, plan.q, plan.n * plan.m).reshape(plan.n, plan.m)
    b = _bounded(words, plan.q, plan.m)
    A.flags.writeable = False
    return AffineEncoder(A=A, b=tuple(int(v) for v in b), seed=int(seed))


def make_encoder(A, b, spec: FieldSpec, seed: int | None = None) -> AffineEncoder:
    """Hand-built encoder with validation (used by tests and diagnostics)."""
    return AffineEncoder(A=field_matrix(A, spec), b=field_vector(b, spec), seed=seed)


class CipherSystem(Record):
    codebook: Codebook
    key_encoder: AffineEncoder

    def __init__(self, codebook: Codebook, key_encoder: AffineEncoder) -> None:
        plan = codebook.plan
        if key_encoder.A.shape != (plan.n, plan.m):
            raise FieldError(
                f"encoder shape {key_encoder.A.shape} does not match plan ({plan.n}, {plan.m})"
            )
        if len(key_encoder.b) != plan.m:
            raise FieldError(f"offset length {len(key_encoder.b)} does not match m={plan.m}")
        self.__dict__.update(codebook=codebook, key_encoder=key_encoder)

    @property
    def plan(self) -> RatePlan:
        return self.codebook.plan

    @property
    def spec(self) -> FieldSpec:
        return self.codebook.spec


def _fold(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, for entries in [0, 2q) of an unsigned (digit)
    dtype: x - q wraps past x exactly when x < q, so the smaller is the
    residue."""
    return np.minimum(x, x - x.dtype.type(q), out=x)


def _encrypt_words(sys: CipherSystem, pads: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Ciphertext rows pad + codeword over Z_q (rows broadcast), from
    residues: the sum stays below 2q, which the digit dtype holds."""
    return _fold(pads + words, sys.spec.q)


def _recover_words(sys: CipherSystem, pads: np.ndarray, cipher: np.ndarray) -> np.ndarray:
    """Codeword rows c - p over Z_q (rows broadcast), from residues: the
    difference is taken as c + (q - p), which lies in [1, 2q) and so never
    wraps an unsigned row."""
    q = sys.spec.q
    return _fold(cipher + (pads.dtype.type(q) - pads), q)


def _decrypt_words(sys: CipherSystem, pads: np.ndarray, cipher: np.ndarray) -> np.ndarray:
    """The sequence (a digit row) that decryption returns for each ciphertext
    row of residues: the recovered codeword (`_recover_words`), decoded."""
    return decode_rows(sys.codebook, _recover_words(sys, pads, cipher))


def _pad(sys: CipherSystem, k: Sequence[int]) -> np.ndarray:
    key = field_row(k, sys.plan.n, sys.spec, "key")
    return _key_pads(sys.key_encoder, key, sys.spec)


def encrypt(sys: CipherSystem, k: Sequence[int], x: Sequence[int]) -> tuple[int, ...]:
    word = np.asarray(encode(sys.codebook, x), dtype=sys.spec.digit_dtype)
    return tuple(int(v) for v in _encrypt_words(sys, _pad(sys, k), word))


def decrypt(sys: CipherSystem, k: Sequence[int], c: Sequence[int]) -> tuple[int, ...]:
    cipher = field_row(c, sys.plan.m, sys.spec, "ciphertext").astype(sys.spec.digit_dtype)
    return tuple(_decrypt_words(sys, _pad(sys, k), cipher).tolist())


def check_decryption_condition(sys: CipherSystem) -> bool:
    """Whether decrypt(k, encrypt(k, x)) = decode(encode(x)) for every key k
    and plaintext x, at any n, from the q**2 (pad digit, word digit) pairs.

    - `_encrypt_words` and `_recover_words` act digit by digit (`_fold` of
      a digitwise sum), so a pad and codeword come back whole exactly when
      each digit pair does;
    - every pad digit is a residue, as `_pad_table` folds every row of
      every pad;
    - every codeword digit is a residue;
    - decrypt reads `decode_rows` of the recovered codeword, which is
      decode(encode(x)) by definition once that codeword is encode(x).

    So the table of all q**2 residue pairs, pushed through the shipped
    helpers, settles the condition with no key visited and no cap read.
    """
    q, dtype = sys.spec.q, sys.spec.digit_dtype
    pads, words = (a.astype(dtype) for a in np.divmod(np.arange(q * q), q))
    return np.array_equal(_recover_words(sys, pads, _encrypt_words(sys, pads, words)), words)


def injective_on_members(sys: CipherSystem) -> bool:
    """For every key, x -> encrypt(k, x) is one-to-one on codebook members.

    Adding a fixed pad is a bijection of Z_q^m, so this holds for every key
    exactly when the members' codewords are distinct.  Checked as the round
    trip of the two class walks: every rank, unranked by the decoder's walk
    (`Codebook.members`), must come back through the encoder's walk
    (`Codebook.ranks`) to itself, so no two members share a rank, and hence
    a codeword.  It lists every member (up to MAX_ENUM), so it costs
    O(members), and `verify` runs it at every size it reaches.
    """
    members = _member_list(sys.codebook)
    return np.array_equal(sys.codebook.ranks(members), np.arange(len(members)))


# ----------------------------------------------------------------------
# image laws of the key encoder
# ----------------------------------------------------------------------


def _pad_table(A: np.ndarray, spec: FieldSpec, start=None) -> np.ndarray:
    """start + dA over Z_q for every digit row d over the rows of A, in
    index order: A of shape (..., g, m) gives (..., q**g, m) in the digit
    dtype, from `start` (zero if None) broadcast to (..., 1, m).  Each digit
    multiplies the rows by q: every row so far plus each multiple of the
    digit's row of A."""
    q, dtype = spec.q, spec.digit_dtype
    *batch, g, m = A.shape
    steps = (np.arange(q)[:, None] * A[..., None, :] % q).astype(dtype)
    table = np.zeros((*batch, 1, m), dtype=dtype)
    if start is not None:
        table += np.asarray(start, dtype=dtype)
    for i in range(g):
        table = _fold(table[..., :, None, :] + steps[..., i, None, :, :], q)
        table = table.reshape(*batch, q ** (i + 1), m)
    return table


def _key_pads(enc: AffineEncoder, keys: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """The pad kA + b of each key row k (a single key gives one pad), in
    the digit dtype.  The key digits are cut into groups of g, each with one
    table of its q**g partial pads (`_pad_table`, b in the first), so a pad
    is the sum mod q of one table row per group.  g is the widest group
    whose table has no more rows than there are keys, one digit at least."""
    q, (n, m) = spec.q, enc.A.shape
    shape = np.shape(keys)[:-1]
    rows = np.asarray(keys).reshape(math.prod(shape), n)
    g = 1
    while g < n and q ** (g + 1) <= len(rows):
        g += 1
    groups = max(1, -(-n // g))
    # zero digits (on zero rows of A) fill the first group; a leading zero
    # leaves every index as it is
    lead = groups * g - n
    A = np.concatenate([np.zeros((lead, m), dtype=np.int64), enc.A]).reshape(groups, g, m)
    start = np.zeros((groups, 1, m), dtype=np.int64)
    start[0, 0] = enc.b
    tables = _pad_table(A, spec, start)
    if lead:
        rows = np.pad(rows, ((0, 0), (lead, 0)))
    idx = vectors_to_indices(rows.reshape(len(rows), groups, g), spec)
    picked = tables[np.arange(groups)[:, None], idx.T]
    # sum the groups pairwise, halving their number each round
    while len(picked) > 1:
        half = len(picked) // 2
        _fold(np.add(picked[:half], picked[-half:], out=picked[:half]), q)
        picked = picked[: len(picked) - half]
    return picked[0].reshape(*shape, m)


def _block_digits(n: int, q: int) -> int:
    """The trailing key digits a key block spans: the most whose q**low
    keys fit in KEY_BLOCK."""
    low = 0
    while low < n and q ** (low + 1) <= KEY_BLOCK:
        low += 1
    return low


def _key_blocks(enc: AffineEncoder, spec: FieldSpec):
    """(first key index, their pads) for every key in lexicographic order,
    q**low keys at a time (`_block_digits`).  A block's keys share their
    leading digits, so its pads are one table, the partial pads of the low
    digits, plus the pad of the block's leading digits (a row of a second
    table, b included), mod q: no key's digits are built and nothing is
    multiplied per key.  Callers hold q**n within `fields.MAX_ENUM`."""
    q, n = spec.q, enc.n
    low = _block_digits(n, q)
    table = _pad_table(enc.A[n - low :], spec)
    for block, base in enumerate(_pad_table(enc.A[: n - low], spec, enc.b)):
        yield block * q**low, _fold(table + base, q)


def key_image_indices(enc: AffineEncoder, spec: FieldSpec) -> np.ndarray:
    """Word index of phi(k) for every key k in lexicographic order."""
    images = np.empty(_check_enum(_power(spec.q, enc.n), f"{spec.q}^{enc.n} keys"), dtype=np.int64)
    for start, pads in _key_blocks(enc, spec):
        images[start : start + len(pads)] = vectors_to_indices(pads, spec)
    return images


def pad_law(enc: AffineEncoder, p_K: Distribution, spec: FieldSpec) -> np.ndarray:
    """Distribution of the pad phi(K) over word indices, K i.i.d. p_K; the
    pad's digits at some positions are the pad of A and b cut to them."""
    total = _check_enum(_power(spec.q, enc.m), f"word space {spec.q}^{enc.m}")
    key_probs = sequence_probs(p_K, enc.n, spec)
    return np.bincount(key_image_indices(enc, spec), weights=key_probs, minlength=total)


def theta_n(P: TypeComposition, plan: RatePlan) -> float:
    """log2(1 + (q**m - 1)/|T^n(P)|), the expected-divergence cap for P."""
    size = class_size(P)
    return math.log2(plan.q**plan.m - 1 + size) - math.log2(size)


def _divergence_from_counts(counts: np.ndarray, size: int, total_words: int) -> float:
    """D(counts/size || uniform over total_words) in bits, from the positive
    image counts in word order."""
    pos = counts.astype(np.float64)
    h = math.log2(size) - float(np.sum(pos * np.log2(pos))) / size
    return math.log2(total_words) - h


def _row_reduce(A: np.ndarray, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The reduced row echelon form of A over Z_q, by elimination in Python
    ints: its r nonzero rows B (the identity in the pivot columns, spanning
    the row space of A) and the r pivot columns."""
    m = A.shape[1]
    rows = A.tolist()
    pivots: list[int] = []
    for col in range(m):
        top = len(pivots)
        hit = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        inv = pow(rows[top][col], -1, q)
        pivot = rows[top] = [v * inv % q for v in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = [(a - row[col] * b) % q for a, b in zip(row, pivot)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    basis = np.array(rows[: len(pivots)], dtype=np.int64).reshape(len(pivots), m)
    return basis, tuple(pivots)


def _omega(enc: AffineEncoder, plan: RatePlan):
    """`omega_divergences` together with the row reduction of A it read.

    When rank A = n, k -> kA + b is one-to-one, so each class lands on
    |T^n(P)| distinct words and D(Omega_P || U) = m log2 q - log2 |T^n(P)|,
    the double the count below gives on all-ones counts: no key is visited.

    Otherwise (within `fields.MAX_ENUM` keys, so one byte a count) one stable
    sort of the keys on their count vectors lists them type by type in
    `enumerate_types` order, so each class is the next |T^n(P)| images, and
    each type's images are counted among themselves (`np.unique` sorts them
    into word order): no array over the q**m words is built, and the word
    space enters only through its log2.  The images are `key_image_indices`
    (refused past the cap before anything is allocated); a key's counts are
    one sum of two tables, over a key block's leading digits and over its
    low digits (`_block_digits`), in the blocks' key order.
    """
    spec, n, q = plan.spec, plan.n, plan.q
    reduced = _row_reduce(enc.A, q)
    if len(reduced[1]) == n:
        words = math.log2(q**plan.m)
        return [(P, words - math.log2(class_size(P))) for P in enumerate_types(n, spec)], reduced
    images = key_image_indices(enc, spec)
    low = _block_digits(n, q)
    low_counts, lead_counts = (
        type_counts(all_vectors(d, spec), q).astype(np.uint8) for d in (low, n - low)
    )
    key_counts = (lead_counts[:, None] + low_counts).reshape(-1, q)
    # the last key of np.lexsort sorts first: symbol 0's count
    by_type = images[np.lexsort(key_counts.T[::-1])]
    types = enumerate_types(plan.n, spec)
    ends = np.cumsum([class_size(P) for P in types])
    out = []
    for P, own in zip(types, np.split(by_type, ends[:-1])):
        counts = np.unique(own, return_counts=True)[1]
        out.append((P, _divergence_from_counts(counts, own.size, spec.q**plan.m)))
    return out, reduced


def omega_divergences(
    enc: AffineEncoder, plan: RatePlan
) -> list[tuple[TypeComposition, float]]:
    """(P, D(Omega_P || uniform)) for every type P of length n."""
    return _omega(enc, plan)[0]


def _score(divergences, plan: RatePlan) -> float:
    return sum(d / theta_n(P, plan) for P, d in divergences)


def search_score(enc: AffineEncoder, plan: RatePlan) -> float:
    """sum_P D(Omega_P||uniform) / theta(P); expectation <= |P_n(X)|."""
    return _score(omega_divergences(enc, plan), plan)


class SearchResult(Record, hidden=("reduced",)):
    """The certified encoder of `derandomize`, with the per-type divergences
    D(Omega_P || uniform) its score was computed from and the row reduction
    of its A (`_row_reduce`) that chose how they were computed."""

    encoder: AffineEncoder
    seed: int
    score: float
    attempts: int
    type_count: int
    divergences: tuple[tuple[TypeComposition, float], ...]
    reduced: tuple[np.ndarray, tuple[int, ...]]


def derandomize(
    plan: RatePlan, max_attempts: int = 1000, base_seed: int = 0
) -> SearchResult:
    """First seed whose encoder scores at most |P_n(X)|.

    The score's expectation over the draw is at most |P_n(X)|, and the
    returned encoder satisfies the per-type certificate D(Omega_P||U) <=
    |P_n(X)| theta(P), asserted before returning.  A draw of rank n always
    passes, since then D(Omega_P||U) = m log2 q - log2 |T^n(P)| <= theta(P)
    (`_omega`'s closed form), so the search runs at any n whose types
    `_check_types` admits.  A rank-deficient draw counts its q**n key images;
    past `fields.MAX_ENUM` it has no score and the search passes on, unless
    it is the last or m < n (no draw can have rank n).  Nothing is built
    over the words.
    """
    count = n_types(plan.n, plan.q)
    _check_types(plan.n, plan.spec)
    best = math.inf
    for attempt in range(max_attempts):
        seed = base_seed + attempt
        enc = draw_encoder(plan, seed)
        try:
            divs, reduced = _omega(enc, plan)
        except FieldError:  # rank < n past MAX_ENUM keys: no score
            if plan.m < plan.n or attempt + 1 == max_attempts:
                raise
            continue
        score = _score(divs, plan)
        best = min(best, score)
        if score <= count:
            for P, d in divs:
                cap = count * theta_n(P, plan)
                if d > cap * (1 + 1e-9) + 1e-12:
                    raise AssertionError(
                        f"score {score} <= {count} but type {P.counts} has "
                        f"divergence {d} above its cap {cap}"
                    )
            return SearchResult(
                encoder=enc, seed=seed, score=score, attempts=attempt + 1,
                type_count=count, divergences=tuple(divs), reduced=reduced,
            )
    raise RuntimeError(
        f"no encoder scored <= {count} within {max_attempts} seeds "
        f"(best score {best}); this should be unreachable"
    )


def encoder_to_json(enc: AffineEncoder, spec: FieldSpec) -> dict:
    return {
        "n": enc.n,
        "m": enc.m,
        "q": spec.q,
        "seed": enc.seed,
        "A": [vector_to_text(tuple(int(v) for v in row), spec) for row in enc.A],
        "b": vector_to_text(enc.b, spec),
    }
