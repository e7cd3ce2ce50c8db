"""Affine key encoder: correctness, image laws, divergence score, search."""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import typecipher.cipher as cipher_mod
from typecipher.cipher import (
    AffineEncoder,
    CipherSystem,
    check_decryption_condition,
    decrypt,
    derandomize,
    draw_encoder,
    encoder_to_json,
    encrypt,
    injective_on_members,
    make_encoder,
    key_image_indices,
    n_types,
    omega_divergences,
    pad_law,
    search_score,
    seed_state,
    theta_n,
)
from typecipher.code import (
    build_codebook,
    decode,
    encode,
    explicit_m_plan,
    make_rate_plan,
)
from typecipher.fields import (
    MAX_ENUM,
    FieldError,
    FieldSpec,
    all_vectors,
    index_encode,
    indices_to_vectors,
)
from typecipher.simplex import Distribution, kl_divergence, uniform
from typecipher.typeclasses import class_size, enumerate_types, type_of

import oracles
from oracles import (
    class_prob_fraction,
    lemire_scalar,
    numpy_choice_draw,
    numpy_encoder_draw,
    numpy_sub_seed,
    omega_counts,
    omega_dist,
    pad_law_fraction,
    vec_affine,
)


def _system(n, R, spec, seed=0):
    plan = make_rate_plan(n, R, spec)
    cb = build_codebook(plan)
    enc = draw_encoder(plan, seed)
    return CipherSystem(codebook=cb, key_encoder=enc)


def test_draw_encoder_deterministic_and_shaped():
    plan = make_rate_plan(4, 0.9, FieldSpec(2))
    a = draw_encoder(plan, 42)
    b = draw_encoder(plan, 42)
    assert np.array_equal(a.A, b.A) and a.b == b.b
    assert a.A.shape == (plan.n, plan.m)
    assert len(a.b) == plan.m
    assert a.seed == 42
    c = draw_encoder(plan, 43)
    assert not (np.array_equal(a.A, c.A) and a.b == c.b)


def test_encoder_matrix_readonly():
    plan = make_rate_plan(3, 0.8, FieldSpec(2))
    enc = draw_encoder(plan, 1)
    with pytest.raises(ValueError):
        enc.A[0, 0] = 1


_SEEDS = (0, 2**32 - 1, 2**32, 2**64, 2**64 + 5, 2**130)
_ALPHABETS = (2, 3, 4, 5, 7, 127, 256, 257)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**131),
    q=st.sampled_from(_ALPHABETS),
    n=st.integers(1, 40),
    m=st.integers(1, 25),
)
@example(seed=_SEEDS[0], q=2, n=20, m=28)
@example(seed=_SEEDS[1], q=3, n=7, m=9)
@example(seed=_SEEDS[2], q=4, n=5, m=11)
@example(seed=_SEEDS[3], q=127, n=31, m=31)
@example(seed=_SEEDS[4], q=256, n=1, m=1)
@example(seed=_SEEDS[5], q=257, n=3, m=6)
def test_draw_encoder_matches_numpy_generator(seed, q, n, m):
    # the draw only reads q, n and m off the plan, so composite q can be
    # checked too
    enc = draw_encoder(SimpleNamespace(q=q, n=n, m=m), seed)
    A, b = numpy_encoder_draw(seed, q, n, m)
    assert enc.A.dtype == np.int64 and np.array_equal(enc.A, A)
    assert enc.b == tuple(int(v) for v in b)


@pytest.mark.parametrize("seed", _SEEDS + (12345,))
def test_seed_state_matches_numpy_seed_sequence(seed):
    for n in (1, 2, 7):
        for key in (1, 2, n):
            assert seed_state([seed, key], 1)[0] == numpy_sub_seed(seed, key)
    entropy = [seed, 3, 2**70, 0, 9]
    want = np.random.SeedSequence(entropy).generate_state(9)
    assert seed_state(entropy, 9) == [int(v) for v in want]


def test_negative_seeds_are_refused_as_numpy_refuses():
    plan = make_rate_plan(4, 0.9, FieldSpec(2))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        draw_encoder(plan, -1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        seed_state([3, -2], 1)


def _rejected_words(q):
    """Every 32-bit word whose product with odd q leaves a low half under
    the rejection threshold (2^32 - q) % q."""
    inverse = pow(q, -1, 2**32)
    return [low * inverse % 2**32 for low in range((2**32 - q) % q)]


@pytest.mark.parametrize("q", [3, 5, 7, 127, 257])
def test_bounded_draw_skips_rejected_words(q):
    rejected = _rejected_words(q)
    assert rejected and all(w * q % 2**32 < (2**32 - q) % q for w in rejected)
    accepted = [1, 2**31, 2**32 - 1, 123456789, 987654321]
    pairs = itertools.zip_longest(rejected, accepted)
    words = [w for pair in pairs for w in pair if w is not None]
    words += rejected[:1] + accepted[:1]
    want = lemire_scalar(words, q)
    got = cipher_mod._lemire(np.asarray(words, dtype=np.uint64), q)
    assert got.tolist() == want
    assert len(want) == len(words) - len(rejected) - 1

    # the draw reads one more word for each one rejected, and no more
    stream = iter(words)
    reads = []

    def next_words(k):
        reads.append(k)
        return np.asarray([next(stream) for _ in range(k)], dtype=np.uint64)

    out = cipher_mod._bounded(next_words, q, len(want))
    assert out.dtype == np.int64 and out.tolist() == want
    assert sum(reads) == len(words) and next(stream, None) is None


# Read lengths around the stream's Python block and its widest row.
_PY = cipher_mod._PY_STATES
_LANES = cipher_mod._LANES
_STREAM_SEEDS = (0, 2**32, 2**64, 2**130)
_STREAM_LENGTHS = (0, 1, _PY - 1, _PY, _PY + 1, 3 * _PY + 7,
                   _LANES - 1, _LANES, _LANES + 1, 3 * _LANES + 7)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**131))
@example(seed=_STREAM_SEEDS[0])
@example(seed=_STREAM_SEEDS[1])
@example(seed=_STREAM_SEEDS[2])
@example(seed=_STREAM_SEEDS[3])
def test_uint64s_match_numpy_random_raw(seed):
    for k in _STREAM_LENGTHS:
        got = cipher_mod._PCG64(seed).uint64s(k)
        assert np.array_equal(got, np.random.default_rng(seed).bit_generator.random_raw(k))
    # consecutive reads continue the stream, whatever the row boundaries
    ours, raw = cipher_mod._PCG64(seed), np.random.default_rng(seed).bit_generator
    for k in _STREAM_LENGTHS:
        assert np.array_equal(ours.uint64s(k), raw.random_raw(k))


_READ = st.tuples(st.sampled_from(["uint64s", "uint32s"]), st.integers(0, 3 * _PY + 7))
# odd 32-bit reads around 64-bit ones, across the switch from Python ints to
# rows and across full rows
_INTERLEAVED = [("uint32s", 3), ("uint64s", _PY - 1), ("uint32s", 1), ("uint64s", 2),
                ("uint32s", 2 * _PY + 1), ("uint64s", 3 * _LANES + 7), ("uint32s", 5),
                ("uint32s", _LANES + 3), ("uint64s", 1), ("uint32s", 1)]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**131), reads=st.lists(_READ, max_size=8))
@example(seed=_STREAM_SEEDS[0], reads=_INTERLEAVED)
@example(seed=_STREAM_SEEDS[1], reads=_INTERLEAVED[::-1])
@example(seed=_STREAM_SEEDS[2], reads=_INTERLEAVED)
@example(seed=_STREAM_SEEDS[3], reads=_INTERLEAVED[1:])
def test_interleaved_reads_match_numpy(seed, reads):
    # a 64-bit read leaves the buffered high half of an odd 32-bit read for
    # the next 32-bit read, as numpy's PCG64 does
    ours, rng = cipher_mod._PCG64(seed), np.random.default_rng(seed)
    for kind, k in reads:
        if kind == "uint64s":
            assert np.array_equal(ours.uint64s(k), rng.bit_generator.random_raw(k))
        else:
            want = rng.integers(0, 2**32, k, dtype=np.uint32)
            assert np.array_equal(ours.uint32s(k), want)


@pytest.mark.parametrize("q", [2, 3, 5, 16, 17, 257])
def test_choice_matches_numpy_choice(q):
    # zero masses inside the law and at its end
    law = np.random.default_rng(q).random(q)
    law[q // 2] = law[-1] = 0.0
    law = Distribution(law / law.sum())
    for seed in _STREAM_SEEDS:
        ours, rng = cipher_mod._PCG64(seed), np.random.default_rng(seed)
        for shape in ((7,), (_PY + 1, 3), (3 * _LANES + 7, 2)):
            got = cipher_mod._choice(ours, law, shape)
            assert got.dtype == (np.uint8 if q < 128 else np.uint16)
            assert np.array_equal(got, numpy_choice_draw(rng, law, shape))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 127, 131, 257])
def test_residue_helpers_match_mod_q(q):
    # every residue pair, in both columns of a two-symbol word, as digit
    # rows (one byte up to q=127, two from q=131), the one representation
    # the scalar path shares: sums and differences mod q without wrapping,
    # in the digit dtype
    spec = FieldSpec(q)
    sys_ = CipherSystem(
        codebook=build_codebook(explicit_m_plan(1, 2, spec)),
        key_encoder=make_encoder([[0, 0]], (0, 0), spec),
    )
    a, b = np.divmod(np.arange(q * q), q)
    pads, words = np.stack([a, b], axis=1), np.stack([b, a], axis=1)
    p, w = pads.astype(spec.digit_dtype), words.astype(spec.digit_dtype)
    encrypted = cipher_mod._encrypt_words(sys_, p, w)
    decrypted = cipher_mod._recover_words(sys_, p, w)
    assert encrypted.dtype == decrypted.dtype == spec.digit_dtype
    assert np.array_equal(encrypted, (pads + words) % q)
    assert np.array_equal(decrypted, (words - pads) % q)


def _repeat_first_row(enc, spec):
    """`enc` with its second row of A replaced by its first: rank < n."""
    A = np.array(enc.A)
    A[1] = A[0]
    return make_encoder(A, enc.b, spec, seed=enc.seed)


@pytest.mark.parametrize("q, n, m", [(2, 7, 9), (3, 4, 6)])
def test_blocked_key_pass_matches_one_block(monkeypatch, q, n, m):
    # a few keys per block (a block is the largest power of q within
    # KEY_BLOCK, down to one key) give the same divergences, images and
    # decryption check as one block over every key; A repeats a row, so the
    # divergences come from the blocked count over the keys
    spec = FieldSpec(q)
    plan = explicit_m_plan(n, m, spec)
    enc = _repeat_first_row(draw_encoder(plan, 4), spec)
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=enc)

    def key_pass():
        divergences, (_, pivots) = cipher_mod._omega(enc, plan)
        assert len(pivots) < n
        return divergences, key_image_indices(enc, spec), check_decryption_condition(sys_)

    monkeypatch.setattr(cipher_mod, "KEY_BLOCK", q**n)
    divergences, images, checked = key_pass()
    assert checked is True
    for P, d in divergences:
        assert d == oracles.omega_divergence(P, enc, spec), P.counts
    for block in (1, 5, q**n - 1):
        monkeypatch.setattr(cipher_mod, "KEY_BLOCK", block)
        got = key_pass()
        assert got[0] == divergences and got[2] is checked
        assert np.array_equal(got[1], images)


# the largest n and m per q at which the oracle's loops over the keys and
# its counts over the words stay small
_ORACLE_SIZES = {2: (6, 10), 3: (4, 7), 5: (3, 5), 7: (2, 4)}


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(sorted(_ORACLE_SIZES)), data=st.data())
def test_omega_divergences_closed_form_bit_equal_the_oracle(q, data):
    # rank A = n: every class lands on |T^n(P)| distinct words, and the
    # closed form m log2 q - log2 |T^n(P)| is the double that counting every
    # word gives; A with a repeated row takes the count over the keys instead
    max_n, max_m = _ORACLE_SIZES[q]
    n = data.draw(st.integers(1, max_n), label="n")
    m = data.draw(st.integers(n, max_m), label="m")
    repeat = data.draw(st.booleans(), label="repeat") and n >= 2
    spec = FieldSpec(q)
    plan = explicit_m_plan(n, m, spec)
    enc = draw_encoder(plan, data.draw(st.integers(0, 2**16), label="seed"))
    if repeat:
        enc = _repeat_first_row(enc, spec)
    divergences, (_, pivots) = cipher_mod._omega(enc, plan)
    assume(repeat or len(pivots) == n)
    assert (len(pivots) == n) is not repeat
    assert [P for P, _ in divergences] == enumerate_types(n, spec)
    for P, d in divergences:
        assert d == oracles.omega_divergence(P, enc, spec), (n, m, P.counts)


def _counting_only(monkeypatch):
    """Make every draw take the count over the keys: the row reduction
    reports at most n - 1 pivots."""
    real = cipher_mod._row_reduce

    def short(A, q):
        basis, pivots = real(A, q)
        return basis, pivots[: A.shape[0] - 1]

    monkeypatch.setattr(cipher_mod, "_row_reduce", short)


@pytest.mark.parametrize(
    "q, n, R", [(2, 4, 0.9), (2, 9, 0.9), (2, 10, 0.6), (3, 4, 1.2), (5, 3, 1.5), (7, 2, 1.5)]
)
def test_derandomize_matches_the_counting_path(monkeypatch, q, n, R):
    # the closed form changes no seed, score, attempt count or divergence
    spec = FieldSpec(q)
    plan = make_rate_plan(n, R, spec)
    assert plan.m >= n
    closed = [derandomize(plan, base_seed=seed) for seed in (0, 17, 400)]
    assert all(len(res.reduced[1]) == n for res in closed)
    _counting_only(monkeypatch)
    for res, seed in zip(closed, (0, 17, 400)):
        counted = derandomize(plan, base_seed=seed)
        assert (counted.seed, counted.score, counted.attempts) == (res.seed, res.score, res.attempts)
        assert counted.divergences == res.divergences


def test_search_refuses_before_allocating():
    # a rank-deficient A past MAX_ENUM keys raises the FieldError naming the
    # cap before any array over the keys is asked for (2^54 int64 images
    # would be a numpy MemoryError, 2^100 a numpy dimension error); the
    # search refuses at once when m < n, as no draw can then have rank n
    spec = FieldSpec(2)
    for n in (30, 54, 100):
        plan = explicit_m_plan(n, 5, spec)
        cap = f"refusing to materialize 2\\^{n} keys"
        with pytest.raises(FieldError, match=cap):
            omega_divergences(draw_encoder(plan, 0), plan)
        with pytest.raises(FieldError, match=cap):
            derandomize(plan)


def test_derandomize_passes_over_a_draw_it_cannot_count():
    # binary n=160, m=160: seed 0 draws A of rank 159, which has no score
    # past MAX_ENUM keys; seed 1's has rank 160 and passes in closed form
    spec = FieldSpec(2)
    plan = make_rate_plan(160, 0.9, spec)
    assert plan.m == 160
    with pytest.raises(FieldError, match="refusing to materialize 2\\^160 keys"):
        derandomize(plan, max_attempts=1)
    res = derandomize(plan)
    assert (res.seed, res.attempts, len(res.reduced[1])) == (1, 2, 160)
    assert res.score <= res.type_count == 161
    for P, d in res.divergences:
        assert d == 160.0 - math.log2(class_size(P))


_TABLE_QS = [2, 3, 5, 127, 131, 257]


def _random_encoder(q, n, m, seed):
    # n = 0 gives an A with zero rows: every pad is b
    rng = np.random.default_rng(seed)
    A = rng.integers(0, q, (n, m))
    A.flags.writeable = False
    return AffineEncoder(A=A, b=tuple(int(v) for v in rng.integers(0, q, m))), rng


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(_TABLE_QS),
    n=st.integers(0, 24),
    m=st.integers(1, 6),
    rows=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=2, n=20, m=24, rows=4000, seed=0)  # a sampled sweep row: groups of 9 and 11
@example(q=257, n=24, m=3, rows=5000, seed=1)  # one-digit groups
@example(q=3, n=1, m=2, rows=1, seed=2)
def test_key_pads_match_the_product_oracle(q, n, m, rows, seed):
    # the digit-group tables give kA + b mod q for any number of rows, any
    # n (multiple of the group width or not) and a single 1-D key
    spec = FieldSpec(q)
    enc, rng = _random_encoder(q, n, m, seed)
    keys = rng.integers(0, q, (rows, n)).astype(spec.digit_dtype)
    got = cipher_mod._key_pads(enc, keys, spec)
    assert got.dtype == spec.digit_dtype and got.shape == (rows, m)
    assert np.array_equal(got, oracles.key_pads(enc, keys, spec))
    one = cipher_mod._key_pads(enc, keys[-1], spec)
    assert one.dtype == spec.digit_dtype and one.shape == (m,)
    assert np.array_equal(one, oracles.key_pads(enc, keys[-1], spec))


@settings(max_examples=40, deadline=None)
@given(
    q_n=st.sampled_from(
        [(2, n) for n in range(0, 17)] + [(3, 7), (3, 10), (5, 5), (127, 2), (131, 2), (257, 2)]
    ),
    m=st.integers(1, 5),
    block=st.sampled_from([1, 5, 300, cipher_mod.KEY_BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
def test_key_blocks_match_the_product_oracle(q_n, m, block, seed):
    # every key, in lexicographic order, a block at a time
    q, n = q_n
    spec = FieldSpec(q)
    enc, _ = _random_encoder(q, n, m, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cipher_mod, "KEY_BLOCK", block)
        blocks = list(cipher_mod._key_blocks(enc, spec))
    starts = [start for start, _ in blocks]
    assert starts == list(itertools.accumulate([len(p) for _, p in blocks[:-1]], initial=0))
    assert all(len(pads) <= block for _, pads in blocks)
    pads = np.concatenate([p for _, p in blocks])
    assert pads.dtype == spec.digit_dtype
    assert np.array_equal(pads, oracles.key_pads(enc, all_vectors(n, spec), spec))


def test_make_encoder_validates():
    spec = FieldSpec(2)
    enc = make_encoder([[1, 0], [0, 1]], (1, 0), spec)
    assert enc.n == 2 and enc.m == 2 and enc.seed is None
    with pytest.raises(FieldError):
        make_encoder([[2, 0]], (0,), spec)


def test_cipher_system_dimension_checks():
    spec = FieldSpec(2)
    plan = make_rate_plan(3, 0.5, spec)
    cb = build_codebook(plan)
    wrong = make_encoder([[1] * 4] * 3, (0,) * 4, spec)
    with pytest.raises(FieldError):
        CipherSystem(codebook=cb, key_encoder=wrong)


def test_encrypt_by_hand_tiny_case():
    spec = FieldSpec(2)
    plan = explicit_m_plan(2, 3, spec, R=0.5)
    cb = build_codebook(plan)
    enc = make_encoder([[1, 0, 1], [0, 1, 1]], (1, 0, 0), spec)
    sys_ = CipherSystem(codebook=cb, key_encoder=enc)
    k, x = (1, 1), (1, 1)
    pad = vec_affine(k, enc.A, enc.b, spec)
    assert pad == (0, 1, 0)
    w = encode(cb, x)
    want = tuple((a + b) % 2 for a, b in zip(pad, w))
    assert encrypt(sys_, k, x) == want
    assert decrypt(sys_, k, want) == decode(cb, w)


def test_roundtrip_equals_plain_code_path():
    spec = FieldSpec(2)
    sys_ = _system(4, 0.9, spec, seed=3)
    cb = sys_.codebook
    for k in itertools.product(range(2), repeat=4):
        for x in itertools.product(range(2), repeat=4):
            assert decrypt(sys_, k, encrypt(sys_, k, x)) == decode(cb, encode(cb, x))


def test_members_recovered_exactly():
    spec = FieldSpec(2)
    sys_ = _system(5, 0.8, spec, seed=8)
    for x in oracles.members(sys_.codebook):
        for k in ((0,) * 5, (1, 0, 1, 0, 1), (1,) * 5):
            assert decrypt(sys_, k, encrypt(sys_, k, x)) == x


def test_condition_and_injectivity_random_sweep():
    rng = np.random.default_rng(30)
    for q in (2, 3):
        spec = FieldSpec(q)
        for _ in range(5):
            n = int(rng.integers(2, 5 if q == 2 else 4))
            R = float(rng.uniform(0.2, 1.2))
            sys_ = _system(n, R, spec, seed=int(rng.integers(0, 2**31)))
            assert check_decryption_condition(sys_) is oracles.check_decryption_condition(sys_)
            assert check_decryption_condition(sys_)
            assert injective_on_members(sys_)


def test_batched_decryption_check_matches_scalar_loop():
    rng = np.random.default_rng(31)
    for q in (2, 3):
        spec = FieldSpec(q)
        for _ in range(4):
            n = int(rng.integers(2, 6 if q == 2 else 4))
            R = float(rng.uniform(0.2, 1.4))
            sys_ = _system(n, R, spec, seed=int(rng.integers(0, 2**31)))
            assert check_decryption_condition(sys_) is oracles.check_decryption_condition(sys_)


@pytest.mark.parametrize(
    "q, n, R, m",
    [(2, 4, 1.5, None), (3, 3, 1.6, None), (2, 4, None, 6), (3, 3, None, 4)],
    ids=["q2-all-members", "q3-all-members", "q2-explicit-m", "q3-explicit-m"],
)
def test_decryption_check_matches_oracle_without_x0_and_explicit_m(q, n, R, m):
    spec = FieldSpec(q)
    plan = make_rate_plan(n, R, spec) if m is None else explicit_m_plan(n, m, spec)
    cb = build_codebook(plan)
    if m is None:  # every plaintext is a member: no codeword is x0
        assert cb.member_count == q**n and not cb.error_types
    sys_ = CipherSystem(codebook=cb, key_encoder=draw_encoder(plan, 7))
    assert check_decryption_condition(sys_) is oracles.check_decryption_condition(sys_)
    assert check_decryption_condition(sys_)


def test_decryption_check_catches_one_broken_pad_codeword_pair(monkeypatch):
    # only the last pad meeting the last member codeword breaks.  The mutant
    # keys on whole pad and ciphertext rows, outside the digitwise helpers
    # that the q^2 digit table certifies, so the oracle that tries every
    # (key, plaintext) pair through encrypt and decrypt must catch it
    spec = FieldSpec(2)
    sys_ = _system(5, 0.9, spec, seed=11)
    cb, m = sys_.codebook, sys_.plan.m
    assert check_decryption_condition(sys_) and oracles.check_decryption_condition(sys_)
    last_pad = cipher_mod._key_pads(sys_.key_encoder, all_vectors(5, spec)[-1], spec)
    last_word = indices_to_vectors(np.int64(cb.member_count), m, spec)
    hit = (last_pad + last_word) % 2
    shipped = cipher_mod._decrypt_words

    def broken(s, pads, cipher):
        out = shipped(s, pads, cipher)
        mask = (np.broadcast_to(pads, cipher.shape) == last_pad).all(axis=-1)
        mask &= (cipher == hit).all(axis=-1)
        return np.where(mask[..., None], 1 - out, out)

    monkeypatch.setattr(cipher_mod, "_decrypt_words", broken)
    assert not oracles.check_decryption_condition(sys_)
    # the scalar round trip breaks for that key and member alone
    x = oracles.members(cb)[-1]
    first, last = all_vectors(5, spec)[[0, -1]]
    assert decrypt(sys_, last, encrypt(sys_, last, x)) != x
    assert decrypt(sys_, first, encrypt(sys_, first, x)) == x


def test_decryption_check_reads_no_cap(monkeypatch):
    # binary n=200, 2^200 keys: the q^2 digit table is the whole check, so
    # it holds under a cap of 1 and calls nothing that lists, decodes or
    # caps keys
    plan = make_rate_plan(200, 0.9, FieldSpec(2))
    sys_ = CipherSystem(build_codebook(plan), draw_encoder(plan, 0))

    def refuse(*args):
        raise AssertionError("the decryption check visited a key")

    monkeypatch.setattr("typecipher.fields.MAX_ENUM", 1)
    for name in ("_key_blocks", "_key_pads", "decode_rows", "_check_enum"):
        monkeypatch.setattr(cipher_mod, name, refuse)
    assert check_decryption_condition(sys_) is True


@pytest.mark.parametrize("q", [2, 3, 131, 257])
def test_decryption_check_catches_a_broken_fold(monkeypatch, q):
    # a fold that leaves x = q unreduced: p + (q - p) comes back as q, not
    # 0, for every pad digit p > 0 against word digit 0; one byte per digit
    # up to q=127, two from q=131
    spec = FieldSpec(q)
    sys_ = CipherSystem(
        codebook=build_codebook(explicit_m_plan(1, 2, spec)),
        key_encoder=make_encoder([[1, 0]], (0, 0), spec),
    )
    assert check_decryption_condition(sys_)
    monkeypatch.setattr(
        cipher_mod, "_fold", lambda x, q: np.where(x > q, x - x.dtype.type(q), x)
    )
    assert not check_decryption_condition(sys_)


@pytest.mark.parametrize("q, n, m", [(2, 5, 7), (3, 3, 4), (5, 2, 3), (131, 2, 3)])
def test_every_key_pad_is_a_residue(monkeypatch, q, n, m):
    # the digit table's premise: every pad digit lies in [0, q), in the
    # digit dtype, from blocks of q keys (each with its own leading pad)
    # and from the per-key groups alike
    spec = FieldSpec(q)
    enc = draw_encoder(explicit_m_plan(n, m, spec), 2)
    monkeypatch.setattr(cipher_mod, "KEY_BLOCK", q)
    blocks = [pads for _, pads in cipher_mod._key_blocks(enc, spec)]
    assert len(blocks) == q ** (n - 1)
    for pads in (np.concatenate(blocks), cipher_mod._key_pads(enc, all_vectors(n, spec), spec)):
        assert pads.shape == (q**n, m) and pads.dtype == spec.digit_dtype
        assert int(pads.max()) < q


def test_decryption_checks_catch_broken_subtraction(monkeypatch):
    # over Z_3 adding the pad again instead of subtracting it does not undo it
    sys_ = _system(3, 0.9, FieldSpec(3), seed=5)
    assert check_decryption_condition(sys_)
    monkeypatch.setattr(cipher_mod, "_recover_words", lambda s, pads, c: (c + pads) % s.spec.q)
    assert not check_decryption_condition(sys_)
    assert not oracles.check_decryption_condition(sys_)


def test_decryption_checks_catch_inconsistent_decode_table():
    sys_ = _system(4, 0.9, FieldSpec(2), seed=3)
    cb = sys_.codebook
    assert check_decryption_condition(sys_) and injective_on_members(sys_)
    x = oracles.members(cb)[0]
    assert decrypt(sys_, x, encrypt(sys_, x, x)) == x
    # the decoder's unranking swaps ranks 0 and 1; the rank arithmetic that
    # encodes does not, so the round trip fails and members come back wrong
    members = cb.members
    cb.members = lambda ranks: members(np.asarray(ranks) ^ (np.asarray(ranks) < 2))
    assert not injective_on_members(sys_)
    assert decrypt(sys_, x, encrypt(sys_, x, x)) == oracles.members(cb)[1]


def test_encrypt_decrypt_reject_wrong_lengths():
    sys_ = _system(3, 0.9, FieldSpec(2), seed=1)
    with pytest.raises(FieldError):
        encrypt(sys_, (0, 1), (0, 0, 1))
    with pytest.raises(FieldError):
        decrypt(sys_, (0, 1, 1), (1,))


def test_encrypt_decrypt_reject_out_of_range_residues():
    sys_ = _system(4, 0.9, FieldSpec(2), seed=1)
    m = sys_.plan.m
    with pytest.raises(FieldError, match="key residue 5"):
        encrypt(sys_, (0, 5, 0, 0), (0, 0, 0, 1))
    with pytest.raises(FieldError, match="key residue -1"):
        decrypt(sys_, (0, -1, 0, 0), (0,) * m)
    with pytest.raises(FieldError, match="plaintext residue 2"):
        encrypt(sys_, (0, 0, 0, 0), (0, 0, 2, 1))
    with pytest.raises(FieldError, match="ciphertext residue 7"):
        decrypt(sys_, (0, 0, 0, 0), (7,) + (0,) * (m - 1))


def test_injectivity_catches_shared_codeword():
    sys_ = _system(4, 0.9, FieldSpec(2), seed=3)
    cb = sys_.codebook
    ranks = cb.ranks
    # members 0 and 1 both encode to the word with value 1
    cb.ranks = lambda xs: np.maximum(ranks(xs) - (ranks(xs) == 1), -1)
    x0, x1 = oracles.members(cb)[:2]
    assert encode(cb, x0) == encode(cb, x1)
    assert not injective_on_members(sys_)


def test_n_types_matches_enumeration():
    for q in (2, 3, 5):
        spec = FieldSpec(q)
        for n in (1, 2, 4, 7):
            assert n_types(n, q) == len(enumerate_types(n, spec))


def test_pad_law_is_a_distribution():
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 3, spec)
    enc = draw_encoder(plan, 5)
    law = pad_law(enc, Distribution([0.7, 0.3]), spec)
    assert law.shape == (8,)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert law.min() >= 0.0


def test_pad_law_uniform_key_full_rank():
    # identity-like A with m <= n makes the pad exactly uniform
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    enc = make_encoder([[1, 0], [0, 1], [0, 0]], (0, 0), spec)
    law = pad_law(enc, uniform(2), spec)
    assert np.allclose(law, 0.25, atol=1e-15)


def test_pad_law_brute_force_oracle():
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    enc = draw_encoder(plan, 11)
    p_k = Distribution([0.6, 0.4])
    law = pad_law(enc, p_k, spec)
    oracle = np.zeros(4)
    for k in itertools.product(range(2), repeat=3):
        w = vec_affine(k, enc.A, enc.b, spec)
        oracle[index_encode(w, spec)] += math.prod(p_k[a] for a in k)
    assert np.allclose(law, oracle, atol=1e-14)


def test_pad_law_fraction_exact_and_consistent():
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    enc = draw_encoder(plan, 12)
    p_frac = [Fraction(3, 4), Fraction(1, 4)]
    exact = pad_law_fraction(enc, p_frac, spec)
    assert sum(exact) == Fraction(1)
    approx = pad_law(enc, Distribution([0.75, 0.25]), spec)
    assert np.allclose([float(v) for v in exact], approx, atol=1e-14)


def test_omega_counts_partition_the_class():
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 3, spec)
    enc = draw_encoder(plan, 2)
    for P in enumerate_types(4, spec):
        counts, size = omega_counts(P, enc, spec)
        assert counts.sum() == size == class_size(P)
        dist = omega_dist(P, enc, spec)
        assert np.asarray(dist).sum() == pytest.approx(1.0, abs=1e-12)


def test_omega_brute_force_oracle():
    # the shipped key images, grouped by key type, against the tuple loop
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 3, spec)
    enc = draw_encoder(plan, 9)
    images = key_image_indices(enc, spec)
    types = [type_of(k, spec) for k in all_vectors(4, spec)]
    for P in enumerate_types(4, spec):
        mask = np.array([T == P for T in types])
        counts, _ = omega_counts(P, enc, spec)
        assert np.array_equal(np.bincount(images[mask], minlength=8), counts)


def test_mixture_identity_exact():
    # pad law = sum_P class_prob(P) * Omega_P, exactly in rationals
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    enc = draw_encoder(plan, 21)
    p_frac = [Fraction(2, 3), Fraction(1, 3)]
    pad = pad_law_fraction(enc, p_frac, spec)
    mix = [Fraction(0)] * 4
    for P in enumerate_types(3, spec):
        counts, size = omega_counts(P, enc, spec)
        w = class_prob_fraction(P, p_frac)
        for i, c in enumerate(counts):
            mix[i] += w * Fraction(int(c), size)
    assert mix == pad


def test_theta_worked_value():
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 3, spec)
    P = enumerate_types(4, spec)[0]  # counts (0,4), class size 1
    assert class_size(P) == 1
    assert theta_n(P, plan) == pytest.approx(math.log2(1 + 7 / 1), abs=1e-12)
    mid = [P for P in enumerate_types(4, spec) if P.counts == (2, 2)][0]
    assert theta_n(mid, plan) == pytest.approx(math.log2(1 + 7 / 6), abs=1e-12)


def test_omega_divergences_match_kl():
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 3, spec)
    enc = draw_encoder(plan, 33)
    table = dict()
    for P, d in omega_divergences(enc, plan):
        table[P.counts] = d
    for P in enumerate_types(4, spec):
        direct = kl_divergence(omega_dist(P, enc, spec), uniform(8))
        assert table[P.counts] == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize(
    "q, n, R",
    [(2, 4, 0.9), (2, 7, 0.6), (3, 3, 1.2), (3, 4, 1.0), (5, 2, 1.5), (7, 3, 1.5), (2, 12, 0.3)],
)
def test_omega_divergences_bit_equal_the_counting_oracle(q, n, R):
    # the keys sorted by type, and each type's images counted among
    # themselves, give the positive counts in word order, so the divergences
    # are the same doubles
    spec = FieldSpec(q)
    plan = make_rate_plan(n, R, spec)
    for seed in range(3):
        enc = draw_encoder(plan, seed)
        got = omega_divergences(enc, plan)
        assert [P for P, _ in got] == enumerate_types(n, spec)
        for P, d in got:
            assert d == oracles.omega_divergence(P, enc, spec), (q, n, seed, P.counts)


@pytest.mark.parametrize("q, n, m", [(2, 6, 3), (3, 4, 2), (5, 3, 2)])
def test_omega_divergences_of_many_to_one_encoders_bit_equal_the_oracle(q, n, m):
    # with m < n no class maps one-to-one, so a class's divergence depends
    # on which keys it holds and not only on its size: grouping the keys
    # into the wrong classes of equal size shows here, not with m >= n
    spec = FieldSpec(q)
    plan = explicit_m_plan(n, m, spec)
    for seed in range(3):
        enc = draw_encoder(plan, seed)
        for P, d in omega_divergences(enc, plan):
            assert d == oracles.omega_divergence(P, enc, spec), (q, n, seed, P.counts)


def test_search_score_definition():
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 3, spec)
    enc = draw_encoder(plan, 4)
    total = sum(d / theta_n(P, plan) for P, d in omega_divergences(enc, plan))
    assert search_score(enc, plan) == pytest.approx(total, abs=1e-12)


def test_mean_divergence_below_theta_small_mc():
    # per-type mean over random encoders stays below the theta cap
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    trials = 400
    sums = {P.counts: [] for P in enumerate_types(3, spec)}
    for seed in range(trials):
        enc = draw_encoder(plan, seed)
        for P, d in omega_divergences(enc, plan):
            sums[P.counts].append(d)
    for P in enumerate_types(3, spec):
        vals = np.asarray(sums[P.counts])
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert vals.mean() <= theta_n(P, plan) + 3 * se


def test_derandomize_certificate_and_determinism():
    spec = FieldSpec(2)
    for n, R in ((3, 0.9), (4, 0.9)):
        plan = make_rate_plan(n, R, spec)
        res = derandomize(plan, max_attempts=1000, base_seed=0)
        count = n_types(n, 2)
        assert res.score <= count
        assert res.type_count == count
        assert res.attempts >= 1
        again = derandomize(plan, max_attempts=1000, base_seed=0)
        assert again.seed == res.seed
        assert np.array_equal(again.encoder.A, res.encoder.A)
        for P, d in omega_divergences(res.encoder, plan):
            assert d <= count * theta_n(P, plan) + 1e-9


def test_derandomize_exhaustion():
    plan = make_rate_plan(3, 0.9, FieldSpec(2))
    with pytest.raises(RuntimeError):
        derandomize(plan, max_attempts=0)


def test_word_space_guard():
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 23, spec)  # 2**23 words exceeds the cap
    assert spec.q**plan.m > MAX_ENUM
    enc = draw_encoder(plan, 0)
    with pytest.raises(FieldError, match="word space 2\\^23 \\(cap MAX_ENUM = 2\\^22\\)"):
        pad_law(enc, uniform(2), spec)


def test_derandomize_runs_past_the_word_space_cap():
    # the search builds arrays over the q^n keys only, so 2^23 words do not
    # stop it; its divergences match the oracle's count over every word
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 23, spec)
    assert spec.q**plan.m > MAX_ENUM
    res = derandomize(plan)
    assert res.score <= n_types(4, 2)
    assert [P.counts for P, _ in res.divergences] == [
        P.counts for P in enumerate_types(4, spec)
    ]
    for P, d in res.divergences:
        assert d == oracles.omega_divergence(P, res.encoder, spec), P.counts


def test_encoder_json_shape():
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    enc = draw_encoder(plan, 77)
    js = encoder_to_json(enc, spec)
    assert js["n"] == 3 and js["m"] == 2 and js["q"] == 2 and js["seed"] == 77
    assert len(js["A"]) == 3 and all(len(row) == 2 for row in js["A"])
    assert len(js["b"]) == 2
