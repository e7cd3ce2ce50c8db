"""Leakage accounting: exact MI, bound chain, row sums, converse probes."""

import itertools
import math
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from typecipher.cipher import (
    CipherSystem,
    derandomize,
    draw_encoder,
    encrypt,
    make_encoder,
    n_types,
    pad_law,
)
from typecipher.code import (
    build_codebook,
    codebook_to_json,
    encode,
    explicit_m_plan,
    make_rate_plan,
)
from typecipher.fields import FieldError, FieldSpec, all_vectors, index_encode
from typecipher.leakage import (
    _digit_transform,
    _log2_sequence_prob,
    _row_reduce,
    _TransformLaws,
    _UniformKeyLaws,
    check_birkhoff,
    converse_diagnostics,
    exact_laws,
    exact_mutual_info,
    exact_refusal,
    monte_carlo_mi,
    scaled_power,
    security_bound,
    security_bound_curve,
    security_certificate,
    strong_converse_probe,
)
from typecipher.simplex import Distribution, entropy, uniform
from typecipher.typeclasses import TypeComposition, enumerate_types

import typecipher.cipher as cipher_mod
import typecipher.cli as cli
import oracles
from oracles import numpy_bootstrap_indices, numpy_choice_draw, pad_law_fraction


def _refusal(n, m, p_k, q=2, R=0.9):
    """`exact_refusal` of the codebook of an explicit-m plan at rate R."""
    return exact_refusal(build_codebook(explicit_m_plan(n, m, FieldSpec(q), R=R)), p_k)


# equal entries but one, off by one rounding: not a uniform key
_NEAR = Distribution([0.3333333333333333, 0.3333333333333333, 0.3333333333333334])


def test_exact_refusal_reads_both_caps_from_the_plan(monkeypatch):
    # the gate builds nothing: it runs with every array builder broken
    def refuse(*args, **kwargs):
        raise AssertionError("the gate built an array")

    monkeypatch.setattr("typecipher.fields.all_vectors", refuse)
    monkeypatch.setattr("typecipher.cipher._key_blocks", refuse)
    p_k = Distribution([0.62, 0.38])
    # one cap, 2^22, for the words and, where m < n, the keys; each refusal
    # names its space, the cap and the way out
    assert _refusal(22, 22, p_k) is None
    words = _refusal(4, 23, p_k)
    assert isinstance(words, FieldError)
    assert str(words) == (
        "refusing to materialize word space 2^23 (cap MAX_ENUM = 2^22); past it "
        "`exact-mi --samples N` and `sweep` estimate the leakage"
    )
    sequences = _refusal(23, 5, p_k, R=0.2)
    assert isinstance(sequences, FieldError)
    assert str(sequences).startswith("refusing to materialize 2^23 keys (cap MAX_ENUM = 2^22)")
    assert "exact-mi --samples N" in str(sequences)
    # past both, the word space is named first; where m >= n it bounds the keys
    assert "word space 2^23" in str(_refusal(23, 23, p_k))
    assert "word space 2^24" in str(_refusal(23, 24, p_k))


def test_exact_refusal_under_a_uniform_key_reads_no_word_cap(monkeypatch):
    # a uniform key builds one row per codeword in use and no coset row:
    # its words read no cap, its keys only where m < n; the int64 word
    # index, which the sampled path needs too, is checked by the command
    # line's gate before it, for every key law.  Again nothing is built,
    # nor an encoder searched or drawn
    def refuse(*args, **kwargs):
        raise AssertionError("the gate built an array")

    monkeypatch.setattr("typecipher.fields.all_vectors", refuse)
    monkeypatch.setattr("typecipher.cipher._key_blocks", refuse)
    for name in ("build_codebook", "derandomize", "draw_encoder"):
        monkeypatch.setattr(f"typecipher.cli.{name}", refuse)
    spec = FieldSpec(2)
    for p_k in (uniform(2), Distribution([0.5, 0.5])):
        assert _refusal(4, 23, p_k) is None
        assert _refusal(22, 63, p_k) is None
        assert _refusal(4, 64, p_k) is None
        # 2^23 keys and 2^31 words, 781,313 codewords in use
        assert _refusal(23, 31, p_k) is None
        sequences = _refusal(23, 21, p_k, R=0.5)
        assert "refusing to materialize 2^23 keys" in str(sequences)
        # every sequence a member: 2^23 + 1 codewords in use
        assert str(_refusal(23, 64, p_k, R=3.0)).startswith(
            "refusing to materialize 8388609 codewords in use (cap MAX_ENUM = 2^22)")
    # the gate refuses m=64 under both key laws, exact or sampled, and names
    # the word index before the caps
    for p_k in (uniform(2), Distribution([0.62, 0.38])):
        for n, sampled in itertools.product((4, 23), (False, True)):
            plan = explicit_m_plan(n, 64, spec)
            with pytest.raises(FieldError, match="2\\^64 exceeds int64; give an explicit --m"):
                cli._system(plan, uniform(2), p_k, 0, sampled, cli._EXPLICIT_M)
    # equal entries at q=3 are uniform too; a law off by one rounding is not
    assert _refusal(4, 14, uniform(3), q=3) is None
    assert "word space 3^14" in str(_refusal(4, 14, _NEAR, q=3))


@pytest.mark.parametrize(
    "q, p_k, engine",
    [(2, uniform(2), _UniformKeyLaws),
     (3, Distribution([1 / 3] * 3), _UniformKeyLaws),
     (3, _NEAR, _TransformLaws),
     (3, Distribution([0.5, 0.0, 0.5]), _TransformLaws)],
    ids=["uniform-q2", "equal-entries-q3", "near", "zero-mass"],
)
def test_exact_refusal_names_the_space_of_the_engine_exact_laws_picks(monkeypatch, q, p_k, engine):
    # the key law is read in one place: `exact_laws` picks the engine, and
    # `exact_refusal` caps that engine's own `size`, so the refusal one
    # point below it names that engine's space (canonical plans with m > n,
    # so no key cap applies)
    plan = make_rate_plan({2: 8, 3: 5}[q], 0.9 * math.log2(q), FieldSpec(q))
    assert plan.m > plan.n
    cb = build_codebook(plan)
    p_x = Distribution([0.7] + [0.3 / (q - 1)] * (q - 1))
    laws = exact_laws(CipherSystem(cb, draw_encoder(plan, 0)), p_x, p_k)
    assert type(laws) is engine
    size, space = engine.size(cb)
    if engine is _UniformKeyLaws:
        assert (size, space) == (cb.member_count + 1, f"{size} codewords in use")
        assert len(laws.cells[0]) == size and not hasattr(laws, "pad")
    else:
        assert (size, space) == (q**plan.m, f"word space {q}^{plan.m}")
        assert laws.pad.size == q**laws.rank <= size
    monkeypatch.setattr("typecipher.fields.MAX_ENUM", size)
    assert exact_refusal(cb, p_k) is None
    monkeypatch.setattr("typecipher.fields.MAX_ENUM", size - 1)
    assert str(exact_refusal(cb, p_k)).startswith(f"refusing to materialize {space} (cap MAX_ENUM = ")


def test_every_size_refusal_moves_with_max_enum(monkeypatch):
    # one setting, `fields.MAX_ENUM`, moves the refusals over keys, words,
    # codewords in use, member lists and type lists alike; the decryption
    # check reads no cap
    from typecipher.cipher import check_decryption_condition, key_image_indices

    spec, skewed = FieldSpec(2), Distribution([0.62, 0.38])
    enc = draw_encoder(explicit_m_plan(13, 13, spec), 0)
    plan10, plan13 = make_rate_plan(10, 0.9, spec), make_rate_plan(13, 0.9, spec)
    sys_ = CipherSystem(build_codebook(plan10), draw_encoder(plan10, 0))
    builds = [
        lambda: key_image_indices(enc, spec),  # 2^13 keys
        lambda: pad_law(enc, skewed, spec),  # 2^13 words
        lambda: codebook_to_json(build_codebook(plan13), include_members=True),  # 2186 members
        lambda: enumerate_types(2, FieldSpec(257)),  # 257^2 vectors, more typed
        lambda: all_vectors(13, spec),
    ]
    for cap, refused in ((1 << 22, False), (1 << 11, True)):
        monkeypatch.setattr("typecipher.fields.MAX_ENUM", cap)
        for build in builds:
            if refused:
                with pytest.raises(FieldError, match="cap MAX_ENUM = 2\\^11"):
                    build()
            else:
                build()
        assert check_decryption_condition(sys_) is True
        # 2^13 keys (m < n), 2^13 words, 2187 codewords in use
        for plan, p_k in ((explicit_m_plan(13, 5, spec), uniform(2)),
                          (explicit_m_plan(5, 13, spec), skewed), (plan13, uniform(2))):
            assert (exact_refusal(build_codebook(plan), p_k) is not None) is refused


def _mi_oracle(sys_, p_X, p_K):
    """Mutual information from the full joint table, built pair by pair.

    Independent of the library's shift-structure shortcut: every (key,
    plaintext) pair is pushed through encrypt() and accumulated.
    """
    q, n = sys_.spec.q, sys_.plan.n
    joint = defaultdict(float)
    for k in itertools.product(range(q), repeat=n):
        pk = math.prod(p_K[a] for a in k)
        if pk == 0.0:
            continue
        for x in itertools.product(range(q), repeat=n):
            px = math.prod(p_X[a] for a in x)
            if px == 0.0:
                continue
            joint[(x, encrypt(sys_, k, x))] += pk * px
    mx = defaultdict(float)
    mc = defaultdict(float)
    for (x, c), v in joint.items():
        mx[x] += v
        mc[c] += v
    return sum(v * math.log2(v / (mx[x] * mc[c])) for (x, c), v in joint.items())


def _canonical_laws(n, R, p_x, p_k, seed=0):
    """Exact laws of a binary canonical system whose encoder `derandomize`
    found, search result included."""
    plan = make_rate_plan(n, R, FieldSpec(2))
    search = derandomize(plan, base_seed=seed)
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=search.encoder)
    return exact_laws(sys_, p_x, p_k, search)


def _perfect_system():
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    cb = build_codebook(plan)
    enc = make_encoder([[1, 0], [0, 1], [0, 0]], (0, 0), spec)
    return CipherSystem(codebook=cb, key_encoder=enc)


def _perfect_laws(p_x, p_k):
    return exact_laws(_perfect_system(), p_x, p_k)


def test_exact_mi_matches_joint_table_oracle():
    rng = np.random.default_rng(40)
    for n, R in ((2, 0.6), (3, 0.9), (4, 0.9)):
        seed = int(rng.integers(100))
        p_x = Distribution(rng.dirichlet(np.ones(2)))
        p_k = Distribution(rng.dirichlet(np.ones(2)))
        laws = _canonical_laws(n, R, p_x, p_k, seed=seed)
        rep = exact_mutual_info(laws)
        assert rep.mi_exact == pytest.approx(_mi_oracle(laws.sys, p_x, p_k), abs=1e-9)


def _transform_case(q, n, R=None, m=None, point_mass=False, seed=0):
    spec = FieldSpec(q)
    plan = make_rate_plan(n, R, spec) if m is None else explicit_m_plan(n, m, spec)
    rng = np.random.default_rng(seed)
    enc = draw_encoder(plan, int(rng.integers(1000)))
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=enc)
    p_x = Distribution(rng.dirichlet(np.ones(q)))
    p_k = Distribution(np.eye(q)[0]) if point_mass else Distribution(rng.dirichlet(np.ones(q)))
    return sys_, p_x, p_k, rng


@pytest.mark.parametrize(
    "case",
    [
        dict(q=2, n=5, R=0.9),
        dict(q=3, n=3, R=1.0),
        dict(q=5, n=2, R=1.0),
        dict(q=2, n=4, R=0.9, point_mass=True),
        dict(q=3, n=3, R=1.0, point_mass=True),
        dict(q=5, n=2, R=1.0, point_mass=True),
        dict(q=2, n=4, m=6),
        dict(q=3, n=3, m=4),
        dict(q=5, n=2, m=3),
        dict(q=2, n=7, R=0.9),  # cosets with one codeword and with several
    ],
    ids=lambda c: "-".join(f"{k}{v}" for k, v in c.items()),
)
def test_transform_matches_shift_loop(case):
    # word by word: each (label, coordinate) cell of the coset laws is put
    # back on its word index and compared with the dense shift loop
    sys_, p_x, p_k, rng = _transform_case(**case)
    q, m = sys_.spec.q, sys_.plan.m
    laws = exact_laws(sys_, p_x, p_k)
    pad = pad_law(sys_.key_encoder, p_k, sys_.spec)
    assert np.max(np.abs(oracles.dense_pad(laws) - pad)) <= 1e-12
    digits = all_vectors(m, sys_.spec)
    used = sys_.codebook.member_count + 1
    weights = np.zeros(q**m)
    hits = rng.choice(used, size=min(12, used), replace=False)
    weights[hits] = rng.uniform(0.0, 1.0, size=hits.size)
    for got, want in (
        (laws.mixture(weights[:used]), oracles.shift_mixture(pad, weights, digits, q)),
        (laws.ciphertext, oracles.ciphertext_law(sys_, p_x, p_k)),
    ):
        assert got.laws.min(initial=0.0) >= 0.0
        assert np.max(np.abs(oracles.dense_mixture(laws, got) - want)) <= 1e-12
        assert abs(got.max - want.max()) <= 1e-12
        assert abs(got.entropy - entropy(want)) <= 1e-12


def test_row_reduce_spans_the_row_space():
    # {c B : c in Z_q^r} is {k A : k in Z_q^n}, each point once, and B is
    # the identity in its pivot columns
    rng = np.random.default_rng(9)
    for q, n, m, inner in ((2, 5, 7, 3), (3, 4, 3, 2), (5, 3, 4, 3), (3, 3, 5, 0), (2, 6, 4, 4)):
        A = rng.integers(0, q, (n, inner)) @ rng.integers(0, q, (inner, m)) % q
        basis, pivots = _row_reduce(A, q)
        r = len(pivots)
        assert basis.shape == (r, m) and list(pivots) == sorted(pivots)
        assert np.array_equal(basis[:, list(pivots)], np.eye(r, dtype=np.int64))
        spec = FieldSpec(q)
        span = {tuple(v) for v in (all_vectors(n, spec) @ A % q).tolist()}
        points = [tuple(v) for v in (all_vectors(r, spec) @ basis % q).tolist()]
        assert len(set(points)) == len(points) == len(span) and set(points) == span


@st.composite
def _coset_cases(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 6, 3: 4, 5: 3}[q]))

    def law():
        w = draw(st.lists(st.integers(0, 9), min_size=q, max_size=q))
        w[draw(st.integers(0, q - 1))] += 1  # zero masses allowed, not everywhere
        return Distribution([v / sum(w) for v in w])

    spec = FieldSpec(q)
    if n > 1 and draw(st.booleans()):
        m = draw(st.integers(1, n - 1))
        plan = explicit_m_plan(n, m, spec, R=draw(st.floats(0.05, 1.0)) * m * math.log2(q) / n)
    else:
        plan = make_rate_plan(n, draw(st.floats(0.2, 1.0)) * math.log2(q), spec)
    return dict(
        plan=plan,
        p_x=law(),
        p_k=law(),
        encoder=draw(st.sampled_from(["drawn", "derandomized", "rank-deficient"])),
        inner=draw(st.integers(0, min(plan.n, plan.m) - 1)),
        seed=draw(st.integers(0, 1 << 30)),
        gamma=draw(st.sampled_from([0.05, 0.2, 1.0])),
    )


@settings(max_examples=40, deadline=None)
@given(_coset_cases())
def test_coset_laws_match_the_dense_transform(case):
    # every figure read from the coset laws against the full-size transform
    # over Z_q^m, for full-rank and rank-deficient encoders alike
    plan, p_x, p_k = case["plan"], case["p_x"], case["p_k"]
    spec, q, n, m = plan.spec, plan.q, plan.n, plan.m
    try:
        cb = build_codebook(plan)
    except FieldError:
        assume(False)  # an explicit m too short for the rate's members
    search = None
    if case["encoder"] == "derandomized":
        search = derandomize(plan, base_seed=case["seed"] % 1000)
        enc = search.encoder
    elif case["encoder"] == "drawn":
        enc = draw_encoder(plan, case["seed"])
    else:
        rng = np.random.default_rng(case["seed"])
        inner = case["inner"]
        A = rng.integers(0, q, (n, inner)) @ rng.integers(0, q, (inner, m)) % q
        enc = make_encoder(A, rng.integers(0, q, m), spec)
    sys_ = CipherSystem(codebook=cb, key_encoder=enc)
    laws = exact_laws(sys_, p_x, p_k, search)
    if case["encoder"] == "rank-deficient":
        assert laws.rank <= case["inner"]

    def close(got, want):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))

    pad = pad_law(enc, p_k, spec)
    ciphertext = oracles.transform_mixture(pad, oracles.codeword_weights(sys_, p_x), q, m)
    assert close(laws.h_pad, entropy(pad))
    assert close(laws.h_ciphertext, entropy(ciphertext))
    assert close(laws.mi, max(0.0, entropy(ciphertext) - entropy(pad)))
    members = np.zeros(q**m)
    members[1 : cb.member_count + 1] = 1.0
    rows = oracles.transform_mixture(pad, members, q, m)
    assert close(check_birkhoff(laws), rows.max() if cb.member_count else 0.0)

    d = converse_diagnostics(laws, gamma=case["gamma"])
    px = oracles.sequence_probs(p_x, n, spec)
    with np.errstate(divide="ignore"):
        typical = -np.log2(px) / n >= entropy(p_x) - case["gamma"] - 1e-12
    member = np.array([tuple(x) in oracles.member_rank(cb) for x in all_vectors(n, spec).tolist()])
    retained = typical & member
    if px[retained].sum() > 0.0:
        weights = oracles.codeword_weights(sys_, p_x, mask=retained) / px[retained].sum()
        conditioned = oracles.transform_mixture(pad, weights, q, m)
        assert close(d.max_conditional, conditioned.max())
        assert close(d.h_cond_ciphertext, entropy(conditioned))
    assert d.passed
    assert security_certificate(laws).passed


@st.composite
def _uniform_key_cases(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 6, 3: 4, 5: 3}[q]))
    spec = FieldSpec(q)
    kind = draw(st.sampled_from(["canonical", "m<n", "m>n"]))
    if kind == "canonical" or (kind == "m<n" and n == 1):
        plan = make_rate_plan(n, draw(st.floats(0.2, 1.0)) * math.log2(q), spec)
    else:
        m = draw(st.integers(1, n - 1) if kind == "m<n" else st.integers(n + 1, n + 3))
        plan = explicit_m_plan(n, m, spec, R=draw(st.floats(0.05, 1.0)) * m * math.log2(q) / n)
    w = draw(st.lists(st.integers(0, 9), min_size=q, max_size=q))
    w[draw(st.integers(0, q - 1))] += 1
    return dict(
        plan=plan,
        p_x=Distribution([v / sum(w) for v in w]),
        encoder=draw(st.sampled_from(["drawn", "derandomized", "rank-deficient"])),
        inner=draw(st.integers(0, min(plan.n, plan.m) - 1)),
        seed=draw(st.integers(0, 1 << 30)),
        gamma=draw(st.sampled_from([0.05, 0.2, 1.0])),
    )


@settings(max_examples=40, deadline=None)
@given(_uniform_key_cases())
@example(dict(plan=explicit_m_plan(4, 2, FieldSpec(3), R=0.4), p_x=Distribution([0.7, 0.2, 0.1]),
              encoder="drawn", inner=0, seed=0, gamma=0.2))  # rank A = m: mi is 0
@example(dict(plan=make_rate_plan(2, math.log2(5), FieldSpec(5)), p_x=Distribution([1.0, 0, 0, 0, 0]),
              encoder="rank-deficient", inner=0, seed=0, gamma=0.2))  # A = 0: a point-mass pad
def test_uniform_key_laws_are_coset_masses(case):
    # under a uniform key every figure comes from coset masses, with no key
    # pass and no transform: each mixture against the full-size transform of
    # the key-by-key pad law, and I(C;X) against H(J), word by word
    plan, p_x = case["plan"], case["p_x"]
    spec, q, n, m = plan.spec, plan.q, plan.n, plan.m
    try:
        cb = build_codebook(plan)
    except FieldError:
        assume(False)  # an explicit m too short for the rate's members
    search = None
    if case["encoder"] == "derandomized":
        search = derandomize(plan, base_seed=case["seed"] % 1000)
        enc = search.encoder
    elif case["encoder"] == "drawn":
        enc = draw_encoder(plan, case["seed"])
    else:
        rng = np.random.default_rng(case["seed"])
        inner = case["inner"]
        A = rng.integers(0, q, (n, inner)) @ rng.integers(0, q, (inner, m)) % q
        enc = make_encoder(A, rng.integers(0, q, m), spec)
    sys_ = CipherSystem(codebook=cb, key_encoder=enc)
    laws = exact_laws(sys_, p_x, uniform(q), search)
    assert type(laws) is _UniformKeyLaws and not hasattr(laws, "pad")
    if case["encoder"] == "rank-deficient":
        assert laws.rank <= case["inner"]
    pad = pad_law(enc, uniform(q), spec)

    def dense_close(mix, weights):
        want = oracles.transform_mixture(pad, weights, q, m)
        assert len(mix.laws) == 0  # every occupied coset is a single
        assert np.max(np.abs(oracles.dense_mixture(laws, mix) - want)) <= 1e-12
        assert abs(mix.max - want.max(initial=0.0)) <= 1e-12
        # the transform leaves round-off near 1e-17 on up to q**m empty
        # words, which adds up to about 1e-11 bits of entropy
        assert abs(mix.entropy - entropy(want)) <= 1e-10 * max(1.0, entropy(want))

    weights = oracles.codeword_weights(sys_, p_x)
    dense_close(laws.ciphertext, weights)
    members = np.zeros(q**m)
    members[1 : cb.member_count + 1] = 1.0
    dense_close(laws.mixture(members[: cb.member_count + 1]), members)
    assert check_birkhoff(laws) == (laws.mixture(members[: cb.member_count + 1]).max
                                    if cb.member_count else 0.0)
    floor = entropy(p_x) - case["gamma"] - 1e-12
    typical = {P for P in enumerate_types(n, spec) if -_log2_sequence_prob(P, p_x) / n >= floor}
    coverage = laws.codeword_weights(typical).sum()
    if coverage > 0.0:
        px = oracles.sequence_probs(p_x, n, spec)
        with np.errstate(divide="ignore"):
            mask = (-np.log2(px) / n >= floor) & (oracles.rank_of(cb) >= 0)
        conditioned = oracles.codeword_weights(sys_, p_x, mask=mask) / coverage
        dense_close(laws.mixture(laws.codeword_weights(typical) / coverage), conditioned)

    h_j = entropy(oracles.coset_masses(laws, weights))
    assert abs(laws.mi - h_j) <= 1e-12 * max(1.0, h_j)
    assert laws.mi <= (m - laws.rank) * math.log2(q) + 1e-12
    if laws.rank == m:
        assert laws.mi == 0.0
    d = converse_diagnostics(laws, gamma=case["gamma"])
    assert d.passed
    assert security_certificate(laws).passed


@st.composite
def _plaintext_cases(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 8, 3: 5, 5: 3}[q]))
    spec = FieldSpec(q)
    kind = draw(st.sampled_from(["canonical", "explicit-m", "all-members"]))
    if kind == "canonical":
        plan = make_rate_plan(n, draw(st.floats(0.1, 1.0)) * math.log2(q), spec)
    elif kind == "explicit-m":
        m = draw(st.integers(1, n + 1))
        plan = explicit_m_plan(n, m, spec, R=draw(st.floats(0.05, 1.0)) * m * math.log2(q) / n)
    else:
        plan = make_rate_plan(n, 1.1 * math.log2(q), spec)
    shape = draw(st.sampled_from(["dense", "zeros", "point"]))
    w = draw(st.lists(st.integers(1 if shape == "dense" else 0, 9), min_size=q, max_size=q))
    top = draw(st.integers(0, q - 1))
    if shape == "point":
        w = [0] * q
    w[top] += 1
    return dict(
        plan=plan,
        kind=kind,
        p_x=Distribution([v / sum(w) for v in w]),
        seed=draw(st.integers(0, 1 << 30)),
        gamma=draw(st.sampled_from([0.05, 0.2, 1.0])),
        keep=draw(st.lists(st.booleans(), min_size=n_types(n, q), max_size=n_types(n, q))),
    )


@settings(max_examples=60, deadline=None)
@given(_plaintext_cases())
@example(dict(plan=make_rate_plan(6, 0.9, FieldSpec(2)), kind="canonical",
              p_x=Distribution([1.0, 0.0]), seed=5, gamma=0.1, keep=[True] * 7))
def test_plaintext_side_by_type_matches_the_sequence_oracles(case):
    # codeword weights, nu_n, coverage and the retained set, read from the
    # types, against the per-sequence laws: tuple lookups, the digit-array
    # product and the inverse member table
    plan, p_x = case["plan"], case["p_x"]
    spec, q, n = plan.spec, plan.q, plan.n
    try:
        cb = build_codebook(plan)
    except FieldError:
        assume(False)  # an explicit m too short for the rate's members
    if case["kind"] == "all-members":
        assert not cb.error_types
    sys_ = CipherSystem(codebook=cb, key_encoder=draw_encoder(plan, case["seed"]))
    laws = exact_laws(sys_, p_x, uniform(q))
    words = cb.member_count + 1

    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        return np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    seqs = [tuple(x) for x in all_vectors(n, spec).tolist()]
    types = [TypeComposition(tuple(x.count(a) for a in range(q))) for x in seqs]
    chosen = {P for P, keep in zip(enumerate_types(n, spec), case["keep"]) if keep}
    # with a type set, only the members of those types carry mass
    in_chosen = [P in chosen and P in cb.member_types for P in types]
    for subset, mask in ((None, None), (chosen, in_chosen)):
        want = oracles.codeword_weights(sys_, p_x, mask)
        assert close(laws.codeword_weights(subset), want[:words])
        assert not want[words:].any()

    gamma = case["gamma"]
    px = oracles.sequence_probs(p_x, n, spec)
    with np.errstate(divide="ignore"):
        typical = -np.log2(px) / n >= entropy(p_x) - gamma - 1e-12
    retained = typical & (oracles.rank_of(cb) >= 0)
    d = converse_diagnostics(laws, gamma=gamma)
    assert close(d.nu_n, math.fsum(px[~typical]))
    assert close(d.coverage, math.fsum(px[retained]))
    floor = entropy(p_x) - gamma - 1e-12
    kept = {P for P in cb.member_types if -_log2_sequence_prob(P, p_x) / n >= floor}
    assert {x for x, P in zip(seqs, types) if P in kept} == {
        x for x, r in zip(seqs, retained) if r
    }


def _law(size, rng, zeros):
    law = rng.uniform(0.0, 1.0, size=size)
    if zeros:
        law[rng.uniform(size=size) < 0.6] = 0.0
        law[0] = 1.0  # never all zero
    return law / law.sum()


@pytest.mark.parametrize("m", [1, 5, 14])
@pytest.mark.parametrize("zeros", [False, True], ids=["dense", "zeros"])
def test_binary_transform_is_the_butterfly_bit_for_bit(m, zeros):
    law = _law(2**m, np.random.default_rng(m), zeros)
    hat = _digit_transform(law, 2, m)
    assert np.array_equal(hat, oracles.digit_transform(law, 2, m))
    assert np.array_equal(
        _digit_transform(hat, 2, m, inverse=True),
        oracles.digit_transform(hat, 2, m, inverse=True),
    )


@pytest.mark.parametrize("q, m", [(2, 9), (3, 6), (5, 4), (7, 3), (257, 2)])
def test_transform_matches_per_digit_fft_and_inverts(q, m):
    rng = np.random.default_rng(q)
    for zeros in (False, True):
        law = _law(q**m, rng, zeros)
        hat = _digit_transform(law, q, m)
        want = oracles.digit_transform(law, q, m)
        assert np.max(np.abs(hat - want)) <= 1e-12
        back = _digit_transform(hat, q, m, inverse=True)
        assert np.max(np.abs(back - oracles.digit_transform(want, q, m, inverse=True))) <= 1e-12
        assert np.max(np.abs(back - law)) <= 1e-12


def test_exact_laws_refuses_search_for_another_encoder():
    plan = make_rate_plan(4, 0.9, FieldSpec(2))
    search = derandomize(plan, base_seed=3)
    cb = build_codebook(plan)
    p_x, p_k = Distribution([0.9, 0.1]), uniform(2)
    # an equal encoder drawn again is still another encoder
    for enc in (draw_encoder(plan, search.seed + 1), draw_encoder(plan, search.seed)):
        other = CipherSystem(codebook=cb, key_encoder=enc)
        with pytest.raises(ValueError, match="another encoder"):
            exact_laws(other, p_x, p_k, search)
    mine = CipherSystem(codebook=cb, key_encoder=search.encoder)
    assert exact_laws(mine, p_x, p_k, search).search is search


def test_search_divergences_reused_and_checked(monkeypatch):
    spec = FieldSpec(2)
    plan = make_rate_plan(5, 0.9, spec)
    search = derandomize(plan, base_seed=3)
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=search.encoder)
    p_x, p_k = Distribution([0.8, 0.2]), Distribution([0.6, 0.4])
    fresh = exact_mutual_info(exact_laws(sys_, p_x, p_k))
    cert = security_certificate(exact_laws(sys_, p_x, p_k))

    def refuse(*args, **kwargs):
        raise AssertionError("divergences recomputed")

    monkeypatch.setattr("typecipher.leakage.omega_divergences", refuse)
    laws = exact_laws(sys_, p_x, p_k, search)
    assert exact_mutual_info(laws) == fresh
    reused = security_certificate(laws)
    # the search adds the theta steps and changes nothing else
    assert reused.derandomized and not cert.derandomized
    theta = {"typewise_vs_theta", "mi_vs_theta", "theta_vs_padded_exponent"}
    assert [c for c in reused.checks if c.name not in theta] == list(cert.checks)
    assert {c.name for c in reused.checks} - {c.name for c in cert.checks} == theta
    assert reused.report == cert.report


def test_one_handle_shared_by_every_figure_matches_fresh_handles():
    p_x, p_k = Distribution([0.9, 0.1]), Distribution([0.7, 0.3])
    laws = _canonical_laws(4, 0.9, p_x, p_k)

    def fresh():
        return exact_laws(laws.sys, p_x, p_k, laws.search)

    shared = (
        security_certificate(laws).to_json(),
        check_birkhoff(laws),
        converse_diagnostics(laws, gamma=0.1).to_json(),
        exact_mutual_info(laws),
    )
    assert shared == (
        security_certificate(fresh()).to_json(),
        check_birkhoff(fresh()),
        converse_diagnostics(fresh(), gamma=0.1).to_json(),
        exact_mutual_info(fresh()),
    )


def test_perfect_secrecy_zero_mi():
    rep = exact_mutual_info(_perfect_laws(Distribution([0.7, 0.3]), uniform(2)))
    assert rep.mi_exact <= 1e-10
    assert rep.h_pad == pytest.approx(2.0, abs=1e-12)
    assert rep.pad_divergence == pytest.approx(0.0, abs=1e-12)


def test_point_mass_key_leaks_codeword_entropy():
    sys_ = _perfect_system()
    p_x = Distribution([0.7, 0.3])
    rep = exact_mutual_info(exact_laws(sys_, p_x, Distribution([1.0, 0.0])))
    law = defaultdict(float)
    for x in itertools.product(range(2), repeat=3):
        law[encode(sys_.codebook, x)] += math.prod(p_x[a] for a in x)
    h_codeword = -sum(v * math.log2(v) for v in law.values() if v > 0)
    assert rep.mi_exact == pytest.approx(h_codeword, abs=1e-10)


def test_report_chain_invariant_random_systems():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        R, seed = float(rng.uniform(0.4, 1.1)), int(rng.integers(100))
        p_x = Distribution(rng.dirichlet(np.ones(2)))
        p_k = Distribution(rng.dirichlet(np.ones(2)))
        rep = exact_mutual_info(_canonical_laws(n, R, p_x, p_k, seed=seed))
        assert 0.0 <= rep.mi_exact <= rep.pad_divergence + 1e-10
        assert rep.pad_divergence <= rep.typewise_bound + 1e-10
        assert rep.security_bound is not None
        assert rep.mi_exact <= rep.security_bound + 1e-9


def test_pad_divergence_identity():
    # m log2 q - H(pad) = D(pad || uniform), here via exact rationals
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    cb = build_codebook(plan)
    enc = draw_encoder(plan, 19)
    sys_ = CipherSystem(codebook=cb, key_encoder=enc)
    p_k = Distribution([0.75, 0.25])
    rep = exact_mutual_info(exact_laws(sys_, Distribution([0.6, 0.4]), p_k))
    pad = pad_law_fraction(enc, [Fraction(3, 4), Fraction(1, 4)], spec)
    direct = sum(
        float(v) * math.log2(float(v) * 4) for v in pad if v > 0
    )
    assert rep.pad_divergence == pytest.approx(direct, abs=1e-10)


def test_security_certificate_canonical_passes():
    laws = _canonical_laws(4, 0.9, Distribution([0.9, 0.1]), uniform(2))
    cert = security_certificate(laws)
    assert cert.passed
    names = [c.name for c in cert.checks]
    assert "theta_vs_padded_exponent" in names
    assert "mi_vs_security_bound" in names
    for c in cert.checks:
        assert c.holds, c.name


def test_security_certificate_explicit_m_skips_exponent_steps():
    cert = security_certificate(_perfect_laws(Distribution([0.7, 0.3]), uniform(2)))
    assert cert.passed
    names = [c.name for c in cert.checks]
    assert "mi_vs_security_bound" not in names
    assert "theta_vs_padded_exponent" not in names
    assert cert.report.security_bound is None


@pytest.mark.parametrize("canonical", [True, False])
def test_certificate_json_lists_skipped_steps_iff_non_canonical(canonical):
    p_x, p_k = Distribution([0.8, 0.2]), Distribution([0.6, 0.4])
    laws = _canonical_laws(4, 0.9, p_x, p_k) if canonical else _perfect_laws(p_x, p_k)
    payload = security_certificate(laws).to_json()
    assert ("skipped" in payload) is (not canonical)
    if not canonical:
        assert payload["skipped"] == [
            "theta_vs_padded_exponent",
            "padded_equals_security_bound",
            "mi_vs_security_bound",
        ]


def test_monte_carlo_known_zero():
    sys_ = _perfect_system()
    est = monte_carlo_mi(sys_, Distribution([0.7, 0.3]), uniform(2), samples=2000, seed=1)
    assert abs(est.estimate) <= 3 * est.std_error + 1e-12
    assert est.corrected and est.samples == 2000


def test_monte_carlo_tracks_exact_value():
    p_x = Distribution([0.8, 0.2])
    p_k = Distribution([0.9, 0.1])
    laws = _canonical_laws(4, 0.9, p_x, p_k)
    exact = exact_mutual_info(laws).mi_exact
    est = monte_carlo_mi(laws.sys, p_x, p_k, samples=6000, seed=2)
    assert abs(est.estimate - exact) <= 3 * est.std_error


def test_monte_carlo_se_scales_with_samples():
    p_x = Distribution([0.8, 0.2])
    sys_ = _canonical_laws(3, 0.9, p_x, uniform(2)).sys
    small = monte_carlo_mi(sys_, p_x, uniform(2), samples=1000, seed=3)
    large = monte_carlo_mi(sys_, p_x, uniform(2), samples=4000, seed=3)
    ratio = small.std_error / large.std_error
    assert 1.2 <= ratio <= 3.5  # ~2 expected; bootstrap noise allowed for


def test_sampled_row_peak_memory_stays_small():
    # a sampled binary n=20 row: symbols, keys, pads and ciphertexts are one
    # byte a digit and the pads come from digit-group tables, so 4000
    # samples peak at about 1.1 MiB under tracemalloc (int64 rows and the
    # int64 product kA peaked at 5.1 MiB)
    plan = make_rate_plan(20, 0.9, FieldSpec(2))
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=draw_encoder(plan, 1))
    p_x, p_k = Distribution([0.82, 0.18]), Distribution([0.62, 0.38])
    tracemalloc.start()
    try:
        monte_carlo_mi(sys_, p_x, p_k, 4000, 3, bootstrap=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_monte_carlo_sample_floor():
    with pytest.raises(ValueError):
        monte_carlo_mi(_perfect_system(), uniform(2), uniform(2), samples=999, seed=0)


@pytest.mark.parametrize("bootstrap", [1, -1])
def test_monte_carlo_refuses_a_bootstrap_without_a_deviation(bootstrap):
    # one replicate has no sample deviation (NaN) and a negative count no
    # replicates at all; 0 is the explicit "no standard error"
    with pytest.raises(ValueError, match=f"bootstrap must be 0 .* got {bootstrap}"):
        monte_carlo_mi(_perfect_system(), uniform(2), uniform(2), samples=1000, seed=0,
                       bootstrap=bootstrap)


def test_monte_carlo_without_bootstrap_keeps_the_point_estimate():
    # the replicates draw after every sample of the point estimate, so
    # skipping them leaves its bits alone (a sweep-sized binary n=16 system)
    plan = make_rate_plan(16, 0.9, FieldSpec(2))
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=draw_encoder(plan, 9))
    p_x, p_k = Distribution([0.82, 0.18]), Distribution([0.62, 0.38])
    full = monte_carlo_mi(sys_, p_x, p_k, samples=4000, seed=2024)
    bare = monte_carlo_mi(sys_, p_x, p_k, samples=4000, seed=2024, bootstrap=0)
    assert bare.std_error is None and math.isfinite(full.std_error)
    assert bare == full._replace(std_error=None)


@st.composite
def _mc_cases(draw):
    q = draw(st.sampled_from([2, 3, 5]))

    def law():
        w = draw(st.lists(st.integers(0, 9), min_size=q, max_size=q))
        w[draw(st.integers(0, q - 1))] += 1  # zeros allowed, not everywhere
        return tuple(v / sum(w) for v in w)

    return dict(
        q=q,
        n=draw(st.integers(1, {2: 8, 3: 5, 5: 3}[q])),
        R=draw(st.floats(0.2, 1.0)) * math.log2(q),
        p_x=law(),
        p_k=law(),
        encoder_seed=draw(st.integers(0, 1 << 30)),
        samples=draw(st.integers(1000, 1500)),
        seed=draw(st.integers(0, 1 << 30)),
        bootstrap=draw(st.one_of(st.just(0), st.integers(2, 12))),
    )


_BINARY_N6 = dict(q=2, n=6, R=0.9, p_x=(0.82, 0.18), p_k=(0.62, 0.38), encoder_seed=5,
                  samples=2000, seed=7, bootstrap=200)


@settings(max_examples=25, deadline=None)
@given(_mc_cases())
@example(_BINARY_N6)
@example(dict(q=3, n=4, R=1.2, p_x=(0.65, 0.2, 0.15), p_k=(1.0, 0.0, 0.0), encoder_seed=1,
              samples=2000, seed=2, bootstrap=3))
@example(dict(q=5, n=3, R=1.5, p_x=(0.38, 0.24, 0.15, 0.12, 0.11), p_k=(0, 0, 1.0, 0, 0),
              encoder_seed=3, samples=1000, seed=4, bootstrap=2))
@example(dict(_BINARY_N6, bootstrap=0))
def test_monte_carlo_matches_sorting_oracle(case):
    # same seed, same bytes: counted cells must reproduce every bit of the
    # row-sorting estimator, zero-probability symbols and point-mass keys
    # included; the uncorrected plug-in, kept in `raw_plugin`, is the
    # oracle's uncorrected estimate
    plan = make_rate_plan(case["n"], case["R"], FieldSpec(case["q"]))
    enc = draw_encoder(plan, case["encoder_seed"])
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=enc)
    p_x, p_k = Distribution(case["p_x"]), Distribution(case["p_k"])
    kwargs = {k: case[k] for k in ("samples", "seed", "bootstrap")}
    got = monte_carlo_mi(sys_, p_x, p_k, **kwargs)
    assert got == oracles.monte_carlo_mi(sys_, p_x, p_k, **kwargs)
    raw = oracles.monte_carlo_mi(sys_, p_x, p_k, case["samples"], case["seed"], corrected=False,
                                 bootstrap=0)
    assert got.raw_plugin == raw.estimate and got.corrected and not raw.corrected


@pytest.mark.parametrize(
    "q, n, R, p_x, p_k",
    [
        (2, 6, 0.9, (0.82, 0.18), (0.62, 0.38)),
        (3, 4, 1.2, (0.65, 0.2, 0.15), (0.4, 0.35, 0.25)),
        (5, 3, 1.5, (0.38, 0.24, 0.15, 0.12, 0.11), (0.3, 0.25, 0.2, 0.15, 0.1)),
    ],
)
def test_monte_carlo_draws_match_numpy_generator(monkeypatch, q, n, R, p_x, p_k):
    # the plaintexts, the keys and every replicate's indices, in stream
    # order, are the draws numpy's Generator makes from the same seed
    draws = []

    def record(draw):
        def spy(*args):
            draws.append(draw(*args))
            return draws[-1]
        return spy

    monkeypatch.setattr("typecipher.leakage._choice", record(cipher_mod._choice))
    monkeypatch.setattr("typecipher.leakage._bounded", record(cipher_mod._bounded))
    plan = make_rate_plan(n, R, FieldSpec(q))
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=draw_encoder(plan, 1))
    p_x, p_k = Distribution(p_x), Distribution(p_k)
    samples, seed, bootstrap = 3000, 2**64 + q, 4
    monte_carlo_mi(sys_, p_x, p_k, samples=samples, seed=seed, bootstrap=bootstrap)
    rng = np.random.default_rng(seed)
    want = [numpy_choice_draw(rng, p_x, (samples, n)), numpy_choice_draw(rng, p_k, (samples, n)),
            *numpy_bootstrap_indices(rng, samples, bootstrap)]
    assert len(draws) == len(want)
    # symbols come in the digit dtype, bootstrap indices in int64
    dtypes = [FieldSpec(q).digit_dtype] * 2 + [np.dtype(np.int64)] * bootstrap
    for got, expected, dtype in zip(draws, want, dtypes):
        assert got.dtype == dtype and np.array_equal(got, expected)


def test_scaled_power_is_the_float_expression_until_the_power_overflows():
    # the same bits wherever base**power converts to a float
    assert scaled_power(3.5, 9, 40, -12.25) == 3.5 * 9**40 * 2.0**-12.25
    assert scaled_power(1.0, 17, 2, -3.0) == 17**2 * 2.0**-3.0
    with pytest.raises(OverflowError):
        3.0 * 2**1100 * 2.0**-200.0
    # past it, from log2: finite when the value fits a double, inf above
    assert scaled_power(3.0, 2, 1100, -200.0) == pytest.approx(3.0 * 2.0**900, rel=1e-12)
    assert scaled_power(1.0, 2, 1100, 0.0) == math.inf
    plan = make_rate_plan(1, 4.0, FieldSpec(257))
    assert security_bound(plan, 0.0) == math.inf


# The benchmark's base laws: p_X and p_K per alphabet size.
_CALIBRATION_LAWS = {
    2: ((0.82, 0.18), (0.62, 0.38)),
    3: ((0.65, 0.2, 0.15), (0.4, 0.35, 0.25)),
}


@pytest.mark.parametrize(
    "q, n, R",
    [
        pytest.param(
            2, 5, 0.9,
            marks=pytest.mark.xfail(
                strict=True,
                reason="biased high: +-3 SE covers the exact MI on 30/40 seeds "
                "(mean z 2.6); 2^11 ciphertext words against 4000 samples",
            ),
        ),
        (3, 3, 1.2),
        pytest.param(
            2, 6, 0.9,
            marks=pytest.mark.xfail(
                strict=True,
                reason="biased high: +-3 SE covers the exact MI on 0/40 seeds "
                "(mean z 11.7); about as many cells as samples, beyond what "
                "the Miller-Madow correction removes",
            ),
        ),
    ],
)
def test_monte_carlo_calibration_grid(q, n, R):
    # 40 seeds at 4000 samples against the exact value: the +-3 SE interval
    # should cover it on at least 36 (a z-score beyond 3 is a 0.3% event)
    plan = make_rate_plan(n, R, FieldSpec(q))
    search = derandomize(plan, base_seed=0)
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=search.encoder)
    p_x, p_k = (Distribution(law) for law in _CALIBRATION_LAWS[q])
    exact = exact_mutual_info(exact_laws(sys_, p_x, p_k, search)).mi_exact
    covered = 0
    for seed in range(40):
        est = monte_carlo_mi(sys_, p_x, p_k, samples=4000, seed=seed)
        covered += abs(est.estimate - exact) <= 3 * est.std_error
    assert covered >= 36, f"+-3 SE covers the exact MI on {covered}/40 seeds"


def test_birkhoff_point_mass_key():
    laws = _perfect_laws(uniform(2), Distribution([1.0, 0.0]))
    assert check_birkhoff(laws) == pytest.approx(1.0, abs=1e-12)


def test_birkhoff_uniform_key_flat_rows():
    # uniform pad over all of X^m: every row sum is |members| / q^m
    laws = _perfect_laws(uniform(2), uniform(2))
    got = check_birkhoff(laws)
    assert got == pytest.approx(laws.sys.codebook.member_count / 4, abs=1e-12)


def test_birkhoff_random_configs_below_one():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        R, seed = float(rng.uniform(0.4, 1.2)), int(rng.integers(100))
        p_k = Distribution(rng.dirichlet(np.ones(2)))
        laws = _canonical_laws(n, R, uniform(2), p_k, seed=seed)
        assert check_birkhoff(laws) <= 1.0 + 1e-12


def test_birkhoff_exact_rational_oracle():
    # row sums recomputed in exact rationals never exceed 1
    spec = FieldSpec(2)
    plan = explicit_m_plan(3, 2, spec)
    cb = build_codebook(plan)
    enc = draw_encoder(plan, 50)
    p_frac = [Fraction(5, 8), Fraction(3, 8)]
    pad = pad_law_fraction(enc, p_frac, spec)
    words = [index_encode(encode(cb, x), spec) for x in oracles.members(cb)]
    for c in range(4):
        row = Fraction(0)
        for w in words:
            diff = []
            cc, ww = c, w
            for _ in range(2):
                cc, cd = divmod(cc, 2)
                ww, wd = divmod(ww, 2)
                diff.append((cd - wd) % 2)
            idx = diff[1] * 2 + diff[0]
            row += pad[idx]
        assert row <= 1


def test_converse_gamma_above_entropy_keeps_everything():
    p_x = Distribution([0.7, 0.3])
    laws = _canonical_laws(4, 0.9, p_x, uniform(2))
    d = converse_diagnostics(laws, gamma=entropy(p_x) + 0.05)
    assert d.nu_n == pytest.approx(0.0, abs=1e-12)
    assert d.coverage == pytest.approx(1.0 - d.measured_eps, abs=1e-12)


def test_converse_inequalities_small_matrix():
    rng = np.random.default_rng(46)
    for n in (2, 3, 4):
        for gamma in (0.05, 0.1, 0.2):
            seed = int(rng.integers(100))
            p_x = Distribution(rng.dirichlet(np.ones(2)))
            p_k = Distribution(rng.dirichlet(np.ones(2)))
            laws = _canonical_laws(n, 0.9, p_x, p_k, seed=seed)
            d = converse_diagnostics(laws, gamma=gamma)
            assert d.peak_ok
            assert d.entropy_floor_ok
            assert d.pad_entropy_cap_ok
            assert d.mi_amplification_ok
            assert d.coverage_ok
            assert d.key_rate_proof_holds
            assert d.passed


def test_converse_passed_ignores_the_display_form():
    gated = (
        "peak_ok",
        "entropy_floor_ok",
        "pad_entropy_cap_ok",
        "mi_amplification_ok",
        "coverage_ok",
        "key_rate_proof_holds",
    )
    laws = _canonical_laws(4, 0.9, Distribution([0.97, 0.03]), uniform(2))
    d = converse_diagnostics(laws, gamma=0.05)
    assert d.passed and not d.key_rate_display_holds
    assert d.to_json()["informational"] == ["key_rate_display_holds"]
    assert d._replace(key_rate_display_holds=True).passed
    for flag in gated:
        assert not d._replace(**{flag: False}).passed, flag


def test_converse_margin_formula():
    p_x = Distribution([0.9, 0.1])
    d = converse_diagnostics(_canonical_laws(4, 0.9, p_x, uniform(2)), gamma=0.1)
    shrink = 1.0 - (d.nu_n + d.measured_eps)
    want = (d.measured_eps / shrink + math.log2(1.0 / shrink)) / 4
    assert d.leak_margin == pytest.approx(want, abs=1e-12)
    want_delta = (d.measured_delta / shrink + math.log2(1.0 / shrink)) / 4
    assert d.leak_margin_delta == pytest.approx(want_delta, abs=1e-12)


def test_converse_hypotheses_gate():
    # leakage above the budget cap means the admissibility hypotheses fail
    laws = _canonical_laws(4, 0.9, Distribution([0.9, 0.1]), uniform(2))
    d = converse_diagnostics(laws, gamma=0.1)
    assert d.measured_delta > 1.0
    assert not d.hypotheses_hold
    d2 = converse_diagnostics(laws, gamma=0.1, delta_cap=10.0)
    assert d2.hypotheses_hold


def test_converse_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        converse_diagnostics(_perfect_laws(uniform(2), uniform(2)), gamma=0.0)


def test_probe_matches_brute_force_topmass():
    p_x = Distribution([0.7, 0.3])
    for n in (4, 6, 8):
        rows = strong_converse_probe(p_x, 0.6, [n])
        budget = 2 ** rows[0]["log2_size"]
        probs = sorted(
            (
                math.prod(p_x[a] for a in x)
                for x in itertools.product(range(2), repeat=n)
            ),
            reverse=True,
        )
        want = 1.0 - sum(probs[:budget])
        assert rows[0]["error"] == pytest.approx(want, abs=1e-12)


def test_probe_uniform_closed_form():
    # uniform binary source at R=0.5: error = 1 - 2^(floor(n/2) - n)
    u = uniform(2)
    rows = strong_converse_probe(u, 0.5, [2, 4, 6, 8])
    for row in rows:
        n = row["n"]
        assert row["error"] == pytest.approx(1.0 - 2.0 ** (n // 2 - n), abs=1e-12)


def test_probe_walks_types_past_the_sequence_cap():
    # q^n once capped the probe at binary n=24; it walks only the n+1 types
    p_x = Distribution([0.82, 0.18])
    rows = strong_converse_probe(p_x, 0.5, [24, 30, 40, 100, 400])
    errors = [r["error"] for r in rows]
    assert all(0.0 <= e <= 1.0 for e in errors)
    assert errors[-1] > errors[0]
    assert errors[-1] > 0.999  # below entropy the error tends to 1


def test_probe_refuses_types_outside_double_range():
    # binary n=1040 at R=0.99: the first type taken has probability 2^-1040
    with pytest.raises(FieldError, match="double range"):
        strong_converse_probe(uniform(2), 0.99, [1040])


def test_probe_rejects_rates_at_or_above_entropy():
    with pytest.raises(ValueError):
        strong_converse_probe(uniform(2), 1.0, [4])
    with pytest.raises(ValueError):
        strong_converse_probe(Distribution([0.7, 0.3]), 0.95, [4])


def test_security_bound_curve_per_symbol_decreases():
    rows = security_bound_curve(0.5, uniform(2), [4, 6, 8, 12, 16])
    per_symbol = [r["per_symbol"] for r in rows]
    assert all(b < a for a, b in zip(per_symbol, per_symbol[1:]))
    assert all(r["f_exponent"] == pytest.approx(0.5, abs=1e-6) for r in rows)


def test_security_bound_curve_takes_the_alphabet_from_the_key_law():
    # log2 bound = log2(2 R_n + 1) + log2 q + 4 q log2(n+1) - n F, q = 3 here
    p_k = uniform(3)
    (row,) = security_bound_curve(0.5, p_k, [4])
    plan = make_rate_plan(4, 0.5, FieldSpec(3))
    want = (
        math.log2(2 * plan.R_n + 1)
        + math.log2(3)
        + 12 * math.log2(5)
        - 4 * row["f_exponent"]
    )
    assert row["log2_bound"] == pytest.approx(want, abs=1e-12)


def test_exact_laws_past_q_to_the_2n_pairs_match_the_shift_loop():
    # 2^26 (key, plaintext) pairs, 2^16 words: only the arrays built bound
    # the exact path, and these fit
    plan = make_rate_plan(13, 0.5, FieldSpec(2))
    cb = build_codebook(plan)
    assert (plan.m, cb.member_count) == (16, 28)
    sys_ = CipherSystem(codebook=cb, key_encoder=draw_encoder(plan, 0))
    p_x, p_k = Distribution([0.8, 0.2]), Distribution([0.6, 0.4])
    laws = exact_laws(sys_, p_x, p_k)
    want = oracles.ciphertext_law(sys_, p_x, p_k)
    assert np.max(np.abs(oracles.dense_mixture(laws, laws.ciphertext) - want)) <= 1e-12
    pad = pad_law(sys_.key_encoder, p_k, sys_.spec)
    assert abs(laws.mi - (entropy(want) - entropy(pad))) <= 1e-12
