"""Rate plans and the type-class universal codebook."""

import bisect
import csv
import io
import itertools
import math

import numpy as np
import pytest

from typecipher.cipher import CipherSystem, decrypt, draw_encoder, encrypt, injective_on_members
from typecipher.cli import main
from typecipher.code import (
    build_codebook,
    codebook_size_margins,
    codebook_to_json,
    decode,
    decode_rows,
    encode,
    exact_error_prob,
    explicit_m_plan,
    make_rate_plan,
)
from typecipher.fields import (
    MAX_ENUM,
    FieldError,
    FieldSpec,
    all_vectors,
    index_decode,
    index_encode,
    vectors_to_indices,
)
from typecipher.simplex import Distribution, uniform
from typecipher.typeclasses import class_size, type_counts, type_entropy, type_of

import oracles


def test_rate_plan_worked_example():
    # n=8, R=0.8, q=2: gamma_8 = (2 log2 9 + 2)/8, m = 14
    plan = make_rate_plan(8, 0.8, FieldSpec(2))
    assert plan.gamma_n == pytest.approx(1.042481, abs=1e-6)
    assert plan.R_n == pytest.approx(1.842481, abs=1e-6)
    assert plan.m == 14
    assert plan.canonical


def test_rate_plan_sandwich_sweep():
    # R_n - (1/n) log2 q <= (m/n) log2 q <= R_n over a wide grid
    for q in (2, 3, 5):
        spec = FieldSpec(q)
        log_q = math.log2(q)
        for n in range(1, 65):
            for R in (0.1, 0.3, 0.5, 0.8, 1.1, 1.5):
                plan = make_rate_plan(n, R, spec)
                rate = plan.m * log_q / n
                assert rate <= plan.R_n + 1e-9
                assert rate >= plan.R_n - log_q / n - 1e-9


def test_rate_plan_slack_identity():
    # 2^(-n gamma_n) = 1 / (2 (n+1)^q q), exactly the chosen slack
    for q in (2, 3):
        spec = FieldSpec(q)
        for n in (1, 4, 9, 33):
            plan = make_rate_plan(n, 0.7, spec)
            assert 2.0 ** (-n * plan.gamma_n) == pytest.approx(
                1.0 / (2 * (n + 1) ** q * q), rel=1e-9
            )


def test_rate_plan_rejects_bad_inputs():
    spec = FieldSpec(2)
    with pytest.raises(ValueError):
        make_rate_plan(0, 0.5, spec)
    with pytest.raises(ValueError):
        make_rate_plan(4, 0.0, spec)
    with pytest.raises(ValueError):
        make_rate_plan(4, -1.0, spec)


def test_explicit_m_plan_bookkeeping():
    spec = FieldSpec(2)
    plan = explicit_m_plan(4, 3, spec)
    assert not plan.canonical
    assert plan.m == 3
    assert plan.R_n == pytest.approx(0.75)
    assert plan.R == pytest.approx(0.75)  # defaults to the raw rate
    assert plan.gamma_n == pytest.approx(0.0)
    custom = explicit_m_plan(4, 3, spec, R=0.5)
    assert custom.R == 0.5
    assert custom.R_n == pytest.approx(custom.R + custom.gamma_n)


def test_codebook_members_low_entropy_types_only():
    spec = FieldSpec(2)
    plan = make_rate_plan(4, 0.9, spec)
    cb = build_codebook(plan)
    for P in cb.member_types:
        assert type_entropy(P) < plan.R
    for P in cb.error_types:
        assert type_entropy(P) >= plan.R
    for x in oracles.members(cb):
        assert type_entropy(type_of(x, spec)) < plan.R


def test_codebook_worked_example_n2():
    # n=2, R=0.5, q=2: only the zero-entropy types qualify
    spec = FieldSpec(2)
    plan = make_rate_plan(2, 0.5, spec)
    cb = build_codebook(plan)
    assert plan.m == 6
    assert oracles.members(cb) == ((1, 1), (0, 0))
    assert exact_error_prob(cb, uniform(2)) == pytest.approx(0.5)


def test_entropy_tie_goes_to_error_set():
    # R equal to a type's entropy excludes that type (strict inequality)
    spec = FieldSpec(2)
    plan = explicit_m_plan(2, 4, spec, R=1.0)
    cb = build_codebook(plan)
    assert all(P.counts != (1, 1) for P in cb.member_types)
    assert any(P.counts == (1, 1) for P in cb.error_types)


def test_encode_decode_roundtrip_members():
    spec = FieldSpec(2)
    for n, R in ((3, 0.4), (5, 0.8), (6, 1.1)):
        cb = build_codebook(make_rate_plan(n, R, spec))
        seen = set()
        for x in oracles.members(cb):
            w = encode(cb, x)
            assert len(w) == cb.plan.m
            assert decode(cb, w) == x
            seen.add(w)
        assert len(seen) == cb.member_count  # injective on members


def test_encode_maps_errors_to_x0():
    spec = FieldSpec(2)
    cb = build_codebook(make_rate_plan(4, 0.9, spec))
    non_members = [
        x
        for x in itertools.product(range(2), repeat=4)
        if x not in oracles.member_rank(cb)
    ]
    assert non_members, "test needs a non-trivial error set"
    for x in non_members:
        assert encode(cb, x) == cb.x0
    assert cb.x0 == (0,) * cb.plan.m


def test_encode_decode_reject_bad_rows():
    cb = build_codebook(make_rate_plan(4, 0.9, FieldSpec(2)))
    m = cb.plan.m
    with pytest.raises(FieldError, match="plaintext residue 9"):
        encode(cb, (0, 0, 0, 9))
    with pytest.raises(FieldError, match="plaintext length 8 does not match 4"):
        encode(cb, (0,) * 8)
    with pytest.raises(FieldError, match="word residue 5"):
        decode(cb, (5,) + (0,) * (m - 1))
    with pytest.raises(FieldError, match=f"word length {m + 1} does not match {m}"):
        decode(cb, (0,) * (m + 1))


def test_decode_default_on_unused_words():
    spec = FieldSpec(2)
    cb = build_codebook(make_rate_plan(3, 0.5, spec))
    # x0 and any word beyond the member range decode to the default
    assert decode(cb, cb.x0) == cb.default_decode
    top = (1,) * cb.plan.m
    assert index_encode(top, spec) > cb.member_count
    assert decode(cb, top) == cb.default_decode
    # the default is the smallest non-member in index order
    assert cb.default_decode not in oracles.member_rank(cb)
    for i in range(index_encode(cb.default_decode, spec)):
        assert index_decode(i, cb.plan.n, spec) in oracles.member_rank(cb)


def test_default_decode_when_everything_is_a_member():
    spec = FieldSpec(2)
    plan = explicit_m_plan(2, 4, spec, R=1.5)  # all 4 types below R=1.5
    cb = build_codebook(plan)
    assert cb.member_count == len(oracles.members(cb)) == 4
    assert cb.default_decode == (0, 0)


def test_exact_error_prob_matches_brute_force():
    spec = FieldSpec(2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        R = float(rng.uniform(0.2, 1.2))
        p = Distribution(rng.dirichlet(np.ones(2)))
        cb = build_codebook(make_rate_plan(n, R, spec))
        brute = 0.0
        for x in itertools.product(range(2), repeat=n):
            if x not in oracles.member_rank(cb):
                brute += math.prod(p[a] for a in x)
        assert exact_error_prob(cb, p) == pytest.approx(brute, abs=1e-12)


def test_error_prob_zero_when_rate_exceeds_log_q(capsys):
    # an empty sum is still the float every other plan gives, so sweep
    # prints 0.0 and verify writes "measured_eps": 0.0
    spec = FieldSpec(2)
    for plan in (make_rate_plan(5, 1.3, spec), explicit_m_plan(6, 8, spec)):
        cb = build_codebook(plan)
        assert not cb.error_types
        value = exact_error_prob(cb, Distribution([0.6, 0.4]))
        assert type(value) is float and value == 0.0
    assert main(["sweep", "--q", "2", "--n", "16", "--rate", "1.5", "--samples", "1000"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row["p_e_exact"] == "0.0"


def test_size_margins_hold_on_grid():
    spec = FieldSpec(2)
    for n in (2, 4, 6, 8):
        for R in (0.3, 0.7, 1.0):
            cb = build_codebook(make_rate_plan(n, R, spec))
            margins = codebook_size_margins(cb)
            assert margins["holds"]
            assert margins["member_count"] <= margins["entropy_bound"] + 1e-9
            assert margins["entropy_bound"] <= margins["word_budget"] + 1e-9


def test_codebook_json_shape():
    spec = FieldSpec(2)
    cb = build_codebook(make_rate_plan(3, 0.8, spec))
    js = codebook_to_json(cb, include_members=True)
    assert js["n"] == 3 and js["q"] == 2 and js["canonical"]
    assert js["member_count"] == len(js["members"])
    assert all(isinstance(s, str) for s in js["members"])


def test_member_count_below_word_budget_randomized():
    rng = np.random.default_rng(21)
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        spec = FieldSpec(q)
        n = int(rng.integers(1, 9))
        R = float(rng.uniform(0.1, 1.5))
        cb = build_codebook(make_rate_plan(n, R, spec))
        assert oracles.member_idx(cb).size == cb.member_count <= q**cb.plan.m - 1


def test_index_arrays_mirror_members_and_ranks():
    for q, n, R in ((2, 6, 0.8), (3, 4, 1.2)):
        spec = FieldSpec(q)
        cb = build_codebook(make_rate_plan(n, R, spec))
        # the decode table is an oracle now: unranking every rank lists it
        want = oracles.member_idx(cb)
        got = vectors_to_indices(cb.members(np.arange(cb.member_count)), spec)
        assert got.tolist() == want.tolist()
        rank_of = oracles.rank_of(cb)
        assert rank_of.shape == (q**n,)
        for i in range(q**n):
            rank = oracles.member_rank(cb).get(index_decode(i, n, spec), -1)
            assert rank_of[i] == rank


def test_ranks_match_member_rank_on_every_sequence():
    # zero counts and n=1 included; rates from "constant types only" to
    # "every sequence is a member"
    for q, n_max in ((2, 12), (3, 7), (5, 4)):
        spec = FieldSpec(q)
        for n in range(1, n_max + 1):
            for R in (0.3, 0.9, 1.6, 2.5):
                cb = build_codebook(make_rate_plan(n, R, spec))
                xs = all_vectors(n, spec)
                got = cb.ranks(xs)
                rank = oracles.member_rank(cb)
                want = [rank.get(x, -1) for x in map(tuple, xs.tolist())]
                assert got.tolist() == want, (q, n, R)
                assert cb.member_count == len(rank)
                assert cb.ranks(xs[0]).tolist() == want[:1]
                assert oracles.rank_of(cb).tolist() == want


@pytest.mark.parametrize("q, n, R", [(2, 14, 0.7), (3, 8, 1.0), (5, 5, 1.5), (7, 4, 1.8)])
def test_ranks_match_member_order_on_random_rows(q, n, R, monkeypatch):
    # random rows, repeated members and non-members, and no rows at all;
    # each call counts its rows by type once
    spec = FieldSpec(q)
    cb = build_codebook(make_rate_plan(n, R, spec))
    rank = oracles.member_rank(cb)
    members = np.array(oracles.members(cb))
    calls = []

    def counting(xs, q):
        calls.append(len(xs))
        return type_counts(xs, q)

    monkeypatch.setattr("typecipher.code.type_counts", counting)
    monkeypatch.setattr("typecipher.typeclasses.type_counts", counting)
    rng = np.random.default_rng(q)
    for size in (1, 7, 400):
        xs = np.concatenate(
            [rng.integers(0, q, size=(size, n)), members[rng.integers(len(members), size=size)]]
        )
        xs = xs[rng.permutation(len(xs))]
        want = [rank.get(x, -1) for x in map(tuple, xs.tolist())]
        assert -1 in want or size == 1
        assert cb.ranks(xs).tolist() == want, (q, n, size)
        assert calls == [len(xs)]
        calls.clear()
    assert cb.ranks(np.zeros((0, n), dtype=np.int64)).tolist() == []
    assert calls == [0]


def test_codebook_lists_members_on_demand():
    spec = FieldSpec(2)
    cb = build_codebook(make_rate_plan(20, 0.9, spec))
    assert cb.member_count == sum(class_size(P) for P in cb.member_types)
    assert codebook_size_margins(cb)["holds"]
    assert codebook_to_json(cb)["member_count"] == cb.member_count
    assert type_entropy(type_of(cb.default_decode, spec)) >= cb.plan.R
    ends = np.arange(cb.member_count - 50, cb.member_count)
    for ranks in (np.arange(50), ends):
        assert cb.ranks(cb.members(ranks)).tolist() == ranks.tolist()


def test_member_list_cap_sits_on_the_lists():
    # listing every member (the injectivity check, the codebook JSON) holds
    # one row per member, so a codebook over 2^23 sequences lists its two
    # members, and one past MAX_ENUM members refuses and names the cap; the
    # codebook, its rank arithmetic and decode work at both
    small = build_codebook(make_rate_plan(23, 0.1, FieldSpec(2)))  # 2 members
    assert small.members(np.arange(2)).tolist() == [[1] * 23, [0] * 23]
    assert injective_on_members(CipherSystem(small, draw_encoder(small.plan, 0)))
    large = build_codebook(make_rate_plan(30, 0.9, FieldSpec(2)))
    assert large.member_count > MAX_ENUM
    zero = (0,) * 30  # a member
    assert large.ranks(np.zeros((1, 30), dtype=np.int64))[0] >= 0
    assert decode(large, encode(large, zero)) == zero
    with pytest.raises(FieldError, match="MAX_ENUM"):
        injective_on_members(CipherSystem(large, draw_encoder(large.plan, 0)))
    with pytest.raises(FieldError, match="MAX_ENUM"):
        codebook_to_json(large, include_members=True)


@pytest.mark.parametrize("q, n, R", [(2, 30, 0.9), (2, 45, 0.9), (2, 60, 0.9), (3, 30, 1.2)])
def test_members_inverts_ranks_past_the_member_list(q, n, R):
    # random ranks, first and last included, at sizes that no member list
    # reaches: each comes back through ranks, as a row of its own type (the
    # type whose offset, summed here in Python ints, precedes it)
    spec = FieldSpec(q)
    cb = build_codebook(make_rate_plan(n, R, spec))
    assert cb.member_count > MAX_ENUM
    starts = list(itertools.accumulate((class_size(P) for P in cb.member_types), initial=0))
    rng = np.random.default_rng(n)
    ranks = np.concatenate(([0, cb.member_count - 1], rng.integers(cb.member_count, size=300)))
    rows = cb.members(ranks)
    assert rows.shape == (len(ranks), n)
    assert cb.ranks(rows).tolist() == ranks.tolist()
    want = [cb.member_types[bisect.bisect_right(starts, int(r)) - 1].counts for r in ranks]
    assert [tuple(c) for c in type_counts(rows, q).tolist()] == want


def test_scalar_round_trips_past_the_member_list_cap():
    # binary n=30 at R=0.9 has more members than MAX_ENUM, so no member list
    # exists; scalar decode and decrypt unrank the one word they read
    spec = FieldSpec(2)
    plan = make_rate_plan(30, 0.9, spec)
    cb = build_codebook(plan)
    assert cb.member_count > MAX_ENUM
    sys_ = CipherSystem(cb, draw_encoder(plan, 4))
    rng = np.random.default_rng(30)
    for _ in range(12):
        # a random arrangement of a random member type
        counts = cb.member_types[rng.integers(len(cb.member_types))].counts
        x = tuple(int(a) for a in rng.permutation(np.repeat(np.arange(2), counts)))
        k = tuple(int(a) for a in rng.integers(0, 2, size=30))
        assert decode(cb, encode(cb, x)) == x
        assert decrypt(sys_, k, encrypt(sys_, k, x)) == x


def test_round_trips_past_int64_words():
    # q=5 n=30 at R=2.2 has m=40: its 5^40 words pass int64, while this
    # member's rank, 30, does not; decode reads only the low digits that an
    # int64 index holds, and a higher digit set puts a word past the members
    spec = FieldSpec(5)
    plan = make_rate_plan(30, 2.2, spec)
    cb = build_codebook(plan)
    assert plan.m == 40 and 5**40 > 2**63
    x = (4,) * 29 + (3,)
    assert int(cb.ranks([x])[0]) == 30
    assert decode(cb, encode(cb, x)) == x
    sys_ = CipherSystem(cb, draw_encoder(plan, 0))
    k = tuple(range(5)) * 6
    assert decrypt(sys_, k, encrypt(sys_, k, x)) == x
    # 5^39 is past the 68-bit member count; 5^27 is a member's value, past
    # the 27 digits an int64 index holds, and refused
    assert decode(cb, (1,) + (0,) * 39) == cb.default_decode
    with pytest.raises(ValueError, match="member ranks pass int64"):
        decode(cb, (0,) * 12 + (1,) + (0,) * 27)
    # binary n=56 at R=0.9 has m=64 and fewer than 2^63 members: every word
    # with its top digit set decodes to the default, in one array call
    cb = build_codebook(make_rate_plan(56, 0.9, FieldSpec(2)))
    assert cb.plan.m == 64
    words = np.zeros((3, 64), dtype=np.uint8)
    words[0, 0] = words[1, -1] = words[2, 0] = words[2, -1] = 1
    assert decode_rows(cb, words).tolist() == [
        list(cb.default_decode), list(decode(cb, words[1])), list(cb.default_decode)]
    assert decode(cb, words[1]) == tuple(cb.members([0])[0].tolist())


def test_ranks_and_members_refuse_int64_overflow():
    # q=5 n=30 at R=2.2 has 68-bit member count: the types whose ranks fit
    # int64 rank and unrank, the later ones raise ValueError naming int64
    spec = FieldSpec(5)
    cb = build_codebook(make_rate_plan(30, 2.2, spec))
    assert cb.member_count.bit_length() == 68
    end = int(cb.offsets[-1])
    assert cb.offsets.dtype == np.int64 and end < cb.member_count
    early = (4,) * 29 + (3,)  # type (0, 0, 0, 1, 29), the second member type
    assert encode(cb, early) == index_decode(2 + 29, cb.plan.m, spec)
    assert cb.members(cb.ranks(early)).tolist() == [list(early)]
    assert encode(cb, (0, 1, 2, 3, 4) * 6) == cb.x0  # a non-member
    late = (0,) * 10 + (1,) * 10 + (2,) * 10  # offset past int64
    with pytest.raises(ValueError, match="int64"):
        encode(cb, late)
    with pytest.raises(ValueError, match="int64"):
        cb.ranks(np.array([early, late]))
    assert cb.ranks(cb.members([end - 1]))[0] == end - 1
    for ranks in ([end], [2**63 - 1], [2**64], [cb.member_count]):
        with pytest.raises(ValueError, match="int64"):
            cb.members(ranks)
    small = build_codebook(make_rate_plan(4, 0.9, FieldSpec(2)))
    for ranks in ([-1], [small.member_count], [0, small.member_count + 5]):
        with pytest.raises(ValueError, match=f"\\[0, {small.member_count}\\)"):
            small.members(ranks)


def test_decode_rows_matches_scalar_decode():
    for q, n, R in ((2, 4, 0.9), (3, 3, 1.0)):
        spec = FieldSpec(q)
        cb = build_codebook(make_rate_plan(n, R, spec))
        m = cb.plan.m
        words = np.array(list(itertools.product(range(q), repeat=m)))
        members = oracles.members(cb)
        want = [
            index_encode(members[v - 1] if 1 <= v <= len(members) else cb.default_decode, spec)
            for v in (index_encode(w, spec) for w in words)
        ]
        # the reference is the oracle member list, since scalar decode is a
        # one-row call of decode_rows
        assert vectors_to_indices(decode_rows(cb, words), spec).tolist() == want
        assert index_encode(decode_rows(cb, words[5]), spec) == want[5]
        assert [index_encode(decode(cb, w), spec) for w in words] == want
