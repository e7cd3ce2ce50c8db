"""Rate plans and the type-class universal codebook."""

import csv
import io
import itertools
import math

import numpy as np
import pytest

from typecipher.cli import main
from typecipher.code import (
    build_codebook,
    codebook_size_margins,
    codebook_to_json,
    decode,
    decode_indices,
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
    indices_to_vectors,
    vectors_to_indices,
)
from typecipher.simplex import Distribution, uniform
from typecipher.typeclasses import class_size, type_counts, type_entropy, type_of

import oracles


def _members(cb):
    """The codebook's members in rank order, as tuples read off member_idx."""
    return [tuple(x) for x in indices_to_vectors(cb.member_idx, cb.plan.n, cb.spec).tolist()]


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
    for x in _members(cb):
        assert type_entropy(type_of(x, spec)) < plan.R


def test_codebook_worked_example_n2():
    # n=2, R=0.5, q=2: only the zero-entropy types qualify
    spec = FieldSpec(2)
    plan = make_rate_plan(2, 0.5, spec)
    cb = build_codebook(plan)
    assert plan.m == 6
    assert _members(cb) == [(1, 1), (0, 0)]
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
        for x in _members(cb):
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
    assert cb.member_count == cb.member_idx.size == 4
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
        assert cb.member_idx.size <= q**cb.plan.m - 1


def test_index_arrays_mirror_members_and_ranks():
    for q, n, R in ((2, 6, 0.8), (3, 4, 1.2)):
        spec = FieldSpec(q)
        cb = build_codebook(make_rate_plan(n, R, spec))
        # built on first use only: sampling paths never pay for them
        assert "member_idx" not in vars(cb)
        want = vectors_to_indices(np.array(oracles.members(cb)).reshape(-1, n), spec)
        assert cb.member_idx.tolist() == want.tolist()
        rank_of = oracles.rank_of(cb)
        assert rank_of.shape == (q**n,)
        for i in range(q**n):
            rank = oracles.member_rank(cb).get(index_decode(i, n, spec), -1)
            assert rank_of[i] == rank
        assert not cb.member_idx.flags.writeable


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
                # ranked by arithmetic: no index array built yet
                assert "member_idx" not in vars(cb)
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
    assert "member_idx" not in vars(cb)
    assert cb.member_idx.size == cb.member_count
    head = indices_to_vectors(cb.member_idx[:50], 20, spec)
    assert cb.ranks(head).tolist() == list(range(50))


def test_member_list_cap_sits_on_the_lazy_forms():
    # the lazy index arrays hold one entry per member (one more in the
    # decode table), so a codebook over 2^23 sequences lists its two
    # members; each refuses past MAX_ENUM entries and names the cap, while
    # the codebook and its rank arithmetic work
    small = build_codebook(make_rate_plan(23, 0.1, FieldSpec(2)))  # 2 members
    assert small.member_idx.tolist() == [2**23 - 1, 0]
    assert small.decode_table.size == 3
    large = build_codebook(make_rate_plan(30, 0.9, FieldSpec(2)))
    assert large.member_count > MAX_ENUM
    assert large.ranks(np.zeros((1, 30), dtype=np.int64))[0] >= 0  # a member
    for form in ("member_idx", "decode_table"):
        with pytest.raises(FieldError, match="MAX_ENUM"):
            getattr(large, form)


def test_decode_indices_matches_scalar_decode():
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
        # one-row call of decode_indices
        assert decode_indices(cb, words).tolist() == want
        assert int(decode_indices(cb, words[5])) == want[5]
        assert [index_encode(decode(cb, w), spec) for w in words] == want


def test_decode_table_is_built_once(monkeypatch):
    # the decryption check decodes block after block: the table (the
    # default sequence's index, then member_idx) is built on the first call
    cb = build_codebook(make_rate_plan(6, 0.9, FieldSpec(2)))
    words = all_vectors(cb.plan.m, cb.spec)[:: 7]
    first = decode_indices(cb, words)
    table = cb.decode_table
    assert not table.flags.writeable
    assert table.tolist() == [index_encode(cb.default_decode, cb.spec), *cb.member_idx.tolist()]

    def refuse(*args):
        raise AssertionError("the decode table was rebuilt")

    monkeypatch.setattr("typecipher.code.index_encode", refuse)
    assert decode_indices(cb, words).tolist() == first.tolist()
    assert cb.decode_table is table
