"""Type compositions: enumeration, class sizes, probabilities, sandwiches."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from typecipher.fields import FieldError, FieldSpec
from typecipher.simplex import Distribution, entropy, uniform
from typecipher.typeclasses import (
    TypeComposition,
    _compositions,
    _group_types,
    _walk_members,
    class_prob,
    class_ranks,
    class_size,
    enumerate_types,
    sequence_probs,
    type_entropy,
    type_of,
)

import oracles
from oracles import class_prob_fraction


def _brute_types(n, q):
    """Independent oracle: collect types by enumerating all q**n strings."""
    seen = {}
    for x in itertools.product(range(q), repeat=n):
        counts = tuple(x.count(a) for a in range(q))
        seen.setdefault(counts, []).append(x)
    return seen


def test_compositions_match_the_recursive_oracle():
    # stars and bars lists the same tuples in the same lexicographic order
    for parts in range(1, 8):
        for total in range(13):
            got = list(_compositions(total, parts))
            assert got == list(oracles.compositions(total, parts)), (total, parts)
            assert len(got) == math.comb(total + parts - 1, parts - 1)


def test_enumerate_types_at_the_largest_alphabet():
    # q = 257: C(n + 256, 256) types, which the recursion took seconds to list
    spec = FieldSpec(257)
    for n in (1, 2):
        types = enumerate_types(n, spec)
        assert len(types) == math.comb(n + 256, 256)
        assert [P.counts for P in types] == sorted(P.counts for P in types)


def test_enumerate_types_refuses_before_listing(monkeypatch):
    # q = 257, n = 3: 2.86M types, q counts each, and 257^3 sequences, both
    # past MAX_ENUM, so nothing is listed; binary n = 30 has few types and
    # lists them past the sequence cap
    def listing(*args):
        raise AssertionError("types listed")

    monkeypatch.setattr("typecipher.typeclasses._compositions", listing)
    with pytest.raises(FieldError, match=r"refusing to materialize 257\^3 vectors"):
        enumerate_types(3, FieldSpec(257))
    monkeypatch.undo()
    assert len(enumerate_types(30, FieldSpec(2))) == 31


def test_type_of_counts_symbols():
    spec = FieldSpec(3)
    P = type_of((2, 0, 0, 1, 2), spec)
    assert P.counts == (2, 1, 2)
    assert P.n == 5 and P.q == 3
    with pytest.raises(ValueError):
        type_of((0, 3), spec)


def test_empirical_distribution():
    P = TypeComposition((1, 3))
    assert list(P.empirical()) == [0.25, 0.75]


def test_enumerate_types_matches_brute_force():
    for q in (2, 3):
        spec = FieldSpec(q)
        for n in (1, 2, 3, 4, 5):
            oracle = _brute_types(n, q)
            got = enumerate_types(n, spec)
            assert sorted(P.counts for P in got) == sorted(oracle)
            # lexicographic order of count vectors
            assert [P.counts for P in got] == sorted(P.counts for P in got)
            # cardinality formula
            assert len(got) == math.comb(n + q - 1, q - 1)
            assert len(got) <= (n + 1) ** (q - 1)


def test_class_size_matches_brute_force():
    for q in (2, 3):
        spec = FieldSpec(q)
        for n in (1, 2, 4):
            oracle = _brute_types(n, q)
            for P in enumerate_types(n, spec):
                assert class_size(P) == len(oracle[P.counts])


def test_class_size_worked_values():
    assert class_size(TypeComposition((2, 2))) == 6
    assert class_size(TypeComposition((4, 0))) == 1
    assert class_size(TypeComposition((2, 1, 1))) == 12


def _members_by_walk(P):
    """Every sequence of type P, in rank order, from `_walk_members`."""
    size = class_size(P)
    counts = np.tile(np.array(P.counts, dtype=np.int64), (size, 1))
    rows = _walk_members(np.arange(size), counts, np.full(size, size))
    return [tuple(x) for x in rows.tolist()]


def test_walk_members_lexicographic_and_complete():
    P = TypeComposition((2, 2))
    got = _members_by_walk(P)
    assert got == sorted(got)
    assert got == [
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
    ]
    assert len(got) == class_size(P)


def test_walk_members_match_recursive_oracle():
    # every type (zero counts included) from n=1 up: the rank walk run
    # backwards must give the recursion's order, so codebook decode tables
    # and encoders stay put
    for q, n_max in ((2, 12), (3, 7), (5, 4)):
        for n in range(1, n_max + 1):
            for P in enumerate_types(n, FieldSpec(q)):
                assert _members_by_walk(P) == list(oracles.class_members(P)), P.counts
    assert _members_by_walk(TypeComposition((0, 0))) == [()]


def test_class_ranks_invert_class_members():
    # every sequence of every type (zero counts included) from n=1 up, in a
    # shuffled order: its rank is its position in the recursive listing
    rng = np.random.default_rng(17)
    for q, n_max in ((2, 12), (3, 7), (5, 4)):
        for n in range(1, n_max + 1):
            rows, want = [], []
            for P in enumerate_types(n, FieldSpec(q)):
                members = list(oracles.class_members(P))
                rows.extend(members)
                want.extend(range(len(members)))
            order = rng.permutation(len(rows))
            xs = np.array(rows, dtype=np.int64)[order]
            assert class_ranks(xs, q).tolist() == np.array(want)[order].tolist(), (q, n)
    assert class_ranks(np.zeros((1, 0), dtype=np.int64), 2).tolist() == [0]
    assert class_ranks(np.zeros((0, 3), dtype=np.int64), 2).tolist() == []


@pytest.mark.parametrize("q", [2, 3, 5, 257])
@pytest.mark.parametrize("rows", [0, 1, 40])
def test_group_types_matches_numpy_unique(q, rows):
    # the count vectors of random sequences, repeats included
    xs = np.random.default_rng(q * 100 + rows).integers(0, min(q, 3), (rows, 6))
    counts = np.stack([(xs == a).sum(axis=1) for a in range(q)], axis=1)
    types, inverse = _group_types(counts)
    want_types, want_inverse = np.unique(counts, axis=0, return_inverse=True)
    assert types.shape == want_types.shape and types.dtype == want_types.dtype
    assert np.array_equal(types, want_types)
    assert inverse.dtype == want_inverse.dtype
    assert np.array_equal(inverse, want_inverse.reshape(-1))


def test_class_ranks_rejects_bad_rows():
    with pytest.raises(ValueError):
        class_ranks(np.array([[0, 2]]), 2)
    with pytest.raises(ValueError):
        class_ranks(np.array([0, 1]), 2)


def test_class_prob_sums_to_one():
    spec = FieldSpec(3)
    rng = np.random.default_rng(5)
    for n in (2, 5, 8):
        p = Distribution(rng.dirichlet(np.ones(3)))
        total = sum(class_prob(P, p) for P in enumerate_types(n, spec))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_class_prob_in_log_space_past_float_range():
    # binary n=1100: the central class sizes exceed a float, where the
    # product used to raise OverflowError
    spec = FieldSpec(2)
    types = enumerate_types(1100, spec)
    assert any(class_size(P) > 2**1024 for P in types)
    for p in (Distribution([0.82, 0.18]), uniform(2)):
        total = math.fsum(class_prob(P, p) for P in types)
        assert total == pytest.approx(1.0, abs=1e-9)
        for P in types[::97]:
            size = class_size(P)
            if size < 2**1023:  # the product, bit for bit, where it fits
                want = float(size) * p[0] ** P.counts[0] * p[1] ** P.counts[1]
                assert class_prob(P, p) == want
    point = Distribution([1.0, 0.0])
    assert class_prob(types[550], point) == 0.0


def test_class_prob_fraction_exact():
    spec = FieldSpec(2)
    p = [Fraction(3, 4), Fraction(1, 4)]
    total = sum(class_prob_fraction(P, p) for P in enumerate_types(6, spec))
    assert total == Fraction(1)
    P = TypeComposition((1, 1))
    assert class_prob_fraction(P, p) == Fraction(2 * 3, 16)


def test_type_entropy_matches_simplex_entropy():
    for P in enumerate_types(7, FieldSpec(3)):
        assert type_entropy(P) == pytest.approx(entropy(P.empirical()), abs=1e-12)


def test_type_class_size_sandwich():
    # (n+1)^-(q-1) <= |T^n(P)| / 2^(n H(P)) <= 1
    for q in (2, 3):
        spec = FieldSpec(q)
        for n in (1, 3, 6, 10):
            for P in enumerate_types(n, spec):
                ratio = class_size(P) / 2.0 ** (n * type_entropy(P))
                assert ratio <= 1.0 + 1e-9
                assert ratio >= (n + 1) ** (-(q - 1)) - 1e-12


@pytest.mark.parametrize("q, top", [(2, 15), (3, 9), (5, 6), (7, 5)])
def test_sequence_probs_match_the_digit_array_product_bit_for_bit(q, top):
    spec = FieldSpec(q)
    rng = np.random.default_rng(q)
    for _ in range(5):
        p = Distribution((rng.dirichlet(np.ones(q))).tolist())
        for n in range(1, top + 1):
            assert np.array_equal(
                sequence_probs(p, n, spec), oracles.sequence_probs(p, n, spec)
            )


def test_sequence_probs_refuse_past_the_enumeration_cap():
    with pytest.raises(FieldError, match=r"refusing to materialize 2\^23 vectors"):
        sequence_probs(uniform(2), 23, FieldSpec(2))


def test_class_prob_sandwich():
    # (n+1)^-(q-1) <= p^n(T^n(P)) / 2^(-n D(P||p)) <= 1, over p-support
    from typecipher.simplex import kl_divergence

    spec = FieldSpec(2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = Distribution(rng.dirichlet(np.ones(2)))
        n = int(rng.integers(2, 9))
        for P in enumerate_types(n, spec):
            d = kl_divergence(P.empirical(), p)
            if math.isinf(d):
                assert class_prob(P, p) == 0.0
                continue
            ratio = class_prob(P, p) / 2.0 ** (-n * d)
            assert ratio <= 1.0 + 1e-9
            assert ratio >= (n + 1) ** (-1) - 1e-12


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        TypeComposition((-1, 2))


def test_empirical_divides_counts_to_the_doubles_of_a_fraction():
    # c / n is correctly rounded, as the conversion of Fraction(c, n) is
    for n in range(1, 80):
        for c in range(n + 1):
            assert c / n == float(Fraction(c, n)), (c, n)
    for counts in ((3, 0, 4), (1, 1, 1, 7), (0, 49), (5, 6, 7, 8, 9)):
        want = [float(Fraction(c, sum(counts))) for c in counts]
        assert TypeComposition(counts).empirical().probs.tolist() == want
