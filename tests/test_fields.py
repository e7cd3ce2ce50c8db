"""Field arithmetic: residues, vectors, index codecs, enumeration."""

import numpy as np
import pytest

from typecipher.fields import (
    FieldError,
    FieldSpec,
    all_vectors,
    field_matrix,
    field_row,
    field_vector,
    index_decode,
    index_encode,
    indices_to_vectors,
    vector_from_text,
    vector_to_text,
    vectors_to_indices,
)

from oracles import vec_affine


def test_spec_accepts_primes():
    for q in (2, 3, 5, 7, 11, 251, 257):
        assert FieldSpec(q).q == q


def test_spec_rejects_composites_and_junk():
    for q in (0, 1, 4, 6, 9, 100):
        with pytest.raises(FieldError):
            FieldSpec(q)
    with pytest.raises(FieldError):
        FieldSpec(263)  # prime, but past the desk-scale cap
    with pytest.raises(FieldError):
        FieldSpec("2")


def test_digit_dtype_is_one_byte_below_q_131():
    # the narrowest unsigned dtype that holds 2(q - 1)
    for q, dtype in ((2, np.uint8), (127, np.uint8), (131, np.uint16), (257, np.uint16)):
        spec = FieldSpec(q)
        assert spec.digit_dtype == dtype
        assert 2 * (q - 1) <= np.iinfo(dtype).max
        assert all_vectors(1, spec).dtype == dtype
        rows = indices_to_vectors(np.arange(q), 1, spec)
        assert rows.dtype == dtype and rows[:, 0].tolist() == list(range(q))
    assert 2 * (131 - 1) > np.iinfo(np.uint8).max


def test_field_vector_validates_range():
    spec = FieldSpec(3)
    assert field_vector([0, 2, 1], spec) == (0, 2, 1)
    with pytest.raises(FieldError):
        field_vector([0, 3], spec)
    with pytest.raises(FieldError):
        field_vector([-1], spec)


def test_field_row_validates_length_and_range():
    spec = FieldSpec(3)
    row = field_row((0, 2, 1), 3, spec, "key")
    assert row.dtype == np.int64 and row.tolist() == [0, 2, 1]
    with pytest.raises(FieldError, match="key length 2 does not match 3"):
        field_row((0, 2), 3, spec, "key")
    with pytest.raises(FieldError, match="key length 6 does not match 3"):
        field_row([[0, 1, 2], [0, 1, 2]], 3, spec, "key")
    with pytest.raises(FieldError, match=r"word residue 3 out of range \[0, 3\)"):
        field_row((0, 3, 1), 3, spec, "word")
    with pytest.raises(FieldError, match="word residue -1"):
        field_row((-1, 0, 1), 3, spec, "word")


def test_field_matrix_is_readonly():
    spec = FieldSpec(2)
    A = field_matrix([[1, 0], [1, 1]], spec)
    with pytest.raises(ValueError):
        A[0, 0] = 0
    with pytest.raises(FieldError):
        field_matrix([[2, 0]], spec)
    with pytest.raises(FieldError):
        field_matrix([1, 0], spec)


def test_vec_affine_worked_example():
    # q=2: k=(1,1), A=[[1,0],[1,1]], b=(0,1) -> kA=(0,1), +b=(0,0)
    spec = FieldSpec(2)
    A = field_matrix([[1, 0], [1, 1]], spec)
    assert vec_affine((1, 1), A, (0, 1), spec) == (0, 0)


def test_vec_affine_dimension_errors():
    spec = FieldSpec(2)
    A = field_matrix([[1, 0], [1, 1]], spec)
    with pytest.raises(FieldError):
        vec_affine((1,), A, (0, 1), spec)
    with pytest.raises(FieldError):
        vec_affine((1, 1), A, (0,), spec)


def test_index_encode_worked_example():
    spec = FieldSpec(3)
    assert index_encode((2, 1), spec) == 7
    assert index_decode(7, 2, spec) == (2, 1)


def test_index_roundtrip_exhaustive():
    for q in (2, 3, 5):
        spec = FieldSpec(q)
        for length in (1, 2, 3):
            for i in range(q**length):
                assert index_encode(index_decode(i, length, spec), spec) == i


def test_index_decode_range_check():
    spec = FieldSpec(2)
    with pytest.raises(FieldError):
        index_decode(8, 3, spec)
    with pytest.raises(FieldError):
        index_decode(-1, 3, spec)


def test_index_encode_handles_big_vectors_exactly():
    # 2**80 does not fit in int64; the scalar codec must stay exact.
    spec = FieldSpec(2)
    v = (1,) + (0,) * 80
    assert index_encode(v, spec) == 2**80
    assert index_decode(2**80, 81, spec) == v


def test_vector_indices_reach_int64_max():
    # binary length 63: the largest index is 2^63 - 1, which fits int64
    spec = FieldSpec(2)
    ones = np.ones((1, 63), dtype=np.int64)
    idx = vectors_to_indices(ones, spec)
    assert idx.tolist() == [2**63 - 1]
    assert np.array_equal(indices_to_vectors(idx, 63, spec), ones)
    with pytest.raises(FieldError, match="2\\^64 exceeds int64"):
        vectors_to_indices(np.ones((1, 64), dtype=np.int64), spec)


def test_text_roundtrip_digit_form():
    spec = FieldSpec(2)
    assert vector_to_text((0, 1, 1, 0), spec) == "0110"
    assert vector_from_text("0110", spec) == (0, 1, 1, 0)


def test_text_roundtrip_comma_form():
    spec = FieldSpec(11)
    v = (10, 0, 3)
    assert vector_to_text(v, spec) == "10,0,3"
    assert vector_from_text("10,0,3", spec) == v


def test_text_rejects_garbage():
    spec = FieldSpec(2)
    with pytest.raises(FieldError):
        vector_from_text("01a0", spec)
    with pytest.raises(FieldError):
        vector_from_text("0120", spec)


def test_all_vectors_lexicographic_and_complete():
    spec = FieldSpec(3)
    table = all_vectors(2, spec)
    assert table.shape == (9, 2)
    assert [tuple(r) for r in table[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    # row i carries the digits of value i
    assert np.array_equal(vectors_to_indices(table, spec), np.arange(9))


def test_all_vectors_guard():
    spec = FieldSpec(2)
    with pytest.raises(FieldError):
        all_vectors(23, spec)


def test_vectors_to_indices_matches_scalar_codec():
    spec = FieldSpec(5)
    rng = np.random.default_rng(4)
    arr = rng.integers(0, 5, size=(40, 6))
    got = vectors_to_indices(arr, spec)
    want = [index_encode(tuple(int(a) for a in row), spec) for row in arr]
    assert got.tolist() == want


def test_indices_to_vectors_matches_scalar_codec():
    spec = FieldSpec(3)
    idx = np.random.default_rng(5).integers(0, 3**7, size=(4, 10))
    got = indices_to_vectors(idx, 7, spec)
    assert got.shape == (4, 10, 7)
    for i, row in zip(idx.ravel(), got.reshape(-1, 7)):
        assert tuple(row.tolist()) == index_decode(int(i), 7, spec)
    assert vectors_to_indices(got, spec).tolist() == idx.tolist()
    with pytest.raises(FieldError):
        indices_to_vectors([3**7], 7, spec)
    with pytest.raises(FieldError):
        indices_to_vectors([-1], 7, spec)
