"""Exact arithmetic over the prime field Z_q: residues, vectors, matrices.

Everything downstream (codebook, cipher, leakage accounting) works with
length-n symbol strings over an alphabet that is a finite field.  Prime
fields are enough for every experiment at desk scale, so residues are plain
integers mod q.  A vector is a row of a digit array, and a set of vectors
is one such array with a row per vector; each row also has a word index,
its big-endian base-q value (`vectors_to_indices`, `indices_to_vectors`),
so a law over vectors is one array over indices.  Bulk digit rows are held
in the field's digit dtype (`FieldSpec.digit_dtype`, one byte a digit for
q <= 127), indices in int64.  Tuples appear only at the scalar API and in
text.  Nothing in this module touches floating point, except the log2 by
which a size check refuses a vast power before building it.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FieldError",
    "FieldSpec",
    "field_vector",
    "field_row",
    "field_matrix",
    "index_encode",
    "index_decode",
    "vector_to_text",
    "vector_from_text",
    "all_vectors",
    "vectors_to_indices",
    "indices_to_vectors",
]

# Enumeration cost grows like q**(2n); past this cap nothing exact is feasible
# on a desk machine anyway.
MAX_Q = 257

# The one size cap (`_check_enum`): the most q**n keys, q**m words (under a
# key law that is not uniform), decryption pairs, members or types that the
# exact path builds or lists.  all_vectors at binary length 22 takes 92 MB.
MAX_ENUM = 1 << 22


class FieldError(ValueError):
    """Invalid field element, dimension mismatch, or unusable modulus."""


class Record:
    """A read-only value: the fields a subclass annotates, in order.

    The constructor takes them by position or keyword; a field with a
    class-level value defaults to it.  Records compare, hash and print by
    their fields, except those the subclass names with `hidden=(...)` in its
    class statement, and `_replace` copies one through its constructor.
    Nothing is generated at import.  A subclass that validates its fields,
    or is built in a loop, writes its own `__init__`, storing each field
    into `__dict__`.
    """

    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._shown = tuple(f for f in cls._fields if f not in hidden)
        # the compared values; a plain callable attribute, so called with self
        cls._key = attrgetter(*cls._shown)

    def __init__(self, *args, **kwargs) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                raise TypeError(f"{name} got an unexpected or repeated field {field!r}")
            values[field] = value
        for field in fields[len(args):]:
            if field not in values:
                if not hasattr(type(self), field):
                    raise TypeError(f"{name} is missing field {field!r}")
                values[field] = getattr(type(self), field)
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes):
        """A copy with `changes` to some fields, built (and so validated)
        by the record's constructor."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)


def _digit_dtype(q: int) -> np.dtype:
    """The narrowest unsigned dtype that holds 2(q - 1), the sum of two
    residues: uint8 up to q = 127, uint16 from q = 131 to MAX_Q."""
    return np.dtype(np.uint8 if 2 * (q - 1) <= 0xFF else np.uint16)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


class FieldSpec(Record):
    """The alphabet: the prime field Z_q with q symbols 0..q-1."""

    q: int

    def __init__(self, q: int) -> None:
        if not isinstance(q, int):
            raise FieldError(f"modulus must be an integer, got {q!r}")
        if not _is_prime(q):
            raise FieldError(f"modulus {q} is not prime")
        if q > MAX_Q:
            raise FieldError(f"modulus {q} exceeds the desk-scale cap {MAX_Q}")
        self.__dict__["q"] = q

    @property
    def digit_dtype(self) -> np.dtype:
        """The dtype of bulk digit rows: a sum of two residues still fits,
        so a sum mod q needs one conditional subtraction of q."""
        return _digit_dtype(self.q)


def _check_residue(a: int, spec: FieldSpec) -> int:
    a = int(a)
    if not 0 <= a < spec.q:
        raise FieldError(f"residue {a} out of range [0, {spec.q})")
    return a


def field_vector(entries: Iterable[int], spec: FieldSpec) -> tuple[int, ...]:
    """Validate and freeze a sequence of residues as a vector over Z_q."""
    return tuple(_check_residue(a, spec) for a in entries)


def field_row(v: Sequence[int], length: int, spec: FieldSpec, what: str) -> np.ndarray:
    """Validate one vector of `length` residues; returns it as an int64 row.

    `what` names the vector in the FieldError a wrong length or an entry
    outside [0, q) raises.
    """
    row = np.asarray(v, dtype=np.int64)
    if row.shape != (length,):
        raise FieldError(f"{what} length {row.size} does not match {length}")
    bad = row[(row < 0) | (row >= spec.q)]
    if bad.size:
        raise FieldError(f"{what} residue {bad[0]} out of range [0, {spec.q})")
    return row


def field_matrix(rows: Sequence[Sequence[int]], spec: FieldSpec) -> np.ndarray:
    """Validate a rows x cols residue matrix; returns a read-only int array."""
    A = np.asarray(rows, dtype=np.int64)
    if A.ndim != 2:
        raise FieldError(f"matrix must be two-dimensional, got shape {A.shape}")
    if A.size and (A.min() < 0 or A.max() >= spec.q):
        raise FieldError(f"matrix entries out of range [0, {spec.q})")
    A.flags.writeable = False
    return A


def index_encode(v: Sequence[int], spec: FieldSpec) -> int:
    """Big-endian positional base-q value of a vector (exact, any length)."""
    i = 0
    for a in v:
        i = i * spec.q + _check_residue(a, spec)
    return i


def index_decode(i: int, length: int, spec: FieldSpec) -> tuple[int, ...]:
    """Inverse of index_encode: the length-`length` vector with value i."""
    i = int(i)
    if not 0 <= i < spec.q**length:
        raise FieldError(f"index {i} out of range [0, {spec.q}^{length})")
    digits = []
    for _ in range(length):
        i, r = divmod(i, spec.q)
        digits.append(r)
    return tuple(reversed(digits))


def vector_to_text(v: Sequence[int], spec: FieldSpec) -> str:
    """Digit string like "0110" when q <= 10, comma-separated otherwise."""
    if spec.q <= 10:
        return "".join(str(_check_residue(a, spec)) for a in v)
    return ",".join(str(_check_residue(a, spec)) for a in v)


def vector_from_text(s: str, spec: FieldSpec) -> tuple[int, ...]:
    parts = s.split(",") if "," in s or spec.q > 10 else list(s)
    if parts == [""]:
        parts = []
    try:
        return field_vector((int(p) for p in parts), spec)
    except ValueError as exc:
        raise FieldError(f"cannot parse {s!r} as a vector over Z_{spec.q}") from exc


def all_vectors(length: int, spec: FieldSpec) -> np.ndarray:
    """All q**length vectors in lexicographic order, one per row.

    Row i holds the digits of index i (big-endian), so lexicographic order on
    rows coincides with numeric order of index_encode.
    """
    total = _check_enum(_power(spec.q, length), f"{spec.q}^{length} vectors")
    return indices_to_vectors(np.arange(total), length, spec)


def _power(q: int, k: int, bits: int | None = None) -> int | float:
    """q**k, or inf where k log2 q is past `bits` (default: the bit length
    of MAX_ENUM), so a vast k builds no power.  The float log2 errs by far
    less than a bit, so inf means q**k > 2**(bits - 1): above any value of
    bit length below `bits`, which is what each caller compares it with."""
    if bits is None:
        bits = MAX_ENUM.bit_length()
    return q**k if k * math.log2(q) <= bits else math.inf


def _check_enum(total: int | float, space: str, way_out: str = "") -> int:
    """`total`, the size of what `space` names, refused past MAX_ENUM.

    Every size refusal comes here, and the cap is read at each call, so
    setting `fields.MAX_ENUM` moves all of them; `way_out`, if given, ends
    the message."""
    if total > MAX_ENUM:
        cap = f"2^{k}" if MAX_ENUM == 1 << (k := MAX_ENUM.bit_length() - 1) else MAX_ENUM
        tail = f"; {way_out}" if way_out else ""
        raise FieldError(f"refusing to materialize {space} (cap MAX_ENUM = {cap}){tail}")
    return total


_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_index_range(
    length: int, spec: FieldSpec, way_out: str = "use index_encode per vector"
) -> None:
    """Refuse lengths whose largest index, q**length - 1, leaves int64;
    `way_out` ends the message."""
    if _power(spec.q, length, 64) - 1 > _INT64_MAX:
        raise FieldError(f"index range {spec.q}^{length} exceeds int64; {way_out}")


def vectors_to_indices(arr: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """index_encode applied to every row of a digit array (of any integer
    dtype), accumulated in int64, where it fits."""
    length = arr.shape[-1]
    _check_index_range(length, spec)
    weights = spec.q ** np.arange(length - 1, -1, -1, dtype=np.int64)
    # einsum casts digit rows to int64 through its buffer; a product `@`
    # would first copy every row to int64
    return np.einsum("...j,j->...", arr, weights, dtype=np.int64)


def indices_to_vectors(idx: np.ndarray, length: int, spec: FieldSpec) -> np.ndarray:
    """index_decode applied to every entry of an index array (one digit row
    per entry, big-endian, in the digit dtype)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= spec.q**length):
        raise FieldError(f"index out of range [0, {spec.q}^{length})")
    out = np.empty(idx.shape + (length,), dtype=spec.digit_dtype)
    for pos in range(length - 1, -1, -1):
        idx, out[..., pos] = np.divmod(idx, spec.q)
    return out
