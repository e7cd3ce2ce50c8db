"""The read-only records: construction, validation, equality, hashing, copies."""

import pytest

from typecipher.cipher import AffineEncoder, CipherSystem, SearchResult, derandomize, make_encoder
from typecipher.code import RatePlan, build_codebook, make_rate_plan
from typecipher.exponents import ExponentResult, exponent_E
from typecipher.fields import FieldError, FieldSpec
from typecipher.leakage import (
    BoundCheck,
    ConverseDiagnostics,
    ExactLaws,
    LeakageReport,
    MonteCarloMI,
    SecurityCertificate,
    _TransformLaws,
    _UniformKeyLaws,
    converse_diagnostics,
    exact_laws,
    exact_mutual_info,
    monte_carlo_mi,
    security_certificate,
)
from typecipher.simplex import Distribution
from typecipher.typeclasses import TypeComposition, enumerate_types


def _records():
    """One record of each class, from a binary n=4 system."""
    spec = FieldSpec(2)
    plan = make_rate_plan(4, 0.9, spec)
    search = derandomize(plan)
    sys_ = CipherSystem(codebook=build_codebook(plan), key_encoder=search.encoder)
    p_X, p_K = Distribution([0.8, 0.2]), Distribution([0.7, 0.3])
    laws = exact_laws(sys_, p_X, p_K, search)
    cert = security_certificate(laws)
    return {
        "FieldSpec": spec,
        "TypeComposition": enumerate_types(4, spec)[1],
        "RatePlan": plan,
        "AffineEncoder": search.encoder,
        "CipherSystem": sys_,
        "SearchResult": search,
        "ExponentResult": exponent_E(0.9, p_X),
        "ExactLaws": laws,
        "LeakageReport": exact_mutual_info(laws),
        "MonteCarloMI": monte_carlo_mi(sys_, p_X, p_K, 1000, 3, bootstrap=0),
        "BoundCheck": cert.checks[0],
        "SecurityCertificate": cert,
        "ConverseDiagnostics": converse_diagnostics(laws, gamma=0.1),
    }


RECORDS = _records()
# equal only to themselves: an encoder holds an array, and the laws cache
# what they compute
BY_IDENTITY = {"AffineEncoder", "ExactLaws"}


def _public(record) -> type:
    """The public record class of `record`: ExactLaws for either of its
    private engines, the record's own class otherwise."""
    return next(c for c in type(record).__mro__ if not c.__name__.startswith("_"))


def test_every_record_class_is_covered():
    classes = {FieldSpec, TypeComposition, RatePlan, AffineEncoder, CipherSystem,
               SearchResult, ExponentResult, ExactLaws, LeakageReport, MonteCarloMI,
               BoundCheck, SecurityCertificate, ConverseDiagnostics}
    assert {_public(r) for r in RECORDS.values()} == classes
    assert all(_public(r).__name__ == name for name, r in RECORDS.items())
    assert type(RECORDS["ExactLaws"]) is not ExactLaws  # an engine, chosen from p_K


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_read_only(name):
    record = RECORDS[name]
    field = record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match="read-only"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="read-only"):
        delattr(record, field)
    with pytest.raises(AttributeError, match="read-only"):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_hash_and_replace(name):
    record = RECORDS[name]
    copy = record._replace()
    assert type(copy) is type(record) and copy is not record
    assert all(getattr(copy, f) is getattr(record, f) for f in record._fields)
    assert record == record and hash(record) == hash(record)
    if name in BY_IDENTITY:
        assert copy != record
        assert len({record, copy}) == 2
    else:
        assert copy == record and not copy != record
        assert hash(copy) == hash(record)
        assert len({record, copy}) == 1
    # a record never equals another class holding the same values
    assert record != tuple(getattr(record, f) for f in record._fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_replace_changes_one_field_and_leaves_the_original(name):
    record = RECORDS[name]
    field = record._fields[-1]
    old = getattr(record, field)
    marker = 3 if name in ("FieldSpec", "CipherSystem") else object()
    if name == "FieldSpec":
        changed = record._replace(q=3)
    elif name == "CipherSystem":
        plan = make_rate_plan(4, 0.9, FieldSpec(2))
        enc = make_encoder([[0] * plan.m] * plan.n, [1] * plan.m, FieldSpec(2))
        changed, marker = record._replace(key_encoder=enc), enc
    elif name == "TypeComposition":
        changed, marker = record._replace(counts=(2, 2)), (2, 2)
    else:
        changed = record._replace(**{field: marker})
    assert getattr(changed, field) is marker
    assert getattr(record, field) is old
    assert all(getattr(changed, f) is getattr(record, f) for f in record._fields if f != field)
    if name not in BY_IDENTITY and name != "SearchResult":
        assert changed != record


def test_types_are_values_in_a_set():
    spec = FieldSpec(3)
    types = enumerate_types(4, spec)
    again = enumerate_types(4, spec)
    assert all(a == b and a is not b and hash(a) == hash(b) for a, b in zip(types, again))
    assert set(types) == set(again) and len(set(types + again)) == len(types)
    assert TypeComposition((1, 3, 0)) in set(types)
    assert TypeComposition((1, 3, 0)) != TypeComposition((3, 1, 0))
    assert {FieldSpec(2), FieldSpec(2), FieldSpec(3)} == {FieldSpec(3), FieldSpec(2)}
    plan = make_rate_plan(5, 0.9, FieldSpec(2))
    assert len({plan, make_rate_plan(5, 0.9, FieldSpec(2))}) == 1


def test_validation_runs_at_construction_and_in_replace():
    with pytest.raises(FieldError, match="modulus 4 is not prime"):
        FieldSpec(4)
    with pytest.raises(FieldError, match="must be an integer"):
        FieldSpec(q=2.0)
    with pytest.raises(FieldError, match="modulus 9 is not prime"):
        RECORDS["FieldSpec"]._replace(q=9)
    with pytest.raises(ValueError, match="negative count"):
        TypeComposition((2, -1))
    with pytest.raises(ValueError, match="negative count"):
        RECORDS["TypeComposition"]._replace(counts=(-1, 5))
    sys_ = RECORDS["CipherSystem"]
    plan = sys_.plan
    short = make_encoder([[0] * (plan.m - 1)] * plan.n, [0] * (plan.m - 1), sys_.spec)
    with pytest.raises(FieldError, match="does not match plan"):
        CipherSystem(codebook=sys_.codebook, key_encoder=short)
    with pytest.raises(FieldError, match="does not match plan"):
        sys_._replace(key_encoder=short)
    wrong_b = AffineEncoder(A=sys_.key_encoder.A, b=(0,) * (plan.m + 1))
    with pytest.raises(FieldError, match="offset length"):
        CipherSystem(sys_.codebook, wrong_b)


def test_constructor_takes_fields_by_position_or_keyword_with_defaults():
    spec = FieldSpec(2)
    by_position = RatePlan(spec, 4, 0.9, 0.1, 1.0, 4)
    by_keyword = RatePlan(m=4, R_n=1.0, gamma_n=0.1, R=0.9, n=4, spec=spec)
    assert by_position == by_keyword and by_position.canonical is True
    assert RatePlan(spec, 4, 0.9, 0.1, 1.0, 4, False) != by_position
    assert AffineEncoder(RECORDS["AffineEncoder"].A, (0,)).seed is None
    assert ExponentResult(value=1.0, argmin=None, tolerance=0.0) == ExponentResult(1.0, None, 0.0)
    assert BoundCheck("x", 1.0, 2.0, True) == BoundCheck(name="x", lhs=1.0, rhs=2.0, holds=True)
    with pytest.raises(TypeError, match="missing field 'm'"):
        RatePlan(spec, 4, 0.9, 0.1, 1.0)
    with pytest.raises(TypeError, match="unexpected or repeated field 'k'"):
        RatePlan(spec, 4, 0.9, 0.1, 1.0, 4, k=1)
    with pytest.raises(TypeError, match="unexpected or repeated field 'n'"):
        RatePlan(spec, 4, 0.9, 0.1, 1.0, 4, n=5)
    with pytest.raises(TypeError, match="takes 7 fields, got 8"):
        RatePlan(spec, 4, 0.9, 0.1, 1.0, 4, True, 0)
    with pytest.raises(TypeError, match="unexpected or repeated field 'z'"):
        RECORDS["LeakageReport"]._replace(z=1)


def test_repr_names_the_shown_fields():
    assert repr(TypeComposition((1, 2))) == "TypeComposition(counts=(1, 2))"
    assert repr(FieldSpec(5)) == "FieldSpec(q=5)"
    assert repr(BoundCheck("a", 1.0, 2.0, True)) == (
        "BoundCheck(name='a', lhs=1.0, rhs=2.0, holds=True)"
    )


def test_search_result_reduction_is_out_of_equality_and_repr():
    search = RECORDS["SearchResult"]
    assert "reduced" in search._fields
    assert "reduced" not in repr(search)
    assert search._replace(reduced=None) == search
    assert hash(search._replace(reduced=None)) == hash(search)
    assert search._replace(score=search.score + 1) != search


def test_exact_laws_cache_their_figures_on_the_instance():
    laws = RECORDS["ExactLaws"]
    mi = laws.mi
    assert vars(laws)["mi"] == mi and laws.mi is mi
    fresh = laws._replace()
    assert "mi" not in vars(fresh) and fresh.mi == mi


def test_exact_laws_replace_takes_the_engine_of_its_key_law():
    # a copy with another key law is built on that law's engine, as
    # `exact_laws` would build it
    laws = RECORDS["ExactLaws"]
    p_k = Distribution([0.5, 0.5])
    flat = laws._replace(p_K=p_k)
    assert type(flat) is _UniformKeyLaws
    assert flat.mi == exact_laws(laws.sys, laws.p_X, p_k, laws.search).mi
    assert type(flat._replace(p_K=laws.p_K)) is type(laws) is _TransformLaws


def test_report_json_lists_every_field():
    report = RECORDS["LeakageReport"]
    assert list(report.to_json()) == [*report._fields, "provenance"]
    diag = RECORDS["ConverseDiagnostics"]
    assert list(diag.to_json()) == [*diag._fields, "informational"]
    check = RECORDS["BoundCheck"]
    assert check.to_json() == {"name": check.name, "lhs": check.lhs, "rhs": check.rhs,
                               "holds": check.holds, "margin": check.margin}
    assert RECORDS["MonteCarloMI"].to_json()["provenance"] == "estimate"
