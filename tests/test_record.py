"""Value semantics of the record classes: equality by class and fields, the
field tuple's hash, immutability, and `replace` through the validating
`__init__`."""
import copy
import pickle

import pytest

from cubetri.acsa import ModuleActionTriple, ModuleType, ab_type, build_canonical
from cubetri.hypercube import CubeContext
from cubetri.leonard import LeonardTripleCertificate, certify_triple
from cubetri.quotient import QuotientContext, quotient
from cubetri.record import Record, _set
from cubetri.suites import SuiteResult
from cubetri.tmodules import SubmoduleBasis, decompose

# each record class with its fields in declaration order, and a way to make one
RECORDS = [
    (ModuleType, ("family", "d", "n"), lambda: ModuleType("AB", 3, "x")),
    (ModuleActionTriple, ("x_mat", "y_mat", "z_mat"), lambda: build_canonical(ab_type(2, "x"))),
    (CubeContext, ("D",), lambda: CubeContext(5)),
    (QuotientContext, ("parent",), lambda: quotient(5)),
    (
        LeonardTripleCertificate,
        (
            "module_id",
            "dimension",
            "orderings",
            "shapes",
            "bannai_ito",
            "nu",
            "traces",
            "verdict",
            "classification",
        ),
        lambda: certify_triple(*build_canonical(ab_type(3, "y")).matrices(), module_id="m"),
    ),
    (SubmoduleBasis, ("space", "module_id", "endpoint", "tableau"), lambda: decompose(CubeContext(5))[1]),
]
IDS = [cls.__name__ for cls, _fields, _make in RECORDS]


class _Triple(Record):
    """The fields of a module action triple, under another class."""

    __slots__ = ("x_mat", "y_mat", "z_mat")

    def __init__(self, x_mat, y_mat, z_mat):
        for name, value in zip(self.__slots__, (x_mat, y_mat, z_mat)):
            _set(self, name, value)


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_hashed_as_their_field_tuple(cls, fields, make):
    rec = make()
    assert type(rec) is cls
    values = tuple(getattr(rec, name) for name in fields)
    twin = cls(*values)
    assert twin is not rec and twin == rec and not twin != rec
    assert cls(**dict(zip(fields, values))) == rec
    try:
        expected = hash(values)
    except TypeError:  # a certificate holds its orderings in a dict
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin) == expected


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=IDS)
def test_no_field_can_be_assigned_or_deleted(cls, fields, make):
    rec = make()
    for name in fields:
        value = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is value
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_records_of_another_class_or_another_field_are_unequal():
    w = decompose(CubeContext(5))[1]
    image = w.replace(space=quotient(5))
    assert (image.module_id, image.endpoint, image.tableau) == (w.module_id, w.endpoint, w.tableau)
    assert image != w and w != image
    x, y, z = build_canonical(ab_type(2, "x")).matrices()
    triple, other = ModuleActionTriple(x, y, z), _Triple(x, y, z)
    assert hash(triple) == hash(other) and triple != other and other != triple
    assert CubeContext(5) != QuotientContext(CubeContext(5))
    assert ModuleType("B", 2) != ("B", 2, None) and CubeContext(5) != (5,)
    assert ModuleType("AB", 3, "x") != ModuleType("AB", 3, "y")
    assert len({CubeContext(5), CubeContext(5), CubeContext(7)}) == 2


def test_replace_validates_the_copy_and_keeps_the_original():
    b2 = ModuleType("B", 2)
    assert b2.replace(d=4) == ModuleType("B", 4)
    with pytest.raises(ValueError, match="type B requires even d"):
        b2.replace(d=3)
    with pytest.raises(ValueError, match="type B carries no variant"):
        b2.replace(n="x")
    with pytest.raises(ValueError, match="antipodal quotient needs odd D"):
        quotient(5).replace(parent=CubeContext(4))
    triple = build_canonical(ab_type(2, "x"))
    with pytest.raises(ValueError, match="square and of equal size"):
        triple.replace(z_mat=build_canonical(ab_type(3, "x")).z_mat)
    with pytest.raises(TypeError):
        b2.replace(diameter=2)
    assert b2 == ModuleType("B", 2) and b2.d == 2


def test_copy_and_pickle_rebuild_an_equal_record():
    for rec in (ModuleType("AB", 3, "x"), quotient(5), decompose(CubeContext(5))[1]):
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is type(rec) and twin == rec and hash(twin) == hash(rec)


def test_records_print_their_fields():
    assert repr(ModuleType("AB", 3, "x")) == "ModuleType(family='AB', d=3, n='x')"
    assert repr(quotient(5)) == "QuotientContext(parent=CubeContext(D=5))"
    assert str(ModuleType("AB", 3, "x")) == "AB(3,x)"


def test_a_suite_result_is_mutable_unhashable_and_owns_its_certificates():
    first, second = SuiteResult("a", "pass", "", 0.0), SuiteResult("a", "pass", "", 0.0)
    first.certificates.append("c")
    assert second.certificates == [] and first != second
    second.certificates.append("c")
    assert first == second
    first.status = "fail"
    assert not first.passed and second.passed
    with pytest.raises(TypeError):
        hash(first)
