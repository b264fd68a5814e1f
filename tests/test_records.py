"""Result records and DiffModule as values.

Every result record is an immutable typing.NamedTuple, so it unpacks and
equals the tuple of its fields.  DiffModule is a slotted class that checks
its shape and ring at construction and compares and hashes by (ring, rank,
matrix).  Field names, order and reprs are pinned: reports, the benchmark
and user code read them.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from diffmod.cores import core
from diffmod.diffring import DiffRing
from diffmod.exactalg import Poly, PolyMat, RatMat, ShapeMismatch
from diffmod.modules import (DiffModule, hom_space, identity_certificate,
                             is_trivial, iso_search, trivial_module)
from diffmod.monoid import ClassEntry, EqualityResult
from diffmod.rng import StableRng
from diffmod.suite import SuiteItem, random_planned_module
from diffmod.zeroder import rcf, similar

LINE = DiffModule(DiffRing.POLY_DX, 1, PolyMat(1, 1, [Poly([0, 1])]))
ONE = trivial_module(DiffRing.POLY_DX, 1)
TWO = RatMat(1, 1, [Fraction(2)])
ID = "PolyMat(1x1, ['1'])"
LINE_CERT = (f"IsoCertificate(source=DiffModule(poly_dx, rank=1), "
             f"target=DiffModule(poly_dx, rank=1), forward={ID}, backward={ID})")
SIM_CERT = "SimilarityCertificate(transform=RatMat(1x1, ['1']), inverse=RatMat(1x1, ['1']))"

# (record, field names in order, repr before the move from dataclasses)
RECORDS = {
    "RingConstants": (
        lambda: DiffRing.POLY_DX.constants_description(),
        ("field_name", "is_field", "projective_class_monoid_trivial"),
        "RingConstants(field_name='QQ', is_field=True, projective_class_monoid_trivial=True)"),
    "IsoCertificate": (
        lambda: identity_certificate(LINE),
        ("source", "target", "forward", "backward"), LINE_CERT),
    "HomSpace": (
        lambda: hom_space(LINE, LINE, 0),
        ("source", "target", "basis", "deg_cap", "proven_complete"),
        "HomSpace(source=DiffModule(poly_dx, rank=1), target=DiffModule(poly_dx, rank=1), "
        f"basis=({ID},), deg_cap=0, proven_complete=False)"),
    "TrivialityResult": (
        lambda: is_trivial(ONE),
        ("trivial", "certificate", "constants_dim", "deg_cap", "proven_complete"),
        f"TrivialityResult(trivial=True, certificate={LINE_CERT}, constants_dim=1, "
        "deg_cap=32, proven_complete=True)"),
    "IsoResult": (
        lambda: iso_search(LINE, LINE),
        ("kind", "certificate", "witness", "trials_used", "deg_cap"),
        f"IsoResult(kind='iso', certificate={LINE_CERT}, witness=None, trials_used=0, "
        "deg_cap=32)"),
    "CoreDecomposition": (
        lambda: core(ONE),
        ("input", "core", "multiplicity", "certificate"),
        "CoreDecomposition(input=DiffModule(poly_dx, rank=1), core=DiffModule(poly_dx, "
        f"rank=0), multiplicity=1, certificate={LINE_CERT})"),
    "EqualityResult": (
        lambda: EqualityResult("unknown", None, "w"),
        ("kind", "certificate", "witness"),
        "EqualityResult(kind='unknown', certificate=None, witness='w')"),
    "PlannedModule": (
        lambda: random_planned_module(StableRng(1), 1, 1, 1, 0),
        ("module", "core_rank", "multiplicity", "plain"),
        "PlannedModule(module=DiffModule(poly_dx, rank=2), core_rank=1, multiplicity=1, "
        "plain=DiffModule(poly_dx, rank=2))"),
    "SuiteItem": (
        lambda: SuiteItem("name", False, 3),
        ("name", "passed", "cases", "detail"),
        "SuiteItem(name='name', passed=False, cases=3, detail='')"),
    "SimilarityCertificate": (
        lambda: rcf(TWO).certificate, ("transform", "inverse"), SIM_CERT),
    "FrobeniusForm": (
        lambda: rcf(TWO),
        ("form", "invariant_factors", "certificate"),
        "FrobeniusForm(form=RatMat(1x1, ['2']), invariant_factors=(Poly([Fraction(-2, 1), "
        f"Fraction(1, 1)]),), certificate={SIM_CERT})"),
    "SimilarityResult": (
        lambda: similar(TWO, TWO),
        ("similar", "certificate", "witness"),
        f"SimilarityResult(similar=True, certificate={SIM_CERT}, witness=None)"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_result_records_are_immutable_values(name):
    build, fields, pinned = RECORDS[name]
    record = build()
    cls = type(record)
    assert cls.__name__ == name and cls._fields == fields
    assert repr(record) == pinned
    # positional construction, and fields read by name or by position
    assert list(record) == [getattr(record, f) for f in fields]
    again = cls(*copy.deepcopy(tuple(record)))
    assert again is not record and again == record and hash(again) == hash(record)
    assert record == tuple(record) and build() == record
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_record_defaults_and_properties():
    assert SuiteItem("s", True, 2) == ("s", True, 2, "")
    hs = hom_space(LINE, LINE, 0)
    assert hs.dimension == len(hs.basis) == 1
    _, _, basis, cap, proven = hs
    assert basis == hs.basis and cap == 0 and not proven


def test_diff_module_checks_compares_and_is_immutable():
    assert repr(LINE) == "DiffModule(poly_dx, rank=1)"
    with pytest.raises(ShapeMismatch, match="rank 2 module needs a 2x2 matrix, got 1x1"):
        DiffModule(DiffRing.POLY_DX, 2, PolyMat(1, 1, [Poly([0])]))
    with pytest.raises(ValueError, match="rational-constants ring"):
        DiffModule(DiffRing.CONST_ZERO, 1, PolyMat(1, 1, [Poly([0, 1])]))
    twin = DiffModule(DiffRing.POLY_DX, 1, PolyMat(1, 1, [Poly([0, 1])]))
    assert twin is not LINE and twin == LINE and hash(twin) == hash(LINE)
    assert DiffModule(DiffRing.CONST_ZERO, 1, PolyMat(1, 1, [Poly([1])])) != \
        DiffModule(DiffRing.POLY_DX, 1, PolyMat(1, 1, [Poly([1])]))
    assert LINE != ONE and LINE != (LINE.ring, LINE.rank, LINE.matrix)
    assert len({LINE, twin, ONE}) == 2
    for name in ("ring", "rank", "matrix", "extra"):
        with pytest.raises(AttributeError):
            setattr(LINE, name, None)
    with pytest.raises(AttributeError):
        del LINE.rank
    assert LINE.rank == 1
    for clone in (copy.copy(LINE), copy.deepcopy(LINE), pickle.loads(pickle.dumps(LINE))):
        assert clone == LINE and repr(clone) == repr(LINE)


def test_class_entry_is_the_mutable_record():
    a, b = ClassEntry("a", LINE), ClassEntry("b", ONE, ["made"])
    assert (a.name, a.core, a.provenance) == ("a", LINE, [])
    assert b.provenance == ["made"]
    a.provenance.append("note")
    assert ClassEntry("c", LINE).provenance == []
    a.core = ONE
    assert a.core == ONE
