"""Class ledger: monoid laws, three-valued equality, persistence."""

from fractions import Fraction

import pytest

from diffmod.diffring import DiffRing, RingMismatch
from diffmod.exactalg import Poly, PolyMat
from diffmod.modules import DiffModule, trivial_module
from diffmod.monoid import ClassLedger


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def line(f) -> DiffModule:
    return DiffModule(DiffRing.POLY_DX, 1, PolyMat(1, 1, [f]))


@pytest.fixture
def ledger():
    led = ClassLedger(DiffRing.POLY_DX)
    led.class_of(line(P(1)), "unit")
    led.class_of(line(P(0, 1)), "slope")
    led.class_of(trivial_module(DiffRing.POLY_DX, 2), "zero")
    return led


def test_class_stores_core_representative(ledger):
    assert ledger["unit"].core.rank == 1
    assert ledger["zero"].core.rank == 0


def test_zero_class_detection(ledger):
    assert ledger.is_zero_class("zero")
    assert not ledger.is_zero_class("unit")


def test_units_are_exactly_the_zero_class(ledger):
    for name in ledger.names():
        assert ledger.is_invertible_class(name) == ledger.is_zero_class(name)


def test_invertibility_is_provenance_logged(ledger):
    ledger.is_invertible_class("unit")
    assert any("invertible" in note for note in ledger["unit"].provenance)


def test_addition_goes_through_cores(ledger):
    entry = ledger.add_classes("unit", "zero", "unit_plus_zero")
    assert entry.core.rank == 1  # the trivial part is projected away
    r = ledger.classes_equal("unit", "unit_plus_zero")
    assert r.kind == "equal"
    assert r.certificate is not None


def test_addition_commutative(ledger):
    ledger.add_classes("unit", "slope", "a")
    ledger.add_classes("slope", "unit", "b")
    assert ledger.classes_equal("a", "b").kind == "equal"


def test_distinct_classes_refuted(ledger):
    r = ledger.classes_equal("unit", "zero")
    assert r.kind == "not_equal"
    assert r.witness


def test_unknown_not_collapsed(ledger):
    # with zero trials the search cannot certify equality of distinct
    # representatives, and the verdict must stay unknown
    ledger.class_of(line(P(0, 1)), "slope2")
    r = ledger.classes_equal("slope", "slope2", trials=0)
    assert r.kind in ("equal", "unknown")  # never not_equal without a witness
    r2 = ledger.classes_equal("slope", "slope2")
    assert r2.kind == "equal"  # identical matrices: identity certificate


def test_const_zero_classes_decided_by_similarity():
    # J2(1) and I2 agree on hom dimensions and constants; only their
    # invariant factors differ, and that proof makes the verdict definite
    led = ClassLedger(DiffRing.CONST_ZERO)
    led.class_of(DiffModule(DiffRing.CONST_ZERO, 2,
                            PolyMat(2, 2, [P(1), P(1), P(0), P(1)])), "jordan")
    led.class_of(DiffModule(DiffRing.CONST_ZERO, 2, PolyMat.identity(2)), "eye")
    r = led.classes_equal("jordan", "eye")
    assert r.kind == "not_equal"
    assert "invariant factors differ" in r.witness


def test_duplicate_names_rejected(ledger):
    with pytest.raises(ValueError):
        ledger.class_of(line(P(1)), "unit")


def test_missing_names_raise(ledger):
    with pytest.raises(KeyError):
        ledger.classes_equal("unit", "ghost")


def test_ring_mismatch_rejected(ledger):
    with pytest.raises(RingMismatch):
        ledger.class_of(DiffModule(DiffRing.CONST_ZERO, 1,
                                   PolyMat(1, 1, [P(1)])), "other_ring")


def test_provenance_appended_by_operations(ledger):
    before = len(ledger["unit"].provenance)
    ledger.classes_equal("unit", "slope")
    assert len(ledger["unit"].provenance) > before


def test_round_trip_through_json(tmp_path, ledger):
    ledger.add_classes("unit", "slope", "sum")
    path = tmp_path / "ledger.json"
    ledger.save(path)
    loaded = ClassLedger.load(path)
    assert set(loaded.names()) == set(ledger.names())
    for name in ledger.names():
        assert loaded[name].core == ledger[name].core
        assert loaded[name].provenance == ledger[name].provenance
    assert loaded.deg_cap == ledger.deg_cap
    assert loaded.classes_equal("unit", "sum").kind == "not_equal"
