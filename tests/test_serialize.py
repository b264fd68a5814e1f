"""Serialization grammar: bit-exact round trips and strict rejection."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmod.diffring import DiffRing
from diffmod.exactalg import Poly, PolyMat
from diffmod.modules import identity_certificate, scramble, trivial_module
from diffmod.serialize import (MAX_DIGITS, ParseError, canonical_dumps,
                               certificate_from_json, certificate_to_json,
                               load_module, module_from_json, module_to_json,
                               poly_from_json, poly_to_json, polymat_from_json,
                               polymat_to_json, rat_from_str, rat_to_str,
                               save_json)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=999)


@given(rationals)
@settings(max_examples=80, deadline=None)
def test_rational_string_round_trip(r):
    assert rat_from_str(rat_to_str(r)) == r


def test_rational_string_forms():
    assert rat_to_str(Fraction(3)) == "3"
    assert rat_to_str(Fraction(-3, 7)) == "-3/7"
    assert rat_from_str("4/6") == Fraction(2, 3)  # normalized on parse


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/-2", "1.5", "+3", " 2",
                                 "2 ", "3//4", None, 7])
def test_rational_string_rejects_garbage(bad):
    with pytest.raises(ParseError):
        rat_from_str(bad)


def test_rationals_of_any_size_are_written_and_read_within_the_limit():
    # int's str limit (4300 digits by default, settable down to 640) plays
    # no part: the writer prints any size, the parser has its own limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(640)
    try:
        big = Fraction(1 - 10 ** MAX_DIGITS, 2 ** 33000)  # a 9934-digit denominator
        s = rat_to_str(big)
        assert s.startswith(f"-{'9' * MAX_DIGITS}/") and len(s) == MAX_DIGITS + 9936
        assert rat_from_str(s) == big
        huge = rat_to_str(Fraction(10 ** (MAX_DIGITS + 5)))
        assert huge == "1" + "0" * (MAX_DIGITS + 5)
        with pytest.raises(ParseError, match=f"bad rational of {MAX_DIGITS + 6} digits "
                                             f"\\(the limit is {MAX_DIGITS}\\)"):
            rat_from_str(huge)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", ["\u0661", "\u0663/\u0664", "1/\u0662", "\uff11\uff12", "-\u0967"])
def test_rational_digits_are_ascii(digits):
    # str.isdigit and the regex \d accept these; int() reads them as numbers
    with pytest.raises(ParseError, match="bad rational"):
        rat_from_str(digits)


@given(st.lists(rationals, max_size=6))
@settings(max_examples=60, deadline=None)
def test_poly_round_trip(coeffs):
    p = Poly(coeffs)
    assert poly_from_json(poly_to_json(p)) == p


def test_poly_json_is_ascending_coefficients():
    p = Poly([Fraction(1), Fraction(0), Fraction(-2)])  # -2x^2 + 1
    assert poly_to_json(p) == ["1", "0", "-2"]
    assert poly_to_json(Poly.zero()) == []


def test_poly_json_rejects_non_lists():
    with pytest.raises(ParseError):
        poly_from_json("x^2")
    with pytest.raises(ParseError):
        poly_from_json({"coeffs": []})


def test_polymat_round_trip():
    M = PolyMat(2, 3, [Poly([i, j]) for i in range(2) for j in range(3)])
    assert polymat_from_json(polymat_to_json(M)) == M


def test_polymat_shape_enforcement():
    obj = [[["1"], ["0"]], [["0"]]]
    with pytest.raises(ParseError):
        polymat_from_json(obj)
    with pytest.raises(ParseError):
        polymat_from_json([[["1"]]], rows=2, cols=1)


def test_module_round_trip_both_rings():
    for ring, entry in ((DiffRing.POLY_DX, Poly([0, 1])),
                        (DiffRing.CONST_ZERO, Poly([5]))):
        from diffmod.modules import DiffModule
        M = DiffModule(ring, 1, PolyMat(1, 1, [entry]))
        assert module_from_json(module_to_json(M)) == M


def test_module_json_rejects_bad_ring_and_rank():
    with pytest.raises(ParseError):
        module_from_json({"ring": "weyl", "rank": 1, "matrix": [[["0"]]]})
    with pytest.raises(ParseError):
        module_from_json({"ring": "poly_dx", "rank": 2, "matrix": [[["0"]]]})
    with pytest.raises(ParseError):
        module_from_json({"ring": "const_zero", "rank": 1,
                          "matrix": [[["0", "1"]]]})  # nonconstant entry


def test_certificate_round_trip_reverifies():
    base = trivial_module(DiffRing.POLY_DX, 2)
    twisted, cert = scramble(base, seed=3)
    obj = certificate_to_json(cert)
    back = certificate_from_json(obj)
    assert back.forward == cert.forward
    assert back.backward == cert.backward
    # corrupt the forward matrix: verification must fail on parse
    obj_bad = dict(obj)
    obj_bad["forward"] = polymat_to_json(PolyMat.identity(2).scale(Poly([7])))
    with pytest.raises(ParseError):
        certificate_from_json(obj_bad)


def test_identity_certificate_round_trip():
    cert = identity_certificate(trivial_module(DiffRing.POLY_DX, 1))
    assert certificate_from_json(certificate_to_json(cert)).forward == \
        cert.forward


def test_canonical_dumps_is_stable():
    obj = {"b": [Fraction(1, 2).__str__()], "a": 3}
    s1 = canonical_dumps(obj)
    s2 = canonical_dumps({"a": 3, "b": ["1/2"]})
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"')


def test_load_module_file(tmp_path):
    M = trivial_module(DiffRing.POLY_DX, 2)
    path = tmp_path / "mod.json"
    save_json(path, module_to_json(M))
    assert load_module(path) == M


def test_load_module_diagnoses_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"ring": ')
    with pytest.raises(ParseError):
        load_module(path)
