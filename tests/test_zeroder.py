"""Zero-derivation backend: canonical forms, similarity, block cancellation."""

import hashlib
from fractions import Fraction

import pytest

from diffmod.exactalg import Poly, PolyMat, RatMat, ShapeMismatch, smith_normal_form_with_inverses
from diffmod.suite import random_ratmat, random_similar_pair
from diffmod.rng import StableRng
from diffmod import zeroder
from diffmod.zeroder import (BlockNotInvertible, NotIntertwining,
                             cancel_zero_derivation, companion,
                             padded_cancellation_check, rcf, similar)


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def M(n, *entries):
    return RatMat(n, n, [Fraction(e) for e in entries])


# ---------------------------------------------------------------------------
# companion matrices and rcf
# ---------------------------------------------------------------------------

def test_companion_of_quadratic():
    # x^2 - 3x + 2 -> [[0, -2], [1, 3]]
    C = companion(P(2, -3, 1))
    assert C == M(2, 0, -2, 1, 3)


def test_companion_requires_monic_nonconstant():
    with pytest.raises(ValueError):
        companion(P(1))
    with pytest.raises(ValueError):
        companion(P(0, 2))


def test_rcf_of_nilpotent_jordan_block():
    f = rcf(M(2, 0, 1, 0, 0))
    assert [str(p) for p in f.invariant_factors] == ["x^2"]
    assert f.form == M(2, 0, 0, 1, 0)


def test_rcf_of_zero_matrix():
    f = rcf(RatMat.zeros(2, 2))
    assert [str(p) for p in f.invariant_factors] == ["x", "x"]
    assert f.form == RatMat.zeros(2, 2)


def test_rcf_of_distinct_eigenvalues_is_one_block():
    f = rcf(M(2, 1, 0, 0, 2))
    # single companion block of (x-1)(x-2) = x^2 - 3x + 2
    assert [str(p) for p in f.invariant_factors] == ["x^2 - 3*x + 2"]
    assert f.form == M(2, 0, -2, 1, 3)


def test_rcf_certificate_verified():
    A = M(3, 1, 1, 0, 0, 1, 0, 0, 0, 2)
    f = rcf(A)
    assert f.certificate.transform @ A @ f.certificate.inverse == f.form
    assert f.certificate.transform @ f.certificate.inverse == RatMat.identity(3)


def test_rcf_divisibility_chain():
    A = RatMat.block_diag(M(1, 3), M(2, 3, 1, 0, 3))
    f = rcf(A)
    # [3] and a Jordan block of 3: x - 3 divides (x - 3)**2
    assert f.invariant_factors == (P(-3, 1), P(9, -6, 1))


def test_rcf_is_a_canonical_form():
    rng = StableRng(4)
    for _ in range(6):
        n = rng.randint(1, 4)
        A, B, _ = random_similar_pair(rng, n)
        assert rcf(A).form == rcf(B).form
        assert rcf(rcf(A).form).form == rcf(A).form


# ---------------------------------------------------------------------------
# similarity decision
# ---------------------------------------------------------------------------

def test_similar_accepts_conjugates():
    r = similar(M(2, 1, 0, 0, 2), M(2, 1, 1, 0, 2))
    assert r.similar
    assert r.certificate is not None


def test_similar_rejects_different_invariant_factors():
    r = similar(M(2, 0, 1, 0, 0), RatMat.zeros(2, 2))
    assert not r.similar
    assert "invariant factors" in r.witness


def test_similar_is_complete_on_seeded_pairs():
    rng = StableRng(15)
    for _ in range(8):
        n = rng.randint(1, 4)
        A, B, S = random_similar_pair(rng, n)
        r = similar(A, B)
        assert r.similar
        assert r.certificate.transform @ A @ r.certificate.inverse == B


def test_similar_shape_handling():
    with pytest.raises(ShapeMismatch):
        similar(RatMat(1, 2, [0, 0]), RatMat(1, 2, [0, 0]))
    # different sizes are a definitive negative, not an error
    r = similar(RatMat.zeros(2, 2), RatMat.zeros(3, 3))
    assert not r.similar
    assert "size" in r.witness


# ---------------------------------------------------------------------------
# cancellation of identity-padded blocks
# ---------------------------------------------------------------------------

def test_cancel_extracts_upper_left_block():
    f = RatMat.block_diag(M(1, 3), M(2, 1, 0, 0, 1))
    cert = cancel_zero_derivation(1, 1, 2, f)
    assert cert.transform == M(1, 3)
    assert cert.transform @ cert.inverse == RatMat.identity(1)


def test_cancel_rejects_non_block_diagonal():
    f = M(2, 1, 1, 0, 1)  # off-diagonal coupling
    with pytest.raises(NotIntertwining):
        cancel_zero_derivation(1, 1, 1, f)


def test_cancel_rejects_singular_block():
    f = RatMat.block_diag(RatMat.zeros(1, 1), M(1, 1))
    with pytest.raises(BlockNotInvertible):
        cancel_zero_derivation(1, 1, 1, f)


def test_cancel_reports_a_singular_upper_left_block():
    f = RatMat.block_diag(RatMat.zeros(1, 1), M(1, 1))
    with pytest.raises(BlockNotInvertible, match="upper-left block is singular"):
        cancel_zero_derivation(1, 1, 1, f)


def test_cancel_reports_a_singular_lower_right_block():
    f = RatMat.block_diag(M(1, 1), RatMat.zeros(1, 1))
    with pytest.raises(BlockNotInvertible, match="f is singular"):
        cancel_zero_derivation(1, 1, 1, f)


def test_cancel_shape_guard():
    with pytest.raises(ShapeMismatch):
        cancel_zero_derivation(2, 1, 1, M(2, 1, 0, 0, 1))


def test_padded_check_agreement_on_seeded_pairs():
    rng = StableRng(8)
    for _ in range(10):
        n = rng.randint(1, 3)
        A = random_ratmat(rng, n, n)
        B = random_ratmat(rng, n, n)
        assert padded_cancellation_check(A, B, rng.randint(1, 3))
        A2, B2, _ = random_similar_pair(rng, n)
        assert padded_cancellation_check(A2, B2, 2)


# ---------------------------------------------------------------------------
# rcf against an independent oracle: the Smith form of xI - A over Q[x]
# ---------------------------------------------------------------------------

def _smith_factors(A):
    n = A.rows
    x_minus_a = PolyMat(n, n, [
        Poly([-A.entry(i, j), 1]) if i == j else Poly([-A.entry(i, j)])
        for i in range(n) for j in range(n)])
    D = smith_normal_form_with_inverses(x_minus_a)[1]
    return [D.entry(i, i) for i in range(n) if D.entry(i, i).degree >= 1]


def _assert_matches_smith(A):
    f = rcf(A)
    assert list(f.invariant_factors) == _smith_factors(A)
    assert f.certificate.transform @ A @ f.certificate.inverse == f.form


def test_rcf_invariant_factors_match_smith_form():
    rng = StableRng(61)
    for n in range(1, 9):
        for _ in range(2):
            _assert_matches_smith(random_ratmat(rng, n, n, 3))


_J = M(2, 2, 1, 0, 2)
_C = companion(P(1, 0, 1))  # x^2 + 1, irreducible over Q
_A4 = random_ratmat(StableRng(62), 4, 4, 2)
_bd = RatMat.block_diag


@pytest.mark.parametrize("A", [
    RatMat.zeros(8, 8),
    RatMat.identity(8),
    _bd(_bd(_J, _J), _J),
    _bd(_bd(_bd(_C, _C), _C), RatMat.zeros(2, 2)),
    _bd(_A4, _A4),
], ids=["zero", "identity", "jordan3", "companion3_zero", "a_plus_a"])
def test_rcf_matches_smith_form_on_derogatory_inputs(A):
    _assert_matches_smith(A)


def test_rcf_is_deterministic():
    A = random_ratmat(StableRng(63), 6, 6)
    first, second = rcf(A), rcf(A)
    assert first.certificate.transform == second.certificate.transform
    assert first.certificate.inverse == second.certificate.inverse


# ---------------------------------------------------------------------------
# the final check, not the Krylov decomposition, proves rcf's answer
# ---------------------------------------------------------------------------

def test_certificate_check_rejects_perturbed_transform_and_wrong_form():
    A = random_ratmat(StableRng(64), 4, 4)
    f = rcf(A)
    zeroder._check_certificate(A, f.form, f.certificate)
    rows = f.certificate.transform.to_rows()
    rows[1][2] += Fraction(1, 7)
    perturbed = zeroder.SimilarityCertificate(RatMat.from_rows(rows), f.certificate.inverse)
    with pytest.raises(ArithmeticError, match="identity"):
        zeroder._check_certificate(A, f.form, perturbed)
    rows = f.form.to_rows()
    rows[0][0] += 1
    with pytest.raises(ArithmeticError, match="transform @ A @ inverse"):
        zeroder._check_certificate(A, RatMat.from_rows(rows), f.certificate)


def _unit(i):
    return ([1 if j == i else 0 for j in range(2)], 1)


@pytest.mark.parametrize("groups, reason", [
    # x - 2, x - 1 with the unit vectors reproduce A itself as companion
    # blocks; only the divisibility chain rules them out
    ([(P(-1, 1), [_unit(0)]), (P(-2, 1), [_unit(1)])], "divisibility"),
    # right degree, wrong factor: the form check fails
    ([(P(1, -3, 1), [([1, 1], 1), ([1, 2], 1)])], "certificate"),
    # right factor, dependent generators: P is singular
    ([(P(2, -3, 1), [_unit(0), _unit(0)])], "singular"),
], ids=["chain", "form", "generators"])
def test_rcf_rejects_a_wrong_krylov_decomposition(monkeypatch, groups, reason):
    A = M(2, 1, 0, 0, 2)
    assert [str(p) for p in rcf(A).invariant_factors] == ["x^2 - 3*x + 2"]
    monkeypatch.setattr(zeroder, "_krylov_decomposition",
                        lambda Bi, b, rng, bound: list(groups))
    with pytest.raises(ArithmeticError, match=reason):
        rcf(A)
    with pytest.raises(ArithmeticError, match=reason):
        similar(A, M(2, 1, 1, 0, 2))


# ---------------------------------------------------------------------------
# rcf and similar are pinned byte for byte, and tied to each other
# ---------------------------------------------------------------------------

def _mat_repr(M):
    return M.rows, M.cols, [str(e) for e in M.entries]


def zeroder_digest_jobs():
    """Seeded (A, B) pairs for n = 0..8, rational entries: a similar pair, a
    random (almost always not similar) pair, and the similar pair padded by
    a 2 x 2 zero block."""
    rng = StableRng(71)
    pad = RatMat.zeros(2, 2)
    for n in range(9):
        for _ in range(2):
            A, B, _ = random_similar_pair(rng, n)
            den = rng.randint(1, 4)
            A, B = (RatMat(n, n, [e / den for e in X.entries]) for X in (A, B))
            yield A, B
            yield A, random_ratmat(rng, n, n)
            yield RatMat.block_diag(A, pad), RatMat.block_diag(B, pad)


def zeroder_digest(jobs):
    """sha256 of rcf's (factors, form, transform, inverse) on both sides of
    each job and of similar's (verdict, witness, certificate) on the pair."""
    h = hashlib.sha256()
    for A, B in jobs:
        for X in (A, B):
            f = rcf(X)
            h.update(repr(([str(p) for p in f.invariant_factors], _mat_repr(f.form),
                           _mat_repr(f.certificate.transform),
                           _mat_repr(f.certificate.inverse))).encode())
        r = similar(A, B)
        c = r.certificate
        h.update(repr((r.similar, r.witness, None if c is None else
                       (_mat_repr(c.transform), _mat_repr(c.inverse)))).encode())
    return h.hexdigest()


def test_rcf_and_similar_match_the_golden_digest():
    # recorded with the RatMat path (P inverted by RatMat.inverse, the
    # certificates cleared and checked after the fact): every later
    # decomposition must reproduce it byte for byte
    assert zeroder_digest(zeroder_digest_jobs()) == \
        "4e69ff63400041947b764eb3b7a59897143659e31e8a0790fe5add5144589c94"


def test_similar_composes_the_two_rcf_certificates():
    for A, B in zeroder_digest_jobs():
        fa, fb = rcf(A), rcf(B)
        for X, f in ((A, fa), (B, fb)):
            zeroder._check_certificate(X, f.form, f.certificate)
        r = similar(A, B)
        assert r.similar == (fa.invariant_factors == fb.invariant_factors)
        if r.similar:
            assert r.certificate.transform == \
                fb.certificate.inverse @ fa.certificate.transform
            assert r.certificate.inverse == \
                fa.certificate.inverse @ fb.certificate.transform
