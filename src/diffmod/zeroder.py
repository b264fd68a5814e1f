"""Zero-derivation backend: over the rational-constants ring a differential
structure is just a linear endomorphism, differential homomorphisms are
intertwiners, and isomorphism is matrix similarity.  Similarity is decided
completely via the rational canonical (Frobenius) form, with an explicit
change-of-basis certificate; cancellation of padded zero blocks between
identity-structured summands falls out of the eigenspace decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import Poly, PolyMat, RatMat, ShapeMismatch, _smith_eliminate


class NotIntertwining(Exception):
    """The given map does not intertwine the two structures."""


class BlockNotInvertible(Exception):
    """The block that should carry an isomorphism is singular — the input
    was not a genuine isomorphism of the padded structures."""


@dataclass(frozen=True)
class SimilarityCertificate:
    """transform @ A @ inverse == B and transform @ inverse == I, proved
    exactly before the certificate leaves this module."""
    transform: RatMat
    inverse: RatMat


def _check_certificate(A: RatMat, B: RatMat, cert: SimilarityCertificate):
    n = A.rows
    if cert.transform @ cert.inverse != RatMat.identity(n):
        raise ArithmeticError("similarity transform and inverse do not compose to identity")
    if cert.transform @ A @ cert.inverse != B:
        raise ArithmeticError("similarity certificate fails transform @ A @ inverse == B")


def companion(f: Poly) -> RatMat:
    """Companion matrix of a monic polynomial of degree >= 1."""
    m = f.degree
    if m is None or m < 1 or f.lc() != 1:
        raise ValueError(f"companion matrix needs a monic nonconstant polynomial, got {f}")
    ents = []
    for i in range(m):
        for j in range(m):
            if j == m - 1:
                ents.append(-f.coeff(i))
            elif i == j + 1:
                ents.append(Fraction(1))
            else:
                ents.append(Fraction(0))
    return RatMat(m, m, ents)


@dataclass(frozen=True)
class FrobeniusForm:
    """Companion-block diagonal form with invariant factors in divisibility
    order, plus the certified change of basis to it."""
    form: RatMat
    invariant_factors: tuple  # monic nonconstant Polys, each dividing the next
    certificate: SimilarityCertificate


def _eval_column(A: RatMat, column) -> RatMat:
    """sum_j column[j](A) e_j for polynomials column[j], by Horner's rule on
    vectors: no power of A is formed."""
    n = A.rows
    g = RatMat.zeros(n, 1)
    for d in range(max(len(p.coeffs) for p in column) - 1, -1, -1):
        g = A @ g + RatMat(n, 1, [p.coeff(d) for p in column])
    return g


def rcf(A: RatMat) -> FrobeniusForm:
    """Rational canonical form with a verified similarity certificate.

    The invariant factors are read off the Smith normal form of xI - A over
    Q[x]; generators of the cyclic pieces come from the columns of U^{-1}
    evaluated at A, and their Krylov iterates assemble the new basis.

    The Smith elimination tracks only D and U^{-1} and checks neither: the
    proof is the final check, P^{-1} P = I and P^{-1} A P equal to the block
    diagonal of the companion matrices of factors that form a divisibility
    chain.  That block diagonal is a Frobenius form of A, and the Frobenius
    form is unique, so the check pins the invariant factors; a wrong D or
    U^{-1} can only raise ArithmeticError, never return a wrong form."""
    if A.rows != A.cols:
        raise ShapeMismatch("rational canonical form of a non-square matrix")
    n = A.rows
    if n == 0:
        cert = SimilarityCertificate(RatMat.identity(0), RatMat.identity(0))
        return FrobeniusForm(A, (), cert)
    x_minus_a = PolyMat(n, n, [
        Poly([-A.entry(i, j), 1]) if i == j else Poly([-A.entry(i, j)])
        for i in range(n) for j in range(n)
    ])
    D, _, uinv, _, _ = _smith_eliminate(x_minus_a, track=("Uinv",))
    factors = [D[i][i] for i in range(n)]
    if any(f.is_zero() or f.lc() != 1 for f in factors):
        raise ArithmeticError("Smith form of xI - A must have a monic nonzero diagonal")
    nonunit = [f for f in factors if f.degree >= 1]
    for a, b in zip(nonunit, nonunit[1:]):
        if not (b % a).is_zero():
            raise ArithmeticError("invariant factors out of divisibility order")
    # generator of the i-th cyclic summand: column i of U^{-1} evaluated at A
    basis_cols = []
    for i, f in enumerate(factors):
        if f.degree < 1:
            continue
        vec = _eval_column(A, [row[i] for row in uinv])
        for _ in range(f.degree):
            basis_cols.append(vec)
            vec = A @ vec
    if len(basis_cols) != n:
        raise ArithmeticError("cyclic generators did not span")
    P = RatMat(n, n, [basis_cols[j].entry(i, 0) for i in range(n) for j in range(n)])
    form = RatMat(0, 0, [])
    for f in nonunit:
        form = RatMat.block_diag(form, companion(f))
    cert = SimilarityCertificate(P.inverse(), P)
    _check_certificate(A, form, cert)
    return FrobeniusForm(form, tuple(nonunit), cert)


@dataclass(frozen=True)
class SimilarityResult:
    similar: bool
    certificate: Optional[SimilarityCertificate]
    witness: Optional[str]


def similar(A: RatMat, B: RatMat) -> SimilarityResult:
    """Complete decision of similarity over Q, by comparing rational
    canonical forms; a positive answer carries a transform composed from
    the two checked rcf certificates, which proves it."""
    if A.rows != A.cols or B.rows != B.cols:
        raise ShapeMismatch("similarity needs square matrices")
    if A.rows != B.rows:
        return SimilarityResult(False, None, f"size {A.rows} != {B.rows}")
    fa = rcf(A)
    fb = rcf(B)
    if fa.invariant_factors != fb.invariant_factors:
        return SimilarityResult(
            False, None,
            f"invariant factors differ: {[str(f) for f in fa.invariant_factors]} "
            f"vs {[str(f) for f in fb.invariant_factors]}")
    # A -> form -> B.  rcf has checked Pa^{-1} Pa = I, Pb^{-1} Pb = I (so
    # also Pb Pb^{-1} = I, the matrices being square) and
    # Pa^{-1} A Pa = F = Pb^{-1} B Pb, F being built from the equal factors.
    # So T = Pb Pa^{-1} and T^{-1} = Pa Pb^{-1} satisfy T T^{-1} = I and
    # T A T^{-1} = Pb F Pb^{-1} = B: the composite needs no second check.
    transform = fb.certificate.inverse @ fa.certificate.transform
    inverse = fa.certificate.inverse @ fb.certificate.transform
    return SimilarityResult(True, SimilarityCertificate(transform, inverse), None)


def _padded(I_size: int, zero_size: int) -> RatMat:
    return RatMat.block_diag(RatMat.identity(I_size), RatMat.zeros(zero_size, zero_size))


def cancel_zero_derivation(a: int, b: int, m: int, f: RatMat) -> SimilarityCertificate:
    """Cancel the zero-structured padding: f is an invertible map intertwining
    diag(I_b, 0_m) -> diag(I_a, 0_m); eigenspace separation forces it to be
    block diagonal, so a == b and the upper-left a x b block is itself an
    isomorphism between the identity-structured parts (the quotient by the
    constants).  Returns that block as a verified certificate.

    Raises NotIntertwining when f fails the intertwining identity and
    BlockNotInvertible when a relevant block is singular (impossible for a
    genuine isomorphism)."""
    if min(a, b, m) < 0:
        raise ValueError("block sizes must be nonnegative")
    if f.rows != a + m or f.cols != b + m:
        raise ShapeMismatch(f"expected a {a + m}x{b + m} matrix, got {f.rows}x{f.cols}")
    src = _padded(b, m)
    tgt = _padded(a, m)
    if f @ src != tgt @ f:
        raise NotIntertwining("f does not intertwine the padded structures")
    if a != b:
        # intertwiners are block diagonal, so an invertible one needs a == b
        raise BlockNotInvertible(f"no invertible intertwiner exists for a={a}, b={b}")
    if f.determinant() == 0:
        raise BlockNotInvertible("f is singular")
    top = f.submatrix(0, a, 0, b)
    if top.determinant() == 0:
        raise BlockNotInvertible("upper-left block is singular")
    cert = SimilarityCertificate(top, top.inverse())
    if cert.transform @ cert.inverse != RatMat.identity(a):
        raise ArithmeticError("certificate inverse check failed")
    return cert


def padded_cancellation_check(A: RatMat, B: RatMat, m: int) -> bool:
    """Whether similar(A + 0_m, B + 0_m) and similar(A, B) agree.  They must:
    padding both sides by the same zero block multiplies the invariant factor
    list by the same x-powers."""
    direct = similar(A, B).similar
    padded = similar(RatMat.block_diag(A, RatMat.zeros(m, m)),
                     RatMat.block_diag(B, RatMat.zeros(m, m))).similar
    return direct == padded
