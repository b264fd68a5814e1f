"""Zero-derivation backend: over the rational-constants ring a differential
structure is just a linear endomorphism, differential homomorphisms are
intertwiners, and isomorphism is matrix similarity.  Similarity is decided
completely via the rational canonical (Frobenius) form, with an explicit
change-of-basis certificate; cancellation of padded zero blocks between
identity-structured summands falls out of the eigenspace decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .exactalg import (Poly, RatMat, ShapeMismatch, _echelon_kernel, _int_gauss_jordan,
                       _int_matmul, _int_row)
from .rng import StableRng

# rcf's vector draws: a fixed seed, so transforms replay bit-exactly; nonzero
# entries from [-_RCF_BOUND, _RCF_BOUND], the range doubling on each retry
_RCF_SEED = 0x5EED
_RCF_BOUND = 4
_RCF_ATTEMPTS = 32


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


def _cleared(M: RatMat):
    """M as (integer rows, den) with M == rows / den, den the lcm of the
    entries' denominators."""
    ints, den = _int_row(M.entries)
    return [ints[i * M.cols:(i + 1) * M.cols] for i in range(M.rows)], den


def _from_cleared(rows, den) -> RatMat:
    """The square matrix rows / den."""
    return RatMat(len(rows), len(rows), [Fraction(v, den) for row in rows for v in row])


def _check_cleared(T, t, U, u, Ai, a, Bi, b):
    """T/t @ U/u == I and T/t @ Ai/a @ U/u == Bi/b, by integer products.  U
    is square, so once T U = I also U T = I, and T A U = B is checked as
    A U = U B: two products with U, none with T."""
    n = len(U)
    if _int_matmul(T, U) != [[t * u if i == j else 0 for j in range(n)] for i in range(n)]:
        raise ArithmeticError("similarity transform and inverse do not compose to identity")
    if [[b * v for v in row] for row in _int_matmul(Ai, U)] != \
            [[a * v for v in row] for row in _int_matmul(U, Bi)]:
        raise ArithmeticError("similarity certificate fails transform @ A @ inverse == B")


def _check_certificate(A: RatMat, B: RatMat, cert: SimilarityCertificate):
    """transform @ inverse == I and transform @ A @ inverse == B, checked by
    integer products of the denominator-cleared matrices."""
    _check_cleared(*_cleared(cert.transform), *_cleared(cert.inverse), *_cleared(A), *_cleared(B))


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


def _apply(M, v):
    return [sum(map(mul, row, v)) for row in M]


def _krylov_decomposition(Bi, b, rng: StableRng, bound: int):
    """Cyclic decomposition of B = Bi / b, Bi an integer matrix, from
    Krylov sequences of vectors with nonzero entries drawn from
    [-bound, bound].

    Returns a list of (f, columns), largest invariant factor first: columns
    are v, Bv, ..., B^{d-1} v as (integer vector, denominator) pairs, f is
    the minimal polynomial of v, and the columns of all groups together are
    a basis.  Returns None when the draw was unlucky: then no group is
    wrong, only the attempt is given up.

    v's minimal polynomial f (degree d) is the first dependency of its
    Krylov columns.  For a dual vector w, the kernel of the rows w, wB, ...,
    wB^{d-1} is B-invariant when f(B) = 0 and meets the span of v's Krylov
    columns only in 0 when the Hankel matrix of w B^{i+j} v is nonsingular;
    B restricted to that kernel gives the next groups.  Both conditions,
    and that the next factor divides f, are tested here."""
    m = len(Bi)
    v = [rng.nonzero_int(bound) for _ in range(m)]
    krylov = [v]
    for _ in range(m):
        krylov.append(_apply(Bi, krylov[-1]))
    red, pivots, dd, _ = _int_gauss_jordan([list(r) for r in zip(*krylov)], m + 1)
    d = len(pivots)  # v != 0, so d >= 1
    # krylov[k] = b^k B^k v and krylov[d] = sum_k red[k][d] / dd krylov[k]
    f = Poly([Fraction(-red[k][d], dd * b ** (d - k)) for k in range(d)] + [1])
    group = (f, [(krylov[k], b ** k) for k in range(d)])
    if d == m:
        return [group]
    duals = [[rng.nonzero_int(bound) for _ in range(m)]]
    Bt = list(zip(*Bi))
    for _ in range(d - 1):
        duals.append(_apply(Bt, duals[-1]))
    hankel = [[sum(map(mul, r, k)) for k in krylov[:d]] for r in duals]
    if len(_int_gauss_jordan(hankel, d)[1]) < d:
        return None
    red, pivots, dd, _ = _int_gauss_jordan(duals, m)
    kernel = _echelon_kernel(red, pivots, dd, m)
    # kernel[j] is zero at every free column except its own, free[j]: so
    # B kernel[j] = sum_i kernel[i] X[i][j] fixes X by the rows at free
    # columns, and the other rows check the invariance
    free = [c for c in range(m) if c not in pivots]
    N = list(zip(*kernel))
    images = [_apply(Bi, x) for x in kernel]
    scale = math.lcm(*(x[c] for x, c in zip(kernel, free)))
    X = [[y[c] * (scale // x[c]) for y in images] for x, c in zip(kernel, free)]
    if _int_matmul(N, X) != [[scale * e for e in row] for row in zip(*images)]:
        return None
    g = math.gcd(scale * b, *(e for row in X for e in row))
    rest = _krylov_decomposition([[e // g for e in row] for row in X], scale * b // g,
                                 rng, bound)
    if rest is None or not (f % rest[0][0]).is_zero():
        return None
    lifted = [(h, [(_apply(N, c), den) for c, den in cols]) for h, cols in rest]
    return [group] + lifted


def _frobenius(A: RatMat):
    """(factors, F, P, P^{-1}) for a square A, the matrices as (integer
    rows, den): the invariant factors, the block diagonal F of their
    companion matrices and the Krylov basis P.  The draws need no proof:
    after the factor checks P is inverted by one elimination of [P | I], and
    P^{-1} P = I, P^{-1} A P = F are checked in integers.  The Frobenius
    form is unique, so a wrong decomposition can only raise ArithmeticError."""
    n = A.rows
    if n == 0:
        return (), ([], 1), ([], 1), ([], 1)
    Ai, a = _cleared(A)
    rng = StableRng(_RCF_SEED)
    for attempt in range(_RCF_ATTEMPTS):
        groups = _krylov_decomposition(Ai, a, rng, _RCF_BOUND << attempt)
        if groups is not None:
            break
    else:
        raise ArithmeticError(f"no cyclic decomposition found in {_RCF_ATTEMPTS} draws")
    groups.reverse()
    factors = tuple(f for f, _ in groups)
    if any(f.degree is None or f.degree < 1 or f.lc() != 1 for f in factors):
        raise ArithmeticError("invariant factors must be monic and nonconstant")
    if any(not (g % f).is_zero() for f, g in zip(factors, factors[1:])):
        raise ArithmeticError("invariant factors out of divisibility order")
    columns = [c for _, cols in groups for c in cols]
    if len(columns) != n:
        raise ArithmeticError("cyclic generators did not span")
    p = math.lcm(*(den for _, den in columns))
    P = [[vec[i] * (p // den) for vec, den in columns] for i in range(n)]
    m, pivots, d, _ = _int_gauss_jordan(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(P)], n)
    if len(pivots) < n:
        raise ArithmeticError("cyclic generators are dependent: P is singular")
    Q = [row[n:] for row in m]  # Q P = d I, so (P / p)^{-1} = p Q / d
    f = math.lcm(*(c.denominator for g in factors for c in g.coeffs))
    F, o = [[0] * n for _ in range(n)], 0
    for g in factors:  # the companion block of g at rows and columns o, o+1, ...
        k = g.degree
        for i in range(k):
            F[o + i][o + k - 1] = -g.coeffs[i].numerator * (f // g.coeffs[i].denominator)
            if i:
                F[o + i][o + i - 1] = f
        o += k
    _check_cleared(Q, d, P, 1, Ai, a, F, f)
    return factors, (F, f), (P, p), ([[p * v for v in row] for row in Q], d)


def rcf(A: RatMat) -> FrobeniusForm:
    """Rational canonical form with a verified similarity certificate.

    The cyclic decomposition comes from Krylov sequences in integer
    arithmetic (Storjohann, ISSAC 1998; Augot and Camion, Linear Algebra
    Appl. 260, 1997): a vector v of maximal local minimal polynomial f
    spans a cyclic summand, the kernel of the rows w, wA, ..., wA^{deg f - 1}
    of a dual vector w is an A-invariant complement, and the restriction of
    A to that complement is decomposed in turn (see _krylov_decomposition).
    Vectors come from a StableRng with a seed fixed here, so the transform
    replays bit-exactly; an unlucky draw is retried with fresh vectors from
    a range twice as wide.

    Every identity is checked once, in _frobenius: the factors' chain, then
    P^{-1} P = I and A P = P form (so P^{-1} A P = form) by integer
    products; rcf only turns the checked matrices into RatMats."""
    if A.rows != A.cols:
        raise ShapeMismatch("rational canonical form of a non-square matrix")
    factors, form, P, Pinv = _frobenius(A)
    cert = SimilarityCertificate(_from_cleared(*Pinv), _from_cleared(*P))
    return FrobeniusForm(_from_cleared(*form), factors, cert)


@dataclass(frozen=True)
class SimilarityResult:
    similar: bool
    certificate: Optional[SimilarityCertificate]
    witness: Optional[str]


def similar(A: RatMat, B: RatMat) -> SimilarityResult:
    """Complete decision of similarity over Q, by comparing rational
    canonical forms; a positive answer carries T = Pb Pa^{-1}, composed from
    the two decompositions _frobenius checked, which proves it (see below)."""
    if A.rows != A.cols or B.rows != B.cols:
        raise ShapeMismatch("similarity needs square matrices")
    if A.rows != B.rows:
        return SimilarityResult(False, None, f"size {A.rows} != {B.rows}")
    fa, _, (Pa, pa), (Qa, qa) = _frobenius(A)
    fb, _, (Pb, pb), (Qb, qb) = _frobenius(B)
    if fa != fb:
        return SimilarityResult(
            False, None,
            f"invariant factors differ: {[str(f) for f in fa]} vs {[str(f) for f in fb]}")
    # A -> F -> B.  _frobenius has checked Pa^{-1} Pa = I, Pb^{-1} Pb = I (so
    # also Pb Pb^{-1} = I, the matrices being square) and
    # Pa^{-1} A Pa = F = Pb^{-1} B Pb, F being built from the equal factors.
    # So T = Pb Pa^{-1} and T^{-1} = Pa Pb^{-1} satisfy T T^{-1} = I and
    # T A T^{-1} = Pb F Pb^{-1} = B: the composite needs no second check.
    transform = _from_cleared(_int_matmul(Pb, Qa), pb * qa)
    inverse = _from_cleared(_int_matmul(Pa, Qb), pa * qb)
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
    # f is block diagonal here, so it is invertible exactly when both blocks
    # are: test the lower one's determinant, and invert the upper one once
    if f.submatrix(a, a + m, b, b + m).determinant() == 0:
        raise BlockNotInvertible("f is singular")
    top = f.submatrix(0, a, 0, b)
    try:
        cert = SimilarityCertificate(top, top.inverse())
    except ZeroDivisionError:
        raise BlockNotInvertible("upper-left block is singular") from None
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
