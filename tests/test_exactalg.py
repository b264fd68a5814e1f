"""Exact arithmetic layer: polynomial/matrix laws and the normal forms."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffmod.exactalg as exactalg
from diffmod.exactalg import (MODP, NotUnimodular, Poly, PolyMat, RatMat,
                              ShapeMismatch, _cell_divmod, _crt, _int_row,
                              _lift_vector, _modp_echelon, _modp_kernel,
                              _modp_width, kernel_basis, rat_nullspace,
                              smith_normal_form_with_inverses)
from diffmod.rng import StableRng

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)
polys = st.builds(Poly, st.lists(rationals, max_size=5))


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


X = P(0, 1)


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

def test_zero_poly_degree_is_sentinel():
    assert Poly([]).degree is None
    assert Poly([0, 0]).degree is None  # trailing zeros stripped
    assert P(5).degree == 0
    assert X.degree == 1


def test_poly_str():
    assert str(P(0)) == "0"
    assert str(P(-1, 2)) == "2*x - 1"
    assert str(P(0, 0, 1)) == "x^2"
    assert str(P(Fraction(1, 2))) == "1/2"


def test_poly_eval_and_derivative():
    p = P(1, -3, 0, 2)  # 2x^3 - 3x + 1
    assert p(Fraction(2)) == 16 - 6 + 1
    assert p.derivative() == P(-3, 0, 6)
    assert P(7).derivative().is_zero()


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_leibniz(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def long_divmod(a, b):
    """The oracle: (quotient, remainder) of Polys by long division on
    Fraction coefficients, b nonzero."""
    rem, dd = list(a.coeffs), len(b.coeffs) - 1
    q = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        if rem[i]:
            f = q[i - dd] = rem[i] / b.lc()
            for j, c in enumerate(b.coeffs):
                rem[i - dd + j] -= f * c
    return Poly(q), Poly(rem)


def as_poly(cell):
    cs, den = cell
    return Poly([Fraction(v, den) for v in cs])


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divmod_identity(a, b):
    # the one polynomial division, on cells: a = q b + r with deg r < deg b,
    # q and r those of the long division, each cell reduced (den > 0, no
    # trailing zero)
    if b.is_zero():
        return
    cells = _cell_divmod(_int_row(a.coeffs), _int_row(b.coeffs))
    q, r = map(as_poly, cells)
    assert a == q * b + r
    assert r.is_zero() or r.degree < b.degree
    assert (q, r) == long_divmod(a, b)
    for cs, den in cells:
        assert den > 0 and (not cs or cs[-1]) and math.gcd(den, *cs) == 1


# ---------------------------------------------------------------------------
# PolyMat / RatMat
# ---------------------------------------------------------------------------

def test_polymat_shape_checks():
    A = PolyMat(2, 2, [P(1), P(0), P(0), P(1)])
    B = PolyMat(1, 2, [P(1), P(2)])
    with pytest.raises(ShapeMismatch):
        A + B
    with pytest.raises(ShapeMismatch):
        B @ B


def test_negative_shapes_are_rejected():
    # (-2) * (-2) = 4 entries would pass the entry-count check alone
    for cls in (PolyMat, RatMat):
        for r, c in [(-2, -2), (-1, 0), (0, -3)]:
            with pytest.raises(ShapeMismatch, match="negative shape"):
                cls.zeros(r, c)
    with pytest.raises(ShapeMismatch, match="negative shape"):
        PolyMat(-1, -1, [P(1)])
    assert PolyMat.zeros(0, 3).cols == 3 and RatMat.zeros(2, 0).rows == 2


def test_polymat_and_ratmat_stay_apart():
    pm, rm = PolyMat.identity(2), RatMat.identity(2)
    assert pm != rm and rm != pm and not pm == rm
    for a, b in ((pm, rm), (rm, pm)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    for cls in (PolyMat, RatMat):
        M = cls.from_rows([[1, 2], [3, Fraction(1, 2)]])
        made = [cls.zeros(2, 3), cls.identity(2), M, cls.block_diag(M, cls.zeros(1, 0)),
                M.submatrix(0, 1, 0, 2), M.transpose(), M + M, M - M, -M, M.scale(2)]
        assert all(type(m) is cls for m in made)
        assert cls.block_diag(M, cls.identity(1)).to_rows() == [
            [1, 2, 0], [3, Fraction(1, 2), 0], [0, 0, 1]]
    assert repr(PolyMat.from_rows([[X, 0], [Fraction(1, 2), 1]])) == \
        "PolyMat(2x2, ['x', '0', '1/2', '1'])"
    assert repr(RatMat.from_rows([[0, Fraction(-1, 2)]])) == "RatMat(1x2, ['0', '-1/2'])"
    with pytest.raises(TypeError, match="bad matrix entry 'a'"):
        PolyMat(1, 1, ["a"])
    with pytest.raises(TypeError, match="expected an exact rational, got Poly"):
        RatMat(1, 1, [X])


def test_matmul_and_derivative():
    A = PolyMat(2, 2, [X, P(1), P(0), X * X])
    B = PolyMat(2, 2, [P(1), P(0), X, P(1)])
    prod = A @ B
    assert prod.entry(0, 0) == X + X  # x*1 + 1*x
    D = A.derivative()
    assert D.entry(0, 0) == P(1)
    assert D.entry(1, 1) == P(0, 2)
    # product rule for matrices
    assert (A @ B).derivative() == A.derivative() @ B + A @ B.derivative()


def naive_matmul(A, B):
    """Reference product: each entry a running sum of Poly or Fraction
    products."""
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            acc = Poly.zero() if isinstance(A, PolyMat) else Fraction(0)
            for t in range(A.cols):
                acc = acc + A.entry(i, t) * B.entry(t, j)
            out.append(acc)
    return type(A)(A.rows, B.cols, out)


def test_matmul_matches_naive_product():
    rng = StableRng(41)

    def rand_mat(r, c):
        entries = []
        for _ in range(r * c):
            if rng.randint(0, 3) == 0:
                entries.append(Poly.zero())
            else:
                entries.append(Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                                     for _ in range(rng.randint(1, 4))]))
        return PolyMat(r, c, entries)
    rat_rng = StableRng(43)

    def rand_ratmat(r, c):
        return RatMat(r, c, [0 if rat_rng.randint(0, 3) == 0 else
                             Fraction(rat_rng.randint(-5, 5), rat_rng.randint(1, 6))
                             for _ in range(r * c)])
    shapes = [(0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)) for _ in range(30)]
    for r, k, c in shapes:
        A, B = rand_mat(r, k), rand_mat(k, c)
        prod = A @ B
        assert (prod.rows, prod.cols) == (r, c)
        assert prod == naive_matmul(A, B)
        assert all(type(cf) is Fraction for p in prod.entries for cf in p.coeffs)
        A, B = rand_ratmat(r, k), rand_ratmat(k, c)
        prod = A @ B
        assert (prod.rows, prod.cols) == (r, c)
        assert prod == naive_matmul(A, B)
        assert all(type(v) is Fraction for v in prod.entries)
    # entries that cancel to the zero polynomial, and to zero
    row = PolyMat(1, 2, [X, -X])
    col = PolyMat(2, 1, [P(Fraction(1, 3)), P(Fraction(1, 3))])
    assert (row @ col).entry(0, 0).coeffs == ()
    assert (RatMat(1, 2, [Fraction(1, 2), Fraction(-1, 2)]) @ RatMat(2, 1, [3, 3])
            == RatMat.zeros(1, 1))


def test_determinant_and_unimodular_inverse():
    U = PolyMat(2, 2, [P(1), -X, P(0), P(1)])
    assert U.determinant() == P(1)
    V = U.inverse_unimodular()
    assert U @ V == PolyMat.identity(2)
    # x on the diagonal is not a unit
    W = PolyMat(2, 2, [X, P(0), P(0), P(1)])
    with pytest.raises(NotUnimodular):
        W.inverse_unimodular()


def elementary_product(rng, n, ops):
    """(M, M^{-1}) for a product of random shears by polynomials, constant
    scalings and swaps, with the inverse accumulated alongside."""
    M, Minv = PolyMat.identity(n), PolyMat.identity(n)
    for _ in range(ops):
        E, Einv = PolyMat.identity(n).to_rows(), PolyMat.identity(n).to_rows()
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        kind = rng.randint(0, 2)
        if kind == 0 and i != j:
            p = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 3))])
            E[i][j], Einv[i][j] = p, -p
        elif kind == 1:
            c = Fraction(rng.nonzero_int(4), rng.randint(1, 5))
            E[i][i], Einv[i][i] = Poly([c]), Poly([1 / c])
        else:
            E[i], E[j] = E[j], E[i]
            Einv[i], Einv[j] = Einv[j], Einv[i]
        M = PolyMat.from_rows(E) @ M
        Minv = Minv @ PolyMat.from_rows(Einv)
    return M, Minv


def test_inverse_unimodular_on_elementary_products():
    rng = StableRng(31)
    assert PolyMat(0, 0, []).inverse_unimodular() == PolyMat(0, 0, [])
    for _ in range(40):
        n = rng.randint(1, 6)
        M, Minv = elementary_product(rng, n, rng.randint(0, 3 * n))
        assert M.inverse_unimodular() == Minv
        # a non-unit factor anywhere leaves the determinant nonconstant
        bad = M @ PolyMat.diagonal([X + P(rng.randint(-2, 2))] + [P(1)] * (n - 1))
        with pytest.raises(NotUnimodular):
            bad.inverse_unimodular()
    # constant: the inverse is M(0)^{-1}
    C = PolyMat(2, 2, [P(2), P(Fraction(1, 3)), P(7), P(4)])
    assert C.inverse_unimodular() == C.to_ratmat().inverse().to_polymat()
    # M(0) = I, but det = 1 - x^2: the recurrence runs out of degree
    with pytest.raises(NotUnimodular, match="no inverse over Q"):
        PolyMat(2, 2, [P(1), X, X, P(1)]).inverse_unimodular()
    for singular in (PolyMat.zeros(2, 2), PolyMat(2, 2, [X, X, P(1), P(1)]),
                     PolyMat(2, 2, [X, P(1), P(0), P(1) + X])):
        with pytest.raises(NotUnimodular, match="M\\(0\\) is singular"):
            singular.inverse_unimodular()
    with pytest.raises(ShapeMismatch):
        PolyMat(1, 2, [P(1), X]).inverse_unimodular()


@pytest.mark.parametrize("which", [1, 3])
def test_inverse_unimodular_rejects_a_corrupted_inverse(monkeypatch, which):
    # row-major entry `which` of S_0 = M(0)^{-1} raised by 1: the error runs
    # through the recurrence into a failed M S = I, never a wrong inverse
    real = RatMat.inverse

    def bent(m):
        S = real(m)
        return S + RatMat(2, 2, [int(k == which) for k in range(4)])
    monkeypatch.setattr(RatMat, "inverse", bent)
    with pytest.raises(NotUnimodular, match="no inverse over Q"):
        PolyMat(2, 2, [P(2), -X, 2 * X, P(1) - X * X]).inverse_unimodular()


def corrupt_smith(monkeypatch, which):
    """Make _smith_eliminate, run on [M | I] with M 2 x 2, return its
    (rows, V, Vinv), rows of cells (coefficients, denominator), with x added
    to the top-left entry of D (which = 0), of the carried U (1), of V (2)
    or of Vinv (3)."""
    real = exactalg._smith_eliminate
    out_index, col = ((0, 0), (0, 2), (1, 0), (2, 0))[which]

    def corrupted(rows, ncols):
        out = real(rows, ncols)
        cs, den = out[out_index][0][col]
        cs = [*cs, 0, 0][:max(len(cs), 2)]
        cs[1] += den
        out[out_index][0][col] = tuple(cs), den
        return out
    monkeypatch.setattr(exactalg, "_smith_eliminate", corrupted)


@pytest.mark.parametrize("which, reason", [
    (0, "smith normal form"), (1, "smith normal form"), (2, "transform inverse"),
    (3, "smith normal form"), (4, "transform inverse")])
def test_smith_form_rejects_a_corrupted_factor(monkeypatch, which, reason):
    # which indexes (D, U, Uinv, V, Vinv): Uinv is U.inverse_unimodular(),
    # made to fail; every other factor is corrupted as _smith_eliminate
    # returns it, D and U in its reduced rows
    if which == 2:
        def not_unimodular(M):
            raise NotUnimodular("bent")
        monkeypatch.setattr(PolyMat, "inverse_unimodular", not_unimodular)
    else:
        corrupt_smith(monkeypatch, (0, 1, None, 2, 3)[which])
    with pytest.raises(ArithmeticError, match=reason + " verification failed"):
        smith_normal_form_with_inverses(PolyMat(2, 2, [X, P(1), P(0), X]))


def test_determinant_cubic():
    A = PolyMat(3, 3, [X, P(1), P(0),
                       P(0), X, P(1),
                       P(1), P(0), X])
    assert A.determinant() == X * X * X + P(1)


def leibniz_det(M):
    """Reference determinant: the sum over permutations, in Poly."""
    total = Poly.zero()
    for perm in itertools.permutations(range(M.rows)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = P(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * M.entry(i, j)
        total = total + term
    return total


def determinant_inputs():
    """Seeded n = 0..4 matrices with fractional coefficients, with a zero
    row, with a row combining two others (singular), products through
    fewer than n - 1 columns (rank deficient by two or more), and
    diagonals whose determinant vanishes at 0, 1, ...."""
    rng = StableRng(59)

    def rand_poly():
        if rng.randint(0, 4) == 0:
            return Poly.zero()
        return Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 3))])
    for trial in range(60):
        n = trial % 5
        rows = [[rand_poly() for _ in range(n)] for _ in range(n)]
        if n and trial % 3 == 1:
            rows[rng.randint(0, n - 1)] = [Poly.zero()] * n
        if n >= 2 and trial % 3 == 2:
            f, g = rand_poly(), rand_poly()
            rows[-1] = [f * a + g * b for a, b in zip(rows[0], rows[1])]
        yield PolyMat.from_rows(rows)
        if n >= 3:
            r = rng.randint(0, n - 2)
            yield (PolyMat.from_rows([[rand_poly() for _ in range(r)] for _ in range(n)])
                   @ PolyMat.from_rows([[rand_poly() for _ in range(n)] for _ in range(r)])
                   if r else PolyMat.zeros(n, n))
    for n in range(1, 5):
        yield PolyMat.diagonal([(X - P(i)) * Fraction(i + 2, 3) for i in range(n)])
        yield PolyMat.diagonal([X - P(i) for i in range(n)]) @ PolyMat.from_rows(
            [[P(1) if j >= i else X for j in range(n)] for i in range(n)])


def test_polymat_determinant_matches_leibniz_expansion():
    for M in determinant_inputs():
        det = M.determinant()
        assert det == leibniz_det(M), M
        assert all(type(cf) is Fraction for cf in det.coeffs)
    assert PolyMat(0, 0, []).determinant() == P(1)
    with pytest.raises(ShapeMismatch):
        PolyMat.zeros(2, 3).determinant()


def bound_inputs():
    """(matrix, whether a coefficient of its determinant's numerator is +-B),
    B the product of the numerator rows' l1 norms: monomials c x^k on a
    permutation, one c of 2**m - 1, 2**m or 2**m + 1 up to m = 100, with
    random signs and denominators; dense matrices with entries up to
    2**101 in absolute value and denominators, and rank-deficient ones made
    from them; and 0x0."""
    rng = StableRng(31)
    for n in range(1, 5):
        for m in (1, 7, 64, 100):
            for extra in (-1, 0, 1)[m == 1:]:
                cs = [2**m + extra] + [rng.randint(1, 5) for _ in range(n - 1)]
                perm = list(range(n))
                for i in range(n - 1, 0, -1):
                    j = rng.randint(0, i)
                    perm[i], perm[j] = perm[j], perm[i]
                rows = [[P(0)] * n for _ in range(n)]
                for i, c in enumerate(cs):
                    c = Fraction(rng.choice([-1, 1]) * c, rng.randint(1, 3))
                    rows[i][perm[i]] = Poly([0] * rng.randint(0, 2) + [c])
                yield PolyMat.from_rows(rows), True
    for n in range(1, 4):
        for _ in range(6):
            rows = [[Poly([Fraction(rng.randint(-2**100, 2**100) + rng.choice([-1, 1]) * 2**100,
                                    rng.randint(1, 5)) for _ in range(rng.randint(0, 3))])
                     for _ in range(n)] for _ in range(n)]
            yield PolyMat.from_rows(rows), False
            if n >= 2:
                f = P(Fraction(1 - 2**100, 7), 1)
                rows[-1] = [f * a + b for a, b in zip(rows[0], rows[1])]
                yield PolyMat.from_rows(rows), False
    yield PolyMat(0, 0, []), True


def test_determinant_reads_signed_digits_at_the_bound():
    signs = set()
    for M, at_bound in bound_inputs():
        det = M.determinant()
        assert det == leibniz_det(M), M
        n, (den, ints) = M.rows, M._form()
        B = math.prod(sum(sum(map(abs, cs)) for cs in ints[i * n:(i + 1) * n])
                      for i in range(n))
        numerator = [c * den**n for c in det.coeffs]
        assert all(abs(c) <= B for c in numerator)
        if at_bound:
            top = max(numerator, key=abs)
            assert abs(top) == B
            signs.add(top > 0)
    assert signs == {True, False}


def test_ratmat_inverse():
    M = RatMat(2, 2, [Fraction(2), Fraction(1), Fraction(7), Fraction(4)])
    assert M @ M.inverse() == RatMat.identity(2)
    singular = RatMat(2, 2, [1, 2, 2, 4])
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_rat_nullspace_known_kernel():
    # rows (1,1,0) and (0,1,1): kernel spanned by (1,-1,1)
    M = RatMat(2, 3, [1, 1, 0, 0, 1, 1])
    basis = rat_nullspace(M)
    assert len(basis) == 1
    v = basis[0]
    assert (M @ v).is_zero()
    assert [v.entry(i, 0) for i in range(3)] == [1, -1, 1]


def test_rat_nullspace_full_rank():
    assert rat_nullspace(RatMat.identity(3)) == []


# A plain Fraction Gauss-Jordan, kept test-side as the reference the
# fraction-free integer elimination must agree with.

def ref_gauss_jordan(rows, ncols):
    """Reduced row echelon form over Q, pivots taken in the first ncols
    columns; returns (rows, pivot columns, determinant of the pivot steps)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots, det = [], Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][c]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots, det


def ref_nullspace(rows, ncols):
    m, pivots, _ = ref_gauss_jordan(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for k, pc in enumerate(pivots):
            x[pc] = -m[k][fc]
        den = math.lcm(*(v.denominator for v in x))
        ints = [int(v * den) for v in x]
        g = math.gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        basis.append([v // g for v in ints])
    return basis


BIG = 2**61 - 1  # a prime denominator: clearing it makes 19-digit integers


def seeded_ratmat(rng, r, c, rank=None, big=False):
    """r x c rationals with about a third zero entries; with rank set, the
    product of random r x rank and rank x c factors (rank-deficient)."""
    def entry():
        if rng.randint(0, 2) == 0:
            return Fraction(0)
        den = rng.choice([1, 3, BIG, 10**12 + 39]) if big else rng.choice([1, 2, 3])
        return Fraction(rng.randint(-9, 9), den)
    if rank is None:
        rows = [[entry() for _ in range(c)] for _ in range(r)]
    else:
        L = [[entry() for _ in range(rank)] for _ in range(r)]
        R = [[entry() for _ in range(c)] for _ in range(rank)]
        rows = [[sum((L[i][k] * R[k][j] for k in range(rank)), Fraction(0))
                 for j in range(c)] for i in range(r)]
    return RatMat.from_rows(rows) if r else RatMat(0, c, [])


def q_kernel_inputs():
    rng = StableRng(2024)
    mats = [RatMat(0, 0, []), RatMat(0, 3, []), RatMat(3, 0, []),
            RatMat.zeros(3, 3), RatMat(1, 1, [Fraction(-7, BIG)]),
            RatMat(2, 2, [1, 2, 2, 4]),                         # singular
            RatMat(3, 3, [0, 0, 0, 1, 2, 3, 0, 0, 0]),          # zero rows
            RatMat(2, 4, [0, 1, 2, 3, 0, 2, 4, 6])]             # wide, rank 1
    shapes = [(n, n) for n in range(1, 6)] + [(2, 5), (3, 6), (5, 2), (6, 3)]
    for r, c in shapes:
        for big in (False, True):
            mats.append(seeded_ratmat(rng, r, c, big=big))
            mats.append(seeded_ratmat(rng, r, c, rank=rng.randint(0, min(r, c) - 1), big=big))
    return rng, mats


def test_q_kernels_match_fraction_reference():
    _, mats = q_kernel_inputs()
    for M in mats:
        rows = M.to_rows()
        kernel = [[v.entry(i, 0) for i in range(M.cols)] for v in rat_nullspace(M)]
        assert kernel == ref_nullspace(rows, M.cols)
        for v in rat_nullspace(M):
            assert (M @ v).is_zero()
        if M.rows == M.cols:
            ref, pivots, det = ref_gauss_jordan(
                [row + [Fraction(int(i == j)) for j in range(M.rows)]
                 for i, row in enumerate(rows)], M.cols)
            full = len(pivots) == M.rows
            assert M.determinant() == (det if full else 0)
            if full:
                inv = M.inverse()
                assert inv.to_rows() == [row[M.cols:] for row in ref]
                assert M @ inv == RatMat.identity(M.rows)
            else:
                with pytest.raises(ZeroDivisionError):
                    M.inverse()


def modp_nullspace(rows, ncols, p):
    """The kernel mod p of integer rows, by _modp_echelon and _modp_kernel."""
    w = _modp_width(ncols, p)
    packed = [sum(v % p << (w * j) for j, v in enumerate(r)) for r in rows]
    return _modp_kernel(*_modp_echelon(packed, ncols, p, w), ncols, p, w)


def test_modp_kernels_match_integer_kernels():
    # on these inputs no minor is divisible by p, so the kernel mod p is the
    # reduction of the kernel over Q: the same vectors, scaled to 1 at the
    # free column, which is a vector's last nonzero entry
    _, mats = q_kernel_inputs()
    for M in mats:
        rows = [_int_row(M.row(i))[0] for i in range(M.rows)]
        expected = []
        for x in ref_nullspace(rows, M.cols):
            inv = pow([v for v in x if v][-1], -1, MODP)
            expected.append([v * inv % MODP for v in x])
        assert modp_nullspace(rows, M.cols, MODP) == expected


def test_modp_kernel_can_only_grow():
    # p divides a pivot: rank 2 over Q, rank 1 mod p
    rows = [[MODP, 0], [0, 1]]
    assert ref_nullspace(rows, 2) == []
    assert modp_nullspace(rows, 2, MODP) == [[1, 0]]
    assert modp_nullspace([[3, 6, 9]], 3, 7) == [[5, 1, 0], [4, 0, 1]]
    assert modp_nullspace([], 2, 7) == [[1, 0], [0, 1]]


def plain_echelon_modp(rows, ncols, p):
    """Gauss-Jordan over GF(p), entry by entry: (reduced rows, pivots,
    kernel), the kernel one vector per free column as _modp_kernel gives it."""
    rows = [[v % p for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        piv = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = pow(rows[k][c], -1, p)
        rows[k] = [v * inv % p for v in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[c]:
                rows[i] = [(a - row[c] * b) % p for a, b in zip(row, rows[k])]
        pivots.append(c)
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols
        x[fc] = 1
        for k, pc in enumerate(pivots):
            x[pc] = -rows[k][fc] % p
        kernel.append(x)
    return rows[:len(pivots)], pivots, kernel


def test_modp_echelon_matches_a_plain_gauss_jordan():
    # seeded integer matrices with more rows than columns, fewer, and rank
    # deficient ones (combinations of fewer rows mod p), every entry lifted
    # by a multiple of p to below ncols * p**2 and one in eight at that
    # bound minus 1, at p = 7 and the first 13 primes of _primes (c up to
    # 263); ncols reaches 63 and 64, where its bit length steps up
    primes = [7, *itertools.islice(exactalg._primes(), 13)]
    assert primes[-1] == 2 ** 30 - 263
    rng = StableRng(30)
    widths = [*range(1, 18), 31, 32, 33, 63, 63, 63, 64, 64, 64]
    seen = set()
    for k, ncols in enumerate(widths):
        p, shape = primes[k % len(primes)], k % 3
        nrows = (ncols + rng.randint(1, 5), max(1, ncols // 2), ncols)[shape]
        rank = rng.randint(0, ncols - 1) if shape == 2 else nrows
        base = [[rng.randint(0, p - 1) for _ in range(ncols)] for _ in range(rank)]
        rows = []
        for _ in range(nrows):
            if shape == 2:
                coeffs = [rng.randint(0, p - 1) for _ in base]
                residues = [sum(a * r[j] for a, r in zip(coeffs, base)) % p for j in range(ncols)]
            else:
                residues = [rng.randint(0, p - 1) for _ in range(ncols)]
            top = ncols * p * p - 1
            rows.append([top - (p - 1 - v) if rng.randint(0, 7) == 0
                         else v + p * rng.randint(0, ncols * p - 1) for v in residues])
        assert all(0 <= v < ncols * p * p for row in rows for v in row)
        w = _modp_width(ncols, p)
        slot = (1 << w) - 1
        packed = [sum(v << (w * j) for j, v in enumerate(row)) for row in rows]
        reduced, pivots = _modp_echelon(packed, ncols, p, w)
        plain_rows, plain_pivots, kernel = plain_echelon_modp(rows, ncols, p)
        assert pivots == plain_pivots
        assert all(0 <= r < 1 << (w * ncols) for r in reduced)
        assert [[(r >> (w * j) & slot) % p for j in range(ncols)] for r in reduced] == plain_rows
        assert _modp_kernel(reduced, pivots, ncols, p, w) == kernel
        seen.add((p, shape, len(pivots) < min(nrows, ncols)))
    assert {p for p, _, _ in seen} == set(primes)
    assert {(shape, deficient) for _, shape, deficient in seen} >= {(0, False), (1, False), (2, True)}


def test_modp_echelon_refuses_a_prime_the_fold_cannot_shrink():
    # 5 = 2**3 - 3 and 3 >= 2**(3-2): a fold round need not shrink a slot,
    # so the elimination refuses p = 5 rather than loop; 7 = 2**3 - 1 works
    w = _modp_width(2, 5)
    with pytest.raises(ValueError, match="p = 5"):
        _modp_echelon([1 | 2 << w], 2, 5, w)
    w = _modp_width(2, 7)
    assert modp_nullspace([[3, 6], [1, 2]], 2, 7) == [[5, 1]]
    assert _modp_echelon([3 | 6 << w], 2, 7, w)[1] == [0]


# ---------------------------------------------------------------------------
# Smith normal form and unimodular rows
# ---------------------------------------------------------------------------

def test_smith_form_diagonal_example():
    M = PolyMat(2, 2, [X, P(0), P(0), X * X])
    U, D, V, _, _ = smith_normal_form_with_inverses(M)
    assert U @ M @ V == D
    # already in divisibility order, so the form is the input itself
    assert D.entry(0, 0) == X
    assert D.entry(1, 1) == X * X
    assert D.entry(0, 1).is_zero() and D.entry(1, 0).is_zero()


def test_smith_form_coprime_entries_give_unit():
    # gcd(x, x+1) = 1, so the first invariant factor is 1
    M = PolyMat(1, 2, [X, X + P(1)])
    U, D, V, _, _ = smith_normal_form_with_inverses(M)
    assert U @ M @ V == D
    assert D.entry(0, 0) == P(1)


def test_smith_form_rank_deficient():
    M = PolyMat(2, 2, [X, X, X, X])
    U, D, V, _, _ = smith_normal_form_with_inverses(M)
    assert U @ M @ V == D
    assert D.entry(0, 0) == X
    assert D.entry(1, 1).is_zero()


def completion(w):
    """V^{-1}[s:, :] from the Smith form U w V = D of the s x n matrix w."""
    return smith_normal_form_with_inverses(w)[4].submatrix(w.rows, w.cols, 0, w.cols)


def test_kernel_basis_of_unimodular_row():
    w = PolyMat(1, 2, [P(1), X])
    K = kernel_basis(w)
    assert K.rows == 2 and K.cols == 1
    assert (w @ K).is_zero()
    C = completion(w)
    det = PolyMat.vstack(w, C).determinant()
    assert det.is_constant() and not det.is_zero()


def test_kernel_basis_three_entries():
    w = PolyMat(1, 3, [P(1), X, X * X])
    K = kernel_basis(w)
    assert K.cols == 2
    assert (w @ K).is_zero()
    stacked = PolyMat.vstack(w, completion(w))
    det = stacked.determinant()
    assert det.is_constant() and not det.is_zero()


def test_kernel_basis_rejects_non_unimodular_row():
    with pytest.raises(NotUnimodular):
        kernel_basis(PolyMat(1, 2, [X, X * X]))


def test_kernel_basis_of_two_rows_with_unit_minors():
    # the 2 x 2 minors 1, x and x^2 generate the unit ideal
    w = PolyMat(2, 3, [P(1), X, P(0), P(0), P(1), X])
    K = kernel_basis(w)
    assert K.rows == 3 and K.cols == 1
    assert (w @ K).is_zero()
    C = completion(w)
    assert C @ K == PolyMat.identity(1)
    det = PolyMat.vstack(w, C).determinant()
    assert det.is_constant() and not det.is_zero()
    with pytest.raises(NotUnimodular):
        kernel_basis(PolyMat(2, 3, [P(1), P(0), P(0), P(0), X, X * X]))
    with pytest.raises(NotUnimodular):
        kernel_basis(PolyMat(2, 1, [P(1), P(0)]))


def smith_digest_inputs():
    """Empty and zero shapes, rank-deficient and non-monic pivots, seeded
    matrices up to 4 x 4 (some scaled by rationals), and the split inputs w
    (s = 1-4) that core records on seeded planned modules."""
    from diffmod import cores
    from diffmod.suite import random_planned_module, random_polymat

    mats = [PolyMat(0, 0, []), PolyMat(0, 3, []), PolyMat(3, 0, []), PolyMat.zeros(2, 3),
            PolyMat(2, 2, [X, X, X, X]), PolyMat(1, 2, [2 * X, 3 * X * X]),
            PolyMat(2, 2, [2 * X, P(1), P(0), X]), PolyMat(2, 2, [X, P(0), P(0), X * X]),
            PolyMat(1, 2, [X, X + P(1)]), PolyMat(2, 3, [P(1), X, P(0), P(0), P(1), X])]
    rng = StableRng(27)
    for _ in range(60):
        M = random_polymat(rng, rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3))
        if rng.randint(0, 2) == 0:
            M = M.scale(Fraction(rng.nonzero_int(5), rng.randint(1, 4)))
        mats.append(M)
    real = cores.split_trivial_summand

    def record(P_, w, v):
        mats.append(w)
        return real(P_, w, v)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cores, "split_trivial_summand", record)
        rng = StableRng(2027)
        for _ in range(2):
            for core_rank in range(4):
                for mult in range(1, 5):
                    cores.core(random_planned_module(rng, core_rank, mult).module)
    return mats


def smith_digest():
    """sha256 of repr and JSON of U, D, V, U^-1 and V^-1 from
    smith_normal_form_with_inverses and of kernel_basis (or its
    NotUnimodular message) on smith_digest_inputs, in order."""
    from diffmod.serialize import polymat_to_json

    h = hashlib.sha256()

    def put(M):
        h.update(repr(M).encode())
        h.update(json.dumps(polymat_to_json(M)).encode())
    for M in smith_digest_inputs():
        for F in exactalg.smith_normal_form_with_inverses(M):
            put(F)
        try:
            put(kernel_basis(M))
        except NotUnimodular as exc:
            h.update(str(exc).encode())
    return h.hexdigest()


def test_smith_normal_form_matches_the_golden_digest():
    assert smith_digest() == \
        "eb6759609406b34dbbd393ab7cd8c5c700f8fc8382638b7383288db85588004c"


def poly_smith_eliminate(rows, ncols):
    """The oracle: the Smith elimination over Q[x] on rows of Poly entries,
    with the same pivots, quotients and offender rule, returning
    (rows, V, V^-1) as rows of Polys."""
    r, c = len(rows), ncols
    a = [list(row) for row in rows]
    V = PolyMat.identity(c).to_rows()
    Vi = PolyMat.identity(c).to_rows()

    def col_op(i, j, q):
        for rr in range(r):
            a[rr][i] = a[rr][i] - q * a[rr][j]
        for rr in range(c):
            V[rr][i] = V[rr][i] - q * V[rr][j]
        Vi[j] = [x + q * y for x, y in zip(Vi[j], Vi[i])]

    def swap_cols(i, j):
        for rr in range(r):
            a[rr][i], a[rr][j] = a[rr][j], a[rr][i]
        for rr in range(c):
            V[rr][i], V[rr][j] = V[rr][j], V[rr][i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def min_deg_entry(t):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if not a[i][j].is_zero():
                    d = a[i][j].degree
                    if best is None or d < best[0]:
                        best = (d, i, j)
        return best

    t = 0
    while t < min(r, c):
        if min_deg_entry(t) is None:
            break
        while True:
            _, pi, pj = min_deg_entry(t)
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                swap_cols(t, pj)
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, r):
                if not a[i][t].is_zero():
                    q, rem = long_divmod(a[i][t], piv)
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    dirty = dirty or not rem.is_zero()
            for j in range(t + 1, c):
                if not a[t][j].is_zero():
                    q, rem = long_divmod(a[t][j], piv)
                    col_op(j, t, q)
                    dirty = dirty or not rem.is_zero()
            if dirty:
                continue
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if not a[i][j].is_zero() and not long_divmod(a[i][j], piv)[1].is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        t += 1
    return a, V, Vi


def cell_rows(M):
    """The rows of M as rows of cells (coefficients, denominator)."""
    cells, c = M._cells(), M.cols
    return [list(cells[i * c:(i + 1) * c]) for i in range(M.rows)]


def as_polys(rows):
    return [list(map(as_poly, row)) for row in rows]


def smith_oracle_inputs():
    """(rows, ncols): the golden digest's matrices and diagonal ones whose
    rest a pivot does not divide (the offender rule), alone and with [M | I]
    carried; seeded matrices with a row that is a Q[x] combination of the
    others, scaled by rationals so that no pivot is monic; and every
    (rows, ncols) that core's splits pass on seeded planned modules, as
    they pass it."""
    from diffmod import cores
    from diffmod.suite import random_planned_module, random_poly, random_polymat

    offenders = [PolyMat.diagonal([X, X + P(1)]), PolyMat.diagonal([2 * X, P(1, 0, 3)]),
                 PolyMat.diagonal([X, P(-1, 1), P(2, 1)]).scale(Fraction(1, 2)),
                 PolyMat(2, 3, [P(0, 0, 2), P(0), X, P(0), P(1, 1), P(0)])]
    for M in smith_digest_inputs() + offenders:
        yield cell_rows(M), M.cols
        yield cell_rows(PolyMat.hstack(M, PolyMat.identity(M.rows))), M.cols
    rng = StableRng(28)
    for _ in range(30):
        c = rng.randint(1, 5)
        rows = random_polymat(rng, rng.randint(1, 3), c, 2).to_rows()
        fs = [random_poly(rng, 1) for _ in rows]
        rows.insert(rng.randint(0, len(rows)),
                    [sum((f * row[j] for f, row in zip(fs, rows)), P()) for j in range(c)])
        M = PolyMat.from_rows(rows).scale(Fraction(rng.nonzero_int(5), rng.randint(2, 4)))
        yield cell_rows(M), c
        yield cell_rows(PolyMat.hstack(M, random_polymat(rng, M.rows, 2, 1))), c
    real, seen = cores._smith_eliminate, []

    def record(rows, ncols):
        seen.append(([list(row) for row in rows], ncols))
        return real(rows, ncols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cores, "_smith_eliminate", record)
        rng = StableRng(2028)
        for core_rank in range(4):
            for mult in range(1, 5):
                cores.core(random_planned_module(rng, core_rank, mult).module)
                cores.core(random_planned_module(rng, core_rank, mult).module,
                           pivot_seed=rng.randint(0, 2**31))
    assert {len(rows) for rows, _ in seen} == {1, 2, 3, 4}
    yield from seen


def test_smith_elimination_matches_the_poly_row_oracle():
    # the same rational operations: reduced rows, V and V^-1 equal the
    # oracle's entry for entry, every cell with den > 0 and no trailing zero
    shapes = set()
    for rows, ncols in smith_oracle_inputs():
        got = exactalg._smith_eliminate(rows, ncols)
        assert [as_polys(m) for m in got] == \
            list(poly_smith_eliminate(as_polys(rows), ncols))
        for cs, den in itertools.chain.from_iterable(itertools.chain(*got)):
            assert den > 0 and (not cs or cs[-1])
        shapes.add((len(rows) > 0, ncols > 0, len(rows[0]) > ncols if rows else False))
    assert shapes == {(True, True, True), (True, True, False), (False, True, False),
                      (True, False, True), (True, False, False), (False, False, False)}


def test_lift_vector_recovers_rationals_within_the_bounds():
    # y / den with every |y_i| and den at most isqrt(M // 2) comes back as
    # the primitive integer vector y / gcd(y), its first nonzero entry
    # positive; past the bounds of one prime, the CRT with a second
    # recovers it
    rng = StableRng(31)
    p, q = MODP, 2 ** 30 - 41
    for height in (1, 10, 150, 20000, 10 ** 6):
        for _ in range(20):
            den = rng.randint(1, height)
            y = [rng.randint(-height, height) for _ in range(rng.randint(1, 6))]
            y[rng.randint(0, len(y) - 1)] = den  # as a kernel vector's 1
            g = math.gcd(*y)
            if next(v for v in y if v) < 0:
                g = -g
            want = [v // g for v in y]
            mod_p = [v * pow(den, -1, p) % p for v in y]
            mod_q = [v * pow(den, -1, q) % q for v in y]
            if max(map(abs, y)) <= math.isqrt(p // 2):
                assert _lift_vector(mod_p, p) == want
            both = _crt([mod_p], p, [mod_q], q)
            assert both == [[v * pow(den, -1, p * q) % (p * q) for v in y]]
            assert _lift_vector(both[0], p * q) == want
    # -40000/3: the numerator is past one prime's bound of about 2**14.5
    mod_p, mod_q = [-40000 * pow(3, -1, p) % p, 1], [-40000 * pow(3, -1, q) % q, 1]
    assert _lift_vector(mod_p, p) != [40000, -3]
    assert _lift_vector(_crt([mod_p], p, [mod_q], q)[0], p * q) == [40000, -3]


# ---------------------------------------------------------------------------
# PolyMat's stored form: every operation pinned, one form per matrix
# ---------------------------------------------------------------------------

def seeded_polymats():
    """Seeded PolyMats with rational coefficients and entry degrees 0-4,
    after the zero and empty shapes."""
    rng = StableRng(23)

    def entry(deg):
        if rng.randint(0, 3) == 0:
            return Poly.zero()
        return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(rng.randint(1, deg + 1))])
    mats = [PolyMat(0, 0, []), PolyMat(0, 3, []), PolyMat(2, 0, []), PolyMat.zeros(2, 3),
            PolyMat.identity(3)]
    for deg in range(5):
        for r, c in ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
            mats.append(PolyMat(r, c, [entry(deg) for _ in range(r * c)]))
    return mats


def polymat_digest():
    """sha256 of repr and JSON of every PolyMat operation on the seeded
    matrices, in order."""
    from diffmod.diffring import DiffRing
    from diffmod.modules import DiffModule, scramble
    from diffmod.serialize import polymat_to_json

    h = hashlib.sha256()

    def put(value):
        if isinstance(value, PolyMat):
            h.update(repr(value).encode())
            h.update(json.dumps(polymat_to_json(value)).encode())
        else:
            h.update(repr(value).encode())
    mats = seeded_polymats()
    rng = StableRng(29)
    for M, N in zip(mats, mats[1:] + mats[:1]):
        r, c = M.rows, M.cols
        put(M)
        put(M.derivative())
        put(M.scale(Fraction(-3, 2)))
        put(M.scale(0))
        put(M + M)
        put(M - M)
        put(M - M.scale(Fraction(1, 3)))
        put(M.submatrix(r // 2, r, c // 2, c))
        put(PolyMat.block_diag(M, N))
        put(PolyMat.hstack(M, M))
        put(PolyMat.vstack(M, M))
        put(M @ M.transpose())
        put(M.transpose() @ M)
        put(M.is_zero())
        if N.rows == c:
            put(M @ N)
        if r == c:
            put(M.determinant())
            U, _ = elementary_product(rng, r, 2 * r)
            put(U @ M)
            put(U.inverse_unimodular())
            if r:
                Q, cert = scramble(DiffModule(DiffRing.POLY_DX, r, M), seed=r + len(M.entries))
                put(Q.matrix)
                put(cert.forward)
                put(cert.backward)
    return h.hexdigest()


def test_polymat_operations_match_the_golden_digest():
    # recorded with Fraction-coefficient entries; the stored form may change,
    # these outputs may not
    assert polymat_digest() == \
        "de80ac9177137d9904f91664fc381923e72e7632a12d65eeb10cecbfcb204e24"


def test_one_matrix_from_polys_and_from_an_integer_result():
    import copy
    import pickle
    for M in seeded_polymats():
        again = PolyMat(M.rows, M.cols, [Poly(e.coeffs) for e in M.entries])
        made = [again, M @ PolyMat.identity(M.cols), PolyMat.identity(M.rows) @ M,
                M + PolyMat.zeros(M.rows, M.cols), M.scale(1), (M - M) + M]
        made += [copy.copy(M), copy.deepcopy(M), pickle.loads(pickle.dumps(M))]
        made += [copy.copy(made[1]), pickle.loads(pickle.dumps(made[1]))]
        for other in made:
            assert other == M and M == other
            assert hash(other) == hash(M)
            assert other.entries == M.entries and repr(other) == repr(M)
        assert len(set(made + [M])) == 1
