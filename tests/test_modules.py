"""Engine tests: hom spaces (cross-checked against a brute-force solver),
constants, triviality, isomorphism search, scrambling."""

import hashlib
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffmod.modules as modules
from diffmod.diffring import DiffRing, RingMismatch
from diffmod.exactalg import (MODP, NotUnimodular, Poly, PolyMat, RatMat, ShapeMismatch,
                              rat_nullspace)
from diffmod.modules import (CertificateInvalid, DiffModule, constants,
                             direct_sum, hom_space, identity_certificate,
                             is_trivial, iso_search, make_iso_certificate,
                             resolve_deg_cap, scramble, trivial_module,
                             verify_hom)
from diffmod.rng import StableRng
from diffmod.suite import random_similar_pair


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


X = P(0, 1)


def line(f: Poly) -> DiffModule:
    return DiffModule(DiffRing.POLY_DX, 1, PolyMat(1, 1, [f]))


def mod2(a, b, c, d) -> DiffModule:
    return DiffModule(DiffRing.POLY_DX, 2, PolyMat(2, 2, [a, b, c, d]))


NILPOTENT = mod2(P(0), P(1), P(0), P(0))


# ---------------------------------------------------------------------------
# brute-force oracle: assemble the full linear system on the coefficients of
# T up to the cap and solve it with nothing but rat_nullspace
# ---------------------------------------------------------------------------

def oracle_hom_basis(src: DiffModule, tgt: DiffModule, cap: int):
    m, n = tgt.rank, src.rank
    A, B = src.matrix, tgt.matrix
    unknowns = []            # (degree, row, col)
    residuals = []           # residual PolyMat per unknown basis matrix
    for d in range(cap + 1):
        for i in range(m):
            for j in range(n):
                U = PolyMat(m, n, [
                    Poly([0] * d + [1]) if (r, c) == (i, j) else Poly.zero()
                    for r in range(m) for c in range(n)])
                unknowns.append((d, i, j))
                residuals.append(U.derivative() - U @ A + B @ U)
    rdeg = 0
    for R in residuals:
        rdeg = max(rdeg, R.max_degree())
    rows = []
    for k in range(rdeg + 1):
        for i in range(m):
            for j in range(n):
                rows.append([R.entry(i, j).coeff(k) for R in residuals])
    M = RatMat(len(rows), len(unknowns), [e for row in rows for e in row])
    basis = []
    for v in rat_nullspace(M):
        entries = [[Poly.zero() for _ in range(n)] for _ in range(m)]
        for idx, (d, i, j) in enumerate(unknowns):
            c = v.entry(idx, 0)
            if c:
                entries[i][j] = entries[i][j] + Poly([0] * d + [c])
        basis.append(PolyMat(m, n, [e for row in entries for e in row]))
    return basis


def assert_same_space(src, tgt, cap):
    fast = hom_space(src, tgt, cap)
    slow = oracle_hom_basis(src, tgt, cap)
    assert fast.dimension == len(slow)
    for T in fast.basis:
        assert T.max_degree() <= cap
        assert verify_hom(T, src, tgt)
    for T in slow:
        assert verify_hom(T, src, tgt)
    if fast.basis:
        # fast basis elements are independent: stack their coefficient
        # vectors and check the stacked matrix has full row rank
        vecs = []
        for T in fast.basis:
            vec = []
            for d in range(cap + 1):
                for i in range(T.rows):
                    for j in range(T.cols):
                        vec.append(T.entry(i, j).coeff(d))
            vecs.append(vec)
        stacked = RatMat(len(vecs), len(vecs[0]), [e for v in vecs for e in v])
        assert rat_nullspace(stacked.transpose()) == []


def test_hom_matches_oracle_on_seeded_instances():
    rng = StableRng(2024)
    for _ in range(12):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        src = DiffModule(DiffRing.POLY_DX, n, PolyMat(
            n, n, [Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                   for _ in range(n * n)]))
        tgt = DiffModule(DiffRing.POLY_DX, m, PolyMat(
            m, m, [Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                   for _ in range(m * m)]))
        assert_same_space(src, tgt, 8)


def test_hom_matches_oracle_on_worked_lines():
    for f, g in [(P(0), P(0)), (X, X), (X, X + P(1)), (X * X, X),
                 (P(0, 3), X), (P(1), P(1))]:
        assert_same_space(line(f), line(g), 10)


# ---------------------------------------------------------------------------
# rank-1 structure: dim hom((R,f),(R,g)) = 1 exactly when f = g
# ---------------------------------------------------------------------------

def test_rank_one_hom_dimension_table():
    reps = [P(0), P(1), X, X + P(1), X * X, P(0, 3)]
    for f in reps:
        for g in reps:
            hs = hom_space(line(f), line(g), 32)
            assert hs.dimension == (1 if f == g else 0)


def test_equal_lines_hom_is_the_constants():
    hs = hom_space(line(X), line(X), 32)
    assert hs.dimension == 1
    assert hs.basis[0] == PolyMat(1, 1, [P(1)])


# ---------------------------------------------------------------------------
# constants and triviality
# ---------------------------------------------------------------------------

def test_constants_of_nilpotent_jordan_block():
    basis = constants(NILPOTENT)
    cols = {tuple(str(v.entry(i, 0)) for i in range(2)) for v in basis}
    assert cols == {("1", "0"), ("-x", "1")}


def test_nilpotent_jordan_block_is_trivial():
    res = is_trivial(NILPOTENT)
    assert res.trivial
    assert res.constants_dim == 2
    cert = res.certificate
    assert cert.backward == PolyMat(2, 2, [P(1), -X, P(0), P(1)])
    det = cert.backward.determinant()
    assert det.is_constant() and not det.is_zero()
    assert verify_hom(cert.backward, trivial_module(DiffRing.POLY_DX, 2),
                      NILPOTENT)


def test_unit_line_has_no_constants():
    assert len(constants(line(P(1)))) == 0
    res = is_trivial(line(P(1)))
    assert not res.trivial
    assert res.constants_dim == 0


def test_trivial_module_is_trivial():
    res = is_trivial(trivial_module(DiffRing.POLY_DX, 3))
    assert res.trivial
    assert res.certificate.forward == PolyMat.identity(3)


def test_constants_additive_over_direct_sum():
    p, q = line(X), NILPOTENT
    assert len(constants(direct_sum(p, q), 16)) == \
        len(constants(p, 16)) + len(constants(q, 16))


# ---------------------------------------------------------------------------
# degree cap policy
# ---------------------------------------------------------------------------

def test_cap_policy_const_ring():
    M = DiffModule(DiffRing.CONST_ZERO, 2, PolyMat.identity(2))
    cap, proven = resolve_deg_cap(M, M, None)
    assert cap == 0 and proven


def test_cap_policy_constant_matrices_proven():
    M = mod2(P(1), P(0), P(0), P(2))
    cap, proven = resolve_deg_cap(M, M, None)
    assert cap == 32 and proven  # max(32, 2*2)


def test_cap_policy_nonconstant_not_proven():
    cap, proven = resolve_deg_cap(line(X), line(X), None)
    assert cap == 32 and not proven


def test_cap_policy_explicit_cap_wins():
    cap, proven = resolve_deg_cap(line(X), line(X), 7)
    assert cap == 7 and not proven


@pytest.mark.parametrize("cap", [-1, 1.5, "3", True, False, Fraction(2)],
                         ids=["negative", "float", "str", "true", "false", "fraction"])
def test_a_cap_that_is_not_an_int_is_an_input_error(cap):
    # before the check, 1.5 and "3" failed with TypeError deep in the chain,
    # True came back as HomSpace(deg_cap=True) and core(M, 2.5) answered
    from diffmod.cores import cancel_free, core
    M = line(X)
    padded = direct_sum(M, trivial_module(DiffRing.POLY_DX, 1))
    cert = identity_certificate(padded)
    for call in (lambda: hom_space(M, M, cap), lambda: is_trivial(M, cap),
                 lambda: iso_search(M, mod2(X, P(0), P(0), X), deg_cap=cap),
                 lambda: iso_search(M, M, deg_cap=cap), lambda: core(M, cap),
                 lambda: cancel_free(padded, padded, 0, cert, deg_cap=cap)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'degree cap must be nonnegative, got {cap!r}')}$"):
            call()
    const = DiffModule(DiffRing.CONST_ZERO, 1, PolyMat(1, 1, [P(2)]))
    with pytest.raises(ValueError, match="degree cap"):
        iso_search(const, const, deg_cap=cap)


@pytest.mark.parametrize("trials", [-1, 2.5, "3", True, None],
                         ids=["negative", "float", "str", "true", "none"])
def test_a_trial_count_that_is_not_an_int_is_an_input_error(trials):
    # before the check, -1 answered UNKNOWN with trials_used=-1, 2.5 raised
    # TypeError and True ran one trial
    base = mod2(P(0), X, P(1), P(0))
    twisted, _ = scramble(base, seed=21)
    for Q in (twisted, line(X)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'trial count must be nonnegative, got {trials!r}')}$"):
            iso_search(base, Q, trials=trials)
    assert iso_search(base, twisted, trials=0).trials_used == 0


def const_module(rows) -> DiffModule:
    return DiffModule(DiffRing.CONST_ZERO, len(rows), PolyMat.from_rows(
        [[P(Fraction(v)) for v in row] for row in rows]))


J2 = const_module([[1, 1], [0, 1]])
I2 = const_module([[1, 0], [0, 1]])


def intertwiner_basis(src: DiffModule, tgt: DiffModule):
    """Primitive integer basis of the kernel of vec(T) |-> vec(T A - B T),
    vec column-major, one vector per free column of the reduced row echelon
    form in ascending order, first nonzero entry positive; by a plain
    Fraction Gauss-Jordan elimination."""
    n, m = src.rank, tgt.rank
    A, B = src.matrix.to_ratmat(), tgt.matrix.to_ratmat()
    rows = []
    for r in range(m * n):
        i, j = r % m, r // m
        row = [Fraction(0)] * (m * n)
        for k in range(n):
            row[i + m * k] += A.entry(k, j)
        for k in range(m):
            row[k + m * j] -= B.entry(i, k)
        rows.append(row)
    pivots = []
    for c in range(m * n):
        p = next((r for r in range(len(pivots), len(rows)) if rows[r][c]), None)
        if p is None:
            continue
        k = len(pivots)
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [v / rows[k][c] for v in rows[k]]
        for r in range(len(rows)):
            if r != k and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(m * n) if c not in pivots):
        x = [Fraction(0)] * (m * n)
        x[fc] = Fraction(1)
        for k, pc in enumerate(pivots):
            x[pc] = -rows[k][fc]
        den = math.lcm(*(v.denominator for v in x))
        ints = [int(v * den) for v in x]
        g = math.gcd(*ints)
        lead = next(v for v in ints if v)
        ints = [v // (g if lead > 0 else -g) for v in ints]
        basis.append(PolyMat(m, n, [P(ints[i + m * j])
                                    for i in range(m) for j in range(n)]))
    return basis


def test_const_ring_hom_is_intertwiner_space():
    d12 = DiffModule(DiffRing.CONST_ZERO, 2,
                     PolyMat(2, 2, [P(1), P(0), P(0), P(2)]))
    hs = hom_space(d12, d12)
    assert hs.dimension == 2
    assert hs.proven_complete
    assert hs.deg_cap == 0
    other = DiffModule(DiffRing.CONST_ZERO, 2,
                       PolyMat(2, 2, [P(3), P(0), P(0), P(4)]))
    assert hom_space(d12, other).dimension == 0
    rect = const_module([[1, Fraction(1, 2), 0], [0, 1, 0], [0, 0, 2]])
    scalar = const_module([[2, 0], [0, 2]])
    for src, tgt in [(d12, d12), (d12, other), (J2, I2), (I2, J2), (J2, J2),
                     (rect, J2), (J2, rect), (rect, scalar), (scalar, scalar)]:
        expected = intertwiner_basis(src, tgt)
        assert list(hom_space(src, tgt).basis) == expected
        at_ten = hom_space(src, tgt, 10)
        assert list(at_ten.basis) == expected
        assert at_ten.deg_cap == 10 and at_ten.proven_complete


# ---------------------------------------------------------------------------
# proven completeness: an invertible top layer, and rank stabilization of
# the chain for constant matrices (both checked against the oracle)
# ---------------------------------------------------------------------------

def poly_module(rows) -> DiffModule:
    return DiffModule(DiffRing.POLY_DX, len(rows), PolyMat.from_rows(
        [[v if isinstance(v, Poly) else P(v) for v in row] for row in rows]))


def nilpotent_jordan(n):
    return [[1 if c == r + 1 else 0 for c in range(n)] for r in range(n)]


def shear_conjugate(rows, rng):
    """S A S^-1 for an integer shear product S: dense, same Jordan form."""
    n = len(rows)
    A = RatMat.from_rows([[Fraction(v) for v in row] for row in rows])
    S = RatMat.identity(n)
    for _ in range(n + 1 if n > 1 else 0):
        i = rng.randint(0, n - 1)
        j = (i + rng.randint(1, n - 1)) % n
        E = RatMat.identity(n).to_rows()
        E[i][j] = Fraction(rng.nonzero_int(2))
        S = RatMat.from_rows(E) @ S
    return (S @ A @ S.inverse()).to_rows()


ZERO_LINE = poly_module([[0]])


def assert_same_space_at_default_cap(src, tgt):
    cap, _ = resolve_deg_cap(src, tgt, None)
    fast = hom_space(src, tgt)
    assert fast.basis == hom_space(src, tgt, cap).basis
    assert fast.dimension == len(oracle_hom_basis(src, tgt, cap))


def test_nilpotent_chain_matches_oracle_at_every_cap():
    # hom((R^k, N), (R, 0)) has L = N^T, of nilpotent index k; caps below
    # k - 1 give no early stop and the kernel ker L^(cap + 1)
    rng = StableRng(505)
    for k in range(1, 6):
        jordan = nilpotent_jordan(k)
        for rows in (jordan, shear_conjugate(jordan, rng)):
            src = poly_module(rows)
            for cap in range(6):
                assert_same_space(src, ZERO_LINE, cap)
                assert_same_space(ZERO_LINE, src, cap)
            assert_same_space_at_default_cap(src, ZERO_LINE)
            hs = hom_space(src, ZERO_LINE)
            assert hs.dimension == k and hs.proven_complete


def test_mixed_constant_chain_matches_oracle_at_every_cap():
    # a nilpotent block beside an invertible one: the rank of L^d falls to
    # a nonzero floor, so the kernel chain stops at two equal nonzero ranks
    rng = StableRng(506)
    for k in range(1, 4):
        rows = [[0] * (k + 1) for _ in range(k + 1)]
        for r, row in enumerate(nilpotent_jordan(k)):
            rows[r][:k] = row
        rows[k][k] = 2
        for A in (rows, shear_conjugate(rows, rng)):
            src = poly_module(A)
            for tgt in (ZERO_LINE, poly_module(nilpotent_jordan(2)), src):
                for cap in range(6):
                    assert_same_space(src, tgt, cap)
            assert_same_space_at_default_cap(src, ZERO_LINE)


def test_rank_stabilization_proves_small_caps():
    # hom(J3, J3): L = J3^T (x) I - I (x) J3 is nilpotent of index 5, so
    # solutions have degree <= 4 and ker L^5 = ker L^6 is the first equal
    # pair of the kernel chain: from cap 4 on (j = 5 <= cap + 1) the chain
    # proves the basis complete
    src = poly_module(nilpotent_jordan(3))
    tgt = poly_module(nilpotent_jordan(3))
    complete = hom_space(src, tgt).basis
    for cap in range(9):
        hs = hom_space(src, tgt, cap)
        assert hs.proven_complete == (cap >= 4)
        assert (hs.basis == complete) == (cap >= 4)
        assert_same_space(src, tgt, cap)


def jordan_rows(blocks):
    """Block-diagonal Jordan matrix, one (eigenvalue, size) per block."""
    n = sum(size for _, size in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for lam, size in blocks:
        for r in range(at, at + size):
            rows[r][r] = lam
            if r + 1 < at + size:
                rows[r][r + 1] = 1
        at += size
    return rows


def sylvester_matrix(a: RatMat, b: RatMat) -> RatMat:
    """A^T (x) I - I (x) B, the matrix of vec(T) |-> vec(T A - B T) for
    n x n A and m x m B, vec column-major: row i + m*j, column i2 + m*k."""
    n, m = a.rows, b.rows
    return RatMat(m * n, m * n, [
        (a.entry(k, j) if i == i2 else 0) - (b.entry(i, i2) if j == k else 0)
        for j in range(n) for i in range(m) for k in range(n) for i2 in range(m)])


def fitting_index(src, tgt):
    """The least j >= 1 with rank S^j = rank S^(j+1), for constant A and B
    and S their sylvester_matrix; ranks by rat_nullspace."""
    S = sylvester_matrix(src.matrix.to_ratmat(), tgt.matrix.to_ratmat())
    power, j = S, 1
    while len(rat_nullspace(power)) != len(rat_nullspace(power @ S)):
        power, j = power @ S, j + 1
    return j


def test_kernel_chain_proves_completeness_from_the_fitting_index():
    # for constant A and B every solution has degree < nu, the Fitting
    # index of S, and the kernel chain finds ker S^nu = ker S^(nu+1) once
    # nu <= cap + 1: the flag is set exactly from cap nu - 1 on
    rng = StableRng(1010)
    pairs = [(poly_module(nilpotent_jordan(n)), poly_module(nilpotent_jordan(m)))
             for n in (1, 2, 3) for m in (1, 2, 3)]
    for _ in range(8):
        def rand_blocks():
            sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
            return [(rng.randint(0, 1), size) for size in sizes]
        src = poly_module(shear_conjugate(jordan_rows(rand_blocks()), rng))
        tgt = poly_module(shear_conjugate(jordan_rows(rand_blocks()), rng))
        pairs.append((src, tgt))
    seen = set()
    for src, tgt in pairs:
        nu = fitting_index(src, tgt)
        seen.add(nu)
        for cap in range(nu + 2):
            assert_same_space(src, tgt, cap)
            assert hom_space(src, tgt, cap).proven_complete == (cap >= nu - 1)
    assert {1, 2, 3, 5} <= seen


def test_top_layer_matches_oracle_singular_and_invertible():
    # E >= 1: the top layer L_E = A_E^T (x) I - I (x) B_E is invertible
    # exactly when A_E and B_E share no eigenvalue
    rng = StableRng(707)
    seen = set()
    for _ in range(24):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        E = rng.randint(1, 2)

        def rand_rows(k):
            return [[Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, E + 1))])
                     for _ in range(k)] for _ in range(k)]
        src, tgt = poly_module(rand_rows(n)), poly_module(rand_rows(m))
        top = max(src.matrix.max_degree(), tgt.matrix.max_degree())
        if top == 0:
            continue
        L = sylvester_matrix(src.matrix.coefficient_matrix(top),
                             tgt.matrix.coefficient_matrix(top))
        invertible = not rat_nullspace(L)
        seen.add(invertible)
        for cap in range(5):
            assert_same_space(src, tgt, cap)
        hs = hom_space(src, tgt)
        if invertible:
            assert hs.dimension == 0 and hs.proven_complete
    assert seen == {True, False}


def singular_top_pairs():
    """Seeded pairs with E = 1, 2, 3 whose top coefficients are triangular
    with one shared eigenvalue, so the top layer L_E is singular: random
    pairs, each module against itself (the identity is a hom) and against
    its sum with another; and x^E I + N, N a nilpotent Jordan block, whose
    homs to (R, x^E) and from a scrambled copy to itself have degree 2 to 5."""
    rng = StableRng(909)
    pairs = []
    for E in (1, 2, 3):
        xe = P(*[0] * E, 1)
        jordan = poly_module([[xe, 1, 0], [0, xe, 1], [0, 0, xe]])
        pairs += [(jordan, line(xe)), (scramble(jordan, 40 + E)[0], jordan)]
        for _ in range(3):
            lam = rng.nonzero_int(2)

            def rand_rows(k):
                return [[Poly([rng.randint(-2, 2) for _ in range(E)]
                              + [lam if i == j else rng.randint(-2, 2) if j > i else 0])
                         for j in range(k)] for i in range(k)]
            src = poly_module(rand_rows(rng.randint(1, 2)))
            tgt = poly_module(rand_rows(rng.randint(1, 2)))
            pairs += [(src, tgt), (src, src), (direct_sum(src, tgt), src)]
    return pairs


# hom((R^2, [[x, 1], [0, x]]), (R, x)): T = (t1, t2) with t1' = 0 and
# t2' = t1, so the homs are (0, 1) of degree 0 and (1, x) of degree 1
JORDAN_X = poly_module([[X, 1], [0, X]])
# hom((R^3, x I + N), (R, x)) is spanned by (0, 0, 1), (0, 1, x) and
# (1, x, x^2/2), of degrees 0, 1 and 2
JORDAN3_X = poly_module([[X, 1, 0], [0, X, 1], [0, 0, X]])
# hom((R^2, [[3, 0], [40000, 0]]), (R, 0)) is spanned by (40000, -3): the
# entry -40000/3 of its kernel vector has no reconstruction mod one prime
# near 2**30, whose bounds are about 2**14.5
TWO_PRIME = (poly_module([[3, 0], [40000, 0]]), ZERO_LINE)


def seeded_constant_pairs():
    """Seeded pairs of constant matrices (E = 0): shear conjugates of Jordan
    matrices with eigenvalues 0, 1/2, 1 and -1/3, conjugated twice so that
    their kernels have larger entries, each against another, against
    itself and from its sum with the other; and TWO_PRIME."""
    rng = StableRng(1111)
    pairs = [TWO_PRIME]
    for _ in range(10):
        def rand_module():
            blocks = [((0, Fraction(1, 2), 1, Fraction(-1, 3))[rng.randint(0, 3)],
                       rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            rows = shear_conjugate(jordan_rows(blocks), rng)
            return poly_module(shear_conjugate(rows, rng))
        src, tgt = rand_module(), rand_module()
        pairs += [(src, tgt), (src, src), (direct_sum(src, tgt), tgt)]
    return pairs


def digest_jobs():
    """(A, B, cap) at caps 0-6 and the default cap for the seeded constant
    pairs, singular_top_pairs(), JORDAN_X and JORDAN3_X to (R, x)."""
    pairs = seeded_constant_pairs() + singular_top_pairs() + [
        (JORDAN_X, line(X)), (JORDAN3_X, line(X))]
    for src, tgt in pairs:
        default, _ = resolve_deg_cap(src, tgt, None)
        for cap in [*range(7), default]:
            yield src.matrix, tgt.matrix, cap


def basis_digest(jobs):
    """sha256 of the chain's (basis, proven) on each job, in order."""
    h = hashlib.sha256()
    for A, B, cap in jobs:
        basis, proven = modules._poly_hom_basis(A, B, cap)
        h.update(repr(([(T.rows, T.cols, [[str(c) for c in e.coeffs] for e in T.entries])
                        for T in basis], proven)).encode())
    return h.hexdigest()


def test_hom_chain_matches_the_golden_digest():
    # recorded with the exact rational chain (Bareiss eliminations of the
    # E = 0 kernel chain and of the E >= 1 window), which every later
    # solver must reproduce byte for byte
    assert basis_digest(digest_jobs()) == \
        "191ece4e988f56710a1d1c7ca23479b616be55ee8977f3a8847945540f38f3a9"


def spy_primes(mp):
    """Patch the chain's primes to record each one it draws."""
    drawn, real = [], modules._primes

    def primes():
        for p in real():
            drawn.append(p)
            yield p
    mp.setattr(modules, "_primes", primes)
    return drawn


def test_singular_top_layers_match_the_oracle_at_one_prime(monkeypatch):
    # E >= 1 with a singular top layer: the bases are pinned by the golden
    # digest; at every cap the flag stays unset and the first prime's
    # kernel lifts and checks, so its dimension is the basis's
    seen = set()
    for src, tgt in singular_top_pairs():
        A, B = src.matrix, tgt.matrix
        assert len(modules._sylvester_layers(A, B)[0]) > 1
        default, _ = resolve_deg_cap(src, tgt, None)
        for cap in [*range(6), default]:
            with monkeypatch.context() as mp:
                drawn = spy_primes(mp)
                basis, proven = modules._poly_hom_basis(A, B, cap)
            assert not proven and drawn == [MODP]
            seen.add(len(basis) > 0)
        assert_same_space(src, tgt, 3)
    assert seen == {True, False}


def test_corrupted_first_prime_lift_falls_back_to_the_next_prime(monkeypatch):
    # a first-prime lift that is not in the canonical form is refused; the
    # next prime has the same pivots, so the CRT joins their residues
    A, B = JORDAN_X.matrix, line(X).matrix
    expected = [PolyMat(1, 2, [P(1), X]), PolyMat(1, 2, [P(0), P(1)])]
    real = modules._lift_vector

    def corrupt(x, M):
        t0 = real(x, M)
        return [t0[0] + 1, *t0[1:]] if M == MODP else t0
    for cap in (1, 3, 32):
        assert modules._poly_hom_basis(A, B, cap) == (expected, False)
        with monkeypatch.context() as mp:
            mp.setattr(modules, "_lift_vector", corrupt)
            drawn = spy_primes(mp)
            assert modules._poly_hom_basis(A, B, cap) == (expected, False)
        assert len(drawn) == 2
        assert_same_space(JORDAN_X, line(X), cap)


def test_corrupted_lift_that_fails_the_check_falls_back(monkeypatch):
    # at cap 1 the solutions (0, 0, 1) and (0, 1, x) leave T_0[0] = 0; a
    # lift with T_0[0] = 1 starts a solution of degree 2 and fails the check
    A, B = JORDAN3_X.matrix, line(X).matrix
    real = modules._lift_vector
    with monkeypatch.context() as mp:
        mp.setattr(modules, "_lift_vector", lambda x, M: (
            [1, *real(x, M)[1:]] if M == MODP else real(x, M)))
        drawn = spy_primes(mp)
        basis, proven = modules._poly_hom_basis(A, B, 1)
    assert len(drawn) == 2 and not proven
    assert basis == [PolyMat(1, 3, [P(0), P(1), X]), PolyMat(1, 3, [P(0), P(0), P(1)])]


def test_modp_window_declines_when_p_divides_a_denominator(monkeypatch):
    # line(x / p): sigma = p, so the window skips p and runs at the next prime
    src = line(X * Fraction(1, MODP))
    layers, sigma = modules._sylvester_layers(src.matrix, src.matrix)
    assert sigma == MODP and len(layers) == 2
    primes = []
    real = modules._modp_window
    with monkeypatch.context() as mp:
        mp.setattr(modules, "_modp_window", lambda *args: (
            primes.append(args[-1]), real(*args))[1])
        modules._hom_basis_cached.cache_clear()
        hs = hom_space(src, src, 5)
    assert primes == [2 ** 30 - 41]
    assert hs.dimension == 1 and not hs.proven_complete
    assert_same_space(src, src, 5)


def test_lines_singular_only_mod_p_are_proven_zero_both_ways(monkeypatch):
    # L = T |-> p T (or -p T) vanishes mod p = MODP: the first prime's
    # kernel lifts to 1, which fails the check; the next proves {0}
    src, tgt = line(P(MODP)), ZERO_LINE
    for a, b in ((src, tgt), (tgt, src)):
        with monkeypatch.context() as mp:
            drawn = spy_primes(mp)
            assert modules._poly_hom_basis(a.matrix, b.matrix, 3) == ([], True)
        assert len(drawn) == 2
        for cap in (0, 3):
            assert_same_space(a, b, cap)
        hs = hom_space(a, b)
        assert hs.dimension == 0 and hs.proven_complete


def test_constant_pair_whose_kernel_needs_two_primes(monkeypatch):
    moduli = []
    real = modules._lift_vector
    with monkeypatch.context() as mp:
        mp.setattr(modules, "_lift_vector", lambda x, M: (moduli.append(M), real(x, M))[1])
        basis, proven = modules._poly_hom_basis(TWO_PRIME[0].matrix, TWO_PRIME[1].matrix, 32)
    assert moduli == [MODP, MODP * (2 ** 30 - 41)]
    assert basis == [PolyMat(1, 2, [P(40000), P(-3)])] and proven
    for cap in range(3):
        assert_same_space(*TWO_PRIME, cap)
    assert_same_space_at_default_cap(*TWO_PRIME)


def test_basis_degree_equal_to_the_cap():
    # hom((R^3, x I + N), (R, x)) is spanned by (0, 0, 1), (0, 1, x) and
    # (1, x, x^2/2): at caps 1 and 2 the top basis element has degree = cap
    for cap in range(5):
        basis, proven = modules._poly_hom_basis(JORDAN3_X.matrix, line(X).matrix, cap)
        assert len(basis) == min(cap, 2) + 1 and not proven
        assert max(T.max_degree() for T in basis) == min(cap, 2)
        assert_same_space(JORDAN3_X, line(X), cap)


def test_window_cap_without_a_prime_is_an_input_error():
    # E >= 1 with a singular top layer divides by every d + 1 <= cap + E + 1
    # mod p < 2**30; an invertible top layer or E = 0 needs no window
    with pytest.raises(ValueError, match="degree cap"):
        hom_space(JORDAN_X, line(X), 2 ** 30)
    hs = hom_space(line(X), line(X + X), 2 ** 30)
    assert hs.dimension == 0 and hs.proven_complete
    hs = hom_space(NILPOTENT, NILPOTENT, 2 ** 30)
    assert hs.basis == hom_space(NILPOTENT, NILPOTENT).basis and hs.proven_complete


def rectangular_hom_jobs():
    """240 seeded (src, tgt, cap) with nonzero hom spaces: m, n in 1..4,
    E in 0..3 over poly_dx and cap 0 over const_zero, non-integer Fraction
    coefficients.  src = C + Z and tgt = S C S^-1 + W for a shared block C
    of rank r <= min(m, n), a rational shear product S and random Z, W;
    every other C is f I + N, N a nilpotent Jordan block, whose
    endomorphisms have degrees up to r - 1."""
    rng = StableRng(1616)
    jobs = []
    for k in range(240):
        ring = DiffRing.CONST_ZERO if k % 5 == 4 else DiffRing.POLY_DX
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        E = rng.randint(0, 3) if ring is DiffRing.POLY_DX else 0
        r = rng.randint(1, min(n, m))

        def entry():
            return Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(E + 1)])

        def block(size):
            return PolyMat(size, size, [entry() for _ in range(size * size)])
        if k % 2:
            f = entry()
            C = PolyMat(r, r, [f if i == j else P(int(j == i + 1))
                               for i in range(r) for j in range(r)])
        else:
            C = block(r)
        S = RatMat.identity(r)
        for _ in range(r if r > 1 else 0):
            i = rng.randint(0, r - 1)
            j = (i + rng.randint(1, r - 1)) % r
            rows = RatMat.identity(r).to_rows()
            rows[i][j] = Fraction(rng.nonzero_int(3), rng.randint(1, 2))
            S = RatMat.from_rows(rows) @ S
        gauged = S.to_polymat() @ C @ S.inverse().to_polymat()
        src = DiffModule(ring, n, PolyMat.block_diag(C, block(n - r)))
        tgt = DiffModule(ring, m, PolyMat.block_diag(gauged, block(m - r)))
        jobs.append((src, tgt, 0 if ring is DiffRing.CONST_ZERO else rng.randint(2, 5)))
    return jobs


def test_poly_hom_basis_elements_pass_verify_hom():
    # hom_space re-checks nothing on a cache miss: every element rests on
    # _hom_run's integer recurrence over _sylvester_layers, which must be
    # the true operator T |-> T A - B T
    shapes, degrees, elements, positive = set(), set(), 0, 0
    for src, tgt, cap in rectangular_hom_jobs():
        basis, _ = modules._poly_hom_basis(src.matrix, tgt.matrix, cap)
        assert basis
        shapes.add((tgt.rank, src.rank))
        degrees.add(max(src.matrix.max_degree(), tgt.matrix.max_degree()))
        for T in basis:
            assert T.max_degree() <= cap
            assert verify_hom(T, src, tgt)
            elements += 1
            positive += T.max_degree() > 0
    assert len(shapes) == 16 and degrees == {0, 1, 2, 3}
    assert elements >= 300 and positive >= 100


def test_cache_miss_runs_no_substitution_check(monkeypatch):
    calls = []
    monkeypatch.setattr(modules, "_vanishes", lambda *r: calls.append(r))
    modules._hom_basis_cached.cache_clear()
    try:
        hs = hom_space(JORDAN_X, line(X), 3)
        assert modules._hom_basis_cached.cache_info().misses == 1
    finally:
        modules._hom_basis_cached.cache_clear()
    assert hs.dimension == 2 and calls == []


def test_invertible_top_layer_gives_proven_zero_hom():
    hs = hom_space(line(X), line(X + X), 3)
    assert hs.dimension == 0 and hs.proven_complete and hs.deg_cap == 3
    src = mod2(X, P(1), P(0), X * X)  # top layers diag(0, 1), diag(2, 3)
    tgt = mod2(P(0, 0, 2), P(0), P(1), P(2, 0, 3))
    hs = hom_space(src, tgt)
    assert hs.dimension == 0 and hs.proven_complete


def test_line_with_invertible_top_coefficient_is_proven_not_trivial():
    for cap in (None, 0, 5):
        res = is_trivial(line(X * X + P(1)), cap)
        assert not res.trivial and res.constants_dim == 0
        assert res.proven_complete


def test_default_cap_agrees_with_a_larger_cap_when_proven():
    rng = StableRng(808)
    pairs = [(line(X), line(X + X)), (NILPOTENT, NILPOTENT),
             (mod2(X, P(1), P(0), X * X), line(P(0, 0, 2)))]
    for k in range(1, 4):
        A = shear_conjugate(nilpotent_jordan(k), rng)
        pairs.append((poly_module(A), poly_module(nilpotent_jordan(2))))
    for src, tgt in pairs:
        default = hom_space(src, tgt)
        assert default.proven_complete
        larger = hom_space(src, tgt, src.rank * tgt.rank + 10)
        assert list(default.basis) == list(larger.basis)


def test_hom_rejects_mixed_rings():
    with pytest.raises(RingMismatch):
        hom_space(line(X), DiffModule(DiffRing.CONST_ZERO, 1,
                                      PolyMat(1, 1, [P(1)])))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_requires_two_sided_inverse():
    with pytest.raises(CertificateInvalid):
        make_iso_certificate(line(X), line(X), PolyMat(1, 1, [P(2)]),
                             PolyMat(1, 1, [P(1)]))
    cert = make_iso_certificate(line(X), line(X), PolyMat(1, 1, [P(2)]),
                                PolyMat(1, 1, [Fraction(1, 2)]))
    assert cert.forward.entry(0, 0) == P(2)


def test_certificate_rejects_non_hom():
    with pytest.raises(CertificateInvalid):
        make_iso_certificate(line(X), line(X * X), PolyMat(1, 1, [P(1)]),
                             PolyMat(1, 1, [P(1)]))


def test_identity_certificate():
    cert = identity_certificate(NILPOTENT)
    assert cert.forward == PolyMat.identity(2)


@pytest.mark.parametrize("ring", list(DiffRing))
def test_certificate_rejects_a_one_sided_inverse(ring):
    forward = PolyMat(2, 1, [P(1), P(0)])
    backward = PolyMat(1, 2, [P(1), P(0)])
    assert backward @ forward == PolyMat.identity(1)
    with pytest.raises(CertificateInvalid, match="forward . backward"):
        make_iso_certificate(trivial_module(ring, 1), trivial_module(ring, 2),
                             forward, backward)


# ---------------------------------------------------------------------------
# verify_hom against a plain Fraction substitution
# ---------------------------------------------------------------------------

def substitution_is_hom(T: PolyMat, src: DiffModule, tgt: DiffModule) -> bool:
    """T' == T A - B T entry by entry, in plain Poly arithmetic."""
    A, B = src.matrix, tgt.matrix
    for i in range(T.rows):
        for j in range(T.cols):
            lhs = T.entry(i, j).derivative() if src.ring is DiffRing.POLY_DX else Poly.zero()
            rhs = Poly.zero()
            for k in range(src.rank):
                rhs = rhs + T.entry(i, k) * A.entry(k, j)
            for k in range(tgt.rank):
                rhs = rhs - B.entry(i, k) * T.entry(k, j)
            if lhs != rhs:
                return False
    return True


def seeded_hom_pairs():
    """Module pairs over both rings with nonzero hom spaces, square and not."""
    rng = StableRng(808)
    pairs = []
    for n in (1, 2, 3):
        base = DiffModule(DiffRing.POLY_DX, n, PolyMat(n, n, [
            Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(rng.randint(0, 2))]) for _ in range(n * n)]))
        twisted, _ = scramble(base, seed=rng.randint(0, 10 ** 6), ops=3 * n + 3)
        pairs += [(base, twisted), (twisted, direct_sum(base, line(X))),
                  (direct_sum(twisted, line(X * X)), base),
                  (trivial_module(DiffRing.POLY_DX, n),
                   poly_module(nilpotent_jordan(n + 1)))]
        A, B, _ = random_similar_pair(rng, n)
        src = DiffModule(DiffRing.CONST_ZERO, n, A.to_polymat())
        tgt = DiffModule(DiffRing.CONST_ZERO, n, B.to_polymat())
        pairs += [(src, tgt), (src, direct_sum(tgt, const_module([[2]]))),
                  (direct_sum(const_module([[Fraction(1, 2)]]), src), tgt)]
    return pairs


def test_verify_hom_matches_substitution_on_seeded_homs_and_perturbations():
    checked = rejected = 0
    for src, tgt in seeded_hom_pairs():
        basis = hom_space(src, tgt).basis
        assert basis
        for T in basis:
            assert verify_hom(T, src, tgt) and substitution_is_hom(T, src, tgt)
            # one coefficient changed, by an integer or a rational, at every
            # position of every entry up to deg T + 1
            for idx, e in enumerate(T.entries):
                for d in range(T.max_degree() + 2):
                    for delta in (Fraction(1), Fraction(-3, 7)):
                        cs = list(e.coeffs) + [Fraction(0)] * (d + 1 - len(e.coeffs))
                        cs[d] += delta
                        entries = list(T.entries)
                        entries[idx] = Poly(cs)
                        bent = PolyMat(T.rows, T.cols, entries)
                        expected = substitution_is_hom(bent, src, tgt)
                        assert verify_hom(bent, src, tgt) == expected
                        checked += 1
                        rejected += not expected
    assert checked > 500 and rejected > 0.9 * checked


def test_verify_hom_on_rank_zero_and_empty_maps():
    for ring in DiffRing:
        zero, two = trivial_module(ring, 0), trivial_module(ring, 2)
        for src, tgt in [(zero, zero), (zero, two), (two, zero)]:
            T = PolyMat(tgt.rank, src.rank, [])
            assert verify_hom(T, src, tgt) and substitution_is_hom(T, src, tgt)
    with pytest.raises(ShapeMismatch):
        verify_hom(PolyMat(1, 2, [P(1), P(0)]), line(X), line(X))


@pytest.mark.parametrize("h", [1, 2, 7, 64])
def test_verify_hom_residual_at_the_bound(h):
    # T = 1 from (R, 0) to (R, 2^h - x): the residual B T = 2^h - x has the
    # coefficient bound 2^h + 1, so the check evaluates at x = 2^(h+1); at
    # x = 2^h, one bit short, the residual would vanish
    src, tgt = line(P(0)), line(P(2 ** h, -1))
    T = PolyMat(1, 1, [P(1)])
    assert not substitution_is_hom(T, src, tgt)
    assert not verify_hom(T, src, tgt)
    with pytest.raises(CertificateInvalid):
        make_iso_certificate(src, tgt, T, T)


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def test_not_iso_different_ranks():
    r = iso_search(line(X), NILPOTENT)
    assert r.kind == "not_iso"
    assert "rank" in r.witness


def test_not_iso_lines_with_different_exponents():
    r = iso_search(line(X), line(X * X))
    assert r.kind == "not_iso"
    assert "dimension 0" in r.witness


def test_proven_zero_hom_witness_names_one_cap():
    # the top layers x and x^2 differ, so hom = {0} is proven both ways
    r = iso_search(line(X), line(X * X), deg_cap=4)
    assert r.kind == "not_iso"
    assert r.witness == "hom space P->Q has dimension 0 (degree cap 4)"


def test_zero_hom_witness_uses_the_zero_direction(monkeypatch):
    import diffmod.modules as modules
    src, tgt = line(X), line(X + P(1))

    def fake_hom_space(a, b, cap):
        if a is src:  # P->Q: nonzero and only cap-relative
            return modules.HomSpace(a, b, (PolyMat(1, 1, [P(1)]),), cap, False)
        return modules.HomSpace(a, b, (), cap, True)
    monkeypatch.setattr(modules, "hom_space", fake_hom_space)
    r = iso_search(src, tgt, deg_cap=6)
    assert r.kind == "not_iso"
    assert r.witness == "hom space Q->P has dimension 0 (degree cap 6)"


AIRY = mod2(P(0), P(1), X, P(0))


def gauged(src: DiffModule, D: int):
    """src conjugated by U = [[1, x^D], [0, 1]]: (Q, U, U^-1), U an
    isomorphism src -> Q of degree D, and every hom AIRY -> Q has degree D."""
    U = PolyMat(2, 2, [P(1), Poly([0] * D + [1]), P(0), P(1)])
    Uinv = PolyMat(2, 2, [P(1), Poly([0] * D + [-1]), P(0), P(1)])
    B = (U @ src.matrix - U.derivative()) @ Uinv
    return DiffModule(DiffRing.POLY_DX, 2, B), U, Uinv


def test_gauged_pairs_are_never_refuted():
    # a zero hom space at the cap is no proof when it is cap-relative: past
    # the cap the answer is UNKNOWN, never NOT_ISO (x^50 against AIRY was
    # refuted by zero spaces at caps 32 and 42)
    rng = StableRng(5050)
    sources = [AIRY] + [mod2(*[Poly([Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                                     for _ in range(2)]) for _ in range(4)])
                        for _ in range(2)]
    for src in sources:
        for D in range(1, 61):
            tgt, U, Uinv = gauged(src, D)
            make_iso_certificate(src, tgt, U, Uinv)
            r = iso_search(src, tgt, seed=rng.randint(0, 2**31))
            assert r.kind == ("iso" if D <= 32 else "unknown"), (src, D)
            if r.kind == "unknown":
                assert r.witness == ("hom space P->Q has dimension 0 "
                                     "(degree cap 32, not proven complete)")
                assert r.trials_used == 0
    tgt, _, _ = gauged(AIRY, 50)
    r = iso_search(AIRY, tgt, deg_cap=50)
    assert r.kind == "iso" and r.certificate.forward.max_degree() == 50


ONE = trivial_module(DiffRing.POLY_DX, 1)
GAUGED_AIRY = gauged(AIRY, 1)[0]


def replace_spaces(mp, changed):
    """Patch hom_space so that the pairs in changed get (dimension, proven)
    from it, with zero basis elements; every other pair is solved."""
    real = modules.hom_space

    def fake(a, b, cap):
        if (a, b) not in changed:
            return real(a, b, cap)
        dim, proven = changed[(a, b)]
        return modules.HomSpace(a, b, (PolyMat.zeros(b.rank, a.rank),) * dim, cap, proven)
    mp.setattr(modules, "hom_space", fake)


@pytest.mark.parametrize("proven", [True, False])
def test_constants_mismatch_is_a_proof_only_on_the_smaller_proven_side(monkeypatch, proven):
    # the larger side is never proven; only the smaller side's flag counts
    src, tgt = AIRY, GAUGED_AIRY
    replace_spaces(monkeypatch, {(ONE, src): (1, False), (ONE, tgt): (0, proven)})
    r = iso_search(src, tgt, trials=0, deg_cap=6)
    if proven:
        assert r.kind == "not_iso"
        assert r.witness == "constants dimension 1 != 0 (degree cap 6)"
    else:
        assert r.kind == "unknown"
        assert r.witness == ("constants dimension 1 != 0 (degree cap 6, not proven "
                             "complete); no invertible combination found in 0 trials")


def test_constants_mismatch_on_constant_matrices_is_proven():
    # constants of diag(0, 1) are e1, of I none; E = 0 proves both spaces
    src = poly_module([[0, 0], [0, 1]])
    tgt = poly_module([[1, 0], [0, 1]])
    r = iso_search(src, tgt)
    assert r.kind == "not_iso" and r.witness == "constants dimension 1 != 0 (degree cap 32)"


def test_cap_relative_evidence_does_not_stop_the_search(monkeypatch):
    # a zero hom space Q->P at the cap, and a constants mismatch, leave the
    # search over hom(P, Q) to run; an empty hom(P, Q) leaves nothing to try
    src, tgt = AIRY, GAUGED_AIRY
    with monkeypatch.context() as mp:
        replace_spaces(mp, {(tgt, src): (0, False), (ONE, src): (1, False)})
        assert iso_search(src, tgt, deg_cap=6).kind == "iso"
        r = iso_search(src, tgt, trials=0, deg_cap=6)
        assert r.kind == "unknown" and r.witness == (
            "hom space Q->P has dimension 0 (degree cap 6, not proven complete); "
            "no invertible combination found in 0 trials")
    replace_spaces(monkeypatch, {(src, tgt): (0, False)})
    r = iso_search(src, tgt, deg_cap=6)
    assert r.kind == "unknown" and r.trials_used == 0
    assert r.witness == "hom space P->Q has dimension 0 (degree cap 6, not proven complete)"


def test_iso_on_equal_modules_is_fast_path():
    r = iso_search(NILPOTENT, NILPOTENT, trials=0)
    assert r.kind == "iso"
    assert r.certificate.forward == PolyMat.identity(2)


def test_iso_found_on_scrambled_module():
    base = mod2(X, P(1), P(0), X * X)
    twisted, cert = scramble(base, seed=5)
    r = iso_search(base, twisted, seed=9)
    assert r.kind == "iso"
    f, b = r.certificate.forward, r.certificate.backward
    assert verify_hom(f, base, twisted)
    assert f @ b == PolyMat.identity(2)


def test_unknown_when_sampling_disabled():
    base = mod2(X, P(1), P(0), X * X)
    twisted, _ = scramble(base, seed=11)
    r = iso_search(base, twisted, trials=0)
    assert r.kind == "unknown"
    assert r.trials_used == 0


def test_iso_search_deterministic_per_seed():
    base = mod2(X, P(1), P(0), X)
    twisted, _ = scramble(base, seed=3)
    a = iso_search(base, twisted, seed=4)
    b = iso_search(base, twisted, seed=4)
    assert a.kind == b.kind == "iso"
    assert a.certificate.forward == b.certificate.forward
    assert a.trials_used == b.trials_used


# T = [[1, x, 0], [0, 1, x], [0, 0, 1]] carries (R^3, 0) to (R^3, -T' T^{-1});
# its inverse [[1, -x, x^2], [0, 1, -x], [0, 0, 1]] has degree 2
SHEAR = PolyMat(3, 3, [P(1), X, P(0), P(0), P(1), X, P(0), P(0), P(1)])
SHEARED = DiffModule(DiffRing.POLY_DX, 3,
                     PolyMat(3, 3, [P(0), P(-1), X, P(0), P(0), P(-1), P(0), P(0), P(0)]))


def test_iso_inverse_may_exceed_the_degree_cap():
    # at cap 1 every trial T has the degree of SHEAR and hom(Q, P) lacks
    # T^{-1}; the backward map is T^{-1} whatever its degree
    src = trivial_module(DiffRing.POLY_DX, 3)
    assert verify_hom(SHEAR, src, SHEARED)
    r = iso_search(src, SHEARED, deg_cap=1)
    assert r.kind == "iso" and r.trials_used == 1
    f, b = r.certificate.forward, r.certificate.backward
    assert f.max_degree() == 1 and b.max_degree() == 2
    assert verify_hom(b, SHEARED, src)
    assert b == f.inverse_unimodular()


def test_iso_non_unimodular_trial_is_internal_error(monkeypatch):
    base = mod2(X, P(1), P(0), X * X)
    twisted, _ = scramble(base, seed=5)

    def not_unimodular(self):
        raise NotUnimodular("patched")
    monkeypatch.setattr(PolyMat, "inverse_unimodular", not_unimodular)
    with pytest.raises(ArithmeticError, match="not unimodular"):
        iso_search(base, twisted, seed=9)


def test_rank_zero_modules_are_isomorphic():
    z = trivial_module(DiffRing.POLY_DX, 0)
    assert iso_search(z, z).kind == "iso"


def test_const_zero_iso_refuted_by_invariant_factors():
    # same hom dimensions and constants both ways, so only the invariant
    # factors (x-1)^2 against x-1, x-1 tell J2(1) and I2 apart
    r = iso_search(J2, I2)
    assert r.kind == "not_iso"
    assert "invariant factors differ" in r.witness
    assert r.trials_used == 0


def test_const_zero_iso_certified_without_trials():
    A, B, _ = random_similar_pair(StableRng(3), 4)
    assert A != B
    src = DiffModule(DiffRing.CONST_ZERO, 4, A.to_polymat())
    tgt = DiffModule(DiffRing.CONST_ZERO, 4, B.to_polymat())
    r = iso_search(src, tgt, trials=0)
    assert r.kind == "iso" and r.trials_used == 0
    assert verify_hom(r.certificate.forward, src, tgt)
    assert verify_hom(r.certificate.backward, tgt, src)
    assert r.certificate.forward @ r.certificate.backward == PolyMat.identity(4)


# ---------------------------------------------------------------------------
# scramble
# ---------------------------------------------------------------------------

def test_scramble_certificate_verified():
    base = mod2(P(0), X, P(1), P(0))
    twisted, cert = scramble(base, seed=21)
    assert cert.source == base and cert.target == twisted
    assert verify_hom(cert.forward, base, twisted)
    assert verify_hom(cert.backward, twisted, base)
    assert cert.forward @ cert.backward == PolyMat.identity(2)


def test_scramble_deterministic():
    base = mod2(P(0), X, P(1), P(0))
    t1, _ = scramble(base, seed=8)
    t2, _ = scramble(base, seed=8)
    assert t1 == t2


def test_scramble_rejects_const_ring():
    with pytest.raises(ValueError):
        scramble(DiffModule(DiffRing.CONST_ZERO, 1, PolyMat(1, 1, [P(1)])),
                 seed=0)


# ---------------------------------------------------------------------------
# module construction guards
# ---------------------------------------------------------------------------

def test_module_shape_guard():
    with pytest.raises(ShapeMismatch):
        DiffModule(DiffRing.POLY_DX, 2, PolyMat(1, 1, [P(0)]))


def test_const_ring_module_requires_constant_matrix():
    with pytest.raises(ValueError):
        DiffModule(DiffRing.CONST_ZERO, 1, PolyMat(1, 1, [X]))


def test_module_derivation_leibniz_property():
    M = mod2(X, P(1), P(2), X * X)
    r = X * X + P(3)
    v = PolyMat(2, 1, [X, P(1, 1)])
    assert M.derive(v.scale(r)) == v.scale(r.derivative()) + M.derive(v).scale(r)


@given(st.integers(0, 2**31), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_scramble_preserves_triviality(seed, n):
    twisted, _ = scramble(trivial_module(DiffRing.POLY_DX, n), seed=seed)
    assert is_trivial(twisted).trivial
