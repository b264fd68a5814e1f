"""Engine tests: hom spaces (cross-checked against a brute-force solver),
constants, triviality, isomorphism search, scrambling."""

import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffmod.modules as modules
from diffmod.diffring import DiffRing, RingMismatch
from diffmod.exactalg import (MODP, NotUnimodular, Poly, PolyMat, RatMat, ShapeMismatch,
                              _modp_echelon, _modp_kernel, rat_nullspace)
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


@pytest.mark.parametrize("seed", [1.5, "3", None, True], ids=["float", "str", "none", "true"])
def test_a_seed_that_is_not_an_int_is_an_input_error(seed):
    # before the check, 1.5, "3" and None failed with TypeError at the 64-bit
    # mask, and True ran as seed 1; core's pivot_seed=None means no shuffle
    from diffmod.cores import core
    base = mod2(P(0), X, P(1), P(0))
    twisted, _ = scramble(base, seed=21)
    calls = [lambda: iso_search(base, twisted, seed=seed), lambda: scramble(base, seed=seed)]
    if seed is not None:
        calls.append(lambda: core(base, pivot_seed=seed))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(f'seed must be an integer, got {seed!r}')}$"):
            call()
    # negative and huge seeds stay legal: they are masked to 64 bits
    assert StableRng(-1).next_u64() == StableRng(2**64 - 1).next_u64()
    assert StableRng(2**70 + 5).next_u64() == StableRng(5).next_u64()
    assert iso_search(base, twisted, seed=-(2**70)).kind == "iso"


_WIDE_DRAWS = """
from diffmod.rng import StableRng
rng = StableRng(1)
print(rng.randint(0, 2**64), rng.randint(-2**100, 2**100),
      max(rng.randint(0, 2**128) for _ in range(8)))
"""


def test_randint_draws_spans_above_two_to_the_64():
    # a rejection limit of 0 would reject every draw of a span above 2**64
    # and never return: the child process's timeout turns that into a failure
    src = str(Path(modules.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WIDE_DRAWS], capture_output=True,
                          text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    a, b, c = map(int, proc.stdout.split())
    assert 0 <= a <= 2**64 and -2**100 <= b <= 2**100
    assert 2**64 < c <= 2**128  # the draw reaches past one word
    # a span up to 2**64 still takes one word per draw: streams replay as before
    firsts = {2: [1, 0, 0, 1],
              2**32: [1496452567, 4097599004, 3132172802, 1732127179],
              2**64: [7191089600892374487, 309689372594955804, 16616101746815609346,
                      10753165928301472203]}
    for span, want in firsts.items():
        rng = StableRng(7)
        assert [rng.randint(0, span - 1) for _ in range(4)] == want
    rng = StableRng(7)
    assert [rng.randint(-5, 2**64 - 6) for _ in range(2)] == \
        [7191089600892374482, 309689372594955799]


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
    # exactly when A_E and B_E share no eigenvalue; both kinds are met with
    # m != n and with A_E = 0 (a source of lower degree)
    rng = StableRng(707)
    pairs = [(poly_module(nilpotent_jordan(3)), line(X * X + P(1))),
             (line(P(1)), poly_module([[X, 1], [0, 0]]))]
    for _ in range(24):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        E = rng.randint(1, 2)

        def rand_rows(k):
            return [[Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, E + 1))])
                     for _ in range(k)] for _ in range(k)]
        pairs.append((poly_module(rand_rows(n)), poly_module(rand_rows(m))))
    seen = set()
    for src, tgt in pairs:
        top = max(src.matrix.max_degree(), tgt.matrix.max_degree())
        if top == 0:
            continue
        L = sylvester_matrix(src.matrix.coefficient_matrix(top),
                             tgt.matrix.coefficient_matrix(top))
        invertible = not rat_nullspace(L)
        seen.add((invertible, src.rank != tgt.rank, src.matrix.max_degree() < top))
        for cap in range(5):
            assert_same_space(src, tgt, cap)
        hs = hom_space(src, tgt)
        if invertible:
            assert hs.dimension == 0 and hs.proven_complete
    assert {(i, r) for i, r, _ in seen} >= {(True, True), (False, True), (False, False)}
    assert {(i, z) for i, _, z in seen} >= {(True, True), (False, True)}


def test_rank_12_pair_with_an_invertible_top_layer_is_proven_zero(monkeypatch):
    # a seeded random E = 1 pair of rank 12, coefficients in -3..3: its
    # 144 x 144 top layer is decided by one elimination at the first prime
    rng = StableRng(12)

    def rand_module():
        return poly_module([[P(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(12)]
                            for _ in range(12)])
    src, tgt = rand_module(), rand_module()
    with monkeypatch.context() as mp:
        drawn = spy_primes(mp)
        modules._hom_basis_cached.cache_clear()
        hs = hom_space(src, tgt)
    assert hs.dimension == 0 and hs.proven_complete
    assert drawn == [MODP]


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


def full_product_chain(L, reduced, pivots, w, cap, p):
    """The oracle: the E = 0 kernel chain with row k of R L the sum over
    every column i of R[k][i] mod p times L[i]."""
    slot = (1 << w) - 1
    for j in range(1, cap + 2):
        nxt = _modp_echelon([sum((r >> (w * i) & slot) % p * x for i, x in enumerate(L))
                             for r in reduced], len(L), p, w)
        stable = len(nxt[1]) == len(pivots)
        if stable or j == cap + 1:
            return (j, stable), (reduced, pivots)
        reduced, pivots = nxt


def test_kernel_chain_matches_the_full_product(monkeypatch):
    # R L from the pivot rows of L and the free columns right of each pivot
    # is the full product R L, packed integer for packed integer
    real, seen = modules._modp_kernel_chain, []

    def record(*args):
        out = real(*args)
        seen.append(out[0][0])
        assert out == full_product_chain(*args)
        return out
    monkeypatch.setattr(modules, "_modp_kernel_chain", record)
    for A, B, cap in digest_jobs():
        modules._poly_hom_basis(A, B, cap)
    assert len(seen) > 100 and max(seen) >= 3


def window_pairs():
    """Seeded pairs with E = 1-5 and mn = 1-16: top coefficients triangular
    with one shared eigenvalue, so the top layer is singular, and lower
    coefficients over 1, 2 or 3; each module against another and against
    itself (the identity is a hom, so the window has a kernel); and
    J = x^E I + N, N a nilpotent Jordan block of size 1-5, to (R, x^E), and
    from a scrambled copy of J to J for sizes 2 and 3, whose homs have
    degree up to 5 through every layer of the recurrence."""
    rng = StableRng(2929)
    for E in range(1, 6):
        xe = P(*[0] * E, 1)
        for k in range(1, 6):
            jordan = poly_module([[xe if i == j else int(j == i + 1) for j in range(k)]
                                  for i in range(k)])
            yield jordan, line(xe)
            if k in (2, 3):
                yield scramble(jordan, seed=29 + E + k)[0], jordan
        for sizes in ((1, 1), (4, 4), (rng.randint(1, 4), rng.randint(1, 4))):
            lam = rng.nonzero_int(2)

            def rand_rows(k):
                return [[Poly([Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(E)]
                              + [Fraction(lam if i == j else rng.randint(-2, 2) if j > i else 0)])
                         for j in range(k)] for i in range(k)]
            src, tgt = (poly_module(rand_rows(k)) for k in sizes)
            yield src, tgt
            yield src, src


def window_terms(src, tgt):
    """(idx, vals, sigma, E): the recurrence's terms, as _poly_hom_basis
    builds them."""
    layers, sigma = modules._sylvester_layers(src.matrix, tgt.matrix)
    E, mn = len(layers) - 1, len(layers[0])
    idx = [[(E - e) * mn + c for e in range(E + 1) for c, _ in layers[e][r]] for r in range(mn)]
    vals = [[v for e in range(E + 1) for _, v in layers[e][r]] for r in range(mn)]
    return idx, vals, sigma, E


def plain_window(idx, vals, sigma, E, cap, p):
    """The oracle: G[d] entry by entry mod p, with no packing, from G[0] = I
    and G[d+1] = (sigma (d+1))^-1 sum_e L_e G[d-e]; then the reduced row
    echelon form of G[cap+1], ..., G[cap+E+1] stacked, by a plain
    Gauss-Jordan elimination mod p: (pivot rows, pivots, kernel)."""
    mn = len(idx)
    rows = [[0] * mn for _ in range(E * mn)] + [[int(r == c) for c in range(mn)]
                                                for r in range(mn)]
    for d in range(cap + E + 1):
        inv = pow(sigma * (d + 1), -1, p)
        rows = rows[mn:] + [[inv * sum(v * rows[i][c] for v, i in zip(vs, ix)) % p
                             for c in range(mn)] for vs, ix in zip(vals, idx)]
    pivots = []
    for c in range(mn):
        k = len(pivots)
        piv = next((r for r in range(k, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = pow(rows[k][c], -1, p)
        rows[k] = [v * inv % p for v in rows[k]]
        for r in range(len(rows)):
            if r != k and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[k])]
        pivots.append(c)
    kernel = []
    for fc in (c for c in range(mn) if c not in pivots):
        x = [0] * mn
        x[fc] = 1
        for k, pc in enumerate(pivots):
            x[pc] = -rows[k][fc] % p
        kernel.append(x)
    return rows[:len(pivots)], pivots, kernel


def test_modp_window_matches_a_plain_recurrence():
    # the packed, folded window has the pivots, the reduced rows mod p and
    # the kernel of the recurrence run entry by entry, at each of the first
    # 13 primes; the last job repeats every term of an mn = 16, E = 5 pair
    # until a row has 512 terms, so at c = 257 the width is 72 and a fold
    # takes 3 rounds (72 -> 52 -> 32 -> 31 bits)
    primes = list(itertools.islice(modules._primes(), 13))
    assert primes[11] == 2 ** 30 - 257
    jobs = [(*window_terms(src, tgt), cap) for src, tgt in window_pairs() for cap in (0, 2, 7)]
    idx, vals, sigma, E, _ = next(job for job in jobs if (len(job[0]), job[3]) == (16, 5))
    rep = -(-512 // max(map(len, idx)))
    jobs.append(([ix * rep for ix in idx], [vs * rep for vs in vals], sigma, E, 3))
    seen = set()
    for k, (idx, vals, sigma, E, cap) in enumerate(jobs):
        p = primes[11] if k == len(jobs) - 1 else primes[k % len(primes)]
        mn = len(idx)
        (reduced, pivots), w = modules._modp_window(idx, vals, sigma, E, cap, p)
        rows, plain_pivots, kernel = plain_window(idx, vals, sigma, E, cap, p)
        slot = (1 << w) - 1
        assert pivots == plain_pivots
        assert [[(r >> (w * j) & slot) % p for j in range(mn)] for r in reduced] == rows
        assert _modp_kernel(reduced, pivots, mn, p, w) == kernel
        seen.add((mn, E, bool(kernel)))
    assert w == 72
    assert {mn for mn, _, _ in seen} >= {1, 16} and {E for _, E, _ in seen} == {1, 2, 3, 4, 5}
    assert any(nonzero for _, _, nonzero in seen) and not all(nonzero for _, _, nonzero in seen)


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
    # L = T |-> p T (or -p T) vanishes mod p = MODP, as does the top layer
    # L_1 of T |-> p x T (E = 1): the first prime's kernel lifts to 1, which
    # fails the check; the next prime's top layer proves {0}
    for src in (line(P(MODP)), line(X * MODP)):
        for a, b in ((src, ZERO_LINE), (ZERO_LINE, src)):
            for cap in range(4):
                with monkeypatch.context() as mp:
                    drawn = spy_primes(mp)
                    assert modules._poly_hom_basis(a.matrix, b.matrix, cap) == ([], True)
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


def permuted(M: DiffModule, perm) -> DiffModule:
    """M in the basis order perm: entry (i, j) is M's entry (perm[i], perm[j])."""
    rows = M.matrix.to_rows()
    return DiffModule(M.ring, M.rank, PolyMat.from_rows(
        [[rows[i][j] for j in perm] for i in perm]))


def whole_chain_space(src: DiffModule, tgt: DiffModule, deg_cap):
    """hom_space as one chain over the whole Sylvester operator."""
    cap, proven = resolve_deg_cap(src, tgt, deg_cap)
    basis, chain_proven = modules._poly_hom_basis(
        src.matrix, tgt.matrix, 0 if src.ring is DiffRing.CONST_ZERO else cap)
    return modules.HomSpace(src, tgt, tuple(basis), cap, proven or chain_proven)


def direct_sum_pairs():
    """Seeded pairs of direct sums, their blocks' indices interleaved by a
    permutation: blocks of rank 1 to 3 and E = 0, 1, 2 (fixed ones with
    nonzero homs between them, and random ones), each sum against itself,
    against a sum sharing its blocks, and both ways against one block and
    against a trivial module; trivial_module sums; const_zero sums."""
    rng = StableRng(2525)
    fixed = [ONE, line(X), NILPOTENT, AIRY, JORDAN_X, poly_module(jordan_rows([(2, 2)]))]

    def block():
        if rng.randint(0, 1):
            return fixed[rng.randint(0, len(fixed) - 1)]
        n, E = rng.randint(1, 3), rng.randint(0, 2)
        return poly_module([[Poly([rng.randint(-2, 2) for _ in range(E + 1)])
                             for _ in range(n)] for _ in range(n)])

    def shuffled(blocks):
        S = blocks[0]
        for b in blocks[1:]:
            S = direct_sum(S, b)
        perm = list(range(S.rank))
        for i in range(len(perm) - 1, 0, -1):
            j = rng.randint(0, i)
            perm[i], perm[j] = perm[j], perm[i]
        return permuted(S, perm)

    pairs = []
    for _ in range(8):
        blocks = [block() for _ in range(rng.randint(2, 3))]
        S, other = shuffled(blocks), shuffled(blocks[::-1] + [block()])
        triv = trivial_module(DiffRing.POLY_DX, rng.randint(1, 3))
        pairs += [(S, S), (S, other), (other, S), (S, blocks[0]), (blocks[-1], S),
                  (triv, S), (S, triv)]
    pairs += [(trivial_module(DiffRing.POLY_DX, 3), trivial_module(DiffRing.POLY_DX, 2))]
    for blocks in ([J2, I2], [J2, const_module([[3]]), J2], [I2, const_module([[0, 0], [5, 0]])]):
        S = shuffled(blocks)
        pairs += [(S, S), (S, blocks[0]), (blocks[0], S), (S, shuffled(blocks[::-1]))]
    return pairs


def test_direct_sum_hom_matches_the_whole_chain():
    # Hom is additive in each argument, so a direct sum's hom space is the
    # same basis and flag as the chain over the whole Sylvester operator
    modules._hom_basis_cached.cache_clear()
    try:
        for src, tgt in direct_sum_pairs():
            for cap in (0, 1, 3, None):
                assert hom_space(src, tgt, cap) == whole_chain_space(src, tgt, cap), (src, tgt, cap)
    finally:
        modules._hom_basis_cached.cache_clear()


def test_a_module_finds_its_blocks_once(monkeypatch):
    # hom(S, Q), hom(Q, S) and constants(S) are three cache misses that
    # each need S's blocks; they are found on the first and kept on S,
    # which stays equal, hashed, pickled and immutable as before
    import pickle
    found = []
    real = modules._components
    monkeypatch.setattr(modules, "_components", lambda M: found.append(M) or real(M))
    blocks = [line(X + 3), NILPOTENT]
    S, Q = direct_sum(*blocks), direct_sum(line(X + 3), ONE)
    fresh = direct_sum(*blocks)
    modules._hom_basis_cached.cache_clear()
    try:
        answers = [hom_space(S, Q).basis, hom_space(Q, S).basis, constants(S)]
        assert sum(M is S for M in found) == 1 and sum(M is Q for M in found) == 1
        assert [(list(b), M) for b, M in modules._summands(S)] == [([0], blocks[0]),
                                                                   ([1, 2], blocks[1])]
        modules._hom_basis_cached.cache_clear()
        assert [hom_space(fresh, Q).basis, hom_space(Q, fresh).basis, constants(fresh)] == answers
        assert [len(basis) for basis in answers] == [3, 3, 2]
    finally:
        modules._hom_basis_cached.cache_clear()
    assert fresh is not S and fresh == S and hash(fresh) == hash(S)
    clone = pickle.loads(pickle.dumps(S))
    assert clone == S and clone._blocks is None
    with pytest.raises(AttributeError, match="cannot assign to field '_blocks'"):
        S._blocks = None


def test_direct_sum_hom_at_the_prime_threshold():
    # cap + E + 1 >= MODP needs the whole chain's error; an invertible top
    # layer, or E = 0, is answered at any cap
    singular = permuted(direct_sum(AIRY, line(X)), [2, 0, 1])
    with pytest.raises(ValueError, match=re.escape(f"degree cap {MODP - 2} is too large")):
        hom_space(singular, singular, MODP - 2)
    src = direct_sum(line(X), line(X + X))
    tgt = direct_sum(line(3 * X), line(-X))
    flat = direct_sum(NILPOTENT, ONE)
    for cap in (MODP - 3, MODP - 2, 2 ** 30):
        assert hom_space(src, tgt, cap) == whole_chain_space(src, tgt, cap)
        assert hom_space(src, tgt, cap).proven_complete
        assert hom_space(flat, flat, cap) == whole_chain_space(flat, flat, cap)


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


def mat(rows, cols, *entries):
    return PolyMat(rows, cols, [e if isinstance(e, Poly) else P(e) for e in entries])


R1, R2 = trivial_module(DiffRing.POLY_DX, 1), trivial_module(DiffRing.POLY_DX, 2)
NOT_INVERSE = (CertificateInvalid, "backward . forward is not the identity")
ONE_SIDED = (CertificateInvalid, "forward . backward is not the identity")

# (source, target, forward, backward) -> None when accepted, else the
# exception class and its message
CERTIFICATE_TABLE = {
    "valid line": ((line(X), line(X), mat(1, 1, 2), mat(1, 1, Fraction(1, 2))), None),
    "forward not a hom": ((line(X), line(X * X), mat(1, 1, 1), mat(1, 1, 1)),
                          (CertificateInvalid,
                           "forward map is not a differential homomorphism")),
    "backward not a hom (square)": ((R1, R1, mat(1, 1, 1), mat(1, 1, X)), NOT_INVERSE),
    "wrong composite": ((line(X), line(X), mat(1, 1, 2), mat(1, 1, 1)), NOT_INVERSE),
    "R -> R2 one-sided, backward a hom": ((R1, R2, mat(2, 1, 1, 0), mat(1, 2, 1, 0)),
                                          ONE_SIDED),
    "R -> R2 one-sided, backward not a hom": ((R1, R2, mat(2, 1, 1, 0), mat(1, 2, 1, X)),
                                              ONE_SIDED),
    "R2 -> R, forward a hom": ((R2, R1, mat(1, 2, 1, 0), mat(2, 1, 1, 0)), NOT_INVERSE),
    "backward with wrong rows": ((line(X), line(X), mat(1, 1, 1), mat(2, 1, 1, 0)),
                                 (ShapeMismatch, "hom 1->1 needs a 1x1 matrix, got 2x1")),
    "backward with wrong columns": ((line(X), line(X), mat(1, 1, 1), mat(1, 2, 1, 0)),
                                    (ShapeMismatch, "hom 1->1 needs a 1x1 matrix, got 1x2")),
    "forward of the wrong shape": ((R1, R2, mat(1, 2, 1, 0), mat(1, 2, 1, 0)),
                                   (ShapeMismatch, "hom 1->2 needs a 2x1 matrix, got 1x2")),
    "mixed rings": ((R1, trivial_module(DiffRing.CONST_ZERO, 1), mat(1, 1, 1), mat(1, 1, 1)),
                    (RingMismatch, "poly_dx vs const_zero")),
    "rank 0 -> 1": ((trivial_module(DiffRing.POLY_DX, 0), R1, PolyMat(1, 0, []),
                     PolyMat(0, 1, [])), ONE_SIDED),
}


@pytest.mark.parametrize("name", list(CERTIFICATE_TABLE))
def test_certificate_table_pins_each_exception_and_message(name):
    args, expected = CERTIFICATE_TABLE[name]
    if expected is None:
        assert make_iso_certificate(*args) == modules.IsoCertificate(*args)
        return
    with pytest.raises(expected[0]) as info:
        make_iso_certificate(*args)
    assert info.type is expected[0] and str(info.value) == expected[1]


# ---------------------------------------------------------------------------
# verify_hom against a plain Fraction substitution
# ---------------------------------------------------------------------------

def substitution_is_hom(T: PolyMat, src: DiffModule, tgt: DiffModule) -> bool:
    """T' == T A - B T entry by entry, in plain Poly arithmetic; over
    const_zero, T's entries must also be constants of Q."""
    if src.ring is DiffRing.CONST_ZERO and any(e.degree for e in T.entries):
        return False
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


def test_const_zero_certificate_refuses_nonconstant_maps():
    # F = [[1, x], [0, 1]] and G = [[1, -x], [0, 1]] are inverse and satisfy
    # T A = B T on (Q^2, 0), but a map over Q has constant entries
    from diffmod.serialize import (ParseError, certificate_from_json, certificate_to_json,
                                   polymat_to_json)
    Q2 = trivial_module(DiffRing.CONST_ZERO, 2)
    F, G = PolyMat(2, 2, [P(1), X, P(0), P(1)]), PolyMat(2, 2, [P(1), -X, P(0), P(1)])
    assert not verify_hom(F, Q2, Q2) and not substitution_is_hom(F, Q2, Q2)
    with pytest.raises(CertificateInvalid, match="forward map"):
        make_iso_certificate(Q2, Q2, F, G)
    good = certificate_to_json(identity_certificate(Q2))
    with pytest.raises(ParseError, match="forward map"):
        certificate_from_json(dict(good, forward=polymat_to_json(F),
                                   backward=polymat_to_json(G)))
    # similar's certificates are constant and still pass, also read back
    rng = StableRng(47)
    for n in (1, 2, 3, 4):
        A, B, _ = random_similar_pair(rng, n)
        src, tgt = (DiffModule(DiffRing.CONST_ZERO, n, M.to_polymat()) for M in (A, B))
        r = iso_search(src, tgt)
        assert r.kind == "iso"
        assert certificate_from_json(certificate_to_json(r.certificate)) == r.certificate


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
        if a is src:  # P->Q: nonzero and only cap-relative; T(0) = 0, so
            # no trial gets as far as a certificate
            return modules.HomSpace(a, b, (PolyMat(1, 1, [X]),), cap, False)
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


def counted_hom_space(mp):
    """Record the arguments of every hom_space call, from modules or cores."""
    from diffmod import cores
    calls, real = [], modules.hom_space

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for mod in (modules, cores):
        mp.setattr(mod, "hom_space", counted)
    return calls


def test_iso_search_on_equal_matrices_computes_no_hom_space(monkeypatch):
    def refuse(*args):
        raise AssertionError("hom_space called")
    monkeypatch.setattr(modules, "hom_space", refuse)
    twin = scramble(line(X), seed=3)[0]  # a rescaled line: the same matrix
    assert twin is not line(X) and twin.matrix == line(X).matrix
    for src, tgt in [(trivial_module(DiffRing.POLY_DX, 0),) * 2, (line(X), twin),
                     (NILPOTENT, NILPOTENT), (AIRY, AIRY), (JORDAN3_X, JORDAN3_X)]:
        for trials in (0, 32):
            r = iso_search(src, tgt, trials=trials)
            assert r.kind == "iso" and r.trials_used == 0
            assert r.certificate.forward == r.certificate.backward == PolyMat.identity(src.rank)


def test_iso_found_by_the_first_trial_computes_one_hom_space(monkeypatch):
    # a first trial that succeeds needs neither hom(Q, P) nor the constants;
    # one that fails (seed 297 draws the coefficient 0) computes all three
    base = mod2(X, P(1), P(0), X * X)
    twisted, _ = scramble(base, seed=5)
    airy = scramble(AIRY, 3)[0]
    with monkeypatch.context() as mp:
        calls = counted_hom_space(mp)
        r = iso_search(base, twisted, seed=9)
    assert r.kind == "iso" and r.trials_used == 1 and calls == [(base, twisted, 32)]
    calls = counted_hom_space(monkeypatch)
    r = iso_search(AIRY, airy, seed=297, deg_cap=4)
    assert r.kind == "iso" and r.trials_used == 2
    assert calls == [(AIRY, airy, 4), (airy, AIRY, 4), (ONE, AIRY, 4), (ONE, airy, 4)]


def test_every_hom_space_call_is_one_cache_lookup(monkeypatch):
    # block lookups of a direct sum go through hom_space, so each call is
    # one hit or one miss: the bench's traced self-check
    from diffmod.cores import cancel_free, core
    from diffmod.suite import random_planned_module
    rng = StableRng(2626)
    planned = random_planned_module(rng, 2, 2)
    twisted, cert = scramble(planned.module, seed=8)
    pad = trivial_module(DiffRing.POLY_DX, 1)
    padded = make_iso_certificate(
        direct_sum(planned.module, pad), direct_sum(twisted, pad),
        PolyMat.block_diag(cert.forward, PolyMat.identity(1)),
        PolyMat.block_diag(cert.backward, PolyMat.identity(1)))
    S = permuted(direct_sum(direct_sum(AIRY, JORDAN_X), AIRY), [4, 0, 2, 1, 5, 3])
    calls = counted_hom_space(monkeypatch)
    modules._hom_basis_cached.cache_clear()
    try:
        # modules.hom_space: the name this file imported is not counted
        for run in (lambda: core(planned.module), lambda: core(S),
                    lambda: cancel_free(planned.module, twisted, 1, padded),
                    lambda: iso_search(planned.module, twisted),
                    lambda: iso_search(S, permuted(S, [5, 4, 3, 2, 1, 0])),
                    lambda: modules.hom_space(S, S),
                    lambda: modules.hom_space(S, JORDAN_X, 5)):
            before = len(calls)
            run()
            info = modules._hom_basis_cached.cache_info()
            assert len(calls) > before and len(calls) == info.hits + info.misses
    finally:
        modules._hom_basis_cached.cache_clear()


def iso_digest_jobs():
    """(P, Q, trials, deg_cap) over poly_dx: equal matrices (rank 0, rank-1
    scrambles, which only rescale), seeded scrambled ISO pairs of rank 2 and
    3 with E = 0, 1, 2, proven zero hom spaces, a proven constants mismatch
    beside a nonzero hom(P, Q), the x^40-gauged AIRY past the default cap,
    nonzero hom spaces with no invertible element (with and without
    cap-relative evidence), a rank mismatch, and trials = 0 throughout;
    and a scrambled AIRY, whose one-dimensional hom space the first trial
    of seed 297 misses with the coefficient 0."""
    rng = StableRng(2424)
    z = trivial_module(DiffRing.POLY_DX, 0)
    pairs = [(z, z), (ONE, ONE), (NILPOTENT, NILPOTENT), (AIRY, AIRY),
             (JORDAN3_X, JORDAN3_X), (line(X), line(X * X)), (ONE, NILPOTENT),
             (poly_module([[0, 0], [0, 1]]), poly_module([[1, 0], [0, 1]])),
             (AIRY, gauged(AIRY, 40)[0]),
             (direct_sum(line(X), line(X)), direct_sum(line(X), line(X * X))),
             (direct_sum(line(X), ONE), direct_sum(line(X), line(X * X)))]
    for n in (1, 2, 3):
        for E in (0, 1, 2):
            base = poly_module([[Poly([rng.randint(-2, 2) for _ in range(E + 1)])
                                 for _ in range(n)] for _ in range(n)])
            pairs += [(base, scramble(base, rng.randint(0, 999))[0]) for _ in range(2)]
    for src, tgt in pairs:
        for trials, cap in ((32, None), (3, 4), (0, None)):
            yield src, tgt, trials, 7, cap
    yield AIRY, scramble(AIRY, 3)[0], 32, 297, 4


def test_iso_search_matches_the_golden_digest():
    # every verdict, certificate, witness, trial count and cap, pinned
    # before iso_search tried its first certificate ahead of the refutation
    h = hashlib.sha256()
    for src, tgt, trials, seed, cap in iso_digest_jobs():
        h.update(repr(iso_search(src, tgt, trials=trials, seed=seed, deg_cap=cap)).encode())
    assert h.hexdigest() == \
        "5f52113782f125b653e58219223d25d2c4c98da0d6a8e653f2fec182c2c23ab2"


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


def test_scramble_rejects_an_invalid_ops_or_seed():
    base = mod2(P(0), X, P(1), P(0))
    for ops in (-3, -1, True, False, 2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="ops must be None or an integer >= 0"):
            scramble(base, seed=1, ops=ops)
    for module in (base, trivial_module(DiffRing.POLY_DX, 0)):
        for seed in ("x", 1.0, True, None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                scramble(module, seed=seed)
    # no operations is legal and leaves the basis alone
    same, cert = scramble(base, seed=1, ops=0)
    assert same == base and cert.forward == PolyMat.identity(2)
    assert scramble(base, seed=1, ops=None) == scramble(base, seed=1, ops=4)


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
