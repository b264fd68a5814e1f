"""Seeded self-check suite and the random generators behind it.

Every item draws its cases from a StableRng stream, so a (seed, size) pair
replays bit-exactly.  The generators build modules whose decomposition is
known by construction (direct sums of nonzero rank-1 structures and trivial
lines, then scrambled), which is what makes the core and cancellation
properties checkable without trusting the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cores import cancel_free, core, is_trivial_free, trivial_pairing
from .diffring import DiffRing
from .exactalg import (Poly, PolyMat, RatMat, kernel_basis, poly_gcd,
                       rat_nullspace, smith_normal_form_with_inverses)
from .modules import (DiffModule, constants, direct_sum, hom_space, is_trivial,
                      iso_search, make_iso_certificate, scramble,
                      trivial_module, verify_hom)
from .monoid import ClassLedger
from .rng import StableRng
from .zeroder import (cancel_zero_derivation, padded_cancellation_check, rcf,
                      similar)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def random_poly(rng: StableRng, max_deg: int, bound: int = 3,
                nonzero: bool = False) -> Poly:
    while True:
        deg = rng.randint(0, max_deg)
        p = Poly([rng.randint(-bound, bound) for _ in range(deg + 1)])
        if not nonzero or not p.is_zero():
            return p


def random_polymat(rng: StableRng, rows: int, cols: int, max_deg: int,
                   bound: int = 3) -> PolyMat:
    return PolyMat(rows, cols, [random_poly(rng, max_deg, bound)
                                for _ in range(rows * cols)])


def random_ratmat(rng: StableRng, rows: int, cols: int, bound: int = 5) -> RatMat:
    return RatMat(rows, cols, [rng.randint(-bound, bound)
                               for _ in range(rows * cols)])


def random_module(rng: StableRng, rank: int, max_deg: int, bound: int = 3) -> DiffModule:
    return DiffModule(DiffRing.POLY_DX, rank,
                      random_polymat(rng, rank, rank, max_deg, bound))


class PlannedModule(NamedTuple):
    """A module built as scramble(sum of nonzero rank-1 lines + trivial lines),
    so its core data is known by construction."""
    module: DiffModule
    core_rank: int
    multiplicity: int
    plain: DiffModule


def random_planned_module(rng: StableRng, core_rank: int, multiplicity: int,
                          max_deg: int = 3, scramble_ops=None) -> PlannedModule:
    """Direct sum of core_rank nonzero rank-1 structures and multiplicity
    trivial lines, scrambled.  Nonzero rank-1 structures are trivial-free and
    stay trivial-free under direct sum, so the core of the result has exactly
    rank core_rank."""
    mat = PolyMat(0, 0, [])
    for _ in range(core_rank):
        f = random_poly(rng, max_deg, nonzero=True)
        mat = PolyMat.block_diag(mat, PolyMat(1, 1, [f]))
    mat = PolyMat.block_diag(mat, PolyMat.zeros(multiplicity, multiplicity))
    plain = DiffModule(DiffRing.POLY_DX, core_rank + multiplicity, mat)
    module, _ = scramble(plain, seed=rng.randint(0, 2**31), ops=scramble_ops)
    return PlannedModule(module, core_rank, multiplicity, plain)


def random_similar_pair(rng: StableRng, n: int, bound: int = 3):
    """(A, B, S) with S @ A @ S^{-1} == B and S an integer shear product."""
    A = random_ratmat(rng, n, n, bound)
    S = RatMat.identity(n)
    for _ in range(n + 1 if n > 1 else 0):
        i = rng.randint(0, n - 1)
        j = rng.randint(0, n - 1)
        while j == i:
            j = rng.randint(0, n - 1)
        E = RatMat.identity(n).to_rows()
        E[i][j] = Fraction(rng.nonzero_int(2))
        S = RatMat.from_rows(E) @ S
    B = S @ A @ S.inverse()
    return A, B, S


# ---------------------------------------------------------------------------
# suite items
# ---------------------------------------------------------------------------

class SuiteItem(NamedTuple):
    name: str
    passed: bool
    cases: int
    detail: str = ""


def _item(name, fn, rng, cases):
    try:
        fn(rng, cases)
        return SuiteItem(name, True, cases)
    except AssertionError as exc:
        return SuiteItem(name, False, cases, str(exc))


def _poly_axioms(rng, cases):
    for _ in range(cases):
        a = random_poly(rng, 4)
        b = random_poly(rng, 4)
        c = random_poly(rng, 4)
        assert (a + b) * c == a * c + b * c, "distributivity failed"
        assert a * b == b * a, "commutativity failed"
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative(), \
            "Leibniz failed"
        if not b.is_zero():
            q, r = divmod(a, b)
            assert a == q * b + r, "division identity failed"
            assert r.is_zero() or r.degree < b.degree, "remainder too large"
        g = poly_gcd(a, b)
        if not g.is_zero():
            assert (a % g).is_zero() and (b % g).is_zero(), "gcd does not divide"


def _nullspace_props(rng, cases):
    for _ in range(cases):
        M = random_ratmat(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = rat_nullspace(M)
        for v in basis:
            assert (M @ v).is_zero(), "kernel vector not annihilated"
        if basis:
            stacked = RatMat.from_rows([list(v.transpose().row(0)) for v in basis])
            assert len(rat_nullspace(stacked.transpose())) == 0, \
                "kernel basis not independent"


def _smith_props(rng, cases):
    for _ in range(cases):
        M = random_polymat(rng, rng.randint(1, 3), rng.randint(1, 3), 2, 2)
        U, D, V, _, _ = smith_normal_form_with_inverses(M)
        assert U @ M @ V == D, "factorization failed"
        diag = [D.entry(i, i) for i in range(min(D.rows, D.cols))]
        for p in diag:
            assert p.is_zero() or p.lc() == 1, "diagonal not monic"
        for p, q in zip(diag, diag[1:]):
            if not p.is_zero() and not q.is_zero():
                assert (q % p).is_zero(), "divisibility chain broken"
        for W in (U, V):
            det = W.determinant()
            assert det.is_constant() and not det.is_zero(), "transform not unimodular"


def _kernel_props(rng, cases):
    for _ in range(cases):
        n = rng.randint(2, 4)
        row = [random_poly(rng, 2) for _ in range(n)]
        row[rng.randint(0, n - 1)] = Poly.constant(rng.nonzero_int(3))
        w = PolyMat(1, n, row)
        K = kernel_basis(w)
        assert (w @ K).is_zero(), "kernel basis not annihilated"


def _module_leibniz(rng, cases):
    for _ in range(cases):
        M = random_module(rng, rng.randint(1, 3), 2)
        r = random_poly(rng, 2)
        v = random_polymat(rng, M.rank, 1, 2)
        lhs = M.derive(v.scale(r))
        rhs = v.scale(r.derivative()) + M.derive(v).scale(r)
        assert lhs == rhs, "module derivation violates the Leibniz rule"


def _hom_props(rng, cases):
    for _ in range(cases):
        P = random_module(rng, rng.randint(1, 2), 1)
        Q = random_module(rng, rng.randint(1, 2), 1)
        hp = hom_space(P, Q, 12)
        for T in hp.basis:
            assert verify_hom(T, P, Q), "basis element is not a homomorphism"
        if len(hp.basis) >= 2:
            assert verify_hom(hp.basis[0] + hp.basis[1].scale(Fraction(3, 2)), P, Q), \
                "hom space not closed under combinations"
        hq = hom_space(Q, P, 12)
        for S in hq.basis[:2]:
            for T in hp.basis[:2]:
                assert verify_hom(S @ T, P, P), "homs not closed under composition"


def _constants_additive(rng, cases):
    for _ in range(cases):
        P = random_module(rng, rng.randint(1, 2), 2)
        Q = random_module(rng, rng.randint(1, 2), 2)
        cap = 16
        assert len(constants(direct_sum(P, Q), cap)) == \
            len(constants(P, cap)) + len(constants(Q, cap)), \
            "constants not additive over direct sums"


def _triviality(rng, cases):
    for _ in range(cases):
        n = rng.randint(1, 3)
        scrambled, cert = scramble(trivial_module(DiffRing.POLY_DX, n),
                                   seed=rng.randint(0, 2**31))
        res = is_trivial(scrambled)
        assert res.trivial, "scrambled trivial module not recognized"
        det = res.certificate.backward.determinant()
        assert det.is_constant() and not det.is_zero(), "certificate not unimodular"
        line = DiffModule(DiffRing.POLY_DX, 1,
                          PolyMat(1, 1, [random_poly(rng, 2, nonzero=True)]))
        assert not is_trivial(line).trivial, \
            "nonzero rank-1 structure misclassified as trivial"


def _scramble_soundness(rng, cases):
    for _ in range(cases):
        P = random_planned_module(rng, rng.randint(1, 2), rng.randint(0, 1)).module
        Q, cert = scramble(P, seed=rng.randint(0, 2**31))
        r = iso_search(P, Q, seed=rng.randint(0, 2**31))
        assert r.kind == "iso", f"scramble not recognized: {r.kind}"


def _cap_stabilization(rng, cases):
    for _ in range(cases):
        P = random_module(rng, rng.randint(1, 2), 2)
        Q = random_module(rng, rng.randint(1, 2), 2)
        assert hom_space(P, Q, 20).dimension == hom_space(P, Q, 30).dimension, \
            "hom dimension failed to stabilize"


def _core_props(rng, cases):
    for _ in range(cases):
        planned = random_planned_module(rng, rng.randint(0, 2), rng.randint(0, 2))
        d = core(planned.module)
        assert d.core.rank + d.multiplicity == planned.module.rank, \
            "core rank bookkeeping failed"
        assert d.core.rank == planned.core_rank, "core rank differs from construction"
        assert trivial_pairing(d.core).is_zero(), "core is not trivial-free"
        again = core(d.core)
        assert again.multiplicity == 0 and again.core == d.core, \
            "core not idempotent"
        other = core(planned.module, pivot_seed=rng.randint(0, 2**31))
        if d.core.rank:
            r = iso_search(d.core, other.core, seed=rng.randint(0, 2**31))
            assert r.kind == "iso", "cores from different pivots not isomorphic"


def _core_additivity(rng, cases):
    for _ in range(cases):
        p = random_planned_module(rng, rng.randint(0, 1), rng.randint(0, 1))
        q = random_planned_module(rng, rng.randint(0, 1), rng.randint(0, 1))
        dsum = core(direct_sum(p.module, q.module))
        dp = core(p.module)
        dq = core(q.module)
        joined = direct_sum(dp.core, dq.core)
        assert dsum.core.rank == joined.rank, "core rank not additive"
        if joined.rank:
            r = iso_search(dsum.core, joined, seed=rng.randint(0, 2**31))
            assert r.kind == "iso", "core of sum not isomorphic to sum of cores"


def _cancel_free_props(rng, cases):
    for _ in range(cases):
        p = random_planned_module(rng, rng.randint(0, 1), rng.randint(0, 1))
        q_mod, q_cert = scramble(p.module, seed=rng.randint(0, 2**31))
        sp = direct_sum(p.module, trivial_module(DiffRing.POLY_DX, 1))
        sq = direct_sum(q_mod, trivial_module(DiffRing.POLY_DX, 1))
        cert = make_iso_certificate(
            sp, sq,
            PolyMat.block_diag(q_cert.forward, PolyMat.identity(1)),
            PolyMat.block_diag(q_cert.backward, PolyMat.identity(1)))
        out = cancel_free(p.module, q_mod, 1, cert)
        assert out is not None, "cancellation came back unknown"


def _monoid_laws(rng, cases):
    for _ in range(cases):
        ledger = ClassLedger(DiffRing.POLY_DX)
        mods = [random_planned_module(rng, rng.randint(0, 1), rng.randint(0, 1)).module
                for _ in range(3)]
        for i, m in enumerate(mods):
            ledger.class_of(m, f"m{i}")
        ledger.class_of(trivial_module(DiffRing.POLY_DX, 2), "zero")
        ledger.add_classes("m0", "m1", "a_b")
        ledger.add_classes("m1", "m0", "b_a")
        ledger.add_classes("a_b", "m2", "ab_c")
        ledger.add_classes("m1", "m2", "bc")
        ledger.add_classes("m0", "bc", "a_bc")
        ledger.add_classes("m0", "zero", "a_zero")
        assert ledger.classes_equal("a_b", "b_a").kind == "equal", \
            "class addition not commutative"
        assert ledger.classes_equal("ab_c", "a_bc").kind == "equal", \
            "class addition not associative"
        assert ledger.classes_equal("m0", "a_zero").kind == "equal", \
            "zero class not neutral"
        assert ledger.is_zero_class("zero"), "sum of trivial lines not the zero class"
        for name in ledger.names():
            assert ledger.is_invertible_class(name) == ledger.is_zero_class(name), \
                "units law violated"


def _zeroder_props(rng, cases):
    for _ in range(cases):
        n = rng.randint(1, 4)
        A, B, _ = random_similar_pair(rng, n)
        r = similar(A, B)
        assert r.similar, "conjugate matrices not recognized as similar"
        f = rcf(A)
        assert rcf(f.form).form == f.form, "canonical form not canonical"
        C = random_ratmat(rng, n, n)
        for other, kind in ((B, "iso"), (C, "iso" if similar(A, C).similar else "not_iso")):
            pair = [DiffModule(DiffRing.CONST_ZERO, n, M.to_polymat()) for M in (A, other)]
            assert iso_search(*pair).kind == kind, "iso_search disagrees with similar"
        assert padded_cancellation_check(A, C, rng.randint(1, 2)), \
            "padding changed the similarity verdict"
        a = rng.randint(1, 2)
        m = rng.randint(1, 2)
        blocks = RatMat.block_diag(random_ratmat(rng, a, a),
                                   random_ratmat(rng, m, m))
        if blocks.determinant() and blocks.submatrix(0, a, 0, a).determinant():
            cert = cancel_zero_derivation(a, a, m, blocks)
            assert cert.transform == blocks.submatrix(0, a, 0, a), \
                "wrong block extracted"


_ITEMS = [
    ("polynomial ring axioms", _poly_axioms, 8),
    ("rational nullspace", _nullspace_props, 6),
    ("smith normal form", _smith_props, 4),
    ("kernel basis", _kernel_props, 5),
    ("module derivation Leibniz", _module_leibniz, 6),
    ("hom space soundness/closure", _hom_props, 4),
    ("constants additivity", _constants_additive, 4),
    ("triviality certificates", _triviality, 3),
    ("scramble soundness", _scramble_soundness, 3),
    ("degree cap stabilization", _cap_stabilization, 3),
    ("core extraction", _core_props, 3),
    ("core additivity", _core_additivity, 2),
    ("free cancellation", _cancel_free_props, 2),
    ("class monoid laws", _monoid_laws, 1),
    ("zero derivation backend", _zeroder_props, 3),
]


def run_suite(seed: int = 0, size: int = 1):
    """Run every property group; returns a list of SuiteItems."""
    results = []
    for tag, (name, fn, base_cases) in enumerate(_ITEMS):
        rng = StableRng(seed).spawn(tag + 1)
        results.append(_item(name, fn, rng, max(1, base_cases * size)))
    return results
