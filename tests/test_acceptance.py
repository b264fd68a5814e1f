"""Acceptance suite: one test per shipped guarantee, each with its stated
tolerance and runtime budget.  pytest -v prints one pass/fail line per
criterion.  Randomized criteria tally verified / unknown / failed outcomes:
Unknown is tolerated up to the stated rate, a verified failure never is.
"""

import itertools
import time

import pytest

from diffmod.cores import cancel_free, core, is_trivial_free
from diffmod.diffring import DiffRing
from diffmod.exactalg import Poly, PolyMat, RatMat
from diffmod.modules import (DiffModule, constants, direct_sum, hom_space,
                             is_trivial, iso_search, make_iso_certificate,
                             resolve_deg_cap, scramble, trivial_module,
                             verify_hom)
from diffmod.monoid import ClassLedger
from diffmod.rng import StableRng
from diffmod.suite import (random_module, random_planned_module, random_ratmat,
                           random_similar_pair)
from diffmod.zeroder import (NotIntertwining, cancel_zero_derivation,
                             padded_cancellation_check)

# ledgers built by criteria 2, 4 and 5; criterion 6 sweeps them all
_LEDGERS = []


def _rank1(coeffs) -> DiffModule:
    return DiffModule(DiffRing.POLY_DX, 1, PolyMat(1, 1, [Poly(coeffs)]))


def test_criterion_1_rank_one_hom_table():
    started = time.perf_counter()
    lines = [_rank1(cs) for cs in ([], [1], [0, 1], [1, 1], [0, 0, 1], [0, 3])]
    for i, src in enumerate(lines):
        for j, tgt in enumerate(lines):
            want = 1 if i == j else 0
            assert hom_space(src, tgt, 32).dimension == want, (i, j)
    assert time.perf_counter() - started < 1.0


def test_criterion_2_six_distinct_nonzero_classes():
    started = time.perf_counter()
    ledger = ClassLedger(DiffRing.POLY_DX)
    ledger.class_of(trivial_module(DiffRing.POLY_DX, 1), "zero")
    assert ledger.is_zero_class("zero") and ledger.is_invertible_class("zero")

    one = _rank1([1])
    assert len(constants(one)) == 0
    assert len(constants(one, 42)) == 0  # stays empty past the default cap
    assert is_trivial_free(one)
    ledger.class_of(one, "one")
    assert not ledger.is_zero_class("one")
    assert not ledger.is_invertible_class("one")

    names = ["one"]
    for k in range(1, 6):
        ledger.class_of(_rank1([0, k]), f"x{k}")
        names.append(f"x{k}")
    for a, b in itertools.combinations(names, 2):
        assert ledger.classes_equal(a, b).kind == "not_equal", (a, b)

    _LEDGERS.append(ledger)
    assert time.perf_counter() - started < 5.0


def test_criterion_3_triviality_certificate():
    nilp = DiffModule(DiffRing.POLY_DX, 2,
                      PolyMat(2, 2, [Poly([]), Poly([1]), Poly([]), Poly([])]))
    res = is_trivial(nilp)
    assert res.trivial
    T = res.certificate.backward  # columns are a constants basis, (R^2,0) -> nilp
    # equal to [[1, -x], [0, 1]] up to nonzero constant column scaling
    assert T.entry(1, 0).is_zero()
    c0, c1 = T.entry(0, 0), T.entry(1, 1)
    assert c0.is_constant() and not c0.is_zero()
    assert c1.is_constant() and not c1.is_zero()
    assert T.entry(0, 1) == Poly([0, -1]) * c1
    assert verify_hom(T, trivial_module(DiffRing.POLY_DX, 2), nilp)
    det = T.determinant()
    assert det.is_constant() and not det.is_zero()


def test_criterion_4_core_suite_200_seeds():
    started = time.perf_counter()
    ledger = ClassLedger(DiffRing.POLY_DX)
    verified = unknown = failed = 0
    for i in range(200):
        sub = StableRng(0xC0DE).spawn(i)
        core_rank = sub.randint(0, 3)
        mult = sub.randint(0, 4 - core_rank)
        if core_rank + mult == 0:
            mult = 1
        planned = random_planned_module(sub, core_rank, mult)

        inconclusive = False
        try:
            # bookkeeping against the construction, under two pivot streams
            d1 = core(planned.module, pivot_seed=sub.randint(0, 2**31))
            d2 = core(planned.module, pivot_seed=sub.randint(0, 2**31))
            for d in (d1, d2):
                assert d.multiplicity == planned.multiplicity
                assert d.core.rank == planned.core_rank
                assert d.core.rank + d.multiplicity == planned.module.rank
            assert is_trivial_free(d1.core)

            # uniqueness: the two runs' cores are certified isomorphic
            r = iso_search(d1.core, d2.core, seed=sub.randint(0, 2**31))
            assert r.kind != "not_iso", r.witness
            inconclusive |= r.kind == "unknown"

            # idempotence: a core has nothing further to peel
            again = core(d1.core)
            assert again.multiplicity == 0
            assert again.core.rank == d1.core.rank

            # cores add across direct sums
            partner = random_planned_module(sub, sub.randint(0, 1), 1)
            dsum = core(direct_sum(planned.module, partner.module))
            dq = core(partner.module)
            assert dsum.core.rank == d1.core.rank + dq.core.rank
            assert dsum.multiplicity == d1.multiplicity + dq.multiplicity
            r2 = iso_search(dsum.core, direct_sum(d1.core, dq.core),
                            seed=sub.randint(0, 2**31))
            assert r2.kind != "not_iso", r2.witness
            inconclusive |= r2.kind == "unknown"
        except AssertionError:
            failed += 1
            continue
        if inconclusive:
            unknown += 1
        else:
            verified += 1
        if i % 40 == 0:
            ledger.class_of(planned.module, f"seed{i}")

    _LEDGERS.append(ledger)
    elapsed = time.perf_counter() - started
    assert failed == 0, f"{failed} verified failures"
    assert verified >= 190, f"only {verified}/200 fully verified ({unknown} unknown)"
    assert elapsed < 120.0


def test_criterion_5_free_cancellation_100_instances():
    started = time.perf_counter()
    ledger = ClassLedger(DiffRing.POLY_DX)
    verified = unknown = failed = 0
    for i in range(100):
        sub = StableRng(0xFACE).spawn(i)
        core_rank = sub.randint(0, 2)
        mult = sub.randint(0, 1)
        if core_rank + mult == 0:
            core_rank = 1
        planned = random_planned_module(sub, core_rank, mult)
        p_mod = planned.module
        q_mod, q_cert = scramble(p_mod, seed=sub.randint(0, 2**31))
        pad = trivial_module(DiffRing.POLY_DX, 1)
        cert = make_iso_certificate(
            direct_sum(p_mod, pad), direct_sum(q_mod, pad),
            PolyMat.block_diag(q_cert.forward, PolyMat.identity(1)),
            PolyMat.block_diag(q_cert.backward, PolyMat.identity(1)))
        try:
            out = cancel_free(p_mod, q_mod, 1, cert)
            if out is None:
                unknown += 1
                continue
            assert out.source == p_mod and out.target == q_mod
            assert verify_hom(out.forward, p_mod, q_mod)
        except AssertionError:
            failed += 1
            continue
        verified += 1
        if i % 25 == 0:
            ledger.class_of(p_mod, f"inst{i}")

    _LEDGERS.append(ledger)
    elapsed = time.perf_counter() - started
    assert failed == 0, f"{failed} verified failures"
    assert verified == 100, f"only {verified}/100 verified ({unknown} unknown)"
    assert elapsed < 120.0


def test_criterion_6_units_law_across_all_ledgers():
    assert _LEDGERS, "class criteria must run first"
    for ledger in _LEDGERS:
        for name in ledger.names():
            assert ledger.is_invertible_class(name) == ledger.is_zero_class(name)
    # semantic spot checks on the first ledger: adding the zero class never
    # changes zero-ness, and a nonzero class stays nonzero under addition
    ledger = _LEDGERS[0]
    zeros = [n for n in ledger.names() if ledger.is_zero_class(n)]
    nonzeros = [n for n in ledger.names() if not ledger.is_zero_class(n)]
    assert zeros and nonzeros
    ledger.add_classes(zeros[0], zeros[0], "law_zero_sum")
    assert ledger.is_invertible_class("law_zero_sum")
    ledger.add_classes(nonzeros[0], zeros[0], "law_nonzero_plus_zero")
    assert not ledger.is_invertible_class("law_nonzero_plus_zero")
    ledger.add_classes(nonzeros[0], nonzeros[-1], "law_nonzero_sum")
    assert not ledger.is_invertible_class("law_nonzero_sum")


def _invertible(rng: StableRng, n: int) -> RatMat:
    while True:
        m = random_ratmat(rng, n, n, 3)
        if m.determinant() != 0:
            return m


def test_criterion_7_zero_derivation_suite():
    started = time.perf_counter()
    rng = StableRng(0x5EED)
    for i in range(200):
        sub = rng.spawn(i)
        n = sub.randint(1, 6)
        if i % 2 == 0:
            a, b, _ = random_similar_pair(sub, n)
        else:
            a = random_ratmat(sub, n, n)
            b = random_ratmat(sub, n, n)
        assert padded_cancellation_check(a, b, sub.randint(1, 2)), i

    for i in range(50):
        sub = rng.spawn(1000 + i)
        a = sub.randint(1, 4)
        m = sub.randint(1, 2)
        f = RatMat.block_diag(_invertible(sub, a), _invertible(sub, m))
        cert = cancel_zero_derivation(a, a, m, f)
        assert cert.transform @ cert.inverse == RatMat.identity(a)
        assert cert.transform == f.submatrix(0, a, 0, a)

        # corrupt one off-block entry: the intertwining identity must fail
        rows = f.to_rows()
        if i % 2 == 0:
            rows[0][a] += 1  # upper-right block
        else:
            rows[a][0] += 1  # lower-left block
        broken = RatMat.from_rows(rows)
        with pytest.raises(NotIntertwining):
            cancel_zero_derivation(a, a, m, broken)

    assert time.perf_counter() - started < 10.0


def _assert_residual_zero(T: PolyMat, src: DiffModule, tgt: DiffModule):
    # substitution into the defining identity, independent of the solver's
    # coefficient assembly; double-checked by rational evaluation
    residual = T.derivative() - T @ src.matrix + tgt.matrix @ T
    assert residual.is_zero()
    for point in (0, 1, -2):
        assert residual.eval_at(point) == RatMat.zeros(tgt.rank, src.rank)


def test_criterion_8_solver_soundness_and_stabilization():
    rng = StableRng(0xAB1E)
    for i in range(20):
        sub = rng.spawn(i)
        src = random_module(sub, sub.randint(1, 3), 2)
        tgt = random_module(sub, sub.randint(1, 3), 2)
        h32 = hom_space(src, tgt, 32)
        h42 = hom_space(src, tgt, 42)
        assert h32.dimension == h42.dimension, i
        for T in h32.basis:
            _assert_residual_zero(T, src, tgt)

    # constant matrices over the polynomial ring: the rank*rank degree bound
    # is proven, so the default basis is complete and stabilization is exact
    sizes = [(1, 1), (2, 2), (3, 2), (6, 6)]
    for i, (rs, rt) in enumerate(sizes):
        sub = rng.spawn(100 + i)
        src = DiffModule(DiffRing.POLY_DX, rs,
                         random_ratmat(sub, rs, rs).to_polymat())
        tgt = DiffModule(DiffRing.POLY_DX, rt,
                         random_ratmat(sub, rt, rt).to_polymat())
        mn = rs * rt
        cap, proven = resolve_deg_cap(src, tgt, None)
        assert proven and cap >= mn
        h = hom_space(src, tgt)
        assert h.proven_complete
        assert h.dimension == hom_space(src, tgt, mn).dimension
        assert h.dimension == hom_space(src, tgt, mn + 10).dimension
        for T in h.basis:
            _assert_residual_zero(T, src, tgt)

    # zero-derivation ring: homs are constant intertwiners, complete outright
    for i in range(4):
        sub = rng.spawn(200 + i)
        n = sub.randint(1, 3)
        src = DiffModule(DiffRing.CONST_ZERO, n, random_ratmat(sub, n, n).to_polymat())
        tgt = DiffModule(DiffRing.CONST_ZERO, n, random_ratmat(sub, n, n).to_polymat())
        h = hom_space(src, tgt)
        assert h.proven_complete
        assert h.dimension == hom_space(src, tgt, 10).dimension
        for T in h.basis:
            assert T.is_constant()
            assert verify_hom(T, src, tgt)
