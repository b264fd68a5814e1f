"""Trivial-summand extraction: pairing, splitting, cores, free cancellation."""

from fractions import Fraction

import pytest

from diffmod.cores import (CertificateInvalid, NotAHom, PairingNotUnit,
                           _pairing_data, cancel_free, core, is_trivial_free,
                           split_trivial_summand, trivial_pairing)
from diffmod.diffring import DiffRing
from diffmod.exactalg import (Poly, PolyMat, kernel_basis,
                              unimodular_completion)
from diffmod.modules import (DiffModule, direct_sum, iso_search,
                             make_iso_certificate, scramble, trivial_module,
                             verify_hom)
from diffmod.suite import random_planned_module, random_similar_pair
from diffmod.rng import StableRng


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


X = P(0, 1)


def line(f) -> DiffModule:
    return DiffModule(DiffRing.POLY_DX, 1, PolyMat(1, 1, [f]))


DIAG01 = DiffModule(DiffRing.POLY_DX, 2,
                    PolyMat(2, 2, [P(0), P(0), P(0), P(1)]))


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_pairing_vanishes_on_trivial_free_module():
    assert trivial_pairing(line(P(1))).is_zero()
    assert is_trivial_free(line(P(1)))


def test_pairing_nonzero_on_trivial_line():
    assert not trivial_pairing(trivial_module(DiffRing.POLY_DX, 1)).is_zero()
    assert not is_trivial_free(DIAG01)


def test_pairing_zero_on_rank_zero():
    assert is_trivial_free(trivial_module(DiffRing.POLY_DX, 0))


# ---------------------------------------------------------------------------
# split_trivial_summand
# ---------------------------------------------------------------------------

def test_split_peels_one_trivial_line():
    # w: projection to the first coordinate, v: constant section e1
    w = PolyMat(1, 2, [P(1), P(0)])
    v = PolyMat(2, 1, [P(1), P(0)])
    rest, W, _ = split_trivial_summand(DIAG01, w, v)
    assert rest.rank == 1
    assert rest.matrix == PolyMat(1, 1, [P(1)])
    # W conjugates the matrix to diag(rest, 0) exactly
    A = DIAG01.matrix
    lhs = W.derivative() + A @ W
    rhs = W @ PolyMat.block_diag(rest.matrix, PolyMat.zeros(1, 1))
    assert lhs == rhs


def test_split_inverse_by_construction():
    # split_trivial_summand builds W^{-1} = [C - (C v) w; w] for W = [K | v]
    # from the kernel K and completion C of w and returns it; on seeded
    # splits it must be the two-sided inverse of the W it returns
    rng = StableRng(41)
    for _ in range(6):
        M = random_planned_module(rng, rng.randint(0, 2), rng.randint(1, 2)).module
        pairing, ws, vs = _pairing_data(M)
        j, k = next((j, k) for j in range(pairing.rows) for k in range(pairing.cols)
                    if pairing.entry(j, k))
        w = ws[j].scale(1 / pairing.entry(j, k))
        rest, W, Winv = split_trivial_summand(M, w, vs[k])
        C = unimodular_completion(w)
        assert W == PolyMat.hstack(kernel_basis(w), vs[k])
        assert Winv == PolyMat.vstack(C - (C @ vs[k]) @ w, w)
        assert Winv @ W == PolyMat.identity(M.rank)
        assert W @ Winv == PolyMat.identity(M.rank)
        assert Winv == W.inverse_unimodular()
        lhs = W.derivative() + M.matrix @ W
        assert lhs == W @ PolyMat.block_diag(rest.matrix, PolyMat.zeros(1, 1))


def test_split_rejects_non_hom_functional():
    w = PolyMat(1, 2, [X, P(0)])  # not a hom to the trivial line
    v = PolyMat(2, 1, [P(1), P(0)])
    with pytest.raises(NotAHom):
        split_trivial_summand(DIAG01, w, v)


def test_split_rejects_non_unit_pairing():
    # w pairs to zero against this constant section
    w = PolyMat(1, 2, [P(1), P(0)])
    v = PolyMat(2, 1, [P(0), P(0)])
    with pytest.raises(PairingNotUnit):
        split_trivial_summand(DIAG01, w, v)


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------

def test_core_of_diag01():
    d = core(DIAG01)
    assert d.multiplicity == 1
    assert d.core.rank == 1
    assert d.core.matrix == PolyMat(1, 1, [P(1)])
    cert = d.certificate
    joined = direct_sum(d.core, trivial_module(DiffRing.POLY_DX, 1))
    assert verify_hom(cert.backward, joined, DIAG01)
    assert cert.backward @ cert.forward == PolyMat.identity(2)


def test_core_of_trivial_module_is_empty():
    d = core(trivial_module(DiffRing.POLY_DX, 3))
    assert d.core.rank == 0
    assert d.multiplicity == 3


def test_core_of_trivial_free_module_is_itself():
    d = core(line(X))
    assert d.multiplicity == 0
    assert d.core == line(X)


def test_core_idempotent_and_bookkeeping():
    rng = StableRng(77)
    for _ in range(6):
        planned = random_planned_module(rng, rng.randint(0, 2),
                                        rng.randint(0, 2))
        d = core(planned.module)
        assert d.core.rank == planned.core_rank
        assert d.core.rank + d.multiplicity == planned.module.rank
        assert is_trivial_free(d.core)
        again = core(d.core)
        assert again.multiplicity == 0


def test_core_unique_up_to_iso_across_pivot_choices():
    rng = StableRng(123)
    planned = random_planned_module(rng, 2, 2)
    d1 = core(planned.module)
    d2 = core(planned.module, pivot_seed=99)
    assert d1.core.rank == d2.core.rank == 2
    r = iso_search(d1.core, d2.core, seed=5)
    assert r.kind == "iso"


def _never_called(self):
    raise AssertionError("core inverted a matrix")


def test_core_composes_split_inverses(monkeypatch):
    # forward is built from each split's W^{-1}, never by inverting backward
    rng = StableRng(58)
    for _ in range(4):
        planned = random_planned_module(rng, rng.randint(0, 1), rng.randint(2, 3))
        with monkeypatch.context() as m:
            m.setattr(PolyMat, "inverse_unimodular", _never_called)
            d = core(planned.module, pivot_seed=rng.randint(0, 2**31))
        assert d.multiplicity == planned.multiplicity
        cert = d.certificate
        assert cert.forward == cert.backward.inverse_unimodular()


def test_core_additive_over_direct_sum():
    rng = StableRng(9)
    p = random_planned_module(rng, 1, 1)
    q = random_planned_module(rng, 1, 0)
    total = core(direct_sum(p.module, q.module))
    assert total.core.rank == 2
    assert total.multiplicity == 1
    joined = direct_sum(core(p.module).core, core(q.module).core)
    assert iso_search(total.core, joined, seed=2).kind == "iso"


# ---------------------------------------------------------------------------
# cancel_free
# ---------------------------------------------------------------------------

def _padded_pair(seed: int, core_rank: int, mult: int, pad: int):
    rng = StableRng(seed)
    p = random_planned_module(rng, core_rank, mult)
    q_mod, q_cert = scramble(p.module, seed=rng.randint(0, 2**31))
    padding = trivial_module(DiffRing.POLY_DX, pad)
    sp = direct_sum(p.module, padding)
    sq = direct_sum(q_mod, padding)
    cert = make_iso_certificate(
        sp, sq,
        PolyMat.block_diag(q_cert.forward, PolyMat.identity(pad)),
        PolyMat.block_diag(q_cert.backward, PolyMat.identity(pad)))
    return p.module, q_mod, cert


def test_cancel_free_recovers_unpadded_iso():
    p_mod, q_mod, cert = _padded_pair(31, 1, 1, 1)
    out = cancel_free(p_mod, q_mod, 1, cert, seed=6)
    assert out is not None
    assert out.source == p_mod and out.target == q_mod
    assert verify_hom(out.forward, p_mod, q_mod)
    assert out.forward @ out.backward == PolyMat.identity(p_mod.rank)


def test_cancel_free_two_pad_lines():
    p_mod, q_mod, cert = _padded_pair(57, 1, 0, 2)
    out = cancel_free(p_mod, q_mod, 2, cert, seed=8)
    assert out is not None


def test_cancel_free_rejects_wrong_endpoints():
    # rank-2 base so the scramble genuinely moves the matrix
    p_mod, q_mod, cert = _padded_pair(13, 1, 1, 1)
    assert p_mod != q_mod
    with pytest.raises(CertificateInvalid):
        cancel_free(q_mod, p_mod, 1, cert, seed=0)


def test_cancel_free_rank_zero_sides():
    z = trivial_module(DiffRing.POLY_DX, 0)
    pad = trivial_module(DiffRing.POLY_DX, 1)
    cert = make_iso_certificate(direct_sum(z, pad), direct_sum(z, pad),
                                PolyMat.identity(1), PolyMat.identity(1))
    out = cancel_free(z, z, 1, cert)
    assert out is not None
    assert out.forward.rows == 0


def test_cancel_free_const_zero_without_trials():
    # S A S^-1 against A, both padded by one zero line: the cores differ,
    # and over const_zero their isomorphism is decided without sampling
    A, B, S = random_similar_pair(StableRng(5), 3)
    assert A != B
    p_mod = DiffModule(DiffRing.CONST_ZERO, 3, A.to_polymat())
    q_mod = DiffModule(DiffRing.CONST_ZERO, 3, B.to_polymat())
    pad = trivial_module(DiffRing.CONST_ZERO, 1)
    cert = make_iso_certificate(
        direct_sum(p_mod, pad), direct_sum(q_mod, pad),
        PolyMat.block_diag(S.to_polymat(), PolyMat.identity(1)),
        PolyMat.block_diag(S.inverse().to_polymat(), PolyMat.identity(1)))
    out = cancel_free(p_mod, q_mod, 1, cert, trials=0)
    assert out is not None
    assert out.source == p_mod and out.target == q_mod
    assert verify_hom(out.forward, p_mod, q_mod)
    assert out.forward @ out.backward == PolyMat.identity(3)
