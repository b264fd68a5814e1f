"""Trivial-summand extraction: pairing, splitting, cores, free cancellation."""

import hashlib
import re
from collections import Counter
from fractions import Fraction

import pytest

from diffmod import cores
from diffmod.cores import (CertificateInvalid, NonConstantPairing, NotAConstant, NotAHom,
                           PairingNotUnit, _pairing_data, cancel_free, core, is_trivial_free,
                           split_trivial_summand, trivial_pairing)
from diffmod.diffring import DiffRing
from diffmod.exactalg import (Poly, PolyMat, ShapeMismatch, _product_is_identity, kernel_basis,
                              smith_normal_form_with_inverses)
from diffmod.modules import (DiffModule, HomSpace, constants, direct_sum, hom_space, is_trivial,
                             iso_search, make_iso_certificate, scramble,
                             trivial_module, verify_hom)
from diffmod.suite import random_planned_module, random_similar_pair
from diffmod.rng import StableRng


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


X = P(0, 1)


def line(f) -> DiffModule:
    return DiffModule(DiffRing.POLY_DX, 1, PolyMat(1, 1, [f]))


DIAG01 = DiffModule(DiffRing.POLY_DX, 2,
                    PolyMat(2, 2, [P(0), P(0), P(0), P(1)]))


def two_trivial_lines_and_x():
    """(R,0)^2 + (R,x), scrambled so that the pairing is [[0, 3], [3, 0]]."""
    M, _ = scramble(direct_sum(trivial_module(DiffRing.POLY_DX, 2), line(X)), seed=13)
    return M


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
        C = smith_normal_form_with_inverses(w)[4].submatrix(1, M.rank, 0, M.rank)
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


def test_split_two_rows_checks_its_inputs():
    M = two_trivial_lines_and_x()
    pairing, ws, vs = _pairing_data(M)
    assert pairing.to_rows() == [[0, 3], [3, 0]]
    w = PolyMat.vstack(ws[1], ws[0]).scale(Fraction(1, 3))
    v = PolyMat.hstack(vs[0], vs[1])
    rest, W, Winv = split_trivial_summand(M, w, v)
    assert rest.rank == 1 and Winv @ W == PolyMat.identity(3)
    assert W.derivative() + M.matrix @ W == \
        W @ PolyMat.block_diag(rest.matrix, PolyMat.zeros(2, 2))
    x_first = PolyMat.diagonal([X, P(1)])
    with pytest.raises(NotAHom):
        split_trivial_summand(M, x_first @ w, v)
    with pytest.raises(NotAConstant):
        split_trivial_summand(M, w, v @ x_first)
    with pytest.raises(PairingNotUnit):
        split_trivial_summand(M, w, PolyMat.hstack(vs[1], vs[0]))


def split_input_cases():
    """(module, w, v, the exception split_trivial_summand raises)."""
    M, w, v = two_row_split()
    x_first = PolyMat.diagonal([X, P(1)])
    e1 = PolyMat(2, 1, [P(1), P(0)])
    return [
        (DIAG01, PolyMat(1, 2, [P(1), X]), e1, NotAHom),
        (DIAG01, PolyMat(1, 2, [P(1), P(0)]), PolyMat(2, 1, [P(1), X]), NotAConstant),
        (line(X), PolyMat(1, 1, [P(1)]), PolyMat(1, 1, [P(1)]), NotAHom),
        (line(X), PolyMat(1, 1, [P(0)]), PolyMat(1, 1, [P(0)]), PairingNotUnit),
        (DIAG01, PolyMat(1, 2, [X, P(0)]), e1, NotAHom),
        (DIAG01, PolyMat(1, 2, [P(1), P(0)]), PolyMat(2, 1, [P(0), P(0)]), PairingNotUnit),
        (DIAG01, PolyMat(1, 2, [P(2), P(0)]), e1, PairingNotUnit),
        (DIAG01, PolyMat(1, 3, [P(1), P(0), P(0)]), e1, NotAHom),
        (DIAG01, PolyMat(1, 2, [P(1), P(0)]), PolyMat(3, 1, [P(1), P(0), P(0)]),
         NotAConstant),
        (DIAG01, PolyMat(1, 2, [X, P(0)]), PolyMat(3, 1, [P(1), P(0), P(0)]), NotAHom),
        (DIAG01, PolyMat(1, 2, [P(1), P(0)]), PolyMat(2, 2, [P(1)] * 4), NotAConstant),
        (DIAG01, PolyMat(2, 2, [P(1), P(0), P(0), P(0)]), PolyMat.identity(2), NotAConstant),
        (trivial_module(DiffRing.POLY_DX, 2), PolyMat.identity(2), PolyMat.diagonal([P(1), X]),
         NotAConstant),
        (trivial_module(DiffRing.POLY_DX, 2), PolyMat.diagonal([P(1), X]), PolyMat.identity(2),
         NotAHom),
        (trivial_module(DiffRing.POLY_DX, 2), PolyMat.identity(2), PolyMat.diagonal([P(1), P(2)]),
         PairingNotUnit),
        (M, x_first @ w, v, NotAHom),
        (M, w, v @ x_first, NotAConstant),
        (M, w, v.submatrix(0, 3, 0, 1), NotAConstant),
        (M, w.submatrix(0, 1, 0, 3), v, NotAConstant),
        (M, x_first @ w, v @ x_first, NotAHom),
    ]


def test_split_raises_the_first_failing_input_check():
    for module, w, v, error in split_input_cases():
        with pytest.raises(error):
            split_trivial_summand(module, w, v)


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------

def test_core_peels_two_summands_with_one_split(monkeypatch):
    # the (0, 0) pairing entry is zero, and one split along the invertible
    # 2 x 2 block peels both trivial lines; hom(core, (R, 0)) = {0} then
    # confirms the core with no constants computed
    M = two_trivial_lines_and_x()
    assert trivial_pairing(M).entry(0, 0) == 0
    calls = Counter()
    for name in ("split_trivial_summand", "hom_space", "constants"):
        count_calls(monkeypatch, calls, name, cores)
    d = core(M)
    assert calls == {"split_trivial_summand": 1, "hom_space": 2, "constants": 1}
    assert d.multiplicity == 2 and d.core.rank == 1
    assert iso_search(d.core, line(X), seed=1).kind == "iso"


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


def _mat_repr(M):
    return (M.rows, M.cols, [[str(c) for c in e.coeffs] for e in M.entries])


def core_digest_jobs():
    """(module, pivot seed) for 40 seeded planned modules: multiplicity at
    most 1 for the first 20, 2 or 3 for the rest."""
    rng = StableRng(0xC02E)
    for i in range(40):
        core_rank = rng.randint(0, 2)
        mult = rng.randint(0, 1) if i < 20 else rng.randint(2, 3)
        yield random_planned_module(rng, core_rank, mult).module, rng.randint(0, 2**31)


def core_digests(jobs):
    """sha256 of (multiplicity, core, certificate) at the default pivot for
    multiplicity <= 1, and of the multiplicities at the default pivot and
    at the job's pivot seed for every job."""
    exact, mults = hashlib.sha256(), hashlib.sha256()
    for M, seed in jobs:
        d = core(M)
        if d.multiplicity <= 1:
            c = d.certificate
            exact.update(repr((d.multiplicity, _mat_repr(d.core.matrix),
                               _mat_repr(c.forward), _mat_repr(c.backward))).encode())
        mults.update(repr((d.multiplicity, core(M, pivot_seed=seed).multiplicity)).encode())
    return exact.hexdigest(), mults.hexdigest()


def test_core_matches_the_golden_digest():
    # recorded with the one-summand-per-split core: with at most one trivial
    # summand the default pivot is the same entry, so the outputs stay byte
    # for byte; with more, or with a pivot seed, only the multiplicities do
    assert core_digests(core_digest_jobs()) == (
        "c675a89ebf8e83911c63a4164937caa7fbb155d8095b4081ee6ed31b9a85c903",
        "4a20b8c553bde76972629fcc28030873be47cbacf99d5635b22c86e1b734b3bd")


def trivial_core_jobs():
    """Scrambled (R^n, 0) for n = 1..5 and seeded planned modules with core
    rank 0 and multiplicity 2..4: every split takes the whole module."""
    for n in range(1, 6):
        for seed in (0, 5, 11):
            yield scramble(trivial_module(DiffRing.POLY_DX, n), seed=seed)[0]
    rng = StableRng(0x7C0E)
    for mult in (2, 3, 4, 2, 3, 4, 2, 3):
        yield random_planned_module(rng, 0, mult).module


def test_core_of_trivial_modules_matches_the_golden_digest():
    exact = hashlib.sha256()
    for M in trivial_core_jobs():
        for pivot_seed in (None, 3):
            d = core(M, pivot_seed=pivot_seed)
            assert d.core.rank == 0
            c = d.certificate
            exact.update(repr((d.multiplicity, _mat_repr(d.core.matrix),
                               _mat_repr(c.forward), _mat_repr(c.backward))).encode())
    assert exact.hexdigest() == \
        "bab8db70aee15453255991ce5b28d0c45ab9f38e2acab080cad59e96943644f8"


def _core_bytes(d):
    c = d.certificate
    return repr((d.multiplicity, _mat_repr(d.core.matrix),
                 _mat_repr(c.forward), _mat_repr(c.backward))).encode()


def multiple_summand_jobs():
    """(module, pivot seed) for seeded planned modules of core rank 1-3 and
    multiplicity 2-4: the splits that eliminate several rows."""
    rng = StableRng(0x5E7)
    for mult in (2, 3, 4):
        for core_rank in (1, 2, 3):
            yield random_planned_module(rng, core_rank, mult).module, rng.randint(0, 2**31)


def test_core_of_multiple_summands_matches_the_golden_digest():
    # the whole output, byte for byte, at the default pivot and at a pivot
    # seed, where the split's Smith elimination runs on 2-4 rows
    exact = hashlib.sha256()
    for M, seed in multiple_summand_jobs():
        for pivot_seed in (None, seed):
            d = core(M, pivot_seed=pivot_seed)
            assert d.multiplicity >= 2
            exact.update(_core_bytes(d))
    assert exact.hexdigest() == \
        "75d1576864c272ae969e835d22238ba04ca2a288ddacc80bc127382d77948ab7"


def test_cancel_free_matches_the_golden_digest():
    exact = hashlib.sha256()
    for seed, core_rank, mult, pad in ((31, 1, 1, 1), (47, 1, 2, 1), (58, 2, 2, 2),
                                       (61, 2, 3, 1), (77, 1, 3, 2), (83, 3, 2, 1)):
        p_mod, q_mod, cert = _padded_pair(seed, core_rank, mult, pad)
        out = cancel_free(p_mod, q_mod, pad, cert)
        exact.update(repr((_mat_repr(out.forward), _mat_repr(out.backward))).encode())
    assert exact.hexdigest() == \
        "23ee69a3d58ef8f22bccb4c1898efbc7ffa681cb1b1beaed18eab13fc5e2cf25"


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
    out = cancel_free(p_mod, q_mod, 1, cert)
    assert out is not None
    assert out.source == p_mod and out.target == q_mod
    assert verify_hom(out.forward, p_mod, q_mod)
    assert out.forward @ out.backward == PolyMat.identity(p_mod.rank)


def test_cancel_free_with_mixed_certificates():
    # the pad is mixed into Q by the unipotent automorphisms [[I, g], [0, 1]]
    # and [[I, 0], [f, 1]] of Q + (R, 0), g a constant of Q and f a hom
    # Q -> (R, 0), so the certificate is not block diagonal
    for seed in (31, 47, 58):
        p_mod, q_mod, cert = _padded_pair(seed, 1, 1, 1)
        n = q_mod.rank
        g = constants(q_mod)[0]
        f = hom_space(q_mod, trivial_module(DiffRing.POLY_DX, 1)).basis[0]

        def unipotent(upper, lower):
            return PolyMat.vstack(PolyMat.hstack(PolyMat.identity(n), upper),
                                  PolyMat.hstack(lower, PolyMat.identity(1)))

        col, row = PolyMat.zeros(n, 1), PolyMat.zeros(1, n)
        mix = unipotent(g, row) @ unipotent(col, f)
        mix_inv = unipotent(col, -f) @ unipotent(-g, row)
        mixed = make_iso_certificate(cert.source, cert.target,
                                     mix @ cert.forward, cert.backward @ mix_inv)
        assert not mixed.forward.submatrix(0, n, n, n + 1).is_zero()
        assert not mixed.forward.submatrix(n, n + 1, 0, n).is_zero()
        out = cancel_free(p_mod, q_mod, 1, mixed)
        assert out is not None
        assert out.source == p_mod and out.target == q_mod
        assert verify_hom(out.forward, p_mod, q_mod)
        assert out.forward @ out.backward == PolyMat.identity(p_mod.rank)


def test_cancel_free_two_pad_lines():
    p_mod, q_mod, cert = _padded_pair(57, 1, 0, 2)
    out = cancel_free(p_mod, q_mod, 2, cert)
    assert out is not None


def test_cancel_free_rejects_wrong_endpoints():
    # rank-2 base so the scramble genuinely moves the matrix
    p_mod, q_mod, cert = _padded_pair(13, 1, 1, 1)
    assert p_mod != q_mod
    with pytest.raises(CertificateInvalid):
        cancel_free(q_mod, p_mod, 1, cert)


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
    # and over const_zero their isomorphism is built from S as over poly_dx
    A, B, S = random_similar_pair(StableRng(5), 3)
    assert A != B
    p_mod = DiffModule(DiffRing.CONST_ZERO, 3, A.to_polymat())
    q_mod = DiffModule(DiffRing.CONST_ZERO, 3, B.to_polymat())
    pad = trivial_module(DiffRing.CONST_ZERO, 1)
    cert = make_iso_certificate(
        direct_sum(p_mod, pad), direct_sum(q_mod, pad),
        PolyMat.block_diag(S.to_polymat(), PolyMat.identity(1)),
        PolyMat.block_diag(S.inverse().to_polymat(), PolyMat.identity(1)))
    out = cancel_free(p_mod, q_mod, 1, cert)
    assert out is not None
    assert out.source == p_mod and out.target == q_mod
    assert verify_hom(out.forward, p_mod, q_mod)
    assert out.forward @ out.backward == PolyMat.identity(3)


def gauged_x_line_and_trivial_line(d):
    """P = (R, x) + (R, 0) gauged by U = [[1, x^d], [0, 1]] and Q the plain
    sum, with the certificate diag(U^{-1}, 1) / diag(U, 1) of the padded
    sides.  P's trivial summand needs a hom of degree d to split off."""
    A = PolyMat.diagonal([X, P(0)])
    xd = P(*([0] * d + [1]))
    U = PolyMat(2, 2, [P(1), xd, P(0), P(1)])
    Uinv = PolyMat(2, 2, [P(1), -xd, P(0), P(1)])
    p_mod = DiffModule(DiffRing.POLY_DX, 2, (U @ A - U.derivative()) @ Uinv)
    q_mod = DiffModule(DiffRing.POLY_DX, 2, A)
    pad = trivial_module(DiffRing.POLY_DX, 1)
    cert = make_iso_certificate(direct_sum(p_mod, pad), direct_sum(q_mod, pad),
                                PolyMat.block_diag(Uinv, PolyMat.identity(1)),
                                PolyMat.block_diag(U, PolyMat.identity(1)))
    return p_mod, q_mod, cert


def test_cancel_free_past_the_cap_is_none_not_an_error():
    # at the default cap 32 core(P) keeps its trivial line, so the core
    # ranks differ (2 != 1); that is a cap-relative answer, not a fault
    p_mod, q_mod, cert = gauged_x_line_and_trivial_line(40)
    assert core(p_mod).core.rank == 2 and core(q_mod).core.rank == 1
    assert cancel_free(p_mod, q_mod, 1, cert) is None
    out = cancel_free(p_mod, q_mod, 1, cert, deg_cap=40)
    assert out.source == p_mod and out.target == q_mod
    assert make_iso_certificate(p_mod, q_mod, out.forward, out.backward)


def cap_relative_cancellations(seed, count):
    """(core rank, P, Q, n, certificate, cap): planned modules of core rank
    0-2 and multiplicity 1-2, each side scrambled by 2-8 operations, padded
    by 1-2 trivial lines, at degree caps 0-3, where cores often keep a
    trivial summand the cap hides."""
    rng = StableRng(seed)
    for _ in range(count):
        planned = random_planned_module(rng, rng.randint(0, 2), rng.randint(1, 2))
        sides = [scramble(planned.plain, seed=rng.randint(0, 2**31), ops=rng.randint(2, 8))
                 for _ in "PQ"]
        (p_mod, p_cert), (q_mod, q_cert) = sides
        n = rng.randint(1, 2)
        pad, eye = trivial_module(DiffRing.POLY_DX, n), PolyMat.identity(n)
        cert = make_iso_certificate(
            direct_sum(p_mod, pad), direct_sum(q_mod, pad),
            PolyMat.block_diag(q_cert.forward @ p_cert.backward, eye),
            PolyMat.block_diag(p_cert.forward @ q_cert.backward, eye))
        yield planned.core_rank, p_mod, q_mod, n, cert, rng.randint(0, 3)


def test_cancel_free_at_small_caps_never_raises_and_every_certificate_verifies():
    # at these caps a core often keeps a trivial summand, so the core ranks
    # can differ; cancel_free must not raise, None must come from such a
    # summand, and every certificate must verify
    outcomes = Counter()
    for core_rank, p_mod, q_mod, n, cert, cap in cap_relative_cancellations(1, 200):
        out = cancel_free(p_mod, q_mod, n, cert, deg_cap=cap)
        if out is None:
            assert max(core(p_mod, cap).core.rank, core(q_mod, cap).core.rank) > core_rank
        else:
            assert out.source == p_mod and out.target == q_mod
            assert verify_hom(out.forward, p_mod, q_mod)
            assert verify_hom(out.backward, q_mod, p_mod)
            assert out.forward @ out.backward == PolyMat.identity(p_mod.rank)
            assert out.backward @ out.forward == PolyMat.identity(p_mod.rank)
        outcomes[out is None] += 1
    assert outcomes[True] and outcomes[False] > outcomes[True]


def test_cancel_free_rejects_a_negative_pad():
    for ring in DiffRing:
        with pytest.raises(ShapeMismatch, match="negative shape"):
            trivial_module(ring, -2)
    z = trivial_module(DiffRing.POLY_DX, 0)
    cert = make_iso_certificate(z, z, PolyMat.zeros(0, 0), PolyMat.zeros(0, 0))
    with pytest.raises(ShapeMismatch, match="negative shape"):
        cancel_free(z, z, -1, cert)


def test_a_rank_that_is_not_an_int_raises_value_error():
    for ring in DiffRing:
        for rank in (True, False, 2.0, Fraction(1), "1"):
            with pytest.raises(ValueError, match=re.escape(f"got {rank!r}")):
                trivial_module(ring, rank)
        for rank, n in ((True, 1), (False, 0), (2.0, 2)):
            with pytest.raises(ValueError, match="rank must be an integer"):
                DiffModule(ring, rank, PolyMat.zeros(n, n))
    z = trivial_module(DiffRing.POLY_DX, 0)
    cert = make_iso_certificate(z, z, PolyMat.zeros(0, 0), PolyMat.zeros(0, 0))
    with pytest.raises(ValueError, match="got 1.0"):
        cancel_free(z, z, 1.0, cert)


# ---------------------------------------------------------------------------
# each check runs once, where the answer leaves the library
# ---------------------------------------------------------------------------

def count_calls(mp, calls, name, *modules_):
    """Wrap the function `name` in every module given, counting its calls
    in calls[name] however it is reached."""
    real = getattr(modules_[0], name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    for mod in modules_:
        mp.setattr(mod, name, wrapper)


def checks_counted(mp):
    from diffmod import exactalg, modules
    calls = Counter()
    count_calls(mp, calls, "make_iso_certificate", modules, cores)
    count_calls(mp, calls, "_product_is_identity", exactalg, modules, cores)
    count_calls(mp, calls, "smith_normal_form_with_inverses", exactalg)
    return calls


def test_core_checks_one_certificate(monkeypatch):
    rng = StableRng(1601)
    for mult in (0, 1, 2):
        M = random_planned_module(rng, 1, mult).module
        with monkeypatch.context() as mp:
            calls = checks_counted(mp)
            d = core(M)
        assert d.multiplicity == mult
        assert calls["make_iso_certificate"] == 1


def test_cancel_free_checks_two_certificates(monkeypatch):
    # its input and the result; the cores' isomorphism is built from the
    # input, and the decompositions are covered by the result
    for args in [(31, 1, 1, 1), (57, 1, 0, 2)]:
        p_mod, q_mod, cert = _padded_pair(*args)
        with monkeypatch.context() as mp:
            calls = checks_counted(mp)
            out = cancel_free(p_mod, q_mod, args[3], cert)
        assert out is not None
        assert calls["make_iso_certificate"] == 2


def seeded_certificates():
    """Certificates from scramble, core, iso_search and cancel_free over
    both rings, as (source, target, forward, backward)."""
    rng = StableRng(2606)
    certs = []
    for core_rank, mult in ((0, 1), (0, 3), (1, 1), (2, 1), (1, 2)):
        module = random_planned_module(rng, core_rank, mult).module
        twisted, cert = scramble(module, seed=rng.randint(0, 999))
        certs += [cert, core(module).certificate, iso_search(module, twisted, seed=1).certificate]
    p_mod, q_mod, cert = _padded_pair(31, 1, 1, 1)
    certs += [cert, cancel_free(p_mod, q_mod, 1, cert)]
    for n in (1, 2, 3):
        A, B, S = random_similar_pair(rng, n)
        src, tgt = (DiffModule(DiffRing.CONST_ZERO, n, M.to_polymat()) for M in (A, B))
        pad = trivial_module(DiffRing.CONST_ZERO, 1)
        padded = make_iso_certificate(
            direct_sum(src, pad), direct_sum(tgt, pad),
            PolyMat.block_diag(S.to_polymat(), PolyMat.identity(1)),
            PolyMat.block_diag(S.inverse().to_polymat(), PolyMat.identity(1)))
        certs += [iso_search(src, tgt, seed=n).certificate, core(padded.source).certificate,
                  padded, cancel_free(src, tgt, 1, padded)]
    assert all(certs)
    return [tuple(c) for c in certs]


def four_checks(source, target, forward, backward):
    """The certificate check in full: both maps homs, both composites I."""
    return (verify_hom(forward, source, target) and verify_hom(backward, target, source)
            and _product_is_identity(backward, forward)
            and _product_is_identity(forward, backward))


def one_sided(source, target, forward, backward):
    """The pair padded by one trivial line on the target side, and its
    mirror: G F = I, or F G = I, but never both."""
    pad = trivial_module(source.ring, 1)
    wide = direct_sum(target, pad)
    down = PolyMat.vstack(forward, PolyMat.zeros(1, source.rank))
    across = PolyMat.hstack(backward, PolyMat.zeros(source.rank, 1))
    return [(source, wide, down, across), (wide, source, across, down)]


def perturbed(source, target, forward, backward):
    """Every entry of either map changed by +-1 or +-x."""
    for which in (0, 1):
        T = (forward, backward)[which]
        for k in range(len(T.entries)):
            for delta in (P(1), P(-1), X, -X):
                entries = list(T.entries)
                entries[k] = entries[k] + delta
                bent = PolyMat(T.rows, T.cols, entries)
                yield (source, target) + ((bent, backward) if which == 0 else (forward, bent))


def test_certificate_check_agrees_with_the_four_checks():
    accepted = rejected = 0
    certs = seeded_certificates()
    for cert in certs:
        cases = [cert] + one_sided(*cert) + list(perturbed(*cert))
        cases += [bent for pair in one_sided(*cert) for bent in perturbed(*pair)]
        for case in cases:
            expected = four_checks(*case)
            try:
                got = make_iso_certificate(*case) == case
            except CertificateInvalid:
                got = False
            assert got == expected, case
            accepted += expected
            rejected += not expected
    assert accepted == len(certs) and rejected > 1000


def test_a_valid_certificate_costs_one_hom_check_and_one_product(monkeypatch):
    from diffmod import exactalg, modules
    for cert in seeded_certificates():
        with monkeypatch.context() as mp:
            calls = Counter()
            count_calls(mp, calls, "verify_hom", modules, cores)
            count_calls(mp, calls, "_product_is_identity", exactalg, modules, cores)
            make_iso_certificate(*cert)
        assert calls == {"verify_hom": 1, "_product_is_identity": 1}


def two_row_split():
    """two_trivial_lines_and_x() with w and v, w v = I, for one split."""
    M = two_trivial_lines_and_x()
    _, ws, vs = _pairing_data(M)
    return M, PolyMat.vstack(ws[1], ws[0]).scale(Fraction(1, 3)), PolyMat.hstack(vs[0], vs[1])


def test_split_checks_one_product_and_no_smith_form(monkeypatch):
    M, w, v = two_row_split()
    calls = checks_counted(monkeypatch)
    assert split_trivial_summand(M, w, v)[0].rank == 1
    assert calls["_product_is_identity"] == 1
    assert calls["smith_normal_form_with_inverses"] == 0
    assert calls["make_iso_certificate"] == 0


def test_split_rejects_an_inverse_that_fails_its_product_check(monkeypatch):
    M, w, v = two_row_split()
    monkeypatch.setattr(cores, "_product_is_identity", lambda X, Y: False)
    with pytest.raises(ArithmeticError, match="not invertible"):
        split_trivial_summand(M, w, v)


def plus_x(cell):
    """The cell (coefficients, denominator) of the polynomial cell + x."""
    cs, den = cell
    cs = [*cs, 0, 0][:max(len(cs), 2)]
    cs[1] += den
    return tuple(cs), den


def bent_elimination(monkeypatch, bend):
    """cores._smith_eliminate with bend applied to its (D, V, V^-1) rows of
    cells."""
    real = cores._smith_eliminate

    def bent(rows, ncols):
        out = real(rows, ncols)
        bend(*out)
        return out
    monkeypatch.setattr(cores, "_smith_eliminate", bent)


def test_split_does_not_read_the_invariant_factors(monkeypatch):
    # w v = I forces D = [I | 0]; a D bent anyway, with the same V and V^-1,
    # gives the same split, proven by the same output checks
    M, w, v = two_row_split()
    expected = split_trivial_summand(M, w, v)

    def bend_d(D, V, Vinv):
        D[1][1] = ((0, 1), 1)
        D[0][0] = ((), 1)
    bent_elimination(monkeypatch, bend_d)
    assert split_trivial_summand(M, w, v) == expected


def test_split_refuses_a_bent_kernel_basis_by_its_output_check(monkeypatch):
    M, w, v = two_row_split()

    def bend_v(D, V, Vinv):
        V[0][2] = plus_x(V[0][2])
    bent_elimination(monkeypatch, bend_v)
    with pytest.raises(ArithmeticError, match="change of basis is not invertible"):
        split_trivial_summand(M, w, v)


def test_split_eliminates_the_rows_of_w_and_carries_nothing(monkeypatch):
    M, w, v = two_row_split()
    expected = split_trivial_summand(M, w, v)
    real, seen = cores._smith_eliminate, []

    def record(rows, ncols):
        seen.append(([list(row) for row in rows], ncols))
        return real(rows, ncols)
    monkeypatch.setattr(cores, "_smith_eliminate", record)
    assert split_trivial_summand(M, w, v) == expected
    den, ints = w._form()
    assert seen == [([[(cs, den) for cs in ints[:3]], [(cs, den) for cs in ints[3:]]], M.rank)]
    assert (w.rows, w.cols) == (2, 3)


def test_only_the_split_runs_a_smith_elimination(monkeypatch):
    from diffmod import exactalg
    rng = StableRng(2201)
    M = random_planned_module(rng, 2, 1).module
    N, cert = scramble(M, seed=7)
    T = cert.forward

    def answers():
        return (T.inverse_unimodular(), T.determinant(), scramble(M, seed=7),
                is_trivial(scramble(trivial_module(DiffRing.POLY_DX, 3), seed=3)[0]),
                iso_search(M, N, seed=1))
    expected = answers()
    assert expected[1].is_constant() and expected[1]
    assert expected[3].trivial and expected[4].kind == "iso"

    def no_smith(rows, ncols):
        raise AssertionError("a Smith elimination ran")
    with monkeypatch.context() as mp:
        mp.setattr(exactalg, "_smith_eliminate", no_smith)
        mp.setattr(cores, "_smith_eliminate", no_smith)
        assert answers() == expected
    # core runs one elimination per split that leaves a nonzero rest, and
    # none for a split that takes the whole module
    modules_ = (M, two_trivial_lines_and_x(), random_planned_module(rng, 1, 2).module,
                scramble(trivial_module(DiffRing.POLY_DX, 4), seed=5)[0],
                random_planned_module(rng, 0, 3).module)
    real, rests = cores.split_trivial_summand, []

    def split(*args):
        out = real(*args)
        rests.append(out[0].rank)
        return out
    for module, whole in zip(modules_, (False, False, False, True, True)):
        rests.clear()
        with monkeypatch.context() as mp:
            calls = Counter()
            count_calls(mp, calls, "_smith_eliminate", cores)
            mp.setattr(cores, "split_trivial_summand", split)
            core(module)
        assert len(rests) >= 1 and (rests == [0]) == whole
        assert calls["_smith_eliminate"] == sum(r > 0 for r in rests)


def test_core_of_a_trivial_module_checks_no_hom_and_runs_no_elimination(monkeypatch):
    # the whole-module split checks v' + A v = 0 and nothing more, and a
    # split with a nonzero rest proves its inputs by its own output check
    T = scramble(trivial_module(DiffRing.POLY_DX, 3), seed=3)[0]
    expected = core(T)
    M, w, v = two_row_split()
    split = split_trivial_summand(M, w, v)

    def refuse(*args):
        raise AssertionError("an input re-check or elimination ran")
    monkeypatch.setattr(cores, "verify_hom", refuse)
    assert split_trivial_summand(M, w, v) == split
    monkeypatch.setattr(cores, "_smith_eliminate", refuse)
    d = core(T)
    assert (d.multiplicity, d.core, d.certificate) == \
        (expected.multiplicity, expected.core, expected.certificate)


def test_a_split_runs_in_integer_cells_with_no_poly_division(monkeypatch):
    # one split with a nonzero rest: its elimination divides integer cells,
    # and no Poly division or clearing of Poly entries runs inside it
    from diffmod import exactalg
    M = random_planned_module(StableRng(2804), 1, 3).module
    expected = core(M)
    real_split, splits, inside, calls = cores.split_trivial_summand, [], [False], Counter()

    def split(*args):
        inside[0] = True
        try:
            out = real_split(*args)
        finally:
            inside[0] = False
        splits.append(out[0].rank)
        return out

    def counted(name, real):
        def wrapper(*args):
            calls[name, inside[0]] += 1
            return real(*args)
        return wrapper
    monkeypatch.setattr(cores, "split_trivial_summand", split)
    monkeypatch.setattr(Poly, "__divmod__", counted("divmod", Poly.__divmod__))
    monkeypatch.setattr(exactalg, "_int_cleared", counted("cleared", exactalg._int_cleared))
    monkeypatch.setattr(exactalg, "_cell_divmod", counted("cell", exactalg._cell_divmod))
    d = core(M)
    assert (d.multiplicity, d.core, d.certificate) == \
        (expected.multiplicity, expected.core, expected.certificate)
    assert splits == [1]
    assert calls["cell", True] > 0
    assert calls["divmod", True] == calls["cleared", True] == 0
    # nor anywhere else in core: w is built from the integer form of the
    # pairing block's inverse
    assert calls["cleared", False] == 0


def test_decompose_runs_one_chain_per_trivial_free_check(monkeypatch):
    # core computes hom(cur, (R, 0)) first and constants(cur) only when
    # that space is nonzero: a trivial-free input and the confirming pass
    # after a split compute no constants; trivial_pairing and
    # is_trivial_free still compute both spaces
    calls = Counter()
    for name in ("hom_space", "constants"):
        count_calls(monkeypatch, calls, name, cores)
    rng = StableRng(2906)
    planned = [random_planned_module(rng, rng.randint(1, 2), mult) for mult in (0, 1, 2, 3)]
    cases = [(line(X), 0), (two_trivial_lines_and_x(), 1),
             (scramble(trivial_module(DiffRing.POLY_DX, 3), seed=3)[0], 1)]
    cases += [(p.module, int(p.multiplicity > 0)) for p in planned]
    for M, splits in cases:
        calls.clear()
        d = core(M)
        assert (d.multiplicity > 0) == (splits > 0)
        # a split that leaves a core runs one more hom space and no constants
        confirm = int(d.core.rank > 0)
        assert calls == Counter(hom_space=splits + confirm, constants=splits)
        assert is_trivial_free(d.core)
        for check in (trivial_pairing, is_trivial_free):
            calls.clear()
            check(M)
            assert calls == Counter(hom_space=1, constants=1)


def test_pairing_values_match_the_products_of_each_pair():
    # the pairing matrix is one integer product of the stacked maps; entry
    # (j, k) is still the constant w_j v_k
    rng = StableRng(2805)
    modules_ = [trivial_module(DiffRing.POLY_DX, 0), line(X), two_trivial_lines_and_x()]
    modules_ += [random_planned_module(rng, rng.randint(0, 2), rng.randint(0, 3)).module
                 for _ in range(8)]
    for M in modules_:
        pairing, ws, vs = _pairing_data(M)
        assert (pairing.rows, pairing.cols) == (len(ws), len(vs))
        assert pairing.to_rows() == [[(w @ v).entry(0, 0).coeff(0) for v in vs] for w in ws]


def test_a_nonconstant_pairing_value_is_named_in_the_error(monkeypatch):
    # maps that are not a hom and a constant: the first nonconstant value,
    # row by row, is the one named
    ws = [PolyMat(1, 2, [P(1), P(0)]), PolyMat(1, 2, [P(Fraction(1, 2)), X * X])]
    vs = [PolyMat(2, 1, [P(1), P(0)]), PolyMat(2, 1, [P(3), P(2)])]
    monkeypatch.setattr(cores, "hom_space", lambda P_, Q_, cap: HomSpace(P_, Q_, ws, 32, False))
    monkeypatch.setattr(cores, "constants", lambda *args: vs)
    first = (ws[1] @ vs[1]).entry(0, 0)
    assert str(first) == "2*x^2 + 3/2"
    with pytest.raises(NonConstantPairing, match=re.escape(f"pairing value {first} is not")):
        _pairing_data(DIAG01)
