"""Trivial-free cores and free cancellation.

The pairing between homomorphisms into the rank-1 trivial module and the
constants is a matrix of constants.  If P = C + (R^s, 0) with C
trivial-free, it is Pi_C + I_s with Pi_C and the cross terms zero, so its
rank is s, and one split along an invertible s x s block of it peels all s
summands: P isomorphic-to core(P) + (R^s, 0), with an exact certificate.
Cancelling free summands is then a construction: conjugated by the two
decompositions, the given isomorphism restricts to one of the cores, and
the certificates compose.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple, Optional

from .exactalg import (PolyMat, RatMat, _int_gauss_jordan, _int_row, _product_is_identity,
                       _smith_eliminate)
from .modules import (CertificateInvalid, DiffModule, IsoCertificate, constants,
                      direct_sum, hom_space, make_iso_certificate, trivial_module,
                      verify_hom)
from .rng import StableRng


class NonConstantPairing(Exception):
    """A composite (R,0) -> P -> (R,0) failed to be a constant; this cannot
    happen for genuine homomorphisms and signals an internal fault."""


class PairingNotUnit(Exception):
    """split_trivial_summand was called with w(v) != 1."""


class NotAHom(Exception):
    """The claimed projection is not a differential homomorphism."""


class NotAConstant(Exception):
    """The claimed section vector is not a constant of the module."""


def _pairing_data(P: DiffModule, deg_cap: Optional[int] = None, ws=None):
    """(pairing, ws, vs): ws a basis of hom(P, (R,0)), computed unless
    given, and vs one of constants(P)."""
    if ws is None:
        ws = hom_space(P, trivial_module(P.ring, 1), deg_cap).basis
    vs = constants(P, deg_cap)
    # the pairing values as one integer product of the stacked w and v
    prods = (reduce(PolyMat.vstack, ws, PolyMat.zeros(0, P.rank)) @
             reduce(PolyMat.hstack, vs, PolyMat.zeros(P.rank, 0)))
    if prods.max_degree():
        k = next(k for k, cs in enumerate(prods._form()[1]) if len(cs) > 1)
        value = prods.entry(*divmod(k, len(vs)))
        raise NonConstantPairing(f"pairing value {value} is not constant")
    return prods.coefficient_matrix(0), ws, vs


def trivial_pairing(P: DiffModule, deg_cap: Optional[int] = None) -> RatMat:
    """Matrix of the pairing hom(P, (R,0)) x constants(P) -> Q, with entry
    (j, k) the constant w_j(v_k).  Empty dimensions give empty matrices."""
    return _pairing_data(P, deg_cap)[0]


def is_trivial_free(P: DiffModule, deg_cap: Optional[int] = None) -> bool:
    """True when P admits no rank-1 trivial direct summand (relative to the
    degree cap): the pairing matrix is identically zero."""
    return trivial_pairing(P, deg_cap).is_zero()


def split_trivial_summand(P: DiffModule, w: PolyMat, v: PolyMat):
    """Split the trivial summand (R^s, 0) spanned by the constants v off P.

    Requires w (s x n) in hom(P, (R^s, 0)), the s columns of v in
    constants(P), and w v = I.  Returns (P', M, M^{-1}) where M = [K | v]
    conjugates the structure matrix of P into diag(A', 0), and
    P' = (R^{n-s}, A').  One Smith elimination U w V = D gives the kernel
    basis K = V[:, s:] of w and its completion C = V^{-1}[s:, :], so
    M^{-1} = [C - (C v) w; w] is built, not computed; D is not read, as
    w v = I forces D = [I | 0] (Cauchy-Binet).  Only the shapes and w v = I
    are checked first: whatever D says, one exact M^{-1} M = I and the
    block-diagonal check make M an isomorphism, and since w M = [0 | I] is
    constant, the zero last s columns of B say v' + A v = 0 and its zero
    last s rows say w' = w A.  For s = n there is no kernel: w = v^{-1},
    v' + A v = 0 gives w' = -w v' w = w A, and ((R^0, 0), v, w) is the
    split, with no elimination.  On any failure the input checks run in
    order, and the first that fails is raised."""
    n, s = P.rank, w.rows
    try:
        if w.cols != n or v.rows != n or v.cols != s or w @ v != PolyMat.identity(s):
            raise ArithmeticError("w and v do not split P")
        if s == n:
            if not P.derive(v).is_zero():
                raise ArithmeticError("v is not a matrix of constants of P")
            return DiffModule(P.ring, 0, PolyMat.zeros(0, 0)), v, w
        _, V, Vinv = _smith_eliminate([w._cells()[i * n:(i + 1) * n] for i in range(s)], n)
        ker = PolyMat._build(n, n - s, [e for row in V for e in row[s:]])
        comp = PolyMat._build(n - s, n, [e for row in Vinv[s:] for e in row])
        M = PolyMat.hstack(ker, v)
        Minv = PolyMat.vstack(comp - (comp @ v) @ w, w)
        if not _product_is_identity(Minv, M):
            raise ArithmeticError("change of basis is not invertible")
        # structure matrix in the new basis; must come out block diagonal
        B = Minv @ (P.ring.derive_mat(M) + P.matrix @ M)
        r = n - s
        if not B.submatrix(0, n, r, n).is_zero() or not B.submatrix(r, n, 0, n).is_zero():
            raise ArithmeticError("change of basis failed to split the trivial summand")
        return DiffModule(P.ring, r, B.submatrix(0, r, 0, r)), M, Minv
    except ArithmeticError:
        if w.cols != n or not verify_hom(w, P, trivial_module(P.ring, s)):
            raise NotAHom("w is not a differential homomorphism onto a trivial module")
        if v.rows != n or v.cols != s or not P.derive(v).is_zero():
            raise NotAConstant("v is not a matrix of constants of P")
        pairing = w @ v
        if pairing != PolyMat.identity(s):
            raise PairingNotUnit(f"w v = {pairing}, expected the identity")
        raise


def _pivots(M: RatMat, rows, cols):
    """The first independent columns of M[rows, :], taken in order cols."""
    ints = [_int_row([M.entry(j, k) for k in cols])[0] for j in rows]
    return [cols[c] for c in _int_gauss_jordan(ints, len(cols))[1]]


class CoreDecomposition(NamedTuple):
    """input isomorphic-to core + (R^multiplicity, 0), certificate verified
    against that direct sum."""
    input: DiffModule
    core: DiffModule
    multiplicity: int
    certificate: IsoCertificate


def core(P: DiffModule, deg_cap: Optional[int] = None,
         pivot_seed: Optional[int] = None) -> CoreDecomposition:
    """Peel all rank Pi trivial summands with one split per pairing Pi.

    Rows J, then columns K, are the first independent ones of Pi (for s = 1
    the first nonzero entry in row-major order); pivot_seed permutes both
    first, to exercise uniqueness of the core under other split choices.
    w = Pi_JK^{-1} [w_j] and v = [v_k] give w v = I.  The core is then
    confirmed by hom(core, (R,0)) alone: when that space is {0} the pairing
    is empty and constants(core) is not computed.  Only cap-relative hom
    spaces can leave the pairing nonzero, and then the core is split again.

    Both certificate maps are composed from the splits (_decompose), and
    make_iso_certificate checks the pair once."""
    cur, s, forward, backward = _decompose(P, deg_cap, pivot_seed)
    cert = make_iso_certificate(P, direct_sum(cur, trivial_module(P.ring, s)),
                                forward, backward)
    return CoreDecomposition(P, cur, s, cert)


def _decompose(P: DiffModule, deg_cap: Optional[int], pivot_seed: Optional[int] = None):
    """core's splits as (core, multiplicity, forward, backward), unchecked as
    a whole: the first split's M and M^{-1} are backward and forward, each
    later M extends backward on the right and its M^{-1} extends forward on
    the left, so nothing is inverted.  Each round computes hom(cur, (R,0))
    first and stops when it is {0}, the pairing then being empty, so
    constants(cur) runs only when the pairing can be nonzero.  w is built
    from the integer form of Pi_JK^{-1}."""
    rng = StableRng(pivot_seed) if pivot_seed is not None else None
    cur = P
    forward = backward = PolyMat.identity(P.rank)
    s = 0
    while cur.rank > 0:
        ws = hom_space(cur, trivial_module(cur.ring, 1), deg_cap).basis
        if not ws:
            break
        pairing, _, vs = _pairing_data(cur, deg_cap, ws)
        rows, cols = list(range(pairing.rows)), list(range(pairing.cols))
        if rng:
            rows, cols = (sorted(o, key=lambda _: rng.next_u64()) for o in (rows, cols))
        J = _pivots(pairing.transpose(), cols, rows)
        if not J:
            break
        K = _pivots(pairing, J, cols)
        inv, den = _int_row(RatMat.from_rows([[pairing.entry(j, k) for k in K]
                                              for j in J]).inverse().entries)
        w = (PolyMat._from_ints(len(J), len(J), den, [(v,) for v in inv]) @
             reduce(PolyMat.vstack, [ws[j] for j in J]))
        v = reduce(PolyMat.hstack, [vs[k] for k in K])
        cur, M, Minv = split_trivial_summand(cur, w, v)
        if s:  # embed the new change of basis alongside the summands already split
            M = backward @ PolyMat.block_diag(M, PolyMat.identity(s))
            Minv = PolyMat.block_diag(Minv, PolyMat.identity(s)) @ forward
        backward, forward = M, Minv
        s += len(J)
    if cur.rank + s != P.rank:
        raise ArithmeticError("rank bookkeeping failed in core extraction")
    return cur, s, forward, backward


def cancel_free(P: DiffModule, Q: DiffModule, n: int, cert: IsoCertificate,
                seed: int = 0, deg_cap: Optional[int] = None) -> Optional[IsoCertificate]:
    """Build a certified isomorphism P = Q from a certified
    P + (R^n, 0) = Q + (R^n, 0), or None when a core keeps a trivial summand
    at this degree cap.  The pair, conjugated by P = C + (R^s, 0) and
    Q = D + (R^t, 0) (_decompose), is F: C + R^(s+n) -> D + R^(t+n) and
    G = F^{-1}, and G_11 F_11 = I - N with N = G_12 F_21.  On trivial-free
    cores F_21 G_12 is a pairing matrix, hence 0, so N^2 = 0 and F_11 has the
    inverse (I + N) G_11; rank C != rank D or N^2 != 0 gives None.  Only
    F's first c columns and G's first c rows are read, so only they are
    formed.  Only the input and the result are checked.  seed is ignored."""
    sum_p = direct_sum(P, trivial_module(P.ring, n))
    sum_q = direct_sum(Q, trivial_module(Q.ring, n))
    if cert.source != sum_p or cert.target != sum_q:
        raise CertificateInvalid("certificate endpoints do not match P+(R^n,0), Q+(R^n,0)")
    try:
        make_iso_certificate(sum_p, sum_q, cert.forward, cert.backward)
    except Exception as exc:
        raise CertificateInvalid(f"certificate failed verification: {exc}") from exc
    core_p, s, fwd_p, bwd_p = _decompose(P, deg_cap)
    core_q, _, fwd_q, bwd_q = _decompose(Q, deg_cap)
    c, m, pad = core_p.rank, sum_p.rank, PolyMat.identity(n)
    if core_q.rank != c:
        return None
    F = PolyMat.block_diag(fwd_q, pad) @ (
        cert.forward @ PolyMat.block_diag(bwd_p, pad).submatrix(0, m, 0, c))
    G = (PolyMat.block_diag(fwd_p, pad).submatrix(0, c, 0, m) @ cert.backward) @ \
        PolyMat.block_diag(bwd_q, pad)
    N = G.submatrix(0, c, c, m) @ F.submatrix(c, m, 0, c)
    if not (N @ N).is_zero():
        return None
    phi_inv = (PolyMat.identity(c) + N) @ G.submatrix(0, c, 0, c)
    eye = PolyMat.identity(s)
    forward = bwd_q @ PolyMat.block_diag(F.submatrix(0, c, 0, c), eye) @ fwd_p
    backward = bwd_p @ PolyMat.block_diag(phi_inv, eye) @ fwd_q
    return make_iso_certificate(P, Q, forward, backward)
