"""Trivial-free cores and free cancellation.

The pairing between homomorphisms into the rank-1 trivial module and the
constants detects rank-1 trivial direct summands: each composite
(R,0) -> P -> (R,0) is multiplication by a constant, and some composite is
a unit exactly when a trivial summand splits off.  Peeling summands until
the pairing vanishes yields the core decomposition
P isomorphic-to core(P) + (R^s, 0), with an exact certificate accumulated
along the way.  Cancelling free summands is then a corollary: cores of the
two sides must be isomorphic, and the certificates compose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import PolyMat, RatMat, _row_kernel_completion
from .modules import (DEFAULT_TRIALS, CertificateInvalid, DiffModule,
                      IsoCertificate, constants, direct_sum, hom_space,
                      iso_search, make_iso_certificate, trivial_module,
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


def _pairing_data(P: DiffModule, deg_cap: Optional[int] = None):
    ws = hom_space(P, trivial_module(P.ring, 1), deg_cap).basis
    vs = constants(P, deg_cap)
    entries = []
    for w in ws:
        for v in vs:
            prod = (w @ v).entry(0, 0)
            if not prod.is_constant():
                raise NonConstantPairing(f"pairing value {prod} is not constant")
            entries.append(prod.coeff(0))
    return RatMat(len(ws), len(vs), entries), ws, vs


def trivial_pairing(P: DiffModule, deg_cap: Optional[int] = None) -> RatMat:
    """Matrix of the pairing hom(P, (R,0)) x constants(P) -> Q, with entry
    (j, k) the constant w_j(v_k).  Empty dimensions give empty matrices."""
    return _pairing_data(P, deg_cap)[0]


def is_trivial_free(P: DiffModule, deg_cap: Optional[int] = None) -> bool:
    """True when P admits no rank-1 trivial direct summand (relative to the
    degree cap): the pairing matrix is identically zero."""
    return trivial_pairing(P, deg_cap).is_zero()


def split_trivial_summand(P: DiffModule, w: PolyMat, v: PolyMat):
    """Split the trivial summand spanned by the constant v off P.

    Requires w in hom(P, (R,0)), v in constants(P), and w(v) = 1 (rescale by
    the constant pairing value first; the constants being a *field* is what
    makes that possible).  Returns (P', W, W^{-1}) where W = [K | v],
    K = kernel_basis(w), is the invertible change of basis conjugating the
    structure matrix of P into block-diagonal form diag(A', 0), and
    P' = (R^{n-1}, A').

    W^{-1} is built, not computed: with C = unimodular_completion(w), from
    the same verified Smith form as K, w K = 0, C K = I and w v = 1 give
    [C - (C v) w; w] W = I.
    """
    n = P.rank
    one = trivial_module(P.ring, 1)
    if w.rows != 1 or w.cols != n or not verify_hom(w, P, one):
        raise NotAHom("w is not a differential homomorphism onto the trivial line")
    if v.rows != n or v.cols != 1 or not P.derive(v).is_zero():
        raise NotAConstant("v is not a constant of P")
    pairing = (w @ v).entry(0, 0)
    if not pairing.is_constant() or pairing.coeff(0) != 1:
        raise PairingNotUnit(f"w(v) = {pairing}, expected 1")
    ker, comp = _row_kernel_completion(w)
    W = PolyMat.hstack(ker, v)
    Winv = PolyMat.vstack(comp - (comp @ v) @ w, w)
    # structure matrix in the new basis; must come out block diagonal
    B = Winv @ (P.ring.derive_mat(W) + P.matrix @ W)
    if not B.submatrix(0, n, n - 1, n).is_zero() or not B.submatrix(n - 1, n, 0, n).is_zero():
        raise ArithmeticError("change of basis failed to split the trivial summand")
    A_rest = B.submatrix(0, n - 1, 0, n - 1)
    P_rest = DiffModule(P.ring, n - 1, A_rest)
    return P_rest, W, Winv


@dataclass(frozen=True)
class CoreDecomposition:
    """input isomorphic-to core + (R^multiplicity, 0), certificate verified
    against that direct sum."""
    input: DiffModule
    core: DiffModule
    multiplicity: int
    certificate: IsoCertificate


def core(P: DiffModule, deg_cap: Optional[int] = None,
         pivot_seed: Optional[int] = None) -> CoreDecomposition:
    """Peel rank-1 trivial summands until the trivial pairing vanishes.

    The default pivot is the first nonzero pairing entry in row-major
    order; pivot_seed selects random pivots instead and exists to exercise
    uniqueness of the core under different split choices.

    Both certificate maps are composed from the splits: each split's W
    extends backward on the right and its W^{-1} extends forward on the
    left, so nothing is inverted here; make_iso_certificate checks the
    pair once."""
    rng = StableRng(pivot_seed) if pivot_seed is not None else None
    cur = P
    forward = backward = PolyMat.identity(P.rank)
    s = 0
    while cur.rank > 0:
        pairing, ws, vs = _pairing_data(cur, deg_cap)
        nonzero = [(j, k) for j in range(pairing.rows) for k in range(pairing.cols)
                   if pairing.entry(j, k)]
        if not nonzero:
            break
        j, k = nonzero[rng.randint(0, len(nonzero) - 1)] if rng else nonzero[0]
        c = pairing.entry(j, k)
        w = ws[j].scale(1 / c)
        v = vs[k]
        cur, W, Winv = split_trivial_summand(cur, w, v)
        # embed the new change of basis alongside the summands already split
        backward = backward @ PolyMat.block_diag(W, PolyMat.identity(s))
        forward = PolyMat.block_diag(Winv, PolyMat.identity(s)) @ forward
        s += 1
    decomposed = direct_sum(cur, trivial_module(P.ring, s))
    cert = make_iso_certificate(P, decomposed, forward, backward)
    if cur.rank + s != P.rank:
        raise ArithmeticError("rank bookkeeping failed in core extraction")
    return CoreDecomposition(P, cur, s, cert)


def cancel_free(P: DiffModule, Q: DiffModule, n: int, cert: IsoCertificate,
                trials: int = DEFAULT_TRIALS, seed: int = 0,
                deg_cap: Optional[int] = None) -> Optional[IsoCertificate]:
    """Given a certified isomorphism P + (R^n, 0) = Q + (R^n, 0), produce a
    certified isomorphism P = Q, or None when the search is inconclusive.

    Rather than replaying an induction on n, this routes through cores:
    core(P) and core(Q) are isomorphic, and the decomposition certificates
    splice the core isomorphism back up to P = Q."""
    sum_p = direct_sum(P, trivial_module(P.ring, n))
    sum_q = direct_sum(Q, trivial_module(Q.ring, n))
    if cert.source != sum_p or cert.target != sum_q:
        raise CertificateInvalid("certificate endpoints do not match P+(R^n,0), Q+(R^n,0)")
    try:
        make_iso_certificate(sum_p, sum_q, cert.forward, cert.backward)
    except Exception as exc:
        raise CertificateInvalid(f"certificate failed verification: {exc}") from exc
    dp = core(P, deg_cap)
    dq = core(Q, deg_cap)
    result = iso_search(dp.core, dq.core, trials=trials, seed=seed, deg_cap=deg_cap)
    if result.kind == "unknown":
        return None
    if result.kind == "not_iso":
        # impossible for genuinely isomorphic stabilizations; a proven
        # mismatch here means the inputs (or this library) are inconsistent
        raise ArithmeticError(
            f"cores proved non-isomorphic ({result.witness}) despite a valid "
            f"stabilized certificate")
    if dp.multiplicity != dq.multiplicity:
        raise ArithmeticError("core multiplicities disagree for stably isomorphic modules")
    s = dp.multiplicity
    mid = PolyMat.block_diag(result.certificate.forward, PolyMat.identity(s))
    mid_inv = PolyMat.block_diag(result.certificate.backward, PolyMat.identity(s))
    forward = dq.certificate.backward @ mid @ dp.certificate.forward
    backward = dp.certificate.backward @ mid_inv @ dq.certificate.forward
    return make_iso_certificate(P, Q, forward, backward)
