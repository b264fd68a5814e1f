"""Differential modules (R^n, A) and the exact linear machinery on them:
hom spaces up to a degree cap, constants, triviality certificates, an
isomorphism decision (complete over const_zero) and random basis change.

A differential module is free with a chosen basis, so it is just a square
matrix A over the ring; the derivation acts by v |-> v' + A v.  A
differential homomorphism T from (R^n, A) to (R^m, B) is an m x n matrix
with T' = T A - B T; the same convention is used everywhere in the package.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import lshift, mul
from typing import NamedTuple, Optional

from .diffring import DiffRing, RingMismatch
from .exactalg import (NotUnimodular, Poly, PolyMat, ShapeMismatch, _crt,
                       _int_cleared, _int_gauss_jordan, _int_mat, _lift_vector,
                       _modp_echelon, _modp_kernel, _modp_width, _primes,
                       _product_is_identity, _vanishes)
from .rng import StableRng

DEFAULT_DEG_CAP = 32
DEFAULT_TRIALS = 32
COEFF_HEIGHT = 101  # sampling height for random hom combinations


class CertificateInvalid(Exception):
    """A claimed isomorphism certificate failed exact re-verification."""


class DiffModule:
    """(R^rank, matrix): the free module R^rank with derivation
    v |-> v' + matrix @ v; immutable, equal and hashed by value (a cache key)."""
    __slots__ = ("ring", "rank", "matrix")

    def __init__(self, ring: DiffRing, rank: int, matrix: PolyMat):
        if matrix.rows != rank or matrix.cols != rank:
            raise ShapeMismatch(
                f"rank {rank} module needs a {rank}x{rank} matrix, "
                f"got {matrix.rows}x{matrix.cols}")
        for e in matrix.entries:
            ring.validate_element(e)
        for name, value in zip(self.__slots__, (ring, rank, matrix)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.rank, self.matrix) == (other.ring, other.rank, other.matrix)

    def __hash__(self):
        return hash((self.ring, self.rank, self.matrix))

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return DiffModule, (self.ring, self.rank, self.matrix)

    def derive(self, v: PolyMat) -> PolyMat:
        """The derivation action on a column vector (or matrix of columns)."""
        if v.rows != self.rank:
            raise ShapeMismatch(f"vector of length {v.rows} in a rank {self.rank} module")
        return self.ring.derive_mat(v) + self.matrix @ v

    def __repr__(self):
        return f"DiffModule({self.ring.tag}, rank={self.rank})"


def trivial_module(ring: DiffRing, n: int) -> DiffModule:
    """(R^n, 0): the trivial differential structure."""
    return DiffModule(ring, n, PolyMat.zeros(n, n))


def direct_sum(P: DiffModule, Q: DiffModule) -> DiffModule:
    if P.ring != Q.ring:
        raise RingMismatch(f"{P.ring.tag} vs {Q.ring.tag}")
    return DiffModule(P.ring, P.rank + Q.rank, PolyMat.block_diag(P.matrix, Q.matrix))


def verify_hom(T: PolyMat, source: DiffModule, target: DiffModule) -> bool:
    """Exact check of T' = T A - B T, A and B the matrices of source and
    target, by one integer substitution x = 2**K.

    With s the common denominator of A and B and t that of T, the residual
        R = s (tT)' - (tT)(sA) + (sB)(tT) = s t (T' - T A + B T)
    is an integer polynomial matrix (over const_zero the derivative term is
    absent), and T is a hom iff R = 0.  Each coefficient of R is at most
    s |(tT)'|_1 + |tT|_1 |sA|_1 + |sB|_1 |tT|_1, |.|_1 the sum of |coefficient|
    over all entries, since the l1 norm of a product of polynomials is at
    most the product of their l1 norms.  K is the least with 2**K above that
    bound.  Let c_j be the lowest nonzero coefficient of a nonzero entry of
    R.  Then R(2**K) = c_j 2**(jK) mod 2**((j+1)K), and 0 < |c_j| < 2**K, so
    R(2**K) is nonzero.  Hence R(2**K) = 0 iff R = 0, and the check is exact
    (exactalg._vanishes).
    """
    if source.ring != target.ring:
        raise RingMismatch(f"{source.ring.tag} vs {target.ring.tag}")
    if T.rows != target.rank or T.cols != source.rank:
        raise ShapeMismatch(
            f"hom {source.rank}->{target.rank} needs a {target.rank}x{source.rank} "
            f"matrix, got {T.rows}x{T.cols}")
    n, m = source.rank, target.rank
    (a, b), s = _int_cleared([source.matrix.entries, target.matrix.entries])
    t, _ = _int_mat(T)
    terms = [(-1, [t, (n, n, a)]), (1, [(m, m, b), t])]
    if source.ring is DiffRing.POLY_DX:
        terms.append((s, [(m, n, [[i * v for i, v in enumerate(cs)][1:] for cs in t[2]])]))
    return _vanishes(terms)


# ---------------------------------------------------------------------------
# isomorphism certificates
# ---------------------------------------------------------------------------

class IsoCertificate(NamedTuple):
    """forward: source -> target and backward: target -> source, with both
    composites the identity.  Certificates are re-verified exactly at
    construction time; trust nothing that was not checked."""
    source: DiffModule
    target: DiffModule
    forward: PolyMat
    backward: PolyMat


def make_iso_certificate(source: DiffModule, target: DiffModule,
                         forward: PolyMat, backward: PolyMat) -> IsoCertificate:
    """The certificate, after checking exactly that both maps are homs
    (verify_hom) and that both composites, backward . forward and
    forward . backward, are the identity, each by one integer substitution
    x = 2**K (exactalg._product_is_identity).  Raises CertificateInvalid
    when a check fails."""
    if not verify_hom(forward, source, target):
        raise CertificateInvalid("forward map is not a differential homomorphism")
    if not verify_hom(backward, target, source):
        raise CertificateInvalid("backward map is not a differential homomorphism")
    if not _product_is_identity(backward, forward):
        raise CertificateInvalid("backward . forward is not the identity")
    if not _product_is_identity(forward, backward):
        raise CertificateInvalid("forward . backward is not the identity")
    return IsoCertificate(source, target, forward, backward)


def identity_certificate(P: DiffModule) -> IsoCertificate:
    eye = PolyMat.identity(P.rank)
    return make_iso_certificate(P, P, eye, eye)


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

class HomSpace(NamedTuple):
    """Q-basis of differential homomorphisms source -> target with entry
    degree <= deg_cap.  The basis is solved mod p, lifted to Q and proven
    exactly, once, by the integer coefficient recurrence (_poly_hom_basis);
    verify_hom re-checks any element by substitution.  Complete for
    degree <= deg_cap, and complete outright when proven_complete is set:
    over const_zero; for constant matrices when the kernel chain ker L^j
    of L = T |-> T A - B T stops growing by j = deg_cap + 1, as it does by
    j = rank*rank; and when the top layer L_E of T |-> T A - B T is
    invertible, so the space is {0}."""
    source: DiffModule
    target: DiffModule
    basis: tuple
    deg_cap: int
    proven_complete: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)


def resolve_deg_cap(P: DiffModule, Q: DiffModule, deg_cap: Optional[int]):
    """Effective cap and whether completeness at that cap is proven.
    Raises ValueError unless the cap is None or an int >= 0 (not a bool)."""
    if deg_cap is not None and (isinstance(deg_cap, bool) or not isinstance(deg_cap, int)
                                or deg_cap < 0):
        raise ValueError(f"degree cap must be nonnegative, got {deg_cap!r}")
    if P.ring is DiffRing.CONST_ZERO:
        return (0 if deg_cap is None else deg_cap), True
    if deg_cap is not None:
        return deg_cap, False
    if P.matrix.is_constant() and Q.matrix.is_constant():
        # polynomial solutions have degree < rank*rank for constant matrices,
        # so raising the default to that bound makes the basis complete
        return max(DEFAULT_DEG_CAP, P.rank * Q.rank), True
    return DEFAULT_DEG_CAP, False


def _sylvester_layers(A: PolyMat, B: PolyMat):
    """Integerized coefficient operators of T |-> T A - B T, as sparse rows.

    Column-major vec: vec(T)[i + m*j] = T[i][j].  Returns (layers, sigma)
    where layers[e][r] lists the nonzero (column, value) pairs of row r of
    an integer mn x mn matrix, and the true operator for the x^e
    coefficient is that matrix over sigma, the common denominator of A and
    B.  Row (i, j) reads column j of A_e and row i of B_e, so it has at
    most m + n - 1 nonzeros.
    """
    n, m = A.rows, B.rows
    (a, b), sigma = _int_cleared([A.entries, B.entries])
    E = max([1, *map(len, a + b)]) - 1
    layers = []
    for e in range(E + 1):
        ae = [cs[e] if e < len(cs) else 0 for cs in a]
        be = [cs[e] if e < len(cs) else 0 for cs in b]
        rows = []
        for j in range(n):
            for i in range(m):
                row = {}
                for k in range(n):
                    c = ae[k * n + j]
                    if c:
                        row[i + m * k] = row.get(i + m * k, 0) + c
                for k in range(m):
                    c = be[i * m + k]
                    if c:
                        row[k + m * j] = row.get(k + m * j, 0) - c
                rows.append(sorted((col, v) for col, v in row.items() if v))
        layers.append(rows)
    return layers, sigma


def _modp_window(idx, vals, sigma, E, cap, p):
    """The hom chain over GF(p) to the window at the cap: the kernel of
    T_0 |-> (T_{cap+1}, ..., T_{cap+E+1}) mod p as (pivots, basis), from
    _modp_echelon and _modp_kernel.  p = 2**30 - c is a prime that divides
    neither sigma nor any d + 1 <= cap + E + 1; idx and vals are the
    recurrence's terms (_poly_hom_basis).

    T_d = G[d] T_0, and G[d+1] = (sigma (d+1))^-1 sum_e L_e G[d-e] mod p
    (L_e integer here) is the reduction of the recurrence over Q, so the
    kernel's dimension mod p is at least its dimension over Q (a rank
    never rises under reduction).

    Each row of G[d] is one integer with mn slots of w bits (column j at
    bit w*j), so a row combination is nnz big-integer multiply-adds.
    Entries are kept congruent mod p and below 2**31, not reduced: since
    2**30 = c mod p, folding the bits of every slot above 2**30 back in as
    c times their value shrinks all slots at once, one fold per step for
    all of G[d+1] side by side.  A sum of at most max(nnz, mn) products
    below 2**61 fits in w.
    """
    mn = len(idx)
    c = (1 << 30) - p
    vals = [[v % p for v in row] for row in vals]
    w = 62 + max(mn, *map(len, vals)).bit_length()
    row = (1 << (w * mn)) - 1
    ones = sum(1 << (w * j) for j in range(mn * mn))
    low, high = ones * ((1 << 30) - 1), ones * ((1 << (w - 30)) - 1)
    rounds, bits = 0, w
    while bits > 31:  # a fold takes slots below 2**bits to below 2**bits'
        bits = max(30, bits - 30 + c.bit_length()) + 1
        rounds += 1

    def fold(x):
        for _ in range(rounds):
            x = (x & low) + c * ((x >> 30) & high)
        return x

    # rows holds G[d - E], ..., G[d] (zero matrices stand for d < 0), so
    # the term of row r at index i is rows[i]
    shifts = [w * mn * r for r in range(mn)]
    rows = [0] * (E * mn) + [1 << (w * j) for j in range(mn)]
    for d in range(cap + E + 1):
        sums = [sum(map(mul, v, map(rows.__getitem__, i))) for v, i in zip(vals, idx)]
        whole = fold(fold(sum(map(lshift, sums, shifts))) * pow(sigma * (d + 1), -1, p))
        rows = rows[mn:] + [whole >> s & row for s in shifts]
    # slots below 2**31 and w above _modp_width(mn, p): the rows as they are
    reduced, pivots = _modp_echelon(rows, mn, p, w)
    return pivots, _modp_kernel(reduced, pivots, mn, p)


def _modp_kernel_chain(rows, mn, cap, p):
    """The E = 0 kernel chain over GF(p), L the integer matrix with sparse
    rows `rows`: ((j, stable, pivots), basis), basis that of ker L^j mod p
    (_modp_kernel), where j is the first with rank L^(j+1) = rank L^j
    (stable) or else cap + 1.  The basis is [] when L has full rank.

    With R the reduced rows of an elimination whose kernel is ker L^j
    (first that of L itself), ker L^(j+1) = ker(R L), and row k of R L is
    sum_i R[k][i] times packed row i of L: mn multiply-adds of packed
    integers, every slot below mn * p**2 as _modp_echelon needs.
    """
    w = _modp_width(mn, p)
    L = [sum(v % p << (w * c) for c, v in row) for row in rows]
    reduced, pivots = _modp_echelon(L, mn, p, w)
    j, stable = 1, True
    while len(pivots) < mn:
        nxt = _modp_echelon([sum(map(mul, r, L)) for r in reduced], mn, p, w)
        stable = len(nxt[1]) == len(pivots)
        if stable or j == cap + 1:
            break
        (reduced, pivots), j = nxt, j + 1
    return (j, stable, tuple(pivots)), _modp_kernel(reduced, pivots, mn, p)


def _hom_run(idx, vals, E, sigma, t0, bound):
    """The coefficients T_0, ..., T_D of the solution T with T_0 = t0, as
    one list of integer vectors scaled by a common c > 0, when its degree
    D is at most bound; else None.

    The recurrence (d+1) sigma T_{d+1} = sum_e (sigma L_e) T_{d-e} runs in
    integers: each new coefficient is divided by its gcd g with
    q = (d+1) sigma, and the earlier ones are multiplied by q / g.  Once
    E + 1 coefficients in a row vanish, every later one does, so T has
    degree at most the last before them.
    """
    mn = len(t0)
    coeffs = [0] * (E * mn) + t0
    run = 0
    for d in range(bound + E + 1):
        get = coeffs[d * mn:].__getitem__
        nxt = [sum(map(mul, v, map(get, i))) for v, i in zip(vals, idx)]
        if any(nxt):
            q = (d + 1) * sigma
            g = math.gcd(q, *nxt)
            if g < q:
                coeffs = [v * (q // g) for v in coeffs]
            coeffs += [v // g for v in nxt]
            run = 0
        else:
            coeffs += nxt
            run += 1
            if run == E + 1:
                return coeffs[E * mn:(d + 1) * mn]
    return None


def _poly_hom_basis(A: PolyMat, B: PolyMat, cap: int):
    """Basis of {T : T' = T A - B T, entries of degree <= cap} over Q[x],
    and whether that basis is proven to span every polynomial solution.

    The x^d coefficient of the equation reads
        (d+1) T_{d+1} = sum_e L_e T_{d-e},
    L_e the x^e coefficient of T |-> T A - B T (_sylvester_layers), so the
    degree-cap solutions are fixed by their T_0 in the kernel K of the
    window map T_0 |-> (T_{cap+1}, ..., T_{cap+E+1}).  Every E takes one
    path:

    * Top layer.  The x^(d+E) coefficient of T A - B T is L_E(T_d), while
      T' has degree d - 1, so L_E(T_d) = 0: a full-rank L_E (by one exact
      elimination for E >= 1, mod p for E = 0) proves K = {0} at any cap.
    * Kernel mod p.  For E >= 1, _modp_window; for E = 0, where T_d =
      L^d T_0 / d! and K = ker L^(cap+1), _modp_kernel_chain.
    * Lift.  Each kernel vector, one per free column fc, is lifted by
      rational reconstruction (_lift_vector); when that fails, the CRT
      joins the residues of the next prime with the same pivots (and for
      E = 0 the same j and stop).
    * Canonical form.  Each lifted t0 must be nonzero at fc and zero at
      the other free columns and right of fc, as its residues are.  The
      only basis of K of that form is _echelon_kernel's, up to scale: each
      column outside the free ones then lies in the span of the columns
      right of it, so the free columns are the complement of the leftmost
      pivots of any matrix with kernel K, and a vector of K is fixed by
      its entries there.  So the basis does not depend on the primes.
    * Check.  _hom_run runs the recurrence on each t0 in integers and
      requires E + 1 zero coefficients in a row at a degree <= cap (for
      E = 0, degree < j).  Its coefficients, made primitive, are the basis
      element.
    * Proof.  A rank never rises mod p, so dim K <= k, the kernel's
      dimension mod p, and k checked solutions, independent by their form,
      are a basis of K.  For E = 0 the same argument on each rank of L^i
      shows the chain over Q stops at the same j.  A stop where the rank
      does not fall gives ker L^j = ker L^(j+1): the kernels never grow
      again (Fitting's lemma), every solution has degree < j and the basis
      is complete outright; this happens by j = rank(L) + 1 <= mn.  (Were
      p to miss only a stop at j = cap + 1, the flag would stay unset,
      which is sound.)

    A failed lift or check moves on to the next prime (_primes).  For
    E >= 1 a prime dividing sigma is skipped, and a prime must exceed
    cap + E + 1, the largest d + 1 the chain divides by, else ValueError.
    An unlucky prime divides one of finitely many nonzero integers, so
    this ends.
    """
    n, m = A.rows, B.rows
    mn = m * n
    if mn == 0:
        return [], True
    layers, sigma = _sylvester_layers(A, B)
    E = len(layers) - 1
    if E:
        top = [[0] * mn for _ in range(mn)]
        for r, row in enumerate(layers[E]):
            for c, v in row:
                top[r][c] = v
        if len(_int_gauss_jordan(top, mn)[1]) == mn:
            return [], True
    # the term (e, c) of row r reads coefficient d - e at d: entry
    # (E - e) * mn + c of the coefficients from d - E on
    idx = [[(E - e) * mn + c for e in range(E + 1) for c, _ in layers[e][r]]
           for r in range(mn)]
    vals = [[v for e in range(E + 1) for _, v in layers[e][r]] for r in range(mn)]
    lifts = {}  # pivots (j, stop) -> (product of their primes, residues)
    for p in _primes():
        if E:
            if p <= cap + E + 1:
                raise ValueError(f"degree cap {cap} is too large: the chain mod p "
                                 f"needs a prime above {cap + E + 1}")
            if sigma % p == 0:
                continue
            pivots, kernel = _modp_window(idx, vals, sigma, E, cap, p)
            key, bound, stable = tuple(pivots), cap, False
        else:
            key, kernel = _modp_kernel_chain(layers[0], mn, cap, p)
            steps, stable, pivots = key
            bound = steps - 1
        if not kernel:
            return [], not E
        M, residues = lifts.get(key, (1, None))
        residues = kernel if residues is None else _crt(residues, M, kernel, p)
        lifts[key] = M * p, residues
        free = [c for c in range(mn) if c not in pivots]
        basis = []
        for fc, x in zip(free, residues):
            t0 = _lift_vector(x, M * p)
            if not t0 or not t0[fc] or any(t0[fc + 1:]) or any(t0[c] for c in free if c < fc):
                break
            coeffs = _hom_run(idx, vals, E, sigma, t0, bound)
            if not coeffs:
                break
            g = math.gcd(*coeffs)
            entries = [Poly([v // g for v in coeffs[i + m * j::mn]])
                       for i in range(m) for j in range(n)]
            basis.append(PolyMat(m, n, entries))
        else:
            return basis, stable


@functools.lru_cache(maxsize=512)
def _hom_basis_cached(P: DiffModule, Q: DiffModule, cap: int):
    """The chain's (basis, proven) pair.  Nothing is re-checked here:
    _hom_run's exact integer recurrence has already proven each element a
    hom (E + 1 zero coefficients in a row at a degree <= cap)."""
    basis, proven = _poly_hom_basis(P.matrix, Q.matrix, cap)
    return tuple(basis), proven


def hom_space(P: DiffModule, Q: DiffModule, deg_cap: Optional[int] = None) -> HomSpace:
    """Q-basis of differential homomorphisms P -> Q with entry degree
    bounded by the cap: solved mod p, lifted, put in canonical form and
    proven exactly by the chain's integer recurrence (_poly_hom_basis), on
    the cache miss only.  Over const_zero homs are the constant
    T with T A = B T: the chain at cap 0.  Complete outright when the cap
    policy or the chain proves it.

    Raises ValueError for a negative cap, and, when the top layer L_E is
    singular (E >= 1 the largest degree in P's and Q's matrices), for a cap
    that no prime serves: the chain mod p divides by every d + 1 <=
    cap + E + 1, so each prime it takes, from 2**30 - 35 down, must exceed
    cap + E + 1.  Every cap with cap + E + 1 >= 2**30 - 35 raises.  (The
    CLI's caps stop at MAX_DEG_CAP.)"""
    if P.ring != Q.ring:
        raise RingMismatch(f"{P.ring.tag} vs {Q.ring.tag}")
    cap, proven = resolve_deg_cap(P, Q, deg_cap)
    basis, chain_proven = _hom_basis_cached(
        P, Q, 0 if P.ring is DiffRing.CONST_ZERO else cap)
    return HomSpace(P, Q, basis, cap, proven or chain_proven)


def _constants_space(M: DiffModule, deg_cap: Optional[int]) -> HomSpace:
    space = hom_space(trivial_module(M.ring, 1), M, deg_cap)
    if len(space.basis) > M.rank:
        raise ArithmeticError("more constants than the rank allows")
    return space


def constants(M: DiffModule, deg_cap: Optional[int] = None):
    """Basis of {v : v' + A v = 0} as rank x 1 columns.  These are exactly
    the homomorphisms out of the rank-1 trivial module.  Dimension never
    exceeds the rank (evaluation at 0 is injective on constants)."""
    return _constants_space(M, deg_cap).basis


# ---------------------------------------------------------------------------
# triviality
# ---------------------------------------------------------------------------

class TrivialityResult(NamedTuple):
    trivial: bool
    certificate: Optional[IsoCertificate]  # M isomorphic to (R^n, 0) when trivial
    constants_dim: int
    deg_cap: int
    proven_complete: bool


def is_trivial(M: DiffModule, deg_cap: Optional[int] = None) -> TrivialityResult:
    """Decide M isomorphic to (R^n, 0), with certificate.

    Trivial iff the constants have full rank; the certificate matrix (columns
    a constants basis) then automatically has constant nonzero determinant,
    which inverse_unimodular re-checks exactly.  A negative verdict is
    cap-relative unless proven_complete (that of the constants' hom space)
    is set."""
    space = _constants_space(M, deg_cap)
    cs, cap, proven = space.basis, space.deg_cap, space.proven_complete
    if len(cs) < M.rank:
        return TrivialityResult(False, None, len(cs), cap, proven)
    T = PolyMat(M.rank, 0, [])
    for v in cs:
        T = PolyMat.hstack(T, v)
    try:
        forward = T.inverse_unimodular()
    except NotUnimodular as exc:
        raise ArithmeticError("full constants basis with non-unit determinant") from exc
    cert = make_iso_certificate(M, trivial_module(M.ring, M.rank), forward, T)
    return TrivialityResult(True, cert, len(cs), cap, proven)


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

class IsoResult(NamedTuple):
    kind: str  # "iso" | "not_iso" | "unknown"
    certificate: Optional[IsoCertificate]
    witness: Optional[str]
    trials_used: int
    deg_cap: int


def iso_search(P: DiffModule, Q: DiffModule, trials: int = DEFAULT_TRIALS,
               seed: int = 0, deg_cap: Optional[int] = None) -> IsoResult:
    """Isomorphism decision, complete over const_zero (similarity, decided
    by zeroder.similar) and three-valued over poly_dx.

    Over poly_dx, NotIso rests on a proof: unequal ranks, a zero hom space
    that is proven_complete, or unequal constants dimensions with the
    smaller side's space proven complete.  Without the proof the same
    evidence at the cap is named in the witness of an UNKNOWN, at once when
    hom(P, Q) is zero.  Iso certificates come from sampling random integer
    combinations T of hom(P, Q) and keeping the first with det T(0) != 0:
    such a T is unimodular (see the comment in the loop), its inverse
    S = T^{-1} from the Smith form is a hom Q -> P of any degree, and the
    pair is re-verified exactly once by make_iso_certificate.
    Deterministic for a fixed seed.  ValueError unless trials is an int >= 0."""
    if P.ring != Q.ring:
        raise RingMismatch(f"{P.ring.tag} vs {Q.ring.tag}")
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials!r}")
    cap, _ = resolve_deg_cap(P, Q, deg_cap)
    if P.rank != Q.rank:
        return IsoResult("not_iso", None, f"rank {P.rank} != {Q.rank}", 0, cap)
    if P.rank == 0:
        empty = PolyMat(0, 0, [])
        return IsoResult("iso", make_iso_certificate(P, Q, empty, empty), None, 0, cap)
    if P.ring is DiffRing.CONST_ZERO:
        from .zeroder import similar  # only const_zero pairs need zeroder
        s = similar(P.matrix.to_ratmat(), Q.matrix.to_ratmat())
        if not s.similar:
            return IsoResult("not_iso", None, s.witness, 0, cap)
        cert = make_iso_certificate(P, Q, s.certificate.transform.to_polymat(),
                                    s.certificate.inverse.to_polymat())
        return IsoResult("iso", cert, None, 0, cap)

    h_pq = hom_space(P, Q, cap)
    # (mismatch, proven) at the cap: a proven one refutes, the rest is evidence
    gaps = [(f"hom space {d} has dimension 0", h.proven_complete)
            for h, d in ((h_pq, "P->Q"), (hom_space(Q, P, cap), "Q->P")) if not h.basis]
    if h_pq.basis and not any(proven for _, proven in gaps):
        c_p, c_q = _constants_space(P, cap), _constants_space(Q, cap)
        if c_p.dimension != c_q.dimension:
            gaps.append((f"constants dimension {c_p.dimension} != {c_q.dimension}",
                         min(c_p, c_q, key=lambda c: c.dimension).proven_complete))
    for gap, proven in gaps:
        if proven:
            return IsoResult("not_iso", None, f"{gap} (degree cap {cap})", 0, cap)
    evidence = f"{gaps[0][0]} (degree cap {cap}, not proven complete)" if gaps else None
    if not h_pq.basis:
        return IsoResult("unknown", None, evidence, 0, cap)

    if P.matrix == Q.matrix:
        return IsoResult("iso", make_iso_certificate(
            P, Q, PolyMat.identity(P.rank), PolyMat.identity(P.rank)), None, 0, cap)

    rng = StableRng(seed)
    for trial in range(trials):
        coeffs = [rng.randint(-COEFF_HEIGHT, COEFF_HEIGHT) for _ in h_pq.basis]
        if not any(coeffs):
            continue
        T = PolyMat.zeros(Q.rank, P.rank)
        for c, Bl in zip(coeffs, h_pq.basis):
            if c:
                T = T + Bl.scale(c)
        # T is a combination of verified homs P -> Q, so by Liouville's
        # formula det(T)' = (tr A - tr B) det T.  A nonzero det T would have
        # a derivative of lower degree than (tr A - tr B) det T unless
        # tr A = tr B, and then det(T)' = 0: det T is 0 or a nonzero
        # constant, so T is invertible over Q[x] iff det T(0) != 0.
        if not T.coefficient_matrix(0).determinant():
            continue
        try:
            S = T.inverse_unimodular()
        except NotUnimodular as exc:
            raise ArithmeticError("hom with det T(0) != 0 is not unimodular") from exc
        cert = make_iso_certificate(P, Q, T, S)
        return IsoResult("iso", cert, None, trial + 1, cap)
    failed = f"no invertible combination found in {trials} trials"
    return IsoResult("unknown", None, f"{evidence}; {failed}" if evidence else failed,
                     trials, cap)


# ---------------------------------------------------------------------------
# scramble
# ---------------------------------------------------------------------------

def scramble(P: DiffModule, seed: int, ops: Optional[int] = None):
    """Random change of basis: returns (Q, certificate) with Q isomorphic to
    P via a product U of elementary row operations (certified and verified).
    The conjugated matrix is B = (U A - U') U^{-1}, the unique matrix making
    U a differential isomorphism P -> Q.  Deterministic for a fixed seed."""
    if P.ring is not DiffRing.POLY_DX:
        raise ValueError("scramble is defined over the polynomial ring")
    n = P.rank
    if n == 0:
        empty = PolyMat(0, 0, [])
        return P, make_iso_certificate(P, P, empty, empty)
    rng = StableRng(seed)
    # each operation acts on U's rows and, inverted, on U^{-1}'s columns
    U = PolyMat.identity(n).to_rows()
    Uinv = PolyMat.identity(n).to_rows()
    count = ops if ops is not None else n + 2
    scales = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(3), Fraction(1, 2), Fraction(-1, 2))
    for _ in range(count):
        kind = rng.randint(0, 9)
        if n == 1:
            kind = 7  # only scaling changes a 1x1 basis
        if kind < 6:
            # shear: row_i += p(x) * row_j
            i = rng.randint(0, n - 1)
            j = rng.randint(0, n - 1)
            while j == i:
                j = rng.randint(0, n - 1)
            deg = rng.randint(0, 1)
            p = Poly([rng.nonzero_int(2)] + ([rng.randint(-2, 2)] if deg else []))
            U[i] = [a + p * b for a, b in zip(U[i], U[j])]
            for row in Uinv:
                row[j] = row[j] - p * row[i]
        elif kind < 8:
            i = rng.randint(0, n - 1)
            c = scales[rng.randint(0, len(scales) - 1)]
            U[i] = [a * c for a in U[i]]
            for row in Uinv:
                row[i] = row[i] * (1 / c)
        else:
            i = rng.randint(0, n - 1)
            j = rng.randint(0, n - 1)
            while j == i:
                j = rng.randint(0, n - 1)
            U[i], U[j] = U[j], U[i]
            for row in Uinv:
                row[i], row[j] = row[j], row[i]
    U, Uinv = PolyMat.from_rows(U), PolyMat.from_rows(Uinv)
    B = (U @ P.matrix - U.derivative()) @ Uinv
    Q = DiffModule(P.ring, n, B)
    cert = make_iso_certificate(P, Q, U, Uinv)
    return Q, cert
