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
from .exactalg import (MODP, NotUnimodular, Poly, PolyMat, ShapeMismatch, _crt,
                       _lift_vector, _modp_echelon, _modp_kernel, _modp_width,
                       _primes, _product_is_identity, _vanishes)
from .rng import StableRng

DEFAULT_DEG_CAP = 32
DEFAULT_TRIALS = 32
COEFF_HEIGHT = 101  # sampling height for random hom combinations


class CertificateInvalid(Exception):
    """A claimed isomorphism certificate failed exact re-verification."""


def _check_rank(rank) -> None:
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise ValueError(f"rank must be an integer, got {rank!r}")


class DiffModule:
    """(R^rank, matrix): the free module R^rank with derivation
    v |-> v' + matrix @ v; immutable, equal and hashed by value (a cache key)."""
    __slots__ = ("ring", "rank", "matrix")

    def __init__(self, ring: DiffRing, rank: int, matrix: PolyMat):
        _check_rank(rank)
        if matrix.rows != rank or matrix.cols != rank:
            raise ShapeMismatch(
                f"rank {rank} module needs a {rank}x{rank} matrix, "
                f"got {matrix.rows}x{matrix.cols}")
        if ring is DiffRing.CONST_ZERO and not matrix.is_constant():
            for e in matrix.entries:  # a nonconstant entry is invalid
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
    """(R^n, 0): the trivial differential structure.  ValueError unless n is
    an int (not a bool); a negative n raises ShapeMismatch."""
    _check_rank(n)
    return DiffModule(ring, n, PolyMat.zeros(n, n))


def direct_sum(P: DiffModule, Q: DiffModule) -> DiffModule:
    if P.ring != Q.ring:
        raise RingMismatch(f"{P.ring.tag} vs {Q.ring.tag}")
    return DiffModule(P.ring, P.rank + Q.rank, PolyMat.block_diag(P.matrix, Q.matrix))


def verify_hom(T: PolyMat, source: DiffModule, target: DiffModule) -> bool:
    """Exact check of T' = T A - B T, A and B the matrices of source and
    target, by one integer substitution x = 2**K.

    With a, b and t the denominators of A, B and T (PolyMat._form), the
    residual
        R = a b (tT)' - b (tT)(aA) + a (bB)(tT) = a b t (T' - T A + B T)
    is an integer polynomial matrix (over const_zero the derivative term is
    absent), and T is a hom iff R = 0.  Each coefficient of R is at most
    a b |(tT)'|_1 + b |tT|_1 |aA|_1 + a |bB|_1 |tT|_1, |.|_1 the sum of
    |coefficient| over all entries, since the l1 norm of a product of
    polynomials is at most the product of their l1 norms.  K is the least
    with 2**K above that bound.  Let c_j be the lowest nonzero coefficient
    of a nonzero entry of R.  Then R(2**K) = c_j 2**(jK) mod 2**((j+1)K),
    and 0 < |c_j| < 2**K, so R(2**K) is nonzero.  Hence R(2**K) = 0 iff
    R = 0, and the check is exact (exactalg._vanishes).  Over const_zero
    a map has entries in Q, so a nonconstant T is no hom.
    """
    if source.ring != target.ring:
        raise RingMismatch(f"{source.ring.tag} vs {target.ring.tag}")
    if T.rows != target.rank or T.cols != source.rank:
        raise ShapeMismatch(
            f"hom {source.rank}->{target.rank} needs a {target.rank}x{source.rank} "
            f"matrix, got {T.rows}x{T.cols}")
    if source.ring is DiffRing.CONST_ZERO and not T.is_constant():
        return False
    A, B = source.matrix, target.matrix
    a, b = A._form()[0], B._form()[0]
    terms = [(-b, [T, A]), (a, [B, T])]
    if source.ring is DiffRing.POLY_DX:
        # (tT)' over its own denominator, which divides t
        dT = T.derivative()
        terms.append((a * b * (T._form()[0] // dT._form()[0]), [dT]))
    return _vanishes(terms)


# ---------------------------------------------------------------------------
# isomorphism certificates
# ---------------------------------------------------------------------------

class IsoCertificate(NamedTuple):
    """forward: source -> target and backward: target -> source, inverse
    differential isomorphisms; make_iso_certificate proves it exactly before
    it builds one, and nothing here is trusted unchecked."""
    source: DiffModule
    target: DiffModule
    forward: PolyMat
    backward: PolyMat


def make_iso_certificate(source: DiffModule, target: DiffModule,
                         forward: PolyMat, backward: PolyMat) -> IsoCertificate:
    """The certificate, once verify_hom(F) and G F = I (one substitution,
    exactalg._product_is_identity) hold for F = forward, G = backward.  These
    two prove it: at equal ranks G F = I makes det F a unit, so F G = I, and
    G' = -G F' G = G B - A G makes G a hom.  At unequal ranks F G or G F has
    rank below its size, so source rank < target rank fails at once.  A bad G
    shape raises ShapeMismatch; every other failure, CertificateInvalid."""
    if not verify_hom(forward, source, target):
        raise CertificateInvalid("forward map is not a differential homomorphism")
    if backward.rows != source.rank or backward.cols != target.rank:
        raise ShapeMismatch(f"hom {target.rank}->{source.rank} needs a {source.rank}x"
                            f"{target.rank} matrix, got {backward.rows}x{backward.cols}")
    if source.rank < target.rank:
        raise CertificateInvalid("forward . backward is not the identity")
    if not _product_is_identity(backward, forward):
        raise CertificateInvalid("backward . forward is not the identity")
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
    j = rank*rank; and when the top layer L_E of T |-> T A - B T has full
    rank mod a prime of the chain, so the space is {0}."""
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
    (da, a), (db, b) = A._form(), B._form()
    sigma = math.lcm(da, db)
    a, b = ([[v * (sigma // d) for v in cs] for cs in ints] for d, ints in ((da, a), (db, b)))
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
    """The hom chain over GF(p) to the window at the cap: ((reduced,
    pivots), w), the _modp_echelon at width w of the window map
    T_0 |-> (T_{cap+1}, ..., T_{cap+E+1}) mod p.  p = 2**30 - c is a
    prime that divides neither sigma nor any d + 1 <= cap + E + 1; idx and
    vals are the recurrence's terms (_poly_hom_basis).

    T_d = G[d] T_0, and G[d+1] = (sigma (d+1))^-1 sum_e L_e G[d-e] mod p
    (L_e integer here) is the reduction of the recurrence over Q, so the
    kernel's dimension mod p is at least its dimension over Q (a rank
    never rises under reduction).

    Each row of G[d] is one integer with mn slots of w bits (column j at
    bit w*j), so a row combination is nnz big-integer multiply-adds.
    Entries are kept congruent mod p and below 2**31, not reduced: since
    2**30 = c mod p, folding the bits of every slot above 2**30 back in as
    c times their value shrinks all slots at once, one fold per step for
    all of G[d+1] side by side, before and after the multiplication by
    (sigma (d+1))^-1.  A sum of at most max(nnz, mn) products below 2**61
    fits in w, and a fold takes as many rounds as w and c need (3 for
    c = 257 at w = 72).  The inverses of all cap + E + 1 factors come from
    one pow: with q_d = prod_{k <= d} sigma (k+1) mod p, the inverse of
    sigma (d+1) is q_{d-1} q_d^-1.  The history list is shifted in place.
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
    steps = cap + E + 1
    prefix = [1]  # prefix[d] = q_{d-1}
    for d in range(steps):
        prefix.append(prefix[d] * sigma * (d + 1) % p)
    inv, invs = pow(prefix[steps], -1, p), [0] * steps
    for d in reversed(range(steps)):
        invs[d], inv = inv * prefix[d] % p, inv * sigma * (d + 1) % p

    # rows holds G[d - E], ..., G[d] (zero matrices stand for d < 0), so
    # the term of row r at index i is rows[i]
    shifts = [w * mn * r for r in range(mn)]
    rows = [0] * (E * mn) + [1 << (w * j) for j in range(mn)]
    get = rows.__getitem__
    for inv in invs:
        x = sum(map(lshift, [sum(map(mul, v, map(get, i))) for v, i in zip(vals, idx)], shifts))
        for _ in range(rounds):
            x = (x & low) + c * ((x >> 30) & high)
        x *= inv
        for _ in range(rounds):
            x = (x & low) + c * ((x >> 30) & high)
        del rows[:mn]
        rows += [x >> s & row for s in shifts]
    # slots below 2**31 and w above _modp_width(mn, p): the rows as they are
    return _modp_echelon(rows, mn, p, w), w


def _modp_kernel_chain(L, reduced, pivots, w, cap, p):
    """The E = 0 kernel chain over GF(p), from the elimination (reduced,
    pivots) of L, singular mod p and packed at width w (_poly_hom_basis):
    ((j, stable), (reduced, pivots)), an elimination with kernel ker L^j mod
    p, j the first with rank L^(j+1) = rank L^j (stable) or else cap + 1.

    With R the reduced rows of an elimination whose kernel is ker L^j
    (first that of L itself), ker L^(j+1) = ker(R L).  R[k] is 1 mod p at
    pivots[k], 0 mod p at the other pivots and left of its own, so row k of
    R L is L[pivots[k]] plus, for each free column fc right of it, R[k][fc]
    mod p times L[fc]: every slot below mn * p**2, as _modp_echelon needs.
    """
    slot = (1 << w) - 1
    for j in range(1, cap + 2):
        free = sorted(set(range(len(L))).difference(pivots))
        nxt = _modp_echelon([L[pc] + sum((r >> (w * fc) & slot) % p * L[fc]
                                         for fc in free if fc > pc)
                             for r, pc in zip(reduced, pivots)], len(L), p, w)
        stable = len(nxt[1]) == len(pivots)
        if stable or j == cap + 1:
            return (j, stable), (reduced, pivots)
        reduced, pivots = nxt


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
      T' has degree d - 1, so L_E(T_d) = 0.  Each prime's pass starts with
      one _modp_echelon of L_E: full rank mod p, so over Q (a rank never
      rises mod p), proves K = {0} at any cap; for E = 0 the kernel chain
      goes on from it.  (A p dividing a nonzero det L_E with an empty
      window returns [] unproven, which is sound; a nonempty one fails the
      lift or the check.)
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

    A failed lift or check moves on to the next prime (_primes).  Past the
    top layer, for E >= 1, a prime dividing sigma is skipped, and a prime
    must exceed cap + E + 1, the largest d + 1 divided by, else ValueError.
    An unlucky prime divides one of finitely many nonzero integers, so
    this ends.
    """
    n, m = A.rows, B.rows
    mn = m * n
    layers, sigma = _sylvester_layers(A, B)
    E = len(layers) - 1
    # the term (e, c) of row r reads coefficient d - e at d: entry
    # (E - e) * mn + c of the coefficients from d - E on
    idx = [[(E - e) * mn + c for e in range(E + 1) for c, _ in layers[e][r]]
           for r in range(mn)]
    vals = [[v for e in range(E + 1) for _, v in layers[e][r]] for r in range(mn)]
    lifts = {}  # pivots (j, stop) -> (product of their primes, residues)
    for p in _primes():
        w = _modp_width(mn, p)
        top = [sum(v % p << (w * c) for c, v in row) for row in layers[E]]
        reduced, pivots = _modp_echelon(top, mn, p, w)
        if len(pivots) == mn:
            return [], True
        if E:
            if p <= cap + E + 1:
                raise ValueError(f"degree cap {cap} is too large: the chain mod p "
                                 f"needs a prime above {cap + E + 1}")
            if sigma % p == 0:
                continue
            (reduced, pivots), w = _modp_window(idx, vals, sigma, E, cap, p)
            key, bound, stable = tuple(pivots), cap, False
        else:
            (steps, stable), (reduced, pivots) = _modp_kernel_chain(top, reduced, pivots, w, cap, p)
            key, bound = (steps, stable, tuple(pivots)), steps - 1
        kernel = _modp_kernel(reduced, pivots, mn, p, w)
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
            # over their gcd g the coefficients are primitive: den 1
            basis.append(PolyMat._from_ints(m, n, math.gcd(*coeffs), [
                coeffs[i + m * j::mn] for i in range(m) for j in range(n)]))
        else:
            return basis, stable


def _summands(M: DiffModule):
    """(indices, summand) per diagonal block of M, by least index: the
    components of the graph with an edge i - j per nonzero M[i][j]."""
    n, (den, ints) = M.rank, M.matrix._form()
    if all(ints[j] or ints[j * n] for j in range(1, n)):  # 0 meets every index
        return [(range(n), M)]
    label = list(range(n))  # the least index of each index's component
    for i in range(n):
        group = {label[i]} | {label[j] for j in range(n) if ints[i * n + j]}
        if len(group) > 1:
            label = [min(group) if c in group else c for c in label]
    if not any(label):
        return [(range(n), M)]
    return [(b, DiffModule(M.ring, len(b), PolyMat._from_ints(
        len(b), len(b), den, [ints[i * n + j] for i in b for j in b])))
        for b in ([i for i in range(n) if label[i] == c] for c in sorted(set(label)))]


@functools.lru_cache(maxsize=512)
def _hom_basis_cached(P: DiffModule, Q: DiffModule, cap: int):
    """The chain's (basis, proven) pair.  Nothing is re-checked here:
    _hom_run's exact integer recurrence has already proven each element a
    hom (E + 1 zero coefficients in a row at a degree <= cap).  Past one
    pair of summands it joins the pairs' spaces (hom_space), sorted by free
    column (the last nonzero entry of vec T(0)): the canonical basis.  The
    block diagonal top layer L_E proves {0} for E >= 1 iff every pair has
    degree E and is proven {0}; for E = 0 it stops iff every pair does.
    The whole chain runs at cap + E + 1 >= MODP (its ValueError)."""
    ps, qs = _summands(P), _summands(Q)
    E = max(P.matrix.max_degree(), Q.matrix.max_degree())
    if len(ps) * len(qs) < 2 or cap + E + 1 >= MODP:
        basis, proven = _poly_hom_basis(P.matrix, Q.matrix, cap)
        return tuple(basis), proven
    m, n, parts, proven = Q.rank, P.rank, [], True
    for pi, Pi in ps:
        for qj, Qj in qs:
            h = hom_space(Pi, Qj, cap)
            proven &= h.proven_complete and E in (Pi.matrix.max_degree(), Qj.matrix.max_degree())
            at = [i * n + j for i in qj for j in pi]  # at[k]: a block element's entry k
            for den, ints in (T._form() for T in h.basis):
                get = dict(zip(at, ints)).get
                parts.append(PolyMat._from_ints(m, n, den, [get(k, ()) for k in range(m * n)]))
    parts.sort(key=lambda T: max(k % n * m + k // n for k, cs in enumerate(T._form()[1])
                                 if cs and cs[0]))
    return tuple(parts), proven


def hom_space(P: DiffModule, Q: DiffModule, deg_cap: Optional[int] = None) -> HomSpace:
    """Q-basis of differential homomorphisms P -> Q with entry degree
    bounded by the cap: solved mod p, lifted, put in canonical form and
    proven exactly by the chain's integer recurrence (_poly_hom_basis) on a
    cache miss, block by block for a direct sum (_hom_basis_cached).  Over
    const_zero homs are the constant T with T A = B T: the chain at cap 0.
    Complete outright when the cap policy or the chain proves it.

    Raises ValueError for a negative cap, and, when the top layer L_E is
    singular mod 2**30 - 35 (E >= 1 the largest degree in P's and Q's
    matrices), for a cap that no prime serves: the chain mod p divides by
    every d + 1 <= cap + E + 1, so each prime it takes, from 2**30 - 35
    down, must exceed cap + E + 1.  Every such cap with cap + E + 1 >=
    2**30 - 35 raises.  (The CLI's caps stop at MAX_DEG_CAP.)"""
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


def _iso_trial(P: DiffModule, Q: DiffModule, basis, rng: StableRng):
    """One trial of iso_search: a random integer combination T of the hom
    basis P -> Q and its inverse, a hom of any degree, certified; or None."""
    coeffs = [rng.randint(-COEFF_HEIGHT, COEFF_HEIGHT) for _ in basis]
    T = sum((Bl.scale(c) for c, Bl in zip(coeffs, basis) if c), PolyMat.zeros(Q.rank, P.rank))
    # T combines verified homs P -> Q, so by Liouville's formula det(T)' =
    # (tr A - tr B) det T.  A nonzero det T would have a derivative of lower
    # degree unless tr A = tr B, and then det(T)' = 0: det T is 0 or a nonzero
    # constant, so T is invertible over Q[x] iff det T(0) != 0.
    if not T.coefficient_matrix(0).determinant():
        return None
    try:
        S = T.inverse_unimodular()
    except NotUnimodular as exc:
        raise ArithmeticError("hom with det T(0) != 0 is not unimodular") from exc
    return make_iso_certificate(P, Q, T, S)


def iso_search(P: DiffModule, Q: DiffModule, trials: int = DEFAULT_TRIALS,
               seed: int = 0, deg_cap: Optional[int] = None) -> IsoResult:
    """Isomorphism decision, complete over const_zero (similarity, decided
    by zeroder.similar) and three-valued over poly_dx.

    Over poly_dx, equal matrices get the identity.  NotIso rests on a
    proof: unequal ranks, a zero hom space that is proven_complete, or
    unequal constants dimensions with the smaller side's space proven
    complete.  Without the proof the same evidence at the cap is named in
    the witness of an UNKNOWN, at once when hom(P, Q) is zero.  Iso
    certificates are random integer combinations T of hom(P, Q) with
    det T(0) != 0 and their inverses (_iso_trial).  An isomorphism leaves
    no gap to prove, so the first trial runs before the refutation, the
    rest after it.  trials_used counts the trials of an ISO or UNKNOWN
    answer, 0 for a NOT_ISO (a proof).  Deterministic for a fixed seed.
    ValueError unless trials is an int >= 0."""
    if P.ring != Q.ring:
        raise RingMismatch(f"{P.ring.tag} vs {Q.ring.tag}")
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials!r}")
    cap, _ = resolve_deg_cap(P, Q, deg_cap)
    if P.rank != Q.rank:
        return IsoResult("not_iso", None, f"rank {P.rank} != {Q.rank}", 0, cap)
    if P.rank == 0 or (P.ring is DiffRing.POLY_DX and P.matrix == Q.matrix):
        eye = PolyMat.identity(P.rank)
        return IsoResult("iso", make_iso_certificate(P, Q, eye, eye), None, 0, cap)
    if P.ring is DiffRing.CONST_ZERO:
        from .zeroder import similar  # only const_zero pairs need zeroder
        s = similar(P.matrix.to_ratmat(), Q.matrix.to_ratmat())
        if not s.similar:
            return IsoResult("not_iso", None, s.witness, 0, cap)
        cert = make_iso_certificate(P, Q, s.certificate.transform.to_polymat(),
                                    s.certificate.inverse.to_polymat())
        return IsoResult("iso", cert, None, 0, cap)

    h_pq, rng = hom_space(P, Q, cap), StableRng(seed)
    cert = _iso_trial(P, Q, h_pq.basis, rng) if h_pq.basis and trials else None
    if cert:
        return IsoResult("iso", cert, None, 1, cap)
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
    for trial in range(2, trials + 1):
        cert = _iso_trial(P, Q, h_pq.basis, rng)
        if cert:
            return IsoResult("iso", cert, None, trial, cap)
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
    U a differential isomorphism P -> Q.  Deterministic for a fixed seed.
    ValueError unless seed is an int and ops is None or an int >= 0 (neither
    a bool); ops=None means rank + 2 operations."""
    if P.ring is not DiffRing.POLY_DX:
        raise ValueError("scramble is defined over the polynomial ring")
    if ops is not None and (isinstance(ops, bool) or not isinstance(ops, int) or ops < 0):
        raise ValueError(f"ops must be None or an integer >= 0, got {ops!r}")
    n = P.rank
    rng = StableRng(seed)
    if n == 0:
        empty = PolyMat(0, 0, [])
        return P, make_iso_certificate(P, P, empty, empty)
    U = PolyMat.identity(n).to_rows()
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
        elif kind < 8:
            i = rng.randint(0, n - 1)
            c = scales[rng.randint(0, len(scales) - 1)]
            U[i] = [a * c for a in U[i]]
        else:
            i = rng.randint(0, n - 1)
            j = rng.randint(0, n - 1)
            while j == i:
                j = rng.randint(0, n - 1)
            U[i], U[j] = U[j], U[i]
    U = PolyMat.from_rows(U)
    Uinv = U.inverse_unimodular()
    B = (U @ P.matrix - U.derivative()) @ Uinv
    Q = DiffModule(P.ring, n, B)
    cert = make_iso_certificate(P, Q, U, Uinv)
    return Q, cert
