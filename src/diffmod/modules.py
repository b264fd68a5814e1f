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
from dataclasses import dataclass
from fractions import Fraction
from operator import lshift, mul
from typing import Optional

from .diffring import DiffRing, RingMismatch
from .exactalg import (NotUnimodular, Poly, PolyMat, ShapeMismatch,
                       _echelon_kernel, _int_cleared, _int_gauss_jordan, _int_mat,
                       _int_nullspace, _modp_nullspace, _product_is_identity, _vanishes)
from .rng import StableRng
from .zeroder import similar

DEFAULT_DEG_CAP = 32
DEFAULT_TRIALS = 32
COEFF_HEIGHT = 101  # sampling height for random hom combinations


class CertificateInvalid(Exception):
    """A claimed isomorphism certificate failed exact re-verification."""


@dataclass(frozen=True)
class DiffModule:
    """(R^rank, matrix): the free module R^rank with derivation
    v |-> v' + matrix @ v."""
    ring: DiffRing
    rank: int
    matrix: PolyMat

    def __post_init__(self):
        if self.matrix.rows != self.rank or self.matrix.cols != self.rank:
            raise ShapeMismatch(
                f"rank {self.rank} module needs a {self.rank}x{self.rank} matrix, "
                f"got {self.matrix.rows}x{self.matrix.cols}")
        for e in self.matrix.entries:
            self.ring.validate_element(e)

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

@dataclass(frozen=True)
class IsoCertificate:
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

@dataclass(frozen=True)
class HomSpace:
    """Q-basis of differential homomorphisms source -> target with entry
    degree <= deg_cap.  Sound unconditionally (every element re-verified by
    substitution); complete for degree <= deg_cap, and complete outright
    when proven_complete is set: over const_zero; for constant matrices
    when the kernel chain ker L^j of L = T |-> T A - B T stops growing by
    j = deg_cap + 1, as it does by j = rank*rank; and when the top layer
    L_E of T |-> T A - B T is invertible, so the space is {0} (see
    _poly_hom_basis)."""
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
    Raises ValueError for a negative cap."""
    if deg_cap is not None and deg_cap < 0:
        raise ValueError(f"degree cap must be nonnegative, got {deg_cap}")
    if P.ring is DiffRing.CONST_ZERO:
        return (0 if deg_cap is None else deg_cap), True
    if deg_cap is not None:
        return deg_cap, False
    if P.matrix.is_constant() and Q.matrix.is_constant():
        # polynomial solutions have degree < rank*rank for constant matrices,
        # so raising the default to that bound makes the basis complete
        return max(DEFAULT_DEG_CAP, P.rank * Q.rank), True
    return DEFAULT_DEG_CAP, False


def _content(rows) -> int:
    g = 0
    for row in rows:
        for v in row:
            if v:
                g = math.gcd(g, v)
                if g == 1:
                    return 1
    return g or 1


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


MODP = 1073741789  # the largest prime below 2**30; 2**30 = MODP + 35


def _modp_window(layers, sigma, mn: int, cap: int):
    """The hom chain over GF(p), p = MODP, to the full window: (k, D), or
    None when p divides sigma or some d + 1 <= cap + E + 1.

    G[d+1] = (sigma (d+1))^-1 sum_e L_e G[d-e] mod p is the reduction of
    the exact chain, so k, the dimension of the window's kernel mod p, is
    at least its dimension over Q (a rank never rises under reduction).
    D is the last d <= cap at which G[d] moves a vector of that kernel,
    tested on a fixed pseudo-random combination of G[d]'s rows: one that
    vanishes too early makes D too small, which the exact chain's dimension
    check catches.  k = 0 gives D = None.

    Each row of G[d] is one integer with mn slots of w bits (column j at
    bit w*j), so a row combination is nnz big-integer multiply-adds.
    Entries are kept congruent mod p and below 2**31, not reduced: folding
    the bits of every slot above 2**30 back in as 35 times their value
    shrinks all slots at once, one fold per step for all of G[d+1] side by
    side.  A sum of at most max(nnz, mn) products below 2**61 fits in w.
    """
    E = len(layers) - 1
    if sigma % MODP == 0 or cap + E + 1 >= MODP:
        return None
    # rows[(d + E) * mn + c] is row c of G[d] (E zero matrices stand for
    # d < 0), so the term (e, c) of row r at step d is rows[d * mn + i]
    # with i = (E - e) * mn + c
    idx = [[(E - e) * mn + c for e in range(E + 1) for c, _ in layers[e][r]]
           for r in range(mn)]
    vals = [[v % MODP for e in range(E + 1) for _, v in layers[e][r]] for r in range(mn)]
    w = 62 + max(mn, *map(len, vals)).bit_length()
    slot, row = (1 << w) - 1, (1 << (w * mn)) - 1
    ones = sum(1 << (w * j) for j in range(mn * mn))
    low, high = ones * ((1 << 30) - 1), ones * ((1 << (w - 30)) - 1)
    rounds, bits = 0, w
    while bits > 31:  # a fold takes slots below 2**bits to below 2**bits'
        bits = max(30, bits - 24) + 1
        rounds += 1

    def fold(x):
        for _ in range(rounds):
            x = (x & low) + 35 * ((x >> 30) & high)
        return x

    def unpack(x):
        return [(x >> (w * j) & slot) % MODP for j in range(mn)]

    shifts = [w * mn * r for r in range(mn)]
    rows = [0] * (E * mn) + [1 << (w * j) for j in range(mn)]
    for d in range(cap + E + 1):
        get = rows[d * mn:].__getitem__
        sums = [sum(map(mul, v, map(get, i))) for v, i in zip(vals, idx)]
        whole = fold(fold(sum(map(lshift, sums, shifts))) * pow(sigma * (d + 1), -1, MODP))
        rows += [whole >> s & row for s in shifts]
    kernel = _modp_nullspace([unpack(x) for x in rows[(cap + E + 1) * mn:]], mn, MODP)
    if not kernel:
        return 0, None
    rng = StableRng(MODP)
    rho = [rng.randint(1, MODP - 1) for _ in range(mn)]
    for d in range(cap, 0, -1):
        u = unpack(fold(sum(map(mul, rho, rows[(d + E) * mn:(d + E + 1) * mn]))))
        if any(sum(map(mul, u, v)) % MODP for v in kernel):
            return len(kernel), d
    return len(kernel), 0


def _poly_hom_basis(A: PolyMat, B: PolyMat, cap: int):
    """Basis of {T : T' = T A - B T, entries of degree <= cap} over Q[x],
    and whether that basis is proven to span every polynomial solution.

    The x^d coefficient of the equation reads
        (d+1) T_{d+1} = sum_e S_e T_{d-e},
    so T is determined linearly by T_0 and the degree-cap solutions are the
    kernel of the window map T_0 |-> (T_{cap+1}, ..., T_{cap+E+1}).  The
    chain H[d] (T_d = H[d] T_0 up to a tracked rational scale) runs on
    integer matrices, one sparse row of S_e at a time; scales do not affect
    kernels, so the window rows are stacked unscaled.  _int_nullspace reads
    a canonical basis off the kernel alone, so any window with the same
    kernel gives the same basis.  Three shortcuts cut the work short:

    * Invertible top layer.  For T of degree d with top coefficient T_d,
      the x^(d+E) coefficient of T A - B T is S_E(T_d), while T' has degree
      d - 1, so S_E(T_d) = 0.  When S_E has full rank there is no nonzero
      solution of any degree: the result is [] before the chain starts.
    * E = 0.  Here H[d] is proportional to L^d, L = S_0, so the window's
      kernel is ker L^(cap+1).  The kernel chain reaches it without powers
      of L: with R the nonzero rows of an elimination whose kernel is
      ker L^j (first that of L itself), each divided by its content so
      that entries do not grow with j, ker L^(j+1) = ker(R L).  The chain
      stops at the first j with rank(R L) = rank R: then ker L^j =
      ker L^(j+1), the kernels never grow again (Fitting's lemma), every
      solution has degree < j and the basis is complete outright.  The
      rank falls at every other step, so this happens by j = rank(L) + 1
      <= mn.  Otherwise the chain stops at j = cap + 1 with ker L^(cap+1),
      complete up to the cap.  Coefficients are assembled only for d < j.
    * E >= 1, mod-p window.  The chain first runs over GF(p) to the full
      window (_modp_window).  Rank mod p never exceeds rank over Q, so the
      kernel K_cap of the window over Q has dimension at most k, the
      kernel's dimension mod p: k = 0 gives [] at once.  Otherwise the
      exact chain runs only to the window at D + 1 .. D + E + 1, where D
      is the mod-p solutions' degree; its kernel K_D (the solutions of
      degree <= D) lies in K_cap, so when its dimension is k it is K_cap.
      When it is not, the exact chain runs on to the window at the cap.
      The basis is K_cap's either way, complete only up to the cap.
    """
    n, m = A.rows, B.rows
    mn = m * n
    if mn == 0:
        return [], True
    layers, sigma = _sylvester_layers(A, B)
    E = len(layers) - 1
    top = [[0] * mn for _ in range(mn)]
    for r, row in enumerate(layers[E]):
        for c, v in row:
            top[r][c] = v
    echelon = _int_gauss_jordan(top, mn)[:3]
    if len(echelon[1]) == mn:
        return [], True

    H = [[[1 if i == j else 0 for j in range(mn)] for i in range(mn)]]
    scales = [Fraction(1)]
    zero_mat = [[0] * mn for _ in range(mn)]

    def grow():
        """Append H[d + 1] and its scale, d the last degree so far."""
        d = len(H) - 1
        denoms = 1
        terms = []  # (layer, scale of the H it acts on) per contributing layer
        for e in range(min(d, E) + 1):
            sc = scales[d - e]
            if sc:
                denoms = math.lcm(denoms, sc.denominator)
                terms.append((e, sc))
        acc = []
        for r in range(mn):
            coefs, vecs = [], []
            for e, sc in terms:
                w = sc.numerator * (denoms // sc.denominator)
                prev = H[d - e]
                for c, v in layers[e][r]:
                    coefs.append(w * v)
                    vecs.append(prev[c])
            acc.append([sum(map(mul, coefs, col)) for col in zip(*vecs)]
                       if vecs else [0] * mn)
        if all(not any(row) for row in acc):
            H.append(zero_mat)
            scales.append(Fraction(0))
        else:
            g = _content(acc)
            if g > 1:
                acc = [[v // g for v in row] for row in acc]
            H.append(acc)
            scales.append(Fraction(g, (d + 1) * sigma * denoms))

    def window_kernel(degree):
        """Kernel of the window at degree + 1 .. degree + E + 1."""
        while len(H) < degree + E + 2:
            grow()
        window = []
        for d in range(degree + 1, degree + E + 2):
            if scales[d]:
                window.extend(H[d])
        return _int_nullspace(window, mn)

    stable = False
    if E == 0:
        # echelon eliminates a matrix whose kernel is ker L^j
        j = 1
        while True:
            RL = []
            for row in echelon[0][:len(echelon[1])]:
                g = math.gcd(*row)  # R's row is row / g
                out = [0] * mn
                for k, v in enumerate(row):
                    if v:
                        for c, w in layers[0][k]:
                            out[c] += v // g * w
                RL.append(out)
            nxt = _int_gauss_jordan(RL, mn)[:3]
            if len(nxt[1]) == len(echelon[1]):
                stable = True
                break
            if j == cap + 1:
                break
            echelon, j = nxt, j + 1
        degree = j - 1
        while len(H) <= degree:
            grow()
        t0s = _echelon_kernel(*echelon, mn)
    else:
        bound = _modp_window(layers, sigma, mn, cap)
        if bound is not None:
            k, degree = bound
            if not k:
                return [], False
            t0s = window_kernel(degree)
        if bound is None or len(t0s) != k:
            degree = cap
            t0s = window_kernel(cap)

    # T_d = scales[d] * H[d] t0, cleared by the lcm of the scale
    # denominators to one primitive integer polynomial matrix
    den = math.lcm(*(sc.denominator for sc in scales[:degree + 1]))
    basis = []
    for t0 in t0s:
        coeffs = [[0] * (degree + 1) for _ in range(mn)]
        for d in range(degree + 1):
            sc = scales[d]
            if sc:
                f = sc.numerator * (den // sc.denominator)
                vd = [sum(map(mul, row, t0)) for row in H[d]] if d else t0
                for idx, v in enumerate(vd):
                    coeffs[idx][d] = v * f
        g = math.gcd(*(v for cl in coeffs for v in cl))
        entries = [Poly([v // g for v in coeffs[i + m * j]])
                   for i in range(m) for j in range(n)]
        basis.append(PolyMat(m, n, [entries[j * n + k] for j in range(m) for k in range(n)]))
    return basis, stable


@functools.lru_cache(maxsize=512)
def _hom_basis_cached(P: DiffModule, Q: DiffModule, cap: int):
    """The chain's (basis, proven) pair, the basis verified by substitution
    once, on the cache miss."""
    basis, proven = _poly_hom_basis(P.matrix, Q.matrix, cap)
    basis = tuple(basis)
    if not all(verify_hom(T, P, Q) for T in basis):
        raise ArithmeticError("hom solver returned a non-homomorphism")
    return basis, proven


def hom_space(P: DiffModule, Q: DiffModule, deg_cap: Optional[int] = None) -> HomSpace:
    """Q-basis of differential homomorphisms P -> Q with entry degree
    bounded by the cap, each verified by substitution.  Over const_zero
    homs are the constant T with T A = B T: the chain at cap 0.  Complete
    outright when the cap policy or the chain proves it."""
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

@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    certificate: Optional[IsoCertificate]  # M isomorphic to (R^n, 0) when trivial
    constants_dim: int
    deg_cap: int
    proven_complete: bool

    @property
    def constants_matrix(self) -> Optional[PolyMat]:
        """Columns are a constants basis (the backward map of the certificate)."""
        return self.certificate.backward if self.certificate else None


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

@dataclass(frozen=True)
class IsoResult:
    kind: str  # "iso" | "not_iso" | "unknown"
    certificate: Optional[IsoCertificate]
    witness: Optional[str]
    trials_used: int
    deg_cap: int

    @property
    def is_iso(self) -> bool:
        return self.kind == "iso"


def iso_search(P: DiffModule, Q: DiffModule, trials: int = DEFAULT_TRIALS,
               seed: int = 0, deg_cap: Optional[int] = None) -> IsoResult:
    """Isomorphism decision, complete over const_zero (similarity, decided
    by zeroder.similar) and three-valued over poly_dx.

    Over poly_dx, NotIso is returned only on a proven invariant mismatch
    (rank, hom-space dimensions both ways, constants dimensions), with
    negative dimension evidence re-checked at cap + 10.  Iso certificates
    come from sampling random integer combinations T of hom(P, Q) and
    keeping the first with det T(0) != 0: such a T is unimodular (see the
    comment in the loop), its inverse S = T^{-1} from the Smith form is a
    hom Q -> P of any degree, and the pair is re-verified exactly once by
    make_iso_certificate.  Deterministic for a fixed seed."""
    if P.ring != Q.ring:
        raise RingMismatch(f"{P.ring.tag} vs {Q.ring.tag}")
    cap, _ = resolve_deg_cap(P, Q, deg_cap)
    if P.rank != Q.rank:
        return IsoResult("not_iso", None, f"rank {P.rank} != {Q.rank}", 0, cap)
    if P.rank == 0:
        empty = PolyMat(0, 0, [])
        return IsoResult("iso", make_iso_certificate(P, Q, empty, empty), None, 0, cap)
    if P.ring is DiffRing.CONST_ZERO:
        s = similar(P.matrix.to_ratmat(), Q.matrix.to_ratmat())
        if not s.similar:
            return IsoResult("not_iso", None, s.witness, 0, cap)
        cert = make_iso_certificate(P, Q, s.certificate.transform.to_polymat(),
                                    s.certificate.inverse.to_polymat())
        return IsoResult("iso", cert, None, 0, cap)

    def stabilized_dim(src, tgt):
        # hom space at the working cap, raising the cap once if a zero
        # dimension fails to stabilize
        h = hom_space(src, tgt, cap)
        if h.dimension > 0 or h.proven_complete:
            return h, h.dimension
        h2 = hom_space(src, tgt, cap + 10)
        return (h2, h2.dimension) if h2.dimension else (h, 0)

    h_pq, d_pq = stabilized_dim(P, Q)
    h_qp, d_qp = stabilized_dim(Q, P)
    if d_pq == 0 or d_qp == 0:
        zero, direction = (h_pq, "P->Q") if d_pq == 0 else (h_qp, "Q->P")
        caps = f"degree cap {cap}" + ("" if zero.proven_complete else f" and {cap + 10}")
        return IsoResult("not_iso", None,
                         f"hom space {direction} has dimension 0 ({caps})", 0, cap)

    c_p = len(constants(P, cap))
    c_q = len(constants(Q, cap))
    if c_p != c_q:
        c_p2 = len(constants(P, cap + 10))
        c_q2 = len(constants(Q, cap + 10))
        if c_p2 != c_q2:
            return IsoResult(
                "not_iso", None,
                f"constants dimension {c_p2} != {c_q2} (degree cap {cap + 10})", 0, cap)

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
    return IsoResult("unknown", None,
                     f"no invertible combination found in {trials} trials", trials, cap)


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
