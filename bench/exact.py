"""Exact arithmetic the benchmark uses to build inputs and to check outputs.

Nothing here calls into diffmod: the benchmark builds its inputs and
re-checks every verdict with this code, so a fault in the library's own
arithmetic or certificate checks cannot vouch for itself.

A polynomial is a tuple of Fractions, ascending and trimmed (zero is ()).
A matrix is a list of rows; entries are polynomials, or Fractions for the
rational matrices of the zero-derivation ring.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = ()
ONE = (Fraction(1),)


def ptrim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(Fraction(c) for c in cs)


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pneg(a):
    return tuple(-c for c in a)


def pmul(a, b):
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return ptrim(out)


def pderiv(a):
    return ptrim(a[i] * i for i in range(1, len(a)))


def pdivmod(a, b):
    """Quotient and remainder of polynomial division by b != 0."""
    rem = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b) and rem:
        c = rem[-1] / b[-1]
        k = len(rem) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            rem[k + i] -= c * y
        rem = list(ptrim(rem))
    return ptrim(q), ptrim(rem)


# -- polynomial matrices -------------------------------------------------------

def pm_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def pm_zeros(r, c):
    return [[ZERO] * c for _ in range(r)]


def pm_mul(A, B):
    if not A:
        return []
    inner = len(B)
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        new = []
        for j in range(cols):
            acc = ZERO
            for k in range(inner):
                if row[k] and B[k][j]:
                    acc = padd(acc, pmul(row[k], B[k][j]))
            new.append(acc)
        out.append(new)
    return out


def pm_sub(A, B):
    return [[padd(a, pneg(b)) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def pm_deriv(A):
    return [[pderiv(a) for a in row] for row in A]


def pm_block_diag(A, B):
    ra, rb = len(A), len(B)
    out = [list(row) + [ZERO] * rb for row in A]
    out += [[ZERO] * ra + list(row) for row in B]
    return out


def is_hom(T, A, B, derivation=True):
    """T' == T A - B T: T is a differential hom (R^n, A) -> (R^m, B)."""
    m, n = len(B), len(A)
    if len(T) != m or any(len(row) != n for row in T):
        return False
    lhs = pm_deriv(T) if derivation else pm_zeros(m, n)
    return lhs == pm_sub(pm_mul(T, A), pm_mul(B, T))


def iso_error(fwd, bwd, A, B, derivation=True):
    """None when fwd: (R^n, A) -> (R^n, B) and bwd are inverse differential
    isomorphisms, else what fails."""
    n = len(A)
    if len(B) != n:
        return f"rank {n} vs {len(B)}"
    if not is_hom(fwd, A, B, derivation):
        return "forward map is not a hom"
    if not is_hom(bwd, B, A, derivation):
        return "backward map is not a hom"
    if n and (pm_mul(bwd, fwd) != pm_identity(n) or pm_mul(fwd, bwd) != pm_identity(n)):
        return "forward and backward are not inverse"
    return None


def max_degree(A):
    return max((len(p) - 1 for row in A for p in row if p), default=0)


# -- rational matrices -----------------------------------------------------------

def rm_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rm_mul(A, B):
    cols = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col) if a and b), Fraction(0))
             for col in cols] for row in A]


def rm_block_diag(A, B):
    ra, rb = len(A), len(B)
    out = [list(row) + [Fraction(0)] * rb for row in A]
    out += [[Fraction(0)] * ra + list(row) for row in B]
    return out


def rank(rows):
    """Rank of a list of equal-length rational vectors."""
    m = [[Fraction(v) for v in r] for r in rows]
    rk = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(rk + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rk][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def charpoly(A):
    """det(xI - A), ascending coefficients (Faddeev-LeVerrier)."""
    n = len(A)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        AM = rm_mul(A, M) if k > 1 else M
        M = [[AM[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        AM = rm_mul(A, M)
        coeffs[n - k] = -sum(AM[i][i] for i in range(n)) / k
    return ptrim(coeffs)


def companion(f):
    """Companion matrix of a monic polynomial, in diffmod's layout (ones on
    the subdiagonal, -coefficients in the last column)."""
    m = len(f) - 1
    return [[-f[i] if j == m - 1 else Fraction(int(i == j + 1)) for j in range(m)]
            for i in range(m)]


def kron_sylvester(A, B):
    """Matrix of T |-> T A - B T on column-major vec(T), for constant A, B
    (vec(T)[i + m*j] = T[i][j], T of shape m x n)."""
    n, m = len(A), len(B)
    L = [[Fraction(0)] * (m * n) for _ in range(m * n)]
    for i in range(m):
        for j in range(n):
            r = i + m * j
            for k in range(n):
                L[r][i + m * k] += A[k][j]
            for k in range(m):
                L[r][k + m * j] -= B[i][k]
    return L


# -- canonical form for digests ------------------------------------------------

def canon_poly(cs):
    return [str(c) for c in cs]


def canon_mat(M):
    """Canonical JSON-able form of a diffmod PolyMat or RatMat."""
    out = []
    for i in range(M.rows):
        row = []
        for j in range(M.cols):
            e = M.entries[i * M.cols + j]
            row.append(canon_poly(e.coeffs) if hasattr(e, "coeffs") else str(e))
        out.append(row)
    return out


def from_polymat(M):
    return [[tuple(M.entries[i * M.cols + j].coeffs) for j in range(M.cols)]
            for i in range(M.rows)]


def from_ratmat(M):
    return [[M.entries[i * M.cols + j] for j in range(M.cols)] for i in range(M.rows)]


def poly_from_json(cs):
    return ptrim(Fraction(c) for c in cs)


def mat_from_json(rows):
    return [[poly_from_json(e) for e in row] for row in rows]
