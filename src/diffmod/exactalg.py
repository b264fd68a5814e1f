"""Exact arithmetic substrate: rationals, univariate polynomials over Q,
matrices of both, rational nullspaces, and Smith normal form over Q[x].

Everything in this module is immutable and exact.  There is no floating
point anywhere in the package; all verdicts upstream reduce to identities
between the objects defined here.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, mul

_R0 = Fraction(0)
_R1 = Fraction(1)


class ShapeMismatch(Exception):
    """Matrix dimensions incompatible with the requested operation."""


class NotUnimodular(Exception):
    """A row/matrix expected to be completable to a unit is not."""


def _as_rat(c) -> Fraction:
    # int first: isinstance against Fraction, an abstract base class's
    # subclass, is slow for anything but a Fraction
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over Q, coefficients ascending.

    The zero polynomial is the empty coefficient tuple; its degree is the
    sentinel None (never -1-as-a-number).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _P_ZERO

    @staticmethod
    def one() -> "Poly":
        return _P_ONE

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((_as_rat(c),))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else _R0

    def coeff(self, d: int) -> Fraction:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else _R0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            return Poly(tuple(a * c for a in self.coeffs)) if c else _P_ZERO
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        out = [_R0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return Poly(tuple(self.coeffs[i] * i for i in range(1, len(self.coeffs))))

    def __call__(self, point) -> Fraction:
        # Horner evaluation at an exact rational point.
        point = _as_rat(point)
        acc = _R0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            if d == 0:
                term = str(c)
            else:
                xs = "x" if d == 1 else f"x^{d}"
                if c == 1:
                    term = xs
                elif c == -1:
                    term = f"-{xs}"
                else:
                    term = f"{c}*{xs}"
            parts.append(term)
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def _coerce_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.constant(v)
    return NotImplemented


_P_ZERO = Poly()
_P_ONE = Poly((_R1,))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class _Matrix:
    """Immutable row-major matrix over the ring a subclass fixes.  The shared
    operations read a matrix as a sequence of cells (_cells) and build one
    from cells (_build); _ZERO and _ONE are the cells of 0 and 1.
    Zero-row or zero-column shapes are legal and arise for rank-0 modules.
    Matrices of different classes never compare equal or add."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int, entries):
        es = tuple(map(self._coerce, entries))
        self._shape(rows, cols, len(es))
        self.entries = es

    def _shape(self, rows: int, cols: int, count: int):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape {rows}x{cols}")
        if count != rows * cols:
            raise ShapeMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries, got {count}")
        self.rows = rows
        self.cols = cols

    def _cells(self):
        return self.entries

    _key = _cells

    @classmethod
    def _build(cls, rows, cols, cells):
        return cls(rows, cols, cells)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows):
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ShapeMismatch("ragged rows")
        return cls(len(rows), c, [e for row in rows for e in row])

    @classmethod
    def zeros(cls, r: int, c: int):
        return cls._build(r, c, [cls._ZERO] * (r * c))

    @classmethod
    def identity(cls, n: int):
        one, zero = cls._ONE, cls._ZERO
        return cls._build(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def block_diag(cls, a, b):
        r, c = a.rows + b.rows, a.cols + b.cols
        out = [cls._ZERO] * (r * c)
        ca, cb = a._cells(), b._cells()
        for i in range(a.rows):
            out[i * c:i * c + a.cols] = ca[i * a.cols:(i + 1) * a.cols]
        for i in range(b.rows):
            start = (a.rows + i) * c + a.cols
            out[start:start + b.cols] = cb[i * b.cols:(i + 1) * b.cols]
        return cls._build(r, c, out)

    @classmethod
    def hstack(cls, a, b):
        if a.rows != b.rows:
            raise ShapeMismatch("hstack needs equal row counts")
        ca, cb, out = a._cells(), b._cells(), []
        for i in range(a.rows):
            out += [*ca[i * a.cols:(i + 1) * a.cols], *cb[i * b.cols:(i + 1) * b.cols]]
        return cls._build(a.rows, a.cols + b.cols, out)

    @classmethod
    def vstack(cls, a, b):
        if a.cols != b.cols:
            raise ShapeMismatch("vstack needs equal column counts")
        return cls._build(a.rows + b.rows, a.cols, [*a._cells(), *b._cells()])

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int):
        cells, c = self._cells(), self.cols
        return self._build(r1 - r0, c1 - c0, [cells[i * c + j] for i in range(r0, r1)
                                              for j in range(c0, c1)])

    def transpose(self):
        cells, c = self._cells(), self.cols
        return self._build(c, self.rows, [cells[i * c + j] for j in range(c)
                                          for i in range(self.rows)])

    def is_zero(self) -> bool:
        return not any(self.entries)

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other):
        return self._plus(other, 1) if type(other) is type(self) else NotImplemented

    def __sub__(self, other):
        return self._plus(other, -1) if type(other) is type(self) else NotImplemented

    def _plus(self, other, sign: int):
        self._same_shape(other)
        return type(self)(self.rows, self.cols,
                          [a + sign * b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self._coerce(c)
        return type(self)(self.rows, self.cols, [a * c for a in self.entries])

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.rows, self.cols, self._key()) == (other.rows, other.cols, other._key())

    def __hash__(self):
        return hash((self.rows, self.cols, self._key()))

    def __repr__(self):
        return (f"{type(self).__name__}({self.rows}x{self.cols}, "
                f"{[str(e) for i in range(self.rows) for e in self.row(i)]})")


class PolyMat(_Matrix):
    """Immutable row-major matrix over Q[x].  Its form (_form, _from_ints)
    is one denominator den > 0 over integer coefficient tuples, one per
    entry, with no trailing zeros and gcd(den, every coefficient) = 1, so
    it is unique: equality, hashing and the arithmetic use it.  A matrix
    holds either the form or Poly entries (as built, or once entries is
    read), and each is made from the other on demand."""

    __slots__ = ("_den", "_ints", "_polys")
    _ZERO, _ONE = ((), 1), ((1,), 1)  # cells: (coefficients, denominator)

    def __init__(self, rows: int, cols: int, entries):
        self._polys = tuple(map(self._coerce, entries))
        self._shape(rows, cols, len(self._polys))
        self._den = self._ints = None

    @staticmethod
    def _coerce(e) -> Poly:
        if isinstance(e, Poly):
            return e
        if isinstance(e, (int, Fraction)):
            return Poly.constant(e)
        raise TypeError(f"bad matrix entry {e!r}")

    @classmethod
    def _from_ints(cls, rows: int, cols: int, den: int, ints) -> "PolyMat":
        """The matrix of entries cs / den, cs in ints integer sequences."""
        out = []
        for cs in ints:
            while cs and not cs[-1]:
                cs = cs[:-1]
            out.append(tuple(cs))
        g = math.gcd(den, *itertools.chain.from_iterable(out)) if den > 1 else 1
        M = object.__new__(cls)
        M._shape(rows, cols, len(out))
        M._den, M._polys = den // g, None
        M._ints = tuple(out) if g == 1 else tuple(tuple(v // g for v in cs) for cs in out)
        return M

    def _form(self):
        """(den, coefficient tuples), cleared from held Polys if need be."""
        if self._ints is None:
            self._den, self._ints = _int_cleared(self._polys)
            self._polys = None
        return self._den, self._ints

    _key = _form

    def _cells(self):
        den, ints = self._form()
        return [(cs, den) for cs in ints]

    @classmethod
    def _build(cls, rows, cols, cells):
        den = math.lcm(*{d for _, d in cells})
        return cls._from_ints(rows, cols, den, [cs if d == den else [v * (den // d) for v in cs]
                                                for cs, d in cells])

    @staticmethod
    def diagonal(entries) -> "PolyMat":
        es = [_coerce_poly(e) for e in entries]
        n = len(es)
        return PolyMat(n, n, [es[i] if i == j else _P_ZERO for i in range(n) for j in range(n)])

    # -- access -------------------------------------------------------------

    def _built(self, s: slice):
        """The entries in slice s as Polys: held, or built from the form."""
        if self._polys is not None:
            return self._polys[s]
        return tuple(Poly([Fraction(v, self._den) for v in cs]) if cs else _P_ZERO
                     for cs in self._ints[s])

    @property
    def entries(self):
        if self._polys is None:
            self._polys, self._ints = self._built(slice(None)), None
        return self._polys

    def entry(self, i: int, j: int) -> Poly:
        k = i * self.cols + j
        return self._built(slice(k, k + 1))[0]

    def row(self, i: int):
        return self._built(slice(i * self.cols, (i + 1) * self.cols))

    def is_zero(self) -> bool:
        return not any(self._form()[1])

    def max_degree(self) -> int:
        """Largest entry degree; 0 for a zero or empty matrix."""
        return max([1, *map(len, self._form()[1])]) - 1

    def is_constant(self) -> bool:
        return self.max_degree() == 0

    def coefficient_matrix(self, d: int) -> "RatMat":
        """The RatMat of x^d coefficients."""
        den, ints = self._form()
        return RatMat(self.rows, self.cols, [Fraction(cs[d], den) if d < len(cs) else _R0
                                             for cs in ints])

    def eval_at(self, point) -> "RatMat":
        point = _as_rat(point)
        return RatMat(self.rows, self.cols, [e(point) for e in self._built(slice(None))])

    def to_ratmat(self) -> "RatMat":
        if not self.is_constant():
            raise ShapeMismatch("matrix has nonconstant entries")
        return self.coefficient_matrix(0)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other, sign: int):
        self._same_shape(other)
        (da, a), (db, b) = self._form(), other._form()
        den = math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return PolyMat._from_ints(self.rows, self.cols, den, [
            [fa * u + fb * v for u, v in itertools.zip_longest(x, y, fillvalue=0)]
            for x, y in zip(a, b)])

    def scale(self, c):
        """Every entry times c, a Poly or a rational: the product with c I."""
        k, dk = _int_row(self._coerce(c).coeffs)
        n = self.cols
        return self @ PolyMat._from_ints(n, n, dk, [k if i == j else ()
                                                    for i in range(n) for j in range(n)])

    def __matmul__(self, other):
        if not isinstance(other, PolyMat):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        # integer products of the numerators, over the product of the
        # denominators; each entry accumulates in one coefficient list
        da, a_ints = self._form()
        db, b_ints = other._form()
        out = []
        for i in range(n):
            ri = a_ints[i * k:(i + 1) * k]
            for j in range(m):
                acc = []
                for t in range(k):
                    a = ri[t]
                    if a:
                        b = b_ints[t * m + j]
                        if b:
                            grow = len(a) + len(b) - 1 - len(acc)
                            if grow > 0:
                                acc.extend([0] * grow)
                            for p, ap in enumerate(a):
                                if ap:
                                    for q, bq in enumerate(b):
                                        acc[p + q] += ap * bq
                out.append(acc)
        return PolyMat._from_ints(n, m, da * db, out)

    def derivative(self) -> "PolyMat":
        den, ints = self._form()
        return PolyMat._from_ints(self.rows, self.cols, den,
                                  [list(map(mul, range(1, len(cs)), cs[1:])) for cs in ints])

    # -- determinant / inverse ----------------------------------------------

    def determinant(self) -> Poly:
        """Exact determinant: det N / den**n for the integer numerator N =
        den M (_form), det N read off one evaluation at x = 2**K.  Every
        coefficient of det N is at most B, the product of N's row l1 norms
        (as in _vanishes), and K = bitlen(B) + 1, so each is below 2**(K-1)
        in absolute value and det N(2**K), the fraction-free Gauss-Jordan
        determinant (_int_gauss_jordan) of N(2**K), has them as its signed
        base-2**K digits.  The 0x0 determinant is 1."""
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        n, (den, ints) = self.rows, self._form()
        K = math.prod(sum(sum(map(abs, cs)) for cs in ints[i * n:(i + 1) * n])
                      for i in range(n)).bit_length() + 1
        vals = _int_eval(ints, K)
        _, pivots, d, sign = _int_gauss_jordan([vals[i * n:(i + 1) * n] for i in range(n)], n)
        if len(pivots) < n:
            return _P_ZERO
        v, half, scale, coeffs = sign * d, 1 << (K - 1), den ** n, []
        while v:
            c = ((v + half) & (2 * half - 1)) - half  # the lowest signed digit
            coeffs.append(Fraction(c, scale))
            v = (v - c) >> K
        return Poly(coeffs)

    def inverse_unimodular(self) -> "PolyMat":
        """Inverse of a matrix whose determinant is a nonzero constant.
        Raises NotUnimodular otherwise (inverse would leave Q[x]).

        With M = sum M_i x^i of degree e, the coefficients of S = M^{-1}
        solve M S = I: S_0 = M_0^{-1} and S_j = -S_0 sum_{i=1..e} M_i S_{j-i}.
        A singular M_0 means det M(0) = 0.  Otherwise the recurrence stops
        after e zero coefficients in a row (all later ones are zero) or past
        the degree bound (n-1) e of the adjugate, which holds for the inverse
        of a unimodular M.  So M is unimodular exactly when the S built
        passes one exact M S = I (_product_is_identity); for a square matrix
        a one-sided inverse is two-sided."""
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of a non-square matrix")
        n, e = self.rows, self.max_degree()
        try:
            s0 = self.coefficient_matrix(0).inverse()
        except ZeroDivisionError:
            raise NotUnimodular("M(0) is singular, so the determinant is not a "
                                "nonzero constant") from None
        # S_j is -S_0 [M_1 ... M_e] times S_{j-1}, ..., S_{j-e} stacked, the
        # coefficients before S_0 zero
        ms = [self.coefficient_matrix(i) for i in range(1, e + 1)]
        step = -s0 @ RatMat(n, n * e, [v for r in range(n) for m in ms for v in m.row(r)])
        pad = [_R0] * (n * n * e)
        coeffs, zeros = [s0], 0
        while zeros < e and len(coeffs) <= (n - 1) * e:
            stacked = [v for c in coeffs[:-e - 1:-1] for v in c.entries] + pad
            s = step @ RatMat(n * e, n, stacked[:n * n * e])
            coeffs.append(s)
            zeros = zeros + 1 if s.is_zero() else 0
        inv = PolyMat(n, n, [Poly(c.entries[k] for c in coeffs) for k in range(n * n)])
        if not _product_is_identity(self, inv):
            raise NotUnimodular("M(0) is invertible but M has no inverse over Q[x], "
                                "so the determinant is not a nonzero constant")
        return inv


class RatMat(_Matrix):
    """Immutable row-major matrix with Fraction entries."""

    __slots__ = ("entries",)
    _ZERO, _ONE = _R0, _R1
    _coerce = staticmethod(_as_rat)

    def __matmul__(self, other):
        """The product, from integer dot products of the factors cleared of
        denominators, one Fraction per entry."""
        if not isinstance(other, RatMat):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        a, da = _int_row(self.entries)
        b, db = _int_row(other.entries)
        den = da * db
        return RatMat(n, m, [Fraction(sum(map(mul, a[i * k:(i + 1) * k], b[j::m])), den)
                             for i in range(n) for j in range(m)])

    def determinant(self) -> Fraction:
        """Exact determinant, by the fraction-free Gauss-Jordan elimination
        of the denominator-cleared rows (see _int_gauss_jordan)."""
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        rows, scale = [], 1
        for i in range(self.rows):
            ints, den = _int_row(self.row(i))
            rows.append(ints)
            scale *= den
        _, pivots, d, sign = _int_gauss_jordan(rows, self.cols)
        if len(pivots) < self.rows:
            return _R0
        return Fraction(sign * d, scale)

    def inverse(self) -> "RatMat":
        """Exact inverse; raises ZeroDivisionError for a singular matrix.

        Row i is cleared of denominators by s_i, and the integer block
        [S*M | S] with S = diag(s_i) is reduced by fraction-free
        Gauss-Jordan elimination; it ends as d * [I | M^{-1}] for the
        common final pivot d."""
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.rows
        rows = []
        for i in range(n):
            ints, den = _int_row(self.row(i))
            rows.append(ints + [den if j == i else 0 for j in range(n)])
        m, pivots, d, _ = _int_gauss_jordan(rows, n)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return RatMat(n, n, [Fraction(v, d) for row in m for v in row[n:]])

    def to_polymat(self) -> PolyMat:
        return PolyMat(self.rows, self.cols, self.entries)


# ---------------------------------------------------------------------------
# fraction-free elimination over Q
# ---------------------------------------------------------------------------

def _int_row(row):
    """A row of rationals cleared to integers by the lcm of its
    denominators: returns (integer row, lcm)."""
    den = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row], den


def _int_gauss_jordan(rows, ncols):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of a matrix over Z.

    Pivots are taken in the first ``ncols`` columns, the leftmost nonzero
    entry first; further columns (a right-hand side, an identity block)
    are carried along.  Each pivot p replaces every other row by
    (p * row - f * pivot_row) / prev, where f is the row's entry in the
    pivot column and prev the previous pivot.  Every intermediate entry is
    a minor of the input (Bareiss, Math. Comp. 22, 1968), so the division
    is exact and the entries stay in the ring.

    Returns (m, pivots, d, sign).  m holds all rows; row k < len(pivots)
    has the entry d at column pivots[k] and zero at the other pivot
    columns, so its first ``ncols`` entries are d times the reduced row
    echelon form, and rows past len(pivots) are zero there.  sign is the
    parity of the row swaps: a square input of full rank has determinant
    sign * d.  No pivots leave d = 1.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    prev = 1
    sign = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        row_r = m[r]
        p = row_r[c]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], row_r)]
            elif p != prev:
                m[i] = [p * a // prev for a in m[i]]
        prev = p
        pivots.append(c)
        r += 1
    return m, pivots, prev, sign


MODP = 1073741789  # the largest prime below 2**30; 2**30 = MODP + 35


@functools.cache
def _prime_below(q):
    """The largest prime below the odd number q, by trial division."""
    q -= 2
    while any(q % f == 0 for f in range(3, math.isqrt(q) + 1, 2)):
        q -= 2
    return q


def _primes():
    """The primes below 2**30 from MODP down, 2**30 - c for c = 35, 41, 83,
    101, 105, ..."""
    p = MODP
    while True:
        yield p
        p = _prime_below(p)


def _modp_width(ncols, p):
    """Slot width of a packed row mod p, k = p.bit_length(): 2k +
    bitlen(ncols) + 2 bits, room for a slot below 3 ncols 2**(2k)
    (_modp_echelon)."""
    return 2 * p.bit_length() + ncols.bit_length() + 2


def _fold_masks(p, w, nslots):
    """The fold mod p on packed integers of nslots slots of w bits: (k,
    high, rounds) for _fold_mul, with k = p.bit_length() and high the
    mask of bits 0 .. w - k - 1 of every slot.  With c = 2**k - p a round
    takes a slot below 2**bits to below 2**max(k + 1, bits - drop), drop
    = k - bitlen(c) - 1; rounds is the count that takes slots below 2**w
    to below 2**(k+1).  ValueError unless drop >= 1, that is c <
    2**(k-2): every prime of _primes qualifies, and so does 7."""
    k = p.bit_length()
    drop = k - ((1 << k) - p).bit_length() - 1
    if drop < 1:
        raise ValueError(f"the fold mod p needs p = 2**k - c with c < 2**(k-2), got p = {p}")
    ones = ((1 << (w * nslots)) - 1) // ((1 << w) - 1)
    return k, ones * ((1 << (w - k)) - 1), max(0, -((k + 1 - w) // drop))


def _fold_mul(x, f, p, k, high, rounds):
    """f x with every slot congruent mod p and below 2**(k+1): x folded,
    multiplied by f < p and folded again, for a width w >= 2k + 1
    (_fold_masks gives k, high and rounds).  A fold round takes each slot
    s = a + 2**k b, a < 2**k, to s - p b = a + c b, never negative, so no
    slot borrows from the next."""
    for _ in range(rounds):
        x -= p * (x >> k & high)
    x *= f
    for _ in range(rounds):
        x -= p * (x >> k & high)
    return x


def _modp_echelon(rows, ncols, p, w):
    """Gauss-Jordan elimination over GF(p) of packed rows, slot j at bit
    w*j for a width w >= _modp_width(ncols, p) and every slot below
    ncols * p**2: returns (reduced, pivots).
    reduced lists the pivot rows of the reduced row echelon form, packed
    at width w, their slots below 2**w but not reduced mod p: row k is 1
    mod p at column pivots[k] and 0 mod p at the other pivot columns and
    left of its pivot.  Callers unpack the slots they read.  p must be
    2**k - c with c < 2**(k-2) (_fold_masks), else ValueError.

    A row update is one multiply-add of packed integers.  Rows are reduced
    only when they become pivot rows, all slots at once: the row without
    its slots left of the pivot (0 mod p) is folded below 2**(k+1),
    multiplied by the pivot's inverse and folded again (_fold_mul).  A row
    takes at most ncols updates of less than p 2**(k+1) per slot, so its
    slots stay below 3 ncols 2**(2k), which the width has room for.
    """
    slot = (1 << w) - 1
    k, high, rounds = _fold_masks(p, w, ncols)
    m = list(rows)
    pivots = []
    for c in range(ncols):
        r, shift = len(pivots), w * c
        piv = next((i for i in range(r, len(m)) if (m[i] >> shift & slot) % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # the slots left of c are 0 mod p: the pivot row starts at c
        x = m[r] >> shift
        inv = pow((x & slot) % p, -1, p)
        m[r] = pivot = _fold_mul(x << shift, inv, p, k, high, rounds)
        for i, row in enumerate(m):
            f = (row >> shift & slot) % p
            if f and i != r:
                m[i] = row + (p - f) * pivot
        pivots.append(c)
    return m[:len(pivots)], pivots


def _modp_kernel(reduced, pivots, ncols, p, w):
    """Basis of the right kernel of a finished _modp_echelon elimination at
    width w: one vector per free column fc, in ascending order, with
    x[fc] = 1, x[pivots[k]] = -(slot fc of reduced[k]) and every other
    entry zero, entries in [0, p).  fc is x's last nonzero entry, since
    that slot is 0 mod p for pivots[k] > fc."""
    pivot_set, slot = set(pivots), (1 << w) - 1
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        x = [0] * ncols
        x[fc] = 1
        for k, pc in enumerate(pivots):
            x[pc] = -(reduced[k] >> (w * fc) & slot) % p
        basis.append(x)
    return basis


def _crt(x, M, y, p):
    """The vectors congruent to x mod M and to y mod the prime p, entries
    in [0, M p) (Chinese remaindering; M is prime to p)."""
    inv = pow(M, -1, p)
    return [[a + M * ((b - a) * inv % p) for a, b in zip(u, v)] for u, v in zip(x, y)]


def _lift_vector(x, M):
    """The rational vector with residues x mod M, cleared to a primitive
    integer vector with its first nonzero entry positive, by rational
    reconstruction (von zur Gathen and Gerhard, Modern Computer Algebra,
    section 5.10); None when it fails.

    The entries share one denominator den, at most bound = isqrt(M // 2).
    An entry a with a * den mod M at most bound in absolute value is that
    over den; for any other, the extended Euclidean algorithm on M and
    a * den stops at the first remainder r <= bound, whose cofactor s gives
    a * den = r / s mod M, and den is multiplied by s.  When the vector is
    y / den with every |y_i| and den at most bound, that is the result:
    two fractions within the bounds that agree mod M are equal, since
    2 bound**2 < M.  Any other result is wrong or None, and callers check
    it exactly.
    """
    bound = math.isqrt(M // 2)
    den, out = 1, []
    for a in x:
        v = a * den % M
        if v > bound and M - v <= bound:
            v -= M
        elif v > bound:
            r0, r1, s0, s1 = M, v, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if s1 < 0:
                r1, s1 = -r1, -s1
            if s1 * den > bound or math.gcd(s1, M) != 1:
                return None
            den *= s1
            out = [u * s1 for u in out]
            v = r1
        out.append(v)
    g = math.gcd(*out)
    if next(u for u in out if u) < 0:
        g = -g
    return [u // g for u in out]


def _echelon_kernel(m, pivots, d, ncols):
    """Primitive integer basis of the right kernel of a matrix, read off a
    finished _int_gauss_jordan elimination (m, pivots, d) of it.

    Basis vectors are gcd-reduced with their first nonzero entry positive,
    one per free column, in ascending column order: for the free column
    fc, x[fc] = d and x[pivots[k]] = -m[k][fc], every other entry zero.
    """
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        x = [0] * ncols
        x[fc] = d
        for k, pc in enumerate(pivots):
            x[pc] = -m[k][fc]
        g = math.gcd(*x)
        lead = next(v for v in x if v)
        if lead < 0:
            g = -g
        basis.append([v // g for v in x])
    return basis


def rat_nullspace(M: RatMat):
    """Exact basis of the right kernel of M, as a list of column RatMats.

    Elimination is fraction-free on a denominator-cleared integer copy to
    control coefficient growth; the returned vectors are primitive integer
    vectors (up to scaling this is canonical).
    """
    int_rows = [_int_row(M.row(i))[0] for i in range(M.rows)]
    m, pivots, d, _ = _int_gauss_jordan(int_rows, M.cols)
    return [RatMat(M.cols, 1, vec) for vec in _echelon_kernel(m, pivots, d, M.cols)]


# ---------------------------------------------------------------------------
# Smith normal form over Q[x]
# ---------------------------------------------------------------------------

def _int_cleared(polys):
    """Poly entries cleared of denominators by the lcm of all of them:
    (lcm, tuple of integer coefficient tuples), PolyMat's form."""
    flat, den = _int_row([cf for p in polys for cf in p.coeffs])
    it = iter(flat)
    return den, tuple(tuple(itertools.islice(it, len(p.coeffs))) for p in polys)


def _int_eval(ints, K: int):
    """Evaluate int coefficient lists at x = 2**K."""
    out = []
    for cs in ints:
        v = 0
        for cf in reversed(cs):
            v = (v << K) + cf
        out.append(v)
    return out


def _vanishes(*residuals) -> bool:
    """Whether every R = sum of c * F_1 @ F_2 @ ... over its terms
    (c, [F_1, F_2, ...]) is the zero matrix, for integers c and PolyMats F,
    each read as its integer numerator den * F (PolyMat._form), decided
    exactly by one evaluation at x = 2**K.  A term (c, []) after the first,
    in a square residual, is c times the identity: coefficients at most |c|.

    Every coefficient of R is at most the sum over its terms of |c| times
    the product of the factors' entry-wise l1 norms (the sum of
    |coefficient| over all entries; the l1 norm of a polynomial product is
    at most the product of the l1 norms), and K is the least with 2**K
    above the largest of these bounds.  If an entry of R is nonzero with
    lowest nonzero coefficient c_j, then R(2**K) = c_j 2**(jK) mod
    2**((j+1)K) and 0 < |c_j| < 2**K, so R(2**K) is nonzero: the test is
    exact.  Each factor is evaluated once, however often it occurs in any
    residual, and the products are taken in integers.
    """
    norms, bound = {}, 0
    for terms in residuals:
        total = 0
        for c, factors in terms:
            for f in factors:
                if id(f) not in norms:
                    norms[id(f)] = sum(sum(map(abs, cs)) for cs in f._form()[1])
                c *= norms[id(f)]
            total += abs(c)
        bound = max(bound, total)
    K = bound.bit_length()
    values = {}
    for terms in residuals:
        total, shape = None, None
        for c, factors in terms:
            if not factors:  # c I on the diagonal of a square total
                total[::shape[1] + 1] = [v + c for v in total[::shape[1] + 1]]
                continue
            for f in factors:
                if id(f) not in values:
                    values[id(f)] = _int_eval(f._form()[1], K)
            rows, k = factors[0].rows, factors[0].cols
            acc = values[id(factors[0])]
            for f in factors[1:]:
                if f.rows != k:
                    raise ShapeMismatch(f"{rows}x{k} @ {f.rows}x{f.cols}")
                k, b = f.cols, values[id(f)]
                acc = [sum(map(mul, acc[i * f.rows:(i + 1) * f.rows], b[j::k]))
                       for i in range(rows) for j in range(k)]
            if total is None:
                total, shape = [c * v for v in acc], (rows, k)
            elif (rows, k) != shape:
                raise ShapeMismatch(f"{rows}x{k} vs {shape[0]}x{shape[1]}")
            else:
                total = list(map(add, total, (c * v for v in acc)))
        if any(total):
            return False
    return True


def _product_is_identity(X: PolyMat, Y: PolyMat) -> bool:
    """Whether X @ Y is the identity, by one evaluation (_vanishes)."""
    return X.rows == Y.cols and _vanishes([(1, [X, Y]), (-X._form()[0] * Y._form()[0], [])])


def _int_matmul(A, B):
    cols = list(zip(*B)) if B else []
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def _cell(cs, den):
    """The cell (coefficients, denominator) of the polynomial cs / den, cs
    an integer list, den nonzero: no trailing zeros, den > 0, gcd 1."""
    while cs and not cs[-1]:
        cs.pop()
    g = math.gcd(den, *cs) if den > 0 else -math.gcd(den, *cs)
    return tuple(v // g for v in cs), den // g


def _cell_addmul(x, q, y, sign=1):
    """The cell of x + sign q y, for cells x, q and y and sign +-1."""
    (xs, dx), (qs, dq), (ys, dy) = x, q, y
    if not qs or not ys:
        return x
    den = math.lcm(dx, dq * dy)
    f = sign * den // (dq * dy)
    out = [den // dx * v for v in xs] + [0] * (len(qs) + len(ys) - 1 - len(xs))
    for i, a in enumerate(qs):
        for j, b in enumerate(ys, i):
            out[j] += f * a * b
    return _cell(out, den)


def _cell_divmod(a, b):
    """(quotient, remainder) of cells over Q[x], b nonzero, by integer
    pseudo-division: lc^e A = Q B + R for numerators A, B, lc B's leading
    coefficient and e the steps with a nonzero leading term."""
    (xs, da), (ys, db) = a, b
    n, lc, e = len(ys) - 1, ys[-1], 0
    if not n:
        return _cell([db * v for v in xs], da * lc), PolyMat._ZERO
    rem, quo = list(xs), [0] * max(len(xs) - n, 0)
    for i in range(len(xs) - 1, n - 1, -1):
        c = rem[i]
        if c:
            rem, quo, e = [lc * v for v in rem], [lc * v for v in quo], e + 1
            quo[i - n] = c
            for j, v in enumerate(ys, i - n):
                rem[j] -= c * v
    return _cell([db * v for v in quo], da * lc ** e), _cell(rem, da * lc ** e)


def _divides(a: Poly, b: Poly) -> bool:
    """Whether the nonzero a divides b over Q[x] (_cell_divmod)."""
    return not _cell_divmod(_int_row(b.coeffs), _int_row(a.coeffs))[1][0]


def _smith_eliminate(rows, ncols):
    """Smith elimination over Q[x] of M, the first ``ncols`` columns of
    rows of cells (PolyMat._cells), each cell it makes reduced (_cell);
    further columns are carried along by the row operations, as in
    _int_gauss_jordan.  Returns rows of cells (a, V, Vinv) with a = U rows
    for U the row operations, V, Vinv = V^{-1} the column operations, and
    U M V = D in the first ``ncols`` columns of a, diagonal with each entry
    dividing the next (not made monic).

    Nothing is verified here: each caller proves what it uses by exact
    integer identities (_vanishes).
    """
    r, c = len(rows), ncols
    a = [list(row) for row in rows]
    one, zero = PolyMat._ONE, PolyMat._ZERO
    V = [[one if i == j else zero for j in range(c)] for i in range(c)]
    Vi = [list(row) for row in V]

    def col_op(i, j, q):
        # col_i -= q * col_j on a and V; on its inverse, row_j += q * row_i
        for row in a + V:
            row[i] = _cell_addmul(row[i], q, row[j], -1)
        Vi[j] = [_cell_addmul(x, q, y) for x, y in zip(Vi[j], Vi[i])]

    def swap_cols(i, j):
        for row in a + V:
            row[i], row[j] = row[j], row[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def min_deg_entry(t):  # the first of least degree, in row-major order
        return min(((len(a[i][j][0]), i, j) for i in range(t, r) for j in range(t, c)
                    if a[i][j][0]), default=None)

    t = 0
    while t < min(r, c) and min_deg_entry(t):
        while True:
            # re-locate the minimal-degree pivot each pass; the submatrix is
            # nonempty here because a[t][t] stays nonzero between passes
            _, pi, pj = min_deg_entry(t)
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                swap_cols(t, pj)
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, r):
                if a[i][t][0]:
                    q, rem = _cell_divmod(a[i][t], piv)
                    a[i] = [_cell_addmul(x, q, y, -1) for x, y in zip(a[i], a[t])]
                    dirty = dirty or bool(rem[0])
            for j in range(t + 1, c):
                if a[t][j][0]:
                    q, rem = _cell_divmod(a[t][j], piv)
                    col_op(j, t, q)
                    dirty = dirty or bool(rem[0])
            if dirty:
                continue
            # column and row are clear; enforce divisibility of the rest
            offender = next((i for i in range(t + 1, r) for j in range(t + 1, c)
                             if a[i][j][0] and _cell_divmod(a[i][j], piv)[1][0]), None)
            if offender is None:
                break
            # pull the offending row into the pivot row and restart the pass
            a[t] = [_cell_addmul(x, one, y) for x, y in zip(a[t], a[offender])]
        t += 1
    return a, V, Vi


def smith_normal_form_with_inverses(M: PolyMat):
    """Smith normal form over Q[x]: returns (U, D, V, Uinv, Vinv) with
    U*M*V = D, D diagonal with monic entries, each dividing the next, and
    U, V unimodular: U is carried through one elimination of [M | I] and
    scaled with D's rows to make D monic, Vinv is accumulated alongside V,
    and Uinv is U.inverse_unimodular(), which proves U unimodular by its own
    exact check.

    The factorization U M V = D and V Vinv = I are re-verified exactly
    before returning, each cleared of denominators and checked by one
    integer evaluation at x = 2**K, with 2**K above a bound on the
    identity's coefficients (_vanishes).
    """
    r, c = M.rows, M.cols
    cells, eye = M._cells(), PolyMat.identity(r)._cells()
    rows, V, Vi = _smith_eliminate([cells[i * c:(i + 1) * c] + eye[i * r:(i + 1) * r]
                                    for i in range(r)], c)
    for i, row in enumerate(rows[:c]):
        cs, den = row[i]
        if cs and cs[-1] != den:  # leading coefficient cs[-1] / den, not 1
            rows[i] = [_cell([den * v for v in xs], dx * cs[-1]) for xs, dx in row]

    Um = PolyMat._build(r, r, [x for row in rows for x in row[c:]])
    Vm, Vim = (PolyMat._build(c, c, [x for row in X for x in row]) for X in (V, Vi))
    Dm = PolyMat._build(r, c, [x for row in rows for x in row[:c]])

    # the factorization as the integer identity d (uU)(mM)(vV) = u m v (dD),
    # u, m, v, d the denominators
    lu, lm, lv, ld = (X._form()[0] for X in (Um, M, Vm, Dm))
    if not _vanishes([(ld, [Um, M, Vm]), (-lu * lm * lv, [Dm])]):
        raise ArithmeticError("smith normal form verification failed")
    if not _product_is_identity(Vm, Vim):
        raise ArithmeticError("transform inverse verification failed")
    try:
        Uim = Um.inverse_unimodular()
    except NotUnimodular as exc:
        raise ArithmeticError("transform inverse verification failed") from exc
    return Um, Dm, Vm, Uim, Vim


def kernel_basis(w: PolyMat) -> PolyMat:
    """Basis of the kernel of w (s x n, its s x s minors generating the unit
    ideal; for s = 1 a unimodular row), as the columns of the n x (n-s)
    matrix V[:, s:] of the Smith form U w V = D = [I | 0].  Raises
    NotUnimodular otherwise (the kernel then has no free complement of this
    form).
    """
    s, n = w.rows, w.cols
    if s > n:
        raise NotUnimodular(f"{s} rows in {n} columns generate a proper ideal")
    _, D, V, _, _ = smith_normal_form_with_inverses(w)
    for i in range(s):
        if D.entry(i, i) != _P_ONE:
            raise NotUnimodular(f"invariant factor {D.entry(i, i)} is not a nonzero constant")
    return V.submatrix(0, n, s, n)
