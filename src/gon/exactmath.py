"""Exact scalar types and rational convex-geometry kernels.

Scalars are ``fractions.Fraction`` (aliased ``Rat``).  Irrational values
never appear as floats: a square root of a rational is carried as a
:class:`QuadVal` and compared through its square, and everything else is
enclosed in a certified :class:`Interval` whose width the caller controls.

The geometry kernels (``lp_exact``, ``vertex_enum``, ``volume_centroid``)
are deliberately naive: dimensions stay small, so exactness and
predictability beat asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Iterable, Sequence

Rat = Fraction

#: Default width of interval enclosures, as used by QuadVal.to_interval.
DEFAULT_WIDTH = Fraction(1, 2**64)

#: Default width for surface-area enclosures (coarser: many terms add up).
SURFACE_WIDTH = Fraction(1, 2**40)


class ExactGeometryError(ValueError):
    """Base class for structured failures of the exact kernels."""


class RankDeficientError(ExactGeometryError):
    pass


class UnboundedError(ExactGeometryError):
    pass


class DimensionGuardError(ExactGeometryError):
    pass


# ---------------------------------------------------------------------------
# rational parsing / formatting


def rat(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# integer root helpers


def iroot(n: int, r: int) -> int:
    """Floor of the r-th root of a nonnegative integer."""
    if r < 1:
        raise ValueError("root order must be >= 1")
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if r == 1:
        return n
    if r == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // r)  # certainly >= floor root
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    while x ** r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Interval:
    """Closed rational interval certified to contain an exact real."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @staticmethod
    def point(x) -> "Interval":
        x = rat(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x) -> bool:
        x = rat(x)
        return self.lo <= x <= self.hi

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        other = _as_interval(other)
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(cands), max(cands))

    __rmul__ = __mul__

    def pow_int(self, k: int) -> "Interval":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = Interval.point(1)
        for _ in range(k):
            out = out * self
        return out

    # certified order: true only when the intervals are separated
    def surely_lt(self, other) -> bool:
        other = _as_interval(other)
        return self.hi < other.lo

    def surely_le(self, other) -> bool:
        other = _as_interval(other)
        return self.hi <= other.lo


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, QuadVal):
        return x.to_interval()
    return Interval.point(rat(x))


def sqrt_interval(x, max_width: Fraction | None = None) -> Interval:
    """Certified enclosure of sqrt(x) for rational x >= 0.

    Exact (a point interval) whenever x is the square of a rational.
    """
    x = rat(x)
    if x < 0:
        raise ValueError("negative radicand")
    if max_width is None:
        max_width = DEFAULT_WIDTH
    ns, ds = isqrt(x.numerator), isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Interval.point(Fraction(ns, ds))
    q = x.denominator
    k = 0
    while Fraction(1, q << k) > max_width:
        k += 1
    s = isqrt((x.numerator * q) << (2 * k))
    return Interval(Fraction(s, q << k), Fraction(s + 1, q << k))


def root_interval(x, r: int, max_width: Fraction | None = None) -> Interval:
    """Certified enclosure of x**(1/r) for rational x >= 0."""
    x = rat(x)
    if x < 0:
        raise ValueError("negative radicand")
    if max_width is None:
        max_width = DEFAULT_WIDTH
    if r == 2:
        return sqrt_interval(x, max_width)
    q = x.denominator
    k = 0
    while Fraction(1, q << k) > max_width:
        k += 1
    s = iroot(x.numerator * q ** (r - 1) << (r * k), r)
    lo = Fraction(s, q << k)
    hi = Fraction(s + 1, q << k)
    if lo ** r == x:
        return Interval.point(lo)
    return Interval(lo, hi)


# 40 correct decimals, truncated, so value <= const < value + 1e-40.
_PI_TRUNC = Fraction(31415926535897932384626433832795028841971, 10**40)
_E_TRUNC = Fraction(27182818284590452353602874713526624977572, 10**40)
_ULP40 = Fraction(1, 10**40)


def pi_interval() -> Interval:
    return Interval(_PI_TRUNC, _PI_TRUNC + _ULP40)


def e_interval() -> Interval:
    return Interval(_E_TRUNC, _E_TRUNC + _ULP40)


def unit_ball_volume_interval(n: int) -> Interval:
    """Enclosure of the volume of the n-dimensional Euclidean unit ball."""
    if n < 0:
        raise ValueError
    k = n // 2
    if n % 2 == 0:
        coeff = Fraction(1, math.factorial(k))
    else:
        coeff = Fraction(2**n * math.factorial(k), math.factorial(n))
    return pi_interval().pow_int(k) * coeff


# ---------------------------------------------------------------------------
# exact square roots


class QuadVal:
    """A nonnegative real carried exactly as its rational square.

    Closed under multiplication and division; sums escalate to Interval.
    """

    __slots__ = ("square",)

    def __init__(self, square):
        square = rat(square)
        if square < 0:
            raise ValueError("QuadVal square must be nonnegative")
        object.__setattr__(self, "square", square)

    def __setattr__(self, *a):
        raise AttributeError("QuadVal is immutable")

    @staticmethod
    def of_rational(x) -> "QuadVal":
        x = rat(x)
        if x < 0:
            raise ValueError("QuadVal represents nonnegative reals")
        return QuadVal(x * x)

    def as_rational(self) -> Fraction | None:
        """The exact value when the square root is rational, else None."""
        s = self.square
        ns, ds = isqrt(s.numerator), isqrt(s.denominator)
        if ns * ns == s.numerator and ds * ds == s.denominator:
            return Fraction(ns, ds)
        return None

    def to_interval(self, max_width: Fraction | None = None) -> Interval:
        return sqrt_interval(self.square, max_width)

    def __mul__(self, other):
        if isinstance(other, QuadVal):
            return QuadVal(self.square * other.square)
        other = rat(other)
        if other < 0:
            raise ValueError("QuadVal scaled by a negative rational")
        return QuadVal(self.square * other * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadVal):
            if other.square == 0:
                raise ZeroDivisionError
            return QuadVal(self.square / other.square)
        other = rat(other)
        if other <= 0:
            raise ValueError("QuadVal divided by a nonpositive rational")
        return QuadVal(self.square / (other * other))

    def __rtruediv__(self, other):
        other = rat(other)
        if other < 0:
            raise ValueError
        if self.square == 0:
            raise ZeroDivisionError
        return QuadVal(other * other / self.square)

    def _cmp_key(self, other):
        if isinstance(other, QuadVal):
            return self.square, other.square
        other = rat(other)
        if other < 0:
            return self.square, Fraction(-1)  # self >= 0 > other
        return self.square, other * other

    def __eq__(self, other):
        if isinstance(other, (QuadVal, Fraction, int)):
            a, b = self._cmp_key(other)
            return a == b
        return NotImplemented

    def __lt__(self, other):
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other):
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._cmp_key(other)
        return a > b

    def __ge__(self, other):
        a, b = self._cmp_key(other)
        return a >= b

    def __hash__(self):
        r = self.as_rational()
        return hash(r) if r is not None else hash(("QuadVal", self.square))

    def __repr__(self):
        r = self.as_rational()
        if r is not None:
            return f"QuadVal({rat_str(r)})"
        return f"QuadVal(sqrt({rat_str(self.square)}))"


def quad_or_rat(square):
    """QuadVal(square), demoted to a Fraction when the root is exact."""
    q = QuadVal(square)
    r = q.as_rational()
    return r if r is not None else q


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fractions)


def vec(xs) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in xs)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vscale(t, u):
    t = rat(t)
    return tuple(t * a for a in u)


def vavg(points):
    n = len(points)
    acc = [Fraction(0)] * len(points[0])
    for p in points:
        for i, x in enumerate(p):
            acc[i] += x
    return tuple(a / n for a in acc)


# ---------------------------------------------------------------------------
# exact rational matrices


class QMat:
    """Dense matrix over Fraction.  Small sizes only; no pivot tricks."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        data = tuple(rat(x) for x in data)
        if len(data) != rows * cols:
            raise ValueError("shape mismatch")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *a):
        raise AttributeError("QMat is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "QMat":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("empty matrix")
        m, n = len(rows), len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(m, n, [x for r in rows for x in r])

    @classmethod
    def from_cols(cls, cols: Iterable[Sequence]) -> "QMat":
        return cls.from_rows(cols).transpose()

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i) -> tuple[Fraction, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j) -> tuple[Fraction, ...]:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "QMat":
        return QMat(
            self.cols,
            self.rows,
            [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __matmul__(self, other: "QMat") -> "QMat":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        out = []
        ocols = [other.col(j) for j in range(other.cols)]
        for i in range(self.rows):
            r = self.row(i)
            out.extend(dot(r, c) for c in ocols)
        return QMat(self.rows, other.cols, out)

    def mul_vec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for x in self.data)

    def __eq__(self, other):
        return (
            isinstance(other, QMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in self.row(i)) for i in range(self.rows))
        return f"QMat[{body}]"

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        a = self.to_rows()
        pivots, swaps = _eliminate(a, self.cols)
        if len(pivots) < self.rows:
            return Fraction(0)
        det = Fraction(-1 if swaps % 2 else 1)
        for i in range(self.rows):
            det *= a[i][i]
        return det

    def rank(self) -> int:
        pivots, _ = _eliminate(self.to_rows(), self.cols)
        return len(pivots)

    def solve(self, rhs: Sequence) -> tuple[Fraction, ...] | None:
        """One exact solution of self @ x = rhs, or None if inconsistent.

        Free variables, if any, are set to zero.
        """
        rhs = vec(rhs)
        if len(rhs) != self.rows:
            raise ValueError("rhs length mismatch")
        a = [list(self.row(i)) + [rhs[i]] for i in range(self.rows)]
        pivots, _ = _eliminate(a, self.cols)
        if any(a[i][-1] for i in range(len(pivots), self.rows)):
            return None
        return tuple(x[0] for x in _back_substitute(a, pivots, self.cols))

    def inverse(self) -> "QMat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        a = [list(self.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        pivots, _ = _eliminate(a, n)
        if len(pivots) < n:
            raise RankDeficientError("matrix is singular")
        return QMat(n, n, [x for row in _back_substitute(a, pivots, n) for x in row])

    def ldl(self) -> tuple["QMat", tuple[Fraction, ...]]:
        """(L, d) with self = L diag(d) L^T and L unit lower triangular.

        For a symmetric matrix.  The elimination must use every diagonal entry
        as its pivot and find it positive, which by Sylvester's criterion holds
        exactly when the matrix is positive definite; ValueError otherwise.
        """
        if self.rows != self.cols:
            raise ValueError("LDL decomposition of a non-square matrix")
        n = self.rows
        a = self.to_rows()
        pivots, swaps = _eliminate(a, n)
        if swaps or len(pivots) < n or any(a[i][i] <= 0 for i in range(n)):
            raise ValueError("matrix is not positive definite")
        d = tuple(a[i][i] for i in range(n))
        return QMat(n, n, [a[j][i] / d[j] for i in range(n) for j in range(n)]), d


def _eliminate(a: list[list[Fraction]], ncols: int) -> tuple[list[int], int]:
    """Forward Gaussian elimination of the rows ``a`` in place, to echelon form.

    Pivots are sought in the first ncols columns only; any further columns
    (right-hand sides) are carried along.  Each pivot is the first nonzero
    entry at or below the current row.  Returns the pivot column of each
    leading row and the number of row exchanges made.
    """
    m = len(a)
    pivots = []
    swaps = 0
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][c]), -1)
        if p < 0:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            swaps += 1
        prow = a[r][c:]
        inv = 1 / prow[0]
        for i in range(r + 1, m):
            row = a[i]
            if row[c]:
                f = row[c] * inv
                row[c:] = [x - f * y for x, y in zip(row[c:], prow)]
        pivots.append(c)
    return pivots, swaps


def _back_substitute(a: list[list[Fraction]], pivots: list[int], ncols: int) -> list[list[Fraction]]:
    """Solve the echelon rows left by :func:`_eliminate` for every column past ncols.

    Returns one row per unknown holding its value for each right-hand side;
    free variables are zero.
    """
    nrhs = len(a[0]) - ncols
    x = [[Fraction(0)] * nrhs for _ in range(ncols)]
    for i in reversed(range(len(pivots))):
        row, c = a[i], pivots[i]
        inv = 1 / row[c]
        later = pivots[i + 1 :]
        for t in range(nrhs):
            s = row[ncols + t]
            for j in later:
                s -= row[j] * x[j][t]
            x[c][t] = s * inv
    return x


def solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> tuple[Fraction, ...] | None:
    """Unique solution of a square system, or None when singular."""
    n = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots, _ = _eliminate(a, n)
    if len(pivots) < n:
        return None
    return tuple(x[0] for x in _back_substitute(a, pivots, n))


# ---------------------------------------------------------------------------
# integer normal forms


def _row_sub(a, i, j, q):
    if q:
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]


def _int_rows(m: QMat):
    if not m.is_integer():
        raise ValueError("normal forms require an integer matrix")
    return [[int(x) for x in m.row(i)] for i in range(m.rows)]


def hnf(m: QMat) -> tuple[QMat, QMat]:
    """Row Hermite normal form.  Returns (H, U) with H = U @ m, |det U| = 1.

    H is in row-echelon form, pivots positive, entries above a pivot reduced
    into [0, pivot).
    """
    a = _int_rows(m)
    nr, nc = len(a), len(a[0])
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        if r == nr:
            break
        while True:
            nz = [i for i in range(r, nr) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            others = [i for i in range(r + 1, nr) if a[i][c] != 0]
            if not others:
                break
            for i in others:
                q = a[i][c] // a[r][c]
                _row_sub(a, i, r, q)
                _row_sub(u, i, r, q)
        if a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            d = a[r][c]
            for i in range(r):
                q = a[i][c] // d
                _row_sub(a, i, r, q)
                _row_sub(u, i, r, q)
            r += 1
    return QMat.from_rows(a), QMat.from_rows(u)


def snf(m: QMat) -> tuple[QMat, QMat, QMat]:
    """Smith normal form.  Returns (D, U, V) with D = U @ m @ V.

    The diagonal of D is nonnegative and each entry divides the next.
    """
    a = _int_rows(m)
    nr, nc = len(a), len(a[0])
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def col_sub(i, j, q):
        # column i -= q * column j, applied to a and v
        if q:
            for row in a:
                row[i] -= q * row[j]
            for row in v:
                row[i] -= q * row[j]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for t in range(min(nr, nc)):
        while True:
            cand = [
                (abs(a[i][j]), i, j)
                for i in range(t, nr)
                for j in range(t, nc)
                if a[i][j] != 0
            ]
            if not cand:
                break
            _, pi, pj = min(cand)
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                col_swap(t, pj)
            dirty = False
            for i in range(t + 1, nr):
                q = a[i][t] // a[t][t]
                _row_sub(a, i, t, q)
                _row_sub(u, i, t, q)
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, nc):
                q = a[t][j] // a[t][t]
                col_sub(j, t, q)
                if a[t][j]:
                    dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, nr)
                    for j in range(t + 1, nc)
                    if a[i][j] % a[t][t] != 0
                ),
                None,
            )
            if bad is None:
                break
            bi = bad[0]
            a[t] = [x + y for x, y in zip(a[t], a[bi])]
            u[t] = [x + y for x, y in zip(u[t], u[bi])]
    for t in range(min(nr, nc)):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return QMat.from_rows(a), QMat.from_rows(u), QMat.from_rows(v)


def invariant_factors(m: QMat) -> list[int]:
    d, _, _ = snf(m)
    out = []
    for t in range(min(d.rows, d.cols)):
        x = int(d[t, t])
        if x:
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# exact linear programming (two-phase simplex, Bland's rule)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    optimum: Fraction | None
    point: tuple[Fraction, ...] | None


def _pivot(T, rhs, r, col):
    # scale row r so that column col holds 1 there, then clear col in every other row
    piv = T[r][col]
    if piv != 1:
        inv = 1 / piv
        T[r] = [x * inv for x in T[r]]
        rhs[r] = rhs[r] * inv
    tr = T[r]
    for i in range(len(T)):
        if i != r:
            f = T[i][col]
            if f:
                T[i] = [x - f * y for x, y in zip(T[i], tr)]
                rhs[i] = rhs[i] - f * rhs[r]


def _simplex_loop(T, rhs, red, zval, basis):
    m = len(T)
    ncols = len(red)
    while True:
        col = next((j for j in range(ncols) if red[j] > 0), -1)
        if col < 0:
            return "optimal", zval
        best_key = None
        best_row = -1
        for i in range(m):
            tic = T[i][col]
            if tic > 0:
                key = (rhs[i] / tic, basis[i])
                if best_key is None or key < best_key:
                    best_key, best_row = key, i
        if best_row < 0:
            return "unbounded", zval
        r = best_row
        _pivot(T, rhs, r, col)
        f = red[col]
        zval = zval + f * rhs[r]
        red[:] = [x - f * y for x, y in zip(red, T[r])]
        basis[r] = col


def _reduced_costs(cost, T, rhs, basis):
    red = list(cost)
    zval = Fraction(0)
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb:
            red = [x - cb * y for x, y in zip(red, T[i])]
            zval += cb * rhs[i]
    return red, zval


def lp_exact(A, b, c, sense: str = "max") -> LPResult:
    """Exact rational LP: optimize c.x subject to A x <= b, x free.

    Bland's rule guarantees termination; both phases run over Fraction.
    """
    if sense == "min":
        res = lp_exact(A, b, [-rat(x) for x in c], "max")
        if res.status == "optimal":
            return LPResult("optimal", -res.optimum, res.point)
        return res
    if sense != "max":
        raise ValueError("sense must be 'max' or 'min'")

    nvar = len(c)
    obj = [rat(x) for x in c]
    rows = [[rat(x) for x in row] for row in A]
    rhs_in = [rat(x) for x in b]
    m = len(rows)
    if any(len(r) != nvar for r in rows):
        raise ValueError("constraint arity mismatch")

    nbase = 2 * nvar + m
    T = []
    rhs = []
    basis = [-1] * m
    art = []
    for i in range(m):
        row = rows[i] + [-x for x in rows[i]] + [Fraction(0)] * m
        row[2 * nvar + i] = Fraction(1)
        bi = rhs_in[i]
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        else:
            basis[i] = 2 * nvar + i
        T.append(row)
        rhs.append(bi)
    for i in range(m):
        if basis[i] < 0:
            art.append(i)
    ncols = nbase + len(art)
    for row in T:
        row.extend([Fraction(0)] * len(art))
    for k, i in enumerate(art):
        T[i][nbase + k] = Fraction(1)
        basis[i] = nbase + k

    if art:
        cost1 = [Fraction(0)] * nbase + [Fraction(-1)] * len(art)
        red, zval = _reduced_costs(cost1, T, rhs, basis)
        status, zval = _simplex_loop(T, rhs, red, zval, basis)
        assert status == "optimal"
        if zval != 0:
            return LPResult("infeasible", None, None)
        # pivot remaining artificials out of the basis, or drop their rows
        drop = []
        for i in range(m):
            if basis[i] >= nbase:
                col = next((j for j in range(nbase) if T[i][j] != 0), -1)
                if col < 0:
                    drop.append(i)
                    continue
                _pivot(T, rhs, i, col)
                basis[i] = col
        if drop:
            T = [row for i, row in enumerate(T) if i not in drop]
            rhs = [x for i, x in enumerate(rhs) if i not in drop]
            basis = [x for i, x in enumerate(basis) if i not in drop]
            m = len(T)
        T = [row[:nbase] for row in T]
        ncols = nbase

    cost2 = obj + [-x for x in obj] + [Fraction(0)] * (ncols - 2 * nvar)
    red, zval = _reduced_costs(cost2, T, rhs, basis)
    status, zval = _simplex_loop(T, rhs, red, zval, basis)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    vals = {basis[i]: rhs[i] for i in range(m)}
    x = tuple(vals.get(j, Fraction(0)) - vals.get(nvar + j, Fraction(0)) for j in range(nvar))
    return LPResult("optimal", zval, x)


# ---------------------------------------------------------------------------
# vertex enumeration and extreme-point filtering


def _feasible(A, b, x) -> bool:
    return all(dot(A[i], x) <= b[i] for i in range(len(A)))


def _vertex_enum_raw(A, b):
    n = len(A[0])
    m = len(A)
    seen = {}
    for S in combinations(range(m), n):
        x = solve_square([list(A[i]) for i in S], [b[i] for i in S])
        if x is None:
            continue
        if x not in seen and _feasible(A, b, x):
            seen[x] = True
    return sorted(seen)


# vertex enumeration solves every n-subset of the constraints, so its cost
# grows as binomial(m, n); it is refused above this dimension
_VERTEX_ENUM_MAX_DIM = 6


def _guard_vertex_enum(n: int) -> None:
    if n > _VERTEX_ENUM_MAX_DIM:
        raise DimensionGuardError(f"vertex enumeration guarded to dimension {_VERTEX_ENUM_MAX_DIM}")


def vertex_enum(A, b, check_bounded: bool = True):
    """All vertices of {x : A x <= b}, sorted lexicographically.

    Brute force over n-subsets of the constraints; guarded to dimension 6.
    """
    A = [vec(row) for row in A]
    b = [rat(x) for x in b]
    if not A:
        raise ValueError("no constraints")
    n = len(A[0])
    _guard_vertex_enum(n)
    if check_bounded:
        for j in range(n):
            c = [Fraction(int(k == j)) for k in range(n)]
            for sense in ("max", "min"):
                res = lp_exact(A, b, c, sense)
                if res.status == "unbounded":
                    raise UnboundedError("polyhedron is unbounded")
                if res.status == "infeasible":
                    return []
    return _vertex_enum_raw(A, b)


def extreme_points(points):
    """The subset of points not expressible as convex combinations of the rest."""
    pts = sorted(set(vec(p) for p in points))
    if len(pts) <= 1:
        return pts
    d = len(pts[0])
    out = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        k = len(others)
        # feasibility: lambda >= 0, sum lambda = 1, sum lambda q = p
        A = []
        b = []
        for c in range(d):
            row = [others[j][c] for j in range(k)]
            A.append(row)
            b.append(p[c])
            A.append([-x for x in row])
            b.append(-p[c])
        A.append([Fraction(1)] * k)
        b.append(Fraction(1))
        A.append([Fraction(-1)] * k)
        b.append(Fraction(-1))
        for j in range(k):
            row = [Fraction(0)] * k
            row[j] = Fraction(-1)
            A.append(row)
            b.append(Fraction(0))
        if lp_exact(A, b, [Fraction(0)] * k).status == "infeasible":
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# triangulation, volume, centroid


def affine_rank(points) -> int:
    pts = [vec(p) for p in points]
    if len(pts) <= 1:
        return 0
    base = pts[0]
    return QMat.from_rows([vsub(p, base) for p in pts[1:]]).rank()


def _angular_fan(pts):
    # pts: extreme points of a full-dimensional polygon; fan from centroid
    c = vavg(pts)
    dirs = [(vsub(p, c), p) for p in pts]

    def half(d):
        return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1

    import functools

    def cmp(a, b):
        da, db = a[0], b[0]
        ha, hb = half(da), half(db)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = da[0] * db[1] - da[1] * db[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    ordered = [p for _, p in sorted(dirs, key=functools.cmp_to_key(cmp))]
    k = len(ordered)
    return [(c, ordered[i], ordered[(i + 1) % k]) for i in range(k)]


def _hull_facets(pts):
    """Facets of conv(pts) as (normal, rhs, tight points), normal . x <= rhs on the hull.

    pts must be the extreme points of a full-dimensional polytope.  Shifted by
    their centroid, the points span a hull whose polar has the facet normals
    as vertices; facets come in the sorted order of those normals.
    """
    c = vavg(pts)
    shifted = [vsub(p, c) for p in pts]
    facets = []
    for u in _vertex_enum_raw(shifted, [Fraction(1)] * len(shifted)):
        tight = [p for p, s in zip(pts, shifted) if dot(u, s) == 1]
        facets.append((u, Fraction(1) + dot(u, c), tight))
    return facets


def _facet_simplices(normal, rhs, tight):
    """Simplices covering conv(tight), a facet in the plane normal . x = rhs.

    The facet is triangulated in the chart that drops the coordinate where the
    normal is largest, and each chart point is lifted back onto the plane.
    """
    dim = len(normal)
    k = max(range(dim), key=lambda j: abs(normal[j]))
    rest = [j for j in range(dim) if j != k]

    def lift(y):
        xk = (rhs - sum(normal[j] * yj for j, yj in zip(rest, y))) / normal[k]
        return y[:k] + (xk,) + y[k:]

    chart = [p[:k] + p[k + 1 :] for p in tight]
    return [tuple(lift(y) for y in sub) for sub in _triangulate_coords(chart, dim - 1)]


def _triangulate_coords(pts, dim):
    """Simplices (tuples of dim+1 points) covering conv(pts).

    pts must be the extreme points of a full-dimensional polytope in R^dim.
    Fans from the vertex-set centroid at every level, which makes the
    decomposition deterministic.
    """
    if dim == 1:
        xs = sorted(pts)
        return [(xs[0], xs[-1])]
    if dim == 2:
        return _angular_fan(pts)
    c = vavg(pts)
    return [(c,) + sub for normal, rhs, tight in _hull_facets(pts)
            for sub in _facet_simplices(normal, rhs, tight)]


def _simplex_volume(simplex):
    base = simplex[0]
    n = len(base)
    m = QMat.from_rows([vsub(p, base) for p in simplex[1:]])
    return abs(m.det()) / math.factorial(n)


def volume_centroid(points, assume_extreme: bool = False):
    """Exact volume and centroid of the convex hull of the given points.

    Raises RankDeficientError when the hull is not full-dimensional.
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("no points")
    n = len(pts[0])
    if n == 0:
        raise ValueError("zero-dimensional ambient space")
    if affine_rank(pts) < n:
        raise RankDeficientError("hull is not full-dimensional")
    if not assume_extreme:
        pts = extreme_points(pts)
    if n == 1:
        xs = sorted(p[0] for p in pts)
        lo, hi = xs[0], xs[-1]
        return hi - lo, ((lo + hi) / 2,)
    vol = Fraction(0)
    cent = [Fraction(0)] * n
    for s in _triangulate_coords(pts, n):
        v = _simplex_volume(s)
        if v == 0:
            continue
        vol += v
        sc = vavg(s)
        for i in range(n):
            cent[i] += v * sc[i]
    if vol == 0:
        raise RankDeficientError("hull has zero volume")
    return vol, tuple(x / vol for x in cent)


def facet_contents(A, b, vertices, max_width: Fraction | None = None) -> Interval:
    """Certified total (n-1)-content of the boundary of {x : A x <= b}.

    vertices must be the polytope's vertex set.  Facets are recovered from
    tightness patterns; duplicate constraint rows collapse onto one facet.
    """
    if max_width is None:
        max_width = SURFACE_WIDTH
    n = len(vertices[0])
    if n == 1:
        return Interval.point(2)  # two endpoint facets, each a point of content 1
    seen = set()
    simplices = []
    for i in range(len(A)):
        tight = [v for v in vertices if dot(A[i], v) == b[i]]
        key = frozenset(tight)
        if key in seen or len(tight) < n:
            continue
        if affine_rank(tight) != n - 1:
            continue
        seen.add(key)
        simplices.extend(_facet_simplices(A[i], b[i], tight))
    if not simplices:
        raise RankDeficientError("no facets found")
    per_term = max_width / len(simplices)
    total = Interval.point(0)
    for s in simplices:
        base = s[0]
        edges = [vsub(p, base) for p in s[1:]]
        gram = QMat.from_rows([[dot(e1, e2) for e2 in edges] for e1 in edges])
        g = gram.det()
        if g < 0:
            g = Fraction(0)  # numerically impossible over exact field; guard anyway
        total = total + sqrt_interval(g, per_term) * Fraction(1, math.factorial(n - 1))
    return total
