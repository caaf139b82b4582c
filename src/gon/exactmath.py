"""Exact scalar types and rational convex-geometry kernels.

Scalars are ``fractions.Fraction`` (aliased ``Rat``).  Irrational values
never appear as floats: a square root of a rational is carried as a
:class:`QuadVal` and compared through its square, and everything else is
enclosed in a certified :class:`Interval` whose width the caller controls.

One routine finds hulls both ways: double description over the integers,
which returns a pointed cone's extreme rays with the rows tight on each.
Points give the cone of the inequalities valid on them, whose rays are the
facets; halfspaces give the cone over the polyhedron, whose rays at height
one are the vertices.  ``vertex_enum``, ``extreme_points`` and
``volume_centroid`` wrap it, except that ``extreme_points`` decides each point
by one LP above dimension 6, where a hull can have exponentially many facets.
``lp_exact`` is an exact two-phase simplex.

Linear algebra runs one elimination per question.  Fraction-free Gaussian
elimination of integer rows (Bareiss 1968) gives every determinant, rank,
pivot column (``_pivots``), solution, inverse and LDL^T; ``QMat`` scales its
rows to integers over one denominator and builds ``Fraction``s only for its
results.  Integer Hermite reduction (``_hnf``) runs only where a Hermite form
or a unimodular transform is the result: in ``hnf``, and in ``lattice``'s
Hermite basis, lattice equality and minors gcd.

Volumes, centroids and surface areas come from one triangulation that needs
only the vertex-facet incidences: which vertices lie on which facet.  A hull
is one record of integers (``_Hull``): the vertices as sorted integer rows over
one denominator, and each facet as a primitive integer row beside the bitmask
of its vertex indices, so no vertex is hashed and no ``Fraction`` is built
until a caller asks for rational vertices or an H-representation.  A face that
is a simplex is kept whole; any other is coned from its least vertex over its
own facets that miss it.  The incidences are the zero sets that the double
description returns, or are read off an H-representation by tightness.  Every
simplex and facet minor is a fraction-free integer determinant of the integer
vertices (Bareiss 1968), as is every starting ray of a double description.  A
dilate, negation or translate maps its parent's record, and a polar transposes
it, so none of them runs a double description.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Iterable, NamedTuple, Sequence

Rat = Fraction

#: Default width of interval enclosures, as used by QuadVal.to_interval.
DEFAULT_WIDTH = Fraction(1, 2**64)

# the working width of the current call: DEFAULT_WIDTH unless working_width sets another
_WIDTH: ContextVar[Fraction] = ContextVar("working_width", default=DEFAULT_WIDTH)

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


def _root_scale(q: int, max_width) -> int:
    """Least k >= 0 with 1 / (q << k) <= max_width: the grid that encloses a root over q."""
    width = Fraction(max_width)
    if width <= 0:
        raise ValueError("max_width must be positive")
    # q 2^k >= d / n, read off the bit lengths of q n and d, then corrected by one comparison
    t, d = q * width.numerator, width.denominator
    k = max(0, d.bit_length() - t.bit_length())
    return k if t << k >= d else k + 1


def current_width() -> Fraction:
    """The width that sqrt_interval and root_interval enclose to by default."""
    return _WIDTH.get()


@contextmanager
def working_width(width):
    """Enclose to ``width`` by default inside the block, in this thread only.

    The scope is a context variable: other threads keep their own width, and
    processes forked inside the block inherit this one.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("working width must be positive")
    token = _WIDTH.set(width)
    try:
        yield width
    finally:
        _WIDTH.reset(token)


def sqrt_interval(x, max_width: Fraction | None = None) -> Interval:
    """Certified enclosure of sqrt(x) for rational x >= 0.

    Exact (a point interval) whenever x is the square of a rational.
    """
    x = rat(x)
    if x < 0:
        raise ValueError("negative radicand")
    if max_width is None:
        max_width = _WIDTH.get()
    ns, ds = isqrt(x.numerator), isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Interval.point(Fraction(ns, ds))
    q = x.denominator
    k = _root_scale(q, max_width)
    s = isqrt((x.numerator * q) << (2 * k))
    return Interval(Fraction(s, q << k), Fraction(s + 1, q << k))


def root_interval(x, r: int, max_width: Fraction | None = None) -> Interval:
    """Certified enclosure of x**(1/r) for rational x >= 0."""
    x = rat(x)
    if x < 0:
        raise ValueError("negative radicand")
    if max_width is None:
        max_width = _WIDTH.get()
    if r == 2:
        return sqrt_interval(x, max_width)
    q = x.denominator
    k = _root_scale(q, max_width)
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

    def as_rational(self) -> Fraction | None:
        """The exact value when the square root is rational, else None."""
        s = self.square
        ns, ds = isqrt(s.numerator), isqrt(s.denominator)
        if ns * ns == s.numerator and ds * ds == s.denominator:
            return Fraction(ns, ds)
        return None

    def to_interval(self, max_width: Fraction | None = None) -> Interval:
        return sqrt_interval(self.square, max_width)

    def __add__(self, other):
        return self.to_interval() + _as_interval(other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.to_interval() - _as_interval(other)

    def __rsub__(self, other):
        return _as_interval(other) - self.to_interval()

    def __mul__(self, other):
        if isinstance(other, QuadVal):
            return QuadVal(self.square * other.square)
        if isinstance(other, Interval):
            return NotImplemented
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


# ---------------------------------------------------------------------------
# exact rational matrices


class QMat:
    """Dense matrix over Fraction, for small sizes.

    det, rank, solve, inverse and ldl scale the rows to integers over their
    least common denominator and run the fraction-free core :func:`_bareiss`.
    """

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
        a, den = _integer_matrix(self.to_rows())
        return Fraction(_int_det(a), den**self.rows)

    def rank(self) -> int:
        return len(_pivots(_integer_matrix(self.to_rows())[0]))

    def solve(self, rhs: Sequence) -> tuple[Fraction, ...] | None:
        """One exact solution of self @ x = rhs, or None if inconsistent.

        Free variables, if any, are set to zero.
        """
        rhs = vec(rhs)
        if len(rhs) != self.rows:
            raise ValueError("rhs length mismatch")
        return _solve_rows([(*self.row(i), rhs[i]) for i in range(self.rows)], self.cols)

    def inverse(self) -> "QMat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        # M / den is self, so M X = den I gives X = self^-1
        a, den = _integer_matrix(self.to_rows())
        for i, r in enumerate(a):
            r += [den * (i == j) for j in range(n)]
        solved = _bareiss_solve(a, n)
        if solved is None:
            raise RankDeficientError("matrix is singular")
        d, y = solved
        return QMat(n, n, [Fraction(x, d) for r in y for x in r])

    def ldl(self) -> tuple["QMat", tuple[Fraction, ...]]:
        """(L, d) with self = L diag(d) L^T and L unit lower triangular.

        For a symmetric matrix; ValueError unless it is positive definite.  The
        pivots P_k of M = den * self are its leading principal minors, so
        d_k = P_k / (P_{k-1} den) and L_jk = a_kj / P_k.
        """
        if self.rows != self.cols:
            raise ValueError("LDL decomposition of a non-square matrix")
        n = self.rows
        a, den = _integer_matrix(self.to_rows())
        echelon = _definite_pivots(a)
        p = [row[0] for row in echelon]
        d = tuple(Fraction(pk, prev * den) for pk, prev in zip(p, [1] + p))
        zero = Fraction(0)
        return QMat(n, n, [Fraction(echelon[j][i - j], p[j]) if i >= j else zero
                           for i in range(n) for j in range(n)]), d


def _bareiss(rows):
    """Fraction-free elimination of integer rows to echelon form (Bareiss, Math. Comp. 1968).

    Runs one column at a time while rows and columns are left, and yields
    (row, swaps) for each column: row is the pivot row from that column on,
    or None when the column has no pivot, and swaps counts the row exchanges
    so far.  Each pivot is the first nonzero entry at or below the current
    row.  After the k-th pivot every entry left below it is a (k+1)-minor of
    the rows, so dividing by the previous pivot is exact and no entry
    outgrows a minor; the k-th pivot P_k itself is the minor of the first k+1
    rows, after the exchanges, on the first k+1 pivot columns.  Each step
    builds the rows below anew without the pivot column, so the caller's rows
    are never written, and a caller that has what it needs leaves the loop
    and saves the rest of the elimination.
    """
    a = rows
    swaps, prev = 0, 1
    while a and a[0]:
        for p, row in enumerate(a):
            if row[0]:
                break
        else:  # no pivot in this column
            yield None, swaps
            a = [r[1:] for r in a]
            continue
        if p:
            a = list(a)
            a[0], a[p] = row, a[0]
            swaps += 1
        yield row, swaps
        if len(a) == 1:
            return
        piv, *top = row
        a = [[(piv * x - r[0] * y) // prev for x, y in zip(r[1:], top)] for r in a[1:]]
        prev = piv


def _pivots(rows) -> list[int]:
    """The pivot columns of :func:`_bareiss` on integer rows: each column where the rank grows."""
    return [c for c, (row, _) in enumerate(_bareiss(rows)) if row is not None]


def _definite_pivots(rows) -> list:
    """The pivot rows of :func:`_bareiss` on a symmetric positive definite integer matrix.

    By Sylvester's criterion the matrix is positive definite exactly when every
    diagonal entry serves as a positive pivot; ValueError otherwise.
    """
    out = []
    for row, swaps in _bareiss(rows):
        if row is None or swaps or row[0] <= 0:
            raise ValueError("matrix is not positive definite")
        out.append(row)
    return out


def _int_det(rows) -> int:
    """Determinant of a square integer matrix: the last pivot of :func:`_bareiss`, signed."""
    d, swaps = 1, 0
    for row, swaps in _bareiss(rows):
        if row is None:
            return 0
        d = row[0]
    return -d if swaps % 2 else d


def _int_minor(rows, k) -> int:
    # the determinant of the integer rows with column k dropped
    return _int_det([r[:k] + r[k + 1 :] for r in rows])


def _bareiss_solve(rows, ncols: int) -> tuple[int, list] | None:
    """(D, y) for integer rows [A | B]: y[j][t] = D x_j for one solution x of A x = column t of B.

    D is the last pivot of :func:`_bareiss`, and free variables are zero.  The
    columns of B are eliminated too: some column of B is inconsistent exactly
    when a pivot falls in B, and then the result is None.  Row k of the
    echelon form reads P_k x_{c_k} + sum_{j > c_k} a_kj x_j = b_k.  D is the
    determinant of the pivot rows on the pivot columns, so D x is integral
    there by Cramer's rule and each division by P_k is exact (fraction-free
    back-substitution: Nakos, Turner & Williams, SIGSAM Bull. 1997).
    """
    echelon = [(c, row) for c, (row, _) in enumerate(_bareiss(rows)) if row is not None]
    if echelon and echelon[-1][0] >= ncols:
        return None
    nrhs = len(rows[0]) - ncols
    d = echelon[-1][1][0] if echelon else 1
    y = [[0] * nrhs for _ in range(ncols)]
    for k in reversed(range(len(echelon))):
        c, row = echelon[k]
        later = [(row[j - c], y[j]) for j, _ in echelon[k + 1 :]]
        b = row[ncols - c :]
        y[c] = [(d * b[t] - sum(a * yj[t] for a, yj in later)) // row[0] for t in range(nrhs)]
    return d, y


def _solve_rows(rows, ncols: int) -> tuple[Fraction, ...] | None:
    """A solution of rational rows [A | b], free variables zero, or None if inconsistent."""
    solved = _bareiss_solve(_integer_matrix(rows)[0], ncols)
    if solved is None:
        return None
    d, y = solved
    return tuple(Fraction(r[0], d) for r in y)


# ---------------------------------------------------------------------------
# integer normal forms


def _hnf(a: list[list[int]], ncols: int) -> list[int]:
    """Row Hermite normal form of the integer rows ``a``, in place.

    Pivots are sought in the first ncols columns only; any further columns
    are carried along, so rows ``[m | I]`` come back as ``[H | U]``.  Each
    column is cleared below the pivot by repeated division by its smallest
    entry; the pivot is made positive and the entries above it are reduced
    into [0, pivot).  Returns the pivot column of each leading row.
    """
    nr = len(a)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        while True:
            nz = [(abs(a[i][c]), i) for i in range(r, nr) if a[i][c]]
            if not nz:
                break
            i0 = min(nz)[1]  # the first of the smallest
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            if len(nz) == 1:
                break
            # every row at or below r is zero before column c
            prow = a[r][c:]
            d = prow[0]
            for i in range(r + 1, nr):
                row = a[i]
                q = row[c] // d
                if q:
                    row[c:] = [x - q * y for x, y in zip(row[c:], prow)]
        if a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            prow = a[r][c:]
            d = prow[0]
            for i in range(r):
                row = a[i]
                q = row[c] // d
                if q:
                    row[c:] = [x - q * y for x, y in zip(row[c:], prow)]
            pivots.append(c)
    return pivots


def hnf(m: QMat) -> tuple[QMat, QMat]:
    """Row Hermite normal form.  Returns (H, U) with H = U @ m, |det U| = 1.

    H is in row-echelon form, pivots positive, entries above a pivot reduced
    into [0, pivot).  The HNF of [m | I] is [H | U].
    """
    if not m.is_integer():
        raise ValueError("normal forms require an integer matrix")
    n = m.cols
    au = [[int(x) for x in m.row(i)] + [int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    _hnf(au, n)
    return QMat.from_rows([r[:n] for r in au]), QMat.from_rows([r[n:] for r in au])


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
        # pivot remaining artificials out; the slack block keeps every row nonzero outside them
        for i in range(m):
            if basis[i] >= nbase:
                col = next(j for j in range(nbase) if T[i][j] != 0)
                _pivot(T, rhs, i, col)
                basis[i] = col
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
# hulls by double description


def _integer_matrix(rows: Sequence[Sequence]) -> tuple:
    """(M, den): the rational matrix `rows` equals M / den with M an integer matrix."""
    den = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (den // x.denominator) for x in r] for r in rows], den


def _primitive(v) -> tuple[int, ...]:
    """The positive multiple of a rational vector whose entries are coprime integers."""
    den = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _integer_row(row: Sequence, rhs) -> tuple:
    """(a, w): the constraint row . x <= rhs scaled by a positive factor to coprime integers."""
    *a, w = _primitive((*row, rhs))
    return tuple(a), w


def _cofactor_ray(g, basis, i) -> tuple[int, ...]:
    """The primitive ray zero on every basis row but g[i], and positive on g[i].

    Its entries are the signed (d-1)-minors of the other basis rows, the column
    of the adjugate that the inverse of the basis would give up to a factor.
    """
    others = [g[j] for j in basis if j != i]
    y = [(-1) ** k * _int_minor(others, k) for k in range(len(g[i]))]
    c = math.gcd(*y)
    if sum(a * b for a, b in zip(g[i], y)) < 0:
        c = -c
    return tuple(x // c for x in y)


def _cone_rays(rows) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {y : g . y >= 0 for every row g}.

    rows must span their space.  Each ray comes as (y, z): y a primitive
    integer vector and z the bitmask of its zero set, the rows with g . y = 0.
    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): the first
    independent rows bound a simplicial cone, and the others are cut in one at
    a time.  Two rays either side of the new row combine into one on it when
    adjacent: when no third ray is zero on every row that both are.
    """
    g = [_primitive(row) for row in rows]
    d = len(g[0])
    # the pivot columns of the matrix with the rows as columns pick the first independent rows
    basis = _pivots([[r[j] for r in g] for j in range(d)])
    if len(basis) < d:
        raise RankDeficientError("the rows do not span their space")
    full = sum(1 << i for i in basis)
    rays = [(_cofactor_ray(g, basis, i), full & ~(1 << i)) for i in basis]
    for i in sorted(set(range(len(g))) - set(basis)):
        gi, bit = g[i], 1 << i
        pos, neg, kept = [], [], []
        for y, z in rays:
            s = sum(a * b for a, b in zip(gi, y))
            if s > 0:
                pos.append((y, z, s))
                kept.append((y, z))
            elif s < 0:
                neg.append((y, z, s))
            else:
                kept.append((y, z | bit))
        zs = [z for _, z in rays]
        for yp, zp, sp in pos:
            for yn, zn, sn in neg:
                z = zp & zn
                if z.bit_count() < d - 2 or any(w & z == z and w != zp and w != zn for w in zs):
                    continue
                y = [sp * b - sn * a for a, b in zip(yp, yn)]
                c = math.gcd(*y)
                kept.append((tuple(x // c for x in y), z | bit))
        rays = kept
    return rays


class _Hull(NamedTuple):
    """A polytope's hull as integers: its vertices over one denominator, and its facets.

    Vertex j is points[j] / den, with den the least common denominator; the
    points are sorted, which is the order of the rational vertices.  Facet i
    is the primitive integer row rows[i] = (u, beta), meaning u . x <= beta,
    and facets[i] is the bitmask of its vertices, bit j for points[j].
    """

    den: int
    points: tuple
    rows: tuple
    facets: tuple


def _coprime(a: Sequence[int], w: int) -> tuple:
    """(a, w) of the integer constraint a . x <= w divided by the gcd of its entries."""
    g = math.gcd(w, *a)
    if g > 1:
        return tuple(x // g for x in a), w // g
    return tuple(a), w


def _least(points, den) -> tuple:
    # (points, den) with the factor common to den and every coordinate divided out
    g = math.gcd(den, *(x for p in points for x in p))
    if g > 1:
        return tuple(tuple(x // g for x in p) for p in points), den // g
    return tuple(map(tuple, points)), den


def _fractions(hull) -> tuple:
    """The vertices of a hull record as rational tuples."""
    den = hull.den
    return tuple(tuple(Fraction(x, den) for x in p) for p in hull.points)


def _centered_rows(hull) -> tuple:
    """(N den, S) for the facet rows A_i . (x - c) <= 1 of a hull record, c the vertex average.

    With N vertices P_j over den, S_i = beta_i N den - u_i . sum P_j is
    positive, since c is interior.  Then A_i = u_i N den / S_i and
    b_i = 1 + A_i . c = beta_i N den / S_i.
    """
    nd = len(hull.points) * hull.den
    total = [sum(c) for c in zip(*hull.points)]
    return nd, [beta * nd - sum(map(mul, u, total)) for u, beta in hull.rows]


def _vertex_order(hull) -> _Hull:
    """hull with its facets in the order of a V-polytope's hrep(), which sorts the rows A_i.

    The A_i of _centered_rows sort as the integer keys u_i L / S_i, L = lcm(S_i).
    """
    s = _centered_rows(hull)[1]
    m = math.lcm(*s)
    order = sorted(range(len(s)), key=lambda i: [x * (m // s[i]) for x in hull.rows[i][0]])
    return hull._replace(rows=tuple(hull.rows[i] for i in order),
                         facets=tuple(hull.facets[i] for i in order))


def _centered_hrep(hull) -> tuple:
    """(A, b) of a hull record's facets, the rows A_i . (x - c) <= 1 of _centered_rows."""
    nd, s = _centered_rows(hull)
    a = [[Fraction(x * nd, si) for x in u] for (u, _), si in zip(hull.rows, s)]
    return QMat.from_rows(a), tuple(Fraction(beta * nd, si) for (_, beta), si in zip(hull.rows, s))


def _vertex_hull(points, den) -> tuple:
    """Hull of the integer points over den, which must affinely span their space: (kept, hull).

    The inequalities u . x <= beta valid on every point are the cone of the
    rows (den, -p), whose extreme rays are the facets; a point is extreme when
    no other point lies on every facet through it.  kept lists the indices of
    the extreme points in sorted order, and hull is their record with the
    facets in _vertex_order.  RankDeficientError means the points are flat.
    """
    order = sorted(range(len(points)), key=points.__getitem__)
    order = [i for k, i in enumerate(order) if not k or points[i] != points[order[k - 1]]]
    rays = _cone_rays([(den, *(-x for x in points[i])) for i in order])
    extreme = 0
    for i in range(len(order)):
        common = -1  # every bit: an interior point lies on no facet
        for _, z in rays:
            if z >> i & 1:
                common &= z
        if common == 1 << i:
            extreme |= common
    kept = [i for i in range(len(order)) if extreme >> i & 1]
    pts, d = _least([points[order[i]] for i in kept], den)
    rows = tuple((tuple(u), beta) for (beta, *u), _ in rays)
    facets = tuple(sum(1 << j for j, i in enumerate(kept) if z >> i & 1) for _, z in rays)
    return [order[i] for i in kept], _vertex_order(_Hull(d, pts, rows, facets))


def _polar(hull) -> _Hull:
    """The hull record of the polar of a polytope whose facets all have beta > 0.

    Vertices and facets swap (Ziegler, Lectures on Polytopes, ch. 2): each
    facet u . x <= beta gives the vertex u / beta, and each vertex p / den the
    facet p . y <= den, in the order of the vertices.  The incidences
    transpose.
    """
    den = math.lcm(*(beta for _, beta in hull.rows))
    pts = [tuple(x * (den // beta) for x in u) for u, beta in hull.rows]
    order = sorted(range(len(pts)), key=pts.__getitem__)
    rows = tuple(_coprime(p, hull.den) for p in hull.points)
    fs = [hull.facets[i] for i in order]
    facets = tuple(sum(1 << k for k, f in enumerate(fs) if f >> j & 1) for j in range(len(rows)))
    return _Hull(den, tuple(pts[i] for i in order), rows, facets)


def _dilated(hull, t) -> _Hull:
    """The hull record of tK for rational t > 0: the same incidences."""
    p, q = t.numerator, t.denominator
    pts, den = _least([[x * p for x in v] for v in hull.points], hull.den * q)
    return hull._replace(den=den, points=pts,
                         rows=tuple(_coprime([x * q for x in u], beta * p) for u, beta in hull.rows))


def _negated(hull) -> _Hull:
    """The hull record of -K, facets in K's order: the vertex order and every facet's bits reverse."""
    n = len(hull.points)
    return _Hull(hull.den, tuple(tuple(-x for x in p) for p in reversed(hull.points)),
                 tuple((tuple(-x for x in u), beta) for u, beta in hull.rows),
                 tuple(int(f"{f:0{n}b}"[::-1], 2) for f in hull.facets))


def _translated(hull, t) -> _Hull:
    """The hull record of K + t: the same incidences, and u . x <= beta + u . t."""
    (v,), dt = _integer_matrix([t])
    den = math.lcm(hull.den, dt)
    a, b = den // hull.den, den // dt
    pts, den = _least([[x * a + y * b for x, y in zip(p, v)] for p in hull.points], den)
    rows = tuple(_coprime([x * dt for x in u], beta * dt + sum(map(mul, u, v)))
                 for u, beta in hull.rows)
    return hull._replace(den=den, points=pts, rows=rows)


# above this dimension vertex enumeration is refused and extreme_points
# leaves the hull for one LP per point: the number of vertices, facets and
# intermediate rays can grow beyond any useful size
_VERTEX_ENUM_MAX_DIM = 6


def _guard_vertex_enum(n: int) -> None:
    if n > _VERTEX_ENUM_MAX_DIM:
        raise DimensionGuardError(f"vertex enumeration guarded to dimension {_VERTEX_ENUM_MAX_DIM}")


def _vertex_rays(rows) -> tuple:
    """Vertices of {x : a . x <= w for the integer rows (a, w)}, the a of rank n, and whether it is bounded.

    The vertices are the rays with t > 0 of the cone of the rows (w, -a) and
    t >= 0, found by double description; rays with t = 0 are directions of
    unboundedness.  Returns (den, verts, bounded): each vertex is (p, z), the
    point p / den with den the lcm of the t, and z the bitmask of the rows
    tight on it; verts is sorted by p.  RankDeficientError means the a have
    rank below n.
    """
    n = len(rows[0][0])
    rays = _cone_rays([(1,) + (0,) * n] + [(w, *(-x for x in a)) for a, w in rows])
    found = [(y, z >> 1) for y, z in rays if y[0] > 0]
    den = math.lcm(*(y[0] for y, _ in found))
    verts = sorted((tuple(x * (den // y[0]) for x in y[1:]), z) for y, z in found)
    return den, verts, len(found) == len(rays)


def _tight_hull(rows, den, verts) -> _Hull:
    """The hull record of {x : a . x <= w for (a, w) in rows} from its vertices.

    verts are the sorted (p, z) of _vertex_rays over den.  Each row is tight
    on the vertices of one face.  Every facet has a defining row, and a
    redundant row is tight only on a smaller face, so the facets are the
    inclusion-maximal tight sets, in the order of their first rows, and each
    keeps its first row.
    """
    tight = [sum(1 << j for j, (_, z) in enumerate(verts) if z >> i & 1) for i in range(len(rows))]
    facets = _maximal(tight)
    return _Hull(den, tuple(p for p, _ in verts), tuple(rows[tight.index(f)] for f in facets),
                 tuple(facets))


def _unbounded_unless_empty(A, b) -> None:
    """Raise UnboundedError unless {x : A x <= b} is empty, for A of rank below its column count.

    Such a polyhedron has no vertex, so it holds a line unless it is empty;
    one exact LP tells which.  The error replaces the RankDeficientError of
    _vertex_rays that its callers handle.
    """
    if lp_exact(A, b, [0] * len(A[0])).status != "infeasible":
        raise UnboundedError("polyhedron is unbounded") from None


def vertex_enum(A, b, check_bounded: bool = True):
    """All vertices of {x : A x <= b}, sorted lexicographically; guarded to dimension 6.

    The vertices are found by double description.  With check_bounded, an
    empty polyhedron gives [] and an unbounded one raises UnboundedError.
    """
    A = [vec(row) for row in A]
    b = [rat(x) for x in b]
    if not A:
        raise ValueError("no constraints")
    _guard_vertex_enum(len(A[0]))
    try:
        den, verts, bounded = _vertex_rays([_integer_row(row, bi) for row, bi in zip(A, b)])
    except RankDeficientError:
        if check_bounded:
            _unbounded_unless_empty(A, b)
        return []
    if check_bounded and verts and not bounded:
        raise UnboundedError("polyhedron is unbounded")
    return [tuple(Fraction(x, den) for x in p) for p, _ in verts]


def _lp_extreme_points(pts):
    # sorted distinct points, each decided by one exact LP: is it a convex
    # combination of the others?
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        k = len(others)
        # lambda >= 0, sum lambda = 1, sum lambda q = p
        A, b = [], []
        for c in range(len(p)):
            row = [q[c] for q in others]
            A += [row, [-x for x in row]]
            b += [p[c], -p[c]]
        A += [[Fraction(1)] * k, [Fraction(-1)] * k]
        b += [Fraction(1), Fraction(-1)]
        A += [[Fraction(-int(j == t)) for j in range(k)] for t in range(k)]
        b += [Fraction(0)] * k
        if lp_exact(A, b, [Fraction(0)] * k).status == "infeasible":
            out.append(p)
    return out


def extreme_points(points):
    """The subset of points not expressible as convex combinations of the rest, sorted.

    A set that is not full-dimensional is first projected onto the pivot
    coordinates of its affine hull, which the projection maps one to one.  Up
    to dimension 6 the hull's double description finds the extreme points.
    Above, where a hull can have exponentially many facets (the n-dimensional
    cross-polytope has 2^n), one exact LP per point decides each.
    """
    pts = sorted(set(vec(p) for p in points))
    if len(pts) <= 1:
        return pts
    pivots = _affine_pivots(pts)
    if len(pivots) > _VERTEX_ENUM_MAX_DIM:
        return _lp_extreme_points(pts)
    kept, _ = _vertex_hull(*_integer_matrix([[p[j] for j in pivots] for p in pts]))
    return [pts[i] for i in sorted(kept)]


# ---------------------------------------------------------------------------
# triangulation, volume, centroid


def _affine_pivots(pts) -> list[int]:
    """Pivot columns of the differences p - pts[0], at least two points."""
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("ragged rows")
    return _pivots(_integer_matrix([vsub(p, pts[0]) for p in pts[1:]])[0])


def affine_rank(points) -> int:
    pts = [vec(p) for p in points]
    if len(pts) <= 1:
        return 0
    return len(_affine_pivots(pts))


def _maximal(sets):
    # the inclusion-maximal members of vertex bitmasks, in first-seen order
    sets = list(dict.fromkeys(sets))
    return [s for s in sets if not any(s & t == s != t for t in sets)]


def _facet_sets(rows, den, points) -> _Hull:
    """The hull record of the polytope {x : a . x <= w for (a, w) in rows} with vertices points / den.

    For vertices that come without their zero sets: the rows tight on each
    are found by integer substitution.
    """
    zs = [sum(1 << i for i, (a, w) in enumerate(rows) if sum(map(mul, a, p)) == w * den)
          for p in points]
    return _tight_hull(rows, den, list(zip(points, zs)))


def _pulling_simplices(face, facets, dim):
    """Simplices (tuples of dim+1 vertex indices) triangulating a dim-dimensional face.

    face and the polytope's facets are vertex bitmasks.  A face with dim+1
    vertices is a simplex.  Any other is pulled from its lowest vertex v (Lee,
    Handbook of Discrete and Computational Geometry, ch. 17): v is coned over
    the face's own facets that miss v; these are among the inclusion-maximal
    proper intersections of face with the facets.
    """
    if face.bit_count() == dim + 1:
        return [tuple(j for j in range(face.bit_length()) if face >> j & 1)]
    v = (face & -face).bit_length() - 1
    subs = _maximal(g for g in (face & f for f in facets) if g != face)
    return [(v,) + s for g in subs if not g >> v & 1 for s in _pulling_simplices(g, facets, dim - 1)]


def _edges(pts) -> list:
    # the edge vectors of a simplex from its first vertex
    return [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]


def _volume_centroid(hull):
    # volume and centroid of a full-dimensional polytope from its hull record;
    # a simplex weighs |det| of its integer edges, which is n! den^n times its
    # volume
    ints, den = hull.points, hull.den
    n = len(ints[0])
    total = 0
    moment = [0] * n
    for s in _pulling_simplices((1 << len(ints)) - 1, hull.facets, n):
        pts = [ints[j] for j in s]
        d = abs(_int_det(_edges(pts)))
        total += d
        for i, x in enumerate(map(sum, zip(*pts))):
            moment[i] += d * x
    return (
        Fraction(total, math.factorial(n) * den**n),
        tuple(Fraction(x, (n + 1) * total * den) for x in moment),
    )


def volume_centroid(points):
    """Exact volume and centroid of the convex hull of the given points.

    The facets come from one double description of the hull, which drops
    points that are not extreme; the hull is then triangulated from its
    vertex-facet incidences.
    Raises RankDeficientError when the hull is not full-dimensional.
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("no points")
    n = len(pts[0])
    if n == 0:
        raise ValueError("zero-dimensional ambient space")
    if any(len(p) != n for p in pts):
        raise ValueError("ragged rows")
    try:
        hull = _vertex_hull(*_integer_matrix(pts))[1]
    except RankDeficientError:
        raise RankDeficientError("hull is not full-dimensional") from None
    return _volume_centroid(hull)


def _facet_contents(hull, max_width: Fraction | None = None) -> Interval:
    """Certified total (n-1)-content of a polytope's boundary from its hull record.

    Each facet is triangulated like a volume one dimension down, and the
    interval width is split evenly over the facets: one square root per facet.

    A facet simplex whose edge matrix has (n-1)-minors a has content |a| / (n-1)!
    (Cauchy-Binet), and a is parallel to the facet's row u.  So with u_k != 0,
    the facet's content is |u| / |u_k| times the sum of its simplices' volumes
    with coordinate k dropped, and each simplex needs one minor.  The minors
    are taken over the integer vertices, which are den times the rational
    ones, so each is den^(n-1) times the rational minor.
    """
    if max_width is None:
        max_width = SURFACE_WIDTH
    ints, den, facets = hull.points, hull.den, hull.facets
    n = len(ints[0])
    if n == 1:
        return Interval.point(2)  # two endpoint facets, each a point of content 1
    if not facets:
        raise RankDeficientError("no facets found")
    scale = (math.factorial(n - 1) * den ** (n - 1)) ** 2
    per_facet = max_width / len(facets)
    total = Interval.point(0)
    for (u, _), f in zip(hull.rows, facets):
        k = next(j for j, x in enumerate(u) if x)
        v_k = sum(abs(_int_minor(_edges([ints[j] for j in s]), k))
                  for s in _pulling_simplices(f, facets, n - 1))
        if not v_k:
            raise RankDeficientError("a facet is not (n-1)-dimensional")
        square = Fraction(v_k * v_k * sum(x * x for x in u), u[k] * u[k] * scale)
        total = total + sqrt_interval(square, per_facet)
    return total
