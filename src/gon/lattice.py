"""Lattices with exact rational bases.

A lattice is an m-by-n basis matrix whose rows are independent; m < n gives a
lattice embedded in a proper subspace.  It is stored as integer rows over the
least common denominator of its entries, and the rational basis is a view
built on first use.  Determinants of non-full-rank lattices are square roots
of rationals and come back as QuadVal unless the root is exact.  Duals and
coefficients are solved on the integer rows by the fraction-free core of
``exactmath``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from operator import mul

from .exactmath import (
    QMat,
    RankDeficientError,
    quad_or_rat,
    rat,
    rat_str,
    vec,
    _bareiss_solve,
    _hnf,
    _int_det,
    _integer_matrix,
    _pivots,
    _solve_rows,
)


class Lattice:
    """Free Z-module spanned by the rows of ``basis``.

    Stored as the integer rows ``_rows`` over ``_den``, the least common
    denominator of the basis entries; unimodular row operations keep it so.
    """

    def __init__(self, basis: QMat):
        rows, den = _integer_matrix(basis.to_rows())
        vars(self).update(_rows=tuple(map(tuple, rows)), _den=den, basis=basis)
        if len(_pivots(rows)) < basis.rows:
            raise RankDeficientError("basis rows are dependent")

    @classmethod
    def _of_rows(cls, rows, den: int = 1) -> "Lattice":
        """The lattice of independent integer rows over their least common denominator."""
        lat = object.__new__(cls)
        vars(lat).update(_rows=tuple(map(tuple, rows)), _den=den)
        return lat

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    @cached_property
    def basis(self) -> QMat:
        return QMat.from_rows([[Fraction(x, self._den) for x in r] for r in self._rows])

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def dim(self) -> int:
        return len(self._rows[0])

    def is_full_rank(self) -> bool:
        return self.rank == self.dim

    def is_integer(self) -> bool:
        return self._den == 1

    def vectors(self) -> list[tuple[Fraction, ...]]:
        return [self.basis.row(i) for i in range(self.rank)]

    def gram(self) -> QMat:
        b = self.basis
        return b @ b.transpose()

    def det_squared(self) -> Fraction:
        return Fraction(_gram_det(self._rows), self._den ** (2 * self.rank))

    def det(self):
        """Covolume.  Rational for full-rank lattices, else a QuadVal."""
        if self.is_full_rank():
            return Fraction(abs(_int_det(self._rows)), self._den**self.dim)
        return quad_or_rat(self.det_squared())

    def coefficients(self, x) -> tuple[Fraction, ...] | None:
        """c with c @ basis = x, or None when x is outside the span."""
        x = vec(x)
        if len(x) != self.dim:
            raise ValueError("rhs length mismatch")
        # c @ basis = x reads R^T c = den x on the integer rows R
        return _solve_rows([(*col, self._den * xi) for col, xi in zip(zip(*self._rows), x)],
                           self.rank)

    def contains(self, x) -> bool:
        c = self.coefficients(x)
        return c is not None and all(ci.denominator == 1 for ci in c)

    def point(self, coeffs) -> tuple[Fraction, ...]:
        c = [x if type(x) is int else rat(x) for x in coeffs]
        if len(c) != self.rank:
            raise ValueError("vector length mismatch")
        return tuple(Fraction(sum(map(mul, c, col)), self._den) for col in zip(*self._rows))

    def dual(self) -> "Lattice":
        """Dual lattice within the span of this one.

        Pairings between dual and primal basis rows form the identity; for
        full-rank lattices this is the classical polar lattice.  With the
        basis R / den, the dual rows are X = G^-1 (R / den) for the Gram matrix
        G = R R^T / den^2, that is the solution of R R^T X = den R.
        """
        rows, den = self._rows, self._den
        d, y = _bareiss_solve([g + [den * x for x in r] for g, r in zip(_gram(rows), rows)],
                              self.rank)
        # X = y / d with d > 0, a leading minor of the positive definite R R^T,
        # brought to its least common denominator
        c = gcd(d, *(x for r in y for x in r))
        return Lattice._of_rows([[x // c for x in r] for r in y], d // c)

    def scale(self, t) -> "Lattice":
        t = rat(t)
        if t <= 0:
            raise ValueError("scale factor must be positive")
        return Lattice(QMat(self.basis.rows, self.basis.cols, [t * x for x in self.basis.data]))

    def hermite_basis(self) -> "Lattice":
        """Canonical basis: HNF of the integer rows, over the same denominator."""
        m = [list(r) for r in self._rows]
        if len(_hnf(m, self.dim)) < self.rank:
            raise RuntimeError("Hermite normal form lost a basis row")
        return Lattice._of_rows(m, self._den)

    def same_lattice(self, other: "Lattice") -> bool:
        if self.dim != other.dim or self.rank != other.rank:
            return False
        # both bases scaled by the product of the denominators
        mine = [[x * other._den for x in r] for r in self._rows]
        theirs = [[x * self._den for x in r] for r in other._rows]
        _hnf(mine, self.dim)
        _hnf(theirs, self.dim)
        return mine == theirs

    def index_in(self, other: "Lattice") -> Fraction:
        """[other : self] for a finite-index sublattice; raises otherwise."""
        if self.rank != other.rank or self.dim != other.dim:
            raise ValueError("lattices have different rank")
        idx2 = self.det_squared() / other.det_squared()
        for v in self.vectors():
            if not other.contains(v):
                raise ValueError("not a sublattice")
        r = quad_or_rat(idx2)
        if isinstance(r, Fraction) and r.denominator == 1:
            return r
        raise ValueError("index is not an integer")  # unreachable for true sublattices

    def to_json(self) -> dict:
        return {"basis": [[rat_str(x) for x in self.basis.row(i)] for i in range(self.rank)]}

    @classmethod
    def from_json(cls, obj: dict) -> "Lattice":
        return make_lattice(obj["basis"])

    def __eq__(self, other):
        return isinstance(other, Lattice) and self._den == other._den and self._rows == other._rows

    def __hash__(self):
        return hash((self._den, self._rows))

    def __repr__(self):
        return f"Lattice({self.basis!r})"


def make_lattice(rows) -> Lattice:
    return Lattice(QMat.from_rows([[rat(x) for x in r] for r in rows]))


def standard_lattice(n: int) -> Lattice:
    return Lattice(QMat.identity(n))


def polar_lattice(lat: Lattice) -> Lattice:
    """Dual of a full-rank lattice: det(L) * det(L*) = 1."""
    if not lat.is_full_rank():
        raise RankDeficientError("polar lattice needs a full-rank lattice")
    return lat.dual()


def _gram(rows) -> list:
    """The integer Gram matrix R R^T of integer rows R."""
    return [[sum(map(mul, a, b)) for b in rows] for a in rows]


def _gram_det(rows) -> int:
    """det(R R^T) of independent integer rows R: the squared covolume of their lattice."""
    return _int_det(_gram(rows))


def _integer_rows(a_rows, what: str) -> list:
    """The rows of an integer matrix as lists of ints.

    Raises ValueError for an empty or ragged matrix or a non-integer entry,
    and TypeError for an entry that is not a rational.
    """
    rows = [list(r) for r in a_rows]
    if not rows:
        raise ValueError("empty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    rows = [[x if type(x) is int else rat(x) for x in r] for r in rows]
    if any(x.denominator != 1 for r in rows for x in r):
        raise ValueError(f"{what} needs an integer matrix")
    return [[x.numerator for x in r] for r in rows]


def minors_gcd(a_rows) -> int:
    """gcd of all maximal minors of a full-row-rank integer matrix.

    Computed as the product of the pivots of the Hermite normal form of the
    transpose: unimodular row operations keep the gcd of the maximal minors,
    and the only nonzero maximal minor of that form is its pivot triangle.
    """
    a = _integer_rows(a_rows, "minors gcd")
    at = [list(col) for col in zip(*a)]
    pivots = _hnf(at, len(a))
    if len(pivots) < len(a):
        raise RankDeficientError("matrix does not have full row rank")
    return prod(at[i][c] for i, c in enumerate(pivots))


def kernel_lattice(a_rows) -> Lattice:
    """The saturated lattice {x in Z^n : A x = 0} for an integer matrix A, in Hermite normal form.

    Requires full row rank and m < n so the kernel is a nontrivial
    primitive sublattice.  The basis is the Hermite form of
    :func:`_kernel_lattice`'s extended-gcd basis, which the lattice alone
    determines.
    """
    a = _integer_rows(a_rows, "kernel lattice")
    if len(a) >= len(a[0]):
        raise ValueError("kernel lattice needs fewer rows than columns")
    return _kernel_lattice(a).hermite_basis()


def _kernel_lattice(a) -> Lattice:
    """A basis of kernel_lattice(a), in no normal form, for int rows fewer than their columns.

    Each row after the first is read in the coefficients of the current basis, and the
    kernel of that image (_row_kernel), mapped back through the basis, is the next one,
    still saturated; an image of zero is a row in the span of the rows before it.
    """
    basis = None
    for r in a:
        sub = _row_kernel(r if basis is None else [sum(map(mul, r, b)) for b in basis])
        if sub is None:
            raise RankDeficientError("matrix does not have full row rank")
        basis = sub if basis is None else [[sum(map(mul, c, col)) for col in zip(*basis)]
                                           for c in sub]
    return Lattice._of_rows(basis)


def _row_kernel(a) -> list | None:
    """Rows spanning {x in Z^k : a . x = 0} for an integer row a of length k; None if a is zero.

    A chain of extended gcds (Bradley, Math. Comp. 25, 1971): with a . v = g, a gcd of
    the entries before a_i = b, and h = gcd(g, b) = s g + t b, the unimodular step takes
    (v, e_i) to the kernel row (b/h) v - (g/h) e_i and the new v = s v + t e_i; a zero b
    gives the kernel row e_i. The kernel rows and the last v form a basis of Z^k.
    """
    k = len(a)
    out = []
    v, g = None, 0
    for i, b in enumerate(a):
        if not b:
            out.append([0] * k)
            out[-1][i] = 1
            continue
        if not g:
            v, g = [0] * k, b
            v[i] = 1
            continue
        h = gcd(g, b)
        s = pow(g // h, -1, abs(b) // h)  # s g = h modulo b
        row = [b // h * x for x in v]
        row[i] = -(g // h)
        out.append(row)
        v = [s * x for x in v]
        v[i] = (h - s * g) // b
        g = h
    return out if g else None


# ---------------------------------------------------------------------------
# basis reduction


def lll_reduce(lat: Lattice, delta: Fraction = Fraction(3, 4)) -> Lattice:
    """Lenstra-Lenstra-Lovasz reduction in integer arithmetic.

    The lattice's integer rows are reduced by the integral LLL of
    de Weger (1987), as in Cohen, A Course in Computational Algebraic Number
    Theory (1993), Algorithm 2.6.7. Its Gram-Schmidt data are integers: the
    Gram determinants d_i of the first i rows and l_kj = d_{j+1} mu_kj, which
    a swap updates by exact divisions. The steps are those of the rational
    LLL of Lenstra, Lenstra and Lovasz (1982), in their order: row k is
    size-reduced against rows k-1, ..., 0 by the nearest integer to mu_kj,
    halves rounded up, and then Lovasz's condition with delta = p/q is tested
    as q d_{k+1} d_{k-1} >= p d_k^2 - q l_k,k-1^2. The decisions are those of
    the rational algorithm, and so is the reduced basis. Each d_i is
    positive for independent rows; a d_i <= 0 is a fault in the program.
    """
    m = lat.rank
    if m <= 1:
        return lat
    b = [list(r) for r in lat._rows]
    p, q = delta.numerator, delta.denominator
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for k in range(m):
        for j in range(k + 1):
            u = sum(map(mul, b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] <= 0:
            raise RuntimeError("LLL basis rows are dependent")
    k = 1
    while k < m:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            r = (2 * lk[j] + dj) // (2 * dj)
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lj = lam[j]
                for t in range(j):
                    lk[t] -= r * lj[t]
                lk[j] -= r * dj
        l = lk[k - 1]
        if q * d[k + 1] * d[k - 1] >= p * d[k] ** 2 - q * l * l:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        lk1 = lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        dk = (d[k - 1] * d[k + 1] + l * l) // d[k]
        for i in range(k + 1, m):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - l * t) // d[k]
            li[k - 1] = (dk * t + l * li[k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return Lattice._of_rows(b, lat._den)
