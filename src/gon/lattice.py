"""Lattices with exact rational bases.

A lattice is stored as an m-by-n basis matrix whose rows are independent;
m < n gives a lattice embedded in a proper subspace.  Determinants of
non-full-rank lattices are square roots of rationals and come back as
QuadVal unless the root is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import (
    QMat,
    RankDeficientError,
    hnf,
    quad_or_rat,
    rat,
    rat_str,
    vec,
    _integer_matrix,
)


class Lattice:
    """Free Z-module spanned by the rows of ``basis``."""

    __slots__ = ("basis",)

    def __init__(self, basis: QMat):
        if basis.rank() != basis.rows:
            raise RankDeficientError("basis rows are dependent")
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    @property
    def rank(self) -> int:
        return self.basis.rows

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_full_rank(self) -> bool:
        return self.rank == self.dim

    def is_integer(self) -> bool:
        return self.basis.is_integer()

    def vectors(self) -> list[tuple[Fraction, ...]]:
        return [self.basis.row(i) for i in range(self.rank)]

    def gram(self) -> QMat:
        b = self.basis
        return b @ b.transpose()

    def det_squared(self) -> Fraction:
        return self.gram().det()

    def det(self):
        """Covolume.  Rational for full-rank lattices, else a QuadVal."""
        if self.is_full_rank():
            return abs(self.basis.det())
        return quad_or_rat(self.det_squared())

    def coefficients(self, x) -> tuple[Fraction, ...] | None:
        """c with c @ basis = x, or None when x is outside the span."""
        c = self.basis.transpose().solve(vec(x))
        return c

    def contains(self, x) -> bool:
        c = self.coefficients(x)
        return c is not None and all(ci.denominator == 1 for ci in c)

    def point(self, coeffs) -> tuple[Fraction, ...]:
        return self.basis.transpose().mul_vec(vec(coeffs))

    def dual(self) -> "Lattice":
        """Dual lattice within the span of this one.

        Pairings between dual and primal basis rows form the identity; for
        full-rank lattices this is the classical polar lattice.
        """
        g = self.gram()
        return Lattice(g.inverse() @ self.basis)

    def scale(self, t) -> "Lattice":
        t = rat(t)
        if t <= 0:
            raise ValueError("scale factor must be positive")
        return Lattice(QMat(self.basis.rows, self.basis.cols, [t * x for x in self.basis.data]))

    def hermite_basis(self) -> "Lattice":
        """Canonical basis: HNF of the integer-scaled rows, rescaled back."""
        m, d = _integer_matrix(self.basis.to_rows())
        h, _ = hnf(QMat.from_rows(m))
        rows = [h.row(i) for i in range(h.rows) if any(x != 0 for x in h.row(i))]
        return Lattice(QMat.from_rows([[x / d for x in r] for r in rows]))

    def same_lattice(self, other: "Lattice") -> bool:
        if self.dim != other.dim or self.rank != other.rank:
            return False
        # both bases scaled by their common denominator
        m, _ = _integer_matrix(self.basis.to_rows() + other.basis.to_rows())
        return hnf(QMat.from_rows(m[:self.rank]))[0] == hnf(QMat.from_rows(m[self.rank:]))[0]

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
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

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


def minors_gcd(a_rows) -> int:
    """gcd of all maximal minors of a full-row-rank integer matrix.

    Computed as the product of the pivots of the Hermite normal form of the
    transpose: unimodular row operations keep the gcd of the maximal minors,
    and the only nonzero maximal minor of that form is its pivot triangle.
    """
    A = QMat.from_rows([[rat(x) for x in r] for r in a_rows])
    if not A.is_integer():
        raise ValueError("minors gcd needs an integer matrix")
    h, _ = hnf(A.transpose())
    pivots = [next(x for x in row if x != 0) for row in h.to_rows() if any(row)]
    if len(pivots) < A.rows:
        raise RankDeficientError("matrix does not have full row rank")
    out = 1
    for p in pivots:
        out *= int(p)
    return out


def kernel_lattice(a_rows) -> Lattice:
    """The saturated lattice {x in Z^n : A x = 0} for an integer matrix A.

    Requires full row rank and m < n so the kernel is a nontrivial
    primitive sublattice.
    """
    A = QMat.from_rows([[rat(x) for x in r] for r in a_rows])
    if not A.is_integer():
        raise ValueError("kernel lattice needs an integer matrix")
    m, n = A.rows, A.cols
    if m >= n:
        raise ValueError("kernel lattice needs fewer rows than columns")
    if A.rank() < m:
        raise RankDeficientError("matrix does not have full row rank")
    at = A.transpose()
    aug = QMat.from_rows(
        [list(at.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    )
    h, _ = hnf(aug)
    out = []
    for i in range(h.rows):
        row = h.row(i)
        if all(x == 0 for x in row[:m]):
            out.append(row[m:])
    if not out:
        raise RankDeficientError("kernel is trivial")
    return Lattice(QMat.from_rows(out))


# ---------------------------------------------------------------------------
# basis reduction


def _gso(rows):
    m = len(rows)
    mu = [[Fraction(0)] * m for _ in range(m)]
    star = [None] * m
    norms = [Fraction(0)] * m
    for i in range(m):
        v = list(rows[i])
        for j in range(i):
            num = sum((a * b for a, b in zip(rows[i], star[j])), Fraction(0))
            mu[i][j] = num / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star[i] = v
        norms[i] = sum((x * x for x in v), Fraction(0))
    return mu, norms


def _round_half(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def lll_reduce(lat: Lattice, delta: Fraction = Fraction(3, 4)) -> Lattice:
    """Lenstra-Lenstra-Lovasz reduction over exact rationals.

    Gram-Schmidt data is recomputed from scratch after every swap; ranks
    here are small enough that clarity wins.
    """
    rows = [list(r) for r in lat.vectors()]
    m = len(rows)
    if m <= 1:
        return lat
    mu, norms = _gso(rows)
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = _round_half(mu[k][j])
            if q:
                rows[k] = [x - q * y for x, y in zip(rows[k], rows[j])]
                for t in range(j):
                    mu[k][t] -= q * mu[j][t]
                mu[k][j] -= q
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            mu, norms = _gso(rows)
            k = max(k - 1, 1)
    return Lattice(QMat.from_rows(rows))
