"""Successive minima, gauge-bounded lattice point enumeration, width, covering bracket.

All enumeration happens in the coefficient space of an LLL-reduced basis, so
embedded lattices (kernel lattices of integer matrices, say) need no special
coordinates: a body is pulled back to {c : gauge(c B) <= r} and integer vectors
c are walked with exact per-level bounds. Gauges stay rational for polytopes
and are square-root values for ellipsoids; nothing is rounded anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt
from typing import Optional, Sequence, Union

from .body import Body, ELLIPSOID, polar_body, symmetrize
from .exactmath import (
    QMat,
    QuadVal,
    UnboundedError,
    dot,
    lp_exact,
    quad_or_rat,
    rat,
    vec,
)
from .lattice import Lattice, lll_reduce, polar_lattice

Scalar = Union[Fraction, QuadVal]


@dataclass(frozen=True)
class MinimaResult:
    """Non-decreasing minima with independent witnesses; witness i attains value i."""

    values: tuple
    witnesses: tuple


# -- integer point walks -------------------------------------------------------


def polytope_integer_points(rows: Sequence[Sequence], rhs: Sequence) -> list:
    """All integer vectors c with (rows) c <= rhs, sorted lexicographically.

    Branch and bound over coordinates; inner levels bound the current
    coordinate by exact rational LPs, the last level reads its interval
    straight off the constraints.
    """
    rows = [vec(r) for r in rows]
    rhs = [rat(x) for x in rhs]
    if not rows:
        raise ValueError("need at least one constraint")
    m = len(rows[0])
    tails = [[list(r[i:]) for r in rows] for i in range(m)]
    out = []

    def rec(prefix, rem):
        i = len(prefix)
        if i == m:
            out.append(tuple(prefix))
            return
        if i == m - 1:
            lo = None
            hi = None
            for r, rj in zip(rows, rem):
                a = r[i]
                if a == 0:
                    if rj < 0:
                        return
                elif a > 0:
                    q = rj / a
                    hi = q if hi is None or q < hi else hi
                else:
                    q = rj / a
                    lo = q if lo is None or q > lo else lo
            if lo is None or hi is None:
                raise UnboundedError("unbounded enumeration region")
            for z in range(ceil(lo), floor(hi) + 1):
                out.append(tuple(prefix) + (z,))
            return
        obj = [Fraction(0)] * (m - i)
        obj[0] = Fraction(1)
        top = lp_exact(tails[i], rem, obj, sense="max")
        if top.status == "infeasible":
            return
        bot = lp_exact(tails[i], rem, obj, sense="min")
        if top.status != "optimal" or bot.status != "optimal":
            raise UnboundedError("unbounded enumeration region")
        for z in range(ceil(bot.optimum), floor(top.optimum) + 1):
            zf = Fraction(z)
            rec(prefix + [z], [rj - r[i] * zf for r, rj in zip(rows, rem)])

    rec([], rhs)
    del rec  # rec holds itself through its closure; the cycle would keep `out` alive
    return sorted(out)


def _floor_center_plus_sqrt(c: Fraction, q: Fraction) -> int:
    # largest integer z with z <= c + sqrt(q), exact
    if q < 0:
        raise ValueError("negative radicand")
    root = Fraction(isqrt(q.numerator * q.denominator), q.denominator)
    z = floor(c + root)
    while _le_center_plus_sqrt(z + 1, c, q):
        z += 1
    while not _le_center_plus_sqrt(z, c, q):
        z -= 1
    return z


def _le_center_plus_sqrt(z: int, c: Fraction, q: Fraction) -> bool:
    d = z - c
    return d <= 0 or d * d <= q


def quadratic_integer_points(q: QMat, bound: Fraction) -> list:
    """All integer c with c^T Q c <= bound, sorted lexicographically."""
    bound = rat(bound)
    if bound < 0:
        return []
    m = q.rows
    # Q = L D L^T, so c^T Q c = sum_i d_i (c_i + sum_{j>i} L_ji c_j)^2
    low, d = q.ldl()
    u = [low.col(i) for i in range(m)]
    out = []

    def rec(suffix, rem):
        # suffix holds coordinates i+1..m-1; rem = bound - sum of settled terms
        i = m - 1 - len(suffix)
        if i < 0:
            out.append(tuple(suffix))
            return
        center = -sum(u[i][j] * suffix[j - i - 1] for j in range(i + 1, m))
        radic = rem / d[i]
        hi = _floor_center_plus_sqrt(center, radic)
        lo = -_floor_center_plus_sqrt(-center, radic)
        for z in range(lo, hi + 1):
            t = d[i] * (z - center) ** 2
            if t <= rem:
                rec([z] + suffix, rem - t)

    rec([], bound)
    del rec  # as in polytope_integer_points
    return sorted(out)


# -- charts ---------------------------------------------------------------------


class _Chart:
    """A body pulled back to the integer coefficient space of a lattice basis."""

    def __init__(self, body: Body, lat: Lattice):
        self.basis = lat.basis
        self.m = lat.rank
        if body.dim != lat.dim:
            raise ValueError("body and lattice dimensions differ")
        if body.kind == ELLIPSOID:
            self.kind = "quad"
            self.span_empty = False
            self.span_boundary = False
            self.q = (self.basis @ body.data) @ self.basis.transpose()
            return
        self.kind = "hpoly"
        self.span_empty = False
        self.span_boundary = False
        a, b = body.hrep()
        rows = []
        rhs = []
        for j in range(a.rows):
            row = [dot(a.row(j), self.basis.row(i)) for i in range(self.m)]
            if all(x == 0 for x in row):
                # constraint constant on the span: void, tight, or violated there
                if b[j] < 0:
                    self.span_empty = True
                elif b[j] == 0:
                    self.span_boundary = True
                continue
            rows.append(row)
            rhs.append(b[j])
        if not rows:
            raise ValueError("body has no constraints on the lattice span")
        self.rows = rows
        self.rhs = rhs

    def origin_interior(self) -> bool:
        if self.kind == "quad":
            return True
        return all(x > 0 for x in self.rhs)

    def gauge(self, c: Sequence) -> Scalar:
        if self.kind == "quad":
            return quad_or_rat(dot(c, self.q.mul_vec(c)))
        g = Fraction(0)
        for row, bj in zip(self.rows, self.rhs):
            g = max(g, dot(row, c) / bj)
        return g

    def basis_gauges(self) -> list:
        out = []
        for i in range(self.m):
            e = [Fraction(0)] * self.m
            e[i] = Fraction(1)
            out.append(self.gauge(e))
        return out

    def points_within(self, radius: Scalar) -> list:
        """(coefficient, gauge) pairs for every lattice point with gauge <= radius."""
        if self.kind == "quad":
            bound = radius.square if isinstance(radius, QuadVal) else rat(radius) ** 2
            pts = quadratic_integer_points(self.q, bound)
        else:
            r = rat(radius)
            pts = polytope_integer_points(self.rows, [r * bj for bj in self.rhs])
        return [(c, self.gauge(c)) for c in pts]

    def ambient(self, c: Sequence) -> tuple:
        n = self.basis.cols
        acc = [Fraction(0)] * n
        for ci, i in zip(c, range(self.m)):
            if ci:
                row = self.basis.row(i)
                for t in range(n):
                    acc[t] += ci * row[t]
        return tuple(acc)


def _require_gauge_body(k: Body, lat: Lattice, allow_asymmetric: bool) -> _Chart:
    if not allow_asymmetric and not k.is_symmetric():
        raise ValueError("body must be symmetric; symmetrize it first")
    chart = _Chart(k, lat)
    if chart.span_empty or chart.span_boundary or not chart.origin_interior():
        raise ValueError("gauge needs the origin interior to the body on the span")
    return chart


# -- public operations -------------------------------------------------------------


def enumerate_points(k: Body, lat: Lattice, radius, allow_asymmetric: bool = False) -> list:
    """All lattice points with gauge <= radius as (point, gauge), in point order.

    A nonpositive radius yields just the origin.
    """
    chart = _require_gauge_body(k, lat, allow_asymmetric)
    zero = tuple([Fraction(0)] * lat.dim)
    radius = rat(radius)
    if radius <= 0:
        return [(zero, Fraction(0))]
    pts = [(chart.ambient(c), g) for c, g in chart.points_within(radius)]
    pts.sort(key=lambda t: t[0])
    return pts


def _canonical_sign(c: tuple) -> bool:
    for x in c:
        if x:
            return x > 0
    return True


def successive_minima(
    k: Body,
    lat: Lattice,
    count: Optional[int] = None,
    allow_asymmetric: bool = False,
) -> MinimaResult:
    """First `count` successive minima of the body with respect to the lattice.

    The basis is LLL-reduced, every candidate with gauge up to the count-th
    smallest basis-vector gauge is enumerated, and witnesses are selected
    greedily by (gauge, lexicographic coefficient) with exact rank tests.
    For symmetric bodies only the sign with positive leading coefficient
    competes, which pins the reported witnesses down uniquely.
    """
    m = lat.rank
    if count is None:
        count = m
    if not 1 <= count <= m:
        raise ValueError("count must lie between 1 and the lattice rank")
    red = lll_reduce(lat)
    chart = _require_gauge_body(k, red, allow_asymmetric)
    gauges = sorted(chart.basis_gauges())
    cap = gauges[count - 1]
    sym = k.is_symmetric()
    cands = []
    for c, g in chart.points_within(cap):
        if all(x == 0 for x in c):
            continue
        if sym and not _canonical_sign(c):
            continue
        cands.append((g, c))
    cands.sort(key=lambda t: (t[0], t[1]))
    picked = []
    values = []
    witnesses = []
    for g, c in cands:
        trial = picked + [list(map(Fraction, c))]
        if QMat.from_rows(trial).rank() == len(trial):
            picked = trial
            values.append(g)
            witnesses.append(chart.ambient(c))
            if len(picked) == count:
                break
    if len(picked) < count:
        raise RuntimeError("enumeration cap failed to reach enough independent points")
    return MinimaResult(tuple(values), tuple(witnesses))


def first_minimum(k: Body, lat: Lattice, allow_asymmetric: bool = False):
    """(lambda_1, witness)."""
    res = successive_minima(k, lat, 1, allow_asymmetric=allow_asymmetric)
    return res.values[0], res.witnesses[0]


def difference_body(k: Body) -> Body:
    """K - K, twice the central symmetral."""
    return symmetrize(k).dilate(2)


def lattice_width(k: Body, lat: Lattice):
    """Minimal support spread over dual directions: (width, dual witness)."""
    if not lat.is_full_rank():
        raise ValueError("lattice width needs a full-rank lattice")
    d = difference_body(k)
    val, u = first_minimum(polar_body(d), polar_lattice(lat))
    return val, u


def jarnik_bracket(k: Body, lat: Lattice):
    """Covering-radius bracket (lambda_last, sum of minima) of the difference body."""
    d = difference_body(k)
    res = successive_minima(d, lat)
    vals = res.values
    return vals[-1], sum(vals)
