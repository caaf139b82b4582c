"""Successive minima, gauge-bounded lattice point enumeration, width, covering bracket.

All enumeration happens in the coefficient space of an LLL-reduced basis, so
embedded lattices (kernel lattices of integer matrices, say) need no special
coordinates: a body is pulled back to {c : gauge(c B) <= r} and integer vectors
c are walked one coordinate at a time. A polytope's pull-back is built from
integer rows end to end: the chart reads the lattice's integer rows over their
denominator, the body's H-representation is scaled to primitive integer rows
once per body, and their products are the chart's rows. A radius p/q enters
the walk as the rows (q a, p w), gauges are read off the rows by
cross-multiplication, and the lattice maps a point back to the ambient space
by integer dot products over its denominator. Fourier-Motzkin elimination
projects the walk's rows once onto every prefix of the coordinates, so each
node of the walk reads its interval by integer floor and ceiling division.
Only when a projection would grow past a fixed row budget are the leading
coordinates it leaves out bounded by exact LPs instead. Ellipsoids are walked
Fincke-Pohst style, bounding each coordinate by exact integer square roots.
Both walks also run in a counting mode that adds up the lengths of the last
coordinate's intervals and builds no point list; an interior count is the
closed count of the integer region whose bounds are moved in by one. Gauges
stay rational for polytopes and are square-root values for ellipsoids; both
are compared in integer arithmetic and nothing is rounded anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, isqrt
from operator import mul
from typing import Optional, Sequence, Union

from .body import Body, ELLIPSOID, polar_body, symmetrize
from .exactmath import (
    QMat,
    QuadVal,
    UnboundedError,
    lp_exact,
    quad_or_rat,
    rat,
    vec,
    _integer_matrix,
    _integer_row,
)
from .lattice import Lattice, lll_reduce, polar_lattice

Scalar = Union[Fraction, QuadVal]


@dataclass(frozen=True)
class MinimaResult:
    """Non-decreasing minima with independent witnesses; witness i attains value i."""

    values: tuple
    witnesses: tuple


# -- integer point walks -------------------------------------------------------


def _coprime(a: Sequence[int], w: int) -> tuple:
    """(a, w) of the integer constraint a . c <= w divided by the gcd of its entries."""
    g = gcd(w, *a)
    if g > 1:
        return tuple(x // g for x in a), w // g
    return tuple(a), w


# An elimination step that would leave more rows than this stops the projection.
# The leading coordinates it has not reached are bounded by two exact LPs per
# node instead: few nodes sit at those levels, and theirs are the projections
# that Fourier-Motzkin blows up.
_PROJECTION_MAX_ROWS = 1024


def _keep(table: dict, a: tuple, w: int, hist: int) -> None:
    # histories are bit sets of original rows; of two copies of one row, the one
    # combined from a subset of the other's rows is the one worth keeping
    hists = table.setdefault((a, w), [])
    if any(h & hist == h for h in hists):
        return
    hists[:] = [h for h in hists if h & hist != hist]
    hists.append(hist)


def _prefix_projections(rows: list, m: int) -> Optional[list]:
    """Rows bounding each coordinate c_i of {a . c <= w} given c_0..c_{i-1}.

    `rows` are distinct primitive integer rows (a, w), none with a = 0. Entry
    i of the result is (upper, lower): the rows of the projection onto
    c_0..c_i with a_i > 0, as (a_0..a_{i-1}, a_i, w), and those with a_i < 0,
    as (a_0..a_{i-1}, -a_i, w). Rows with a_i = 0 are left out: they are rows
    of the projection one coordinate shorter, which the walk has already met.
    Returns None when elimination meets a violated constant row, which shows
    the region empty; an empty region may also come back as levels whose
    bounds on c_0 cross. When a projection would exceed _PROJECTION_MAX_ROWS
    rows, elimination stops and the entries below it are None.

    The projections come from Fourier-Motzkin elimination of c_{m-1}, ..., c_1
    (Schrijver, Theory of Linear and Integer Programming, 1986, section 12.2)
    under Chernikov's rule: after k eliminations a row combined from more than
    k + 1 original rows is implied by the others and is dropped.
    """
    table = {row: [1 << j] for j, row in enumerate(rows)}
    levels = [None] * m
    for i in range(m - 1, -1, -1):
        levels[i] = ([(a[:i], a[i], w) for a, w in table if a[i] > 0],
                     [(a[:i], -a[i], w) for a, w in table if a[i] < 0])
        if i == 0:
            break
        limit = m - i + 1
        nxt = {}
        pos, neg = [], []
        for (a, w), hists in table.items():
            if a[i] > 0:
                pos.append((a, w, hists))
            elif a[i] < 0:
                neg.append((a, w, hists))
            else:  # a[:i] is nonzero: no row in the table is all zeros
                for h in hists:
                    _keep(nxt, a[:i], w, h)
        for ap, wp, hp in pos:
            cp = ap[i]
            for an, wn, hn in neg:
                hists = [h | k for h in hp for k in hn if (h | k).bit_count() <= limit]
                if not hists:
                    continue
                cn = -an[i]
                a = [cn * x + cp * y for x, y in zip(ap[:i], an[:i])]
                w = cn * wp + cp * wn
                g = gcd(w, *a)
                if g > 1:
                    a = [x // g for x in a]
                    w //= g
                if not any(a):
                    if w < 0:
                        return None
                    continue
                a = tuple(a)
                for h in hists:
                    _keep(nxt, a, w, h)
            if len(nxt) > _PROJECTION_MAX_ROWS:
                return levels
        table = nxt
    return levels


def _lp_interval(rows: list, prefix: list) -> Optional[tuple]:
    """Integer [lo, hi] of the next coordinate over {a . c <= w} given `prefix`, by two exact LPs.

    None if no real point extends `prefix`.
    """
    i = len(prefix)
    tails = [a[i:] for a, _ in rows]
    rem = [w - sum(map(mul, a, prefix)) for a, w in rows]
    obj = [1] + [0] * (len(tails[0]) - 1)
    top = lp_exact(tails, rem, obj, sense="max")
    if top.status == "infeasible":
        return None
    bot = lp_exact(tails, rem, obj, sense="min")
    if top.status != "optimal" or bot.status != "optimal":
        raise UnboundedError("unbounded enumeration region")
    return ceil(bot.optimum), floor(top.optimum)


def _interval(level: Optional[tuple], rows: list, prefix: list) -> Optional[tuple]:
    """Integer [lo, hi] of the next coordinate given `prefix`, read off its projection `level`.

    A level that the projection did not reach (None) is bounded by two exact
    LPs over `rows` instead, and then None means no real point extends `prefix`.
    """
    if level is None:
        return _lp_interval(rows, prefix)
    upper, lower = level
    hi = min([(w - sum(map(mul, a, prefix))) // ai for a, ai, w in upper], default=None)
    lo = max([-((w - sum(map(mul, a, prefix))) // ai) for a, ai, w in lower], default=None)
    if lo is None or hi is None:
        raise UnboundedError("unbounded enumeration region")
    return lo, hi


def _walk(levels: list, rows: list, prefix: list, out: Optional[list]) -> int:
    """Number of integer points of the region extending `prefix`, appended to `out` unless None."""
    bounds = _interval(levels[len(prefix)], rows, prefix)
    if bounds is None:
        return 0
    lo, hi = bounds
    if len(prefix) + 1 == len(levels):
        if out is not None:
            out.extend((*prefix, z) for z in range(lo, hi + 1))
        return max(0, hi - lo + 1)
    n = 0
    for z in range(lo, hi + 1):
        prefix.append(z)
        n += _walk(levels, rows, prefix, out)
        prefix.pop()
    return n


def polytope_integer_points(rows: Sequence[Sequence], rhs: Sequence) -> list:
    """All integer vectors c with (rows) c <= rhs, in lexicographic order.

    The constraints are scaled to primitive integer rows and projected onto
    every prefix c_0..c_i of the coordinates by Fourier-Motzkin elimination,
    once per call. The walk then fixes c_0, c_1, ... in turn, reading each
    coordinate's interval off its projection with integer floor and ceiling
    division. If a projection would exceed _PROJECTION_MAX_ROWS rows, the
    coordinates before it are bounded by two exact LPs per node instead. An
    empty region yields no points; a node whose interval is unbounded on
    either side raises UnboundedError.
    """
    rows = [vec(r) for r in rows]
    rhs = [rat(x) for x in rhs]
    if not rows:
        raise ValueError("need at least one constraint")
    out = []
    _polytope_walk([_integer_row(r, b) for r, b in zip(rows, rhs)], out)
    return out


def _polytope_walk(rows: list, out: Optional[list]) -> int:
    """Number of integer c with a . c <= w for every primitive integer row (a, w) of `rows`.

    This is the walk of polytope_integer_points; unless `out` is None it also
    appends the points to `out`, in lexicographic order.
    """
    m = len(rows[0][0])
    ints = {}
    for a, w in rows:
        if any(a):
            ints[a, w] = None
        elif w < 0:
            return 0
    if m == 0:
        if out is not None:
            out.append(())
        return 1
    ints = list(ints)
    levels = _prefix_projections(ints, m)
    return 0 if levels is None else _walk(levels, ints, [], out)


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


def _quadratic_walk(q: QMat, bound: Fraction, out: Optional[list]) -> int:
    """Number of integer c with c^T Q c <= bound (>= 0), appended to `out` unless it is None."""
    # Q = L D L^T, so c^T Q c = sum_i d_i (c_i + sum_{j>i} L_ji c_j)^2
    low, d = q.ldl()
    return _quadratic_level([low.col(i) for i in range(q.rows)], d, [], bound, out)


def _quadratic_level(u: list, d: tuple, suffix: list, rem: Fraction, out: Optional[list]) -> int:
    # suffix holds coordinates i+1..m-1; rem = bound - sum of settled terms
    m = len(d)
    i = m - 1 - len(suffix)
    center = -sum(u[i][j] * suffix[j - i - 1] for j in range(i + 1, m))
    radic = rem / d[i]
    hi = _floor_center_plus_sqrt(center, radic)
    lo = -_floor_center_plus_sqrt(-center, radic)
    if i == 0:
        if out is not None:
            out.extend((z, *suffix) for z in range(lo, hi + 1))
        return max(0, hi - lo + 1)
    # the bounds are exact, so every z in them leaves rem - d_i (z - center)^2 >= 0
    return sum(_quadratic_level(u, d, [z] + suffix, rem - d[i] * (z - center) ** 2, out)
               for z in range(lo, hi + 1))


def quadratic_integer_points(q: QMat, bound: Fraction) -> list:
    """All integer c with c^T Q c <= bound, sorted lexicographically."""
    bound = rat(bound)
    if bound < 0:
        return []
    out = []
    _quadratic_walk(q, bound, out)
    return sorted(out)


# -- charts ---------------------------------------------------------------------


class _Chart:
    """A body pulled back to the integer coefficient space of a lattice basis.

    The chart holds no basis: it reads the lattice's integer rows and their
    denominator once. A polytope chart holds its constraints as primitive
    integer rows (rows[j] . c <= rhs[j]), the products of the body's primitive
    integer H-representation with the lattice's integer rows. Its walks and
    gauges stay in integers until a gauge is returned as a Fraction; the
    lattice maps coefficients back to points. An ellipsoid chart holds its
    form q and, for gauges, q scaled to integers as qint / qden.
    """

    def __init__(self, body: Body, lat: Lattice):
        self.m = lat.rank
        if body.dim != lat.dim:
            raise ValueError("body and lattice dimensions differ")
        self.span_empty = False
        self.span_boundary = False
        if body.kind == ELLIPSOID:
            self.kind = "quad"
            self.q = (lat.basis @ body.data) @ lat.basis.transpose()
            self.qint, self.qden = _integer_matrix(self.q.to_rows())
            return
        self.kind = "hpoly"
        rows = []
        rhs = []
        for a, w in body._integer_hrep():
            # a . (e / den) <= w for the integer basis row e reads (a . e) <= w * den
            row = [sum(map(mul, a, e)) for e in lat._rows]
            if not any(row):
                # constraint constant on the span: void, tight, or violated there
                if w < 0:
                    self.span_empty = True
                elif w == 0:
                    self.span_boundary = True
                continue
            row, w = _coprime(row, w * lat._den)
            rows.append(row)
            rhs.append(w)
        if not rows:
            raise ValueError("body has no constraints on the lattice span")
        self.rows = rows
        self.rhs = rhs

    def origin_interior(self) -> bool:
        if self.kind == "quad":
            return True
        return all(x > 0 for x in self.rhs)

    def gauge(self, c: Sequence[int]) -> Scalar:
        """Gauge of the integer coefficient vector c; the origin must be interior."""
        if self.kind == "quad":
            s = sum(ci * sum(map(mul, r, c)) for ci, r in zip(c, self.qint))
            return quad_or_rat(Fraction(s, self.qden))
        # max over rows of (a . c) / w, floored at 0, compared by cross-multiplication
        num, den = 0, 1
        for a, w in zip(self.rows, self.rhs):
            t = sum(map(mul, a, c))
            if t * den > num * w:
                num, den = t, w
        return Fraction(num, den)

    def basis_gauges(self) -> list:
        out = []
        for i in range(self.m):
            e = [0] * self.m
            e[i] = 1
            out.append(self.gauge(e))
        return out

    def points_within(self, radius: Scalar) -> list:
        """(coefficient, gauge) pairs for every lattice point with gauge <= radius."""
        if self.kind == "quad":
            bound = radius.square if isinstance(radius, QuadVal) else rat(radius) ** 2
            pts = quadratic_integer_points(self.q, bound)
        else:
            # gauge <= p/q is q (a . c) <= p w on every row
            r = rat(radius)
            p, q = r.numerator, r.denominator
            pts = []
            _polytope_walk([_coprime([q * x for x in a], p * w) for a, w in zip(self.rows, self.rhs)],
                           pts)
        return [(c, self.gauge(c)) for c in pts]

    def count(self, interior: bool = False) -> int:
        """Lattice points in the body, or in its interior, counted without a point list.

        Strict bounds on integer data are closed ones moved by one:
        a . c < w is a . c <= w - 1, and c^T qint c < qden is c^T qint c <= qden - 1.
        """
        if self.span_empty or (interior and self.span_boundary):
            return 0
        shift = 1 if interior else 0
        if self.kind == "quad":
            return _quadratic_walk(self.q, Fraction(self.qden - shift, self.qden), None)
        return _polytope_walk([_coprime(a, w - shift) for a, w in zip(self.rows, self.rhs)], None)


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
    pts = [(lat.point(c), g) for c, g in chart.points_within(radius)]
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
    picked = []  # (row, pivot): the witnesses' coefficients in echelon form
    values = []
    witnesses = []
    for g, c in cands:
        r = list(c)  # reduced to zero exactly when it depends on the picked rows
        for e, p in picked:
            if r[p]:
                r = [e[p] * x - r[p] * y for x, y in zip(r, e)]
        p = next((i for i, x in enumerate(r) if x), -1)
        if p >= 0:
            picked.append((r, p))
            values.append(g)
            witnesses.append(red.point(c))
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
