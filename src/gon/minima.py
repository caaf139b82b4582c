"""Successive minima, gauge-bounded lattice point enumeration, width, covering bracket.

All enumeration happens in the coefficient space of an LLL-reduced basis, so
embedded lattices (kernel lattices of integer matrices, say) need no special
coordinates: a body is pulled back to {c : gauge(c B) <= r} and integer vectors
c are walked one coordinate at a time. A polytope's pull-back is built from
integer rows end to end: the chart reads the lattice's integer rows over their
denominator, the body's H-representation is scaled to primitive integer rows
once per body, and their products are the chart's rows. Scaled to one
right-hand side L, they give every point an integer key max_j g_j . c whose
gauge is key / L, and a radius enters the walk as the rows (g_j, key); the
lattice maps a point back to the ambient space by integer dot products over
its denominator. Fourier-Motzkin elimination projects the walk's rows once
onto every prefix of the coordinates, so each node of the walk reads its
interval by integer floor and ceiling division. Only when a projection would
grow past a fixed row budget are the leading coordinates it leaves out
bounded by exact LPs instead. An ellipsoid's integer form, eliminated
fraction-free from c_{m-1} down, gives each prefix an integer value and each
coordinate an integer square root bound. Both kinds share one walk, which
also counts without a point list, adding up the last coordinate's interval
lengths; a polytope count sums its last two coordinates in closed form, one
floor sum per piece on which a single row bounds the last coordinate from each
side. An interior count moves the integer bounds in by one. For a
symmetric body it walks a canonical half, one point of each pair +-c and not
the origin (Fincke & Pohst 1985; Schnorr & Euchner 1994).

Successive minima rank their candidates by the integer keys, c^T Q c for an
ellipsoid's form scaled to integers, and build a gauge value only for a
minimum they return. Gauges stay rational for polytopes and are square-root
values for ellipsoids; both are compared in integer arithmetic and nothing is
rounded anywhere.

The constant scan, which needs only the values, reads the minima of a lattice
of rank 1 or 2 off its reduced integer rows and walks no point: in rank 2 the
generalized Gauss reduction ends at the two minima of any norm (Kaib & Schnorr
1996). It only compares keys, so the scan runs it on the rows themselves with
the sup-norm as the key, the unit cube's gauge on Z^n, and builds no chart. A
kernel of larger rank is keyed by the sup-norm too: every point whose
sup-norm is at most the largest of the basis rows lies in a Euclidean ball,
which the ellipsoid walk visits on the Gram form of the reduced rows,
carrying the point's coordinates down its levels. Witnesses that follow the
(key, lexicographic coefficient) tie-break still come from a chart's walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import ceil, floor, gcd, isqrt, lcm
from operator import mul
from typing import Optional, Sequence, Union

from .body import Body, ELLIPSOID, polar_body, symmetrize
from .exactmath import (
    DimensionGuardError,
    QMat,
    QuadVal,
    UnboundedError,
    lp_exact,
    quad_or_rat,
    rat,
    vec,
    _coprime,
    _definite_pivots,
    _integer_matrix,
    _integer_row,
)
from .lattice import Lattice, _gram, lll_reduce, polar_lattice

Scalar = Union[Fraction, QuadVal]


@dataclass(frozen=True)
class MinimaResult:
    """Non-decreasing minima with independent witnesses; witness i attains value i."""

    values: tuple
    witnesses: tuple


# -- integer point walks -------------------------------------------------------


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


def _interval(levels: list, rows: list, prefix: list) -> Optional[tuple]:
    """Integer [lo, hi] of the next coordinate given `prefix`, read off its projection.

    A level that the projection did not reach (None) is bounded by two exact
    LPs over `rows` instead, and then None means no real point extends `prefix`.
    """
    level = levels[len(prefix)]
    if level is None:
        return _lp_interval(rows, prefix)
    upper, lower = level
    hi = min([(w - sum(map(mul, a, prefix))) // ai for a, ai, w in upper], default=None)
    lo = max([-((w - sum(map(mul, a, prefix))) // ai) for a, ai, w in lower], default=None)
    if lo is None or hi is None:
        raise UnboundedError("unbounded enumeration region")
    return lo, hi


def _quadratic_interval(levels: list, key: int, carry: list, prefix: list) -> Optional[tuple]:
    """Integer [lo, hi] of c_i over {c : c^T q c <= key} given the prefix c_0..c_{i-1}, or None.

    levels[i] = (a, D, r) comes from _quadratic_walk. The prefix's least value
    over real extensions is v / a with v integral, and with c_i = z it is
    ((a z + b)^2 + D v) / (a D) for b = r . prefix: z is walked when
    |a z + b| <= isqrt(D (a key - v)). carry[i - 1] holds the parent level's
    (a, b, D v), which the depth-first walk keeps for the prefix it extends.
    """
    i = len(prefix)
    if i:
        ap, bp, dv = carry[i - 1]
        v = ((ap * prefix[-1] + bp) ** 2 + dv) // ap
    else:
        v = 0
    a, d, row = levels[i]
    delta = d * (a * key - v)
    if delta < 0:
        return None
    b = sum(map(mul, row, prefix))
    carry[i] = a, b, d * v
    s = isqrt(delta)
    return -((s + b) // a), (s - b) // a


# the most nodes one walk may charge above its last level, whose points are
# counted in closed form: on a shared 2-core machine, about 3 s of polytope walk
# (2-5 us a node) or 1.5 s of ellipsoid walk (1.2-1.3 us a node); the largest
# walks of the benchmark visit under 6000, and hypothesis draws of the tests have
# reached about 175 000. Near the guard, a scan row's ball walk (_ball_keys) keeps
# about 1.2 * 10^6 candidates and takes about 8 s. A polytope count that
# sums its last two levels by floor sums still charges the nodes of the level
# above the last, so the guard raises on the same inputs as a walk that visits them
_WALK_MAX_NODES = 10**6


def _spend(budget: list, lo: int, hi: int) -> None:
    """Charge the nodes lo..hi of one level to the walk's budget [nodes left]."""
    budget[0] -= max(0, hi - lo + 1)
    if budget[0] < 0:
        raise DimensionGuardError(f"the walk would visit more than {_WALK_MAX_NODES} nodes")


def _walk(interval, m: int, prefix: list, out: Optional[list], half: bool, budget: list,
          pair=None) -> int:
    """Number of integer points of an m-dimensional region extending `prefix`, appended to `out`.

    interval(prefix) is the integer [lo, hi] of the next coordinate, or None
    when no point extends `prefix`. `out` may be None. With `half`, the prefix
    is all zeros and only the points whose first nonzero coordinate is
    positive are walked: the level starts at 0, and at 1 when it is the last.
    The nodes of every level above the last are charged to `budget`. With
    `pair`, a node at depth m - 2 returns pair(prefix, lo, hi), the count of
    its last two levels, in place of walking its children.
    """
    bounds = interval(prefix)
    if bounds is None:
        return 0
    lo, hi = bounds
    last = len(prefix) + 1 == m
    if half:
        lo = max(lo, 1 if last else 0)
    if last:
        if out is not None:
            out.extend((*prefix, z) for z in range(lo, hi + 1))
        return max(0, hi - lo + 1)
    _spend(budget, lo, hi)
    if pair is not None and len(prefix) + 2 == m:
        return pair(prefix, lo, hi)
    n = 0
    for z in range(lo, hi + 1):
        prefix.append(z)
        n += _walk(interval, m, prefix, out, half and not z, budget, pair)
        prefix.pop()
    return n


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a i + b) / m) over 0 <= i < n, for m > 0, in O(log m) steps.

    Each step takes the whole parts of a / m and b / m out in closed form and
    swaps the roles of a and m, as Euclid's algorithm does (Graham, Knuth &
    Patashnik, Concrete Mathematics, section 3.5; floor_sum of the AtCoder Library).
    """
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * n * (n - 1) // 2 + qb * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _min_floor_sum(lines: list, z0: int, z1: int) -> int:
    """Sum over z0 <= z <= z1 of min_j floor((p_j - s_j z) / d_j), for lines (p, s, d) with d > 0.

    The least of the lines is concave in z, so [z0, z1] splits into pieces on
    each of which one line is least, and each piece is one floor sum. Lines
    are compared by integer cross-products.
    """
    total = 0
    while z0 <= z1:
        # the least line at z0, and of those tied the one that falls fastest
        p, s, d = lines[0]
        for q, t, e in lines:
            c = (q - t * z0) * d - (p - s * z0) * e
            if c < 0 or c == 0 and t * d > s * e:
                p, s, d = q, t, e
        # it stays least up to the last z at which no line falling faster is below it
        end = z1
        for q, t, e in lines:
            r = t * d - s * e
            if r > 0:
                end = min(end, (q * d - p * e) // r)
        total += _floor_sum(end - z0 + 1, d, -s, p - s * z0)
        z0 = end + 1
    return total


def _pair_count(level: tuple, prefix: list, z0: int, z1: int) -> int:
    """Integer points (z, y) with c_{m-2} = z in [z0, z1] and c_{m-1} = y in its interval.

    `level` is the (upper, lower) of c_{m-1}. Given `prefix`, an upper row bounds
    y <= floor((p - s z) / d) and a lower row bounds -y <= floor((p - s z) / d),
    with p = w - a[:m-2] . prefix, s = a[m-2] and d the row's coefficient of y.
    [z0, z1] is read off the exact projection onto c_0..c_{m-2}, so every z in
    it has a nonempty real interval of y, whose integer count is never negative.
    """
    if z0 > z1:
        return 0
    upper, lower = level
    if not upper or not lower:
        raise UnboundedError("unbounded enumeration region")
    return z1 - z0 + 1 + sum(
        _min_floor_sum([(w - sum(map(mul, a, prefix)), a[-1], d) for a, d, w in rows], z0, z1)
        for rows in level)


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


def _polytope_walk(rows: list, out: Optional[list], half: bool = False) -> int:
    """Number of integer c with a . c <= w for every primitive integer row (a, w) of `rows`.

    This is the walk of polytope_integer_points; unless `out` is None it also
    appends the points to `out`, in lexicographic order. With `half` it walks
    only the points whose first nonzero coordinate is positive: of a symmetric
    region, one of each pair +-c and not the origin. A count (`out` None, not
    `half`) sums the last two coordinates at each node of c_{m-2} by _pair_count.
    """
    m = len(rows[0][0])
    ints = {}
    for a, w in rows:
        if any(a):
            ints[a, w] = None
        elif w < 0:
            return 0
    if m == 0:  # the one point is the origin, which the half walk leaves out
        if half:
            return 0
        if out is not None:
            out.append(())
        return 1
    ints = list(ints)
    levels = _prefix_projections(ints, m)
    if levels is None:
        return 0
    # levels[m - 1] is always projected: elimination starts at c_{m-1}
    pair = partial(_pair_count, levels[m - 1]) if out is None and not half and m >= 2 else None
    return _walk(partial(_interval, levels, ints), m, [], out, half, [_WALK_MAX_NODES], pair)


def _quadratic_walk(q: list, key: int, out: Optional[list], half: bool = False) -> int:
    """Number of integer c with c^T q c <= key, for q symmetric positive definite over the integers.

    This is the walk of quadratic_integer_points; unless `out` is None it also
    appends the points to `out`, in lexicographic order, and `half` walks the
    same canonical half as _polytope_walk. ValueError unless q is positive definite.
    """
    levels = _quadratic_levels(q)
    m = len(levels)
    return _walk(partial(_quadratic_interval, levels, key, [None] * m), m, [], out, half,
                 [_WALK_MAX_NODES])


def _quadratic_levels(q: list) -> list:
    """The levels (a, D, r) of _quadratic_interval for a positive definite integer form q."""
    # eliminated from c_{m-1} down, the pivot row of c_i is [a, *reversed(r)]: row i
    # of D S_i from column i down, where S_i minimizes c^T q c over c_{i+1}.. and
    # D = det q[i+1:, i+1:] is the next pivot (Fincke & Pohst 1985)
    rows = _definite_pivots([r[::-1] for r in reversed(q)])[::-1]
    return [(row[0], nxt[0], row[:0:-1]) for row, nxt in zip(rows, rows[1:] + [[1]])]


def quadratic_integer_points(q: QMat, bound: Fraction) -> list:
    """All integer c with c^T Q c <= bound, in lexicographic order, for Q positive definite."""
    if q != q.transpose():
        raise ValueError("Q must be square and symmetric")
    qint, qden = _integer_matrix(q.to_rows())
    out = []
    _quadratic_walk(qint, floor(rat(bound) * qden), out)
    return out


# -- charts ---------------------------------------------------------------------


class _Chart:
    """A body pulled back to the integer coefficient space of a lattice basis.

    The chart holds no basis: it reads the lattice's integer rows and their
    denominator once. A polytope chart holds its constraints as primitive
    integer rows (rows[j] . c <= rhs[j]), the products of the body's primitive
    integer H-representation with the lattice's integer rows. An ellipsoid
    chart holds its form scaled to integers as qint / qden.

    Gauges are ranked by integer keys, and a value is built only from a key.
    When the origin is interior, a polytope chart also holds its rows scaled
    to one right-hand side L = lcm(rhs), as `keyrows`: the key of c is
    max(0, max_j keyrows[j] . c) and its gauge is key / L; when the key rows
    come in pairs +-g, as a symmetric body's do, it reads max |g . c| over
    one row of each pair. An ellipsoid's key is c^T qint c and its gauge is
    sqrt(key / qden). The lattice maps coefficients back to points.
    """

    def __init__(self, body: Body, lat: Lattice):
        self.m = lat.rank
        if body.dim != lat.dim:
            raise ValueError("body and lattice dimensions differ")
        self.span_empty = False
        self.span_boundary = False
        if body.kind == ELLIPSOID:
            self.kind = "quad"
            # Q = Qi / qd and the basis is R / den, so the form R Q R^T is R Qi R^T / (den^2 qd)
            qi, qd = _integer_matrix(body.data.to_rows())
            rq = [[sum(map(mul, r, col)) for col in zip(*qi)] for r in lat._rows]
            form = [[sum(map(mul, a, r)) for r in lat._rows] for a in rq]
            den = lat._den**2 * qd
            g = gcd(den, *(x for r in form for x in r))
            self.qint, self.qden = [[x // g for x in r] for r in form], den // g
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
        if self.origin_interior():
            self.lcm = lcm(*rhs)
            self.keyrows = [tuple(x * (self.lcm // w) for x in a) for a, w in zip(rows, rhs)]

    def origin_interior(self) -> bool:
        if self.kind == "quad":
            return True
        return all(x > 0 for x in self.rhs)

    @cached_property
    def halfrows(self) -> Optional[list]:
        """One key row of each pair +-g, when every key row's negative is a key row too; else None.

        Built on the first key, so a chart that only counts never builds it.
        """
        rows = dict.fromkeys(self.keyrows)
        half = [g for g in rows if g > tuple(-x for x in g)]
        return half if 2 * len(half) == len(rows) and all(
            tuple(-x for x in g) in rows for g in half) else None

    def key(self, c: Sequence[int]) -> int:
        """Integer key of the gauge of c: keys order points as their gauges do.

        With key rows in pairs +-g, the maximum over a pair is |g . c|, so one
        row of each pair is read.
        """
        if self.kind == "quad":
            return sum(ci * sum(map(mul, r, c)) for ci, r in zip(c, self.qint))
        half = self.halfrows
        if half is not None:
            return max([abs(sum(map(mul, g, c))) for g in half])
        return max(0, *[sum(map(mul, g, c)) for g in self.keyrows])

    def value(self, key: int) -> Scalar:
        """The gauge whose key is `key`."""
        if self.kind == "quad":
            return quad_or_rat(Fraction(key, self.qden))
        return Fraction(key, self.lcm)

    def basis_keys(self) -> list:
        if self.kind == "quad":
            return [self.qint[i][i] for i in range(self.m)]
        return [max(0, *col) for col in zip(*self.keyrows)]

    def points(self, key: int, half: bool = False) -> list:
        """Integer coefficient vectors c with key(c) <= key.

        With `half` the body must be symmetric, and only one of each pair +-c
        comes back, the one whose first nonzero coefficient is positive; the
        origin is left out.
        """
        out = []
        if self.kind == "quad":
            _quadratic_walk(self.qint, key, out, half)
        else:
            _polytope_walk([_coprime(g, key) for g in self.keyrows], out, half)
        return out

    def points_within(self, radius: Fraction) -> list:
        """(coefficient, gauge) pairs for every lattice point with gauge <= radius (>= 0)."""
        # keys are integers, so gauge <= r reads key <= floor(r L), or key <= floor(r^2 qden)
        r = rat(radius)
        key = floor(r * r * self.qden) if self.kind == "quad" else floor(r * self.lcm)
        return [(c, self.value(self.key(c))) for c in self.points(key)]

    def count(self, interior: bool = False) -> int:
        """Lattice points in the body, or in its interior, counted without a point list.

        Strict bounds on integer data are closed ones moved by one:
        a . c < w is a . c <= w - 1, and c^T qint c < qden is c^T qint c <= qden - 1.
        """
        if self.span_empty or (interior and self.span_boundary):
            return 0
        shift = 1 if interior else 0
        if self.kind == "quad":
            return _quadratic_walk(self.qint, self.qden - shift, None)
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


def _minima_core(chart: _Chart, count: int, half: bool) -> tuple:
    """(keys, coeffs): the integer keys and coefficient vectors of the first `count` minima.

    Every candidate with key up to the count-th smallest basis-vector key is
    walked, with `half` only the canonical half of a symmetric body, and
    witnesses are picked greedily by (key, lexicographic coefficient) with
    exact rank tests.
    """
    cap = sorted(chart.basis_keys())[count - 1]
    # an asymmetric body's walk keeps the origin, which reduces to zero and is never picked
    return _pick([(chart.key(c), c) for c in chart.points(cap, half)], count)


def _pick(cands: list, count: int) -> tuple:
    """(keys, coeffs) of the first `count` independent candidates (key, c) in (key, c) order.

    Each candidate is reduced exactly against the picked ones, kept in
    echelon form; it is independent when something is left.
    """
    picked = []  # (row, pivot): the witnesses' coefficients in echelon form
    keys = []
    coeffs = []
    for key, c in sorted(cands):
        r = list(c)  # reduced to zero exactly when it depends on the picked rows
        for e, p in picked:
            if r[p]:
                r = [e[p] * x - r[p] * y for x, y in zip(r, e)]
        p = next((i for i, x in enumerate(r) if x), -1)
        if p >= 0:
            picked.append((r, p))
            keys.append(key)
            coeffs.append(c)
            if len(picked) == count:
                return keys, coeffs
    raise RuntimeError("enumeration cap failed to reach enough independent points")


def _reduced_keys(key, basis) -> list:
    """The keys of both minima of the lattice of two integer rows, or of the one minimum of one.

    `key` is a symmetric integer key in whatever space the rows live in: a
    chart's key on its unit rows, or the sup-norm on a sublattice's integer
    rows. No point is walked. In rank 2 the basis (b1, b2) is reduced on
    the keys until k1 <= k2 <= key(b2 - mu b1) for every integer mu; then k1 and
    k2 are the keys of the two minima, for any norm (Kaib & Schnorr, "The
    generalized Gauss reduction algorithm", J. Algorithms 21, 1996).
    key(b2 - mu b1) is a maximum of linear functions of mu, or a convex
    quadratic, so the descent from mu = 0 stops at its least value; on an
    LLL-reduced basis it takes few steps.
    """
    if len(basis) == 1:
        return [key(basis[0])]
    b1, b2 = basis
    k1, k2 = key(b1), key(b2)
    while True:
        if k2 < k1:  # each swap lowers k1, a positive integer, so the loop ends
            b1, b2, k1, k2 = b2, b1, k2, k1
        # mu walks up from 0 while the key falls, or else down
        for step in (1, -1):
            moved = False
            while True:
                c = [y - step * x for x, y in zip(b1, b2)]
                kc = key(c)
                if kc >= k2:
                    break
                b2, k2, moved = c, kc, True
            if moved:
                break
        if k2 >= k1:
            return [k1, k2]


def _ball_keys(basis) -> list:
    """The sup-norms of the minima of the lattice of independent integer rows b_0..b_{m-1}.

    A point of sup-norm at most cap lies in the Euclidean ball |x|^2 <= n cap^2,
    and with cap the largest |entry| of a basis row, the minima are among those
    points. _walk visits the canonical half of the ball on the rows' Gram form,
    in the intervals of _quadratic_interval and under the same node budget, and
    carries the point's coordinates P = c_0 b_0 + ... + c_{i-1} b_{i-1} down its
    levels: on the last level the sup-norm is max_j |P_j + z b_{m-1,j}|, with no
    dot product per point, and the z whose sup-norm is at most cap are an
    interval. Those points are picked as _minima_core picks its candidates. No
    chart is built and nothing is projected.
    """
    m, n = len(basis), len(basis[0])
    cap = max(max(map(abs, r)) for r in basis)
    bound = cap * cap * n
    levels = _quadratic_levels(_gram(basis))
    carry = [None] * m
    sums = [[0] * n] + [None] * (m - 1)  # sums[i]: the P_j of c_0..c_{i-1}
    cands = []

    def interval(prefix):
        i = len(prefix)
        if i:
            sums[i] = [p + prefix[-1] * t for p, t in zip(sums[i - 1], basis[i - 1])]
        bounds = _quadratic_interval(levels, bound, carry, prefix)
        if bounds is None or i + 1 < m:
            return bounds
        # the last level is read here, and the walk is left nothing to extend: past
        # z = 0 on a zero prefix (the canonical half), the z with |P_j + z b_ij| <= cap
        lo, hi = bounds
        if not any(prefix):
            lo = max(lo, 1)
        pairs = list(zip(sums[i], basis[i]))
        for p, t in pairs:
            if t < 0:
                p, t = -p, -t
            if t:
                lo, hi = max(lo, -((cap + p) // t)), min(hi, (cap - p) // t)
            elif abs(p) > cap:
                return None
        cands.extend((max([abs(p + z * t) for p, t in pairs]), (*prefix, z))
                     for z in range(lo, hi + 1))
        return None

    _walk(interval, m, [], None, True, [_WALK_MAX_NODES])
    return _pick(cands, m)[0]


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
    Candidates are ranked by their integer gauge keys, and a gauge value is
    built only for a picked witness. A symmetric body has gauge(-c) =
    gauge(c), so its walk visits only the canonical half, the coefficient
    vectors whose first nonzero entry is positive; that pins the reported
    witnesses down uniquely.
    """
    m = lat.rank
    if count is None:
        count = m
    if not 1 <= count <= m:
        raise ValueError("count must lie between 1 and the lattice rank")
    red = lll_reduce(lat)
    chart = _require_gauge_body(k, red, allow_asymmetric)
    keys, coeffs = _minima_core(chart, count, k.is_symmetric())
    return MinimaResult(tuple(map(chart.value, keys)), tuple(map(red.point, coeffs)))


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
