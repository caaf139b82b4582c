"""Convex bodies with exact data: boxes, cross-polytopes, H/V-polytopes, ellipsoids.

Every body is full-dimensional and bounded; constructors verify both. Flags
like symmetry and centeredness are always computed from the data, never taken
on trust from the caller. Polytope volumes and centroids are exact rationals;
surface areas are certified intervals; ellipsoid volumes are intervals built
from pi enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from math import factorial
from operator import and_
from typing import Optional, Sequence, Union

from .exactmath import (
    DimensionGuardError,
    Interval,
    QMat,
    QuadVal,
    Rat,
    RankDeficientError,
    SURFACE_WIDTH,
    UnboundedError,
    dot,
    affine_rank,
    extreme_points,
    lp_exact,
    quad_or_rat,
    rat,
    rat_str,
    sqrt_interval,
    unit_ball_volume_interval,
    vec,
    _VERTEX_ENUM_MAX_DIM,
    _Hull,
    _centered_hrep,
    _definite_pivots,
    _dilated,
    _facet_contents,
    _facet_sets,
    _fractions,
    _guard_vertex_enum,
    _integer_matrix,
    _integer_row,
    _negated,
    _polar,
    _tight_hull,
    _translated,
    _unbounded_unless_empty,
    _vertex_hull,
    _vertex_order,
    _vertex_rays,
    _volume_centroid,
)

Scalar = Union[Fraction, QuadVal]

BOX = "box"
CROSS = "cross"
HPOLY = "hpoly"
VPOLY = "vpoly"
ELLIPSOID = "ellipsoid"

_POLYTOPE_KINDS = (BOX, CROSS, HPOLY, VPOLY)


@dataclass(frozen=True)
class BodyScalars:
    """Exact summary data of a body."""

    volume: Union[Fraction, Interval]
    surface_area: Optional[Interval]
    centroid: tuple


class Body:
    """Immutable convex body; operations dispatch on the representation kind."""

    __slots__ = ("kind", "data", "_cache")

    def __init__(self, kind: str, data: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Body is immutable")

    def __repr__(self) -> str:
        return f"Body({self.kind}, dim={self.dim})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Body):
            return NotImplemented
        return self.kind == other.kind and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.kind, self.data))

    @property
    def dim(self) -> int:
        if self.kind == BOX:
            return len(self.data)
        if self.kind == CROSS:
            return self.data[0]
        if self.kind == HPOLY:
            return self.data[0].cols
        if self.kind == VPOLY:
            return len(self.data[0][0])
        return self.data.rows

    @property
    def is_polytope(self) -> bool:
        return self.kind in _POLYTOPE_KINDS

    # -- representations ----------------------------------------------------

    def hrep(self) -> tuple:
        """Facet description (A, b) with the body equal to {x : Ax <= b}.

        Boxes and cross-polytopes expand to explicit inequalities; a
        V-polytope reads its facets off its hull, guarded to dimension 6.
        """
        if "hrep" in self._cache:
            return self._cache["hrep"]
        if self.kind == BOX:
            a = self.data
            n = len(a)
            rows = []
            rhs = []
            for i in range(n):
                for s in (1, -1):
                    row = [Fraction(0)] * n
                    row[i] = Fraction(s)
                    rows.append(row)
                    rhs.append(a[i])
            out = (QMat.from_rows(rows), tuple(rhs))
        elif self.kind == CROSS:
            n, s = self.data
            rows = [list(map(Fraction, signs)) for signs in product((1, -1), repeat=n)]
            out = (QMat.from_rows(rows), (s,) * len(rows))
        elif self.kind == HPOLY:
            out = (self.data[0], self.data[1])
        elif self.kind == VPOLY:
            _guard_vertex_enum(self.dim)
            out = _centered_hrep(self._hull())
        else:
            raise ValueError("ellipsoids have no facet description")
        self._cache["hrep"] = out
        return out

    def _integer_hrep(self) -> tuple:
        """The rows (a, w) of hrep() scaled to primitive integer rows, a . x <= w."""
        if "integer_hrep" not in self._cache:
            if self.kind == VPOLY:
                _guard_vertex_enum(self.dim)
                rows = self._hull().rows  # the facets, in the order of hrep()
            else:
                a, b = self.hrep()
                rows = tuple(_integer_row(a.row(j), b[j]) for j in range(a.rows))
            self._cache["integer_hrep"] = rows
        return self._cache["integer_hrep"]

    def vertices(self) -> tuple:
        """Extreme points, sorted lexicographically."""
        if self.kind == BOX:
            return tuple(sorted(product(*((-ai, ai) for ai in self.data))))
        if self.kind == CROSS:
            n, s = self.data
            return tuple(sorted(tuple(sign * s if j == i else Fraction(0) for j in range(n))
                                for i in range(n) for sign in (1, -1)))
        if self.kind == VPOLY:
            return self.data[0]
        if "vertices" not in self._cache:
            self._cache["vertices"] = _fractions(self._hull())
        return self._cache["vertices"]

    def _hull(self, found=None):
        """The hull record: integer vertices over one denominator, facet rows and bitmasks.

        Vertex j is points[j] / den, the points sorted; facet i is the
        primitive row rows[i] = (u, beta), u . x <= beta, and the bitmask
        facets[i] of its vertices.  The record is computed once per body, and
        only integers go into it.  hpoly and vpoly hand in as `found` the
        record of the double description that validated the body, and a
        dilate, negation, translate or polar the record it maps from its
        parent's, so none of them runs a double description of its own.
        """
        if "hull" in self._cache:
            return self._cache["hull"]
        if found is None:
            if self.kind == HPOLY:
                _guard_vertex_enum(self.dim)
                rows = self._integer_hrep()
                found = _tight_hull(rows, *_vertex_rays(rows)[:2])
            elif self.kind == VPOLY:
                found = _vertex_hull(*_integer_matrix(self.data[0]))[1]
            elif self.kind == BOX:
                (a,), den = _integer_matrix([self.data])
                found = _facet_sets(self._integer_hrep(), den, list(product(*((-x, x) for x in a))))
            elif self.kind == CROSS:
                n, s = self.data
                pts = sorted(tuple(sign * s.numerator if j == i else 0 for j in range(n))
                             for i in range(n) for sign in (1, -1))
                found = _facet_sets(self._integer_hrep(), s.denominator, pts)
            else:
                raise ValueError("ellipsoids have no vertices")
        self._cache["hull"] = found
        return found

    # -- scalar data ---------------------------------------------------------

    def volume(self) -> Union[Fraction, Interval]:
        """Exact rational volume for polytopes, certified interval for ellipsoids."""
        if "vol" in self._cache:
            return self._cache["vol"]
        if self.kind == BOX:
            v = Fraction(1)
            for ai in self.data:
                v *= 2 * ai
        elif self.kind == CROSS:
            n, s = self.data
            v = Fraction(2) ** n * s ** n / factorial(n)
        elif self.kind in (HPOLY, VPOLY):
            return self._polytope_volume_centroid()[0]
        else:
            # vol = omega_n / sqrt(det Q), enclosed at the working width, so not cached
            return unit_ball_volume_interval(self.dim) * sqrt_interval(1 / self.data.det())
        self._cache["vol"] = v
        return v

    def centroid(self) -> tuple:
        if "cen" in self._cache:
            return self._cache["cen"]
        if self.kind in (HPOLY, VPOLY):
            return self._polytope_volume_centroid()[1]
        c = vec([0] * self.dim)
        self._cache["cen"] = c
        return c

    def _polytope_volume_centroid(self) -> tuple:
        # both are sums over one pulling triangulation, so they are cached together
        v, c = _volume_centroid(self._hull())
        self._cache["vol"], self._cache["cen"] = v, c
        return v, c

    def surface_area(self, max_width: Fraction = SURFACE_WIDTH) -> Interval:
        """Certified enclosure of the boundary content; polytopes only."""
        if not self.is_polytope:
            raise ValueError("surface area is implemented for polytopes only")
        if self.kind == VPOLY:
            _guard_vertex_enum(self.dim)  # as for the hrep its facets come with
        return _facet_contents(self._hull(), max_width=max_width)

    def scalars(self) -> BodyScalars:
        surf = self.surface_area() if self.is_polytope else None
        return BodyScalars(self.volume(), surf, self.centroid())

    # -- predicates ----------------------------------------------------------

    def is_symmetric(self) -> bool:
        """Whether K = -K, decided from the vertex set for polytope inputs."""
        if "sym" in self._cache:
            return self._cache["sym"]
        if self.kind in (BOX, CROSS, ELLIPSOID):
            out = True
        else:
            # negation reverses the lexicographic order of the sorted vertices
            if self.kind == HPOLY:
                pts = [list(p) for p in self._hull().points]
            else:
                pts = _integer_matrix(self.data[0])[0]
            out = pts == [[-x for x in p] for p in reversed(pts)]
        self._cache["sym"] = out
        return out

    def is_centered(self) -> bool:
        """Whether the centroid is exactly the origin."""
        if self.is_symmetric():
            return True
        return all(c == 0 for c in self.centroid())

    def contains(self, x: Sequence, strict: bool = False) -> bool:
        x = vec(x)
        if self.kind == ELLIPSOID:
            q = dot(x, self.data.mul_vec(x))
            return q < 1 if strict else q <= 1
        a, b = self.hrep()
        for i in range(a.rows):
            lhs = dot(a.row(i), x)
            if lhs > b[i] or (strict and lhs == b[i]):
                return False
        return True

    # -- exact functionals ----------------------------------------------------

    def gauge(self, x: Sequence) -> Scalar:
        """Smallest t >= 0 with x in tK; requires the origin interior."""
        x = vec(x)
        if self.kind == BOX:
            return max((abs(xi) / ai for xi, ai in zip(x, self.data)), default=Fraction(0))
        if self.kind == CROSS:
            n, s = self.data
            return sum(abs(xi) for xi in x) / s
        if self.kind == ELLIPSOID:
            return quad_or_rat(dot(x, self.data.mul_vec(x)))
        a, b = self.hrep()
        if any(bi <= 0 for bi in b):
            raise ValueError("gauge requires the origin in the interior")
        g = Fraction(0)
        for i in range(a.rows):
            g = max(g, dot(a.row(i), x) / b[i])
        return g

    def support(self, u: Sequence) -> Scalar:
        """max over K of <u, x>."""
        u = vec(u)
        if self.kind == BOX:
            return sum(ai * abs(ui) for ai, ui in zip(self.data, u))
        if self.kind == CROSS:
            n, s = self.data
            return s * max((abs(ui) for ui in u), default=Fraction(0))
        if self.kind == ELLIPSOID:
            return quad_or_rat(dot(u, self.data.inverse().mul_vec(u)))
        return max(dot(v, u) for v in self.vertices())

    # -- transforms ------------------------------------------------------------

    def dilate(self, t) -> Body:
        t = rat(t)
        if t <= 0:
            raise ValueError("dilation factor must be positive")
        image = partial(_dilated, t=t)
        if self.kind == BOX:
            return self._carry(Body(BOX, tuple(t * ai for ai in self.data)), image)
        if self.kind == CROSS:
            return self._carry(Body(CROSS, (self.data[0], t * self.data[1])), image)
        if self.kind == HPOLY:
            a, b = self.data
            return self._carry(Body(HPOLY, (a, tuple(t * bi for bi in b))), image)
        if self.kind == VPOLY:
            return self._vertex_image(image)
        q = self.data
        scaled = QMat.from_rows([[x / (t * t) for x in q.row(i)] for i in range(q.rows)])
        return Body(ELLIPSOID, scaled)

    def negate(self) -> Body:
        if self.kind in (BOX, CROSS, ELLIPSOID):
            return self
        if self.kind == VPOLY:
            def image(hull):
                # the facet rows of -K sort in the reverse of K's order
                hull = _negated(hull)
                return hull._replace(rows=hull.rows[::-1], facets=hull.facets[::-1])
            return self._vertex_image(image)
        a, b = self.data
        neg = QMat.from_rows([[-x for x in a.row(i)] for i in range(a.rows)])
        return self._carry(Body(HPOLY, (neg, b)), _negated)

    def translate(self, t: Sequence) -> Body:
        t = vec(t)
        if self.kind == ELLIPSOID:
            raise ValueError("translation is implemented for polytopes only")
        image = partial(_translated, t=t)
        if self.kind == VPOLY:
            return self._vertex_image(image)
        a, b = self.hrep()
        shift = a.mul_vec(t)
        return self._carry(Body(HPOLY, (a, tuple(bi + si for bi, si in zip(b, shift)))), image)

    def _carry(self, out: Body, image) -> Body:
        # hand `out` the image of this body's hull record, when it has one
        if "hull" in self._cache:
            out._hull(image(self._cache["hull"]))
        return out

    def _vertex_image(self, image) -> Body:
        # the image of a V-polytope under a map that keeps or reverses the
        # vertex order; without a hull record (above dimension 6) the map is
        # applied to the bare integer vertices
        if "hull" in self._cache:
            return _vpoly_of(image(self._cache["hull"]))
        pts, den = _integer_matrix(self.data[0])
        return Body(VPOLY, (_fractions(image(_Hull(den, pts, (), ()))),))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == BOX:
            return {"type": "box", "a": [rat_str(x) for x in self.data]}
        if self.kind == CROSS:
            return {"type": "cross", "scale": rat_str(self.data[1]), "dim": self.data[0]}
        if self.kind == HPOLY:
            a, b = self.data
            return {
                "type": "hpoly",
                "A": [[rat_str(x) for x in a.row(i)] for i in range(a.rows)],
                "b": [rat_str(x) for x in b],
            }
        if self.kind == VPOLY:
            return {"type": "vpoly", "vertices": [[rat_str(x) for x in v] for v in self.data[0]]}
        return {"type": "ellipsoid", "Q": [[rat_str(x) for x in self.data.row(i)]
                                           for i in range(self.data.rows)]}

    @staticmethod
    def from_json(obj: dict) -> Body:
        kind = obj["type"]
        if kind == "box":
            return box([rat(x) for x in obj["a"]])
        if kind == "cross":
            return cross_polytope(int(obj["dim"]), rat(obj["scale"]))
        if kind == "hpoly":
            return hpoly([[rat(x) for x in row] for row in obj["A"]],
                         [rat(x) for x in obj["b"]])
        if kind == "vpoly":
            return vpoly([[rat(x) for x in v] for v in obj["vertices"]])
        if kind == "ellipsoid":
            return ellipsoid([[rat(x) for x in row] for row in obj["Q"]])
        raise ValueError(f"unknown body type {kind!r}")


# -- constructors ----------------------------------------------------------------


def box(a: Sequence) -> Body:
    """Axis box [-a_1, a_1] x ... x [-a_n, a_n], side lengths sorted descending."""
    a = vec(a)
    if not a:
        raise ValueError("box needs at least one side")
    if any(ai <= 0 for ai in a):
        raise ValueError("box sides must be positive")
    if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
        raise ValueError("box sides must be non-increasing")
    return Body(BOX, a)


def cube(n: int, scale=1) -> Body:
    return box([rat(scale)] * n)


def cross_polytope(n: int, scale=1) -> Body:
    """conv{+-scale*e_i}, the unit ball of the scaled 1-norm."""
    s = rat(scale)
    if n < 1 or s <= 0:
        raise ValueError("need n >= 1 and positive scale")
    return Body(CROSS, (n, s))


def hpoly(rows: Sequence[Sequence], b: Sequence) -> Body:
    """Bounded full-dimensional {x : Ax <= b}; both conditions are verified.

    Up to dimension 6 the double description of the system decides them, and
    the body keeps that hull, as vpoly keeps its own.  No vertex means empty,
    a ray of the recession cone unbounded, and a row tight on every vertex
    flat, since then no point has Ax < b.  When A has rank below n, the set
    holds a line unless it is empty, and one LP tells which.  Above dimension
    6, 2n + 1 LPs bound each coordinate and look for an interior point.
    """
    a = QMat.from_rows(rows)
    bv = vec(b)
    if a.rows != len(bv):
        raise ValueError("row/rhs length mismatch")
    n = a.cols
    arows = a.to_rows()
    k = Body(HPOLY, (a, tuple(bv)))
    # a system in no variables stays with the LPs, which call b < 0 flat there
    if 0 < n <= _VERTEX_ENUM_MAX_DIM:
        irows = k._integer_hrep()
        try:
            den, verts, bounded = _vertex_rays(irows)
        except RankDeficientError:
            _unbounded_unless_empty(arows, bv)
            verts = []
        if not verts:
            raise ValueError("polyhedron is empty")
        if not bounded:
            raise UnboundedError("polyhedron is unbounded")
        if reduce(and_, (z for _, z in verts)):
            raise ValueError("polyhedron is not full-dimensional")
        k._hull(_tight_hull(irows, den, verts))
        return k
    for j in range(n):
        c = [Fraction(0)] * n
        c[j] = Fraction(1)
        for sense in ("max", "min"):
            res = lp_exact(arows, list(bv), c, sense=sense)
            if res.status == "unbounded":
                raise UnboundedError("polyhedron is unbounded")
            if res.status == "infeasible":
                raise ValueError("polyhedron is empty")
    # interior test: max t with Ax + t*1 <= b, t > 0 iff full-dimensional
    ext = [list(r) + [Fraction(1)] for r in arows]
    res = lp_exact(ext, list(bv), [Fraction(0)] * n + [Fraction(1)], sense="max")
    if res.status != "optimal" or res.optimum <= 0:
        raise ValueError("polyhedron is not full-dimensional")
    return k


def vpoly(points: Sequence[Sequence]) -> Body:
    """Convex hull of the points; stores the extreme ones.

    Up to dimension 6 it stores the hull that found them, facets included.
    Above, extreme_points decides each point by an LP, and volume() finds the
    hull when it is asked for.
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    if n == 0:
        raise ValueError("zero-dimensional ambient space")
    if any(len(p) != n for p in pts):
        raise ValueError("ragged rows")
    if n > _VERTEX_ENUM_MAX_DIM:
        if affine_rank(pts) < n:
            raise ValueError("hull is not full-dimensional")
        return Body(VPOLY, (tuple(extreme_points(pts)),))
    try:
        kept, hull = _vertex_hull(*_integer_matrix(pts))
    except RankDeficientError:
        raise ValueError("hull is not full-dimensional") from None
    k = Body(VPOLY, (tuple(pts[i] for i in kept),))
    k._hull(hull)
    return k


def _vpoly_of(hull) -> Body:
    # the V-polytope of a hull record, its vertices read off the record
    k = Body(VPOLY, (_fractions(hull),))
    k._hull(hull)
    return k


def ellipsoid(q_rows: Sequence[Sequence]) -> Body:
    """{x : x^T Q x <= 1} for symmetric positive definite rational Q."""
    q = QMat.from_rows(q_rows)
    if q.rows != q.cols:
        raise ValueError("Q must be square")
    if q != q.transpose():
        raise ValueError("Q must be symmetric")
    _definite_pivots(_integer_matrix(q.to_rows())[0])  # raises unless Q is positive definite
    return Body(ELLIPSOID, q)


def unit_ball(n: int) -> Body:
    return ellipsoid(QMat.identity(n).to_rows())


def centered_simplex(n: int) -> Body:
    """Simplex with centroid 0 and vertices -1 and -1 + (n+1)e_i; volume (n+1)^n/n!."""
    ones = [Fraction(-1)] * n
    verts = [tuple(ones)]
    for i in range(n):
        v = list(ones)
        v[i] += n + 1
        verts.append(tuple(v))
    return vpoly(verts)


def dual_centered_simplex(n: int) -> Body:
    """Simplex conv{-1, e_1, ..., e_n}; polar of the centered simplex, volume (n+1)/n!."""
    verts = [tuple([Fraction(-1)] * n)]
    for i in range(n):
        v = [Fraction(0)] * n
        v[i] = Fraction(1)
        verts.append(tuple(v))
    return vpoly(verts)


def standard_simplex(n: int) -> Body:
    """conv{0, e_1, ..., e_n}; the origin is a vertex, not interior."""
    verts = [tuple([Fraction(0)] * n)]
    for i in range(n):
        v = [Fraction(0)] * n
        v[i] = Fraction(1)
        verts.append(tuple(v))
    return vpoly(verts)


def _hexagon_coefficients(alphas: Sequence) -> tuple:
    """The coefficients as rationals, checked to satisfy 0 < a_1 <= ... <= a_last <= 1."""
    al = vec(alphas)
    if not al:
        raise ValueError("need at least one coefficient")
    if al[0] <= 0 or any(al[i] > al[i + 1] for i in range(len(al) - 1)) or al[-1] > 1:
        raise ValueError("coefficients must satisfy 0 < a_1 <= ... <= a_last <= 1")
    return al


def generalized_hexagon(alphas: Sequence) -> Body:
    """Cube section body {|x_i| <= 1, |sum alpha_i x_i| <= 1} with 0 < a_1 <= ... <= 1."""
    al = _hexagon_coefficients(alphas)
    n = len(al)
    rows = []
    rhs = []
    for i in range(n):
        for s in (1, -1):
            row = [Fraction(0)] * n
            row[i] = Fraction(s)
            rows.append(row)
            rhs.append(Fraction(1))
    rows.append(list(al))
    rhs.append(Fraction(1))
    rows.append([-a for a in al])
    rhs.append(Fraction(1))
    return Body(HPOLY, (QMat.from_rows(rows), tuple(rhs)))


# -- derived bodies -----------------------------------------------------------------


def polar_body(k: Body) -> Body:
    """Polar {y : <x,y> <= 1 on K}; requires the origin strictly inside K.

    The origin is strictly inside K when every right-hand side of its facet
    description is positive.  Up to dimension 6 the polar takes K's hull
    record transposed, and runs no double description.
    """
    if k.kind == ELLIPSOID:
        return Body(ELLIPSOID, k.data.inverse())
    if not all(w > 0 for _, w in k._integer_hrep()):
        raise ValueError("polar body requires the origin in the interior")
    if k.kind == CROSS:
        n, s = k.data
        return cube(n, 1 / s)
    if k.kind == VPOLY:
        # bounded and full-dimensional, since the origin is strictly inside K;
        # its rows are K's vertices, each a facet, in the order of the record
        vs = k.vertices()
        return k._carry(Body(HPOLY, (QMat.from_rows(vs), (Fraction(1),) * len(vs))), _polar)
    if k.dim > _VERTEX_ENUM_MAX_DIM:
        a, b = k.hrep()
        return vpoly([[x / b[i] for x in a.row(i)] for i in range(a.rows)])
    return _vpoly_of(_vertex_order(_polar(k._hull())))


def symmetrize(k: Body) -> Body:
    """Central symmetral (K - K)/2; returns K itself when already symmetric."""
    if k.is_symmetric():
        return k
    if not k.is_polytope:
        raise ValueError("symmetrization is implemented for polytopes only")
    vs = k.vertices()
    half = Fraction(1, 2)
    diffs = {tuple((x - y) * half for x, y in zip(v, w)) for v in vs for w in vs}
    return vpoly(list(diffs))


# K cap -K has up to twice K's facets, each one more row for the double
# description of its vertices to cut in
_ALPHA_MAX_DIM = 4


def alpha_ratio(k: Body) -> Fraction:
    """vol(K cap -K)/vol(K) for a centered polytope; 1 when K is symmetric."""
    if not k.is_polytope:
        raise ValueError("alpha ratio is implemented for polytopes only")
    if not k.is_centered():
        raise ValueError("alpha ratio requires a centered body")
    if k.dim > _ALPHA_MAX_DIM:
        raise DimensionGuardError(f"alpha ratio guarded at dimension {_ALPHA_MAX_DIM}")
    if k.is_symmetric():
        return Fraction(1)
    a, b = k.hrep()
    neg = [[-x for x in a.row(i)] for i in range(a.rows)]
    cap = Body(HPOLY, (QMat.from_rows(a.to_rows() + neg), tuple(b) + tuple(b)))
    return cap.volume() / k.volume()


def intrinsic_volumes_box(a: Sequence) -> list:
    """V_0..V_n of a box: elementary symmetric polynomials in the side lengths 2a_i."""
    a = vec(a)
    if any(ai <= 0 for ai in a):
        raise ValueError("box sides must be positive")
    coeffs = [Fraction(1)]
    for ai in a:
        s = 2 * ai
        nxt = coeffs + [Fraction(0)]
        for i in range(len(coeffs)):
            nxt[i + 1] += coeffs[i] * s
        coeffs = nxt
    return coeffs
