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
from itertools import product
from math import factorial
from typing import Optional, Sequence, Union

from .exactmath import (
    DimensionGuardError,
    Interval,
    QMat,
    QuadVal,
    Rat,
    SURFACE_WIDTH,
    UnboundedError,
    dot,
    facet_contents,
    extreme_points,
    lp_exact,
    quad_or_rat,
    rat,
    rat_str,
    sqrt_interval,
    unit_ball_volume_interval,
    vec,
    vertex_enum,
    volume_centroid,
    _guard_vertex_enum,
    _hull_facets,
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

        Boxes and cross-polytopes expand to explicit inequalities; V-polytopes
        compute facets through the polar of the centroid-shifted vertex hull.
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
            out = _facets_of_hull(self.data)
        else:
            raise ValueError("ellipsoids have no facet description")
        self._cache["hrep"] = out
        return out

    def vertices(self) -> tuple:
        """Extreme points, sorted lexicographically."""
        if "verts" in self._cache:
            return self._cache["verts"]
        if self.kind == BOX:
            a = self.data
            vs = tuple(
                sorted(tuple(s * ai for s, ai in zip(signs, a))
                       for signs in product((1, -1), repeat=len(a)))
            )
        elif self.kind == CROSS:
            n, s = self.data
            pts = []
            for i in range(n):
                for sign in (1, -1):
                    v = [Fraction(0)] * n
                    v[i] = sign * s
                    pts.append(tuple(v))
            vs = tuple(sorted(pts))
        elif self.kind == HPOLY:
            vs = tuple(vertex_enum(self.data[0].to_rows(), list(self.data[1]), check_bounded=False))
        elif self.kind == VPOLY:
            vs = self.data[0]
        else:
            raise ValueError("ellipsoids have no vertices")
        self._cache["verts"] = vs
        return vs

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
            v, c = volume_centroid(list(self.vertices()), assume_extreme=True)
            self._cache["cen"] = c
        else:
            # vol = omega_n / sqrt(det Q)
            q = self.data.det()
            v = unit_ball_volume_interval(self.dim) * sqrt_interval(1 / q)
        self._cache["vol"] = v
        return v

    def centroid(self) -> tuple:
        if "cen" in self._cache:
            return self._cache["cen"]
        if self.kind in (BOX, CROSS, ELLIPSOID):
            c = vec([0] * self.dim)
        else:
            v, c = volume_centroid(list(self.vertices()), assume_extreme=True)
            self._cache["vol"] = v
        self._cache["cen"] = c
        return c

    def surface_area(self, max_width: Fraction = SURFACE_WIDTH) -> Interval:
        """Certified enclosure of the boundary content; polytopes only."""
        if not self.is_polytope:
            raise ValueError("surface area is implemented for polytopes only")
        a, b = self.hrep()
        return facet_contents(a.to_rows(), list(b), list(self.vertices()), max_width=max_width)

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
            vs = set(self.vertices())
            out = all(tuple(-x for x in v) in vs for v in vs)
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
        if self.kind == BOX:
            return Body(BOX, tuple(t * ai for ai in self.data))
        if self.kind == CROSS:
            return Body(CROSS, (self.data[0], t * self.data[1]))
        if self.kind == HPOLY:
            a, b = self.data
            return Body(HPOLY, (a, tuple(t * bi for bi in b)))
        if self.kind == VPOLY:
            return Body(VPOLY, (tuple(tuple(t * xi for xi in v) for v in self.data[0]),))
        q = self.data
        scaled = QMat.from_rows([[x / (t * t) for x in q.row(i)] for i in range(q.rows)])
        return Body(ELLIPSOID, scaled)

    def negate(self) -> Body:
        if self.kind in (BOX, CROSS, ELLIPSOID):
            return self
        if self.kind == HPOLY:
            a, b = self.data
            neg = QMat.from_rows([[-x for x in a.row(i)] for i in range(a.rows)])
            return Body(HPOLY, (neg, b))
        vs = tuple(sorted(tuple(-x for x in v) for v in self.data[0]))
        return Body(VPOLY, (vs,))

    def translate(self, t: Sequence) -> Body:
        t = vec(t)
        if self.kind == ELLIPSOID:
            raise ValueError("translation is implemented for polytopes only")
        if self.kind == VPOLY:
            vs = tuple(sorted(tuple(x + d for x, d in zip(v, t)) for v in self.data[0]))
            return Body(VPOLY, (vs,))
        a, b = self.hrep()
        shift = a.mul_vec(t)
        return Body(HPOLY, (a, tuple(bi + si for bi, si in zip(b, shift))))

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
    """Bounded full-dimensional {x : Ax <= b}; both conditions are verified."""
    a = QMat.from_rows(rows)
    bv = vec(b)
    if a.rows != len(bv):
        raise ValueError("row/rhs length mismatch")
    n = a.cols
    arows = a.to_rows()
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
    return Body(HPOLY, (a, tuple(bv)))


def vpoly(points: Sequence[Sequence]) -> Body:
    """Convex hull of the points; stores the extreme ones."""
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    ext = extreme_points(pts)
    n = len(pts[0])
    rows = [list(v) + [Fraction(1)] for v in ext]
    if QMat.from_rows(rows).rank() != n + 1:
        raise ValueError("hull is not full-dimensional")
    return Body(VPOLY, (tuple(sorted(tuple(v) for v in ext)),))


def ellipsoid(q_rows: Sequence[Sequence]) -> Body:
    """{x : x^T Q x <= 1} for symmetric positive definite rational Q."""
    q = QMat.from_rows(q_rows)
    if q.rows != q.cols:
        raise ValueError("Q must be square")
    if q != q.transpose():
        raise ValueError("Q must be symmetric")
    q.ldl()  # raises unless Q is positive definite
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


def generalized_hexagon(alphas: Sequence) -> Body:
    """Cube section body {|x_i| <= 1, |sum alpha_i x_i| <= 1} with 0 < a_1 <= ... <= 1."""
    al = vec(alphas)
    if not al:
        raise ValueError("need at least one coefficient")
    if any(a <= 0 for a in al) or any(al[i] > al[i + 1] for i in range(len(al) - 1)) or al[-1] > 1:
        raise ValueError("coefficients must satisfy 0 < a_1 <= ... <= a_last <= 1")
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


def _facets_of_hull(data: tuple) -> tuple:
    verts = data[0]
    _guard_vertex_enum(len(verts[0]))
    facets = _hull_facets(verts)
    return (QMat.from_rows([u for u, _, _ in facets]), tuple(r for _, r, _ in facets))


def polar_body(k: Body) -> Body:
    """Polar {y : <x,y> <= 1 on K}; requires the origin strictly inside K."""
    if k.kind == ELLIPSOID:
        return Body(ELLIPSOID, k.data.inverse())
    if not k.contains([0] * k.dim, strict=True):
        raise ValueError("polar body requires the origin in the interior")
    if k.kind == BOX:
        verts = []
        for i, ai in enumerate(k.data):
            for s in (1, -1):
                v = [Fraction(0)] * k.dim
                v[i] = Fraction(s, 1) / ai
                verts.append(v)
        return vpoly(verts)
    if k.kind == CROSS:
        n, s = k.data
        return cube(n, 1 / s)
    if k.kind == VPOLY:
        return hpoly([list(v) for v in k.vertices()], [Fraction(1)] * len(k.vertices()))
    a, b = k.hrep()
    pts = [[x / b[i] for x in a.row(i)] for i in range(a.rows)]
    return vpoly(pts)


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


# K cap -K has up to twice K's facets, each a constraint of its vertex enumeration
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
    rows = a.to_rows() + neg
    rhs = list(b) + list(b)
    verts = vertex_enum(rows, rhs, check_bounded=False)
    vol_cap, _ = volume_centroid(verts, assume_extreme=True)
    return vol_cap / k.volume()


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
