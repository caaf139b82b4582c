"""Integer hull records, and the records that derived bodies carry.

A body's hull record holds its vertices as integers over one denominator and
each facet as a primitive integer row beside its vertex bitmask.  Dilates,
negations, translates and polars map their parent's record instead of running
a double description.  The Fraction routines below are the hull tail that the
record replaced, kept as the reference: a fresh double description of each
body's own data, vertices sorted as Fraction tuples, facets found by Fraction
dot products, and the volume and facet routines scaling Fraction vertices to
one denominator.
"""

import contextlib
import json
import math
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gon import exactmath as em
from gon.body import BOX, CROSS, HPOLY, VPOLY, Body, box, cross_polytope, cube, hpoly, polar_body, vpoly
from gon.cli import main
from gon.exactmath import (
    SURFACE_WIDTH,
    Interval,
    QMat,
    RankDeficientError,
    dot,
    sqrt_interval,
    volume_centroid,
)

# ---------------------------------------------------------------------------
# the Fraction hull tail, as the reference


def ref_vertex_hull(points):
    """(vertices, (A, b), facets) of points that span their space; rows A_i . (x - c) <= 1."""
    pts = sorted(points)
    pts = [p for i, p in enumerate(pts) if not i or p != pts[i - 1]]
    rays = em._cone_rays([(1, *(-x for x in p)) for p in pts])
    extreme = 0
    for i in range(len(pts)):
        common = -1
        for _, z in rays:
            if z >> i & 1:
                common &= z
        if common == 1 << i:
            extreme |= common
    kept = [i for i in range(len(pts)) if extreme >> i & 1]
    verts = tuple(pts[i] for i in kept)
    c = tuple(sum(x) / len(verts) for x in zip(*verts))
    rows = []
    for (beta, *u), z in rays:
        s = beta - dot(u, c)
        rows.append((tuple(x / s for x in u), sum(1 << j for j, i in enumerate(kept) if z >> i & 1)))
    rows.sort()
    a = [u for u, _ in rows]
    return verts, (QMat.from_rows(a), tuple(1 + dot(u, c) for u in a)), [f for _, f in rows]


def ref_vertex_rays(A, b):
    """The sorted vertices (x, z) of {x : A x <= b}, z the rows tight on x."""
    n = len(A[0])
    rows = [(1,) + (0,) * n] + [(bi, *(-x for x in row)) for row, bi in zip(A, b)]
    rays = em._cone_rays(rows)
    return sorted((tuple(Fraction(x, y[0]) for x in y[1:]), z >> 1) for y, z in rays if y[0] > 0)


def ref_tight_facets(verts, m):
    return em._maximal(sum(1 << j for j, (_, z) in enumerate(verts) if z >> i & 1) for i in range(m))


def ref_facet_sets(A, b, vertices):
    zs = [sum(1 << i for i, (row, bi) in enumerate(zip(A, b)) if dot(row, v) == bi) for v in vertices]
    return ref_tight_facets(list(zip(vertices, zs)), len(A))


def ref_scaled(vertices):
    den = math.lcm(*(x.denominator for v in vertices for x in v))
    return [[x.numerator * (den // x.denominator) for x in v] for v in vertices], den


def ref_volume_centroid(vertices, facets):
    n = len(vertices[0])
    ints, den = ref_scaled(vertices)
    total = 0
    moment = [0] * n
    for s in em._pulling_simplices((1 << len(vertices)) - 1, facets, n):
        pts = [ints[j] for j in s]
        d = abs(em._int_det(em._edges(pts)))
        total += d
        for i, x in enumerate(map(sum, zip(*pts))):
            moment[i] += d * x
    return (Fraction(total, math.factorial(n) * den**n),
            tuple(Fraction(x, (n + 1) * total * den) for x in moment))


def ref_facet_contents(vertices, facets, max_width):
    n = len(vertices[0])
    if n == 1:
        return Interval.point(2)
    ints, den = ref_scaled(vertices)
    scale = (math.factorial(n - 1) * den ** (n - 1)) ** 2
    per_facet = max_width / len(facets)
    total = Interval.point(0)
    for f in facets:
        edges = [em._edges([ints[j] for j in s]) for s in em._pulling_simplices(f, facets, n - 1)]
        a = [em._int_minor(edges[0], j) for j in range(n)]
        k = next(j for j, x in enumerate(a) if x)
        v_k = abs(a[k]) + sum(abs(em._int_minor(e, k)) for e in edges[1:])
        square = Fraction(v_k * v_k * sum(x * x for x in a), a[k] * a[k] * scale)
        total = total + sqrt_interval(square, per_facet)
    return total


def ref_is_symmetric(vertices):
    return vertices == tuple(tuple(-x for x in v) for v in reversed(vertices))


def reference(k):
    """(vertices, (A, b), facets) of k from a fresh double description of its own data."""
    if k.kind == VPOLY:
        return ref_vertex_hull(k.data[0])
    a, b = k.hrep()
    rows = a.to_rows()
    if k.kind == HPOLY:
        found = ref_vertex_rays(rows, b)
        return tuple(x for x, _ in found), (a, b), ref_tight_facets(found, len(rows))
    vs = k.vertices()
    return vs, (a, b), ref_facet_sets(rows, b, vs)


@contextlib.contextmanager
def double_descriptions():
    """Count the double descriptions run inside the block."""
    calls = []
    real = em._cone_rays

    def counted(rows):
        calls.append(rows)
        return real(rows)

    em._cone_rays = counted
    try:
        yield calls
    finally:
        em._cone_rays = real


# ---------------------------------------------------------------------------
# bodies of every kind in dimension 1-6, and their derived bodies


@st.composite
def bodies(draw):
    """A box, cross-polytope, H- or V-polytope of dimension 1-6 with the origin interior."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from([BOX, CROSS, HPOLY, VPOLY]))
    half = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=5)
    if kind == BOX:
        return box(sorted((draw(half) for _ in range(n)), reverse=True))
    if kind == CROSS:
        return cross_polytope(n, draw(half))
    if kind == HPOLY:
        rows = [[s * int(j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
        rhs = [draw(half) for _ in rows]
        for _ in range(draw(st.integers(0, 3))):
            rows.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
            rhs.append(draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=4)))
        return hpoly(rows, rhs)
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    pts = [tuple(F(-1) for _ in range(n))] + [tuple(F(2 * int(j == i)) for j in range(n)) for i in range(n)]
    pts += draw(st.lists(st.tuples(*[coord] * n), max_size=3))
    return vpoly(draw(st.permutations(pts + pts[:draw(st.integers(0, 2))])))


def _origin_interior(k):
    return all(w > 0 for _, w in k._integer_hrep())


@st.composite
def derived_bodies(draw):
    """A body of bodies() after one to three polars, rational dilates, negations and
    translates, each taken of the body before it."""
    k = draw(bodies())
    for _ in range(draw(st.integers(1, 3))):
        k._hull()  # a box or cross-polytope finds its record only when asked
        op = draw(st.sampled_from(["polar", "dilate", "negate", "translate"]))
        if op == "polar" and _origin_interior(k):
            k = polar_body(k)
        elif op == "dilate":
            k = k.dilate(draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6)))
        elif op == "negate":
            k = k.negate()
        elif op == "translate":
            coord = st.fractions(min_value=-1, max_value=1, max_denominator=4)
            k = k.translate(draw(st.tuples(*[coord] * k.dim)))
    return k


@given(derived_bodies(), st.sampled_from([SURFACE_WIDTH, F(1, 2**100)]))
@settings(max_examples=150, deadline=None)
def test_records_match_the_fraction_references(k, width):
    with double_descriptions() as runs:
        hull = k._hull()
        verts, (a, b), facets = reference(Body(k.kind, k.data))
    assert len(runs) == (0 if k.kind in (BOX, CROSS) else 1)  # only the reference's own
    assert k.vertices() == verts
    assert hull.points == tuple(tuple(x * hull.den for x in v) for v in verts)
    assert hull.den == math.lcm(*(x.denominator for v in verts for x in v))
    assert hull.facets == tuple(facets)
    assert k.hrep() == (a, b)
    assert k._integer_hrep() == tuple(em._integer_row(a.row(j), b[j]) for j in range(a.rows))
    assert (k.volume(), k.centroid()) == ref_volume_centroid(verts, facets)
    assert k.surface_area(width) == ref_facet_contents(verts, facets, width)
    assert k.is_symmetric() == ref_is_symmetric(verts)


@given(bodies())
@settings(max_examples=80, deadline=None)
def test_the_polar_of_the_polar_carries_the_record(k):
    hull = k._hull()
    with double_descriptions() as runs:
        kk = polar_body(polar_body(k))
        carried = kk._hull()
        kk.volume(), kk.surface_area(), kk.hrep()
    assert runs == []
    assert kk.vertices() == k.vertices()
    assert (carried.den, carried.points) == (hull.den, hull.points)
    assert set(zip(carried.rows, carried.facets)) == set(zip(hull.rows, hull.facets))
    if k.kind == VPOLY:
        assert kk == k and carried == hull


class _Opaque(Fraction):
    """A coordinate whose arithmetic, ordering and hashing fail the test."""


def _refuse(*args):
    raise AssertionError("a coordinate took part in arithmetic, an ordering or a hash")


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
              "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
              "__rpow__", "__neg__", "__pos__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__",
              "__hash__"):
    setattr(_Opaque, _name, _refuse)


def _same_geometry(k, ref):
    assert k._hull() == ref._hull()
    assert k.vertices() == ref.vertices() and k.hrep() == ref.hrep()
    assert (k.volume(), k.centroid()) == (ref.volume(), ref.centroid())
    assert k.surface_area() == ref.surface_area()
    assert k.is_symmetric() == ref.is_symmetric()


def test_hulls_and_carried_records_read_only_numerators_and_denominators():
    pts = [(-1, -1, F(-1, 2)), (2, 0, 0), (0, F(5, 2), 0), (0, 0, 3), (1, 1, F(1, 3)), (0, 0, 0),
           (-1, -1, F(-1, 2))]
    opaque = [tuple(_Opaque(x) for x in p) for p in pts]
    plain = vpoly(pts)
    k = vpoly(opaque)
    _same_geometry(k, plain)
    t, shift = F(3, 2), (F(1, 3), F(-1, 2), 1)
    for derive in (polar_body, lambda b: polar_body(polar_body(b)), lambda b: b.dilate(t),
                   lambda b: b.negate(), lambda b: b.translate(shift)):
        _same_geometry(derive(k), derive(plain))
    rows = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]]
    rhs = [1, 1, 2, 1, 1, F(1, 2), 2]
    h = hpoly([[_Opaque(x) for x in r] for r in rows], [_Opaque(x) for x in rhs])
    plain_h = hpoly(rows, rhs)
    _same_geometry(h, plain_h)
    _same_geometry(polar_body(h), polar_body(plain_h))


# ---------------------------------------------------------------------------
# flat point sets, a zero-dimensional vpoly, and polars without an interior origin


FLAT = [
    [(1, 2)],
    [(1, 2), (1, 2), (1, 2)],
    [(0, 0), (1, 1), (3, 3), (F(1, 2), F(1, 2))],
    [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2), (F(1, 3), 2, F(7, 3))],
    [tuple(int(i == j) for j in range(5)) for i in range(5)] + [(F(1, 2), F(1, 2), 0, 0, 0)],
]


@pytest.mark.parametrize("pts", FLAT, ids=["point", "repeated", "collinear-2d", "coplanar-3d",
                                           "hyperplane-5d"])
def test_flat_point_sets_keep_their_errors(pts, tmp_path, capsys):
    with pytest.raises(ValueError) as err:
        vpoly(pts)
    assert type(err.value) is ValueError and str(err.value) == "hull is not full-dimensional"
    with pytest.raises(RankDeficientError, match="^hull is not full-dimensional$"):
        volume_centroid(pts)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"type": "vpoly", "vertices": [[str(x) for x in p] for p in pts]}))
    assert main(["polar", "--body", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "input"
    assert doc["error"]["message"] == "hull is not full-dimensional"


def test_a_vpoly_needs_a_positive_dimension():
    with pytest.raises(ValueError, match="^zero-dimensional ambient space$"):
        vpoly([[]])
    with pytest.raises(ValueError, match="^zero-dimensional ambient space$"):
        volume_centroid([[]])


_NOT_INTERIOR = "^polar body requires the origin in the interior$"


@pytest.mark.parametrize("where", ["facet", "vertex", "outside"])
def test_polars_need_the_origin_strictly_inside(where):
    shift = {"facet": [1, 0], "vertex": [1, 1], "outside": [3, F(1, 2)]}[where]
    square = cube(2)
    square._hull()  # so that its translate carries a record
    # the square [x0, x0 + 2] x [y0, y0 + 2]
    x0, y0 = {"facet": (0, -1), "vertex": (0, 0), "outside": (1, 1)}[where]
    h = hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [x0 + 2, -x0, y0 + 2, -y0])
    tri = {"facet": [(-1, 0), (1, 0), (0, 1)], "vertex": [(0, 0), (1, 0), (0, 1)],
           "outside": [(1, 1), (2, 1), (1, 2)]}[where]
    for k in (square.translate(shift), Body(HPOLY, square.translate(shift).data), h, vpoly(tri)):
        with pytest.raises(ValueError, match=_NOT_INTERIOR):
            polar_body(k)
    for k in (square, cube(2).translate([F(1, 2), 0]), hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                                              [1, F(1, 3), 2, 1])):
        assert polar_body(polar_body(k)).vertices() == k.vertices()
