import random
import sys
import time
from fractions import Fraction as F
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from gon.body import (
    HPOLY,
    Body,
    alpha_ratio,
    box,
    centered_simplex,
    cross_polytope,
    cube,
    dual_centered_simplex,
    ellipsoid,
    generalized_hexagon,
    hpoly,
    intrinsic_volumes_box,
    polar_body,
    standard_simplex,
    symmetrize,
    unit_ball,
    vpoly,
)
from gon.exactmath import (
    DimensionGuardError,
    Interval,
    QMat,
    QuadVal,
    UnboundedError,
    lp_exact,
    pi_interval,
    sqrt_interval,
    unit_ball_volume_interval,
    vec,
    working_width,
)
from gon.verify import random_instance

rational = st.fractions(min_value=-4, max_value=4)


# -- constructors ------------------------------------------------------------


def test_box_requires_descending_positive():
    with pytest.raises(ValueError):
        box([1, 2])
    with pytest.raises(ValueError):
        box([1, 0])
    b = box([F(3, 2), 1])
    assert b.volume() == 6


def test_hpoly_rejects_unbounded_empty_flat():
    with pytest.raises(UnboundedError, match="^polyhedron is unbounded$"):
        hpoly([[1, 0]], [1])
    with pytest.raises(ValueError, match="^polyhedron is empty$"):
        hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -2, 1, 1])
    with pytest.raises(ValueError, match="^polyhedron is not full-dimensional$"):
        hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 1])
    # rank A < n: no vertex, and one LP finds the system infeasible, not unbounded
    with pytest.raises(ValueError, match="^polyhedron is empty$"):
        hpoly([[1, 0], [-1, 0]], [1, -2])
    with pytest.raises(UnboundedError, match="^polyhedron is unbounded$"):
        hpoly([[1, 0], [-1, 0]], [1, 1])
    # in no variables the LPs still decide, and their interior test calls b < 0 flat
    with pytest.raises(ValueError, match="^polyhedron is not full-dimensional$"):
        hpoly([[]], [-1])


def test_hpoly_interval():
    k = hpoly([[1], [-1]], [2, 1])
    assert k.vertices() == ((F(-1),), (F(2),))
    assert k.volume() == 3
    with pytest.raises(UnboundedError, match="^polyhedron is unbounded$"):
        hpoly([[1]], [1])
    with pytest.raises(ValueError, match="^polyhedron is empty$"):
        hpoly([[1], [-1]], [1, -2])
    with pytest.raises(ValueError, match="^polyhedron is not full-dimensional$"):
        hpoly([[1], [-1]], [1, -1])


def test_hpoly_above_dimension_six_validates_by_lp(monkeypatch):
    n = 7
    rows = [[s * int(i == j) for j in range(n)] for i in range(n) for s in (1, -1)]
    calls = _count_calls(monkeypatch, "lp_exact")
    k = hpoly(rows, [1] * (2 * n))
    assert calls and k.dim == n
    with pytest.raises(ValueError, match="^polyhedron is empty$"):
        hpoly(rows, [1] * (2 * n - 1) + [-2])
    with pytest.raises(UnboundedError, match="^polyhedron is unbounded$"):
        hpoly(rows[1:], [1] * (2 * n - 1))
    with pytest.raises(ValueError, match="^polyhedron is not full-dimensional$"):
        hpoly(rows, [1] * (2 * n - 2) + [0, 0])


def reference_hpoly(rows, b):
    """hpoly as it validated every system before it kept its hull: 2n + 1 exact LPs."""
    a = QMat.from_rows(rows)
    bv = vec(b)
    if a.rows != len(bv):
        raise ValueError("row/rhs length mismatch")
    n = a.cols
    arows = a.to_rows()
    for j in range(n):
        c = [F(0)] * n
        c[j] = F(1)
        for sense in ("max", "min"):
            res = lp_exact(arows, list(bv), c, sense=sense)
            if res.status == "unbounded":
                raise UnboundedError("polyhedron is unbounded")
            if res.status == "infeasible":
                raise ValueError("polyhedron is empty")
    # interior test: max t with Ax + t*1 <= b, t > 0 iff full-dimensional
    ext = [list(r) + [F(1)] for r in arows]
    res = lp_exact(ext, list(bv), [F(0)] * n + [F(1)], sense="max")
    if res.status != "optimal" or res.optimum <= 0:
        raise ValueError("polyhedron is not full-dimensional")
    return Body(HPOLY, (a, tuple(bv)))


@st.composite
def _hpoly_system(draw):
    """A system Ax <= b in dimension 1-4, of any verdict.

    A box that may miss a side (unbounded), cut by slabs that may be closed
    to a hyperplane (flat) or crossed (empty); in one draw of five a column
    is zeroed (rank below n: a line, or empty).  Rows are duplicated, scaled
    or loosened (redundant), and in one draw of four a zero row with b < 0,
    b = 0 or b > 0 joins.
    """
    n = draw(st.integers(1, 4))
    rows, rhs = [], []
    for i in range(n):
        for s in (1, -1):
            if draw(st.integers(0, 5)):  # one side in six is left out
                rows.append([s * int(i == j) for j in range(n)])
                rhs.append(F(draw(st.integers(1, 3))))
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        w = F(draw(st.integers(1, 6)), 2)
        rows += [u, [-x for x in u]]
        rhs += [w, draw(st.sampled_from([w, w, w + 1, -w, -w - 1]))]
    if not draw(st.integers(0, 4)):
        k = draw(st.integers(0, n - 1))
        rows = [r[:k] + [0] + r[k + 1:] for r in rows]
    for _ in range(draw(st.integers(0, 2))) if rows else ():
        i = draw(st.integers(0, len(rows) - 1))
        t = draw(st.sampled_from([1, 2]))
        rows.append([t * x for x in rows[i]])
        rhs.append(t * rhs[i] + draw(st.sampled_from([0, 1])))
    if not draw(st.integers(0, 3)):
        rows.append([0] * n)
        rhs.append(F(draw(st.integers(-1, 1))))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [rhs[i] for i in order]


def _verdict(make, rows, b):
    try:
        return make(rows, b)
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(_hpoly_system())
def test_hpoly_verdicts_match_the_lp_reference(system):
    rows, b = system
    got, want = _verdict(hpoly, rows, b), _verdict(reference_hpoly, rows, b)
    assert got == want
    if isinstance(want, Body):
        fresh = Body(HPOLY, want.data)
        assert got._hull() == fresh._hull()


def test_vpoly_filters_interior_points():
    k = vpoly([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    assert len(k.vertices()) == 4
    with pytest.raises(ValueError):
        vpoly([(0, 0), (1, 1), (2, 2)])


def test_ellipsoid_requires_spd():
    with pytest.raises(ValueError):
        ellipsoid([[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        ellipsoid([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        ellipsoid([[0, 1], [1, 0]])


def test_generalized_hexagon_validates_coefficients():
    with pytest.raises(ValueError):
        generalized_hexagon([F(1, 2), F(1, 4)])
    with pytest.raises(ValueError):
        generalized_hexagon([2])
    assert generalized_hexagon([1, 1]).volume() == 3


# -- gauge -------------------------------------------------------------------


def test_gauge_box_basis_vectors():
    b = box([3, 2, 1])
    for i, ai in enumerate([3, 2, 1]):
        e = [0, 0, 0]
        e[i] = 1
        assert b.gauge(e) == F(1, ai)


def test_gauge_cube_diagonal():
    assert cube(4).gauge([1, 1, 1, 1]) == 1


def test_gauge_hexagon_diagonal():
    assert generalized_hexagon([1, 1]).gauge([1, 1]) == 2


def test_gauge_ellipsoid_is_quadval():
    e = ellipsoid([[2, 0], [0, 3]])
    g = e.gauge([1, 1])
    assert isinstance(g, QuadVal)
    assert g.square == 5


def test_gauge_requires_interior_origin():
    k = vpoly([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        k.gauge([1, 0])


@given(st.fractions(min_value=0, max_value=8), rational, rational)
def test_gauge_positive_homogeneity(t, x, y):
    k = generalized_hexagon([F(1, 2), 1])
    assert k.gauge((t * x, t * y)) == t * k.gauge((x, y))


def test_gauge_equals_polar_support():
    bodies = [cube(2), cross_polytope(2, F(3, 2)), generalized_hexagon([F(2, 3), 1])]
    for k in bodies:
        p = polar_body(k)
        for x in [(1, 0), (2, -3), (F(1, 2), F(5, 3)), (-1, -1)]:
            assert k.gauge(x) == p.support(x)


# -- polar bodies ------------------------------------------------------------


def test_polar_cube_is_cross():
    p = polar_body(cube(3))
    assert sorted(p.vertices()) == sorted(cross_polytope(3).vertices())


def test_polar_cross_is_cube():
    p = polar_body(cross_polytope(3, F(1, 2)))
    assert p == cube(3, 2)


def test_polar_unit_ball_self_dual():
    b = unit_ball(3)
    assert polar_body(b) == b


def test_polar_double_is_identity():
    for k in [cube(2), centered_simplex(2), generalized_hexagon([F(1, 2), 1])]:
        kk = polar_body(polar_body(k))
        assert sorted(kk.vertices()) == sorted(k.vertices())


def test_polar_requires_interior_origin():
    shifted = cube(2).translate([5, 5])
    with pytest.raises(ValueError):
        polar_body(shifted)


@pytest.mark.parametrize("n", [2, 3])
def test_simplex_polar_volume_product(n):
    t = centered_simplex(n)
    product = t.volume() * polar_body(t).volume()
    assert product == F((n + 1) ** (n + 1), factorial(n) ** 2)


@st.composite
def _polytopes_around_origin(draw):
    # integer points in dimension 2-4 with the cross-polytope of scale 1 among them
    n = draw(st.integers(2, 4))
    pts = [tuple(s * int(j == i) for j in range(n)) for i in range(n) for s in (1, -1)]
    pts += draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=6))
    return pts


@settings(max_examples=40)
@given(_polytopes_around_origin())
def test_polar_of_vpoly_is_hpoly_of_its_vertices(pts):
    k = vpoly(pts)
    vs = k.vertices()
    assert polar_body(k) == hpoly([list(v) for v in vs], [1] * len(vs))


# -- symmetrization ----------------------------------------------------------


def test_symmetrize_fixed_points():
    c = cube(3)
    assert symmetrize(c) is c
    x = cross_polytope(2)
    assert symmetrize(x) is x


def test_symmetrize_standard_simplex():
    s = symmetrize(standard_simplex(2))
    assert s.volume() == F(3, 4)
    assert s.is_symmetric()
    assert s.volume() >= standard_simplex(2).volume()


def test_symmetrize_centered_simplex():
    t = centered_simplex(2)
    s = symmetrize(t)
    assert s.volume() == F(27, 4)
    assert s.volume() >= t.volume()
    again = symmetrize(s)
    assert sorted(again.vertices()) == sorted(s.vertices())


@given(st.lists(st.tuples(rational, rational), min_size=3, max_size=6))
def test_symmetrize_never_shrinks(points):
    try:
        k = vpoly(points)
    except ValueError:
        return
    s = symmetrize(k)
    assert s.is_symmetric()
    assert s.volume() >= k.volume()


# -- alpha ratio -------------------------------------------------------------


def test_alpha_symmetric_is_one():
    assert alpha_ratio(cube(3)) == 1
    assert alpha_ratio(cross_polytope(4)) == 1


def test_alpha_centered_simplex():
    assert alpha_ratio(centered_simplex(2)) == F(2, 3)


def test_alpha_lower_bound_dimension_three():
    a = alpha_ratio(centered_simplex(3))
    assert F(1, 2 ** 3) <= a <= 1


def test_alpha_rejects_uncentered_and_big():
    with pytest.raises(ValueError):
        alpha_ratio(standard_simplex(2))
    with pytest.raises(DimensionGuardError):
        alpha_ratio(cross_polytope(5))


def test_vpoly_hrep_guarded_above_dimension_six():
    with pytest.raises(DimensionGuardError):
        dual_centered_simplex(7).hrep()
    with pytest.raises(DimensionGuardError):
        dual_centered_simplex(7).surface_area()


def test_vpoly_above_dimension_six_stays_polynomial():
    # the polar of the 16-cube is the cross-polytope, whose hull has 2^16
    # facets: above dimension 6 vpoly keeps to one LP per point
    n = 16
    start = time.perf_counter()
    k = polar_body(box([1] * n))
    assert time.perf_counter() - start < 30
    assert len(k.vertices()) == 2 * n
    assert k.vertices() == cross_polytope(n).vertices()
    with pytest.raises(DimensionGuardError):
        k.hrep()


def _count_calls(monkeypatch, name):
    # patch `name` in every gon module that binds it, and list the calls made
    calls = []

    def counted(real):
        def fn(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return fn

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "gon" or mod_name.startswith("gon.")) and hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    return calls


def test_vpoly_computes_its_hull_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_cone_rays")
    k = vpoly([(-2, -1, 0), (3, 0, 1), (0, 2, -1), (0, -1, 3), (1, 1, 1), (0, 0, 0)])
    k.hrep()
    k.volume()
    k.surface_area()
    assert len(calls) == 1


def test_hpoly_reads_its_facets_off_its_hull(monkeypatch):
    # the hull that validates the system is kept, and the zero sets of its
    # vertices give the facets: no second pass over the rows, and no LP
    rays = _count_calls(monkeypatch, "_cone_rays")
    tightness = _count_calls(monkeypatch, "_facet_sets")
    lps = _count_calls(monkeypatch, "lp_exact")
    h = hpoly([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1],
               [2, 2, 2]], [2, 2, 2, 2, 2, 2, 3, 7])
    h.vertices()
    h.volume()
    h.surface_area()
    assert len(rays) == 1 and tightness == [] and lps == []


def _slab_box(c, u, w):
    # the box prod [-c_i, c_i] cut by the slab |u . x| <= w, as an H-polytope document
    n = len(c)
    rows = [[s * int(i == j) for j in range(n)] for i in range(n) for s in (1, -1)]
    rhs = [ci for ci in c for _ in (1, -1)]
    return {"type": "hpoly", "A": [[str(x) for x in r] for r in rows + [u, [-x for x in u]]],
            "b": [str(x) for x in rhs + [w, w]]}


def test_hpoly_documents_validate_without_lp(monkeypatch):
    docs = [_slab_box([2, 1], [1, -1], F(5, 2)), _slab_box([1, 3], [2, 1], F(3, 2)),
            _slab_box([1, 2, 3], [1, 1, -2], F(7, 2)), _slab_box([3, 1, 1], [0, 2, -1], 2),
            _slab_box([1, 1, 2, 3], [1, -1, 2, 0], F(9, 2)),
            _slab_box([2, 3, 1, 1], [-2, 1, 1, 1], 3)]
    calls = _count_calls(monkeypatch, "lp_exact")
    bodies = [Body.from_json(doc) for doc in docs]
    assert [k.dim for k in bodies] == [2, 2, 3, 3, 4, 4]
    assert calls == []


def test_vpoly_symmetrize_and_polar_solve_no_lp(monkeypatch):
    calls = _count_calls(monkeypatch, "lp_exact")
    h = hpoly([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]],
              [2, 2, 2, 2, 2, 2, 3])
    k = vpoly([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3), (0, 0, 0), (1, 0, 0)])
    s = symmetrize(k)
    for body in (k, s, h, box([2, 1, 1]), cross_polytope(3)):
        polar_body(body).volume()
    s.volume()
    assert calls == []


# -- intrinsic volumes of boxes ----------------------------------------------


def test_intrinsic_volumes_square():
    assert intrinsic_volumes_box([1, 1]) == [1, 4, 4]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_intrinsic_volumes_cube(n):
    vs = intrinsic_volumes_box([1] * n)
    assert vs == [F(2 ** i * comb(n, i)) for i in range(n + 1)]


def test_intrinsic_volumes_top_is_volume():
    a = [F(5, 2), F(3, 2), F(1, 3)]
    vs = intrinsic_volumes_box(a)
    assert vs[-1] == box(a).volume()
    assert vs[0] == 1


def test_intrinsic_volumes_match_steiner_sample():
    # vol(Box + rho B_2) = 4 a1 a2 + 4 (a1 + a2) rho + pi rho^2
    a = [F(2), F(1, 2)]
    rho = F(3, 7)
    direct = 4 * a[0] * a[1] + 4 * (a[0] + a[1]) * rho + pi_interval() * rho ** 2
    vs = intrinsic_volumes_box(a)
    steiner = unit_ball_volume_interval(0) * vs[2]
    steiner = steiner + unit_ball_volume_interval(1) * vs[1] * rho
    steiner = steiner + unit_ball_volume_interval(2) * vs[0] * rho ** 2
    assert steiner.lo <= direct.hi and direct.lo <= steiner.hi


# -- surface area ------------------------------------------------------------


def test_surface_square_and_cube():
    s2 = cube(2).surface_area()
    assert s2.lo == 8 and s2.hi == 8
    s3 = cube(3).surface_area()
    assert s3.lo == 24 and s3.hi == 24


def test_surface_cross_polytope_encloses_4root2():
    s = cross_polytope(2).surface_area()
    target = sqrt_interval(32)
    assert s.lo <= target.hi and target.lo <= s.hi


def test_surface_hexagon_encloses_4_plus_2root2():
    s = generalized_hexagon([1, 1]).surface_area()
    target = sqrt_interval(8) + 4
    assert s.lo <= target.hi and target.lo <= s.hi


@pytest.mark.parametrize("n", [2, 3])
def test_redundant_row_leaves_cube_scalars(n):
    # x + y <= 2 is tight only at the corner (1, 1) of the square and on an edge of the 3-cube
    a, b = cube(n).hrep()
    k = hpoly(a.to_rows() + [[1, 1] + [0] * (n - 2)], list(b) + [2])
    assert k.volume() == 2 ** n
    assert k.centroid() == (0,) * n
    assert k.surface_area() == cube(n).surface_area() == Interval.point(2 * n * 2 ** (n - 1))


def test_cross_polytope_4_as_hpoly():
    signs = [list(s) for s in product((1, -1), repeat=4)]
    k = hpoly(signs, [1] * 16)
    assert k.volume() == F(2, 3)
    # 16 regular tetrahedra of edge sqrt(2), each of volume 1/3
    assert k.surface_area().contains(F(16, 3))


@st.composite
def _bounded_hpoly(draw):
    # a simplex around the origin, cut by extra rows that keep the origin interior
    n = draw(st.integers(2, 4))
    rows = [[-int(j == i) for j in range(n)] for i in range(n)] + [[1] * n]
    rhs = [draw(st.integers(1, 3)) for _ in range(n + 1)]
    for _ in range(draw(st.integers(1, 3))):
        rows.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        rhs.append(draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=4)))
    return rows, rhs


@settings(max_examples=20)
@given(_bounded_hpoly())
def test_hpoly_and_vpoly_of_its_vertices_agree(data):
    h = hpoly(*data)
    v = vpoly(h.vertices())
    assert h.volume() == v.volume()
    assert h.centroid() == v.centroid()
    assert h.surface_area() == v.surface_area()


@st.composite
def _integer_vpoly(draw):
    # a simplex around the origin in dimension 2-5 and a few more integer points
    n = draw(st.integers(2, 5))
    pts = [(-1,) * n] + [tuple(3 * int(j == i) for j in range(n)) for i in range(n)]
    return pts + draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=3))


@settings(max_examples=20)
@given(_integer_vpoly())
def test_vpoly_and_hpoly_of_its_hrep_agree(pts):
    v = vpoly(pts)
    a, b = v.hrep()
    h = hpoly(a.to_rows(), b)
    assert h.volume() == v.volume()
    assert h.centroid() == v.centroid()
    assert h.surface_area() == v.surface_area()


@st.composite
def _unimodular(draw, n):
    # a product of elementary shears and a sign change: integer with determinant +-1
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(n)))[:2]
        t = draw(st.integers(-2, 2))
        u[i] = [a + t * b for a, b in zip(u[i], u[j])]
    u[0] = [-a for a in u[0]] if draw(st.booleans()) else u[0]
    return u


@settings(max_examples=20)
@given(st.data())
def test_unimodular_image_keeps_volume_and_moves_centroid(data):
    pts = data.draw(_integer_vpoly())
    u = data.draw(_unimodular(len(pts[0])))
    k = vpoly(pts)
    uk = vpoly([[sum(a * x for a, x in zip(row, p)) for row in u] for p in pts])
    assert uk.volume() == k.volume()
    assert uk.centroid() == tuple(sum(a * x for a, x in zip(row, k.centroid())) for row in u)


# -- volumes and scalars -----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplex_volumes(n):
    assert centered_simplex(n).volume() == F((n + 1) ** n, factorial(n))
    assert dual_centered_simplex(n).volume() == F(n + 1, factorial(n))


def test_cross_volume():
    assert cross_polytope(3).volume() == F(8, 6)
    assert cross_polytope(3, 2).volume() == F(64, 6)


def test_ellipsoid_volume_interval():
    v = ellipsoid([[1, 0], [0, 4]]).volume()
    half_pi = pi_interval() * F(1, 2)
    assert v.lo <= half_pi.hi and half_pi.lo <= v.hi
    assert v.width < F(1, 10 ** 30)


def test_ellipsoid_volume_follows_the_working_width():
    k = ellipsoid([[1, 0], [0, 2]])
    fine = k.volume()
    with working_width(F(1, 2 ** 8)):
        coarse = k.volume()
    assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi
    assert coarse.width > F(1, 2 ** 10) > F(1, 2 ** 60) > fine.width
    assert k.volume() == fine


def test_scalars_bundle():
    sc = cube(2).scalars()
    assert sc.volume == 4
    assert sc.centroid == (0, 0)
    assert sc.surface_area.contains(8)
    esc = unit_ball(2).scalars()
    assert esc.surface_area is None


# -- predicates and transforms -------------------------------------------------


def test_symmetry_is_verified_not_asserted():
    k = vpoly([(1, 0), (-1, 0), (0, 1)])
    assert not k.is_symmetric()
    assert centered_simplex(2).is_centered()
    assert not standard_simplex(2).is_centered()


def test_contains_strictness():
    c = cube(2)
    assert c.contains([1, 1])
    assert not c.contains([1, 1], strict=True)
    assert c.contains([F(1, 2), 0], strict=True)
    e = ellipsoid([[1, 0], [0, 1]])
    assert e.contains([1, 0]) and not e.contains([1, 0], strict=True)


def test_translate_dilate_negate():
    c = cube(2)
    t = c.translate([2, 0])
    assert t.volume() == 4 and t.contains([3, 1]) and not t.contains([0, 2])
    assert cross_polytope(2).dilate(3).volume() == 9 * cross_polytope(2).volume()
    tn = centered_simplex(2).negate()
    assert sorted(tn.vertices()) == sorted(
        tuple(-x for x in v) for v in centered_simplex(2).vertices()
    )
    c2 = cube(2)
    assert c2.negate() is c2


@pytest.mark.parametrize("seed", range(40))
def test_dilates_translates_and_negations_keep_the_incidences(seed):
    # a positive dilate and a translate keep the sorted order of the vertices
    # and negation reverses it, so the facets of -K are K's with the bits reversed
    rng = random.Random(seed)
    k = random_instance(rng)[0]
    facets = k._hull().facets
    t = F(rng.randint(1, 7), rng.randint(1, 5))
    v = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k.dim)]
    assert k.dilate(t)._hull().facets == facets
    assert k.translate(v)._hull().facets == facets
    flipped = {int(format(f, f"0{len(k.vertices())}b")[::-1], 2) for f in facets}
    assert set(k.negate()._hull().facets) == flipped


@pytest.mark.parametrize("seed", range(40))
def test_symmetry_matches_the_vertex_set_reference(seed):
    k = random_instance(random.Random(seed))[0]
    for body in (k, symmetrize(k)):
        vs = set(body.vertices())
        assert body.is_symmetric() == all(tuple(-x for x in v) in vs for v in vs)


def test_support_values():
    assert box([2, 1]).support([1, -3]) == 5
    assert cross_polytope(2, 2).support([3, 1]) == 6
    s = ellipsoid([[1, 0], [0, 4]]).support([0, 1])
    assert s == F(1, 2)


def test_json_roundtrip_all_kinds():
    bodies = [
        box([F(3, 2), 1]),
        cross_polytope(3, F(2, 5)),
        generalized_hexagon([F(1, 2), 1]),
        centered_simplex(2),
        ellipsoid([[2, 1], [1, 2]]),
    ]
    for k in bodies:
        assert Body.from_json(k.to_json()) == k
