import tracemalloc
from fractions import Fraction as F
from itertools import product
from math import ceil, comb, isqrt
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gon import minima
from gon.body import (
    box,
    centered_simplex,
    cross_polytope,
    cube,
    ellipsoid,
    generalized_hexagon,
    hpoly,
    vpoly,
)
from gon.counting import EhrhartPoly, count_points, count_ratio_bounds, ehrhart
from gon.exactmath import DimensionGuardError, QMat, dot
from gon.lattice import kernel_lattice, make_lattice, standard_lattice
from gon.minima import polytope_integer_points, quadratic_integer_points


def brute_count(k, lat, interior=False, span=12):
    n = lat.dim
    total = 0
    for coeff in product(range(-span, span + 1), repeat=lat.rank):
        pt = tuple(
            sum(F(c) * lat.basis[i, j] for i, c in enumerate(coeff))
            for j in range(n)
        )
        if k.contains(pt, strict=interior):
            total += 1
    return total


# -- counts -------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_cube_dilate_counts(n, k):
    assert count_points(cube(n, k), standard_lattice(n)) == (2 * k + 1) ** n


def test_cross_polytope_count():
    assert count_points(cross_polytope(2), standard_lattice(2)) == 5


def test_simplex_count_matches_brute_force():
    t = centered_simplex(2)
    z2 = standard_lattice(2)
    assert count_points(t, z2) == brute_count(t, z2) == 10
    assert count_points(t, z2, interior=True) == brute_count(t, z2, interior=True)


def test_interior_counts():
    z2 = standard_lattice(2)
    assert count_points(cube(2), z2, interior=True) == 1
    for k in (1, 2, 3):
        assert count_points(cube(2, k), z2, interior=True) == (2 * k - 1) ** 2


def test_ellipsoid_count():
    e = ellipsoid([[1, 0], [0, 4]])
    z2 = standard_lattice(2)
    assert count_points(e, z2) == 3
    assert count_points(e, z2, interior=True) == 1


def test_kernel_lattice_count():
    lat = kernel_lattice([[1, 2, 3]])
    assert count_points(cube(3), lat) == 3
    assert count_points(cube(3), lat, interior=True) == 1


def test_span_misses_body():
    lat = kernel_lattice([[1, 2, 3]])
    shifted = cube(3, F(1, 4)).translate([2, 2, 2])
    assert count_points(shifted, lat) == 0


def test_symmetric_counts_are_odd():
    z2 = standard_lattice(2)
    for k in [cube(2), cross_polytope(2, 2), generalized_hexagon([F(1, 2), 1])]:
        assert count_points(k, z2) % 2 == 1


def test_count_monotone_under_inclusion():
    z2 = standard_lattice(2)
    inner = cross_polytope(2, 2)
    outer = cube(2, 2)
    assert count_points(inner, z2) <= count_points(outer, z2)


def test_count_unimodular_invariance():
    z2 = standard_lattice(2)
    u = QMat.from_rows([[1, 1], [0, 1]])
    for k in [cube(2), cross_polytope(2, 2)]:
        img = vpoly([u.mul_vec(v) for v in k.vertices()])
        assert count_points(img, z2) == count_points(k, z2)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(-2, 2))
@settings(max_examples=25)
def test_count_matches_brute_force_on_sublattices(d1, d2, off):
    lat = make_lattice([[d1, off], [0, d2]])
    k = generalized_hexagon([F(1, 2), 1]).dilate(2)
    assert count_points(k, lat) == brute_count(k, lat)


def listed_count(k, lat, interior=False):
    """Reference: list every point of the chart's walk, then filter the interior strictly."""
    chart = minima._Chart(k, lat)
    if chart.span_empty:
        return 0
    if chart.kind == "quad":
        q = QMat(chart.m, chart.m, [F(x, chart.qden) for r in chart.qint for x in r])
        pts = quadratic_integer_points(q, F(1))
    else:
        pts = polytope_integer_points(chart.rows, chart.rhs)
    if not interior:
        return len(pts)
    if chart.span_boundary:
        return 0
    if chart.kind == "quad":
        return sum(1 for c in pts if dot(c, q.mul_vec(c)) < 1)
    return sum(1 for c in pts if all(dot(row, c) < bj for row, bj in zip(chart.rows, chart.rhs)))


def brute_ambient_count(k, member, reach, interior):
    """Points x of Z^n in [-reach, reach]^n that pass `member` and lie in K, or in int(K)."""
    return sum(1 for x in product(range(-reach, reach + 1), repeat=k.dim)
               if member(x) and k.contains(x, strict=interior))


@st.composite
def count_instances(draw):
    """(K, L, member, reach): a body in dimension 1-4 on a full-rank or an embedded lattice.

    Every lattice has an integer basis, member(x) tells whether an integer
    vector x lies in it, and K lies inside [-reach, reach]^n. Bodies are
    boxes, cross-polytopes, ellipsoids and boxes cut by random rows. On an
    embedded lattice, the kernel of a row r, a cut r . x <= b with b < 0
    misses the span and one with b = 0 touches it only on the boundary.
    """
    n = draw(st.integers(1, 4))
    halves = st.integers(1, 5).map(lambda h: F(h, 2))
    lat_kind = draw(st.sampled_from(["standard", "sheared"] + ["kernel"] * (n > 1) * 2))
    if lat_kind == "standard":
        lat, member, normal = standard_lattice(n), lambda x: True, None
    elif lat_kind == "sheared":
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = draw(st.integers(-2, 2))
        for i in range(n):
            if draw(st.booleans()):
                rows[i] = [2 * x for x in rows[i]]
        lat, normal = make_lattice(rows), None
        coords = QMat.from_rows(rows).inverse().transpose()  # x's coefficients in the basis
        member = lambda x: all(v.denominator == 1 for v in coords.mul_vec(x))
    else:
        normal = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        lat = kernel_lattice([normal])
        member = lambda x: dot(normal, x) == 0
    kind = draw(st.sampled_from(["box", "cross", "cut", "ellipsoid"]))
    if kind == "box":
        sides = sorted(draw(st.lists(halves, min_size=n, max_size=n)), reverse=True)
        return box(sides), lat, member, ceil(sides[0])
    if kind == "cross":
        scale = draw(halves)
        return cross_polytope(n, scale), lat, member, ceil(scale)
    if kind == "ellipsoid":
        # Q = M^T diag(d) M / r2 with M unit upper triangular
        shear = [[int(i == j) if j <= i else draw(st.integers(-1, 1)) for j in range(n)]
                 for i in range(n)]
        d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        r2 = draw(st.integers(1, 6))
        q = [[F(sum(shear[t][i] * d[t] * shear[t][j] for t in range(n)), r2) for j in range(n)]
             for i in range(n)]
        k = ellipsoid(q)
        # |x_i| <= sqrt((Q^-1)_ii) on the ellipsoid
        inv = QMat.from_rows(q).inverse()
        reach = max(isqrt(ceil(inv[i, i])) + 1 for i in range(n))
        return k, lat, member, reach
    side = draw(st.integers(1, 3))
    rows, rhs = [], []
    for i in range(n):
        e = [int(i == j) for j in range(n)]
        rows += [e, [-x for x in e]]
        rhs += [side, side]
    for _ in range(draw(st.integers(0, 3))):
        rows.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)))
        rhs.append(draw(st.fractions(min_value=F(1, 2), max_value=4, max_denominator=3)))
    if normal is not None and draw(st.booleans()):
        rows.append(list(normal))
        rhs.append(draw(st.sampled_from([F(-1, 3), 0, 1])))
    try:
        k = hpoly(rows, rhs)
    except ValueError:
        return box([F(side)] * n), lat, member, side
    return k, lat, member, side


@given(count_instances())
@settings(max_examples=200, deadline=None)
def test_counts_match_point_lists_and_brute_force(inst):
    k, lat, member, reach = inst
    small = (2 * reach + 1) ** k.dim <= 2500
    for interior in (False, True):
        got = count_points(k, lat, interior=interior)
        assert got == listed_count(k, lat, interior)
        if small:
            assert got == brute_ambient_count(k, member, reach, interior)


@given(count_instances(), st.sampled_from([0, 2, 8]))
@settings(max_examples=80, deadline=None)
def test_counts_past_the_projection_budget_match_point_lists(inst, budget):
    # a projection larger than the budget hands its leading coordinates to LPs
    k, lat, _, _ = inst
    want = [listed_count(k, lat, interior) for interior in (False, True)]
    with mock.patch.object(minima, "_PROJECTION_MAX_ROWS", budget):
        got = [count_points(k, lat, interior=interior) for interior in (False, True)]
    assert got == want


@pytest.mark.parametrize("b, flag, closed, interior", [
    (F(-1, 3), "span_empty", 0, 0),
    (0, "span_boundary", 3, 0),
    (1, None, 3, 1),
])
def test_counts_of_a_cut_constant_on_the_span(b, flag, closed, interior):
    # the cut (1, 2, 3) . x <= b is constant on the lattice's span, the plane x . (1, 2, 3) = 0
    rows = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [1, 2, 3]]
    k = hpoly(rows, [1, 1, 1, 1, 1, 1, b])
    lat = kernel_lattice([[1, 2, 3]])
    chart = minima._Chart(k, lat)
    assert (chart.span_empty, chart.span_boundary) == (flag == "span_empty", flag == "span_boundary")
    assert count_points(k, lat) == listed_count(k, lat) == closed
    assert count_points(k, lat, interior=True) == listed_count(k, lat, True) == interior


def test_count_builds_no_point_list():
    # the 71^3 points of this count held about 30 MB as a list
    k = box([F(5, 2)] * 3).dilate(14)
    tracemalloc.start()
    try:
        assert count_points(k, standard_lattice(3)) == 357911
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("body, nodes, count", [
    (box([2, 2, 2]), 5 + 25, 125),
    (ellipsoid([[F(1, 4), 0, 0], [0, F(1, 4), 0], [0, 0, F(1, 4)]]), 5 + 13, 33),
])
def test_walks_charge_the_levels_above_the_last_to_one_budget(monkeypatch, body, nodes, count):
    # 5 values of the first coordinate, and for each the values of the second
    monkeypatch.setattr(minima, "_WALK_MAX_NODES", nodes)
    assert count_points(body, standard_lattice(3)) == count
    monkeypatch.setattr(minima, "_WALK_MAX_NODES", nodes - 1)
    with pytest.raises(DimensionGuardError):
        count_points(body, standard_lattice(3))


# -- Ehrhart ------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ehrhart_cube(n):
    poly = ehrhart(cube(n), standard_lattice(n))
    assert poly.coefficients == tuple(F(comb(n, i) * 2 ** i) for i in range(n + 1))


def test_ehrhart_cross_polytope():
    poly = ehrhart(cross_polytope(2), standard_lattice(2))
    assert poly.coefficients == (1, 2, 2)


def test_ehrhart_centered_simplex():
    poly = ehrhart(centered_simplex(2), standard_lattice(2))
    assert poly.coefficients == (1, F(9, 2), F(9, 2))
    assert poly.evaluate(2) == count_points(centered_simplex(2).dilate(2),
                                            standard_lattice(2))


def test_ehrhart_codimension_one_ratio():
    for n in (2, 3):
        poly = ehrhart(cube(n), standard_lattice(n))
        assert poly.coefficients[n - 1] == n * 2 ** (n - 1)
        assert poly.coefficients[n - 1] / poly.coefficients[n] == F(n, 2)


def test_ehrhart_sublattice():
    lat = make_lattice([[2, 0], [0, 1]])
    k = vpoly([(2, 1), (-2, 1), (2, -1), (-2, -1)])
    poly = ehrhart(k, lat)
    assert poly.coefficients[2] == k.volume() / lat.det()
    assert poly.evaluate(1) == count_points(k, lat)


def test_ehrhart_rejects_non_lattice_polytope():
    with pytest.raises(ValueError):
        ehrhart(cube(2, F(1, 2)), standard_lattice(2))
    with pytest.raises(ValueError):
        ehrhart(ellipsoid([[1, 0], [0, 1]]), standard_lattice(2))
    with pytest.raises(ValueError):
        ehrhart(cube(3), kernel_lattice([[1, 2, 3]]))


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_ehrhart_evaluations_match_counts(a1, a2):
    sides = sorted([a1, a2], reverse=True)
    b = box(sides)
    poly = ehrhart(b, standard_lattice(2))
    for k in range(1, 5):
        assert poly.evaluate(k) == count_points(b.dilate(k), standard_lattice(2))


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=3, max_size=6))
@settings(max_examples=40)
def test_pick_formula_on_lattice_polygons(points):
    try:
        k = vpoly(points)
    except ValueError:
        return
    z2 = standard_lattice(2)
    g = count_points(k, z2)
    i = count_points(k, z2, interior=True)
    boundary = g - i
    assert k.volume() == i + F(boundary, 2) - 1


def test_ehrhart_poly_evaluate():
    p = EhrhartPoly((F(1), F(2), F(3)))
    assert p.evaluate(2) == 1 + 4 + 12
    assert p.degree == 2


# -- dilate ratios ---------------------------------------------------------------


def test_count_ratio_cube():
    rows = count_ratio_bounds(cube(2), standard_lattice(2), [1, 2, 4])
    assert rows == [(1, F(9, 4)), (2, F(25, 16)), (4, F(81, 64))]
    ratios = [r for _, r in rows]
    assert ratios == sorted(ratios, reverse=True)


def test_count_ratio_cube3():
    rows = count_ratio_bounds(cube(3), standard_lattice(3), [1])
    assert rows == [(1, F(27, 8))]


def test_count_ratio_cross():
    rows = count_ratio_bounds(cross_polytope(2), standard_lattice(2), [3])
    assert rows == [(3, F(25, 18))]


def test_count_ratio_rejects_bad_dilation():
    with pytest.raises(ValueError):
        count_ratio_bounds(cube(2), standard_lattice(2), [0])
