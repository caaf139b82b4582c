import gc
from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from gon.body import (
    box,
    centered_simplex,
    cross_polytope,
    cube,
    dual_centered_simplex,
    ellipsoid,
    generalized_hexagon,
    polar_body,
    unit_ball,
    vpoly,
)
from gon.exactmath import Interval, QMat, QuadVal, sqrt_interval
from gon.lattice import kernel_lattice, make_lattice, polar_lattice, standard_lattice
from gon.minima import (
    MinimaResult,
    difference_body,
    enumerate_points,
    first_minimum,
    jarnik_bracket,
    lattice_width,
    polytope_integer_points,
    quadratic_integer_points,
    successive_minima,
)


def brute_minima(k, lat, count, span=6):
    """Oracle: scan coefficient boxes and pick minima greedily."""
    cands = []
    for coeff in product(range(-span, span + 1), repeat=lat.rank):
        if all(c == 0 for c in coeff):
            continue
        pt = tuple(
            sum(F(c) * lat.basis[i, j] for i, c in enumerate(coeff))
            for j in range(lat.dim)
        )
        cands.append((k.gauge(pt), coeff))
    cands.sort(key=lambda t: (t[0], t[1]))
    picked = []
    vals = []
    for g, coeff in cands:
        trial = picked + [list(map(F, coeff))]
        if QMat.from_rows(trial).rank() == len(trial):
            picked = trial
            vals.append(g)
            if len(vals) == count:
                return vals
    raise AssertionError("oracle span too small")


# -- enumeration ----------------------------------------------------------------


def test_enumerate_cube_radius_one():
    pts = enumerate_points(cube(2), standard_lattice(2), 1)
    assert len(pts) == 9
    assert all(g <= 1 for _, g in pts)
    assert pts == sorted(pts)


def test_enumerate_skew_lattice():
    lat = make_lattice([[2, 0], [1, 3]])
    pts = enumerate_points(cube(2), lat, 2)
    assert [p for p, _ in pts] == [(-2, 0), (0, 0), (2, 0)]
    assert [g for _, g in pts] == [2, 0, 2]


def test_enumerate_kernel_section():
    lat = kernel_lattice([[1, 2, 3]])
    pts = enumerate_points(cube(3), lat, 1)
    assert [p for p, _ in pts] == [(-1, -1, 1), (0, 0, 0), (1, 1, -1)]


def test_enumerate_gauges_match_ambient_body():
    lat = make_lattice([[1, 2], [0, 3]])
    k = generalized_hexagon([F(1, 2), 1])
    for p, g in enumerate_points(k, lat, 4):
        assert k.gauge(p) == g


def test_enumerate_nonpositive_radius_is_origin():
    assert enumerate_points(cube(2), standard_lattice(2), 0) == [((0, 0), 0)]
    assert enumerate_points(cube(2), standard_lattice(2), -3) == [((0, 0), 0)]


def test_enumerate_rejects_asymmetric():
    with pytest.raises(ValueError):
        enumerate_points(centered_simplex(2), standard_lattice(2), 1)


def test_polytope_integer_points_triangle():
    pts = polytope_integer_points([[-1, 0], [0, -1], [1, 1]], [0, 0, 2])
    assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_quadratic_integer_points_circle():
    q = QMat.identity(2)
    pts = quadratic_integer_points(q, F(2))
    assert len(pts) == 9
    pts = quadratic_integer_points(q, F(1))
    assert len(pts) == 5


def test_walks_leave_no_reference_cycle():
    # a cycle would hold a walk's whole point list until the next collection
    gc.collect()
    gc.disable()
    try:
        polytope_integer_points([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]], [0, 0, 0, 3])
        quadratic_integer_points(QMat.identity(3), F(4))
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- successive minima -------------------------------------------------------------


def test_box_minima_are_reciprocal_sides():
    res = successive_minima(box([3, 2, 1]), standard_lattice(3))
    assert res.values == (F(1, 3), F(1, 2), F(1, 1))
    assert res.witnesses == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_skew_lattice_minkowski_equality():
    lat = make_lattice([[2, 0], [1, 3]])
    res = successive_minima(cube(2), lat)
    assert res.values == (2, 3)
    assert res.values[0] * res.values[1] * cube(2).volume() == 4 * lat.det()


def test_cross_polytope_lower_equality():
    n = 3
    res = successive_minima(cross_polytope(n), standard_lattice(n))
    assert res.values == (1, 1, 1)
    prod = F(1)
    for v in res.values:
        prod *= v
    assert prod * cross_polytope(n).volume() == F(2 ** n, factorial(n))


def test_witness_gauge_and_independence():
    lat = make_lattice([[3, 1], [1, 2]])
    k = generalized_hexagon([F(2, 3), 1])
    res = successive_minima(k, lat)
    assert list(res.values) == sorted(res.values)
    assert QMat.from_rows([list(w) for w in res.witnesses]).rank() == 2
    for v, w in zip(res.values, res.witnesses):
        assert k.gauge(w) == v


def test_first_minimum_ellipsoid():
    lam, w = first_minimum(ellipsoid([[1, 0], [0, 4]]), standard_lattice(2))
    assert lam == 1 and w == (1, 0)
    res = successive_minima(ellipsoid([[1, 0], [0, 4]]), standard_lattice(2))
    assert res.values == (1, 2)


def test_minima_quadval_values():
    res = successive_minima(ellipsoid([[2, 0], [0, 3]]), standard_lattice(2))
    assert [v * v for v in res.values] == [2, 3]
    assert isinstance(res.values[0], QuadVal)


def test_minima_reject_bad_count_and_asymmetric():
    with pytest.raises(ValueError):
        successive_minima(cube(2), standard_lattice(2), 3)
    with pytest.raises(ValueError):
        successive_minima(centered_simplex(2), standard_lattice(2))
    res = successive_minima(centered_simplex(2), standard_lattice(2), allow_asymmetric=True)
    assert res.values == (1, 1)


def test_dual_simplex_centered_equality_case():
    n = 3
    res = successive_minima(dual_centered_simplex(n), standard_lattice(n),
                            allow_asymmetric=True)
    prod = F(1)
    for v in res.values:
        prod *= v
    assert prod * dual_centered_simplex(n).volume() == F(n + 1, factorial(n))


def test_brute_force_oracle_agreement():
    cases = [
        (cube(2), make_lattice([[1, 0], [0, 1]])),
        (cube(2), make_lattice([[2, 1], [0, 3]])),
        (cross_polytope(2), make_lattice([[1, 2], [-1, 2]])),
        (generalized_hexagon([1, 1]), make_lattice([[2, -1], [1, 1]])),
        (box([2, 1]), make_lattice([[1, 1], [0, 2]])),
    ]
    for k, lat in cases:
        res = successive_minima(k, lat)
        assert list(res.values) == brute_minima(k, lat, lat.rank)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(-3, 3),
       st.fractions(min_value=F(1, 3), max_value=3))
@settings(max_examples=40)
def test_homogeneity(d1, d2, off, t):
    lat = make_lattice([[d1, off], [0, d2]])
    k = cube(2)
    base = successive_minima(k, lat)
    scaled = successive_minima(k.dilate(t), lat)
    assert tuple(v / t for v in base.values) == scaled.values


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40)
def test_unimodular_invariance(u01, u10, d1, d2):
    b = QMat.from_rows([[d1, 1], [0, d2]])
    u = QMat.from_rows([[1, u01], [u10, u01 * u10 + 1]])
    lat1 = make_lattice(b.to_rows())
    lat2 = make_lattice((u @ b).to_rows())
    assert lat1.same_lattice(lat2)
    k = cross_polytope(2)
    assert successive_minima(k, lat1).values == successive_minima(k, lat2).values


def test_linear_image_matches_lattice_change():
    b = QMat.from_rows([[2, 0], [1, 3]])
    # rows are basis vectors, so points arise as B^T c; invert that map
    binv = b.transpose().inverse()
    mapped = vpoly([binv.mul_vec(v) for v in cube(2).vertices()])
    res_img = successive_minima(mapped, standard_lattice(2))
    res_lat = successive_minima(cube(2), make_lattice(b.to_rows()))
    assert res_img.values == res_lat.values


@given(st.integers(1, 3), st.integers(1, 3), st.integers(-2, 2), st.integers(0, 2))
@settings(max_examples=30)
def test_minkowski_sandwich(d1, d2, off, body_pick):
    lat = make_lattice([[d1, off], [0, d2]])
    k = [cube(2), cross_polytope(2), box([2, 1])][body_pick]
    res = successive_minima(k, lat)
    prod = res.values[0] * res.values[1] * k.volume()
    assert F(4, 2) * lat.det() <= prod <= 4 * lat.det()


def test_transference_bounds():
    lats = [standard_lattice(2), make_lattice([[2, 1], [0, 3]])]
    bodies = [cube(2), cross_polytope(2), generalized_hexagon([F(1, 2), 1])]
    for lat in lats:
        for k in bodies:
            lam = successive_minima(k, lat).values
            mu = successive_minima(polar_body(k), polar_lattice(lat)).values
            n = 2
            for i in range(n):
                prod = lam[i] * mu[n - 1 - i]
                assert 1 <= prod <= factorial(n)


# -- width and covering bracket --------------------------------------------------


def test_width_cube_and_ball():
    assert lattice_width(cube(3), standard_lattice(3))[0] == 2
    assert lattice_width(unit_ball(2), standard_lattice(2))[0] == 2


def test_width_centered_simplex():
    val, u = lattice_width(centered_simplex(2), standard_lattice(2))
    assert val == 3
    d = difference_body(centered_simplex(2))
    assert d.support(u) + d.support(tuple(-x for x in u)) >= 2 * val


def test_width_scales_inversely():
    w1, _ = lattice_width(cube(2), standard_lattice(2))
    w2, _ = lattice_width(cube(2, 2), standard_lattice(2))
    assert w2 == 2 * w1


def test_jarnik_cube_and_box():
    assert jarnik_bracket(cube(3), standard_lattice(3)) == (F(1, 2), F(3, 2))
    assert jarnik_bracket(box([2, 1]), standard_lattice(2)) == (F(1, 2), F(3, 4))


def test_jarnik_uses_difference_body():
    lo, hi = jarnik_bracket(centered_simplex(2), standard_lattice(2))
    d = difference_body(centered_simplex(2))
    vals = successive_minima(d, standard_lattice(2)).values
    assert lo == vals[-1] and hi == sum(vals)


def test_jarnik_irrational_upper_is_interval():
    lo, hi = jarnik_bracket(ellipsoid([[2, 0], [0, 3]]), standard_lattice(2))
    target = (sqrt_interval(2) + sqrt_interval(3)) * F(1, 2)
    assert isinstance(hi, Interval)
    assert hi.lo <= target.hi and target.lo <= hi.hi
    assert lo * lo == F(3, 4)
