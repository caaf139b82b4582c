from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from gon.body import (
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
    QuadVal,
    UnboundedError,
    pi_interval,
    sqrt_interval,
    unit_ball_volume_interval,
)

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
    with pytest.raises(UnboundedError):
        hpoly([[1, 0]], [1])
    with pytest.raises(ValueError):
        hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -2, 1, 1])
    with pytest.raises(ValueError):
        hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 1])


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
