import math
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gon.exactmath import (
    DEFAULT_WIDTH,
    DimensionGuardError,
    Interval,
    QMat,
    QuadVal,
    RankDeficientError,
    UnboundedError,
    dot,
    e_interval,
    extreme_points,
    facet_contents,
    hnf,
    invariant_factors,
    iroot,
    lp_exact,
    pi_interval,
    quad_or_rat,
    rat,
    rat_str,
    root_interval,
    snf,
    sqrt_interval,
    unit_ball_volume_interval,
    vertex_enum,
    volume_centroid,
)

small_int = st.integers(-9, 9)


def int_matrix(rows, cols):
    return st.lists(
        st.lists(small_int, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


# ---------------------------------------------------------------------------
# rationals, roots, intervals


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat(-2) == F(-2)
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(8, 4)) == "2"
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


@given(st.integers(0, 10**12), st.integers(1, 6))
def test_iroot_floors(n, r):
    x = iroot(n, r)
    assert x**r <= n < (x + 1) ** r


def test_sqrt_interval_exact_squares():
    assert sqrt_interval(F(9, 4)).is_point()
    assert sqrt_interval(F(9, 4)).lo == F(3, 2)
    assert sqrt_interval(0) == Interval.point(0)


@given(st.fractions(min_value=0, max_value=1000))
def test_sqrt_interval_encloses(x):
    iv = sqrt_interval(x)
    assert iv.lo >= 0
    assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
    assert iv.width <= DEFAULT_WIDTH


@given(st.fractions(min_value=0, max_value=100), st.integers(2, 5))
def test_root_interval_encloses(x, r):
    iv = root_interval(x, r)
    assert iv.lo**r <= x <= iv.hi**r
    assert iv.width <= DEFAULT_WIDTH


def test_root_interval_exact_cube():
    assert root_interval(F(27, 8), 3) == Interval.point(F(3, 2))


def test_interval_arithmetic():
    a = Interval(F(1), F(2))
    b = Interval(F(-3), F(-1))
    assert (a + b) == Interval(F(-2), F(1))
    assert (a - b) == Interval(F(2), F(5))
    assert (a * b) == Interval(F(-6), F(-1))
    assert (-a) == Interval(F(-2), F(-1))
    assert a.pow_int(3) == Interval(F(1), F(8))
    assert b.surely_lt(a)
    assert not a.surely_lt(a)
    with pytest.raises(ValueError):
        Interval(F(1), F(0))


def test_pi_e_enclosures():
    import mpmath

    mpmath.mp.dps = 60
    for iv, name in ((pi_interval(), "pi"), (e_interval(), "e")):
        val = mpmath.pi if name == "pi" else mpmath.e
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        assert lo < val < hi
        assert iv.width == F(1, 10**40)


def test_unit_ball_volume():
    assert unit_ball_volume_interval(0) == Interval.point(1)
    assert unit_ball_volume_interval(1) == Interval.point(2)
    assert unit_ball_volume_interval(2) == pi_interval()
    w3 = unit_ball_volume_interval(3)
    # 4*pi/3
    ref = pi_interval() * F(4, 3)
    assert w3.lo == ref.lo and w3.hi == ref.hi
    w4 = unit_ball_volume_interval(4)
    ref = F(49348022005446793094172454999, 10**28)  # pi^2/2 truncated to 28 places
    assert ref <= w4.hi and w4.lo <= ref + F(1, 10**28)


# ---------------------------------------------------------------------------
# QuadVal


def test_quadval_compare():
    s2 = QuadVal(2)
    s8 = QuadVal(8)
    assert s2 < s8
    assert s2 * s2 == 2
    assert s2 * s8 == 4
    assert s8 / s2 == 2
    assert s2 < F(3, 2)
    assert s2 > F(7, 5)
    assert s2 > -1  # nonnegative beats any negative rational
    assert QuadVal(F(9, 4)).as_rational() == F(3, 2)
    assert QuadVal(2).as_rational() is None
    assert quad_or_rat(F(9, 4)) == F(3, 2)
    assert isinstance(quad_or_rat(2), QuadVal)


def test_quadval_hash_matches_rational():
    assert hash(QuadVal(F(9, 4))) == hash(F(3, 2))
    d = {QuadVal(2): "a"}
    assert d[QuadVal(2)] == "a"


def test_quadval_interval():
    iv = QuadVal(2).to_interval()
    assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi
    with pytest.raises(ValueError):
        QuadVal(-1)


# ---------------------------------------------------------------------------
# QMat


def test_qmat_basics():
    m = QMat.from_rows([[1, 2], [3, 4]])
    assert m.det() == -2
    assert m.rank() == 2
    inv = m.inverse()
    assert (m @ inv) == QMat.identity(2)
    assert m.transpose().col(0) == (F(1), F(2))
    assert m.mul_vec([1, 1]) == (F(3), F(7))


def test_qmat_solve():
    m = QMat.from_rows([[1, 2], [2, 4]])
    assert m.solve([1, 2]) is not None
    assert m.solve([1, 3]) is None
    x = QMat.from_rows([[1, 2], [3, 4]]).solve([5, 6])
    assert x == (F(-4), F(9, 2))


def test_qmat_singular_inverse():
    with pytest.raises(RankDeficientError):
        QMat.from_rows([[1, 2], [2, 4]]).inverse()


@given(int_matrix(3, 3), int_matrix(3, 3))
def test_det_multiplicative(a, b):
    ma, mb = QMat.from_rows(a), QMat.from_rows(b)
    assert (ma @ mb).det() == ma.det() * mb.det()


@given(int_matrix(3, 3), st.lists(small_int, min_size=3, max_size=3))
def test_solve_consistency(a, rhs):
    m = QMat.from_rows(a)
    x = m.solve(rhs)
    if x is not None:
        assert m.mul_vec(x) == tuple(F(v) for v in rhs)
    else:
        assert m.det() == 0


@given(int_matrix(3, 3))
def test_inverse_or_singular(a):
    m = QMat.from_rows(a)
    if m.det() == 0:
        with pytest.raises(RankDeficientError):
            m.inverse()
    else:
        assert m @ m.inverse() == QMat.identity(3)


@given(int_matrix(3, 3))
def test_ldl_follows_sylvester(a):
    # a + a^T is mostly indefinite, a a^T + I always positive definite
    sym = [[a[i][j] + a[j][i] for j in range(3)] for i in range(3)]
    gram = [[dot(a[i], a[j]) + (i == j) for j in range(3)] for i in range(3)]
    for rows in (sym, gram):
        s = QMat.from_rows(rows)
        minors = [QMat.from_rows([r[:k] for r in rows[:k]]).det() for k in (1, 2, 3)]
        if min(minors) <= 0:
            with pytest.raises(ValueError):
                s.ldl()
            continue
        low, d = s.ldl()
        diag = QMat(3, 3, [d[i] if i == j else 0 for i in range(3) for j in range(3)])
        assert low @ diag @ low.transpose() == s
        assert all(low[i, i] == 1 and low[i, j] == 0 for i in range(3) for j in range(i + 1, 3))


# ---------------------------------------------------------------------------
# normal forms


def brute_minors_gcd(m: QMat, k: int) -> int:
    g = 0
    for rs in combinations(range(m.rows), k):
        for cs in combinations(range(m.cols), k):
            sub = QMat.from_rows([[m[i, j] for j in cs] for i in rs])
            g = math.gcd(g, abs(int(sub.det())))
    return g


def assert_hnf_shape(h: QMat):
    lead = []
    for i in range(h.rows):
        row = h.row(i)
        nz = next((j for j, x in enumerate(row) if x != 0), None)
        lead.append(nz)
    seen_none = False
    prev = -1
    for nz in lead:
        if nz is None:
            seen_none = True
            continue
        assert not seen_none  # zero rows sink to the bottom
        assert nz > prev
        prev = nz
    for i, nz in enumerate(lead):
        if nz is None:
            continue
        p = h[i, nz]
        assert p > 0
        for i2 in range(i):
            assert 0 <= h[i2, nz] < p


def test_hnf_frozen():
    m = QMat.from_rows([[2, 4], [1, 3]])
    h, u = hnf(m)
    assert h == QMat.from_rows([[1, 1], [0, 2]])
    assert (u @ m) == h
    assert abs(u.det()) == 1


def test_hnf_zero_matrix():
    h, u = hnf(QMat.from_rows([[0, 0], [0, 0]]))
    assert h == QMat.from_rows([[0, 0], [0, 0]])
    assert abs(u.det()) == 1


@given(int_matrix(3, 4))
def test_hnf_properties(rows):
    m = QMat.from_rows(rows)
    h, u = hnf(m)
    assert (u @ m) == h
    assert abs(u.det()) == 1
    assert_hnf_shape(h)


@given(int_matrix(3, 3))
def test_hnf_canonical_for_row_lattice(rows):
    # permuting rows does not change the row lattice, hence not the HNF
    m = QMat.from_rows(rows)
    p = QMat.from_rows([rows[2], rows[0], rows[1]])
    assert hnf(m)[0] == hnf(p)[0]


def test_snf_frozen():
    m = QMat.from_rows([[2, 4], [4, 8]])
    d, u, v = snf(m)
    assert d == QMat.from_rows([[2, 0], [0, 0]])
    assert (u @ m @ v) == d


@given(int_matrix(3, 4))
def test_snf_properties(rows):
    m = QMat.from_rows(rows)
    d, u, v = snf(m)
    assert (u @ m @ v) == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [int(d[t, t]) for t in range(3)]
    for t in range(3):
        for j in range(d.cols):
            if j != t:
                assert d[t, j] == 0
    nz = [x for x in diag if x]
    assert diag[len(nz):] == [0] * (3 - len(nz))
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


@given(int_matrix(3, 3))
@settings(max_examples=40)
def test_invariant_factors_match_minor_gcds(rows):
    m = QMat.from_rows(rows)
    fac = invariant_factors(m)
    prod = 1
    for k, f in enumerate(fac, start=1):
        prod *= f
        assert prod == brute_minors_gcd(m, k)
    if len(fac) < 3:
        assert brute_minors_gcd(m, len(fac) + 1) == 0


# ---------------------------------------------------------------------------
# linear programming


def test_lp_frozen_cases():
    res = lp_exact([[1, 0], [0, 1], [1, 1]], [2, 3, 4], [1, 1])
    assert res.status == "optimal"
    assert res.optimum == 4
    assert lp_exact([[1, 0]], [1], [0, 1]).status == "unbounded"
    assert lp_exact([[1, 0], [-1, 0]], [0, -1], [1, 0]).status == "infeasible"
    res = lp_exact([[2, 3], [-1, 0], [0, -1]], [F(7, 2), 0, 0], [1, 2], "max")
    assert res.status == "optimal"
    assert res.optimum == F(7, 3)  # all budget on y


def test_lp_min_sense():
    res = lp_exact([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, 2, 2, 2], [1, -1], "min")
    assert res.status == "optimal"
    assert res.optimum == -4
    assert res.point == (F(-2), F(2))


def test_lp_negative_rhs():
    # x >= 1, x <= 3 written as -x <= -1
    res = lp_exact([[-1], [1]], [-1, 3], [-1], "max")
    assert res.optimum == -1
    assert res.point == (F(1),)


def box_with_cuts():
    cuts = st.lists(
        st.tuples(small_int, small_int, st.integers(1, 12)), min_size=0, max_size=3
    )
    return cuts


@given(box_with_cuts(), st.tuples(small_int, small_int))
@settings(max_examples=60)
def test_lp_agrees_with_vertex_scan(cuts, obj):
    A = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    b = [3, 3, 3, 3]
    for a1, a2, bb in cuts:
        A.append((a1, a2))
        b.append(bb)
    res = lp_exact(A, b, list(obj), "max")
    assert res.status == "optimal"  # box keeps it bounded, origin keeps it feasible
    verts = vertex_enum(A, b)
    assert verts
    best = max(obj[0] * v[0] + obj[1] * v[1] for v in verts)
    assert res.optimum == best
    for a, bv in zip(A, b):
        assert dot([F(x) for x in a], res.point) <= bv


@given(box_with_cuts(), st.tuples(small_int, small_int))
@settings(max_examples=40)
def test_lp_agrees_with_scipy(cuts, obj):
    from scipy.optimize import linprog

    A = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    b = [3, 3, 3, 3]
    for a1, a2, bb in cuts:
        A.append((a1, a2))
        b.append(bb)
    res = lp_exact(A, b, list(obj), "max")
    ref = linprog(
        [-obj[0], -obj[1]],
        A_ub=[list(r) for r in A],
        b_ub=list(b),
        bounds=[(None, None)] * 2,
        method="highs",
    )
    assert res.status == "optimal" and ref.status == 0
    assert abs(float(res.optimum) - (-ref.fun)) < 1e-7


# ---------------------------------------------------------------------------
# vertex enumeration and hulls


def test_vertex_enum_square():
    vs = vertex_enum([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    assert vs == [
        (F(-1), F(-1)),
        (F(-1), F(1)),
        (F(1), F(-1)),
        (F(1), F(1)),
    ]


def test_vertex_enum_simplex():
    vs = vertex_enum([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    assert set(vs) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}


def test_vertex_enum_unbounded():
    with pytest.raises(UnboundedError):
        vertex_enum([[1, 0]], [1])


def test_vertex_enum_infeasible():
    assert vertex_enum([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -2, 1, 1]) == []


def test_vertex_enum_dim_guard():
    n = 7
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    A += [[-int(i == j) for j in range(n)] for i in range(n)]
    with pytest.raises(DimensionGuardError):
        vertex_enum(A, [1] * (2 * n))


def test_extreme_points_filters_interior():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2)), (F(1, 2), 0)]
    assert extreme_points(pts) == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    ]


# ---------------------------------------------------------------------------
# volume / centroid / surface


def test_volume_cube():
    for n in (1, 2, 3, 4):
        verts = list(product([-1, 1], repeat=n))
        vol, cent = volume_centroid(verts)
        assert vol == 2**n
        assert cent == tuple([F(0)] * n)


def test_volume_cross_polytope():
    for n in (2, 3, 4):
        verts = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            verts.append(tuple(e))
            verts.append(tuple(-x for x in e))
        vol, cent = volume_centroid(verts)
        assert vol == F(2**n, math.factorial(n))
        assert cent == tuple([F(0)] * n)


def test_volume_standard_simplex():
    for n in (2, 3, 4):
        verts = [tuple([0] * n)]
        for i in range(n):
            e = [0] * n
            e[i] = 1
            verts.append(tuple(e))
        vol, cent = volume_centroid(verts)
        assert vol == F(1, math.factorial(n))
        assert cent == tuple([F(1, n + 1)] * n)


def test_volume_hexagon():
    hexv = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    vol, cent = volume_centroid(hexv)
    assert vol == 3
    assert cent == (F(0), F(0))


def test_volume_translation_invariance():
    verts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    shift = (5, -3, 7)
    vol, cent = volume_centroid(verts)
    vol2, cent2 = volume_centroid([tuple(F(a + s) for a, s in zip(v, shift)) for v in verts])
    assert vol2 == vol
    assert cent2 == tuple(c + s for c, s in zip(cent, shift))


def test_volume_rejects_flat_hull():
    with pytest.raises(RankDeficientError):
        volume_centroid([(0, 0), (1, 1), (2, 2)])


def test_volume_ignores_interior_points():
    verts = list(product([-1, 1], repeat=3)) + [(0, 0, 0)]
    vol, _ = volume_centroid(verts)
    assert vol == 8


@given(st.lists(st.tuples(small_int, small_int), min_size=3, max_size=7))
@settings(max_examples=50)
def test_volume_2d_shoelace(pts):
    # oracle: area from the angular-sorted boundary via the shoelace formula
    ex = extreme_points(pts)
    if len(ex) < 3:
        return
    from gon.exactmath import affine_rank

    if affine_rank(ex) < 2:
        return
    vol, _ = volume_centroid(ex, assume_extreme=True)
    cx = sum((p[0] for p in ex), F(0)) / len(ex)
    cy = sum((p[1] for p in ex), F(0)) / len(ex)
    import functools

    def ang_cmp(p, q):
        dp = (p[0] - cx, p[1] - cy)
        dq = (q[0] - cx, q[1] - cy)
        hp = 0 if (dp[1] > 0 or (dp[1] == 0 and dp[0] > 0)) else 1
        hq = 0 if (dq[1] > 0 or (dq[1] == 0 and dq[0] > 0)) else 1
        if hp != hq:
            return -1 if hp < hq else 1
        cr = dp[0] * dq[1] - dp[1] * dq[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    ring = sorted(ex, key=functools.cmp_to_key(ang_cmp))
    area2 = sum(
        ring[i][0] * ring[(i + 1) % len(ring)][1] - ring[(i + 1) % len(ring)][0] * ring[i][1]
        for i in range(len(ring))
    )
    assert vol == abs(area2) / 2


def test_facet_contents_squares():
    A = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    b = [1, 1, 1, 1]
    vs = vertex_enum(A, b)
    assert facet_contents(A, b, vs) == Interval.point(8)


def test_facet_contents_cube3():
    A = []
    for i in range(3):
        e = [0] * 3
        e[i] = 1
        A.append(tuple(e))
        A.append(tuple(-x for x in e))
    b = [1] * 6
    vs = vertex_enum(A, b)
    assert facet_contents(A, b, vs) == Interval.point(24)


def test_facet_contents_triangle():
    # perimeter of conv{0, e1, e2} is 2 + sqrt(2)
    A = [(-1, 0), (0, -1), (1, 1)]
    b = [0, 0, 1]
    vs = vertex_enum(A, b)
    s = facet_contents(A, b, vs)
    lo = (s.lo - 2) ** 2
    hi = (s.hi - 2) ** 2
    assert lo <= 2 <= hi


def test_facet_contents_duplicate_rows_collapse():
    A = [(1, 0), (2, 0), (-1, 0), (0, 1), (0, -1)]
    b = [1, 2, 1, 1, 1]
    vs = vertex_enum(A, b)
    assert facet_contents(A, b, vs) == Interval.point(8)
