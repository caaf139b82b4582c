import gc
import random
import sys
from fractions import Fraction as F
from itertools import product
from math import ceil, factorial, floor, isqrt
from operator import mul
from unittest import mock

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from gon.body import (
    box,
    centered_simplex,
    cross_polytope,
    cube,
    dual_centered_simplex,
    ellipsoid,
    generalized_hexagon,
    hpoly,
    polar_body,
    unit_ball,
    vpoly,
)
from gon.counting import count_points
from gon.exactmath import (
    DimensionGuardError,
    Interval,
    QMat,
    QuadVal,
    UnboundedError,
    lp_exact,
    quad_or_rat,
    rat,
    sqrt_interval,
    _integer_matrix,
    _integer_row,
)
from gon import minima
from gon.lattice import kernel_lattice, lll_reduce, make_lattice, polar_lattice, standard_lattice
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


def ref_point(lat, coeff):
    """Reference: the lattice point sum_i c_i b_i, summed over the rational basis."""
    return tuple(
        sum(F(c) * lat.basis[i, j] for i, c in enumerate(coeff))
        for j in range(lat.dim)
    )


def brute_minima(k, lat, count, span=6):
    """Oracle: scan coefficient boxes and pick minima greedily."""
    cands = []
    for coeff in product(range(-span, span + 1), repeat=lat.rank):
        if all(c == 0 for c in coeff):
            continue
        cands.append((k.gauge(ref_point(lat, coeff)), coeff))
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


def lp_walk(rows, rhs):
    """Reference walk: bound every inner coordinate by two exact LPs, sort at the end."""
    rows = [[F(x) for x in r] for r in rows]
    rhs = [F(x) for x in rhs]
    m = len(rows[0])
    out = []

    def rec(prefix, rem):
        i = len(prefix)
        if i == m:
            out.append(tuple(prefix))
            return
        if i == m - 1:
            lo = hi = None
            for r, rj in zip(rows, rem):
                a = r[i]
                if a == 0:
                    if rj < 0:
                        return
                elif a > 0:
                    hi = rj / a if hi is None else min(hi, rj / a)
                else:
                    lo = rj / a if lo is None else max(lo, rj / a)
            if lo is None or hi is None:
                raise UnboundedError("unbounded")
            out.extend(tuple(prefix) + (z,) for z in range(ceil(lo), floor(hi) + 1))
            return
        tails = [r[i:] for r in rows]
        obj = [F(1)] + [F(0)] * (m - i - 1)
        top = lp_exact(tails, rem, obj, sense="max")
        if top.status == "infeasible":
            return
        bot = lp_exact(tails, rem, obj, sense="min")
        if top.status != "optimal" or bot.status != "optimal":
            raise UnboundedError("unbounded")
        for z in range(ceil(bot.optimum), floor(top.optimum) + 1):
            rec(prefix + [z], [rj - r[i] * z for r, rj in zip(rows, rem)])

    rec([], rhs)
    return sorted(out)


def walk_or_unbounded(walk, rows, rhs):
    try:
        return walk(rows, rhs)
    except UnboundedError:
        return "unbounded"


def walk_count(rows, rhs):
    """The counting mode of the walk behind polytope_integer_points."""
    return minima._polytope_walk([minima._integer_row(r, F(b)) for r, b in zip(rows, rhs)], None)


def count_of(points):
    return points if points == "unbounded" else len(points)


@st.composite
def walk_regions(draw):
    """(rows, rhs, box): random rows over optional coordinate bounds.

    box lists the integers between each coordinate's bounds when every
    coordinate has both, else it is None. A region may be empty, flat (a
    zero-width bound or an equality) or unbounded.
    """
    m = draw(st.integers(1, 4))
    rows, rhs = [], []
    spans = []
    closed = True
    for i in range(m):
        e = [0] * m
        e[i] = 1
        lo = draw(st.fractions(min_value=-3, max_value=1, max_denominator=3))
        hi = lo + draw(st.sampled_from([0, F(1, 2), 1, 2, F(7, 3), 3]))
        has_lo, has_hi = draw(st.sampled_from([(True, True)] * 4 + [(True, False), (False, True)]))
        if has_hi:
            rows.append(e)
            rhs.append(hi)
        if has_lo:
            rows.append([-x for x in e])
            rhs.append(-lo)
        closed = closed and has_lo and has_hi
        spans.append(range(ceil(lo), floor(hi) + 1))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        b = draw(st.fractions(min_value=-2, max_value=6, max_denominator=3))
        rows.append(a)
        rhs.append(b)
        if draw(st.booleans()):  # the opposite side too: an equality a . c = b, or a strip
            rows.append([-x for x in a])
            rhs.append(-b + draw(st.sampled_from([0, F(1, 2), 1, 3])))
    return rows, rhs, spans if closed else None


@given(walk_regions())
@settings(max_examples=300)
def test_walk_matches_lp_walk_and_brute_force(region):
    rows, rhs, box = region
    got = walk_or_unbounded(polytope_integer_points, rows, rhs)
    assert got == walk_or_unbounded(lp_walk, rows, rhs)
    assert walk_or_unbounded(walk_count, rows, rhs) == count_of(got)
    if box is not None:
        brute = [c for c in product(*box)
                 if all(sum(F(a) * x for a, x in zip(r, c)) <= b for r, b in zip(rows, rhs))]
        assert got == brute


@given(walk_regions(), st.sampled_from([0, 2, 8]))
@settings(max_examples=150)
def test_walk_past_the_projection_budget_matches_lp_walk(region, budget):
    # a projection larger than the budget hands its leading coordinates to LPs
    rows, rhs, _ = region
    with mock.patch.object(minima, "_PROJECTION_MAX_ROWS", budget):
        got = walk_or_unbounded(polytope_integer_points, rows, rhs)
        count = walk_or_unbounded(walk_count, rows, rhs)
    assert got == walk_or_unbounded(lp_walk, rows, rhs)
    assert count == count_of(got)


def test_walk_of_a_large_projection_matches_lp_walk():
    # a 5-d box cut by 20 random rows: eliminating three coordinates would
    # leave more rows than the budget allows
    rnd = random.Random(1)
    rows, rhs = [], []
    for i in range(5):
        e = [0] * 5
        e[i] = 1
        rows += [e, [-x for x in e]]
        rhs += [2, 2]
    while len(rows) < 30:
        a = [rnd.randint(-4, 4) for _ in range(5)]
        if any(a):
            rows.append(a)
            rhs.append(rnd.randint(2, 10))
    ints = [minima._integer_row(r, b) for r, b in zip(rows, rhs)]
    levels = minima._prefix_projections(list(dict.fromkeys(ints)), 5)
    assert levels[0] is None and levels[2] is not None
    pts = polytope_integer_points(rows, rhs)
    assert len(pts) == 96
    assert pts == lp_walk(rows, rhs)


@pytest.mark.parametrize("rows, rhs, expected", [
    # empty over the reals, and empty of integers only
    ([[1, 0], [-1, 0], [0, 1], [0, -1]], [-1, -1, 1, 1], []),
    ([[1, 0], [-1, 0], [0, 1], [0, -1]], [F(3, 4), F(-1, 4), 1, 1], []),
    # flat: the segment x + y = 1 in [-1, 2]^2, and a plane that misses Z^3
    ([[1, 1], [-1, -1], [1, 0], [-1, 0]], [1, -1, 2, 1], [(-1, 2), (0, 1), (1, 0), (2, -1)]),
    ([[2, 2, 2], [-2, -2, -2], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],
     [1, -1, 1, 1, 1, 1], []),
    # empty, yet unbounded in every coordinate: only a combination of rows shows it
    ([[1, 1], [-1, -1]], [-1, -1], []),
    # a violated constant row on an otherwise unbounded region
    ([[0, 0], [1, 0]], [-1, 0], []),
])
def test_walk_empty_and_flat_regions(rows, rhs, expected):
    assert polytope_integer_points(rows, rhs) == expected
    assert lp_walk(rows, rhs) == expected


@pytest.mark.parametrize("rows, rhs", [
    ([[1, 0], [0, 1], [0, -1]], [2, 1, 1]),          # x unbounded below
    ([[1, 1], [-1, -1]], [1, 0]),                     # a strip along (1, -1)
    ([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0]], [1, 1, 1, 1]),  # y free
])
def test_walk_unbounded_regions_raise(rows, rhs):
    with pytest.raises(UnboundedError):
        lp_walk(rows, rhs)
    with pytest.raises(UnboundedError):
        polytope_integer_points(rows, rhs)


def test_walks_solve_no_lp(monkeypatch):
    calls = []

    def counted(real):
        def lp(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return lp

    # built before the patch: hpoly checks boundedness with LPs
    k = hpoly([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
               [1, 1, 1], [-1, -1, -1]], [2, 2, 2, 2, 2, 2, 3, 3])
    lat = make_lattice([[1, 1, 0], [0, 2, 1], [1, 0, 3]])
    patched = 0
    for name, mod in list(sys.modules.items()):
        if (name == "gon" or name.startswith("gon.")) and hasattr(mod, "lp_exact"):
            monkeypatch.setattr(mod, "lp_exact", counted(mod.lp_exact))
            patched += 1
    assert patched >= 2
    assert len(polytope_integer_points([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],
                                       [0, 0, 0, 3])) == 20
    successive_minima(k, lat)
    count_points(k, lat)
    assert calls == []


def test_quadratic_integer_points_circle():
    q = QMat.identity(2)
    pts = quadratic_integer_points(q, F(2))
    assert len(pts) == 9
    pts = quadratic_integer_points(q, F(1))
    assert pts == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert quadratic_integer_points(q, F(-1)) == []


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0]],  # not square
    [[1, 2], [3, 4]],  # not symmetric
    [[1, 0], [0, -1]],  # indefinite
    [[1, 2], [2, 1]],  # indefinite, with a positive diagonal
    [[1, 1], [1, 1]],  # semidefinite
    [[0, 0], [0, 1]],  # semidefinite, with a zero diagonal entry
    [[1, 1], [1, 0]],  # indefinite, with a zero pivot that a row exchange would pass
    [[F(1, 2), F(1, 3)], [F(1, 3), F(2, 9)]],  # semidefinite over a denominator
], ids=["nonsquare", "asymmetric", "indefinite", "indefinite-diagonal", "semidefinite",
        "zero-diagonal", "swap", "semidefinite-rational"])
@pytest.mark.parametrize("bound", [F(-1), F(0), F(3, 2)])
def test_quadratic_integer_points_rejects_forms_that_are_not_positive_definite(rows, bound):
    with pytest.raises(ValueError):
        quadratic_integer_points(QMat.from_rows(rows), bound)


def test_walks_leave_no_reference_cycle():
    # a cycle would hold a walk's whole point list until the next collection
    shifted, ball, z3 = cube(3).translate([1, 1, 1]), unit_ball(3).dilate(2), standard_lattice(3)
    gc.collect()
    gc.disable()
    try:
        polytope_integer_points([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]], [0, 0, 0, 3])
        quadratic_integer_points(QMat.identity(3), F(4))
        for interior in (False, True):  # the counting modes of both walks
            count_points(shifted, z3, interior=interior)
            count_points(ball, z3, interior=interior)
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def gram_forms(draw, m):
    """M^T M for an integer upper triangular M, diagonal 1..3 and entries -2..2 above it."""
    up = [[0] * m for _ in range(m)]
    for i in range(m):
        up[i][i] = draw(st.integers(1, 3))
        for j in range(i + 1, m):
            up[i][j] = draw(st.integers(-2, 2))
    mm = QMat.from_rows(up)
    return mm.transpose() @ mm


@st.composite
def symmetric_regions(draw):
    """(kind, data, m): a region symmetric about the origin in dimension m = 1-4.

    A "poly" region is a list of primitive integer rows (a, w), each with its
    mirror (-a, w); a zero bound makes it flat. A "quad" region is (Q, bound)
    for c^T Q c <= bound, Q drawn by gram_forms.
    """
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rows = []
        for i in range(m):
            e = [0] * m
            e[i] = 1
            rows.append((e, draw(st.integers(0, 2))))
        for _ in range(draw(st.integers(0, 3))):
            rows.append((draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m).filter(any)),
                         draw(st.integers(0, 5))))
        mirrored = [minima._coprime([s * x for x in a], w) for a, w in rows for s in (1, -1)]
        return "poly", mirrored, m
    bound = draw(st.fractions(min_value=0, max_value=10, max_denominator=3))
    return "quad", (draw(gram_forms(m)), bound), m


def walk_region(kind, data, out, half):
    if kind == "poly":
        return minima._polytope_walk(data, out, half)
    q, bound = data
    qint, qden = _integer_matrix(q.to_rows())
    return minima._quadratic_walk(qint, floor(bound * qden), out, half)


@given(symmetric_regions(), st.sampled_from([minima._PROJECTION_MAX_ROWS, 0, 2, 8]))
@settings(max_examples=200, deadline=None)
def test_half_walk_is_one_of_each_pair_and_no_origin(region, budget):
    # budgets 0, 2 and 8 hand the leading levels of a polytope walk to LPs
    kind, data, m = region
    full, half = [], []
    with mock.patch.object(minima, "_PROJECTION_MAX_ROWS", budget):
        assert walk_region(kind, data, full, False) == len(full)
        assert walk_region(kind, data, half, True) == len(half)
        count = walk_region(kind, data, None, True)
    mirrored = [tuple(-x for x in c) for c in half]
    assert sorted(half + mirrored + [(0,) * m]) == sorted(full)
    assert count == len(half) == (len(full) - 1) // 2
    # both walks fix c_0 first, so both lists are in lexicographic order
    assert full == sorted(full)
    assert half == sorted(half)
    assert all(next(filter(None, c)) > 0 for c in half)


# -- the Fraction Fincke-Pohst walk that the integer walk replaced ------------------


def ref_floor_center_plus_sqrt(c, q):
    """Largest integer z with z <= c + sqrt(q), exact."""
    if q < 0:
        raise ValueError("negative radicand")
    root = F(isqrt(q.numerator * q.denominator), q.denominator)
    z = floor(c + root)
    while ref_le_center_plus_sqrt(z + 1, c, q):
        z += 1
    while not ref_le_center_plus_sqrt(z, c, q):
        z -= 1
    return z


def ref_le_center_plus_sqrt(z, c, q):
    d = z - c
    return d <= 0 or d * d <= q


def ref_quadratic_walk(q, bound, out, half=False):
    """Number of integer c with c^T Q c <= bound (>= 0), appended to `out` unless it is None.

    Q = L D L^T over Fractions, so c^T Q c = sum_i d_i (c_i + sum_{j>i} L_ji c_j)^2,
    and the walk fixes c_{m-1} first. With `half` it walks only the points whose
    last nonzero coordinate is positive: one of each pair +-c, and not the origin.
    """
    low, d = q.ldl()
    return ref_quadratic_level([low.col(i) for i in range(q.rows)], d, [], bound, out, half)


def ref_quadratic_level(u, d, suffix, rem, out, half):
    # suffix holds coordinates i+1..m-1; rem = bound - sum of settled terms;
    # half: the suffix is all zeros, so c_i starts at 0, or at 1 when it is c_0
    m = len(d)
    i = m - 1 - len(suffix)
    center = -sum(u[i][j] * suffix[j - i - 1] for j in range(i + 1, m))
    radic = rem / d[i]
    hi = ref_floor_center_plus_sqrt(center, radic)
    lo = -ref_floor_center_plus_sqrt(-center, radic)
    if half:
        lo = max(lo, 1 if i == 0 else 0)
    if i == 0:
        if out is not None:
            out.extend((z, *suffix) for z in range(lo, hi + 1))
        return max(0, hi - lo + 1)
    return sum(ref_quadratic_level(u, d, [z] + suffix, rem - d[i] * (z - center) ** 2, out,
                                   half and not z)
               for z in range(lo, hi + 1))


def chart_form(chart):
    """An ellipsoid chart's form as a rational matrix, qint / qden."""
    return QMat(chart.m, chart.m, [F(x, chart.qden) for r in chart.qint for x in r])


def form_value(qint, c):
    return sum(ci * sum(map(mul, r, c)) for ci, r in zip(c, qint))


@st.composite
def quadratic_walk_cases(draw):
    """(qint, key, p): a positive definite integer form, a key for c^T qint c <= key, a point p.

    The form is either a Gram form G times a scale up to 10^12, with up to
    one more scale added to each diagonal entry, so its entries and minors are
    large while the body keeps G's shape; or the integer form of an ellipsoid
    chart on the reduced basis of a sheared lattice, full-rank or embedded,
    with a denominator. The key is 0, the value of a small integer point p
    (which puts p on the boundary), or that value with an offset. For a chart,
    p is its shortest basis vector, which keeps the walk small.
    """
    if draw(st.booleans()):
        m = draw(st.integers(1, 4))
        scale = draw(st.sampled_from([1, 7, 10**6, 10**12]))
        qint = [[scale * x for x in r] for r in _integer_matrix(draw(gram_forms(m)).to_rows())[0]]
        for i in range(m):
            qint[i][i] += draw(st.integers(0, scale))
        p = tuple(draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m)))
    else:
        n = draw(st.integers(2, 4))
        t = draw(st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6))
        k = ellipsoid([[t * x for x in r] for r in draw(gram_forms(n)).to_rows()])
        b, u = draw(lattices_and_unimodular(n))
        s = draw(st.sampled_from([F(1), F(1, 2), F(2, 3)]))
        lat = make_lattice([[s * x for x in r] for r in (u @ b).to_rows()[:draw(st.integers(1, n))]])
        qint = minima._Chart(k, lll_reduce(lat)).qint
        m = len(qint)
        i = min(range(m), key=lambda j: qint[j][j])
        p = tuple(int(j == i) for j in range(m))
    value = form_value(qint, p)
    key = draw(st.sampled_from([0, value, value + 1, max(0, value - 1), 2 * value]))
    return qint, key, p


@given(quadratic_walk_cases())
@settings(max_examples=200, deadline=None)
def test_quadratic_walk_matches_the_fraction_walk(case):
    qint, key, p = case
    q, bound = QMat.from_rows(qint), F(key)
    ref_full, ref_half = [], []
    assert ref_quadratic_walk(q, bound, ref_full) == len(ref_full)
    assert ref_quadratic_walk(q, bound, ref_half, True) == len(ref_half)
    full, half = [], []
    assert minima._quadratic_walk(qint, key, full) == len(full)
    assert minima._quadratic_walk(qint, key, half, True) == len(half)
    assert full == sorted(ref_full)
    assert half == sorted(c if ref_canonical_sign(c) else tuple(-x for x in c) for c in ref_half)
    assert minima._quadratic_walk(qint, key, None) == len(full)
    assert minima._quadratic_walk(qint, key, None, True) == len(half) == (len(full) - 1) // 2
    assert quadratic_integer_points(q, bound) == full
    # every point lies within, and p is walked exactly when it does, on the boundary too
    assert all(form_value(qint, c) <= key for c in full)
    assert (p in full) == (form_value(qint, p) <= key)


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


@st.composite
def symmetric_bodies(draw, n=None, kinds=("box", "cross", "hpoly")):
    """A box, cross-polytope or symmetric H-polytope (a box cut by slabs) in dimension 2-4,
    or dimension n; "ellipsoid" among `kinds` adds ellipsoids of forms drawn by gram_forms."""
    if n is None:
        n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(kinds))
    half = st.fractions(min_value=F(1, 3), max_value=3)
    if kind == "ellipsoid":
        t = draw(half)
        return ellipsoid([[t * x for x in r] for r in draw(gram_forms(n)).to_rows()])
    if kind == "box":
        return box(sorted(draw(st.lists(half, min_size=n, max_size=n)), reverse=True))
    if kind == "cross":
        return cross_polytope(n, draw(half))
    rows, rhs = [], []
    for i, s in enumerate(draw(st.lists(half, min_size=n, max_size=n))):
        e = [0] * n
        e[i] = 1
        rows += [e, [-x for x in e]]
        rhs += [s, s]
    for _ in range(draw(st.integers(1, 2))):
        u = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        b = draw(half)
        rows += [u, [-x for x in u]]
        rhs += [b, b]
    return hpoly(rows, rhs)


@st.composite
def lattices_and_unimodular(draw, n):
    """(B, U): an upper triangular basis, diagonal 1..4 and entries -4..4 above it,
    and a unimodular U, a product of integer shears."""
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = draw(st.integers(1, 4))
        for j in range(i + 1, n):
            b[i][j] = draw(st.integers(-4, 4))
    u = QMat.identity(n)
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        shear = QMat.identity(n).to_rows()
        shear[i][j] = F(draw(st.integers(-4, 4)))
        u = QMat.from_rows(shear) @ u
    return QMat.from_rows(b), u


@given(st.data(), st.fractions(min_value=F(1, 3), max_value=3))
@settings(max_examples=100)
def test_homogeneity_in_dimensions_2_to_4(data, t):
    # dilating K by t divides its minima by t
    k = data.draw(symmetric_bodies())
    b, _ = data.draw(lattices_and_unimodular(k.dim))
    lat = make_lattice(b.to_rows())
    base = successive_minima(k, lat).values
    assert successive_minima(k.dilate(t), lat).values == tuple(v / t for v in base)


@given(st.data())
@settings(max_examples=100)
def test_unimodular_invariance_in_dimensions_2_to_4(data):
    # a unimodular change of basis leaves minima and counts unchanged
    k = data.draw(symmetric_bodies())
    b, u = data.draw(lattices_and_unimodular(k.dim))
    lat1 = make_lattice(b.to_rows())
    lat2 = make_lattice((u @ b).to_rows())
    assert lat1.same_lattice(lat2)
    assert successive_minima(k, lat1).values == successive_minima(k, lat2).values
    assert count_points(k, lat1) == count_points(k, lat2)


@given(st.data())
@settings(max_examples=100)
def test_ellipsoid_chart_form_matches_the_fraction_product(data):
    # the reference is the Fraction product B Q B^T that the chart's integer form replaced,
    # on full-rank and embedded lattices with a denominator
    n = data.draw(st.integers(2, 4))
    t = data.draw(st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6))
    k = ellipsoid([[t * x for x in r] for r in data.draw(gram_forms(n)).to_rows()])
    b, u = data.draw(lattices_and_unimodular(n))
    s = data.draw(st.sampled_from([F(1), F(1, 2), F(2, 3)]))
    m = data.draw(st.integers(1, n))
    lat = make_lattice([[s * x for x in r] for r in (u @ b).to_rows()[:m]])
    chart = minima._Chart(k, lat)
    ref = (lat.basis @ k.data) @ lat.basis.transpose()
    assert chart_form(chart) == ref
    assert (chart.qint, chart.qden) == _integer_matrix(ref.to_rows())


@given(st.data(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_chart_walk_entry_matches_public_walk(data, p, q):
    # points_within(p/q) walks the integer rows (q a, p w); the public walk scales r w itself
    k = data.draw(symmetric_bodies())
    b, u = data.draw(lattices_and_unimodular(k.dim))
    lat = make_lattice((u @ b).to_rows())
    chart = minima._Chart(k, lat)
    r = F(p, q)
    got = chart.points_within(r)
    assert [c for c, _ in got] == polytope_integer_points(chart.rows, [r * w for w in chart.rhs])
    for c, g in got:
        assert lat.point(c) == ref_point(lat, c)
        assert g == k.gauge(lat.point(c)) <= r


@pytest.mark.parametrize("k", [
    box([3, F(1, 2)]),
    cross_polytope(3, F(2, 3)),
    hpoly([[2, 1], [-1, 3], [F(-1, 2), -1], [1, -4]], [4, F(9, 2), 1, 6]),
    vpoly([[0, 0, 0], [F(3, 2), 0, 0], [0, 2, 0], [0, 0, 1], [1, 1, F(1, 3)]]),
], ids=["box", "cross", "hpoly", "vpoly"])
def test_integer_hrep_is_the_primitive_hrep(k):
    a, b = k.hrep()
    rows = k._integer_hrep()
    assert rows == tuple(_integer_row(a.row(j), b[j]) for j in range(a.rows))
    assert k._integer_hrep() is rows  # computed once per body


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


# -- successive minima against the routine they replaced ---------------------------


def ref_gauge(chart, c):
    """Gauge of the integer coefficient vector c; the origin must be interior."""
    if chart.kind == "quad":
        s = sum(ci * sum(map(mul, r, c)) for ci, r in zip(c, chart.qint))
        return quad_or_rat(F(s, chart.qden))
    # max over rows of (a . c) / w, floored at 0, compared by cross-multiplication
    num, den = 0, 1
    for a, w in zip(chart.rows, chart.rhs):
        t = sum(map(mul, a, c))
        if t * den > num * w:
            num, den = t, w
    return F(num, den)


def ref_basis_gauges(chart):
    out = []
    for i in range(chart.m):
        e = [0] * chart.m
        e[i] = 1
        out.append(ref_gauge(chart, e))
    return out


def ref_points_within(chart, radius):
    """(coefficient, gauge) pairs for every lattice point with gauge <= radius."""
    if chart.kind == "quad":
        bound = radius.square if isinstance(radius, QuadVal) else rat(radius) ** 2
        pts = quadratic_integer_points(chart_form(chart), bound)
    else:
        # gauge <= p/q is q (a . c) <= p w on every row
        r = rat(radius)
        p, q = r.numerator, r.denominator
        pts = []
        minima._polytope_walk([minima._coprime([q * x for x in a], p * w)
                               for a, w in zip(chart.rows, chart.rhs)], pts)
    return [(c, ref_gauge(chart, c)) for c in pts]


def ref_canonical_sign(c):
    for x in c:
        if x:
            return x > 0
    return True


def ref_successive_minima(k, lat, count=None, allow_asymmetric=False):
    """successive_minima as it was: it walked both signs and gauged every point as a Fraction."""
    m = lat.rank
    if count is None:
        count = m
    if not 1 <= count <= m:
        raise ValueError("count must lie between 1 and the lattice rank")
    red = lll_reduce(lat)
    chart = minima._require_gauge_body(k, red, allow_asymmetric)
    gauges = sorted(ref_basis_gauges(chart))
    cap = gauges[count - 1]
    sym = k.is_symmetric()
    cands = []
    for c, g in ref_points_within(chart, cap):
        if all(x == 0 for x in c):
            continue
        if sym and not ref_canonical_sign(c):
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


@st.composite
def minima_instances(draw):
    """(k, lat, allow_asymmetric): a symmetric polytope, an asymmetric H-polytope or an
    ellipsoid in dimension 2-4, on a sheared full-rank lattice or on the kernel
    lattice of one integer row, embedded with rank n - 1."""
    kind = draw(st.sampled_from(["symmetric", "asymmetric", "ellipsoid"]))
    if kind == "symmetric":
        k = draw(symmetric_bodies())
        n = k.dim
    else:
        n = draw(st.integers(2, 4))
    side = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=6)
    if kind == "asymmetric":
        rows, rhs = [], []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            rows += [e, [-x for x in e]]
            rhs += [draw(side), draw(side)]
        for _ in range(draw(st.integers(0, 2))):
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)))
            rhs.append(draw(side))
        k = hpoly(rows, rhs)
    elif kind == "ellipsoid":
        t = draw(side)
        k = ellipsoid([[t * x for x in r] for r in draw(gram_forms(n)).to_rows()])
    if draw(st.booleans()):
        b, u = draw(lattices_and_unimodular(n))
        lat = make_lattice((u @ b).to_rows())
    else:
        row = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n).filter(any))
        lat = kernel_lattice([row])
    return k, lat, kind == "asymmetric"


def coefficient_bound(k, lat, lam):
    """Largest |c_i| over real coefficient vectors c with c B in lam K, without the walks.

    Polytopes take two exact LPs per coordinate; an ellipsoid {x^T Q x <= 1}
    bounds c_i by lam sqrt((G^-1)_ii) for the Gram form G = B Q B^T.
    """
    b = lat.basis
    if k.kind == "ellipsoid":
        ginv = ((b @ k.data) @ b.transpose()).inverse()
        lam_sq = lam.square if isinstance(lam, QuadVal) else lam * lam
        return max(isqrt(floor(lam_sq * ginv[i, i])) for i in range(lat.rank))
    a, rhs = k.hrep()
    rows = [[sum(a[j, t] * b[i, t] for t in range(lat.dim)) for i in range(lat.rank)]
            for j in range(a.rows)]
    bound = 0
    for i in range(lat.rank):
        e = [0] * lat.rank
        e[i] = 1
        for sense in ("max", "min"):
            bound = max(bound, abs(lp_exact(rows, [lam * x for x in rhs], e, sense=sense).optimum))
    return floor(bound)


@given(minima_instances())
@settings(max_examples=120, deadline=None)
def test_minima_match_the_routine_they_replaced(instance):
    k, lat, asym = instance
    for count in range(1, lat.rank + 1):
        got = successive_minima(k, lat, count, allow_asymmetric=asym)
        ref = ref_successive_minima(k, lat, count, allow_asymmetric=asym)
        assert got == ref and repr(got) == repr(ref)
    # the brute force scans a box of basis coefficients: compare where it holds every candidate
    span = coefficient_bound(k, lat, got.values[-1])
    if (2 * span + 1) ** lat.rank <= 3000:
        assert list(got.values) == brute_minima(k, lat, lat.rank, span)


# -- the integer minima core against the routine it was split from -------------------


def reference_successive_minima(
    k,
    lat,
    count=None,
    allow_asymmetric=False,
):
    """successive_minima before its walk and pick moved into minima._minima_core, verbatim."""
    m = lat.rank
    if count is None:
        count = m
    if not 1 <= count <= m:
        raise ValueError("count must lie between 1 and the lattice rank")
    red = lll_reduce(lat)
    chart = minima._require_gauge_body(k, red, allow_asymmetric)
    cap = sorted(chart.basis_keys())[count - 1]
    # an asymmetric body's walk keeps the origin, which reduces to zero and is never picked
    cands = sorted((chart.key(c), c) for c in chart.points(cap, half=k.is_symmetric()))
    picked = []  # (row, pivot): the witnesses' coefficients in echelon form
    values = []
    witnesses = []
    for key, c in cands:
        r = list(c)  # reduced to zero exactly when it depends on the picked rows
        for e, p in picked:
            if r[p]:
                r = [e[p] * x - r[p] * y for x, y in zip(r, e)]
        p = next((i for i, x in enumerate(r) if x), -1)
        if p >= 0:
            picked.append((r, p))
            values.append(chart.value(key))
            witnesses.append(red.point(c))
            if len(picked) == count:
                break
    if len(picked) < count:
        raise RuntimeError("enumeration cap failed to reach enough independent points")
    return MinimaResult(tuple(values), tuple(witnesses))


@st.composite
def core_instances(draw):
    """(k, lat): a box, cross-polytope, H-polytope, V-polytope or ellipsoid in dimension 2-4,
    symmetric or not, on a sheared full-rank lattice or an embedded kernel lattice.

    Asymmetric bodies include translates whose origin is on the boundary or outside.
    """
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["box", "cross", "hpoly", "vpoly", "ellipsoid"]))
    side = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=6)
    if kind == "box":
        k = box(sorted(draw(st.lists(side, min_size=n, max_size=n)), reverse=True))
    elif kind == "cross":
        k = cross_polytope(n, draw(side))
    elif kind == "hpoly":
        rows, rhs = [], []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            rows += [e, [-x for x in e]]
            rhs += [draw(side), draw(side)]
        for _ in range(draw(st.integers(0, 2))):
            u = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
            rows.append(u)
            rhs.append(draw(side))
        k = hpoly(rows, rhs)
    elif kind == "vpoly":
        # the points +-s_i e_i keep the origin interior; extra points may break the symmetry
        pts = []
        for i in range(n):
            for sign in (1, -1):
                pts.append([sign * draw(side) if j == i else 0 for j in range(n)])
        extra = draw(st.lists(st.lists(side.map(lambda x: x - 1), min_size=n, max_size=n),
                              max_size=3))
        if draw(st.booleans()):
            extra += [[-x for x in p] for p in extra]
        k = vpoly(pts + extra)
    else:
        t = draw(side)
        k = ellipsoid([[t * x for x in r] for r in draw(gram_forms(n)).to_rows()])
    if k.is_polytope and draw(st.integers(0, 3)) == 0:
        k = k.translate([draw(st.integers(-1, 1)) * draw(side) for _ in range(n)])
    if draw(st.booleans()):
        b, u = draw(lattices_and_unimodular(n))
        lat = make_lattice((u @ b).to_rows())
    else:
        m = draw(st.integers(1, 2 if n == 4 else 1))
        rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                             min_size=m, max_size=m).filter(lambda r: QMat.from_rows(r).rank() == m))
        lat = kernel_lattice(rows)
    return k, lat


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the error is part of the contract compared
        return type(exc), str(exc)


@given(core_instances(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_minima_core_matches_the_reference(instance, allow_asymmetric):
    k, lat = instance
    for count in [None, 0, lat.rank + 1, *range(1, lat.rank + 1)]:
        got = outcome(successive_minima, k, lat, count, allow_asymmetric=allow_asymmetric)
        ref = outcome(reference_successive_minima, k, lat, count,
                      allow_asymmetric=allow_asymmetric)
        assert got == ref and repr(got) == repr(ref)


def test_minima_core_returns_keys_and_coefficients():
    # the lattice of (2, 1) and (0, 3) has sup-norm minima 2, 2: (2, 1) and (2, -2)
    red = lll_reduce(make_lattice([[2, 1], [0, 3]]))
    chart = minima._require_gauge_body(cube(2), red, False)
    keys, coeffs = minima._minima_core(chart, 2, True)
    res = successive_minima(cube(2), red)
    assert [F(key, chart.lcm) for key in keys] == list(res.values) == [2, 2]
    assert [red.point(c) for c in coeffs] == list(res.witnesses)
    assert all(next(filter(None, c)) > 0 for c in coeffs)


@st.composite
def rank_two_charts(draw):
    """A chart of rank 1 or 2: a symmetric box, cross-polytope, H-polytope or ellipsoid on
    the kernel lattice of a 1x2, 1x3 or 2x4 integer matrix (entries up to 10^3 in size,
    mixed signs and zeros), LLL-reduced, or on a rational rank-2 lattice in dimension 2 or
    3 whose second row is sheared by up to 20 times the first, reduced or not."""
    if draw(st.booleans()):
        m, n = draw(st.sampled_from([(1, 2), (1, 3), (2, 4)]))
        entry = st.integers(-3, 3) | st.integers(-1000, 1000)
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
                    .filter(lambda r: QMat.from_rows(r).rank() == m))
        lat = lll_reduce(kernel_lattice(rows))
    else:
        n = draw(st.integers(2, 3))
        entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)
        b1, b2 = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=2, max_size=2)
                      .filter(lambda r: QMat.from_rows(r).rank() == 2))
        s = draw(st.integers(-20, 20))
        lat = make_lattice([b1, [y + s * x for x, y in zip(b1, b2)]])
        if draw(st.booleans()):
            lat = lll_reduce(lat)
    k = draw(symmetric_bodies(n, ("box", "cross", "hpoly", "ellipsoid")))
    return k, lat, minima._require_gauge_body(k, lat, False)


def unit_rows(m):
    return [tuple(int(i == j) for j in range(m)) for i in range(m)]


@given(rank_two_charts())
@settings(max_examples=200, deadline=None)
def test_reduced_keys_match_the_walk(drawn):
    # Gauss reduction on the keys finds the minima that the walk ranks, on every draw that
    # the walk can serve; a draw with a minimum far beyond the other exceeds its node budget
    k, lat, chart = drawn
    try:
        walked = minima._minima_core(chart, chart.m, True)[0]
    except DimensionGuardError:
        event("the walk's node budget refuses the draw")
        reject()
    assert minima._reduced_keys(chart.key, unit_rows(chart.m)) == walked
    if lat.is_integer():
        # the ambient route: the body's chart on Z^n keys the lattice's integer rows, and
        # its keys read the same gauges as the walk's on the lattice's own chart
        ambient = minima._require_gauge_body(k, standard_lattice(lat.dim), False)
        keys = minima._reduced_keys(ambient.key, lat._rows)
        assert list(map(ambient.value, keys)) == list(map(chart.value, walked))


def test_reduced_keys_reach_past_the_walks_guard():
    # minima 1 and 2 * 10^6: the reduction reads both off the basis, while the walk would
    # visit the candidates up to the second and runs out of its node budget
    lat = make_lattice([[1, 0], [0, 2_000_000]])
    chart = minima._require_gauge_body(cube(2), lat, False)
    assert chart.lcm == 1 and minima._reduced_keys(chart.key, unit_rows(2)) == [1, 2_000_000]
    with pytest.raises(DimensionGuardError, match="nodes"):
        successive_minima(cube(2), lat)


def full_row_key(chart, c):
    """A polytope chart's key read on every key row, as it was before the half rows."""
    return max(0, *[sum(map(mul, g, c)) for g in chart.keyrows])


@given(core_instances(), st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_half_row_key_matches_the_full_row_key(instance, coeffs):
    # symmetric charts key on one row of each +- pair, asymmetric ones on every row
    k, lat = instance
    if not k.is_polytope:
        reject()
    try:
        chart = minima._require_gauge_body(k, lat, True)
    except ValueError:
        reject()
    assert (chart.halfrows is not None) >= k.is_symmetric()
    if chart.halfrows is not None:
        assert sorted(chart.halfrows + [tuple(-x for x in g) for g in chart.halfrows]) \
            == sorted(set(chart.keyrows))
    for c in [coeffs[:lat.rank], *unit_rows(lat.rank)]:
        assert chart.key(c) == full_row_key(chart, c)


def test_half_row_key_on_parallel_facets():
    # x <= 1 and -x <= 2 are parallel facets on different sides: their key rows (2, 0) and
    # (-1, 0) are no pair, so the chart keys on every row; a redundant parallel row
    # 2x <= 3 leaves its key row (2, 0) unpaired too, while a repeated facet pairs up
    z2 = standard_lattice(2)
    square = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    charts = [minima._require_gauge_body(hpoly(square + extra, [1, 1, 1, 1] + rhs), z2, True)
              for extra, rhs in [([], []), ([[2, 0]], [3]), ([[1, 0]], [1])]]
    lop = minima._require_gauge_body(hpoly(square, [1, 2, 1, 1]), z2, True)
    assert [c.halfrows for c in charts + [lop]] == [[(1, 0), (0, 1)], None, [(1, 0), (0, 1)], None]
    for chart in charts + [lop]:
        for c in product(range(-3, 4), repeat=2):
            assert chart.key(c) == full_row_key(chart, c)
    assert [lop.key(c) for c in [(1, 0), (-1, 0), (0, -1), (-2, 1)]] == [2, 1, 2, 2]


def test_a_counting_chart_builds_no_half_rows():
    chart = minima._Chart(cube(3), standard_lattice(3))
    assert chart.count() == 27 and "halfrows" not in vars(chart)
    assert chart.key((1, -2, 0)) == 2 and chart.halfrows == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


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
