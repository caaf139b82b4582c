import math
import multiprocessing
import threading
from fractions import Fraction
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gon import exactmath as em
from gon.body import box, cross_polytope, cube, dual_centered_simplex, standard_simplex, vpoly
from gon.exactmath import (
    DEFAULT_WIDTH,
    SURFACE_WIDTH,
    DimensionGuardError,
    Interval,
    QMat,
    QuadVal,
    RankDeficientError,
    UnboundedError,
    affine_rank,
    current_width,
    dot,
    e_interval,
    extreme_points,
    hnf,
    iroot,
    lp_exact,
    pi_interval,
    quad_or_rat,
    rat,
    rat_str,
    root_interval,
    sqrt_interval,
    unit_ball_volume_interval,
    vertex_enum,
    volume_centroid,
    vsub,
    working_width,
    _lp_extreme_points,
    _integer_matrix,
    _integer_row,
    _maximal,
    _vertex_hull,
    _vertex_rays,
)
from gon.lattice import minors_gcd

small_int = st.integers(-9, 9)


def vavg(points):
    """The average of rational points, for the Fraction references below."""
    n = len(points)
    acc = [Fraction(0)] * len(points[0])
    for p in points:
        for i, x in enumerate(p):
            acc[i] += x
    return tuple(a / n for a in acc)


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


def test_working_width_scopes_the_default():
    assert current_width() == DEFAULT_WIDTH
    with working_width(F(1, 2 ** 8)) as w:
        assert w == current_width() == F(1, 2 ** 8)
        assert sqrt_interval(2).width == F(1, 2 ** 8)
        assert root_interval(2, 3).width == F(1, 2 ** 8)
        assert sqrt_interval(2, F(1, 2 ** 20)).width == F(1, 2 ** 20)  # an explicit width wins
        with working_width(F(1, 2 ** 100)):
            assert QuadVal(2).to_interval().width == F(1, 2 ** 100)
        assert current_width() == F(1, 2 ** 8)
    assert sqrt_interval(2).width == DEFAULT_WIDTH
    with pytest.raises(ValueError):
        with working_width(0):
            pass
    with pytest.raises(ZeroDivisionError):
        with working_width(F(1, 2 ** 8)):
            1 / 0
    assert current_width() == DEFAULT_WIDTH


def test_working_width_is_per_thread():
    barrier = threading.Barrier(2)
    seen = {}

    def probe(name, width):
        with working_width(width):
            barrier.wait()  # both scopes are open at once
            seen[name] = sqrt_interval(2).width
            barrier.wait()

    def plain():
        barrier.wait()
        seen["plain"] = sqrt_interval(2).width
        barrier.wait()

    threads = [threading.Thread(target=probe, args=("coarse", F(1, 2 ** 8))),
               threading.Thread(target=plain)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == {"coarse": F(1, 2 ** 8), "plain": DEFAULT_WIDTH}


def _sqrt2_width():
    return sqrt_interval(2).width


def test_forked_workers_inherit_the_width():
    with working_width(F(1, 2 ** 8)):
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_sqrt2_width) == F(1, 2 ** 8)


@given(st.integers(1, 2**80), st.fractions(min_value=F(1, 2**200), max_value=2**20))
def test_root_scale_is_the_least_grid_finer_than_the_width(q, width):
    # the loop the scale was found by before: every enclosure keeps its endpoints
    k = 0
    while Fraction(1, q << k) > width:
        k += 1
    assert em._root_scale(q, width) == k


def test_root_scale_rejects_a_nonpositive_width():
    with pytest.raises(ValueError):
        sqrt_interval(2, max_width=F(0))
    with pytest.raises(ValueError):
        root_interval(2, 3, max_width=F(-1, 2))


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


def test_quadval_sums_escalate_to_interval():
    iv = QuadVal(2).to_interval()
    assert QuadVal(2) + 1 == 1 + QuadVal(2) == iv + 1
    assert QuadVal(2) - 1 == iv - 1
    assert 1 - QuadVal(2) == 1 - iv
    assert QuadVal(2) * Interval(1, 2) == Interval(1, 2) * QuadVal(2) == Interval(1, 2) * iv


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
# the Fraction Gauss elimination that QMat ran before the Bareiss core, kept as
# the reference for det, rank, solve, inverse and ldl


def ref_eliminate(a, ncols):
    """Forward Gaussian elimination of the rows ``a`` in place, to echelon form.

    Pivots are sought in the first ncols columns only; any further columns
    (right-hand sides) are carried along.  Each pivot is the first nonzero
    entry at or below the current row.  Returns the pivot column of each
    leading row and the number of row exchanges made.
    """
    m = len(a)
    pivots = []
    swaps = 0
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][c]), -1)
        if p < 0:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            swaps += 1
        prow = a[r][c:]
        inv = 1 / prow[0]
        for i in range(r + 1, m):
            row = a[i]
            if row[c]:
                f = row[c] * inv
                row[c:] = [x - f * y for x, y in zip(row[c:], prow)]
        pivots.append(c)
    return pivots, swaps


def ref_back_substitute(a, pivots, ncols):
    """Solve the echelon rows left by ref_eliminate for every column past ncols.

    Returns one row per unknown holding its value for each right-hand side;
    free variables are zero.
    """
    nrhs = len(a[0]) - ncols
    x = [[Fraction(0)] * nrhs for _ in range(ncols)]
    for i in reversed(range(len(pivots))):
        row, c = a[i], pivots[i]
        inv = 1 / row[c]
        later = pivots[i + 1 :]
        for t in range(nrhs):
            s = row[ncols + t]
            for j in later:
                s -= row[j] * x[j][t]
            x[c][t] = s * inv
    return x


def ref_det(rows):
    a = [[F(x) for x in r] for r in rows]
    pivots, swaps = ref_eliminate(a, len(a))
    if len(pivots) < len(a):
        return F(0)
    det = F(-1 if swaps % 2 else 1)
    for i in range(len(a)):
        det *= a[i][i]
    return det


def ref_rank(rows):
    return len(ref_eliminate([[F(x) for x in r] for r in rows], len(rows[0]))[0])


def ref_solve(rows, rhs):
    n = len(rows[0])
    a = [[F(x) for x in r] + [F(y)] for r, y in zip(rows, rhs)]
    pivots, _ = ref_eliminate(a, n)
    if any(a[i][-1] for i in range(len(pivots), len(a))):
        return None
    return tuple(x[0] for x in ref_back_substitute(a, pivots, n))


def ref_inverse(rows):
    n = len(rows)
    a = [[F(x) for x in r] + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    pivots, _ = ref_eliminate(a, n)
    if len(pivots) < n:
        raise RankDeficientError("matrix is singular")
    return ref_back_substitute(a, pivots, n)


def ref_ldl(rows):
    n = len(rows)
    a = [[F(x) for x in r] for r in rows]
    pivots, swaps = ref_eliminate(a, n)
    if swaps or len(pivots) < n or any(a[i][i] <= 0 for i in range(n)):
        raise ValueError("matrix is not positive definite")
    d = tuple(a[i][i] for i in range(n))
    return [[a[j][i] / d[j] for j in range(n)] for i in range(n)], d


small_rational = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4]))


@st.composite
def rational_matrices(draw, square=False):
    """Rational m x n matrices with 1 <= m, n <= 6, many of deficient rank: a row made a
    combination of two others, or a column zeroed."""
    m = draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        s, t = draw(small_rational), draw(small_rational)
        rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[k])]
    if draw(st.booleans()):
        c = draw(st.integers(0, n - 1))
        for r in rows:
            r[c] = F(0)
    return rows


@given(rational_matrices(square=True))
@settings(max_examples=300)
def test_bareiss_det_and_rank_match_the_fraction_reference(rows):
    m = QMat.from_rows(rows)
    assert m.det() == ref_det(rows)
    assert m.rank() == ref_rank(rows)


def hnf_pivots(rows):
    """Reference: the pivot columns of the integer Hermite form, the former reading of ranks."""
    a = [list(r) for r in rows]
    return em._hnf(a, len(a[0]))


@st.composite
def integer_shapes(draw):
    """Integer r x c matrices, tall, wide or square up to 8 x 8, with mixed signs and small or
    large entries; some with zero columns, some with a row made a combination of two others."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(-3, 3) | st.integers(-10**6, 10**6)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    for j in draw(st.sets(st.integers(0, c - 1), max_size=c)):
        for row in rows:
            row[j] = 0
    if r >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(r)))[:3]
        s, t = draw(small_int), draw(small_int)
        rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[k])]
    return rows


@given(integer_shapes())
@settings(max_examples=300)
def test_pivots_match_the_hermite_pivots(rows):
    # the pivot columns of an echelon form depend on the row space alone
    before = [list(r) for r in rows]
    assert em._pivots(rows) == hnf_pivots(rows)
    assert rows == before
    assert QMat.from_rows(rows).rank() == len(hnf_pivots(rows))


@given(rational_matrices(), st.data())
@settings(max_examples=300)
def test_bareiss_solve_matches_the_fraction_reference(rows, data):
    # a consistent right-hand side is the image of a drawn x; a drawn one is often inconsistent
    m = QMat.from_rows(rows)
    if data.draw(st.booleans()):
        rhs = m.mul_vec(data.draw(st.lists(small_rational, min_size=m.cols, max_size=m.cols)))
    else:
        rhs = data.draw(st.lists(small_rational, min_size=m.rows, max_size=m.rows))
    x = m.solve(rhs)
    assert x == ref_solve(rows, rhs)
    assert x is None or m.mul_vec(x) == tuple(rhs)


@given(rational_matrices(square=True))
@settings(max_examples=300)
def test_bareiss_inverse_matches_the_fraction_reference(rows):
    m = QMat.from_rows(rows)
    try:
        ref = ref_inverse(rows)
    except RankDeficientError:
        with pytest.raises(RankDeficientError):
            m.inverse()
        return
    assert m.inverse().to_rows() == ref


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices up to 6 x 6: indefinite (A + A^T), positive semidefinite
    (B B^T with B of deficient rank) or definite (B B^T + I), and some with a zero leading
    entry, which the elimination can only pass by a row exchange."""
    rows = draw(rational_matrices(square=True))
    n = len(rows)
    kind = draw(st.sampled_from(["sum", "gram", "gram+I", "swap"]))
    if kind == "sum":
        return [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    gram = [[dot(rows[i], rows[j]) + (kind == "gram+I" and i == j) for j in range(n)]
            for i in range(n)]
    if kind == "swap":
        gram[0][0] = F(0)
    return gram


@given(symmetric_matrices())
@example([[0, 1], [1, 0]])
@example([[1, 1], [1, 1]])
@example([[1, 2], [2, 1]])
@example([[2, 1], [1, F(3, 2)]])
@settings(max_examples=300)
def test_bareiss_ldl_matches_the_fraction_reference(rows):
    try:
        ref = ref_ldl(rows)
    except ValueError:
        with pytest.raises(ValueError):
            QMat.from_rows(rows).ldl()
        return
    low, d = QMat.from_rows(rows).ldl()
    assert (low.to_rows(), d) == ref


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


@given(st.integers(1, 3).flatmap(
    lambda k: st.integers(k, 5).flatmap(lambda m: int_matrix(k, m))))
@settings(max_examples=80)
def test_minors_gcd_matches_brute_force(rows):
    # minors_gcd reads the product of the HNF pivots of the transpose
    g = brute_minors_gcd(QMat.from_rows(rows), len(rows))
    if g == 0:
        with pytest.raises(RankDeficientError):
            minors_gcd(rows)
    else:
        assert minors_gcd(rows) == g


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
# references for the double description: the routines it replaced


def brute_vertex_enum(A, b, check_bounded=True):
    """Reference: bound each coordinate by two LPs, then solve every n-subset of rows."""
    A = [[F(x) for x in r] for r in A]
    b = [F(x) for x in b]
    n = len(A[0])
    if check_bounded:
        for j in range(n):
            c = [F(int(k == j)) for k in range(n)]
            for sense in ("max", "min"):
                res = lp_exact(A, b, c, sense)
                if res.status == "unbounded":
                    raise UnboundedError("polyhedron is unbounded")
                if res.status == "infeasible":
                    return []
    seen = set()
    for rows in combinations(range(len(A)), n):
        m = QMat.from_rows([A[i] for i in rows])
        x = m.solve([b[i] for i in rows]) if m.rank() == n else None
        if x is not None and all(dot(a, x) <= bi for a, bi in zip(A, b)):
            seen.add(x)
    return sorted(seen)


def lp_extreme_points(points):
    """Reference: one exact LP per point decides whether it is a convex combination of the
    others; extreme_points keeps this filter above dimension 6."""
    pts = sorted(set(tuple(F(x) for x in p) for p in points))
    return pts if len(pts) <= 1 else _lp_extreme_points(pts)


def brute_hull_hrep(verts):
    """Reference: the facets of a full-dimensional hull as the polar vertices of the centred
    points, u . (x - c) <= 1 with c the vertex average, as sorted rows (u, 1 + u . c)."""
    c = tuple(sum(x) / len(verts) for x in zip(*verts))
    shifted = [tuple(x - y for x, y in zip(v, c)) for v in verts]
    normals = brute_vertex_enum(shifted, [1] * len(shifted), check_bounded=False)
    return [list(u) for u in normals], [1 + dot(u, c) for u in normals]


@st.composite
def point_sets(draw):
    """Points in dimension 1-4 with duplicates and points on edges, facets and inside;
    drawn in a lower dimension and mapped linearly, some sets are lower-dimensional."""
    d = draw(st.integers(1, 4))
    k = draw(st.sampled_from([d] * 3 + list(range(1, d))))
    coord = st.integers(-3, 3)
    pts = [tuple(F(x) for x in p) for p in
           draw(st.lists(st.tuples(*[coord] * k), min_size=1 if k < d else d + 1, max_size=d + 5))]
    for _ in range(draw(st.integers(0, 4))):
        # one index repeats a point; two or three give a point on an edge, a facet or inside
        idx = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=3))
        pts.append(tuple(sum(x) / len(idx) for x in zip(*(pts[i] for i in idx))))
    if k < d:
        m = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                          min_size=k, max_size=k))
        pts = [tuple(sum((p[i] * m[i][j] for i in range(k)), F(0)) for j in range(d)) for p in pts]
    return draw(st.permutations(pts))


@given(point_sets())
@settings(max_examples=150)
def test_extreme_points_match_lp_reference(pts):
    assert extreme_points(pts) == lp_extreme_points(pts)


@given(point_sets())
@settings(max_examples=150)
def test_point_hull_matches_brute_force(pts):
    n = len(pts[0])
    if affine_rank(pts) < n:
        with pytest.raises(RankDeficientError):
            volume_centroid(pts)
        return
    k = vpoly(pts)
    verts = lp_extreme_points(pts)
    assert list(k.vertices()) == verts
    a, b = k.hrep()
    assert (a.to_rows(), list(b)) == brute_hull_hrep(verts)
    assert volume_centroid(pts) == (k.volume(), k.centroid())


@st.composite
def halfspace_systems(draw):
    """A x <= b in dimension 1-4: a box with some sides left out, and rows that are random,
    repeated, scaled copies, redundant, or through a vertex of the box (degenerate)."""
    n = draw(st.integers(1, 4))
    sides = [draw(st.integers(1, 3)) for _ in range(n)]
    A, b = [], []
    for i, s in enumerate(sides):
        e = [int(j == i) for j in range(n)]
        for row in (e, [-x for x in e]):
            if draw(st.integers(0, 5)):  # a side now and then left out: maybe unbounded
                A.append(row)
                b.append(s)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["random", "copy", "redundant", "vertex"]))
        if kind == "copy" and A:
            i = draw(st.integers(0, len(A) - 1))
            t = draw(st.integers(1, 3))
            A.append([t * x for x in A[i]])
            b.append(t * b[i])
            continue
        a = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        corner = [draw(st.sampled_from([-s, s])) for s in sides]
        tight = sum(x * c for x, c in zip(a, corner))
        if kind == "vertex":
            b.append(F(tight))
        elif kind == "redundant":
            b.append(F(sum(abs(x) * s for x, s in zip(a, sides)) + 1))
        else:  # may cut the box to nothing
            b.append(draw(st.fractions(min_value=-6, max_value=6, max_denominator=3)))
        A.append(a)
    if not A:
        A, b = [[1] * n], [1]
    return A, b


def _enum_or_unbounded(enum, A, b, check_bounded):
    try:
        return enum(A, b, check_bounded)
    except UnboundedError:
        return "unbounded"


@given(halfspace_systems(), st.booleans())
@settings(max_examples=200)
def test_vertex_enum_matches_brute_force(system, check_bounded):
    A, b = system
    assert _enum_or_unbounded(vertex_enum, A, b, check_bounded) == _enum_or_unbounded(
        brute_vertex_enum, A, b, check_bounded
    )


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


def test_volume_rejects_a_flat_hull_above_the_vertex_guard():
    # a 6-cube in a hyperplane of R^7: the starting rows of the double description are
    # already dependent, so no double description runs
    pts = [(*p, sum(p)) for p in product([0, 1], repeat=6)]
    with pytest.raises(RankDeficientError, match="^hull is not full-dimensional$"):
        volume_centroid(pts)


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
    vol, _ = volume_centroid(ex)
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


def facet_contents(A, b, vertices):
    """The boundary content of {x : A x <= b}, whose vertices are given, from its hull record."""
    ints, den = _integer_matrix([tuple(F(x) for x in v) for v in vertices])
    rows = [_integer_row(tuple(F(x) for x in r), F(bi)) for r, bi in zip(A, b)]
    return em._facet_contents(em._facet_sets(rows, den, ints))


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


# ---------------------------------------------------------------------------
# facets as vertex bitmasks, against the vertex sets they replaced
#
# The routines below are the earlier set-based hull and pulling code, kept
# verbatim as the reference: a facet is a frozenset of vertex tuples.


def _facet_vertex_sets(vertices, facets):
    """The bitmask facets over vertices as the frozensets of vertices they stand for."""
    return [frozenset(v for j, v in enumerate(vertices) if f >> j & 1) for f in facets]


def set_maximal(sets):
    # the inclusion-maximal members, in first-seen order
    sets = list(dict.fromkeys(sets))
    return [s for s in sets if not any(s < t for t in sets)]


def set_tight_facets(verts, m: int) -> list:
    """Vertex sets of the facets, from rational vertices (x, z) of m rows, z the rows tight on x."""
    return set_maximal(frozenset(x for x, z in verts if z >> i & 1) for i in range(m))


def set_facet_sets(A, b, vertices):
    """Vertex sets of the facets of the polytope {x : A x <= b} with the given vertices."""
    zs = [sum(1 << i for i, (row, bi) in enumerate(zip(A, b)) if dot(row, v) == bi) for v in vertices]
    return set_tight_facets(list(zip(vertices, zs)), len(A))


def set_vertex_hull(points) -> tuple:
    """Hull of points that affinely span their space: (vertices, (A, b), facets as vertex sets)."""
    pts = sorted(set(points))
    rays = em._cone_rays([(1, *(-x for x in p)) for p in pts])
    extreme = 0
    for i in range(len(pts)):
        common = -1  # every bit: an interior point lies on no facet
        for _, z in rays:
            if z >> i & 1:
                common &= z
        if common == 1 << i:
            extreme |= common
    verts = tuple(p for i, p in enumerate(pts) if extreme >> i & 1)
    c = vavg(verts)
    rows = []
    for (beta, *u), z in rays:
        s = beta - dot(u, c)  # positive: the vertex average is interior
        z &= extreme
        rows.append((tuple(x / s for x in u), frozenset(p for i, p in enumerate(pts) if z >> i & 1)))
    rows.sort()  # the normals are distinct
    a = [u for u, _ in rows]
    return verts, (QMat.from_rows(a), tuple(1 + dot(u, c) for u in a)), [f for _, f in rows]


def set_pulling_simplices(face, facets, dim):
    """Simplices (tuples of dim+1 vertices) triangulating a dim-dimensional face, pulled from
    its least vertex; face and facets are vertex sets."""
    if len(face) == dim + 1:
        return [tuple(face)]
    v = min(face)
    subs = set_maximal(g for g in (face & f for f in facets) if g != face)
    return [(v,) + s for g in subs if v not in g for s in set_pulling_simplices(g, facets, dim - 1)]


@st.composite
def hull_polytopes(draw):
    """(kind, body, points): a box, cross-polytope, H- or V-polytope of dimension 1-6, with the
    points a V-polytope was built from."""
    from gon.body import hpoly

    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["box", "cross", "hpoly", "vpoly"]))
    half = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=5)
    if kind == "box":
        return kind, box(sorted((draw(half) for _ in range(n)), reverse=True)), None
    if kind == "cross":
        return kind, cross_polytope(n, draw(half)), None
    if kind == "hpoly":
        rows = [[s * int(j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
        rhs = [draw(half) for _ in rows]
        for _ in range(draw(st.integers(0, 3))):
            rows.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
            rhs.append(draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=4)))
        return kind, hpoly(rows, rhs), None
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    pts = [tuple(F(-1) for _ in range(n))] + [tuple(F(2 * int(j == i)) for j in range(n)) for i in range(n)]
    pts += draw(st.lists(st.tuples(*[coord] * n), max_size=4))
    pts = draw(st.permutations(pts + pts[:draw(st.integers(0, 2))]))
    return kind, vpoly(pts), pts


@given(hull_polytopes())
@settings(max_examples=120, deadline=None)
def test_bitmask_facets_match_the_vertex_set_references(poly):
    kind, k, pts = poly
    hull = k._hull()
    verts, facets = k.vertices(), hull.facets
    sets = _facet_vertex_sets(verts, facets)
    a, b = k.hrep()
    rows = a.to_rows()
    irows = k._integer_hrep()
    found = em._facet_sets(irows, hull.den, hull.points)
    assert _facet_vertex_sets(verts, found.facets) == set_facet_sets(rows, b, verts)
    if kind == "hpoly":
        den, found, _ = em._vertex_rays(irows)
        rational = [(tuple(F(x, den) for x in p), z) for p, z in found]
        assert sets == set_tight_facets(rational, len(rows))
        assert em._tight_hull(irows, den, found) == hull
    elif kind == "vpoly":
        ref_verts, ref_h, ref_facets = set_vertex_hull(pts)
        kept, new = em._vertex_hull(*_integer_matrix(pts))
        assert tuple(pts[i] for i in kept) == ref_verts == verts and new == hull
        assert em._centered_hrep(new) == ref_h
        assert _facet_vertex_sets(verts, new.facets) == ref_facets == sets
    else:
        assert found == hull
        assert sets == set_facet_sets(rows, b, verts)
    n = k.dim
    faces = [((1 << len(verts)) - 1, frozenset(verts), n)]
    faces += [(f, g, n - 1) for f, g in zip(facets, sets)] if n > 1 else []
    for mask, face, dim in faces:
        new = em._pulling_simplices(mask, facets, dim)
        ref = set_pulling_simplices(face, sets, dim)
        assert [frozenset(verts[j] for j in s) for s in new] == [frozenset(s) for s in ref]


class _NoHash(Fraction):
    """A coordinate that fails the test when it is hashed."""

    def __hash__(self):
        raise AssertionError("a vertex coordinate was hashed")


def test_hull_and_triangulation_hash_no_coordinate():
    rows = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]]
    rhs = [1, 1, 2, 1, 1, F(1, 2), 2]
    irows = [_integer_row(r, w) for r, w in zip(rows, rhs)]
    den, found, _ = em._vertex_rays(irows)
    plain = tuple(tuple(F(x, den) for x in p) for p, _ in found)
    vs = tuple(tuple(_NoHash(c) for c in x) for x in plain)
    hull = em._tight_hull(irows, den, found)
    ints, d = _integer_matrix(vs)
    assert d == den and [tuple(p) for p in ints] == list(hull.points)
    assert em._facet_sets(irows, den, hull.points) == hull
    kept, vhull = em._vertex_hull(ints, d)
    assert kept == list(range(len(vs))) and vhull == em._vertex_hull(*_integer_matrix(plain))[1]
    assert len(em._pulling_simplices((1 << len(vs)) - 1, hull.facets, 3)) == 7
    k = vpoly(vs)
    assert k.vertices() == vs and k._hull() == vhull
    assert not k.is_symmetric() and k.volume() == em._volume_centroid(hull)[0]
    assert k.surface_area() == em._facet_contents(hull)


# ---------------------------------------------------------------------------
# pulling triangulation from a vertex, against the centroid coning it replaced
#
# The routines below are the earlier triangulation, kept verbatim as the
# reference: it cones every face from its vertex centroid, down to edges, and
# encloses each simplex's content by the square root of its Gram determinant.


def _pulling_simplices(face, facets, dim):
    """Simplices (tuples of dim+1 points) covering a dim-dimensional face.

    face is the face's vertex set and facets the polytope's facet vertex sets.
    The face is coned from its vertex centroid over its own facets, which are
    the inclusion-maximal proper intersections of face with the facets; a
    1-dimensional face is its two endpoints.
    """
    if dim == 1:
        return [tuple(face)]
    c = vavg(list(face))
    subs = _maximal(g for g in (face & f for f in facets) if g != face)
    return [(c,) + s for g in subs for s in _pulling_simplices(g, facets, dim - 1)]


def _simplex_volume(simplex):
    base = simplex[0]
    n = len(base)
    m = QMat.from_rows([vsub(p, base) for p in simplex[1:]])
    return abs(m.det()) / math.factorial(n)


def _volume_centroid(vertices, facets):
    # volume and centroid of a full-dimensional polytope from its vertex-facet incidences
    n = len(vertices[0])
    vol = Fraction(0)
    cent = [Fraction(0)] * n
    for s in _pulling_simplices(frozenset(vertices), facets, n):
        v = _simplex_volume(s)
        vol += v
        sc = vavg(s)
        for i in range(n):
            cent[i] += v * sc[i]
    return vol, tuple(x / vol for x in cent)


def _facet_contents(vertices, facets, max_width: Fraction | None = None) -> Interval:
    # facet_contents from the vertex-facet incidences
    if max_width is None:
        max_width = SURFACE_WIDTH
    n = len(vertices[0])
    if n == 1:
        return Interval.point(2)  # two endpoint facets, each a point of content 1
    simplices = [s for f in facets for s in _pulling_simplices(f, facets, n - 1)]
    if not simplices:
        raise RankDeficientError("no facets found")
    per_term = max_width / len(simplices)
    total = Interval.point(0)
    for s in simplices:
        base = s[0]
        edges = [vsub(p, base) for p in s[1:]]
        gram = QMat.from_rows([[dot(e1, e2) for e2 in edges] for e1 in edges])
        g = gram.det()
        total = total + sqrt_interval(g, per_term) * Fraction(1, math.factorial(n - 1))
    return total


@st.composite
def _random_polytopes(draw):
    """(vertices, facets) of a random V- or H-polytope of dimension 2-5."""
    n = draw(st.integers(2, 5))
    coord = st.integers(-3, 3)
    if draw(st.booleans()):
        # a simplex around the origin and a few more integer points
        pts = [tuple(-1 for _ in range(n))] + [tuple(3 * int(j == i) for j in range(n)) for i in range(n)]
        pts += draw(st.lists(st.tuples(*[coord] * n), max_size=3))
        return _vertex_hull(*_integer_matrix(pts))[1]
    # a box cut by rows that keep the origin interior
    rows = [[s * int(j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
    rhs = [draw(st.integers(1, 3)) for _ in rows]
    for _ in range(draw(st.integers(0, 2))):
        rows.append(draw(st.lists(coord, min_size=n, max_size=n)))
        rhs.append(draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=4)))
    irows = [_integer_row(r, w) for r, w in zip(rows, rhs)]
    return em._tight_hull(irows, *_vertex_rays(irows)[:2])


@settings(max_examples=40)
@given(_random_polytopes())
def test_vertex_pulling_keeps_volume_and_centroid(hull):
    verts = em._fractions(hull)
    assert em._volume_centroid(hull) == _volume_centroid(verts, _facet_vertex_sets(verts, hull.facets))


@settings(max_examples=40)
@given(_random_polytopes(), st.sampled_from([SURFACE_WIDTH, F(1, 2**8), F(1, 2**100)]))
def test_facet_contents_overlap_the_gram_enclosures(hull, width):
    verts = em._fractions(hull)
    new = em._facet_contents(hull, width)
    old = _facet_contents(verts, _facet_vertex_sets(verts, hull.facets), width)
    assert new.lo <= old.hi and old.lo <= new.hi
    assert new.width <= width


def _encloses(iv, r, q, m):
    # whether iv contains r + q sqrt(m), for rationals q >= 0 and m >= 0
    lo, hi = iv.lo - r, iv.hi - r
    return (lo <= 0 or lo * lo <= q * q * m) and hi >= 0 and hi * hi >= q * q * m


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_box_closed_forms(n):
    a = [F(n - i, 2) for i in range(n)]
    k = box(a)
    sides = [2 * x for x in a]
    assert em._volume_centroid(k._hull()) == (math.prod(sides), (0,) * n)
    faces = sum(math.prod(sides[:i] + sides[i + 1 :]) for i in range(n))
    assert em._facet_contents(k._hull()) == Interval.point(2 * faces)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_standard_simplex_closed_forms(n):
    # n facets on the coordinate hyperplanes of content 1/(n-1)!, and one of content sqrt(n)/(n-1)!
    k = standard_simplex(n)
    vol, cen = em._volume_centroid(k._hull())
    assert vol == F(1, math.factorial(n)) and cen == (F(1, n + 1),) * n
    s = em._facet_contents(k._hull())
    assert _encloses(s, F(n, math.factorial(n - 1)), F(1, math.factorial(n - 1)), n)
    assert s.width <= SURFACE_WIDTH


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cross_polytope_closed_forms(n):
    # 2^n facets, each a regular simplex on s e_i of content s^(n-1) sqrt(n)/(n-1)!
    s = F(3, 2)
    k = cross_polytope(n, s)
    assert em._volume_centroid(k._hull()) == (2**n * s**n / math.factorial(n), (0,) * n)
    area = em._facet_contents(k._hull())
    assert _encloses(area, 0, 2**n * s ** (n - 1) / math.factorial(n - 1), n)
    assert area.width <= SURFACE_WIDTH


def _simplex_count(k):
    hull = k._hull()
    return len(em._pulling_simplices((1 << len(hull.points)) - 1, hull.facets, k.dim))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pulling_simplex_counts(n):
    assert _simplex_count(standard_simplex(n)) == 1
    assert _simplex_count(dual_centered_simplex(n)) == 1
    assert _simplex_count(cross_polytope(n)) == 2 ** (n - 1)
    assert _simplex_count(vpoly(cube(n).vertices())) == math.factorial(n)


def test_dual_centered_simplex_7_is_one_simplex():
    # the reference triangulation above cuts it into 8!/2 = 20160 simplices
    k = dual_centered_simplex(7)
    assert _simplex_count(k) == 1
    assert k.volume() == F(1, 630)


def test_facet_contents_of_a_flat_polytope_raise():
    # a square in the plane x_3 = 0 of R^3: its "facets" are edges, not 2-dimensional
    A = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    vs = [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0)]
    with pytest.raises(RankDeficientError):
        facet_contents(A, [1, 1, 1, 1, 0, 0], vs)


# ---------------------------------------------------------------------------
# integer determinants: the Fraction elimination they replaced is the reference


@st.composite
def square_int_matrices(draw):
    """Integer matrices of size 0-7, some singular: a row repeated, scaled or zeroed."""
    n = draw(st.integers(0, 7))
    rows = draw(int_matrix(n, n))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] = [draw(st.integers(-2, 2)) * x for x in rows[j]] if i != j else [0] * n
    return draw(st.permutations(rows))


@given(square_int_matrices())
@settings(max_examples=200)
def test_int_det_matches_fraction_det(rows):
    assert em._int_det(rows) == ref_det(rows)


def test_int_det_needs_a_row_exchange():
    assert em._int_det([[0, 1], [1, 0]]) == -1
    assert em._int_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert em._int_det([[0, 2], [0, 3]]) == 0


def fraction_volume_centroid(vertices, facets):
    """Reference: one Fraction determinant per pulled simplex."""
    n = len(vertices[0])
    total = Fraction(0)
    moment = [Fraction(0)] * n
    for s in set_pulling_simplices(frozenset(vertices), facets, n):
        d = abs(ref_det([vsub(p, s[0]) for p in s[1:]]))
        total += d
        for i in range(n):
            moment[i] += d * sum(p[i] for p in s)
    return total / math.factorial(n), tuple(x / ((n + 1) * total) for x in moment)


def _fraction_minor(rows, k):
    return ref_det([r[:k] + r[k + 1 :] for r in rows])


def fraction_facet_contents(vertices, facets, max_width):
    """Reference: the facet minors as Fraction determinants of the rational edges."""
    n = len(vertices[0])
    if n == 1:
        return Interval.point(2)
    per_facet = max_width / len(facets)
    total = Interval.point(0)
    for f in facets:
        edges = [[vsub(p, s[0]) for p in s[1:]] for s in set_pulling_simplices(f, facets, n - 1)]
        a = [_fraction_minor(edges[0], j) for j in range(n)]
        k = next(j for j, x in enumerate(a) if x)
        v_k = (abs(a[k]) + sum(abs(_fraction_minor(e, k)) for e in edges[1:])) / math.factorial(n - 1)
        total = total + sqrt_interval(v_k * v_k * dot(a, a) / (a[k] * a[k]), per_facet)
    return total


def fraction_cone_rays(rows):
    """Reference: the starting cone from a Fraction elimination and the inverse of its rows."""
    g = [em._primitive(row) for row in rows]
    d = len(g[0])
    basis, _ = ref_eliminate([[Fraction(r[j]) for r in g] for j in range(d)], len(g))
    if len(basis) < d:
        raise RankDeficientError("the rows do not span their space")
    inv = ref_inverse([g[i] for i in basis])
    full = sum(1 << i for i in basis)
    rays = [(em._primitive([r[j] for r in inv]), full & ~(1 << i)) for j, i in enumerate(basis)]
    for i in sorted(set(range(len(g))) - set(basis)):
        gi, bit = g[i], 1 << i
        pos, neg, kept = [], [], []
        for y, z in rays:
            s = sum(a * b for a, b in zip(gi, y))
            if s > 0:
                pos.append((y, z, s))
                kept.append((y, z))
            elif s < 0:
                neg.append((y, z, s))
            else:
                kept.append((y, z | bit))
        zs = [z for _, z in rays]
        for yp, zp, sp in pos:
            for yn, zn, sn in neg:
                z = zp & zn
                if z.bit_count() < d - 2 or any(w & z == z and w != zp and w != zn for w in zs):
                    continue
                y = [sp * b - sn * a for a, b in zip(yp, yn)]
                c = math.gcd(*y)
                kept.append((tuple(x // c for x in y), z | bit))
        rays = kept
    return rays


@st.composite
def rational_polytopes(draw):
    """A random rational V- or H-polytope of dimension 1-5 with the origin inside,
    or its dilate, its translate or its polar."""
    from gon.body import hpoly, polar_body

    n = draw(st.integers(1, 5))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if draw(st.booleans()):
        pts = [tuple(F(-1, 2) for _ in range(n))] + [
            tuple(F(3 * int(j == i)) for j in range(n)) for i in range(n)
        ]
        pts += draw(st.lists(st.tuples(*[coord] * n), max_size=4))
        k = vpoly(pts)
    else:
        rows = [[s * int(j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
        rhs = [draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=5)) for _ in rows]
        for _ in range(draw(st.integers(0, 2))):
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
            rhs.append(draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=4)))
        k = hpoly(rows, rhs)
    op = draw(st.sampled_from(["none", "dilate", "translate", "polar"]))
    if op == "dilate":
        k = k.dilate(draw(st.fractions(min_value=F(1, 5), max_value=5, max_denominator=7)))
    elif op == "translate":
        k = k.translate(draw(st.tuples(*[coord] * n)))
    elif op == "polar":
        k = polar_body(k)
    return k


@given(rational_polytopes(), st.sampled_from([SURFACE_WIDTH, F(1, 2**8), F(1, 2**100)]))
@settings(max_examples=80, deadline=None)
def test_integer_volumes_and_facet_contents_match_the_fraction_references(k, width):
    hull, verts = k._hull(), k.vertices()
    sets = _facet_vertex_sets(verts, hull.facets)
    assert em._volume_centroid(hull) == fraction_volume_centroid(verts, sets)
    assert em._facet_contents(hull, width) == fraction_facet_contents(verts, sets, width)


@given(rational_polytopes(), st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6))
@settings(max_examples=60, deadline=None)
def test_h_and_v_forms_agree_and_dilates_scale(k, t):
    from gon.body import hpoly

    a, b = k.hrep()
    h, v = hpoly(a.to_rows(), b), vpoly(k.vertices())
    assert h.vertices() == v.vertices() == k.vertices()
    assert h.volume() == v.volume() == k.volume()
    assert h.centroid() == v.centroid() == k.centroid()
    assert h.surface_area() == v.surface_area()
    kt = k.dilate(t)
    assert kt.volume() == t**k.dim * k.volume()
    assert kt.centroid() == tuple(t * x for x in k.centroid())


@st.composite
def cone_rows(draw):
    """Integer rows (t, -a) of the cone over a system a . x <= t, some rank-deficient,
    with repeated, scaled and zero-on-some-ray rows."""
    d = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        rows.append([draw(st.integers(1, 3)) * x for x in draw(st.sampled_from(rows))])
    if draw(st.booleans()):
        rows = [[1] + [0] * (d - 1)] + rows
    return rows


@given(cone_rows())
@settings(max_examples=200, deadline=None)
def test_cone_rays_match_the_fraction_reference(rows):
    if not any(any(r) for r in rows):
        return
    try:
        ref = sorted(fraction_cone_rays(rows))
    except RankDeficientError:
        with pytest.raises(RankDeficientError):
            em._cone_rays(rows)
        return
    assert sorted(em._cone_rays(rows)) == ref


def test_cone_rays_build_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(em, "Fraction", no_fraction)
    rows = [[1, 0, 0, 0], [2, -1, 0, 0], [2, 1, 0, 0], [3, 0, -1, 0], [3, 0, 1, 0], [1, 0, 0, -1],
            [1, 0, 0, 1], [4, -1, -1, -1]]
    assert len(em._cone_rays(rows)) == 9


def test_hulls_and_volumes_make_no_fraction_elimination(monkeypatch):
    from gon.body import hpoly

    def no_elimination(*args):
        raise AssertionError("a Fraction elimination was run")

    for name in ("det", "rank", "solve", "inverse", "ldl"):
        monkeypatch.setattr(QMat, name, no_elimination)
    monkeypatch.setattr(em, "_bareiss_solve", no_elimination)
    h = hpoly([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]],
              [2, 1, F(3, 2), 1, 1, 1, F(5, 2)])
    v = vpoly(h.vertices())
    for k in (h, v):
        assert k.volume() == h.volume() and k.centroid() == h.centroid()
        assert k.surface_area() == h.surface_area()
    assert extreme_points(list(h.vertices()) + [(0, 0, 0)]) == list(h.vertices())
