import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gon.exactmath import (QMat, QuadVal, RankDeficientError, dot, hnf, quad_or_rat, rat, vec,
                           _hnf)
from gon.lattice import (
    Lattice,
    _gram_det,
    _integer_rows,
    _kernel_lattice,
    kernel_lattice,
    lll_reduce,
    make_lattice,
    standard_lattice,
)

small_int = st.integers(-6, 6)


def full_rank_basis(n):
    # unit diagonal plus strictly lower triangle: always rank n
    return st.lists(
        st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(
        lambda rows: [
            [rows[i][j] if j < i else (1 if j == i else 0) for j in range(n)]
            for i in range(n)
        ]
    )


def test_basic_properties():
    L = make_lattice([[2, 0], [1, 3]])
    assert L.rank == 2 and L.dim == 2
    assert L.det() == 6
    assert L.det_squared() == 36
    assert L.contains((3, 3))
    assert not L.contains((1, 0))
    assert not L.contains((F(1, 2), 0))
    assert L.coefficients((3, 3)) == (F(1), F(1))
    assert L.point((1, 1)) == (F(3), F(3))


def test_rejects_dependent_rows():
    with pytest.raises(RankDeficientError):
        make_lattice([[1, 2], [2, 4]])


def test_embedded_lattice_det():
    L = make_lattice([[1, 1, -1], [0, 3, -2]])
    d = L.det()
    assert isinstance(d, QuadVal)
    assert d * d == 14


def test_dual_full_rank():
    L = make_lattice([[2, 0], [1, 3]])
    D = L.dual()
    assert L.det() * D.det() == 1
    for i, di in enumerate(D.vectors()):
        for j, bj in enumerate(L.vectors()):
            assert dot(di, bj) == (1 if i == j else 0)
    assert D.dual().same_lattice(L)


def test_dual_standard_is_standard():
    Z3 = standard_lattice(3)
    assert Z3.dual().same_lattice(Z3)


def test_dual_embedded():
    L = make_lattice([[1, 1, 0], [0, 2, 2]])
    D = L.dual()
    for i, di in enumerate(D.vectors()):
        for j, bj in enumerate(L.vectors()):
            assert dot(di, bj) == (1 if i == j else 0)
        # dual vectors stay inside the span of the primal rows
        stack = QMat.from_rows(list(L.vectors()) + [list(di)])
        assert stack.rank() == 2


def test_same_lattice_mod_basis_change():
    L1 = make_lattice([[2, 0], [0, 2]])
    L2 = make_lattice([[2, 2], [2, -2]])
    L3 = make_lattice([[2, 2], [0, 4]])
    assert not L1.same_lattice(L2)
    assert L2.same_lattice(L3)
    assert L1.scale(2).same_lattice(make_lattice([[4, 0], [0, 4]]))


def test_index_in():
    Z2 = standard_lattice(2)
    L = make_lattice([[2, 1], [0, 3]])
    assert L.index_in(Z2) == 6
    with pytest.raises(ValueError):
        make_lattice([[F(1, 2), 0], [0, 1]]).index_in(Z2)


def test_hermite_basis_canonical():
    L2 = make_lattice([[2, 2], [2, -2]])
    L3 = make_lattice([[2, 2], [0, 4]])
    assert L2.hermite_basis() == L3.hermite_basis()


def test_json_roundtrip():
    L = make_lattice([[F(1, 2), 0], [F(1, 3), 1]])
    assert Lattice.from_json(L.to_json()) == L
    assert L.to_json() == {"basis": [["1/2", "0"], ["1/3", "1"]]}


# ---------------------------------------------------------------------------
# kernels


def test_kernel_frozen():
    K = kernel_lattice([[1, 2, 3]])
    assert K.rank == 2
    assert K.basis == QMat.from_rows([[1, 1, -1], [0, 3, -2]])
    assert K.det_squared() == 14


def test_kernel_trivial():
    with pytest.raises(ValueError):
        kernel_lattice([[1, 0], [0, 1]])


def test_kernel_rank_deficient():
    with pytest.raises(RankDeficientError):
        kernel_lattice([[1, 2, 3], [2, 4, 6]])


def test_kernel_requires_integers():
    with pytest.raises(ValueError):
        kernel_lattice([[F(1, 2), 1]])


def test_polar_lattice_and_minors_gcd():
    from gon.lattice import minors_gcd, polar_lattice

    L = make_lattice([[2, 0], [1, 3]])
    assert polar_lattice(L).det() == F(1, 6)
    with pytest.raises(RankDeficientError):
        polar_lattice(make_lattice([[1, 1, 0], [0, 2, 2]]))
    assert minors_gcd([[1, 2, 3]]) == 1
    assert minors_gcd([[2, 4, 6]]) == 2
    assert minors_gcd([[1, 0, 1], [0, 2, 2]]) == 2


def maximal_minor_gcd(rows):
    m = QMat.from_rows(rows)
    k = m.rows
    from itertools import combinations

    g = 0
    for cs in combinations(range(m.cols), k):
        sub = QMat.from_rows([[m[i, j] for j in cs] for i in range(k)])
        g = math.gcd(g, abs(int(sub.det())))
    return g


@given(
    st.lists(st.lists(small_int, min_size=4, max_size=4), min_size=2, max_size=2)
)
@settings(max_examples=60)
def test_kernel_saturated_det_identity(rows):
    m = QMat.from_rows(rows)
    if m.rank() < 2:
        return
    K = kernel_lattice(rows)
    assert K.rank == 2
    for v in K.vectors():
        assert m.mul_vec(v) == (F(0), F(0))
    # saturation: det(kernel)^2 * gcd(maximal minors)^2 = det(A A^T)
    g = maximal_minor_gcd(rows)
    gram_det = (m @ m.transpose()).det()
    assert K.det_squared() * g * g == gram_det


@given(st.lists(small_int, min_size=3, max_size=5))
@settings(max_examples=60)
def test_kernel_single_row(a):
    if all(x == 0 for x in a):
        return
    K = kernel_lattice([a])
    assert K.rank == len(a) - 1
    for v in K.vectors():
        assert dot(a, v) == 0
    g = math.gcd(*[abs(x) for x in a])
    assert K.det_squared() * g * g == sum(x * x for x in a)


# ---------------------------------------------------------------------------
# reduction


def gram_schmidt(rows):
    """(mu, |b*_i|^2) of the rows, in Fractions."""
    star, norms = [], []
    mu = [[F(0)] * len(rows) for _ in rows]
    for i, b in enumerate(rows):
        v = [F(x) for x in b]
        for j in range(i):
            mu[i][j] = sum((F(x) * y for x, y in zip(b, star[j])), F(0)) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
        norms.append(sum((x * x for x in v), F(0)))
    return mu, norms


def assert_lll_reduced(rows, delta=F(3, 4)):
    mu, norms = gram_schmidt(rows)
    m = len(rows)
    for i in range(m):
        for j in range(i):
            assert abs(mu[i][j]) <= F(1, 2)
    for k in range(1, m):
        assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]


def test_lll_classic_example():
    L = make_lattice([[1, 1, 1], [-1, 0, 2], [3, 5, 6]])
    R = lll_reduce(L)
    assert R.same_lattice(L)
    assert_lll_reduced([list(v) for v in R.vectors()])


def test_lll_preserves_rank_one():
    L = make_lattice([[5, 3]])
    assert lll_reduce(L) == L


@given(full_rank_basis(3))
@settings(max_examples=40)
def test_lll_properties(rows):
    L = make_lattice(rows)
    R = lll_reduce(L)
    assert R.same_lattice(L)
    assert R.det_squared() == L.det_squared()
    assert_lll_reduced([list(v) for v in R.vectors()])


@given(full_rank_basis(2))
@settings(max_examples=40)
def test_lll_first_vector_bound(rows):
    # |b1|^2 <= 2^(m-1) * det(L)^(2/m) for LLL with delta = 3/4
    L = make_lattice(rows)
    R = lll_reduce(L)
    b1 = R.vectors()[0]
    n1 = dot(b1, b1)
    assert n1**2 <= 4 * L.det_squared()


# ---------------------------------------------------------------------------
# the integer pipeline against the rational routines it replaced
#
# The reference functions below are the rational LLL, the Hermite normal form
# and the kernel lattice as they stood before the lattice layer moved to
# integer arithmetic, copied without change.


def _ref_gso(rows):
    m = len(rows)
    mu = [[F(0)] * m for _ in range(m)]
    star = [None] * m
    norms = [F(0)] * m
    for i in range(m):
        v = list(rows[i])
        for j in range(i):
            num = sum((a * b for a, b in zip(rows[i], star[j])), F(0))
            mu[i][j] = num / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star[i] = v
        norms[i] = sum((x * x for x in v), F(0))
    return mu, norms


def _ref_round_half(x: F) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def ref_lll_reduce(lat: Lattice, delta: F = F(3, 4)) -> Lattice:
    rows = [list(r) for r in lat.vectors()]
    m = len(rows)
    if m <= 1:
        return lat
    mu, norms = _ref_gso(rows)
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = _ref_round_half(mu[k][j])
            if q:
                rows[k] = [x - q * y for x, y in zip(rows[k], rows[j])]
                for t in range(j):
                    mu[k][t] -= q * mu[j][t]
                mu[k][j] -= q
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            mu, norms = _ref_gso(rows)
            k = max(k - 1, 1)
    return Lattice(QMat.from_rows(rows))


def _ref_row_sub(a, i, j, q):
    if q:
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]


def _ref_int_rows(m: QMat):
    if not m.is_integer():
        raise ValueError("normal forms require an integer matrix")
    return [[int(x) for x in m.row(i)] for i in range(m.rows)]


def ref_hnf(m: QMat) -> tuple[QMat, QMat]:
    a = _ref_int_rows(m)
    nr, nc = len(a), len(a[0])
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        if r == nr:
            break
        while True:
            nz = [i for i in range(r, nr) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            others = [i for i in range(r + 1, nr) if a[i][c] != 0]
            if not others:
                break
            for i in others:
                q = a[i][c] // a[r][c]
                _ref_row_sub(a, i, r, q)
                _ref_row_sub(u, i, r, q)
        if a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            d = a[r][c]
            for i in range(r):
                q = a[i][c] // d
                _ref_row_sub(a, i, r, q)
                _ref_row_sub(u, i, r, q)
            r += 1
    return QMat.from_rows(a), QMat.from_rows(u)


def ref_kernel_lattice(a_rows) -> Lattice:
    A = QMat.from_rows([[rat(x) for x in r] for r in a_rows])
    if not A.is_integer():
        raise ValueError("kernel lattice needs an integer matrix")
    m, n = A.rows, A.cols
    if m >= n:
        raise ValueError("kernel lattice needs fewer rows than columns")
    if A.rank() < m:
        raise RankDeficientError("matrix does not have full row rank")
    at = A.transpose()
    aug = QMat.from_rows(
        [list(at.row(i)) + [F(int(i == j)) for j in range(n)] for i in range(n)]
    )
    h, _ = ref_hnf(aug)
    out = []
    for i in range(h.rows):
        row = h.row(i)
        if all(x == 0 for x in row[:m]):
            out.append(row[m:])
    if not out:
        raise RankDeficientError("kernel is trivial")
    return Lattice(QMat.from_rows(out))


small_rational = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def rational_bases(draw):
    """Independent rational rows, m <= n <= 5: full rank when m = n, embedded when m < n."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(small_rational, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    assume(QMat.from_rows(rows).rank() == m)
    return rows


@given(rational_bases(), st.sampled_from([F(1, 2), F(3, 4), F(99, 100)]))
@example([[2, 0, 0], [0, 1, 1]], F(1, 2))  # Lovasz's condition holds with equality
@settings(max_examples=200, deadline=None)
def test_lll_matches_rational_lll(rows, delta):
    lat = Lattice(QMat.from_rows(rows))
    got = lll_reduce(lat, delta)
    assert got == ref_lll_reduce(lat, delta)
    assert_lll_reduced(got.vectors(), delta)


@given(rational_bases())
@settings(max_examples=200, deadline=None)
def test_dual_matches_the_gram_inverse(rows):
    # the reference is the formula that the integer dual replaced, through the public constructor
    lat = Lattice(QMat.from_rows(rows))
    ref = Lattice(lat.gram().inverse() @ lat.basis)
    dual = lat.dual()
    assert dual == ref and dual.basis == ref.basis
    assert dual.dual().same_lattice(lat)
    if lat.is_full_rank():
        assert lat.det() * dual.det() == 1


@given(rational_bases(), st.data())
@settings(max_examples=200, deadline=None)
def test_coefficients_solve_the_rational_basis(rows, data):
    # a point of the span comes back as its coefficients; any other x as None
    lat = Lattice(QMat.from_rows(rows))
    c = tuple(data.draw(st.lists(small_rational, min_size=lat.rank, max_size=lat.rank)))
    assert lat.coefficients(lat.point(c)) == c
    x = tuple(data.draw(st.lists(small_rational, min_size=lat.dim, max_size=lat.dim)))
    got = lat.coefficients(x)
    assert got == lat.basis.transpose().solve(x)
    assert (got is not None) == (QMat.from_rows(rows + [list(x)]).rank() == lat.rank)
    assert got is None or lat.point(got) == x


@given(st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                           min_size=r, max_size=r))))
@settings(max_examples=200, deadline=None)
def test_hnf_matches_reference(rows):
    m = QMat.from_rows(rows)
    h, u = hnf(m)
    assert (h, u) == ref_hnf(m)
    assert u @ m == h
    assert abs(u.det()) == 1


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:  # the error type and message are part of the outcome
        return type(e), str(e)


@given(st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                           min_size=r, max_size=r))))
@settings(max_examples=200, deadline=None)
def test_kernel_lattice_matches_reference(rows):
    assert _outcome(kernel_lattice, rows) == _outcome(ref_kernel_lattice, rows)


def augmented_hnf_kernel_lattice(a_rows) -> Lattice:
    """Reference: the rows of the full Hermite form of [A^T | I] whose A^T part is zero, the
    route kernel_lattice took before it reduced A^T's columns and the kernel rows apart."""
    a = _integer_rows(a_rows, "kernel lattice")
    m, n = len(a), len(a[0])
    if m >= n:
        raise ValueError("kernel lattice needs fewer rows than columns")
    aug = [[r[j] for r in a] + [int(i == j) for i in range(n)] for j in range(n)]
    if sum(c < m for c in _hnf(aug, m + n)) < m:
        raise RankDeficientError("matrix does not have full row rank")
    return Lattice._of_rows([r[m:] for r in aug if not any(r[:m])])


@st.composite
def kernel_matrices(draw):
    """Integer m x n matrices with m < n <= 6, mixed signs, zeros and entries up to 10^6 in
    size; some rank deficient, with a row made a multiple of another or zeroed. Some rows
    start with a run of zeros, and some single rows share a common factor: the extended-gcd
    chain meets a zero entry and a zero running gcd apart."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, min(3, n - 1)))
    entry = st.integers(-3, 3) | st.integers(-10**6, 10**6)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        rows[1] = [draw(st.integers(-3, 3)) * x for x in rows[0]]
    for r in rows:
        z = draw(st.integers(0, n - 1))
        r[:z] = [0] * z
    if m == 1:
        rows[0] = [draw(st.sampled_from([1, 2, 6, -10**4])) * x for x in rows[0]]
    return rows


@given(kernel_matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_lattice_matches_the_augmented_hermite_form(rows):
    got = _outcome(kernel_lattice, rows)
    assert got == _outcome(augmented_hnf_kernel_lattice, rows)
    if isinstance(got, Lattice):
        # the unreduced kernel basis spans the same lattice
        assert _kernel_lattice(rows).same_lattice(got)


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, 1]],              # m >= n: the kernel would be trivial
    [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
    [[1, 2, 3], [2, 4, 6]],        # rank deficient
    [[0, 0, 0]],
    [[F(1, 2), 1, 0]],             # not integer
    [[1, "3/2", 2]],
    [[1.5, 2, 3]],                 # not a rational
    [[1, 2, 3], [4, 5]],           # ragged
    [],                            # empty
])
def test_kernel_lattice_errors_match_reference(rows):
    got = _outcome(kernel_lattice, rows)
    assert isinstance(got, tuple) and got == _outcome(ref_kernel_lattice, rows)


# -- the integer form: each lattice holds integer rows over its least common denominator


def _ref_integer_matrix(rows):
    """Reference: the Fraction rows scaled by their least common denominator."""
    den = math.lcm(*(rat(x).denominator for r in rows for x in r))
    return [[rat(x) * den for x in r] for r in rows], den


def ref_hermite_basis(lat: Lattice) -> Lattice:
    """Reference: the route that scaled the Fraction basis to integers and back."""
    m, den = _ref_integer_matrix(lat.basis.to_rows())
    h, _ = ref_hnf(QMat.from_rows(m))
    return Lattice(QMat.from_rows([[x / den for x in h.row(i)] for i in range(h.rows)]))


def ref_same_lattice(a: Lattice, b: Lattice) -> bool:
    """Reference: both bases scaled by one common denominator, then compared by HNF."""
    if a.dim != b.dim or a.rank != b.rank:
        return False
    m, _ = _ref_integer_matrix(a.basis.to_rows() + b.basis.to_rows())
    return ref_hnf(QMat.from_rows(m[:a.rank]))[0] == ref_hnf(QMat.from_rows(m[a.rank:]))[0]


def assert_integer_form(out: Lattice, ref: Lattice | None = None):
    # the public constructor, which reduces the Fraction basis itself, finds the same form
    again = Lattice(out.basis)
    assert again == out and hash(again) == hash(out)
    assert again.basis == out.basis and repr(again) == repr(out)
    if ref is not None:
        assert out.basis == ref.basis and out == ref and hash(out) == hash(ref)


@given(rational_bases(), st.sampled_from([F(3, 4), F(99, 100)]))
@settings(max_examples=150, deadline=None)
def test_producers_keep_the_integer_form(rows, delta):
    lat = Lattice(QMat.from_rows(rows))
    assert_integer_form(lat)
    assert_integer_form(lll_reduce(lat, delta), ref_lll_reduce(lat, delta))
    assert_integer_form(lat.hermite_basis(), ref_hermite_basis(lat))
    assert_integer_form(lat.dual())
    assert_integer_form(lat.scale(F(3, 2)))
    assert lat.is_integer() == lat.basis.is_integer()


@given(st.integers(1, 3).flatmap(
    lambda r: st.integers(r + 1, 5).flatmap(
        lambda c: st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                           min_size=r, max_size=r))))
@settings(max_examples=150, deadline=None)
def test_kernel_lattice_keeps_the_integer_form(rows):
    assume(QMat.from_rows(rows).rank() == len(rows))
    out = kernel_lattice(rows)
    assert_integer_form(out, ref_kernel_lattice(rows))
    assert_integer_form(lll_reduce(out), ref_lll_reduce(out))


@given(rational_bases(), st.data())
@settings(max_examples=150, deadline=None)
def test_dependent_rational_rows_raise(rows, data):
    weights = data.draw(st.lists(small_rational, min_size=len(rows), max_size=len(rows)))
    extra = [sum((w * r[j] for w, r in zip(weights, rows)), F(0)) for j in range(len(rows[0]))]
    at = data.draw(st.integers(0, len(rows)))
    with pytest.raises(RankDeficientError):
        Lattice(QMat.from_rows(rows[:at] + [extra] + rows[at:]))


@given(rational_bases(), st.data())
@settings(max_examples=150, deadline=None)
def test_point_matches_the_basis_product(rows, data):
    lat = Lattice(QMat.from_rows(rows))
    ints = data.draw(st.lists(small_int, min_size=lat.rank, max_size=lat.rank))
    fracs = data.draw(st.lists(small_rational, min_size=lat.rank, max_size=lat.rank))
    for c in (ints, fracs, [str(x) for x in fracs], [F(x) for x in ints]):
        got = lat.point(c)
        assert got == lat.basis.transpose().mul_vec(vec(c))
        assert all(type(x) is F for x in got)
    assert _outcome(lat.point, ints + [0]) == _outcome(lat.basis.transpose().mul_vec, ints + [0])
    assert _outcome(lat.point, [True] + ints[1:]) == (TypeError, "bool is not a rational")


@given(rational_bases(), st.data())
@settings(max_examples=150, deadline=None)
def test_same_lattice_across_denominators(rows, data):
    lat = Lattice(QMat.from_rows(rows))
    others = [lll_reduce(lat), lat.hermite_basis(), lat.dual(), lat.scale(F(1, 2)),
              lat.scale(3), Lattice(QMat.from_rows(data.draw(rational_bases())))]
    for other in others:
        assert lat.same_lattice(other) == ref_same_lattice(lat, other)
        assert other.same_lattice(lat) == ref_same_lattice(other, lat)
    assert lat.same_lattice(others[0]) and lat.same_lattice(others[1])


@given(rational_bases())
@example([[F(1, 2), F(1, 3), 0]])  # den 6, rank 1 < dim 3
@example([[F(1, 2), 0], [F(1, 4), F(3, 2)]])  # den 4 at full rank
@settings(max_examples=200, deadline=None)
def test_integer_determinants_match_the_rational_gram(rows):
    lat = Lattice(QMat.from_rows(rows))
    ref = lat.gram().det()  # the Fraction reference the integer determinants replaced
    assert lat.det_squared() == ref and type(lat.det_squared()) is F
    if lat.is_full_rank():
        assert lat.det() == abs(lat.basis.det()) and type(lat.det()) is F
    else:
        assert lat.det() == quad_or_rat(ref)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=1, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_gram_det_matches_the_rational_gram(rows):
    q = QMat.from_rows(rows)
    assert _gram_det(rows) == (q @ q.transpose()).det()
