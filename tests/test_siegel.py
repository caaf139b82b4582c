import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gon.body import cube
from gon.cli import main
from gon.exactmath import DimensionGuardError, Interval, QMat, QuadVal, RankDeficientError
from gon.lattice import kernel_lattice, lll_reduce
from gon.minima import successive_minima
from gon import exactmath, lattice, minima
from gon.siegel import (
    CubeSection,
    GeneralizedHexagon,
    ScanRecord,
    SiegelSolution,
    _scan_minima,
    _scan_record,
    delta_lower_bound,
    hexagon_contains,
    hexagon_delta2,
    project_body,
    scan_constants,
    section_body,
    siegel_solve,
    sigma_reference,
    sinc_sigma,
    smaller_section,
    whitworth_delta,
)

F = Fraction


def sup(x):
    return max(abs(v) for v in x)


def brute_kernel_minima(rows, radius):
    """Exhaustive successive minima of the sup-norm over the kernel of rows."""
    n = len(rows[0])
    count = n - len(rows)
    pts = []
    for x in itertools.product(range(-radius, radius + 1), repeat=n):
        if any(x) and all(sum(r[i] * x[i] for i in range(n)) == 0 for r in rows):
            pts.append((sup(x), x))
    pts.sort()
    vals, wits = [], []
    for g, x in pts:
        if len(wits) == count:
            break
        stack = QMat.from_rows([[F(v) for v in w] for w in wits + [x]])
        if stack.rank() == len(wits) + 1:
            vals.append(g)
            wits.append(x)
    assert len(vals) == count, "brute radius too small"
    return vals


# ---------------------------------------------------------------------------
# solver


def test_solve_single_row():
    s = siegel_solve([1, 2, 3])
    assert s.norms == (1, 2)
    assert s.product_norm == 2
    assert s.vectors[0] == (1, 1, -1)
    assert s.gram_det == 14 and s.minor_gcd == 1
    assert isinstance(s.bv_bound, QuadVal) and s.bv_bound.square == 14
    assert s.classical_bound == Interval.point(4)
    assert s.bv_satisfied and s.classical_satisfied


def test_solve_two_rows():
    s = siegel_solve([[1, 0, 1], [0, 2, 2]])
    assert s.vectors == ((1, 1, -1),)
    assert s.norms == (1,)
    assert s.gram_det == 12 and s.minor_gcd == 2
    assert s.bv_bound.square == 3
    assert s.classical_bound == Interval.point(37)


def test_solve_all_ones():
    for n in (4, 6):
        s = siegel_solve([1] * n)
        assert s.norms == (1,) * (n - 1)
        assert s.product_norm == 1
        bound_sq = s.bv_bound.square if isinstance(s.bv_bound, QuadVal) else s.bv_bound**2
        assert bound_sq == n


def test_solutions_lie_in_kernel_and_are_independent():
    rows = [[2, -1, 0, 3], [1, 1, 1, 1]]
    s = siegel_solve(rows)
    for w in s.vectors:
        assert all(sum(r[i] * w[i] for i in range(4)) == 0 for r in rows)
    stack = QMat.from_rows([[F(x) for x in w] for w in s.vectors])
    assert stack.rank() == len(s.vectors)
    assert s.norms == tuple(sorted(s.norms))
    assert all(sup(w) == v for w, v in zip(s.vectors, s.norms))


def test_solve_negative_entries():
    s = siegel_solve([2, -3, 5])
    assert s.norms == (1, 3)
    assert s.bv_bound.square == 38


def test_solve_is_deterministic():
    assert siegel_solve([3, 5, 7]) == siegel_solve([3, 5, 7])


def test_solve_matches_brute_force():
    rng = random.Random(11)
    done = 0
    while done < 12:
        n = rng.randint(2, 4)
        m = rng.randint(1, n - 1)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        qa = QMat.from_rows([[F(x) for x in r] for r in rows])
        if qa.rank() < m:
            continue
        s = siegel_solve(rows)
        radius = max(s.norms) + 1
        assert list(s.norms) == brute_kernel_minima(rows, radius)
        done += 1


def test_solve_rejects_bad_input():
    with pytest.raises(ValueError):
        siegel_solve([[1, 2], [3, 4]])  # m == n
    with pytest.raises(ValueError):
        siegel_solve([[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 0, 0]])
    with pytest.raises(RankDeficientError):
        siegel_solve([[1, 2, 3], [2, 4, 6]])
    with pytest.raises(RankDeficientError):
        siegel_solve([0, 0, 0])
    with pytest.raises(ValueError):
        siegel_solve([[1, F(1, 2), 2]])


@pytest.mark.parametrize("rows,error", [
    ([[1.0, 2, 3]], TypeError),
    ([[True, 2, 3]], TypeError),
    ([[1, F(1, 2), 2]], ValueError),
    ([["3", 2, 5]], None),
])
def test_section_validates_entries_as_kernel_lattice_does(rows, error):
    if error is None:
        assert section_body(rows).lattice == kernel_lattice(rows) == kernel_lattice([[3, 2, 5]])
        assert section_body(rows).rows == ((3, 2, 5),)
        return
    for build in (section_body, kernel_lattice):
        with pytest.raises(error):
            build(rows)


def test_kernel_determinant_identity():
    for rows in ([[1, 2, 3]], [[1, 0, 1], [0, 2, 2]], [[2, -1, 0, 3], [1, 1, 1, 1]]):
        s = siegel_solve(rows)
        lat = kernel_lattice(rows)
        assert lat.det_squared() * s.minor_gcd**2 == s.gram_det


# ---------------------------------------------------------------------------
# cube sections


def test_section_of_unit_vector_is_lower_cube():
    sec = section_body((0, 0, 1))
    assert sec.dim == 2
    assert sec.content() == 4
    assert sec.vaaler_satisfied()
    for n in (4, 5):
        a = [0] * n
        a[-1] = 1
        assert section_body(a).content() == 2 ** (n - 1)


def test_hexagonal_section_content():
    c = section_body((1, 1, 1)).content()
    assert isinstance(c, QuadVal) and c.square == 27


def test_section_content_by_projection_identity():
    # project out x_3: area elements scale by |a|_2 / |a_3|, so
    # content^2 = (shadow area)^2 * 14/9 with shadow the full square
    c = section_body((1, 2, 3)).content()
    assert c.square == F(16 * 14, 9)


def test_section_content_of_line():
    c = section_body([[1, 0, 1], [0, 2, 2]]).content()
    assert c.square == 12
    assert section_body([[1, 0, 1], [0, 2, 2]]).vaaler_satisfied()


def test_section_minima_match_solver():
    sec = section_body((1, 2, 3))
    res = sec.minima()
    assert tuple(int(v) for v in res.values) == (1, 2)
    assert sec.minima(1).values == (F(1),)


@settings(max_examples=25)
@given(st.integers(3, 5).flatmap(lambda n: st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
def test_vaaler_bound_on_random_sections(a):
    if all(x == 0 for x in a):
        return
    assert section_body(a).vaaler_satisfied()


# ---------------------------------------------------------------------------
# projected bodies


def test_project_examples():
    assert project_body((1, 1, 1)).alphas == (F(1), F(1))
    assert project_body((1, 2, 3)).alphas == (F(1, 3), F(2, 3))
    assert project_body((2, 3, 5, 5)).alphas == (F(2, 5), F(3, 5), F(1))


def test_project_rejects_bad_rows():
    for a in ((2, 1), (0, 1), (-1, 2), (3,), (1, F(3, 2))):
        with pytest.raises(ValueError):
            project_body(a)


def test_hexagon_type_validation():
    with pytest.raises(ValueError):
        GeneralizedHexagon(())
    with pytest.raises(ValueError):
        GeneralizedHexagon((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        GeneralizedHexagon((F(3, 2),))
    h = GeneralizedHexagon((F(1, 2), 1))
    assert h.alphas == (F(1, 2), F(1))
    assert h.body().volume() > 0


def test_smaller_section_construction():
    assert smaller_section(GeneralizedHexagon((F(1, 3), F(2, 3)))).alphas == (F(1), F(1))
    sm = smaller_section(project_body((2, 3, 5, 5)))
    assert sm.alphas == (F(2, 3), F(1), F(1))
    with pytest.raises(ValueError):
        smaller_section(GeneralizedHexagon((F(1, 2),)))


def test_smaller_section_is_contained():
    for alphas in ((F(1, 3), F(2, 3)), (F(1), F(1)), (F(2, 5), F(3, 5), F(1)),
                   (F(1, 7), F(1, 2), F(5, 6)), (F(1, 9), F(1, 9), F(1, 9))):
        h = GeneralizedHexagon(alphas)
        assert hexagon_contains(h, smaller_section(h))


@settings(max_examples=20)
@given(st.lists(st.fractions(min_value=F(1, 20), max_value=1), min_size=2, max_size=3))
def test_smaller_section_contained_hypothesis(alphas):
    h = GeneralizedHexagon(tuple(sorted(alphas)))
    assert hexagon_contains(h, smaller_section(h))


def test_hexagon_contains_needs_matching_dimension():
    with pytest.raises(ValueError):
        hexagon_contains(GeneralizedHexagon((F(1),)), GeneralizedHexagon((F(1), F(1))))


# ---------------------------------------------------------------------------
# critical determinants


def test_whitworth_values():
    assert whitworth_delta(1) == F(19, 27)
    assert whitworth_delta(F(1, 4)) == F(3, 4)
    assert whitworth_delta(F(1, 2)) == F(3, 4)
    assert whitworth_delta(F(2, 3)) == F(361, 486)
    # the curved branch agrees with the flat one at the break point
    b = F(1, 2)
    assert -(b * b + 3 * b - 24 + 1 / b) / 27 == F(3, 4)


def test_whitworth_monotone_on_curved_branch():
    vals = [whitworth_delta(F(k, 10)) for k in range(5, 11)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    assert vals[0] == F(3, 4) and vals[-1] == F(19, 27)


def test_whitworth_rejects_out_of_range():
    for b in (0, -1, F(3, 2)):
        with pytest.raises(ValueError):
            whitworth_delta(b)


def test_hexagon_delta2_certificate():
    assert hexagon_delta2() == F(3, 4)
    from gon.body import generalized_hexagon
    from gon.lattice import make_lattice
    from gon.minima import first_minimum

    k = generalized_hexagon((1, 1))
    assert k.volume() == 3
    t = make_lattice([[2, -1], [1, 1]])
    lam, w = first_minimum(k, t)
    assert lam == 2 and abs(t.basis.det()) == 3


def test_delta_lower_bound_dispatch():
    assert delta_lower_bound(GeneralizedHexagon((F(1, 2),))) == 1
    assert delta_lower_bound(GeneralizedHexagon((F(1, 3), F(2, 3)))) == F(3, 4)
    assert delta_lower_bound(project_body((2, 3, 5, 5))) == F(361, 486)
    with pytest.raises(ValueError):
        delta_lower_bound(GeneralizedHexagon((F(1), F(1), F(1), F(1))))


# ---------------------------------------------------------------------------
# sinc constants


def test_sigma_small_values():
    assert sinc_sigma(1) == 1
    assert sinc_sigma(2) == 1
    assert sinc_sigma(3) == F(3, 4)
    assert sinc_sigma(4) == F(2, 3)
    assert sinc_sigma(5) == F(115, 192)
    assert sinc_sigma(8) == F(151, 315)


def test_sigma_matches_reference_table():
    for n in range(1, 13):
        assert sinc_sigma(n) == sigma_reference(n)


def test_sigma_rejects_bad_n():
    with pytest.raises(ValueError):
        sinc_sigma(0)
    with pytest.raises(ValueError):
        sigma_reference(0)
    with pytest.raises(ValueError):
        sigma_reference(13)


def test_sigma_against_quadrature_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for n in range(1, 13):
        q = (2 / mp.pi) * mp.quadosc(
            lambda t, n=n: mp.sinc(t) ** n, [0, mp.inf], period=2 * mp.pi
        )
        v = sinc_sigma(n)
        assert abs(mp.mpf(v.numerator) / v.denominator - q) < mp.mpf("1e-9")


def test_sigma_decreases():
    vals = [sinc_sigma(n) for n in range(2, 13)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


# ---------------------------------------------------------------------------
# scans


def test_scan_two_dimensional_is_exactly_one():
    for a_max in (1, 4, 7):
        rep = scan_constants(2, a_max)
        assert rep.empirical_s == 1
        assert rep.empirical_c == 1
        assert rep.exact_value == 1 and rep.within_exact


def test_scan_three_dimensional_frozen():
    rep = scan_constants(3, 8)
    assert len(rep.records) == 95
    assert rep.empirical_s == F(9, 8)
    assert rep.empirical_c == F(9, 8)
    assert rep.witness_s == (5, 7, 8)
    assert rep.within_sqrt_n and rep.within_sigma_inv and rep.within_exact
    assert rep.bound_sigma_inv == F(4, 3)
    assert rep.exact_value == F(4, 3)


def test_scan_four_dimensional_frozen():
    rep = scan_constants(4, 4)
    assert len(rep.records) == 29
    assert rep.empirical_s == 1
    assert rep.witness_s == (1, 1, 1, 1)
    assert rep.bound_sigma_inv == F(3, 2)
    assert rep.exact_value == F(27, 19)
    rec = rep.records[0]
    assert rec.a == (1, 1, 1, 1)
    assert rec.minima == (1, 1, 1)
    assert rec.hexagon_bound == F(27, 19)


def test_scan_record_invariants():
    rep = scan_constants(3, 6)
    for r in rep.records:
        assert r.ratio_single <= r.ratio_product
        assert r.bv_satisfied
        assert r.hexagon_satisfied
        assert r.minima == tuple(sorted(r.minima))
        assert r.ratio_product == F(r.minima_product, r.a[-1])


def test_scan_minima_match_brute_force():
    rep = scan_constants(3, 5)
    for r in rep.records:
        radius = max(r.minima) + 1
        assert list(r.minima) == brute_kernel_minima([list(r.a)], radius)


def test_scan_dedupe_flag():
    full = scan_constants(3, 4, dedupe=False)
    primitive = scan_constants(3, 4)
    assert len(full.records) == 20
    assert len(primitive.records) == 15
    assert full.empirical_s == primitive.empirical_s
    doubled = next(r for r in full.records if r.a == (2, 2, 4))
    assert doubled.bv_satisfied and doubled.hexagon_satisfied
    # scaling a row leaves the kernel unchanged but inflates the denominator
    base = next(r for r in full.records if r.a == (1, 1, 2))
    assert doubled.minima == base.minima
    assert doubled.ratio_product == base.ratio_product / 2


def test_scan_jobs_merge_is_deterministic():
    assert scan_constants(3, 5, jobs=2) == scan_constants(3, 5)


def test_scan_jobs_size_the_pool_to_the_chunks(inline_pool):
    # under 500 jobs the 42 rows are 42 chunks of one row, so the pool opens 42 workers;
    # under 2 jobs they are 21 chunks of two rows, and it opens 2
    rep = scan_constants(3, 6, jobs=500)
    assert len(rep.records) == 42 and inline_pool == [42]
    assert scan_constants(3, 6, jobs=2) == rep == scan_constants(3, 6)
    assert inline_pool == [42, 2]
    with pytest.raises(ValueError, match="need jobs >= 1"):
        scan_constants(3, 6, jobs=0)
    assert inline_pool == [42, 2]


def test_scan_guards():
    with pytest.raises(ValueError):
        scan_constants(1, 5)
    with pytest.raises(ValueError):
        scan_constants(3, 0)
    with pytest.raises(ValueError):
        scan_constants(6, 40)


def test_scan_hexagon_bound_uses_whitworth():
    rep = scan_constants(4, 5)
    rec = next(r for r in rep.records if r.a == (2, 3, 5, 5))
    assert rec.minima == (1, 1, 3)
    assert rec.hexagon_bound == F(5) / F(361, 486)
    assert rec.hexagon_satisfied


# the benchmark's scan sweep: n = 2 up to height 40, n = 3 up to 12, n = 4 up to 5
@pytest.mark.parametrize("n, a_max", [(2, 40), (3, 12), (4, 5)])
@pytest.mark.parametrize("dedupe", [True, False])
def test_scan_hexagon_bound_read_off_the_row(n, a_max, dedupe):
    rows = [a for a in itertools.combinations_with_replacement(range(1, a_max + 1), n)
            if not (dedupe and math.gcd(*a) > 1)]
    for a in rows:
        g = math.gcd(*a)
        ref = F(a[-1], g) / delta_lower_bound(project_body(tuple(x // g for x in a)))
        # the bound does not depend on the minima; ones keep the record's own checks quiet
        assert _scan_record(a, (1,) * (n - 1)).hexagon_bound == ref


def fraction_scan_record(a, lams):
    """_scan_record as it was, deciding both comparisons on Fractions."""
    n = len(a)
    an = a[-1]
    g = math.gcd(*a)
    product = math.prod(lams)
    ratio_single = Fraction(lams[0] ** (n - 1), an)
    ratio_product = Fraction(product, an)
    if ratio_single > ratio_product:
        raise RuntimeError("single-vector ratio escapes the product ratio")
    bv_ok = product**2 * g * g <= sum(x * x for x in a)
    hex_bound = hex_ok = None
    if n <= 4:
        if n == 2:
            delta = Fraction(1)
        elif n == 3:
            delta = hexagon_delta2()
        else:
            delta = whitworth_delta(Fraction(a[0], a[1]))
        hex_bound = Fraction(an, g) / delta
        hex_ok = product <= hex_bound
    return ScanRecord(a, lams, product, ratio_single, ratio_product, bv_ok, hex_bound, hex_ok)


def record_or_error(fn, a, lams):
    try:
        return fn(a, lams)
    except RuntimeError as exc:
        return RuntimeError, str(exc)


def sweep_rows(n, a_max, dedupe):
    return [a for a in itertools.combinations_with_replacement(range(1, a_max + 1), n)
            if not (dedupe and math.gcd(*a) > 1)]


@pytest.mark.parametrize("n, a_max", [(2, 40), (3, 12), (4, 5)])
@pytest.mark.parametrize("dedupe", [True, False])
def test_scan_minima_and_records_match_the_fraction_routines(n, a_max, dedupe):
    rows = sweep_rows(n, a_max, dedupe)
    k = cube(n)
    lams_of = _scan_minima(rows)
    assert lams_of == [tuple(int(v) for v in successive_minima(k, kernel_lattice([list(a)])).values)
                       for a in rows]
    for a, lams in zip(rows, lams_of):
        assert _scan_record(a, lams) == fraction_scan_record(a, lams)
        # minima that break the ratio check, and minima past the hexagon bound
        for fake in [(lams[-1] + 1,) + lams[1:], tuple(x * a[-1] for x in lams)]:
            assert (record_or_error(_scan_record, a, fake)
                    == record_or_error(fraction_scan_record, a, fake))


def test_scan_minima_build_one_chart_and_no_hermite_form(monkeypatch):
    # every kernel of rank 2 is read off its reduced rows by their sup-norms, with no
    # chart, and every kernel basis comes from extended gcds
    calls = {"chart": 0, "hnf": 0, "core": 0}
    init, hnf, core = minima._Chart.__init__, exactmath._hnf, minima._minima_core

    def counted_init(self, *args):
        calls["chart"] += 1
        init(self, *args)

    def counted_hnf(*args):
        calls["hnf"] += 1
        return hnf(*args)

    def counted_core(*args):
        calls["core"] += 1
        return core(*args)

    monkeypatch.setattr(minima._Chart, "__init__", counted_init)
    monkeypatch.setattr(minima, "_minima_core", counted_core)
    for module in (exactmath, lattice):
        monkeypatch.setattr(module, "_hnf", counted_hnf)
    rows = sweep_rows(3, 12, True)
    assert len(_scan_minima(rows)) == len(rows) == 287
    assert calls == {"chart": 0, "hnf": 0, "core": 0}
    # kernels of rank 3 walk a Euclidean ball, with no chart either
    rows = sweep_rows(4, 5, True)
    assert len(_scan_minima(rows)) == len(rows) == 63
    assert calls == {"chart": 0, "hnf": 0, "core": 0}


def test_scan_minima_of_rank_one_are_the_closed_form():
    # the kernel of (a1, a2) is spanned by (a2, -a1) / g, whose sup-norm is a2 / g
    for r in scan_constants(2, 200, dedupe=False).records:
        a1, a2 = r.a
        assert r.minima == (a2 // math.gcd(a1, a2),)


def test_scan_minima_of_rank_two_match_brute_force_past_the_sweep():
    # a fixed sample of n = 3 rows of height 13-60, where no sweep test reaches
    rows = [a for a in sweep_rows(3, 60, True) if a[-1] >= 13]
    sample = random.Random(3).sample(rows, 30)
    for a, lams in zip(sample, _scan_minima(sample)):
        assert list(lams) == brute_kernel_minima([list(a)], max(lams) + 1)


def reference_scan_values(a):
    """The scan's minima of a kernel of rank 3 or more as they were read: the row's own chart
    of the unit cube on its reduced kernel lattice and the walk of _minima_core."""
    red = lll_reduce(kernel_lattice([list(a)]))
    chart = minima._require_gauge_body(cube(len(a)), red, False)
    keys, _ = minima._minima_core(chart, red.rank, True)
    return [chart.value(key) for key in keys]


def ball_values(a):
    return minima._ball_keys(lll_reduce(kernel_lattice([list(a)]))._rows)


# a row (1, h, ..., h) walks about 3.6 h^2 nodes at n = 4 and 12 h^3 at n = 5: these heights
# keep each draw under about 21 000
ascending_rows = st.sampled_from([(4, 30), (5, 12)]).flatmap(
    lambda nh: st.lists(st.integers(1, nh[1]), min_size=nh[0], max_size=nh[0]).map(sorted))


@given(ascending_rows)
@settings(max_examples=150, deadline=None)
def test_ball_keys_match_the_rows_own_chart(a):
    assert ball_values(a) == reference_scan_values(a)


def test_ball_keys_match_the_rows_own_chart_at_n6():
    # a fixed sample of n = 6 rows, kernels of rank 5
    for a in random.Random(6).sample(sweep_rows(6, 5, False), 12):
        assert ball_values(a) == reference_scan_values(a)


def test_ball_walk_past_its_node_budget_is_a_guard(monkeypatch, capsys):
    # the kernel of (1, 3, 4, 5) has rank 3, and its ball walk visits 14 nodes above its
    # last level; the rank-2 rows of n = 3 walk nothing
    monkeypatch.setattr(minima, "_WALK_MAX_NODES", 10)
    assert _scan_minima([(1, 2, 3)]) == [(1, 2)]
    with pytest.raises(DimensionGuardError, match="more than 10 nodes"):
        _scan_minima([(1, 3, 4, 5)])
    for jobs in ["1", "2"]:
        rc = main(["scan", "--n", "4", "--max", "5", "--jobs", jobs])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1 and doc["error"]["code"] == "guard", doc
        assert "more than 10 nodes" in doc["error"]["message"]
