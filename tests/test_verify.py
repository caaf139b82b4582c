import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from gon.body import (
    Body,
    box,
    centered_simplex,
    cross_polytope,
    cube,
    dual_centered_simplex,
    ellipsoid,
    hpoly,
    polar_body,
    standard_simplex,
    symmetrize,
    unit_ball,
    vpoly,
)
from gon.cli import _fixed_instances
from gon.counting import count_ratio_bounds
from gon.exactmath import DEFAULT_WIDTH, DimensionGuardError, Interval, QuadVal, working_width
from gon.lattice import Lattice, kernel_lattice, make_lattice, standard_lattice
from gon.verify import (
    _REFINE_WIDTH,
    CheckReport,
    _Instance,
    _refine_width,
    candidate_json,
    counterexample_candidates,
    instance_json,
    list_checks,
    random_instance,
    run_checks,
)

Z2 = standard_lattice(2)
Z3 = standard_lattice(3)


def one(k, lat, cid):
    (r,) = run_checks(k, lat, [cid])
    return r


def by_id(reports):
    return {r.check_id: r for r in reports}


# -- registry ------------------------------------------------------------------


def test_registry_size_and_ids():
    listing = list_checks()
    ids = [c["check_id"] for c in listing]
    assert len(ids) == 31
    assert len(set(ids)) == len(ids)
    assert "minkowski_upper" in ids
    assert ids[0] == "minkowski_first"
    assert ids[-2:] == ["vaaler_section", "siegel_bv"]
    assert all(c["kind"] in ("theorem", "conjecture", "bound") for c in listing)
    assert listing == list_checks()


# the registry listing, in order: id, kind and the applicability note
LISTING = [
    ("minkowski_first", "theorem", "symmetric K, full-rank L"),
    ("minkowski_upper", "theorem", "any full-dimensional K, full-rank L"),
    ("minkowski_lower", "theorem", "any full-dimensional K, full-rank L"),
    ("centered_lower", "theorem", "centered K (centroid at the origin)"),
    ("ehrhart_conj_instance", "conjecture", "centered K above the volume threshold"),
    ("wills_lower", "theorem", "Z^n; boxes check every index, other polytopes the top two"),
    ("henk_upper", "theorem", "Z^n, n >= 2; strict, certified by interval separation off boxes"),
    ("survol", "theorem", "Z^n, n >= 2; strict"),
    ("hhh_surface", "theorem", "symmetric polytope, Z^n"),
    ("mahler_bounds", "bound", "symmetric K"),
    ("mahler_conj", "conjecture", "symmetric K"),
    ("mahler_nonsym_conj", "conjecture", "K with the origin interior"),
    ("mahler_minima_conj", "conjecture", "symmetric K"),
    ("makai_conj", "conjecture", "any full-dimensional K"),
    ("makai_strong", "conjecture", "any full-dimensional K"),
    ("eggleston", "theorem", "planar K (n = 2)"),
    ("alvarez_conj", "conjecture", "K with the origin interior"),
    ("transference", "theorem", "symmetric K"),
    ("hx_upper", "theorem", "any full-dimensional K"),
    ("hx_centered_upper", "theorem", "centered K"),
    ("minkowski_3n", "theorem", "symmetric K holding at least 3^n + 1 points"),
    ("bhw_upper", "theorem", "any full-dimensional K"),
    ("bhw_conj", "conjecture", "any full-dimensional K"),
    ("bhw_lower", "theorem", "symmetric K with lambda_n <= 2"),
    ("malikiosis_bound", "bound", "any full-dimensional K"),
    ("tointon_bound", "bound", "K with at least one minimum under the threshold"),
    ("gv_conj", "conjecture", "any full-dimensional K; lower bound needs n*lambda_n <= 2"),
    ("freyer_lucas", "theorem", "any full-dimensional K; negative lower factors clamp to zero"),
    ("discrete_volsur", "theorem", "symmetric polytope with vertices in L"),
    ("vaaler_section", "theorem", "uniform box cut by an embedded lattice's span"),
    ("siegel_bv", "theorem", "uniform box with an embedded lattice"),
]


def test_registry_listing_pinned():
    assert [(c["check_id"], c["kind"], c["applies"]) for c in list_checks()] == LISTING


def test_registry_conjecture_kinds():
    kinds = {c["check_id"]: c["kind"] for c in list_checks()}
    conjectures = {
        "ehrhart_conj_instance", "mahler_conj", "mahler_nonsym_conj",
        "mahler_minima_conj", "makai_conj", "makai_strong", "alvarez_conj",
        "bhw_conj", "gv_conj",
    }
    assert {cid for cid, k in kinds.items() if k == "conjecture"} == conjectures


def test_unknown_check_id():
    with pytest.raises(ValueError, match="unknown check id"):
        run_checks(cube(2), Z2, ["minkowski_upper", "nonsense"])


def test_selection_order_preserved():
    sel = ["survol", "minkowski_first", "bhw_upper"]
    assert [r.check_id for r in run_checks(cube(2), Z2, sel)] == sel


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        run_checks(cube(2), Z3)


# -- frozen equality instances -------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_cube_minkowski_upper_equality(n):
    r = one(cube(n), standard_lattice(n), "minkowski_upper")
    assert r.status == "equality"
    assert r.lhs == r.rhs == F(2) ** n
    assert r.margin == 0


@pytest.mark.parametrize("n", [2, 3])
def test_cross_minkowski_lower_equality(n):
    r = one(cross_polytope(n), standard_lattice(n), "minkowski_lower")
    assert r.status == "equality"
    assert r.lhs == F(2 ** n, __import__("math").factorial(n))


@pytest.mark.parametrize("n", [2, 3])
def test_dual_simplex_centered_lower_equality(n):
    import math

    r = one(dual_centered_simplex(n), standard_lattice(n), "centered_lower")
    assert r.status == "equality"
    assert r.lhs == F(n + 1, math.factorial(n))
    assert r.margin == 0


@pytest.mark.parametrize("n", [2, 3])
def test_cube_discrete_volsur_equality(n):
    r = one(cube(n), standard_lattice(n), "discrete_volsur")
    assert r.status == "equality"
    assert r.lhs == F(n, 2)


def test_cross_discrete_volsur_equality():
    r = one(cross_polytope(2), Z2, "discrete_volsur")
    assert r.status == "equality"


def test_cube_first_minimum_equality():
    r = one(cube(2), Z2, "minkowski_first")
    assert r.status == "equality"
    assert r.witnesses["lambda_1"] == 1


def test_cube_mahler_equality():
    r = one(cube(2), Z2, "mahler_conj")
    assert r.status == "equality"
    assert r.rhs == 8


def test_cube_transference_equality():
    r = one(cube(3), Z3, "transference")
    assert r.status == "equality"
    assert all(p["product"] == 1 for p in r.witnesses["parts"].values())


def test_cube_hx_upper_equality():
    r = one(cube(2), Z2, "hx_upper")
    assert r.status == "equality"


def test_simplex_hx_centered_equality():
    for n in (2, 3):
        r = one(centered_simplex(n), standard_lattice(n), "hx_centered_upper")
        assert r.status == "equality"
        assert r.lhs == centered_simplex(n).volume()


def test_simplex_ehrhart_instance_equality():
    r = one(centered_simplex(2), Z2, "ehrhart_conj_instance")
    assert r.status == "equality"
    assert r.lhs == r.rhs == F(9, 2)
    assert r.witnesses["nonzero_point"] is not None


def test_small_centered_body_skips_ehrhart_instance():
    r = one(cross_polytope(2), Z2, "ehrhart_conj_instance")
    assert r.status == "skipped"
    assert r.reason == "volume below the threshold"


def test_dual_simplex_makai_equalities():
    reps = by_id(run_checks(dual_centered_simplex(2), Z2))
    assert reps["makai_conj"].status == "equality"
    assert reps["makai_strong"].status == "equality"
    assert reps["alvarez_conj"].status == "equality"
    assert reps["mahler_nonsym_conj"].status == "equality"
    assert reps["mahler_nonsym_conj"].lhs == F(27, 4)
    assert reps["eggleston"].status == "equality"
    assert reps["bhw_upper"].status == "equality"


def test_triangle_eggleston_equality():
    r = one(centered_simplex(2), Z2, "eggleston")
    assert r.status == "equality"
    assert r.lhs == 6


def test_simplex_gv_upper_equality():
    r = one(centered_simplex(2), Z2, "gv_conj")
    assert r.status == "equality"
    assert r.witnesses["variants"]["closed"]["count"] == 10


# -- skip reasons --------------------------------------------------------------


def test_asymmetric_skips():
    reps = by_id(run_checks(centered_simplex(2), Z2))
    for cid in ("minkowski_first", "hhh_surface", "mahler_conj",
                "mahler_minima_conj", "transference", "minkowski_3n",
                "bhw_lower", "discrete_volsur"):
        assert reps[cid].status == "skipped"
        assert reps[cid].reason == "requires symmetric K"


def test_skew_lattice_skips_surface_checks():
    skew = make_lattice([[2, 1], [0, 1]])
    reps = by_id(run_checks(cube(2), skew))
    for cid in ("wills_lower", "henk_upper", "survol", "hhh_surface"):
        assert reps[cid].status == "skipped"
        assert reps[cid].reason == "requires the integer lattice"


def test_eggleston_dimension_skip():
    r = one(cube(3), Z3, "eggleston")
    assert r.status == "skipped"
    assert r.reason == "requires n = 2"


def test_thin_cube_threshold_skips():
    thin = cube(2, scale=F(1, 4))  # minima 4, 4
    reps = by_id(run_checks(thin, Z2))
    assert reps["bhw_lower"].status == "skipped"
    assert reps["bhw_lower"].reason == "requires lambda_n <= 2"
    assert reps["tointon_bound"].status == "skipped"
    assert reps["minkowski_3n"].status == "skipped"


def test_1d_surface_checks_skip():
    z1 = standard_lattice(1)
    reps = by_id(run_checks(box([F(3, 2)]), z1))
    assert reps["henk_upper"].status == "skipped"
    assert reps["henk_upper"].reason == "requires n >= 2"
    assert reps["survol"].status == "skipped"
    assert reps["wills_lower"].status == "equality"


# Bodies that reach the hypotheses no corpus instance reaches: every corpus
# body is a centered polytope.  The full reports are pinned in
# pinned_hypothesis_reports.json beside this file.
HYPOTHESIS_REPORTS = Path(__file__).with_name("pinned_hypothesis_reports.json")
HYPOTHESIS_BODIES = {
    # not a polytope
    "ellipsoid": lambda: ellipsoid([[1, 0], [0, F(1, 4)]]),
    # not centered, the origin still interior
    "shifted_simplex": lambda: centered_simplex(2).translate([F(1, 3), F(-1, 4)]),
    # the origin is a vertex
    "standard_simplex": lambda: standard_simplex(2),
}


@pytest.mark.parametrize("name", sorted(HYPOTHESIS_BODIES))
def test_unreached_hypotheses_pinned(name):
    pinned = json.loads(HYPOTHESIS_REPORTS.read_text())[name]
    assert [r.to_json() for r in run_checks(HYPOTHESIS_BODIES[name](), Z2)] == pinned


def test_unreached_hypothesis_reasons():
    reasons = {name: {r.reason for r in run_checks(make(), Z2) if r.status == "skipped"}
               for name, make in HYPOTHESIS_BODIES.items()}
    assert "requires a polytope" in reasons["ellipsoid"]
    assert "requires centered K" in reasons["shifted_simplex"]
    assert "requires the origin in the interior of K" not in reasons["shifted_simplex"]
    assert "requires the origin in the interior of K" in reasons["standard_simplex"]


# -- counting checks -----------------------------------------------------------


def test_tointon_box_equality():
    k = box([5, F(1, 2)])  # minima 1/5, 2; only the first is under the threshold
    r = one(k, Z2, "tointon_bound")
    assert r.status == "equality"
    assert r.witnesses["k"] == 1
    assert r.lhs == 11 and r.rhs == 11


def test_tointon_cube_equality():
    r = one(cube(2), Z2, "tointon_bound")
    assert r.status == "equality"
    assert r.lhs == 9


def test_gv_lower_gated_on_thin_body():
    thin = cube(2, scale=F(1, 10))
    r = one(thin, Z2, "gv_conj")
    assert r.status == "holds"
    assert r.lhs is None
    assert not r.witnesses["lower_evaluated"]
    assert r.witnesses["lower_skip_reason"] == "requires n*lambda_n <= 2"


def test_freyer_lucas_clamps_thin_body():
    thin = cube(2, scale=F(1, 10))
    r = one(thin, Z2, "freyer_lucas")
    assert r.status == "holds"
    assert r.lhs == 0
    assert r.witnesses["count_bound_status"] in ("holds", "equality")


def test_gv_both_variants_reported():
    r = one(cube(2, scale=2), Z2, "gv_conj")
    assert r.witnesses["variants"]["closed"]["count"] == 25
    assert r.witnesses["variants"]["interior"]["count"] == 9
    assert r.witnesses["lower_evaluated"]
    assert r.status == "holds"


def test_minkowski_3n_interior_point():
    r = one(cube(2, scale=2), Z2, "minkowski_3n")
    assert r.status == "holds"
    assert r.witnesses["count"] == 25
    assert r.witnesses["interior_count"] == 9


def test_bhw_chain_on_box():
    k = box([2, 1])
    reps = by_id(run_checks(k, Z2))
    up, conj = reps["bhw_upper"], reps["bhw_conj"]
    assert up.status in ("holds", "equality")
    assert conj.status == "equality"  # integer box is tight
    assert up.rhs >= conj.rhs >= F(conj.witnesses["count"])


def test_malikiosis_certified():
    r = one(cube(3), Z3, "malikiosis_bound")
    assert r.status == "holds"
    assert isinstance(r.rhs, Interval)
    assert r.witnesses["base"] == "(40/9)^(1/3)"
    r = one(centered_simplex(2), Z2, "malikiosis_bound")
    assert r.witnesses["base"] == "sqrt(3)"
    assert r.status == "holds"


def test_survol_strict_certification():
    r = one(cross_polytope(2), Z2, "survol")
    assert r.status == "holds"
    assert isinstance(r.rhs, Interval)


def test_wills_box_checks_every_index():
    r = one(box([2, 1]), Z2, "wills_lower")
    assert r.status == "holds"
    assert set(r.witnesses["parts"]) == {"i=1", "i=2"}
    part = r.witnesses["parts"]["i=1"]
    assert part["lhs"] == 2 and part["rhs"] == 3


def test_henk_box_exact_strict():
    r = one(box([2, 1]), Z2, "henk_upper")
    assert r.status == "holds"
    assert r.witnesses["parts"]["i=1"]["status"] == "holds"


# -- embedded sections ---------------------------------------------------------


def test_embedded_routing():
    lat = kernel_lattice([[1, 2, 3]])
    reps = by_id(run_checks(cube(3), lat))
    assert reps["vaaler_section"].status == "holds"
    assert reps["siegel_bv"].status == "holds"
    others = [r for r in reps.values() if r.check_id not in ("vaaler_section", "siegel_bv")]
    assert all(r.status == "skipped" and r.reason == "requires a full-rank lattice"
               for r in others)


def test_embedded_section_values():
    lat = kernel_lattice([[1, 2, 3]])
    v = one(cube(3), lat, "vaaler_section")
    assert v.lhs == 4
    assert isinstance(v.rhs, QuadVal) and v.rhs.square == F(224, 9)
    s = one(cube(3), lat, "siegel_bv")
    assert s.lhs == 2
    assert isinstance(s.rhs, QuadVal) and s.rhs.square == 14


def test_embedded_axis_plane_equalities():
    lat = make_lattice([[1, 0, 0], [0, 1, 0]])
    v = one(cube(3), lat, "vaaler_section")
    assert v.status == "equality"
    s = one(cube(3), lat, "siegel_bv")
    assert s.status == "equality"


def test_embedded_scaled_cube():
    lat = kernel_lattice([[1, 2, 3]])
    v = one(cube(3, scale=2), lat, "vaaler_section")
    assert v.status == "holds"
    assert v.lhs == 16
    s = one(cube(3, scale=2), lat, "siegel_bv")
    assert s.status == "holds"


def test_embedded_requires_cube():
    lat = kernel_lattice([[1, 2, 3]])
    r = one(box([2, 1, 1]), lat, "vaaler_section")
    assert r.status == "skipped"
    assert r.reason == "requires a cube"


def test_full_rank_skips_section_checks():
    reps = by_id(run_checks(cube(2), Z2))
    assert reps["vaaler_section"].reason == "requires an embedded lattice"
    assert reps["siegel_bv"].reason == "requires an embedded lattice"


# -- randomized battery --------------------------------------------------------


def test_random_battery_no_violations():
    for seed in range(20):
        rng = random.Random(1000 + seed)
        k, lat = random_instance(rng)
        reps = run_checks(k, lat)
        for r in reps:
            assert r.status != "undecided", (seed, r.check_id)
            if r.kind in ("theorem", "bound"):
                assert r.status != "violated", (seed, r.check_id, r.to_json())
        assert counterexample_candidates(reps) == []
        ids = by_id(reps)
        up, conj = ids["bhw_upper"], ids["bhw_conj"]
        if up.status != "skipped" and conj.status != "skipped":
            assert up.rhs >= conj.rhs >= F(conj.witnesses["count"])
        fl = ids["freyer_lucas"]
        if fl.status != "skipped":
            assert fl.witnesses["count_bound_status"] in ("holds", "equality")


def test_random_battery_margins_sign():
    for seed in range(8):
        rng = random.Random(2000 + seed)
        k, lat = random_instance(rng)
        for r in run_checks(k, lat):
            if r.margin is None:
                continue
            key = r.margin.lo if isinstance(r.margin, Interval) else r.margin
            if r.status == "holds":
                assert key >= 0 or isinstance(r.margin, Interval), r.check_id
            if r.status == "equality" and not isinstance(r.margin, Interval):
                assert r.margin == 0 or key >= 0


def test_generator_deterministic():
    a = random_instance(random.Random(7))
    b = random_instance(random.Random(7))
    assert a[0].to_json() == b[0].to_json()
    assert a[1].to_json() == b[1].to_json()


def test_generator_dimensions():
    seen = set()
    for seed in range(30):
        k, lat = random_instance(random.Random(seed))
        assert k.dim == lat.dim
        assert lat.is_full_rank()
        seen.add(k.dim)
    assert seen <= {2, 3, 4} and len(seen) >= 2


# -- serialization -------------------------------------------------------------


def test_reports_serialize():
    for r in run_checks(centered_simplex(2), Z2):
        doc = r.to_json()
        json.dumps(doc)
        assert doc["status"] in ("holds", "equality", "violated", "skipped", "undecided")
        assert doc["check_id"] == r.check_id


def test_interval_sides_serialize():
    r = one(cube(2), Z2, "mahler_bounds")
    doc = r.to_json()
    assert set(doc["lhs"]) == {"lo", "hi"}
    json.dumps(doc)


def test_instance_json_roundtrip():
    k, lat = random_instance(random.Random(3))
    doc = instance_json(k, lat)
    json.dumps(doc)
    k2 = Body.from_json(doc["body"])
    lat2 = Lattice.from_json(doc["lattice"])
    assert k2.volume() == k.volume()
    assert lat2.same_lattice(lat)


def test_candidate_json_contains_instance():
    r = one(cube(2), Z2, "mahler_conj")
    doc = candidate_json(r, cube(2), Z2)
    assert doc["candidate"]["check_id"] == "mahler_conj"
    assert "body" in doc and "lattice" in doc
    json.dumps(doc)


def test_counterexample_flag_requires_conjecture():
    fake = CheckReport("bhw_conj", "conjecture", F(1), F(0), "violated", F(-1), {})
    assert fake.is_counterexample_candidate
    fake2 = CheckReport("bhw_upper", "theorem", F(1), F(0), "violated", F(-1), {})
    assert not fake2.is_counterexample_candidate
    assert counterexample_candidates([fake, fake2]) == [fake]


def test_refine_is_finer_than_the_working_width():
    inst = _Instance(standard_simplex(2), Z2)  # its hypotenuse is irrational
    assert _refine_width() == _REFINE_WIDTH == DEFAULT_WIDTH / 2 ** 32
    with working_width(F(1, 2 ** 128)):
        assert _refine_width() == F(1, 2 ** 160)
        assert 0 < inst.surface_refined().width <= F(1, 2 ** 160)
    with working_width(F(1, 2 ** 8)):
        assert _refine_width() == _REFINE_WIDTH


def _origin_interior_bodies():
    """The named corpus bodies, random_instance draws 0-159, their symmetrals and polars."""
    bodies = [k for _, k, _ in _fixed_instances()]
    bodies += [random_instance(random.Random(idx))[0] for idx in range(160)]
    bodies += [symmetrize(k) for k in bodies if k.is_polytope]
    bodies += [polar_body(k) for k in bodies if k.contains([0] * k.dim, strict=True)]
    # the origin on a vertex, on a facet and outside, and two ellipsoids
    bodies += [standard_simplex(2), box([2, 1]).translate([2, 0]), cube(3).translate([0, 0, 2]),
               vpoly([[0, -1], [2, 1], [-1, 1]]).translate([F(1, 2), 0]),
               hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 1]),
               ellipsoid([[2, 1], [1, 3]]), ellipsoid([[1, 0, 0], [0, 4, 0], [0, 0, F(1, 9)]])]
    return bodies


def test_origin_interior_matches_the_strict_containment():
    seen = {True: 0, False: 0}
    for k in _origin_interior_bodies():
        want = k.contains([0] * k.dim, strict=True)
        assert _Instance(k, standard_lattice(k.dim)).origin_interior is want
        seen[want] += 1
    assert seen[False] >= 5


def test_origin_interior_keeps_the_vertex_guard():
    k = vpoly([[int(i == j) * s for j in range(7)] for i in range(7) for s in (1, -1)])
    with pytest.raises(DimensionGuardError):
        k.contains([0] * 7, strict=True)
    with pytest.raises(DimensionGuardError):
        _Instance(k, standard_lattice(7)).origin_interior


# -- ellipsoids, which random_instance never draws ----------------------------

@pytest.mark.parametrize("k, lat, minima", [
    (unit_ball(2), Z2, [1, 1]),
    (unit_ball(3), Z3, [1, 1, 1]),
    # Q(x) = 2 x_1^2 + 3 x_2^2 on Z^2: e_1 and e_2; QuadVal(s) is the square root of s
    (ellipsoid([[2, 0], [0, 3]]), Z2, [QuadVal(2), QuadVal(3)]),
    # on rows b1 = (1, 1/2) and b2 = (0, 3/2): Q(b2 - b1) = Q(-1, 1) = 3, Q(b1) = 15/4
    (ellipsoid([[2, 1], [1, 3]]), make_lattice([[1, F(1, 2)], [0, F(3, 2)]]),
     [QuadVal(3), QuadVal(F(15, 4))]),
])
def test_run_checks_on_ellipsoids(k, lat, minima):
    reports = {r.check_id: r for r in run_checks(k, lat)}
    assert not [cid for cid, r in reports.items() if r.kind == "theorem" and r.status == "violated"]
    assert list(_Instance(k, lat).lam_s.values) == minima
    assert reports["transference"].status == "equality"
    # vol(E) vol(E polar) is omega_n^2 exactly, the upper bound itself, so no width separates them
    mahler = reports["mahler_bounds"]
    assert mahler.status == "undecided"
    assert mahler.witnesses["upper_status"] == "undecided"
    json.dumps(mahler.to_json())


def test_count_ratio_bounds_enclose_the_ball_ratios():
    import mpmath

    rows = count_ratio_bounds(unit_ball(2), Z2, [1, 2])
    # 5 points of Z^2 in the unit disc, 13 in the disc of radius 2
    with mpmath.workdps(50):
        for (rho, iv), want in zip(rows, [5 / mpmath.pi, 13 / (4 * mpmath.pi)]):
            assert isinstance(iv, Interval)
            assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= want
            assert want <= mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
    assert [rho for rho, _ in rows] == [1, 2]
