"""Registry of named volume/minima/point-count checks on a body-lattice pair.

Every check evaluates one classical inequality, equality case, or open
conjecture on an instance (K, L) and reports exact sides together with a
status:

    holds      satisfied with positive slack
    equality   satisfied and tied exactly on at least one side
    violated   fails; for conjecture-kind checks this flags a
               counterexample candidate rather than a library bug
    skipped    a hypothesis of the statement is not met (the reason names it)
    undecided  an interval comparison could not be separated at the
               working precision

Each check declares its hypotheses when it is registered, in order, from one
table (symmetric K, a polytope, the integer lattice, ...).  Whether L is
full-rank or embedded is one of them: the cube-section checks require an
embedded lattice, every other check a full-rank one.  run_checks tests them
in order and skips the check with the first that fails as its reason.  The
hypotheses that carry witnesses (a volume or point-count threshold, a bound
on the minima) are tested by the check itself.

Rational and quadratic sides are compared exactly.  Sides only available
as certified enclosures (surface areas, the constants pi and e) are decided
by one-sided interval separation and never certify an equality; one
comparison routine gives every check its status, margin and the reason for
an undecided result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, floor, isqrt
from typing import Callable, Optional, Union

from .body import (
    BOX,
    Body,
    box,
    centered_simplex,
    cross_polytope,
    cube,
    dual_centered_simplex,
    generalized_hexagon,
    hpoly,
    intrinsic_volumes_box,
    polar_body,
    symmetrize,
)
from .counting import count_points, ehrhart
from .exactmath import (
    Interval,
    QuadVal,
    current_width,
    e_interval,
    pi_interval,
    quad_or_rat,
    rat,
    rat_str,
    root_interval,
    sqrt_interval,
    unit_ball_volume_interval,
)
from .lattice import Lattice, make_lattice, standard_lattice
from .minima import successive_minima
from .siegel import _section_content_sq

Side = Union[Fraction, QuadVal, Interval]

# enumeration guard for the dilate counts behind Ehrhart coefficients
_EHRHART_GUARD = 25_000

# retry width for undecided interval comparisons: 2^-96 at the default working
# width, and 2^32 times finer than any narrower one
_REFINE_WIDTH = Fraction(1, 2 ** 96)


def _refine_width() -> Fraction:
    return min(_REFINE_WIDTH, current_width() / 2 ** 32)


# ---------------------------------------------------------------------------
# mixed-type scalar helpers: Fraction and QuadVal stay exact, Interval taints


def _iv(v, max_width=None) -> Interval:
    if isinstance(v, Interval):
        return v
    if isinstance(v, QuadVal):
        return v.to_interval(max_width)
    return Interval.point(rat(v))


def _square(v) -> Fraction:
    return v.square if isinstance(v, QuadVal) else rat(v) ** 2


def _prod(values):
    out: Side = Fraction(1)
    for v in values:
        out = out * v
    if isinstance(out, QuadVal):
        r = out.as_rational()
        if r is not None:
            return r
    return out


def _pow(v, k: int):
    if isinstance(v, (Interval, QuadVal)):
        return _prod([v] * k)
    return rat(v) ** k


def _floor_scalar(v) -> int:
    """floor of a Fraction or QuadVal, exact."""
    if isinstance(v, QuadVal):
        s = v.square
        return isqrt(s.numerator * s.denominator) // s.denominator
    return floor(rat(v))


def _margin_key(m) -> Fraction:
    return m.lo if isinstance(m, Interval) else rat(m)


def _min_margin(margins):
    margins = [m for m in margins if m is not None]
    if not margins:
        return None
    return min(margins, key=_margin_key)


def _certify_le(lhs, rhs, strict: bool = False) -> str:
    """Status of lhs <= rhs (or < when strict); exact unless a side is an Interval."""
    if not isinstance(lhs, Interval) and not isinstance(rhs, Interval):
        if lhs == rhs:
            return "violated" if strict else "equality"
        return "holds" if lhs < rhs else "violated"
    li, ri = _iv(lhs), _iv(rhs)
    if strict:
        if li.surely_lt(ri):
            return "holds"
        if ri.surely_le(li):
            return "violated"
    else:
        if li.surely_le(ri):
            return "holds"
        if ri.surely_lt(li):
            return "violated"
    return "undecided"


def _combine(statuses) -> str:
    if "violated" in statuses:
        return "violated"
    if "undecided" in statuses:
        return "undecided"
    if "equality" in statuses:
        return "equality"
    return "holds"


def _jsonify(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return rat_str(x)
    if isinstance(x, QuadVal):
        return {"sqrt_of": rat_str(x.square)}
    if isinstance(x, Interval):
        return {"lo": rat_str(x.lo), "hi": rat_str(x.hi)}
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return str(x)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a single named check on one instance.

    margin is the slack of the binding comparison (negative iff violated);
    it is None for skipped checks.  Sides of skipped checks are None when
    the missing hypothesis makes them meaningless.
    """

    check_id: str
    kind: str
    lhs: Optional[Side]
    rhs: Optional[Side]
    status: str
    margin: Optional[Side]
    witnesses: dict
    reason: Optional[str] = None

    @property
    def is_counterexample_candidate(self) -> bool:
        return self.kind == "conjecture" and self.status == "violated"

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "kind": self.kind,
            "lhs": _jsonify(self.lhs),
            "rhs": _jsonify(self.rhs),
            "status": self.status,
            "margin": _jsonify(self.margin),
            "witnesses": _jsonify(self.witnesses),
            "reason": self.reason,
        }


def _skipped(reason, **witnesses) -> tuple:
    return None, None, "skipped", None, dict(witnesses), reason


class _Comparisons:
    """Comparisons lhs <= rhs (or <) that one report combines.

    An undecided comparison is retried once with the sharper right side that
    refine() returns.  The report takes the combined status, the least
    margin, and the reason when the result is undecided.
    """

    def __init__(self):
        self.statuses, self.margins = [], []

    def le(self, lhs, rhs, strict=False, refine=None) -> tuple:
        """Certify lhs <= rhs; return the right side compared last and the status."""
        status = _certify_le(lhs, rhs, strict)
        if status == "undecided" and refine is not None:
            rhs = refine()
            status = _certify_le(lhs, rhs, strict)
        self.statuses.append(status)
        self.margins.append(rhs - lhs)
        return rhs, status

    def report(self, lhs, rhs, witnesses) -> tuple:
        status = _combine(self.statuses)
        reason = "interval overlap; refine the working precision" if status == "undecided" else None
        return lhs, rhs, status, _min_margin(self.margins), witnesses, reason


def _le_report(lhs, rhs, witnesses=None, strict=False, refine=None) -> tuple:
    """Report for lhs <= rhs (or <), retrying once at higher precision."""
    cmp = _Comparisons()
    rhs, _ = cmp.le(lhs, rhs, strict, refine)
    return cmp.report(lhs, rhs, witnesses or {})


# ---------------------------------------------------------------------------
# shared per-instance state


class _Instance:
    def __init__(self, k: Body, lat: Lattice):
        if k.dim != lat.dim:
            raise ValueError("body and lattice live in different dimensions")
        self.k = k
        self.lat = lat
        self.n = k.dim

    @cached_property
    def embedded(self) -> bool:
        return not self.lat.is_full_rank()

    @cached_property
    def det(self):
        return self.lat.det()

    @cached_property
    def vol(self):
        return self.k.volume()

    @cached_property
    def symmetric(self) -> bool:
        return self.k.is_symmetric()

    @cached_property
    def centered(self) -> bool:
        return self.k.is_centered()

    @cached_property
    def origin_interior(self) -> bool:
        # an ellipsoid x^T Q x <= 1 holds the origin inside; a polytope does when
        # every facet row a . x <= w has w > 0
        return not self.k.is_polytope or all(w > 0 for _, w in self.k._integer_hrep())

    @cached_property
    def is_zn(self) -> bool:
        return self.lat.same_lattice(standard_lattice(self.n))

    @cached_property
    def cube_side(self):
        # the common side of a uniform box, None for any other body
        k = self.k
        if k.kind != BOX or len(set(k.data)) != 1:
            return None
        return k.data[0]

    @cached_property
    def ks(self) -> Body:
        return symmetrize(self.k)

    @cached_property
    def lam_s(self):
        return successive_minima(self.ks, self.lat)

    @cached_property
    def lam_body(self):
        # minima of K itself; valid once the origin is interior
        if self.symmetric:
            return self.lam_s
        return successive_minima(self.k, self.lat, allow_asymmetric=True)

    @cached_property
    def dual_lat(self) -> Lattice:
        return self.lat.dual()

    @cached_property
    def ks_polar(self) -> Body:
        return polar_body(self.ks)

    @cached_property
    def k_polar(self) -> Body:
        if self.symmetric:
            return self.ks_polar
        return polar_body(self.k)

    @cached_property
    def lam_ks_polar(self):
        return successive_minima(self.ks_polar, self.dual_lat)

    @cached_property
    def lam_k_polar(self):
        if self.symmetric:
            return self.lam_ks_polar
        return successive_minima(self.k_polar, self.dual_lat, allow_asymmetric=True)

    @cached_property
    def count(self) -> int:
        return count_points(self.k, self.lat)

    @cached_property
    def count_interior(self) -> int:
        return count_points(self.k, self.lat, interior=True)

    @cached_property
    def surface(self) -> Interval:
        return self.k.surface_area()

    def surface_refined(self) -> Interval:
        return self.k.surface_area(max_width=_refine_width())


# ---------------------------------------------------------------------------
# registry plumbing

# the hypotheses a check can declare: name -> (skip reason, test on the instance)
_HYPOTHESES = {
    "full-rank": ("requires a full-rank lattice", lambda inst: not inst.embedded),
    "embedded": ("requires an embedded lattice", lambda inst: inst.embedded),
    "symmetric": ("requires symmetric K", lambda inst: inst.symmetric),
    "centered": ("requires centered K", lambda inst: inst.centered),
    "origin-interior": ("requires the origin in the interior of K",
                        lambda inst: inst.origin_interior),
    "polytope": ("requires a polytope", lambda inst: inst.k.is_polytope),
    "lattice-polytope": ("requires a lattice polytope (vertices in L)",
                         lambda inst: all(inst.lat.contains(v) for v in inst.k.vertices())),
    "cube": ("requires a cube", lambda inst: inst.cube_side is not None),
    "Z^n": ("requires the integer lattice", lambda inst: inst.is_zn),
    "n>=2": ("requires n >= 2", lambda inst: inst.n >= 2),
    "n=2": ("requires n = 2", lambda inst: inst.n == 2),
}


@dataclass(frozen=True)
class _Check:
    check_id: str
    kind: str
    applies: str
    needs: tuple
    fn: Callable


_CHECKS: "dict[str, _Check]" = {}


def _check(cid: str, kind: str, applies: str, *needs: str):
    """Register a check that runs once the named hypotheses hold, tested in order.

    The check returns the fields of its CheckReport after the id and kind.
    """
    def deco(fn):
        _CHECKS[cid] = _Check(cid, kind, applies, tuple(_HYPOTHESES[h] for h in needs), fn)
        return fn

    return deco


# ---------------------------------------------------------------------------
# volume vs minima


@_check("minkowski_first", "theorem", "symmetric K, full-rank L", "full-rank", "symmetric")
def _c_minkowski_first(inst: _Instance):
    lam1 = inst.lam_s.values[0]
    lhs = _pow(lam1, inst.n) * inst.vol
    rhs = Fraction(2) ** inst.n * inst.det
    wit = {"lambda_1": lam1, "witness": inst.lam_s.witnesses[0]}
    return _le_report(lhs, rhs, wit)


@_check("minkowski_upper", "theorem", "any full-dimensional K, full-rank L", "full-rank")
def _c_minkowski_upper(inst: _Instance):
    lhs = _prod(inst.lam_s.values) * inst.vol
    rhs = Fraction(2) ** inst.n * inst.det
    wit = {"minima": list(inst.lam_s.values), "witnesses": list(inst.lam_s.witnesses)}
    return _le_report(lhs, rhs, wit)


@_check("minkowski_lower", "theorem", "any full-dimensional K, full-rank L", "full-rank")
def _c_minkowski_lower(inst: _Instance):
    lhs = Fraction(2 ** inst.n, factorial(inst.n)) * inst.det
    rhs = _prod(inst.lam_s.values) * inst.vol
    wit = {"minima": list(inst.lam_s.values)}
    return _le_report(lhs, rhs, wit)


@_check("centered_lower", "theorem", "centered K (centroid at the origin)",
        "full-rank", "centered")
def _c_centered_lower(inst: _Instance):
    lam = inst.lam_body
    lhs = Fraction(inst.n + 1, factorial(inst.n)) * inst.det
    rhs = _prod(lam.values) * inst.vol
    wit = {"minima": list(lam.values), "witnesses": list(lam.witnesses)}
    return _le_report(lhs, rhs, wit)


@_check("ehrhart_conj_instance", "conjecture", "centered K above the volume threshold",
        "full-rank", "centered")
def _c_ehrhart_conj(inst: _Instance):
    threshold = Fraction((inst.n + 1) ** inst.n, factorial(inst.n)) * inst.det
    vol = inst.vol
    if isinstance(vol, Interval):
        if vol.surely_lt(threshold):
            hyp = False
        elif Interval.point(threshold).surely_le(vol):
            hyp = True
        else:
            return (threshold, vol, "undecided", None, {"threshold": threshold},
                    "volume enclosure straddles the threshold")
    else:
        hyp = vol >= threshold
    if not hyp:
        return _skipped("volume below the threshold", volume=vol, threshold=threshold)
    lam = inst.lam_body
    found = lam.values[0] <= 1
    if found:
        status = "equality" if (not isinstance(vol, Interval) and vol == threshold) else "holds"
    else:
        status = "violated"
    wit = {
        "threshold": threshold,
        "volume": vol,
        "lambda_1": lam.values[0],
        "nonzero_point": lam.witnesses[0] if found else None,
    }
    return threshold, vol, status, vol - threshold, wit, None


# ---------------------------------------------------------------------------
# intrinsic volumes and surface area (integer lattice only)


@_check("wills_lower", "theorem", "Z^n; boxes check every index, other polytopes the top two",
        "full-rank", "Z^n", "polytope")
def _c_wills_lower(inst: _Instance):
    lam = inst.lam_s.values
    n = inst.n
    # (index i, lambda_1 ... lambda_i times the i-th intrinsic volume, its refinement)
    if inst.k.kind == BOX:
        intr = intrinsic_volumes_box(inst.k.data)
        indices = [(i, _prod(lam[:i]) * intr[i], None) for i in range(1, n + 1)]
    else:
        indices = [(n, _prod(lam) * inst.vol, None)]
        if n >= 2:
            head = _prod(lam[:n - 1])
            indices.append((n - 1, head * (Fraction(1, 2) * inst.surface),
                            lambda: head * (Fraction(1, 2) * inst.surface_refined())))
    cmp = _Comparisons()
    parts = {}
    for i, rhs, refine in indices:
        lhs = Fraction(2 ** i, factorial(i))
        rhs, status = cmp.le(lhs, rhs, refine=refine)
        parts[f"i={i}"] = {"lhs": lhs, "rhs": rhs, "status": status}
    top = parts[f"i={n}"]
    return cmp.report(top["lhs"], top["rhs"], {"minima": list(lam), "parts": parts})


@_check("henk_upper", "theorem", "Z^n, n >= 2; strict, certified by interval separation off boxes",
        "full-rank", "Z^n", "n>=2", "polytope")
def _c_henk_upper(inst: _Instance):
    lam = inst.lam_s.values
    n = inst.n
    cmp = _Comparisons()
    parts = {}
    if inst.k.kind == BOX:
        intr = intrinsic_volumes_box(inst.k.data)
        for i in range(1, n):
            lhs = _prod(lam[i:])
            rhs, status = cmp.le(lhs, Fraction(2 ** (n - i)) * intr[i] / inst.vol, strict=True)
            parts[f"i={i}"] = {"lhs": lhs, "rhs": rhs, "status": status}
    else:
        # top index only, cleared by vol: lambda_n * vol < S
        lhs = lam[-1] * inst.vol
        rhs, status = cmp.le(lhs, inst.surface, strict=True, refine=inst.surface_refined)
        parts[f"i={n - 1}"] = {"lhs": lhs, "rhs": rhs, "status": status,
                               "comparison": "lambda_n * vol < surface"}
    top = parts[f"i={n - 1}"]
    return cmp.report(top["lhs"], top["rhs"], {"minima": list(lam), "parts": parts})


@_check("survol", "theorem", "Z^n, n >= 2; strict", "full-rank", "Z^n", "n>=2", "polytope")
def _c_survol(inst: _Instance):
    lam_n = inst.lam_s.values[-1]
    lhs = lam_n * inst.vol
    wit = {"lambda_n": lam_n, "comparison": "lambda_n * vol < surface"}
    return _le_report(lhs, inst.surface, wit, strict=True, refine=inst.surface_refined)


@_check("hhh_surface", "theorem", "symmetric polytope, Z^n",
        "full-rank", "symmetric", "Z^n", "polytope")
def _c_hhh_surface(inst: _Instance):
    sq = [_square(v) for v in inst.lam_s.values]
    all_sq = Fraction(1)
    for s in sq:
        all_sq *= s
    total = sum(all_sq / s for s in sq)
    root = quad_or_rat(total)
    lhs = Fraction(2 ** inst.n, factorial(inst.n - 1))
    rhs = root * inst.surface
    wit = {"minima": list(inst.lam_s.values), "sum_of_square_products": total}
    return _le_report(lhs, rhs, wit,
                      refine=lambda: _iv(root, _refine_width()) * inst.surface_refined())


# ---------------------------------------------------------------------------
# volume products with the polar body


@_check("mahler_bounds", "bound", "symmetric K", "full-rank", "symmetric")
def _c_mahler_bounds(inst: _Instance):
    n = inst.n
    product = inst.vol * inst.ks_polar.volume()
    lower = pi_interval().pow_int(n) * Fraction(1, factorial(n))
    upper = unit_ball_volume_interval(n).pow_int(2)
    cmp = _Comparisons()
    _, s_lo = cmp.le(lower, product)
    _, s_hi = cmp.le(product, upper)
    wit = {"volume_product": product, "lower_status": s_lo, "upper_status": s_hi}
    return cmp.report(lower, upper, wit)


@_check("mahler_conj", "conjecture", "symmetric K", "full-rank", "symmetric")
def _c_mahler_conj(inst: _Instance):
    lhs = Fraction(4 ** inst.n, factorial(inst.n))
    rhs = inst.vol * inst.ks_polar.volume()
    return _le_report(lhs, rhs, {"volume_product": rhs})


@_check("mahler_nonsym_conj", "conjecture", "K with the origin interior",
        "full-rank", "origin-interior")
def _c_mahler_nonsym(inst: _Instance):
    n = inst.n
    lhs = Fraction((n + 1) ** (n + 1), factorial(n) ** 2)
    rhs = inst.vol * inst.k_polar.volume()
    return _le_report(lhs, rhs, {"volume_product": rhs})


@_check("mahler_minima_conj", "conjecture", "symmetric K", "full-rank", "symmetric")
def _c_mahler_minima(inst: _Instance):
    lam = inst.lam_ks_polar.values
    lhs = Fraction(2 ** inst.n, factorial(inst.n)) * inst.det * _prod(lam)
    rhs = inst.vol
    return _le_report(lhs, rhs, {"dual_minima": list(lam)})


@_check("makai_conj", "conjecture", "any full-dimensional K", "full-rank")
def _c_makai_conj(inst: _Instance):
    lam1 = inst.lam_ks_polar.values[0]
    lhs = Fraction(inst.n + 1, factorial(inst.n)) * inst.det * _pow(lam1, inst.n)
    rhs = inst.vol
    return _le_report(lhs, rhs, {"dual_lambda_1": lam1})


@_check("makai_strong", "conjecture", "any full-dimensional K", "full-rank")
def _c_makai_strong(inst: _Instance):
    lam = inst.lam_ks_polar.values
    lhs = Fraction(inst.n + 1, factorial(inst.n)) * inst.det * _prod(lam)
    rhs = inst.vol
    return _le_report(lhs, rhs, {"dual_minima": list(lam)})


@_check("eggleston", "theorem", "planar K (n = 2)", "full-rank", "n=2")
def _c_eggleston(inst: _Instance):
    lhs = Fraction(6)
    rhs = inst.vol * inst.ks_polar.volume()
    return _le_report(lhs, rhs, {"volume_product": rhs})


@_check("alvarez_conj", "conjecture", "K with the origin interior",
        "full-rank", "origin-interior")
def _c_alvarez(inst: _Instance):
    lam1 = inst.lam_k_polar.values[0]
    lhs = Fraction(inst.n + 1, factorial(inst.n)) * inst.det * _pow(lam1, inst.n)
    rhs = inst.vol
    return _le_report(lhs, rhs, {"polar_lambda_1": lam1})


@_check("transference", "theorem", "symmetric K", "full-rank", "symmetric")
def _c_transference(inst: _Instance):
    n = inst.n
    lam = inst.lam_s.values
    dual = inst.lam_ks_polar.values
    lhs, rhs = Fraction(1), Fraction(factorial(n))
    cmp = _Comparisons()
    parts = {}
    for i in range(1, n + 1):
        p = lam[i - 1] * dual[n - i]
        _, s_lo = cmp.le(lhs, p)
        _, s_hi = cmp.le(p, rhs)
        parts[f"i={i}"] = {"product": p, "status": _combine([s_lo, s_hi])}
    return cmp.report(lhs, rhs, {"minima": list(lam), "dual_minima": list(dual), "parts": parts})


@_check("hx_upper", "theorem", "any full-dimensional K", "full-rank")
def _c_hx_upper(inst: _Instance):
    lam = inst.lam_ks_polar.values
    lhs = inst.vol
    rhs = Fraction(2 ** inst.n) * inst.det * _prod(lam)
    return _le_report(lhs, rhs, {"dual_minima": list(lam)})


@_check("hx_centered_upper", "theorem", "centered K", "full-rank", "centered")
def _c_hx_centered_upper(inst: _Instance):
    lam = inst.lam_k_polar.values
    n = inst.n
    lhs = inst.vol
    rhs = Fraction((n + 1) ** n, factorial(n)) * inst.det * _prod(lam)
    return _le_report(lhs, rhs, {"polar_minima": list(lam)})


# ---------------------------------------------------------------------------
# lattice point counts vs minima


@_check("minkowski_3n", "theorem", "symmetric K holding at least 3^n + 1 points",
        "full-rank", "symmetric")
def _c_minkowski_3n(inst: _Instance):
    threshold = 3 ** inst.n + 1
    if inst.count < threshold:
        return _skipped("point count below the threshold", count=inst.count, threshold=threshold)
    interior = inst.count_interior
    status = "holds" if interior >= 2 else "violated"
    wit = {"count": inst.count, "interior_count": interior, "threshold": threshold}
    return (Fraction(threshold), Fraction(inst.count), status, Fraction(interior - 2), wit,
            None)


@_check("bhw_upper", "theorem", "any full-dimensional K", "full-rank")
def _c_bhw_upper(inst: _Instance):
    lam1 = inst.lam_s.values[0]
    base = _floor_scalar(Fraction(2) / lam1) + 1
    lhs = Fraction(inst.count)
    rhs = Fraction(base ** inst.n)
    wit = {"count": inst.count, "lambda_1": lam1, "base": base}
    return _le_report(lhs, rhs, wit)


@_check("bhw_conj", "conjecture", "any full-dimensional K", "full-rank")
def _c_bhw_conj(inst: _Instance):
    factors = [_floor_scalar(Fraction(2) / v) + 1 for v in inst.lam_s.values]
    rhs = Fraction(1)
    for f in factors:
        rhs *= f
    lhs = Fraction(inst.count)
    wit = {"count": inst.count, "factors": factors, "minima": list(inst.lam_s.values)}
    return _le_report(lhs, rhs, wit)


@_check("bhw_lower", "theorem", "symmetric K with lambda_n <= 2", "full-rank", "symmetric")
def _c_bhw_lower(inst: _Instance):
    lam = inst.lam_s.values
    if not lam[-1] <= 2:
        return _skipped("requires lambda_n <= 2", minima=list(lam))
    lhs = Fraction(1, factorial(inst.n)) * _prod([Fraction(2) / v - 1 for v in lam])
    rhs = Fraction(inst.count)
    return _le_report(lhs, rhs, {"count": inst.count, "minima": list(lam)})


def _four_over_e() -> Interval:
    e = e_interval()
    return Interval(Fraction(4) / e.hi, Fraction(4) / e.lo)


@_check("malikiosis_bound", "bound", "any full-dimensional K", "full-rank")
def _c_malikiosis(inst: _Instance):
    lam = inst.lam_s.values
    factors = [_floor_scalar(Fraction(2) / v) + 1 for v in lam]
    prod = Fraction(1)
    for f in factors:
        prod *= f

    def rhs_at(width):
        if inst.symmetric:
            base = root_interval(Fraction(40, 9), 3, max_width=width)
        else:
            base = sqrt_interval(3, max_width=width)
        return _four_over_e() * base.pow_int(inst.n - 1) * prod

    lhs = Fraction(inst.count)
    rhs = rhs_at(None)
    wit = {"count": inst.count, "floor_product": prod,
           "base": "(40/9)^(1/3)" if inst.symmetric else "sqrt(3)"}
    return _le_report(lhs, rhs, wit, refine=lambda: rhs_at(_refine_width()))


@_check("tointon_bound", "bound", "K with at least one minimum under the threshold",
        "full-rank")
def _c_tointon(inst: _Instance):
    lam = inst.lam_s.values
    threshold = 1 if inst.symmetric else 2
    k = sum(1 for v in lam if v <= threshold)
    if k == 0:
        return _skipped("no successive minimum meets the threshold",
                        minima=list(lam), threshold=threshold)
    rhs = _prod([Fraction(2) / v + 1 for v in lam[:k]])
    lhs = Fraction(inst.count)
    wit = {"count": inst.count, "k": k, "threshold": threshold, "minima": list(lam)}
    return _le_report(lhs, rhs, wit)


@_check("gv_conj", "conjecture", "any full-dimensional K; lower bound needs n*lambda_n <= 2",
        "full-rank")
def _c_gv(inst: _Instance):
    lam = inst.lam_s.values
    n = inst.n
    upper = _prod([1 + lam[i - 1] * Fraction(i, 2) for i in range(1, n + 1)])
    lower_applies = lam[-1] * n <= 2
    lower = None
    if lower_applies:
        lower = _prod([1 - lam[i - 1] * Fraction(i, 2) for i in range(1, n + 1)])
    cmp = _Comparisons()
    variants = {}
    for name, g in (("closed", inst.count), ("interior", inst.count_interior)):
        mid = Fraction(g) * inst.det
        _, s_hi = cmp.le(mid, upper * inst.vol)
        entry = {"count": g, "upper_status": s_hi}
        if lower is not None:
            _, s_lo = cmp.le(lower * inst.vol, mid)
            entry["lower_status"] = s_lo
        variants[name] = entry
    wit = {
        "minima": list(lam),
        "variants": variants,
        "lower_evaluated": bool(lower_applies),
        "comparison": "lower * vol <= count * det <= upper * vol",
    }
    if not lower_applies:
        wit["lower_skip_reason"] = "requires n*lambda_n <= 2"
    return cmp.report(lower, upper, wit)


@_check("freyer_lucas", "theorem", "any full-dimensional K; negative lower factors clamp to zero",
        "full-rank")
def _c_freyer_lucas(inst: _Instance):
    lam = inst.lam_s.values
    n = inst.n
    lower_factors = []
    for v in lam:
        t = v * Fraction(n, 2)
        lower_factors.append(Fraction(0) if t >= 1 else 1 - t)
    lower = _prod(lower_factors)
    upper = _prod([1 + v * Fraction(n, 2) for v in lam])
    mid = Fraction(inst.count) * inst.det
    cmp = _Comparisons()
    _, s_lo = cmp.le(lower * inst.vol, mid)
    _, s_hi = cmp.le(mid, upper * inst.vol)
    # arithmetic consequence of the upper bound and the minima-volume bound
    count_bound = _prod([Fraction(2) / v + n for v in lam])
    _, s_cons = cmp.le(Fraction(inst.count), count_bound)
    wit = {
        "count": inst.count,
        "minima": list(lam),
        "lower_status": s_lo,
        "upper_status": s_hi,
        "count_bound": count_bound,
        "count_bound_status": s_cons,
        "comparison": "lower * vol <= count * det <= upper * vol",
    }
    return cmp.report(lower, upper, wit)


@_check("discrete_volsur", "theorem", "symmetric polytope with vertices in L",
        "full-rank", "symmetric", "polytope", "lattice-polytope")
def _c_discrete_volsur(inst: _Instance):
    n = inst.n
    estimated = inst.vol * Fraction(n ** n) / inst.det
    if estimated > _EHRHART_GUARD:
        return _skipped("dilate-count guard exceeded", estimated_points=estimated)
    poly = ehrhart(inst.k, inst.lat, holdout=False)
    lhs = poly.coefficients[n - 1] / poly.coefficients[n]
    lam = inst.lam_s.values
    total: Side = Fraction(0)
    for v in lam:
        total += v
    rhs = Fraction(1, 2) * total
    wit = {"coefficients": list(poly.coefficients), "minima": list(lam)}
    return _le_report(lhs, rhs, wit)


# ---------------------------------------------------------------------------
# cube sections through embedded lattices


@_check("vaaler_section", "theorem", "uniform box cut by an embedded lattice's span",
        "embedded", "cube")
def _c_vaaler_section(inst: _Instance):
    s = inst.cube_side
    d = inst.lat.rank
    # the section of the cube scaled by s has s^d times the unit cube's content
    content_sq = _section_content_sq(inst.lat) * s ** (2 * d)
    lhs = (2 * s) ** d
    rhs = quad_or_rat(content_sq)
    wit = {"section_dim": d, "content_squared": content_sq}
    return _le_report(lhs, rhs, wit)


@_check("siegel_bv", "theorem", "uniform box with an embedded lattice", "embedded", "cube")
def _c_siegel_bv(inst: _Instance):
    # a cube is symmetric, so the minima of its symmetral are its own
    res = inst.lam_s
    lhs = _prod(res.values) * inst.cube_side ** inst.lat.rank
    rhs = inst.det
    wit = {"minima": list(res.values), "witnesses": list(res.witnesses)}
    return _le_report(lhs, rhs, wit)


# ---------------------------------------------------------------------------
# public interface


def list_checks() -> list:
    """Registry listing: id, kind, and the applicability note, in fixed order."""
    return [{"check_id": c.check_id, "kind": c.kind, "applies": c.applies}
            for c in _CHECKS.values()]


def run_checks(k: Body, lat: Lattice, selection=None) -> list:
    """Evaluate the selected checks (default: all) on the instance (k, lat).

    A check whose declared hypotheses do not all hold reports status skipped
    with the first one that fails.  Whether L is full-rank is one of them: a
    rank-deficient lattice runs only the embedded-section checks.
    """
    if selection is None or selection == "all":
        ids = list(_CHECKS)
    else:
        ids = list(selection)
        for cid in ids:
            if cid not in _CHECKS:
                raise ValueError(f"unknown check id: {cid}")
    inst = _Instance(k, lat)
    out = []
    for cid in ids:
        c = _CHECKS[cid]
        failed = next((reason for reason, holds in c.needs if not holds(inst)), None)
        fields = c.fn(inst) if failed is None else _skipped(failed)
        out.append(CheckReport(cid, c.kind, *fields))
    return out


def counterexample_candidates(reports) -> list:
    return [r for r in reports if r.is_counterexample_candidate]


def instance_json(k: Body, lat: Lattice) -> dict:
    """Reproduction data for an instance, as plain JSON."""
    return {"body": k.to_json(), "lattice": lat.to_json()}


def candidate_json(report: CheckReport, k: Body, lat: Lattice) -> dict:
    out = {"candidate": report.to_json()}
    out.update(instance_json(k, lat))
    return out


# ---------------------------------------------------------------------------
# randomized instances for the verification corpus


def random_lattice(rng: random.Random, n: int) -> Lattice:
    """Unimodular shears times a positive diagonal; sometimes plain Z^n."""
    if rng.random() < 0.3:
        return standard_lattice(n)
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, n + 2)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for t in range(n):
            u[i][t] += c * u[j][t]
    diag = [rng.randint(1, 3) for _ in range(n)]
    return make_lattice([[u[i][t] * diag[t] for t in range(n)] for i in range(n)])


def random_body(rng: random.Random, n: int) -> Body:
    roll = rng.randrange(7)
    if roll == 0:
        hi = 2 if n >= 4 else 3
        sides = sorted((Fraction(rng.randint(1, 2 * hi), 2) for _ in range(n)), reverse=True)
        return box(sides)
    if roll == 1:
        return cube(n, scale=Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    if roll == 2:
        return cross_polytope(n, scale=Fraction(rng.randint(2, 6), rng.randint(1, 2)))
    if roll == 3:
        rows, rhs = [], []
        for i in range(n):
            c = Fraction(rng.randint(1, 3))
            e = [Fraction(int(j == i)) for j in range(n)]
            rows.extend([e, [-x for x in e]])
            rhs.extend([c, c])
        for _ in range(rng.randint(1, n)):
            u = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            if all(x == 0 for x in u):
                u[rng.randrange(n)] = Fraction(1)
            b = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            rows.extend([u, [-x for x in u]])
            rhs.extend([b, b])
        return hpoly(rows, rhs)
    if roll == 4:
        return centered_simplex(n).dilate(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    if roll == 5:
        return dual_centered_simplex(n).dilate(Fraction(rng.randint(1, 4), rng.randint(1, 2)))
    alphas = sorted(Fraction(rng.randint(1, 4), 4) for _ in range(n))
    return generalized_hexagon(alphas)


def random_instance(rng: random.Random, n: Optional[int] = None):
    if n is None:
        n = rng.choice([2, 2, 3, 3, 4])
    return random_body(rng, n), random_lattice(rng, n)
