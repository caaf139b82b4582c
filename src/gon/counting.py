"""Exact lattice point counts and Ehrhart polynomials of lattice polytopes.

Counts include boundary points, and an interior-only variant excludes them.
No count materialises the points it counts: the integer walk adds up the
lengths of its last coordinate's intervals, and on a polytope it sums the last
two coordinates in closed form, by floor sums. A chart's data are integers, so a
strict bound is the closed one moved by one, and an interior count is the
closed count of that shifted region. Ehrhart coefficients come from
interpolation through the dilate counts k = 0..n, with the closed-form anchors
(constant term 1, leading term vol/det) asserted afterward and two extra
dilates held out as validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .body import Body
from .exactmath import Interval, QMat, rat
from .lattice import Lattice
from .minima import _Chart


def count_points(k: Body, lat: Lattice, interior: bool = False) -> int:
    """#(K cap L), boundary included; interior=True counts int(K) cap L instead.

    The walk adds up interval lengths and never lists the points; a polytope's
    walk stops one coordinate earlier still, summing each node's last two
    coordinates as floor sums. An interior count walks the closed integer
    region whose bounds are moved in by one.
    """
    return _Chart(k, lat).count(interior)


@dataclass(frozen=True)
class EhrhartPoly:
    """Dilate-count polynomial; coefficients[i] multiplies k^i."""

    coefficients: tuple

    def evaluate(self, k) -> Fraction:
        acc = Fraction(0)
        x = rat(k)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def ehrhart(p: Body, lat: Lattice, holdout: bool = True) -> EhrhartPoly:
    """Interpolated dilate-count polynomial of a lattice polytope.

    Requires every vertex of p in the lattice. Raises if the interpolated
    polynomial violates its anchors or disagrees with the held-out counts at
    n+1 and n+2.
    """
    if not p.is_polytope:
        raise ValueError("Ehrhart polynomials need a polytope")
    if not lat.is_full_rank():
        raise ValueError("Ehrhart polynomials need a full-rank lattice")
    n = p.dim
    for v in p.vertices():
        if not lat.contains(v):
            raise ValueError("polytope vertices must lie in the lattice")
    counts = [1]  # the 0-dilate collapses to the origin, a point of every lattice
    for k in range(1, n + 1):
        counts.append(count_points(p.dilate(k), lat))
    rows = [[Fraction(k) ** i for i in range(n + 1)] for k in range(n + 1)]
    coeffs = QMat.from_rows(rows).solve([Fraction(c) for c in counts])
    poly = EhrhartPoly(tuple(coeffs))
    if poly.coefficients[0] != 1:
        raise RuntimeError("Ehrhart constant term is not 1")
    if poly.coefficients[n] != p.volume() / lat.det():
        raise RuntimeError("Ehrhart leading term is not vol/det")
    if holdout:
        for k in (n + 1, n + 2):
            if poly.evaluate(k) != count_points(p.dilate(k), lat):
                raise RuntimeError(f"Ehrhart holdout failed at dilate {k}")
    return poly


def count_ratio_bounds(k: Body, lat: Lattice, dilations: Sequence) -> list:
    """(rho, G(rho K) det / vol(rho K)) rows exhibiting convergence toward 1."""
    out = []
    for rho in dilations:
        rho = rat(rho)
        if rho <= 0:
            raise ValueError("dilation factors must be positive")
        kk = k.dilate(rho)
        g = count_points(kk, lat)
        vol = kk.volume()
        det = lat.det()
        if isinstance(vol, Interval):
            num = Interval.point(g) * det
            out.append((rho, Interval(num.lo / vol.hi, num.hi / vol.lo)))
        else:
            out.append((rho, g * det / vol))
    return out
