"""Small integer solutions of A x = 0 and the geometry behind them.

The solver returns independent kernel vectors realizing the successive minima
of the cube section S(A) = C_n with respect to the saturated kernel lattice,
together with two certified size bounds: the sup-norm product bound
sqrt(det(A A^T))/gcd(A) and the classical single-vector bound
1 + (n max|A|)^(m/(n-m)).  Both certificates are exact integer comparisons.

For a single row a the section projects to a slab-cut cube K_alpha whose
critical determinant has closed forms up to three dimensions (Whitworth), and
the sup of the normalized minima products over all rows is bracketed by exact
scans against the references sqrt(n), 1/sigma_n, and the known small-n values.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from math import comb, factorial, gcd, prod
from itertools import combinations_with_replacement
from typing import Optional, Sequence, Union

from .exactmath import (
    DimensionGuardError,
    Interval,
    QMat,
    QuadVal,
    quad_or_rat,
    rat,
    root_interval,
)
from .lattice import (Lattice, _gram_det, _integer_rows, _kernel_lattice, kernel_lattice,
                      lll_reduce, make_lattice, minors_gcd)
from .body import HPOLY, Body, _hexagon_coefficients, cube, generalized_hexagon
from .minima import MinimaResult, _ball_keys, _reduced_keys, first_minimum, successive_minima

__all__ = [
    "SiegelSolution",
    "siegel_solve",
    "CubeSection",
    "section_body",
    "GeneralizedHexagon",
    "project_body",
    "smaller_section",
    "hexagon_contains",
    "whitworth_delta",
    "hexagon_delta2",
    "delta_lower_bound",
    "sinc_sigma",
    "sigma_reference",
    "ScanRecord",
    "ScanReport",
    "scan_constants",
]


# ---------------------------------------------------------------------------
# cube sections and their kernel lattices


def _section_content_sq(lat: Lattice) -> Fraction:
    """Squared d-content of the unit cube C_n cut by the span of the lattice."""
    # |x_i| <= 1 for x = c B = c R / den reads |c . R_i| <= den on the integer column R_i
    cols = [col for col in zip(*lat._rows) if any(col)]
    rows = [r for col in cols for r in (col, [-x for x in col])]
    vol = Body(HPOLY, (QMat.from_rows(rows), (Fraction(lat._den),) * len(rows))).volume()
    # the basis chart scales d-content by sqrt(det of its gram matrix)
    return vol * vol * lat.det_squared()


@dataclass(frozen=True)
class CubeSection:
    """C_n cut by the rational kernel of an integer matrix, with its lattice."""

    rows: tuple
    lattice: Lattice
    ambient: Body

    @property
    def dim(self) -> int:
        return self.lattice.rank

    def minima(self, count: Optional[int] = None) -> MinimaResult:
        return successive_minima(self.ambient, self.lattice, count)

    def content(self) -> Union[Fraction, QuadVal]:
        """Exact d-dimensional content of the section."""
        return quad_or_rat(_section_content_sq(self.lattice))

    def vaaler_satisfied(self) -> bool:
        """content >= 2^dim, compared through exact squares."""
        c = self.content()
        sq = c.square if isinstance(c, QuadVal) else c * c
        return sq >= 4**self.dim


def section_body(a) -> CubeSection:
    """The cube section S(A) for an integer matrix, or S(a) for a single row."""
    data = list(a)
    if data and not isinstance(data[0], (list, tuple)):
        data = [data]
    rows = _integer_rows(data, "cube section")
    return CubeSection(tuple(map(tuple, rows)), kernel_lattice(rows), cube(len(rows[0])))


# ---------------------------------------------------------------------------
# the solver


@dataclass(frozen=True)
class SiegelSolution:
    """Independent kernel vectors of ascending sup-norm with certified bounds."""

    matrix_rows: tuple
    vectors: tuple
    norms: tuple
    product_norm: int
    gram_det: int
    minor_gcd: int
    bv_bound: Union[Fraction, QuadVal]
    classical_bound: Interval

    @property
    def bv_satisfied(self) -> bool:
        return self.product_norm**2 * self.minor_gcd**2 <= self.gram_det

    @property
    def classical_satisfied(self) -> bool:
        m = len(self.matrix_rows)
        n = len(self.matrix_rows[0])
        a = max(abs(x) for r in self.matrix_rows for x in r)
        # integral form of norms[0] < 1 + (n a)^(m/(n-m))
        return (self.norms[0] - 1) ** (n - m) < (n * a) ** m


def siegel_solve(a) -> SiegelSolution:
    """Kernel vectors realizing the minima of S(A), with exact size certificates."""
    section = section_body(a)
    rows = section.rows
    m, n = len(rows), len(rows[0])
    res = section.minima()
    vectors = tuple(tuple(int(x) for x in w) for w in res.witnesses)
    norms = tuple(int(v) for v in res.values)
    for w in vectors:
        if any(sum(c * x for c, x in zip(r, w)) != 0 for r in rows):
            raise RuntimeError("witness escapes the kernel")

    g = minors_gcd([list(r) for r in rows])
    gram_det = _gram_det(rows)
    if section.lattice.det_squared() * g * g != gram_det:
        raise RuntimeError("kernel determinant identity failed")

    product = prod(norms)
    if product**2 * g * g > gram_det:
        raise RuntimeError("minima product escapes the determinant bound")
    amax = max(abs(x) for r in rows for x in r)
    base = (n * amax) ** m
    if (norms[0] - 1) ** (n - m) >= base:
        raise RuntimeError("smallest solution escapes the classical bound")

    bv = quad_or_rat(Fraction(gram_det, g * g))
    classical = Interval.point(1) + root_interval(base, n - m)
    return SiegelSolution(rows, vectors, norms, product, gram_det, g, bv, classical)


# ---------------------------------------------------------------------------
# projected sections: slab-cut cubes


@dataclass(frozen=True)
class GeneralizedHexagon:
    """The body {|x_i| <= 1, |sum alpha_i x_i| <= 1} for ascending alphas in (0,1]."""

    alphas: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphas", _hexagon_coefficients(self.alphas))

    @property
    def dim(self) -> int:
        return len(self.alphas)

    def body(self) -> Body:
        return generalized_hexagon(self.alphas)


def project_body(a: Sequence[int]) -> GeneralizedHexagon:
    """Drop the last coordinate of S(a): alpha_i = a_i/a_n for ascending positive a."""
    entries = [int(x) for x in a]
    if any(p != q for p, q in zip(entries, a)):
        raise ValueError("entries must be integers")
    if len(entries) < 2:
        raise ValueError("need at least two entries")
    if entries[0] <= 0 or any(entries[i] > entries[i + 1] for i in range(len(entries) - 1)):
        raise ValueError("entries must be positive and ascending")
    an = entries[-1]
    return GeneralizedHexagon(tuple(Fraction(x, an) for x in entries[:-1]))


def smaller_section(h: GeneralizedHexagon) -> GeneralizedHexagon:
    """A standard-tail instance nested inside h: (a_1/a_{d-1}, ..., a_{d-2}/a_{d-1}, 1, 1)."""
    d = h.dim
    if d < 2:
        raise ValueError("nesting needs dimension at least two")
    pivot = h.alphas[d - 2]
    betas = tuple(x / pivot for x in h.alphas[: d - 2])
    return GeneralizedHexagon(betas + (Fraction(1), Fraction(1)))


def hexagon_contains(outer: GeneralizedHexagon, inner: GeneralizedHexagon) -> bool:
    """Exact vertex test for inner being a subset of outer."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch")
    ob = outer.body()
    return all(ob.contains(v) for v in inner.body().vertices())


def whitworth_delta(beta) -> Fraction:
    """Critical determinant of the slab-cut cube (beta, 1, 1) in three dimensions."""
    b = rat(beta)
    if not 0 < b <= 1:
        raise ValueError("need 0 < beta <= 1")
    if b < Fraction(1, 2):
        return Fraction(3, 4)
    return -(b * b + 3 * b - 24 + 1 / b) / 27


@cache
def hexagon_delta2() -> Fraction:
    """Critical determinant of the planar hexagon (1, 1), certified by a tiling.

    The lattice spanned by (2, -1) and (1, 1) has first minimum exactly 2 and
    determinant equal to the computed volume, so translates of the body tile
    the plane and half the lattice is critical: delta = vol/4.
    """
    k = generalized_hexagon((1, 1))
    vol = k.volume()
    t = make_lattice([[2, -1], [1, 1]])
    lam, _ = first_minimum(k, t)
    if lam != 2 or abs(t.basis.det()) != vol:
        raise RuntimeError("tiling certificate failed")
    return vol / 4


def delta_lower_bound(h: GeneralizedHexagon) -> Fraction:
    """Certified lower bound on the critical determinant via nested sections."""
    d = h.dim
    if d == 1:
        # the body is the interval [-1, 1]; admissible lattices have det >= 1
        return Fraction(1)
    if d == 2:
        return hexagon_delta2()
    if d == 3:
        return whitworth_delta(smaller_section(h).alphas[0])
    raise ValueError("no closed form above three dimensions")


# ---------------------------------------------------------------------------
# sinc constants


def sinc_sigma(n: int) -> Fraction:
    """Exact value of (2/pi) * integral of (sin t / t)^n over the positive axis."""
    if n < 1:
        raise ValueError("need n >= 1")
    s = 0
    for k in range((n + 1) // 2):
        s += (-1) ** k * comb(n, k) * (n - 2 * k) ** (n - 1)
    return Fraction(s, 2 ** (n - 1) * factorial(n - 1))


@cache
def _sigma_table() -> tuple:
    with resources.files("gon").joinpath("data/sigma_oeis.json").open() as fh:
        obj = json.load(fh)
    nums = obj["numerators"]
    dens = obj["denominators"]
    return tuple(2 * Fraction(p, q) for p, q in zip(nums, dens))


def sigma_reference(n: int) -> Fraction:
    """Published value of sigma_n, doubled back from the halved table."""
    table = _sigma_table()
    if not 1 <= n <= len(table):
        raise ValueError(f"reference table covers 1..{len(table)}")
    return table[n - 1]


# ---------------------------------------------------------------------------
# scanning the normalization constants


@dataclass(frozen=True)
class ScanRecord:
    a: tuple
    minima: tuple
    minima_product: int
    ratio_single: Fraction
    ratio_product: Fraction
    bv_satisfied: bool
    hexagon_bound: Optional[Fraction]
    hexagon_satisfied: Optional[bool]


@dataclass(frozen=True)
class ScanReport:
    n: int
    a_max: int
    dedupe: bool
    records: tuple
    empirical_c: Fraction
    empirical_s: Fraction
    witness_c: tuple
    witness_s: tuple
    bound_sqrt_n: Union[Fraction, QuadVal]
    bound_sigma_inv: Fraction
    exact_value: Optional[Fraction]
    within_sqrt_n: bool
    within_sigma_inv: bool
    within_exact: Optional[bool]
    sigma_inv_below_sqrt_n: bool


_EXACT_SUP = {2: Fraction(1), 3: Fraction(4, 3), 4: Fraction(27, 19)}

_SCAN_GUARD = 200_000


def _scan_minima(vectors: list) -> list:
    """Successive minima of the unit cube on the kernel lattice of each row, with no chart.

    The unit cube's gauge is the sup-norm, so each minimum is the sup-norm of a
    point, read off the kernel's reduced integer rows: in rank 1 or 2 (n = 2 or
    3) by Gauss reduction, with no walk, and in larger rank by a walk of the
    Euclidean ball that holds every point of sup-norm up to that of the basis.
    """
    out = []
    for a in vectors:
        rows = lll_reduce(_kernel_lattice([a]))._rows
        out.append(tuple(_ball_keys(rows) if len(rows) > 2
                         else _reduced_keys(lambda c: max(map(abs, c)), rows)))
    return out


def _scan_record(a: tuple, lams: tuple) -> ScanRecord:
    n = len(a)
    an = a[-1]
    g = gcd(*a)
    product = prod(lams)
    single = lams[0] ** (n - 1)
    if single > product:
        raise RuntimeError("single-vector ratio escapes the product ratio")
    bv_ok = product**2 * g * g <= sum(x * x for x in a)
    hex_bound = hex_ok = None
    if n <= 4:
        # delta_lower_bound(project_body(a / g)), read off the ascending row:
        # the smaller section of a 3-d projection is the hexagon (a_1/a_2, 1, 1)
        if n == 2:
            delta = Fraction(1)
        elif n == 3:
            delta = hexagon_delta2()
        else:
            delta = whitworth_delta(Fraction(a[0], a[1]))
        # the bound is (a_n / g) / delta = p / q, and product <= p / q reads product q <= p
        p, q = an * delta.denominator, g * delta.numerator
        hex_bound = Fraction(p, q)
        hex_ok = product * q <= p
    return ScanRecord(a, lams, product, Fraction(single, an), Fraction(product, an), bv_ok,
                      hex_bound, hex_ok)


def scan_constants(n: int, a_max: int, dedupe: bool = True, jobs: int = 1) -> ScanReport:
    """Exact minima ratios for every ascending positive row with a_n <= a_max."""
    if n < 2:
        raise ValueError("need n >= 2")
    if a_max < 1:
        raise ValueError("need a_max >= 1")
    if jobs < 1:
        raise ValueError("need jobs >= 1")
    if comb(a_max + n - 1, n) > _SCAN_GUARD:
        raise DimensionGuardError("scan domain exceeds the resource guard")
    vectors = [
        a
        for a in combinations_with_replacement(range(1, a_max + 1), n)
        if not (dedupe and gcd(*a) > 1)
    ]
    if jobs > 1:
        # each chunk of rows is one task
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, len(vectors) // (8 * jobs))
        tasks = [vectors[i:i + chunk] for i in range(0, len(vectors), chunk)]
        with ctx.Pool(min(jobs, len(tasks))) as pool:
            parts = pool.map(_scan_minima, tasks)
        minima_lists = [lams for part in parts for lams in part]
    else:
        minima_lists = _scan_minima(vectors)
    records = tuple(_scan_record(a, lams) for a, lams in zip(vectors, minima_lists))

    best_c = max(records, key=lambda r: r.ratio_single)
    best_s = max(records, key=lambda r: r.ratio_product)
    sigma_inv = 1 / sinc_sigma(n)
    exact = _EXACT_SUP.get(n)
    return ScanReport(
        n=n,
        a_max=a_max,
        dedupe=dedupe,
        records=records,
        empirical_c=best_c.ratio_single,
        empirical_s=best_s.ratio_product,
        witness_c=best_c.a,
        witness_s=best_s.a,
        bound_sqrt_n=quad_or_rat(Fraction(n)),
        bound_sigma_inv=sigma_inv,
        exact_value=exact,
        within_sqrt_n=best_s.ratio_product**2 <= n,
        within_sigma_inv=best_s.ratio_product <= sigma_inv,
        within_exact=None if exact is None else best_s.ratio_product <= exact,
        sigma_inv_below_sqrt_n=sigma_inv**2 < n,
    )
