"""Correctness checks for the benchmark, written without the gon package.

Every check takes the input the benchmark built (its own description, never
an object of the program) and the program's output, and raises CheckFailed
with a reason when the output is wrong. The arithmetic here is plain Python
integers and Fractions: closed forms, brute-force integer searches and
Bareiss elimination, so a fault in the program cannot hide in the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, floor, ceil, gcd, isqrt, prod


class CheckFailed(Exception):
    """An output of the program disagrees with the independent oracle."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact linear algebra


def det(rows) -> Fraction:
    """Determinant of a square rational matrix by fraction-free elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else Fraction(1)


def rank(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def inverse(rows) -> list:
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [r[n:] for r in a]


def lcm_den(values) -> int:
    d = 1
    for v in values:
        q = Fraction(v).denominator
        d = d * q // gcd(d, q)
    return d


def maximal_minors_gcd(a) -> int:
    m, n = len(a), len(a[0])
    g = 0
    for cols in combinations(range(n), m):
        g = gcd(g, int(det([[r[c] for c in cols] for r in a])))
    return g


def gram_det(a) -> int:
    return int(det([[sum(x * y for x, y in zip(r, s)) for s in a] for r in a]))


def parse_value(v):
    """("rat", q) for a rational string, ("sqrt", q) for {"sqrt_of": q}."""
    if isinstance(v, str):
        return "rat", Fraction(v)
    if isinstance(v, dict) and set(v) == {"sqrt_of"}:
        return "sqrt", Fraction(v["sqrt_of"])
    raise CheckFailed(f"unexpected value encoding {v!r}")


def value_squared(v) -> Fraction:
    kind, q = parse_value(v)
    if kind == "rat":
        require(q >= 0, f"negative gauge value {q}")
        return q * q
    return q


# ---------------------------------------------------------------------------
# kernel vectors of integer matrices, by brute force


def kernel_vectors(a, bound):
    """Every nonzero integer x with A x = 0 and max|x_i| <= bound.

    The n - m free coordinates run over the box; the m pivot coordinates are
    solved by Cramer's rule and kept when integral and inside the box. Only
    the representative with a positive leading nonzero entry is returned.
    """
    m, n = len(a), len(a[0])
    piv = next((cols for cols in combinations(range(n), m)
                if det([[r[c] for c in cols] for r in a]) != 0), None)
    if piv is None:
        raise ValueError("matrix does not have full row rank")
    free = [c for c in range(n) if c not in piv]
    sub = [[r[c] for c in piv] for r in a]
    d = int(det(sub))
    # adjugate rows: x_piv = -adj(sub) (A_free x_free) / d
    adj = [[int(det([[sub[r][c] for c in range(m) if c != j]
                     for r in range(m) if r != i])) * (-1) ** (i + j)
            for i in range(m)] for j in range(m)]
    out = []
    for xf in product(range(-bound, bound + 1), repeat=len(free)):
        rhs = [-sum(r[c] * x for c, x in zip(free, xf)) for r in a]
        num = [sum(adj[i][j] * rhs[j] for j in range(m)) for i in range(m)]
        if any(v % d for v in num):
            continue
        xp = [v // d for v in num]
        if any(abs(v) > bound for v in xp):
            continue
        x = [0] * n
        for c, v in zip(free, xf):
            x[c] = v
        for c, v in zip(piv, xp):
            x[c] = v
        lead = next((v for v in x if v), 0)
        if lead > 0:
            out.append(tuple(x))
    return out


def kernel_minima(a, bound):
    """Successive sup-norm minima of ker(A) cap Z^n that are at most bound."""
    vecs = sorted(kernel_vectors(a, bound), key=lambda v: max(abs(x) for x in v))
    picked, minima = [], []
    for v in vecs:
        if rank(picked + [list(v)]) > len(picked):
            picked.append(list(v))
            minima.append(max(abs(x) for x in v))
    return minima


def kernel_search_box(a, bound) -> int:
    return (2 * bound + 1) ** (len(a[0]) - len(a))


# ---------------------------------------------------------------------------
# lattice point counts: closed forms and a brute-force walk


def box_count(sides, interior=False) -> int:
    if interior:
        return prod(2 * ceil(Fraction(s)) - 1 for s in sides)
    return prod(2 * floor(Fraction(s)) + 1 for s in sides)


def cross_count(n, scale, interior=False) -> int:
    """#{x in Z^n : sum |x_i| <= r}, r = floor(scale), as sum 2^k C(n,k) C(r,k)."""
    s = Fraction(scale)
    r = floor(s)
    if interior and r == s:
        r -= 1
    return sum(2 ** k * comb(n, k) * comb(r, k) for k in range(n + 1))


def ball_points(q, bound, strict=False):
    """Integer x with x^T Q x <= bound (or <), Q symmetric positive definite."""
    n = len(q)
    qf = [[Fraction(x) for x in r] for r in q]
    bound = Fraction(bound)
    qi = inverse(qf)
    # |x_i|^2 <= bound * (Q^-1)_ii on the ellipsoid
    lim = [isqrt(floor(bound * qi[i][i])) for i in range(n)]
    den = lcm_den([x for r in qf for x in r] + [bound])
    qz = [[int(x * den) for x in r] for r in qf]
    bz = int(bound * den)
    out = []
    for x in product(*(range(-t, t + 1) for t in lim)):
        v = sum(x[i] * qz[i][j] * x[j] for i in range(n) for j in range(n))
        if v < bz or (v == bz and not strict):
            out.append(x)
    return out


def linear_count(rows, rhs, lim, strict=False) -> int:
    """#{c in Z^m : rows . c <= rhs (or <)} with every |c_j| <= lim[j].

    The box bounds must contain the region. The first m - 1 coordinates run
    over the box; the last is read off the constraints in integers.
    """
    den = lcm_den([x for r in rows for x in r] + list(rhs))
    g = [[int(Fraction(x) * den) for x in r] for r in rows]
    h = [int(Fraction(x) * den) for x in rhs]
    m = len(lim)
    total = 0
    for pre in product(*(range(-t, t + 1) for t in lim[:-1])):
        lo, hi = -lim[-1], lim[-1]
        for r, hj in zip(g, h):
            res = hj - sum(a * c for a, c in zip(r, pre))
            a = r[m - 1]
            if a == 0:
                if res < 0 or (strict and res == 0):
                    hi = lo - 1
                    break
            elif a > 0:
                top = res // a if not strict else (res - 1) // a
                hi = min(hi, top)
            else:
                # a*z <= res with a < 0  <=>  z >= ceil(res / a)
                bot = -((res) // (-a)) if not strict else -((res - 1) // (-a))
                lo = max(lo, bot)
        if hi >= lo:
            total += hi - lo + 1
    return total


def lattice_point_count(rows, rhs, basis, extent, strict=False):
    """#{x in L : rows . x <= rhs} for a full-rank lattice with the given basis.

    extent[i] bounds |x_i| on the body; it is pulled back through the basis
    inverse to a coefficient box. Returns None when that box is too large.
    """
    n = len(basis)
    binv = inverse(basis)
    lim = [floor(sum(Fraction(extent[i]) * abs(binv[i][j]) for i in range(n)))
           for j in range(n)]
    if prod(2 * t + 1 for t in lim[:-1]) > 60_000:
        return None
    # constraints in coefficients: rows . (c B) = (rows B^T) . c
    pulled = [[sum(Fraction(r[i]) * basis[j][i] for i in range(n)) for j in range(n)]
              for r in rows]
    return linear_count(pulled, rhs, lim, strict)


def simplex_facets(verts):
    """(rows, rhs) of the n-simplex with the given n + 1 vertices."""
    n = len(verts[0])
    rows, rhs = [], []
    for skip in range(n + 1):
        face = [v for i, v in enumerate(verts) if i != skip]
        # normal u with u.(f - f0) = 0 for the face: solve with one coordinate fixed
        diffs = [[Fraction(x) - Fraction(y) for x, y in zip(f, face[0])] for f in face[1:]]
        u = None
        for k in range(n):
            sub = [[r[j] for j in range(n) if j != k] for r in diffs]
            if n == 1 or det(sub) != 0:
                u = [Fraction(0)] * n
                u[k] = Fraction(1)
                if n > 1:
                    rhs_k = [-r[k] for r in diffs]
                    sol = [sum(a * b for a, b in zip(row, rhs_k)) for row in inverse(sub)]
                    others = [j for j in range(n) if j != k]
                    for j, v in zip(others, sol):
                        u[j] = v
                break
        if u is None:
            raise ValueError("degenerate simplex")
        b = sum(a * Fraction(x) for a, x in zip(u, face[0]))
        if sum(a * Fraction(x) for a, x in zip(u, verts[skip])) > b:
            u = [-a for a in u]
            b = -b
        rows.append(u)
        rhs.append(b)
    return rows, rhs


# ---------------------------------------------------------------------------
# request checks: each takes the benchmark's spec of the request and the
# program's output document


def body_halfspaces(spec):
    """(rows, rhs, extent) of a polytope spec; extent bounds every |x_i|."""
    kind = spec["kind"]
    n = spec["n"]
    if kind == "box":
        a = [Fraction(x) for x in spec["a"]]
        rows, rhs = [], []
        for i in range(n):
            for s in (1, -1):
                e = [0] * n
                e[i] = s
                rows.append(e)
                rhs.append(a[i])
        return rows, rhs, a
    if kind == "cross":
        s = Fraction(spec["scale"])
        rows = [list(signs) for signs in product((1, -1), repeat=n)]
        return rows, [s] * len(rows), [s] * n
    if kind == "hpoly":
        return ([list(map(Fraction, r)) for r in spec["A"]], [Fraction(x) for x in spec["b"]],
                [Fraction(x) for x in spec["extent"]])
    if kind == "simplex":
        verts = [[Fraction(x) for x in v] for v in spec["vertices"]]
        rows, rhs = simplex_facets(verts)
        return rows, rhs, [max(abs(v[i]) for v in verts) for i in range(n)]
    raise ValueError(f"no halfspaces for {kind}")


def axis_extent(rows, rhs):
    """Bounds on every |x_i| read off the rows that are multiples of +-e_i, or None."""
    n = len(rows[0])
    hi = [None] * n
    lo = [None] * n
    for r, b in zip(rows, rhs):
        r = [Fraction(x) for x in r]
        nz = [i for i, x in enumerate(r) if x]
        if len(nz) != 1:
            continue
        i = nz[0]
        t = Fraction(b) / r[i]
        if r[i] > 0:
            hi[i] = t if hi[i] is None else min(hi[i], t)
        else:
            lo[i] = t if lo[i] is None else max(lo[i], t)
    if any(x is None for x in hi + lo):
        return None
    return [max(abs(a), abs(b)) for a, b in zip(lo, hi)]


def gauge_squared(spec, x) -> Fraction:
    """Squared gauge of x for a symmetric body spec with the origin inside."""
    x = [Fraction(v) for v in x]
    if spec["kind"] == "ellipsoid":
        q = spec["Q"]
        return sum(x[i] * Fraction(q[i][j]) * x[j] for i in range(len(x)) for j in range(len(x)))
    rows, rhs, _ = body_halfspaces(spec)
    g = max(sum(Fraction(a) * v for a, v in zip(r, x)) / b for r, b in zip(rows, rhs))
    return max(g, Fraction(0)) ** 2


def check_siegel(a, doc, search_limit=40_000):
    m, n = len(a), len(a[0])
    vecs = doc["vectors"]
    norms = doc["norms"]
    require(len(vecs) == n - m, f"{len(vecs)} vectors for a rank {n - m} kernel")
    for v in vecs:
        require(all(isinstance(x, int) for x in v), "non-integer kernel vector")
        for r in a:
            require(sum(c * x for c, x in zip(r, v)) == 0, f"{v} is not in the kernel")
    require(rank(vecs) == n - m, "kernel vectors are dependent")
    require(norms == [max(abs(x) for x in v) for v in vecs], "norms are not the sup norms")
    require(all(norms[i] <= norms[i + 1] for i in range(len(norms) - 1)),
            "norms are not non-decreasing")
    require(doc["product_norm"] == prod(norms), "product_norm is not the product")
    g = maximal_minors_gcd(a)
    gd = gram_det(a)
    require(doc["minor_gcd"] == g, f"minor_gcd {doc['minor_gcd']} != {g}")
    require(doc["gram_det"] == gd, f"gram_det {doc['gram_det']} != {gd}")
    require(prod(norms) ** 2 * g * g <= gd, "norm product escapes the determinant bound")
    require(doc["bv_satisfied"] is True, "bv_satisfied is not true")
    # every minimum is attained by the vectors above; where the box is small,
    # no set of i+1 independent kernel vectors is shorter than norms[i]
    top = norms[-1] - 1
    if kernel_search_box(a, top) <= search_limit:
        require(kernel_minima(a, norms[-1]) == norms, "brute force finds other minima")
    elif kernel_search_box(a, norms[0] - 1) <= search_limit:
        require(not kernel_vectors(a, norms[0] - 1), "a shorter kernel vector exists")


def check_count(spec, doc):
    """spec: body spec on Z^n plus "dilate" (rational string) and "interior"."""
    d = Fraction(spec["dilate"])
    interior = spec["interior"]
    body = spec["body"]
    kind, n = body["kind"], body["n"]
    if kind == "box":
        want = box_count([d * Fraction(x) for x in body["a"]], interior)
    elif kind == "cross":
        want = cross_count(n, d * Fraction(body["scale"]), interior)
    elif kind == "ellipsoid":
        want = len(ball_points(body["Q"], d * d, strict=interior))
    else:
        rows, rhs, ext = body_halfspaces(body)
        lim = [floor(d * e) for e in ext]
        want = linear_count(rows, [d * b for b in rhs], lim, strict=interior)
    require(doc["count"] == want, f"count {doc['count']} != {want}")
    require(doc["interior"] is interior, "interior flag not echoed")


def ehrhart_closed_form(body, t) -> int:
    kind, n = body["kind"], body["n"]
    if kind == "box":
        return prod(2 * int(a) * t + 1 for a in body["a"])
    if kind == "cross":
        return cross_count(n, int(body["scale"]) * t)
    if kind == "simplex":
        s = int(body["scale"])
        return comb(s * t + n, n)
    raise ValueError(f"no closed form for {kind}")


def check_ehrhart(spec, doc):
    body = spec["body"]
    n = body["n"]
    coeffs = [Fraction(c) for c in doc["coefficients"]]
    require(doc["degree"] == n and len(coeffs) == n + 1, "wrong degree")
    for t in range(n + 3):
        got = sum(c * t ** i for i, c in enumerate(coeffs))
        want = ehrhart_closed_form(body, t)
        require(got == want, f"L({t}) = {got}, closed form {want}")
    if spec.get("eval") is not None:
        want = ehrhart_closed_form(body, spec["eval"])
        require(Fraction(doc["eval_value"]) == want, "eval_value disagrees")


def check_minima(spec, doc):
    body, basis = spec["body"], spec["basis"]
    n = body["n"]
    vals = [value_squared(v) for v in doc["minima"]]
    wits = [[Fraction(x) for x in w] for w in doc["witnesses"]]
    require(len(vals) == n and len(wits) == n, "wrong number of minima")
    require(all(vals[i] <= vals[i + 1] for i in range(n - 1)), "minima not non-decreasing")
    require(rank(wits) == n, "witnesses are dependent")
    binv = inverse(basis)
    for w, v in zip(wits, vals):
        coeff = [sum(w[i] * binv[i][j] for i in range(n)) for j in range(n)]
        require(all(c.denominator == 1 for c in coeff), f"witness {w} is not a lattice point")
        require(gauge_squared(body, w) == v, f"gauge of {w} differs from its value")


def support_squared(body, u) -> Fraction:
    """h_K(u)^2 for a symmetric body spec."""
    u = [Fraction(x) for x in u]
    kind = body["kind"]
    if kind == "box":
        h = sum(Fraction(a) * abs(x) for a, x in zip(body["a"], u))
    elif kind == "cross":
        h = Fraction(body["scale"]) * max(abs(x) for x in u)
    else:
        qi = inverse(body["Q"])
        return sum(u[i] * qi[i][j] * u[j] for i in range(len(u)) for j in range(len(u)))
    return h * h


def check_width(spec, doc):
    body = spec["body"]
    n = body["n"]
    u = [Fraction(x) for x in doc["direction"]]
    require(len(u) == n and any(u) and all(x.denominator == 1 for x in u),
            "direction is not a nonzero integer vector")
    w2 = value_squared(doc["width"])
    require(w2 == 4 * support_squared(body, u), "width is not the spread along direction")
    kind = body["kind"]
    if kind == "box":
        best = (2 * min(Fraction(a) for a in body["a"])) ** 2
    elif kind == "cross":
        best = (2 * Fraction(body["scale"])) ** 2
    else:
        # 4 u^T Q^-1 u over nonzero integer u; the form with matrix Q^-1 has
        # inverse Q, which bounds the coordinates of short vectors
        pts = ball_points(inverse(body["Q"]), w2 / 4)
        best = min(4 * support_squared(body, p) for p in pts if any(p))
    require(w2 == best, f"width^2 {w2} is not the minimum {best}")


def check_polar(spec, doc):
    body = spec["body"]
    kind, n = body["kind"], body["n"]
    out = doc["body"]
    if kind == "ellipsoid":
        require(out["type"] == "ellipsoid", "polar of an ellipsoid is not an ellipsoid")
        got = [[Fraction(x) for x in r] for r in out["Q"]]
        require(got == inverse(body["Q"]), "polar form is not Q^-1")
        return
    if kind == "cross":
        require(out["type"] == "box", "polar of a cross-polytope is not a box")
        require([Fraction(x) for x in out["a"]] == [1 / Fraction(body["scale"])] * n,
                "polar box has the wrong sides")
        return
    # every halfspace of a box or of a box cut by slabs is a facet, so the polar
    # is the hull of the normals a_i / b_i, each of which is a vertex
    rows, rhs, _ = body_halfspaces(body)
    want = {tuple(Fraction(x) / b for x in r) for r, b in zip(rows, rhs)}
    require(out["type"] == "vpoly", "polar of a polytope is not a V-polytope")
    got = {tuple(Fraction(x) for x in v) for v in out["vertices"]}
    require(got == want, "polar vertices are not the facet normals")


# ---------------------------------------------------------------------------
# scan and corpus checks


EXACT_SUP = {2: Fraction(1), 3: Fraction(4, 3), 4: Fraction(27, 19)}


def scan_rows(n, h):
    """Ascending positive rows with entries at most h and no common factor."""
    return [a for a in combinations_with_replacement(range(1, h + 1), n) if gcd(*a) == 1]


def check_scan(n, h, records, empirical_s, sample):
    """records: (a, minima, minima_product, ratio_product, bv_satisfied) tuples.

    sample: indices of records whose minima are recomputed by brute force.
    """
    rows = scan_rows(n, h)
    require([r[0] for r in records] == rows, "scan rows are not the primitive ascending rows")
    best = Fraction(0)
    for a, minima, product_, ratio, bv in records:
        require(len(minima) == n - 1, f"{a}: wrong number of minima")
        require(product_ == prod(minima), f"{a}: minima product is wrong")
        require(ratio == Fraction(product_, a[-1]), f"{a}: ratio_product is wrong")
        # Bombieri-Vaaler for one primitive row: prod(minima)^2 <= |a|^2
        require(product_ ** 2 <= sum(x * x for x in a), f"{a}: product bound fails")
        require(bv is True, f"{a}: bv_satisfied is false")
        best = max(best, ratio)
    require(empirical_s == best, "empirical_s is not the largest product ratio")
    require(best <= EXACT_SUP[n], f"empirical_s {best} above the exact supremum")
    require(best * best <= n, "empirical_s above sqrt(n)")
    for i in sample:
        a, minima = records[i][0], records[i][1]
        want = 2 if n == 3 else 1
        got = kernel_minima([list(a)], minima[want - 1])[:want]
        require(got == list(minima[:want]), f"{a}: brute force minima {got} != {minima}")


def check_corpus(reports, count_case=None):
    """reports: (check_id, kind, status, witnesses) tuples.

    count_case: (rows, rhs, basis, extent) of the instance when its point
    count is to be recomputed by brute force, else None.
    """
    for cid, kind, status, _ in reports:
        require(status != "violated",
                f"{cid} ({kind}) is violated" if kind != "conjecture"
                else f"{cid} reports a counterexample candidate")
    if count_case is None:
        return
    rows, rhs, basis, extent = count_case
    wit = {cid: w for cid, _, _, w in reports}
    closed = wit.get("bhw_upper", {}).get("count")
    if closed is not None:
        want = lattice_point_count(rows, rhs, basis, extent)
        require(want is None or closed == want, f"point count {closed} != {want}")
    variants = wit.get("gv_conj", {}).get("variants", {})
    if "interior" in variants:
        got = variants["interior"]["count"]
        want = lattice_point_count(rows, rhs, basis, extent, strict=True)
        require(want is None or got == want, f"interior count {got} != {want}")
