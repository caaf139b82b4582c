"""The three workloads: a fixed pool of inputs, one round of operations, checks.

An operation is a call into the program and a check of what it returned;
the check uses only what the benchmark itself knows about the input. Each
workload's pool is fixed, because the cost of one operation ranges over four
orders of magnitude and a pool drawn afresh per seed would move every
end-to-end metric with the seed. The run seed orders the operations of a
round and picks the outputs that get the expensive brute-force checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import oracles

# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _rs(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# scan: the paper's constant scan over a sweep of heights

# heights per dimension; rows grow like h^n, so the sweep reaches lower for n = 4
SCAN_SWEEP = {2: range(4, 41, 4), 3: range(2, 13), 4: range(2, 6)}
SCAN_SAMPLE = 8  # rows per call whose minima are recomputed by brute force


def build_scan(gon, seed, workdir):
    rng = random.Random(seed)
    pairs = [(n, h) for n, hs in SCAN_SWEEP.items() for h in hs]
    rng.shuffle(pairs)
    ops = []
    for n, h in pairs:
        rows = len(oracles.scan_rows(n, h))
        sample = sorted(rng.sample(range(rows), min(SCAN_SAMPLE, rows)))
        ops.append(Op(f"scan-n{n}", _scan_call(gon, n, h), _scan_check(n, h, sample)))
    return ops


def _scan_call(gon, n, h):
    return lambda: gon.scan_constants(n, h)


def _scan_check(n, h, sample):
    def check(rep):
        records = [(tuple(r.a), tuple(r.minima), r.minima_product, r.ratio_product,
                    r.bv_satisfied) for r in rep.records]
        oracles.check_scan(n, h, records, rep.empirical_s, sample)
    return check


# ---------------------------------------------------------------------------
# corpus: run_checks on the battery of `gon corpus`

# the random part is the first CORPUS_DRAWS instances of corpus seed 0, drawn the
# way `gon corpus` draws them
CORPUS_SEED = 0
CORPUS_DRAWS = 10
COUNT_SAMPLE = 0.5  # share of instances whose point counts are recomputed


def fixed_battery(gon):
    """The named instances `gon corpus` runs besides its random draws."""
    out = []
    for n in (2, 3):
        zn = gon.standard_lattice(n)
        out.append((f"cube-{n}", gon.cube(n), zn))
        out.append((f"cross-{n}", gon.cross_polytope(n), zn))
        out.append((f"simplex-{n}", gon.centered_simplex(n), zn))
        out.append((f"dual-simplex-{n}", gon.dual_centered_simplex(n), zn))
    out.append(("hexagon-half",
                gon.generalized_hexagon([Fraction(1, 2), Fraction(1, 2)]), gon.standard_lattice(2)))
    out.append(("index-2", gon.cube(2), gon.make_lattice([[2, 0], [0, 1]])))
    out.append(("kernel-123", gon.cube(3), gon.kernel_lattice([[1, 2, 3]])))
    out.append(("kernel-1111", gon.cube(4), gon.kernel_lattice([[1, 1, 1, 1]])))
    return out


def random_battery(gon):
    out = []
    for idx in range(CORPUS_DRAWS):
        k, lat = gon.random_instance(random.Random(CORPUS_SEED * 1_000_003 + idx))
        out.append((f"random-{idx}", k, lat))
    return out


def _count_case(body, basis):
    """(rows, rhs, basis, extent) for a brute-force count, or None."""
    n = len(basis[0])
    if len(basis) != n:
        return None
    t = body["type"]
    if t == "box":
        spec = {"kind": "box", "n": n, "a": body["a"]}
    elif t == "cross":
        spec = {"kind": "cross", "n": n, "scale": body["scale"]}
    elif t == "vpoly" and len(body["vertices"]) == n + 1:
        spec = {"kind": "simplex", "n": n, "vertices": body["vertices"]}
    elif t == "hpoly":
        ext = oracles.axis_extent(body["A"], body["b"])
        if ext is None:
            return None
        spec = {"kind": "hpoly", "n": n, "A": body["A"], "b": body["b"], "extent": ext}
    else:
        return None
    rows, rhs, extent = oracles.body_halfspaces(spec)
    return rows, rhs, [[Fraction(x) for x in r] for r in basis], extent


def build_corpus(gon, seed, workdir):
    rng = random.Random(seed)
    ops = []
    for name, k, lat in fixed_battery(gon) + random_battery(gon):
        case = None
        if rng.random() < COUNT_SAMPLE:
            case = _count_case(k.to_json(), lat.to_json()["basis"])
        ops.append(Op(name, _corpus_call(gon, k, lat), _corpus_check(case)))
    rng.shuffle(ops)
    return ops


def _corpus_call(gon, k, lat):
    # a fresh body per call, so that no call finds the vertices, volume or
    # facets an earlier call cached on the body
    return lambda: gon.run_checks(gon.Body(k.kind, k.data), lat)


def _corpus_check(case):
    def check(reports):
        oracles.check_corpus([(r.check_id, r.kind, r.status, r.witnesses) for r in reports], case)
    return check


# ---------------------------------------------------------------------------
# requests: in-process command-line calls on files written at set-up

# the pool holds PER_CELL requests of every cell of the mix, drawn from POOL_SEED:
# (command, body kind, dimension) for the geometric commands and (rows,
# columns) for siegel
POOL_SEED = 0
PER_CELL = 2
SIEGEL_SHAPES = [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6)]
SIEGEL_PER_SHAPE = 3 * PER_CELL
MIX = (
    ("minima", ("box", "cross", "hpoly", "ellipsoid"), (2, 3, 4)),
    ("count", ("box", "cross", "hpoly", "ellipsoid"), (2, 3, 4)),
    ("ehrhart", ("box", "cross", "simplex"), (2, 3)),
    ("width", ("box", "cross", "ellipsoid"), (2, 3, 4)),
    ("polar", ("box", "cross", "hpoly", "ellipsoid"), (2, 3, 4)),
)
DILATES = ("1", "3/2", "2", "5/2")
# one count whose point list, 71^3 = 357 911 points or about 30 MB, dominates the
# process's peak resident set, so that peak_rss_mb follows what enumeration holds
LARGE_COUNT = {"body": {"kind": "box", "n": 3, "a": ["5/2"] * 3}, "dilate": "14",
               "interior": False}


def gen_box(rng, n):
    sides = sorted((Fraction(rng.randint(1, 5), 2) for _ in range(n)), reverse=True)
    return {"kind": "box", "n": n, "a": [_rs(x) for x in sides]}


def gen_cross(rng, n):
    return {"kind": "cross", "n": n, "scale": _rs(Fraction(rng.randint(2, 7), 2))}


def gen_hpoly(rng, n):
    """A box cut by one slab, drawn until every halfspace is a facet."""
    while True:
        c = [rng.randint(1, 3) for _ in range(n)]
        u = [rng.randint(-2, 2) for _ in range(n)]
        if sum(1 for x in u if x) < 2:
            continue
        support = sum(abs(x) * ci for x, ci in zip(u, c))
        b = Fraction(rng.randint(1, 2 * support - 1), 2)
        if all(u[i] * c[i] - (support - abs(u[i]) * c[i]) < b
               and u[i] * c[i] + (support - abs(u[i]) * c[i]) > -b for i in range(n)):
            break
    rows, rhs = [], []
    for i in range(n):
        for s in (1, -1):
            e = [0] * n
            e[i] = s
            rows.append(e)
            rhs.append(c[i])
    rows += [u, [-x for x in u]]
    rhs += [b, b]
    return {"kind": "hpoly", "n": n, "A": [[_rs(x) for x in r] for r in rows],
            "b": [_rs(x) for x in rhs], "extent": c}


def gen_ellipsoid(rng, n):
    """Q = M^T M / r^2 for a unimodular shear M: {|Mx| <= r}."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    m[i][j] = rng.choice((-1, 1))
    r2 = rng.choice((4, 5, 6))
    q = [[Fraction(sum(m[k][a] * m[k][b] for k in range(n)), r2) for b in range(n)]
         for a in range(n)]
    return {"kind": "ellipsoid", "n": n, "Q": [[_rs(x) for x in row] for row in q]}


GEN = {"box": gen_box, "cross": gen_cross, "hpoly": gen_hpoly, "ellipsoid": gen_ellipsoid}


def gen_lattice(rng, n):
    """Unimodular shears times a diagonal of ones and twos."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    d = [rng.choice((1, 1, 2)) for _ in range(n)]
    return [[u[i][t] * d[t] for t in range(n)] for i in range(n)]


def gen_matrix(rng, m, n):
    while True:
        if m == 1:
            a = [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]]
        else:
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        if oracles.rank(a) == m:
            return a


def body_json(spec):
    kind = spec["kind"]
    if kind == "box":
        return {"schema": "gon/1", "type": "box", "a": spec["a"]}
    if kind == "cross":
        return {"schema": "gon/1", "type": "cross", "dim": spec["n"], "scale": spec["scale"]}
    if kind == "hpoly":
        return {"schema": "gon/1", "type": "hpoly", "A": spec["A"], "b": spec["b"]}
    if kind == "simplex":
        return {"schema": "gon/1", "type": "vpoly", "vertices": spec["vertices"]}
    return {"schema": "gon/1", "type": "ellipsoid", "Q": spec["Q"]}


def ehrhart_body(rng, kind, n):
    """A lattice polytope on Z^n with a closed-form Ehrhart polynomial."""
    if kind == "box":
        sides = sorted((rng.randint(1, 2) for _ in range(n)), reverse=True)
        return {"kind": "box", "n": n, "a": [str(x) for x in sides]}
    if kind == "cross":
        return {"kind": "cross", "n": n, "scale": str(rng.randint(1, 2))}
    s = rng.randint(1, 3)
    verts = [[0] * n] + [[s * int(i == j) for j in range(n)] for i in range(n)]
    return {"kind": "simplex", "n": n, "scale": s, "vertices": [[str(x) for x in v] for v in verts]}


def request_specs(rng):
    """The request pool, as (command, spec) pairs in mix order."""
    specs = []
    for m, n in SIEGEL_SHAPES:
        for _ in range(SIEGEL_PER_SHAPE):
            specs.append(("siegel", {"matrix": gen_matrix(rng, m, n)}))
    for cmd, kinds, dims in MIX:
        for kind, n, _ in product(kinds, dims, range(PER_CELL)):
            if cmd == "ehrhart":
                specs.append((cmd, {"body": ehrhart_body(rng, kind, n),
                                    "eval": rng.choice((None, rng.randint(3, 9)))}))
                continue
            spec = {"body": GEN[kind](rng, n)}
            if cmd == "minima":
                spec["basis"] = gen_lattice(rng, n)
            elif cmd == "count":
                # four-dimensional dilates stay small: points grow like d^4
                spec["dilate"] = rng.choice(DILATES[:2] if n == 4 else DILATES)
                spec["interior"] = rng.random() < 0.5
            specs.append((cmd, spec))
    specs.append(("count", LARGE_COUNT))
    return specs


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def request_argv(i, cmd, spec, workdir):
    def f(tag, doc):
        return _write(os.path.join(workdir, f"r{i:03d}-{tag}.json"), doc)

    if cmd == "siegel":
        a = spec["matrix"]
        return [cmd, "--matrix", f("matrix", {"schema": "gon/1", "rows": len(a),
                                              "cols": len(a[0]), "data": a})]
    argv = [cmd, "--body", f("body", body_json(spec["body"]))]
    n = spec["body"]["n"]
    basis = spec.get("basis", [[int(i == j) for j in range(n)] for i in range(n)])
    if cmd != "polar":
        argv += ["--lattice", f("lattice", {"schema": "gon/1",
                                            "basis": [[str(x) for x in r] for r in basis]})]
    if cmd == "count":
        argv += ["--dilate", spec["dilate"]] + (["--interior"] if spec["interior"] else [])
    if cmd == "ehrhart" and spec["eval"] is not None:
        argv += ["--eval", str(spec["eval"])]
    return argv


CHECKS = {
    "siegel": lambda spec, doc: oracles.check_siegel(spec["matrix"], doc),
    "minima": oracles.check_minima,
    "count": oracles.check_count,
    "ehrhart": oracles.check_ehrhart,
    "width": oracles.check_width,
    "polar": oracles.check_polar,
}


def build_requests(gon, seed, workdir):
    rng = random.Random(seed)
    ops = []
    for i, (cmd, spec) in enumerate(request_specs(random.Random(POOL_SEED))):
        argv = request_argv(i, cmd, spec, workdir)
        ops.append(Op(cmd, _cli_call(gon, argv), _cli_check(cmd, spec)))
    rng.shuffle(ops)
    return ops


def _cli_call(gon, argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = gon.cli.main(argv)
        return code, buf.getvalue()
    return call


def _cli_check(cmd, spec):
    def check(result):
        code, text = result
        doc = json.loads(text)
        oracles.require(code == 0, f"exit code {code}: {doc.get('error')}")
        oracles.require(doc.get("command") == cmd, "wrong command echoed")
        CHECKS[cmd](spec, doc)
    return check


BUILDERS = {"scan": build_scan, "corpus": build_corpus, "requests": build_requests}
