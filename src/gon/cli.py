"""Command-line front end.

One JSON document per invocation on standard output; with --pretty a human
table goes to standard error. Exit codes: 0 success, 1 usage or input error
(reported as a structured error object), 2 a theorem check failed or a
conjecture counterexample candidate was emitted, 3 an internal invariant of
the program failed (reported as an error object with code "internal").
"""

import argparse
import functools
import json
import multiprocessing
import os
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .body import Body, centered_simplex, cross_polytope, cube, dual_centered_simplex, \
    generalized_hexagon, polar_body
from .counting import count_points, ehrhart
from .exactmath import DimensionGuardError, ExactGeometryError, current_width, rat, rat_str, \
    working_width
from .lattice import Lattice, kernel_lattice, make_lattice, standard_lattice
from .minima import lattice_width, successive_minima
from . import schemas
from .schemas import SCHEMA_TAG, validate_input, validate_output
from .siegel import hexagon_delta2, scan_constants, siegel_solve, sinc_sigma, whitworth_delta
from .verify import _jsonify, candidate_json, counterexample_candidates, instance_json, \
    list_checks, random_instance, run_checks

_STATUSES = ("holds", "equality", "violated", "skipped", "undecided")


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is taken by the check contract
    def error(self, message):
        raise CliError("usage", message)


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise CliError("input", f"{path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise CliError("bad-json", f"{path}: {e}")


def _validated(kind: str, path: str):
    doc = _load_json(path)
    try:
        validate_input(kind, doc)
    except schemas.ValidationError as e:  # looked up, and jsonschema imported, only on a raise
        raise CliError("schema", f"{path}: {e.message}")
    return doc


def _load_body(path: str) -> Body:
    return Body.from_json(_validated("body", path))


def _load_lattice(path: str) -> Lattice:
    return Lattice.from_json(_validated("lattice", path))


def _load_matrix(path: str) -> list:
    doc = _validated("matrix", path)
    data = doc["data"]
    if len(data) != doc["rows"] or any(len(r) != doc["cols"] for r in data):
        raise CliError("schema", f"{path}: data shape disagrees with rows/cols")
    return data


def _precision(args) -> Fraction:
    """The working width of this call: --precision, else GON_PRECISION, else the one in force."""
    raw = args.precision if args.precision is not None else os.environ.get("GON_PRECISION")
    if raw is None:
        return current_width()
    try:
        exp = int(raw)
    except (TypeError, ValueError):
        raise CliError("usage", f"precision must be an integer exponent, got {raw!r}")
    if not 4 <= exp <= 512:
        raise CliError("usage", "precision exponent out of range [4, 512]")
    return Fraction(1, 2 ** exp)


def _doc(command: str, **fields) -> dict:
    out = {"schema": SCHEMA_TAG, "command": command}
    out.update(fields)
    return out


# ---------------------------------------------------------------------------
# command handlers: each returns (document, exit code)


def _cmd_minima(args):
    k = _load_body(args.body)
    lat = _load_lattice(args.lattice)
    if args.count is not None and args.count < 1:
        raise CliError("usage", "--count must be positive")
    res = successive_minima(k, lat, count=args.count, allow_asymmetric=args.asymmetric)
    doc = _doc(
        "minima",
        n=k.dim,
        rank=lat.rank,
        count=len(res.values),
        minima=[_jsonify(v) for v in res.values],
        witnesses=[[rat_str(x) for x in w] for w in res.witnesses],
    )
    return doc, 0


def _cmd_count(args):
    k = _load_body(args.body)
    lat = _load_lattice(args.lattice)
    dilate = rat(args.dilate)
    if dilate <= 0:
        raise CliError("usage", "--dilate must be positive")
    if dilate != 1:
        k = k.dilate(dilate)
    c = count_points(k, lat, interior=args.interior)
    doc = _doc("count", n=k.dim, interior=args.interior, dilate=rat_str(dilate), count=c)
    return doc, 0


def _cmd_ehrhart(args):
    k = _load_body(args.body)
    lat = _load_lattice(args.lattice)
    poly = ehrhart(k, lat, holdout=not args.no_holdout)
    value = None if args.eval is None else rat_str(poly.evaluate(args.eval))
    doc = _doc(
        "ehrhart",
        n=k.dim,
        degree=poly.degree,
        coefficients=[rat_str(c) for c in poly.coefficients],
        eval_at=args.eval,
        eval_value=value,
    )
    return doc, 0


def _cmd_polar(args):
    k = _load_body(args.body)
    doc = _doc("polar", n=k.dim, body=polar_body(k).to_json())
    return doc, 0


def _cmd_width(args):
    k = _load_body(args.body)
    lat = _load_lattice(args.lattice)
    val, direction = lattice_width(k, lat)
    doc = _doc(
        "width",
        n=k.dim,
        width=_jsonify(val),
        direction=[rat_str(x) for x in direction],
    )
    return doc, 0


def _cmd_siegel(args):
    rows = _load_matrix(args.matrix)
    sol = siegel_solve(rows)
    doc = _doc(
        "siegel",
        m=len(sol.matrix_rows),
        n=len(sol.matrix_rows[0]),
        vectors=[list(v) for v in sol.vectors],
        norms=list(sol.norms),
        product_norm=sol.product_norm,
        gram_det=sol.gram_det,
        minor_gcd=sol.minor_gcd,
        bv_bound=_jsonify(sol.bv_bound),
        classical_bound=_jsonify(sol.classical_bound),
        bv_satisfied=sol.bv_satisfied,
        classical_satisfied=sol.classical_satisfied,
    )
    return doc, 0


def _cmd_scan(args):
    if args.jobs < 1:
        raise CliError("usage", "--jobs must be at least 1")
    rep = scan_constants(args.n, args.max, dedupe=not args.no_dedupe, jobs=args.jobs)
    records = None
    if not args.no_records:
        records = [
            {
                "a": list(r.a),
                "minima": list(r.minima),
                "minima_product": r.minima_product,
                "ratio_single": rat_str(r.ratio_single),
                "ratio_product": rat_str(r.ratio_product),
                "bv_satisfied": r.bv_satisfied,
                "hexagon_bound": None if r.hexagon_bound is None else rat_str(r.hexagon_bound),
                "hexagon_satisfied": r.hexagon_satisfied,
            }
            for r in rep.records
        ]
    doc = _doc(
        "scan",
        n=rep.n,
        a_max=rep.a_max,
        dedupe=rep.dedupe,
        record_count=len(rep.records),
        empirical_c=rat_str(rep.empirical_c),
        empirical_s=rat_str(rep.empirical_s),
        witness_c=list(rep.witness_c),
        witness_s=list(rep.witness_s),
        bound_sqrt_n=_jsonify(rep.bound_sqrt_n),
        bound_sigma_inv=rat_str(rep.bound_sigma_inv),
        exact_value=None if rep.exact_value is None else rat_str(rep.exact_value),
        within_sqrt_n=rep.within_sqrt_n,
        within_sigma_inv=rep.within_sigma_inv,
        within_exact=rep.within_exact,
        sigma_inv_below_sqrt_n=rep.sigma_inv_below_sqrt_n,
        records=records,
    )
    return doc, 0


def _cmd_sigma(args):
    doc = _doc("sigma", n=args.n, sigma=rat_str(sinc_sigma(args.n)))
    return doc, 0


def _cmd_whitworth(args):
    if args.hexagon:
        doc = _doc("whitworth", variant="hexagon2", beta=None, delta=rat_str(hexagon_delta2()))
    else:
        beta = rat(args.beta)
        if beta <= 0:
            raise CliError("usage", "--beta must be positive")
        doc = _doc("whitworth", variant="slab", beta=rat_str(beta),
                   delta=rat_str(whitworth_delta(beta)))
    return doc, 0


def _status_counts(statuses) -> dict:
    statuses = list(statuses)
    return {s: sum(1 for x in statuses if x == s) for s in _STATUSES}


def _selection(arg):
    if arg is None:
        return None
    sel = [s.strip() for s in arg.split(",") if s.strip()]
    if not sel:
        raise CliError("usage", "empty check selection")
    known = {c["check_id"] for c in list_checks()}
    for cid in sel:
        if cid not in known:
            raise CliError("usage", f"unknown check id: {cid}")
    return sel


def _cmd_verify(args):
    k = _load_body(args.body)
    lat = _load_lattice(args.lattice)
    sel = _selection(args.checks)
    reports = run_checks(k, lat, sel)
    violations = [r.check_id for r in reports if r.status == "violated"]
    candidates = [candidate_json(r, k, lat) for r in counterexample_candidates(reports)]
    doc = _doc(
        "verify",
        n=k.dim,
        checks_run=len(reports),
        status_counts=_status_counts(r.status for r in reports),
        reports=[r.to_json() for r in reports],
        violations=violations,
        candidates=candidates,
    )
    return doc, 2 if violations else 0


# corpus: fixed named instances plus the seeded random battery


def _fixed_instances():
    out = []
    for n in (2, 3):
        zn = standard_lattice(n)
        out.append((f"cube-{n}", cube(n), zn))
        out.append((f"cross-{n}", cross_polytope(n), zn))
        out.append((f"simplex-{n}", centered_simplex(n), zn))
        out.append((f"dual-simplex-{n}", dual_centered_simplex(n), zn))
    out.append(("hexagon-half", generalized_hexagon([Fraction(1, 2), Fraction(1, 2)]),
                standard_lattice(2)))
    out.append(("index-2", cube(2), make_lattice([[2, 0], [0, 1]])))
    out.append(("kernel-123", cube(3), kernel_lattice([[1, 2, 3]])))
    out.append(("kernel-1111", cube(4), kernel_lattice([[1, 1, 1, 1]])))
    return out


def _summarize(idx, k, lat, reports):
    violations = [
        {"index": idx, "check_id": r.check_id, "report": r.to_json(), **instance_json(k, lat)}
        for r in reports
        if r.status == "violated" and r.kind != "conjecture"
    ]
    candidates = [candidate_json(r, k, lat) for r in counterexample_candidates(reports)]
    return {
        "statuses": [(r.check_id, r.status) for r in reports],
        "violations": violations,
        "candidates": candidates,
    }


def _corpus_task(task):
    seed, idx, sel = task
    rng = random.Random(seed * 1_000_003 + idx)
    k, lat = random_instance(rng)
    return _summarize(idx, k, lat, run_checks(k, lat, list(sel) if sel else None))


def _cmd_corpus(args):
    if args.instances < 0:
        raise CliError("usage", "--instances must be nonnegative")
    if args.jobs < 1:
        raise CliError("usage", "--jobs must be at least 1")
    sel = _selection(args.checks)
    tasks = [(args.seed, i, tuple(sel) if sel else None) for i in range(args.instances)]
    if args.jobs > 1 and tasks:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(args.jobs, len(tasks))) as pool:
            summaries = pool.map(_corpus_task, tasks, chunksize=1)
    else:
        summaries = [_corpus_task(t) for t in tasks]

    check_counts = {c["check_id"]: {} for c in list_checks()}

    def tally(statuses):
        for cid, status in statuses:
            per = check_counts[cid]
            per[status] = per.get(status, 0) + 1

    fixed_docs = []
    fixed_statuses = []
    for name, k, lat in _fixed_instances():
        reports = run_checks(k, lat, sel)
        s = _summarize(name, k, lat, reports)
        tally(s["statuses"])
        fixed_statuses.extend(st for _, st in s["statuses"])
        fixed_docs.append({
            "name": name,
            "status_counts": _status_counts(st for _, st in s["statuses"]),
            "violations": [v["check_id"] for v in s["violations"]],
            "candidates": s["candidates"],
        })

    rand_statuses = []
    rand_violations = []
    rand_candidates = []
    for s in summaries:
        tally(s["statuses"])
        rand_statuses.extend(st for _, st in s["statuses"])
        rand_violations.extend(s["violations"])
        rand_candidates.extend(s["candidates"])

    random_section = {
        "instances": args.instances,
        "status_counts": _status_counts(rand_statuses),
        "violations": rand_violations,
        "candidates": rand_candidates,
    }
    bad = (rand_violations or rand_candidates
           or any(f["violations"] or f["candidates"] for f in fixed_docs))
    doc = _doc(
        "corpus",
        seed=args.seed,
        fixed=fixed_docs,
        random=random_section,
        status_counts=_status_counts(fixed_statuses + rand_statuses),
        check_status_counts={cid: per for cid, per in check_counts.items() if per},
        all_hold=not bad,
    )
    return doc, 2 if bad else 0


# ---------------------------------------------------------------------------
# human tables (--pretty, standard error)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, dict):
        if "sqrt_of" in v:
            return f"sqrt({v['sqrt_of']})"
        if "lo" in v:
            return f"[{v['lo']}, {v['hi']}]"
    if isinstance(v, list):
        return "(" + ", ".join(_fmt(x) for x in v) + ")"
    return str(v)


def _table(header, rows) -> str:
    widths = [len(h) for h in header]
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"


def _kv_lines(doc, keys) -> str:
    return "".join(f"{k}: {_fmt(doc[k])}\n" for k in keys if k in doc)


def _pretty(command: str, doc: dict) -> str:
    if command == "minima":
        rows = [(str(i + 1), _fmt(v), _fmt(w))
                for i, (v, w) in enumerate(zip(doc["minima"], doc["witnesses"]))]
        return _table(("i", "lambda_i", "witness"), rows)
    if command == "verify":
        rows = [(r["check_id"], r["kind"], r["status"], _fmt(r["margin"]), r["reason"] or "")
                for r in doc["reports"]]
        return _table(("check", "kind", "status", "margin", "note"), rows)
    if command == "corpus":
        rows = [(f["name"],
                 str(f["status_counts"]["holds"]),
                 str(f["status_counts"]["equality"]),
                 str(f["status_counts"]["skipped"]),
                 ",".join(f["violations"]) or "-")
                for f in doc["fixed"]]
        head = _table(("fixed instance", "holds", "equality", "skipped", "violated"), rows)
        rc = doc["random"]["status_counts"]
        tail = (f"random: {doc['random']['instances']} instances, "
                f"{rc['holds']} holds, {rc['equality']} equality, "
                f"{rc['violated']} violated, {rc['undecided']} undecided\n"
                f"all_hold: {_fmt(doc['all_hold'])}\n")
        return head + tail
    if command == "scan":
        return _kv_lines(doc, ("n", "a_max", "record_count", "empirical_c", "empirical_s",
                               "bound_sqrt_n", "bound_sigma_inv", "exact_value",
                               "within_sqrt_n", "within_sigma_inv", "within_exact"))
    if command == "siegel":
        rows = [(str(i + 1), _fmt(v), str(nm))
                for i, (v, nm) in enumerate(zip(doc["vectors"], doc["norms"]))]
        return _table(("i", "x_i", "sup norm"), rows) + _kv_lines(
            doc, ("product_norm", "bv_bound", "bv_satisfied",
                  "classical_bound", "classical_satisfied"))
    keys = [k for k in doc if k not in ("schema", "command", "body", "reports")]
    return _kv_lines(doc, keys)


# ---------------------------------------------------------------------------
# parser / entry point


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="gon", description="exact geometry-of-numbers toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_):
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--pretty", action="store_true", help="write a table to stderr")
        p.add_argument("--precision", type=int, default=None, metavar="EXP",
                       help="interval width exponent: enclosures tighter than 2^-EXP")
        return p

    p = add("minima", "successive minima of a body over a lattice")
    p.add_argument("--body", required=True, metavar="FILE")
    p.add_argument("--lattice", required=True, metavar="FILE")
    p.add_argument("--count", type=int, default=None, metavar="K",
                   help="only the first K minima")
    p.add_argument("--asymmetric", action="store_true",
                   help="allow bodies that are not origin symmetric")

    p = add("count", "lattice points in a body")
    p.add_argument("--body", required=True, metavar="FILE")
    p.add_argument("--lattice", required=True, metavar="FILE")
    p.add_argument("--interior", action="store_true", help="strict interior only")
    p.add_argument("--dilate", default="1", metavar="RAT", help="dilate the body first")

    p = add("ehrhart", "dilation-count polynomial of a lattice polytope")
    p.add_argument("--body", required=True, metavar="FILE")
    p.add_argument("--lattice", required=True, metavar="FILE")
    p.add_argument("--eval", type=int, default=None, metavar="K",
                   help="also evaluate at dilation K")
    p.add_argument("--no-holdout", action="store_true",
                   help="skip the extra holdout dilations")

    p = add("polar", "polar dual of a body")
    p.add_argument("--body", required=True, metavar="FILE")

    p = add("width", "lattice width of a body")
    p.add_argument("--body", required=True, metavar="FILE")
    p.add_argument("--lattice", required=True, metavar="FILE")

    p = add("siegel", "small independent kernel solutions with certified bounds")
    p.add_argument("--matrix", required=True, metavar="FILE")

    p = add("scan", "exact minima ratios over ascending integer rows")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max", type=int, required=True, metavar="A_MAX")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-dedupe", action="store_true",
                   help="keep rows with a common factor")
    p.add_argument("--no-records", action="store_true",
                   help="omit the per-row records from the output")

    p = add("sigma", "sinc integral constant")
    p.add_argument("--n", type=int, required=True)

    p = add("whitworth", "critical density of a slab-cut square or hexagon")
    p.add_argument("--beta", default="1", metavar="RAT")
    p.add_argument("--hexagon", action="store_true",
                   help="planar generalized hexagon instead of the slab")

    p = add("verify", "run the inequality checks on one instance")
    p.add_argument("--body", required=True, metavar="FILE")
    p.add_argument("--lattice", required=True, metavar="FILE")
    p.add_argument("--checks", default=None, metavar="ID,ID,...",
                   help="comma-separated check ids (default: all)")

    p = add("corpus", "fixed plus seeded random verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=50, metavar="N")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checks", default=None, metavar="ID,ID,...")

    return parser


_HANDLERS = {
    "minima": _cmd_minima,
    "count": _cmd_count,
    "ehrhart": _cmd_ehrhart,
    "polar": _cmd_polar,
    "width": _cmd_width,
    "siegel": _cmd_siegel,
    "scan": _cmd_scan,
    "sigma": _cmd_sigma,
    "whitworth": _cmd_whitworth,
    "verify": _cmd_verify,
    "corpus": _cmd_corpus,
}


def _write_json(x, out: list, indent: str) -> None:
    # the text of json.dumps(x, indent=2), appended to out in pieces; a plain
    # recursion leaves no reference cycles behind, unlike json's own encoder
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in x.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for value in x:
            out.append(sep)
            _write_json(value, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json_text(doc: dict) -> str:
    out = []
    _write_json(doc, out, "")
    out.append("\n")
    return "".join(out)


def _emit(doc: dict) -> None:
    sys.stdout.write(_json_text(doc))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            # --precision and GON_PRECISION hold for this call only
            with working_width(_precision(args)):
                doc, code = _HANDLERS[args.command](args)
            validate_output(args.command, doc)
            text = _json_text(doc)
        except CliError:
            raise
        except DimensionGuardError as e:
            raise CliError("guard", str(e))
        except ExactGeometryError as e:
            raise CliError("input", str(e))
        except (ValueError, ZeroDivisionError, OverflowError) as e:
            raise CliError("input", str(e))
        except RuntimeError as e:
            # a self-check of the program failed: a fault here, not in the input
            raise CliError("internal", str(e))
        except Exception as e:
            # any other exception is a fault of the program too
            raise CliError("internal", f"{type(e).__name__}: {e}" if str(e) else type(e).__name__)
    except CliError as e:
        err = {"schema": SCHEMA_TAG, "error": {"code": e.code, "message": e.message}}
        validate_output("error", err)
        _emit(err)
        return 3 if e.code == "internal" else 1
    sys.stdout.write(text)
    if args.pretty:
        sys.stderr.write(_pretty(args.command, doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
