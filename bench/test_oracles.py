"""The benchmark's checks accept right answers and reject corrupted ones.

The outputs below are worked out by hand, not taken from the program.
Run with `python3 -m pytest bench/test_oracles.py` or `python3 bench/test_oracles.py`.
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import (  # noqa: E402
    CheckFailed,
    check_corpus,
    check_count,
    check_ehrhart,
    check_minima,
    check_polar,
    check_scan,
    check_siegel,
    check_width,
)


def rejects(check, *args):
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def siegel_doc(vectors, norms, gram_det, minor_gcd=1):
    product = 1
    for x in norms:
        product *= x
    return {"vectors": vectors, "norms": norms, "product_norm": product,
            "gram_det": gram_det, "minor_gcd": minor_gcd, "bv_satisfied": True}


# ker [1 1 1] has minima 1, 1; ker [1 2 3] has minima 1 (1,1,-1) and 2 (2,-1,0)
ONES = [[1, 1, 1]]
ONE_TWO_THREE = [[1, 2, 3]]


def test_siegel_accepts_true_minima():
    check_siegel(ONES, siegel_doc([[1, -1, 0], [0, 1, -1]], [1, 1], 3))
    check_siegel(ONE_TWO_THREE, siegel_doc([[1, 1, -1], [2, -1, 0]], [1, 2], 14))


def test_siegel_rejects_wrong_norm():
    doc = siegel_doc([[1, -1, 0], [0, 1, -1]], [1, 1], 3)
    doc["norms"] = [1, 2]
    assert rejects(check_siegel, ONES, doc)


def test_siegel_rejects_vector_outside_kernel():
    assert rejects(check_siegel, ONES, siegel_doc([[1, 0, 0], [0, 1, -1]], [1, 1], 3))


def test_siegel_rejects_dependent_vectors():
    assert rejects(check_siegel, ONES, siegel_doc([[1, -1, 0], [2, -2, 0]], [1, 2], 3))


def test_siegel_rejects_minimum_that_is_not_minimal():
    # (3, 0, -1) is independent of (1, 1, -1) and within the product bound,
    # but (2, -1, 0) is shorter
    assert rejects(check_siegel, ONE_TWO_THREE,
                   siegel_doc([[1, 1, -1], [3, 0, -1]], [1, 3], 14))


def test_siegel_rejects_wrong_determinant():
    assert rejects(check_siegel, ONES, siegel_doc([[1, -1, 0], [0, 1, -1]], [1, 1], 4))


def count_spec(body, dilate="1", interior=False):
    return {"body": body, "dilate": dilate, "interior": interior}


BOX = {"kind": "box", "n": 2, "a": ["3/2", "1/2"]}
CROSS = {"kind": "cross", "n": 2, "scale": "2"}
DISK = {"kind": "ellipsoid", "n": 2, "Q": [["1/4", "0"], ["0", "1/4"]]}
CUT_SQUARE = {"kind": "hpoly", "n": 2, "extent": [1, 1],
              "A": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["1", "1"], ["-1", "-1"]],
              "b": ["1", "1", "1", "1", "1", "1"]}


def test_count_closed_forms_and_brute_force():
    check_count(count_spec(BOX), {"count": 3, "interior": False})
    check_count(count_spec(BOX, "2"), {"count": 21, "interior": False})
    check_count(count_spec(BOX, "2", True), {"count": 5, "interior": True})
    check_count(count_spec(CROSS), {"count": 13, "interior": False})
    check_count(count_spec(CROSS, "1", True), {"count": 5, "interior": True})
    check_count(count_spec(DISK), {"count": 13, "interior": False})
    check_count(count_spec(DISK, "1", True), {"count": 9, "interior": True})
    check_count(count_spec(CUT_SQUARE), {"count": 7, "interior": False})
    check_count(count_spec(CUT_SQUARE, "1", True), {"count": 1, "interior": True})


def test_count_rejects_off_by_one():
    for spec, good in ((count_spec(BOX), 3), (count_spec(CROSS), 13), (count_spec(DISK), 13),
                       (count_spec(CUT_SQUARE), 7)):
        for bad in (good - 1, good + 1):
            assert rejects(check_count, spec, {"count": bad, "interior": False})


def test_ehrhart_closed_forms():
    square = {"body": {"kind": "box", "n": 2, "a": ["1", "1"]}, "eval": 2}
    check_ehrhart(square, {"degree": 2, "coefficients": ["1", "4", "4"], "eval_value": "25"})
    assert rejects(check_ehrhart, square,
                   {"degree": 2, "coefficients": ["1", "4", "5"], "eval_value": "25"})
    assert rejects(check_ehrhart, square,
                   {"degree": 2, "coefficients": ["1", "4", "4"], "eval_value": "24"})
    # L(t) = C(t + 2, 2) for the unit triangle
    tri = {"body": {"kind": "simplex", "n": 2, "scale": 1,
                    "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}, "eval": None}
    check_ehrhart(tri, {"degree": 2, "coefficients": ["1", "3/2", "1/2"]})
    assert rejects(check_ehrhart, tri, {"degree": 2, "coefficients": ["1", "1", "1/2"]})


MINIMA_BOX = {"body": {"kind": "box", "n": 2, "a": ["2", "1/2"]}, "basis": [[1, 0], [0, 1]]}


def test_minima_accepts_box_minima():
    check_minima(MINIMA_BOX, {"minima": ["1/2", "2"], "witnesses": [["1", "0"], ["0", "1"]]})


def test_minima_rejects_dependent_witness():
    assert rejects(check_minima, MINIMA_BOX,
                   {"minima": ["1/2", "1"], "witnesses": [["1", "0"], ["2", "0"]]})


def test_minima_rejects_wrong_gauge_and_non_lattice_witness():
    assert rejects(check_minima, MINIMA_BOX,
                   {"minima": ["1/2", "1"], "witnesses": [["1", "0"], ["0", "1"]]})
    index_two = dict(MINIMA_BOX, basis=[[2, 0], [0, 1]])
    assert rejects(check_minima, index_two,
                   {"minima": ["1/2", "2"], "witnesses": [["1", "0"], ["0", "1"]]})


def test_minima_ellipsoid_values_are_square_roots():
    disk = {"body": DISK, "basis": [[1, 0], [1, 1]]}
    check_minima(disk, {"minima": ["1/2", "1/2"], "witnesses": [["0", "1"], ["1", "0"]]})
    check_minima(disk, {"minima": ["1/2", {"sqrt_of": "1/4"}],
                        "witnesses": [["0", "1"], ["1", "0"]]})
    assert rejects(check_minima, disk, {"minima": ["1/2", {"sqrt_of": "1/2"}],
                                        "witnesses": [["0", "1"], ["1", "0"]]})


def test_width_and_polar():
    box = {"body": {"kind": "box", "n": 2, "a": ["2", "1/2"]}}
    check_width(box, {"width": "1", "direction": ["0", "1"]})
    assert rejects(check_width, box, {"width": "4", "direction": ["1", "0"]})
    ellipse = {"body": {"kind": "ellipsoid", "n": 2, "Q": [["1", "0"], ["0", "1/4"]]}}
    check_width(ellipse, {"width": "2", "direction": ["1", "0"]})
    assert rejects(check_width, ellipse, {"width": "4", "direction": ["0", "1"]})
    check_polar({"body": CROSS}, {"body": {"type": "box", "a": ["1/2", "1/2"]}})
    assert rejects(check_polar, {"body": CROSS}, {"body": {"type": "box", "a": ["1/2", "1"]}})
    check_polar({"body": CUT_SQUARE}, {"body": {"type": "vpoly", "vertices": [
        ["-1", "-1"], ["-1", "0"], ["0", "-1"], ["0", "1"], ["1", "0"], ["1", "1"]]}})


def scan_records():
    # for a primitive row (a1, a2) the kernel is spanned by (a2, -a1): minimum a2
    rows = [(1, 1), (1, 2), (1, 3), (2, 3)]
    return [(a, (a[1],), a[1], Fraction(1), True) for a in rows]


def test_scan_accepts_and_rejects():
    check_scan(2, 3, scan_records(), Fraction(1), [0, 1, 2, 3])
    bad = scan_records()
    bad[2] = ((1, 3), (2,), 2, Fraction(2, 3), True)
    assert rejects(check_scan, 2, 3, bad, Fraction(1), [2])
    assert rejects(check_scan, 2, 3, scan_records()[:3], Fraction(1), [])
    assert rejects(check_scan, 2, 3, scan_records(), Fraction(2), [])


def test_corpus_rejects_violations_and_wrong_counts():
    square = ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1], [[1, 0], [0, 1]], [1, 1])
    good = [("bhw_upper", "theorem", "holds", {"count": 9}),
            ("gv_conj", "conjecture", "holds",
             {"variants": {"closed": {"count": 9}, "interior": {"count": 1}}})]
    check_corpus(good, square)
    assert rejects(check_corpus, [("bhw_upper", "theorem", "holds", {"count": 10})], square)
    assert rejects(check_corpus, [("gv_conj", "conjecture", "holds",
                                   {"variants": {"interior": {"count": 2}}})], square)
    assert rejects(check_corpus, [("minkowski_upper", "theorem", "violated", {})])
    assert rejects(check_corpus, [("bhw_conj", "conjecture", "violated", {})])

