"""Outputs pinned by digest on a fixed set of instances.

The instances are the 12 named instances of ``gon corpus`` and
``random_instance(random.Random(idx))`` for idx 0-159.  For each, the test
hashes with sha256:

- the ``[r.to_json() for r in run_checks(k, lat)]`` document;
- ``Body.scalars()`` of K and of its symmetral;
- ``hrep()`` of K and of its symmetral, when K is a polytope;

and compares the digests with those stored in ``pinned_outputs.json`` beside
this file.  It also hashes ``repr(scan_constants(n, h).records)`` over the
benchmark's scan sweep (n = 2 with h = 4, 8, ..., 40; n = 3 with h = 2..12;
n = 4 with h = 2..5) and compares those digests with ``pinned_scan_records.json``,
so a basis reduction that picks a different reduced basis, and with it
different witnesses or minima, is seen.  What no change of numerical method
may move is pinned apart, in ``pinned_invariant_outputs.json``: for each
instance, the ``(check_id, kind, status, reason)`` of every check, and
``repr((volume, centroid))`` of K and of its symmetral, which are exact.
Lattice outputs are pinned in ``pinned_lattice_outputs.json``: the ``to_json()`` of ``kernel_lattice`` on
fixed integer matrices, and, for the 12 corpus lattices and fixed rational
bases with a denominator above 1 or fewer rows than columns, the ``to_json()``
of ``lll_reduce`` (delta = 3/4 and 99/100), ``hermite_basis``, ``dual`` and
``scale``, with the results of ``same_lattice`` against all of them.  A change that moves any of these
outputs, by a single digit of a margin or by the order of an
H-representation's rows, fails here.

When an output is meant to change, regenerate the files of digests with

    PYTHONPATH=src python tests/test_pinned_outputs.py

(it rewrites the instance, invariant, scan and lattice digests) and say in
the change which digests moved and why.  The invariant digests move only
when the program's answers are meant to change, not its methods.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gon import run_checks, scan_constants, symmetrize
from gon.cli import _fixed_instances
from gon.lattice import kernel_lattice, lll_reduce, make_lattice
from gon.verify import random_instance

DIGESTS = Path(__file__).with_name("pinned_outputs.json")
INVARIANT_DIGESTS = Path(__file__).with_name("pinned_invariant_outputs.json")
SCAN_DIGESTS = Path(__file__).with_name("pinned_scan_records.json")
LATTICE_DIGESTS = Path(__file__).with_name("pinned_lattice_outputs.json")
RANDOM_DRAWS = 160
SCAN_SWEEP = ([(2, h) for h in range(4, 41, 4)] + [(3, h) for h in range(2, 13)]
              + [(4, h) for h in range(2, 6)])

KERNEL_MATRICES = [
    [[1, 2, 3]], [[3, 7, 11]], [[6, 10, 15]], [[1, 1, 1, 1]], [[-4, 9, 1, 7, 2]],
    [[1, 2, 3, 4], [2, 3, 5, 7]], [[4, -2, 0, 6, 1], [0, 3, 9, -5, 2]],
    [[1, 0, 2, -1, 3, 5], [2, 1, 0, 4, -3, 1], [0, 5, 1, 1, 2, -2]],
]
RATIONAL_BASES = [
    [["1/2", "0"], ["1/3", "5/4"]],
    [["7/6", "-5/4", "1/9"], ["2", "1/2", "-3"], ["1/5", "0", "4/3"]],
    [["2/3", "1", "-1/2"], ["0", "3/5", "2"]],
    [[1, 1, -1], [0, 3, -2]],
    [["1/2", "1/2", "1/2", "1/2"]],
    [[3, 0, -1, 2], ["1/7", "2/7", "3/7", "-1/7"], [0, 4, 4, "9/2"]],
    [[12, -5, 7, 1, 0], [-3, 9, 2, 8, 6], [5, 5, -11, 0, 4], [1, 2, 3, 4, 5]],
]


def _instances():
    out = [(name, lambda k=k, lat=lat: (k, lat)) for name, k, lat in _fixed_instances()]
    out += [(f"random-{idx}", lambda idx=idx: random_instance(random.Random(idx)))
            for idx in range(RANDOM_DRAWS)]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def _outputs(name):
    # K, its symmetral and the reports, computed once for both digest tests
    k, lat = INSTANCES[name]()
    return k, symmetrize(k), run_checks(k, lat)


def digests(name) -> dict:
    k, ks, reports = _outputs(name)
    out = {
        "run_checks": _sha(json.dumps([r.to_json() for r in reports], sort_keys=True)),
        "scalars": _sha(repr(k.scalars())),
        "symmetral_scalars": _sha(repr(ks.scalars())),
    }
    if k.is_polytope:
        out["hrep"] = _sha(repr(k.hrep()))
        out["symmetral_hrep"] = _sha(repr(ks.hrep()))
    return out


def invariant_digests(name) -> dict:
    k, ks, reports = _outputs(name)
    return {
        "statuses": _sha(repr([(r.check_id, r.kind, r.status, r.reason) for r in reports])),
        "volume_centroid": _sha(repr((k.volume(), k.centroid()))),
        "symmetral_volume_centroid": _sha(repr((ks.volume(), ks.centroid()))),
    }


def scan_digests() -> dict:
    return {f"n{n}-h{h}": _sha(repr(scan_constants(n, h).records)) for n, h in SCAN_SWEEP}


def _lattices():
    out = [(f"corpus-{name}", lat) for name, _, lat in _fixed_instances()]
    out += [(f"kernel-{i}", kernel_lattice(a)) for i, a in enumerate(KERNEL_MATRICES)]
    out += [(f"rational-{i}", make_lattice(b)) for i, b in enumerate(RATIONAL_BASES)]
    return out


def lattice_digests() -> dict:
    lats = _lattices()
    out = {}
    for name, lat in lats:
        derived = {
            "self": lat,
            "lll": lll_reduce(lat),
            "lll_99": lll_reduce(lat, Fraction(99, 100)),
            "hermite": lat.hermite_basis(),
            "dual": lat.dual(),
            "scale": lat.scale(Fraction(3, 2)),
        }
        out[name] = {key: _sha(json.dumps(d.to_json())) for key, d in derived.items()}
        others = list(derived.values()) + [other for _, other in lats]
        out[name]["same_lattice"] = "".join("01"[lat.same_lattice(o)] for o in others)
    return out


INSTANCES = dict(_instances())


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def pinned_invariants():
    return json.loads(INVARIANT_DIGESTS.read_text())


def test_every_instance_is_pinned(pinned, pinned_invariants):
    assert sorted(pinned) == sorted(pinned_invariants) == sorted(INSTANCES)


@pytest.mark.parametrize("name", list(INSTANCES))
def test_outputs_match_pinned_digests(name, pinned):
    assert digests(name) == pinned[name]


@pytest.mark.parametrize("name", list(INSTANCES))
def test_invariants_match_pinned_digests(name, pinned_invariants):
    assert invariant_digests(name) == pinned_invariants[name]


def test_scan_records_match_pinned_digests():
    assert scan_digests() == json.loads(SCAN_DIGESTS.read_text())


def test_lattice_outputs_match_pinned_digests():
    assert lattice_digests() == json.loads(LATTICE_DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({name: digests(name) for name in INSTANCES},
                                  indent=1, sort_keys=True) + "\n")
    INVARIANT_DIGESTS.write_text(json.dumps({name: invariant_digests(name) for name in INSTANCES},
                                            indent=1, sort_keys=True) + "\n")
    SCAN_DIGESTS.write_text(json.dumps(scan_digests(), indent=1, sort_keys=True) + "\n")
    LATTICE_DIGESTS.write_text(json.dumps(lattice_digests(), indent=1, sort_keys=True) + "\n")
