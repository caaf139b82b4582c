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
different witnesses or minima, is seen.  A change that moves any of these
outputs, by a single digit of a margin or by the order of an
H-representation's rows, fails here.

When an output is meant to change, regenerate both files of digests with

    PYTHONPATH=src python tests/test_pinned_outputs.py

and say in the change why they moved.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from gon import run_checks, scan_constants, symmetrize
from gon.cli import _fixed_instances
from gon.verify import random_instance

DIGESTS = Path(__file__).with_name("pinned_outputs.json")
SCAN_DIGESTS = Path(__file__).with_name("pinned_scan_records.json")
RANDOM_DRAWS = 160
SCAN_SWEEP = ([(2, h) for h in range(4, 41, 4)] + [(3, h) for h in range(2, 13)]
              + [(4, h) for h in range(2, 6)])


def _instances():
    out = [(name, lambda k=k, lat=lat: (k, lat)) for name, k, lat in _fixed_instances()]
    out += [(f"random-{idx}", lambda idx=idx: random_instance(random.Random(idx)))
            for idx in range(RANDOM_DRAWS)]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(k, lat) -> dict:
    reports = json.dumps([r.to_json() for r in run_checks(k, lat)], sort_keys=True)
    ks = symmetrize(k)
    out = {
        "run_checks": _sha(reports),
        "scalars": _sha(repr(k.scalars())),
        "symmetral_scalars": _sha(repr(ks.scalars())),
    }
    if k.is_polytope:
        out["hrep"] = _sha(repr(k.hrep()))
        out["symmetral_hrep"] = _sha(repr(ks.hrep()))
    return out


def scan_digests() -> dict:
    return {f"n{n}-h{h}": _sha(repr(scan_constants(n, h).records)) for n, h in SCAN_SWEEP}


INSTANCES = _instances()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


def test_every_instance_is_pinned(pinned):
    assert sorted(pinned) == sorted(name for name, _ in INSTANCES)


@pytest.mark.parametrize("name,make", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_outputs_match_pinned_digests(name, make, pinned):
    assert digests(*make()) == pinned[name]


def test_scan_records_match_pinned_digests():
    assert scan_digests() == json.loads(SCAN_DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({name: digests(*make()) for name, make in INSTANCES},
                                  indent=1, sort_keys=True) + "\n")
    SCAN_DIGESTS.write_text(json.dumps(scan_digests(), indent=1, sort_keys=True) + "\n")
