"""Derived data lives on its owner; fixtures are one instance each.

complexes.derived keeps data derived from a complex, map, cylinder or group
in that owner's store, so it is freed with the owner, and complexes.py is
the only module that touches the store.  The fixtures are module-level
functools caches, one instance per fixture however it is asked for.
"""

import gc
import re
import sys
import weakref
from pathlib import Path

import pytest

from simdiff import complexes
from simdiff.cochains import INTEGERS, RATIONALS
from simdiff.cohomology import cohomology, delta_system
from simdiff.complexes import (build_standard, cached_on, circle, cylinder, from_facets,
                               standard_simplex, torus)

SRC = Path(__file__).resolve().parents[1] / "src" / "simdiff"


def test_only_complexes_touches_the_derived_store():
    readers = sorted(p.name for p in SRC.glob("*.py")
                     if p.name != "complexes.py" and re.search(r"_cache\b", p.read_text()))
    assert readers == []


def test_a_fresh_complex_is_freed_after_its_op(monkeypatch):
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench.workloads import CohomologyFresh

    w = CohomologyFresh(seed=3)
    w.setup()
    built = []

    def spy(name, facets):
        X = from_facets(name, facets)
        built.append(weakref.ref(X))
        return X
    monkeypatch.setattr(complexes, "from_facets", spy)
    r = w.make_input(1)
    answer = w.run(r)
    assert w.check(r, answer) is None
    built.append(weakref.ref(answer[0]))
    del answer
    gc.collect()
    assert len(built) == 2 and all(ref() is None for ref in built)


def test_fixtures_are_one_instance_however_called():
    assert circle(3) is circle(n=3) is circle() is build_standard("circle", n="3")
    assert circle(4) is build_standard("circle", n=4) is not circle(3)
    assert standard_simplex(2) is build_standard("delta_k", k="2")
    assert torus() is build_standard("torus")
    assert build_standard("T3") is build_standard("T3")


def test_defaults_and_keywords_reach_one_entry():
    X = torus()
    system = delta_system(X, 1)
    assert system is delta_system(X, 1, INTEGERS) is delta_system(X, 1, coeffs=INTEGERS)
    assert cohomology(X, 1, RATIONALS) is cohomology(X, n=1, coeffs=RATIONALS)
    assert cohomology(X, 1) is not cohomology(X, 1, RATIONALS)
    assert cylinder(X) is cylinder(X, 1) is cylinder(X, k=1)


class _CountedKey:
    """A key that counts how often it is hashed."""

    def __init__(self):
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return 7


def test_cached_on_hashes_a_hit_once_and_stores_no_failed_build():
    class Owner:
        pass

    owner, key, calls = Owner(), _CountedKey(), []

    def build(x):
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("first build fails")
        return 2 * x

    with pytest.raises(ValueError, match="first build fails"):
        cached_on(owner, key, build, 3)
    assert vars(owner)["_cache"] == {}
    key.hashes = 0
    assert cached_on(owner, key, build, 3) == 6 and calls == [3, 3]
    assert key.hashes == 2
    key.hashes = 0
    assert cached_on(owner, key, build, 4) == 6 and calls == [3, 3]
    assert key.hashes == 1
