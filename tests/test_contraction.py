"""The Eilenberg-Zilber contraction of X x Delta^2 rel X x dDelta^2.

The relative cochains R (zero on every generator whose triangle factor
misses a vertex) contract onto the base's cochains shifted up by two:
f = fiber_integrate is the dual of the shuffle map, g = relative_section
the dual of Alexander-Whitney, and h = shih_homotopy the dual of Shih's
homotopy.  Here every identity is checked on random integral cochains, on
every fixture and on generated complexes, for base degrees 0 to 3:

* f g = id, and f and g commute with delta;
* g f - id = -(delta h + h delta) on R;
* h keeps R: h z has no value over the triangle's boundary;
* the side conditions h g = 0, f h = 0 and h h = 0 all hold for this h.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from simdiff.cochains import (INTEGERS, RATIONALS, Cochain, coboundary, fiber_integrate,
                              mod_coefficients, random_cochain, shih_homotopy)
from simdiff.complexes import build_standard, cylinder, from_facets
from simdiff.em import relative_section

FIXTURES = ["pt", "delta_k", "circle", "sphere2", "torus", "rp2", "genus2", "rp2xS1", "T3"]


def interior(g) -> bool:
    return len(g[2]) == 3


def random_relative(cyl, q, rng) -> Cochain:
    """A random integral cochain in R^q."""
    P = cyl.complex
    return Cochain(P, q, INTEGERS, {g: rng.randint(-3, 3) for g in P.generators(q)
                                    if interior(g) and rng.random() < 0.7})


def assert_contraction(X, d, rng) -> None:
    """Every identity of the contraction for base degree d."""
    cyl = cylinder(X, 2)
    P = cyl.complex
    q = d + 2
    w = random_cochain(X, d, INTEGERS, rng)
    gw = relative_section(w)
    assert fiber_integrate(gw, cyl) == w
    assert coboundary(gw) == relative_section(coboundary(w))
    assert shih_homotopy(gw, cyl).is_zero()

    z = random_relative(cyl, q, rng)
    assert fiber_integrate(coboundary(z), cyl) == coboundary(fiber_integrate(z, cyl))
    hz = shih_homotopy(z, cyl)
    assert (hz.complex, hz.degree) == (P, q - 1)
    assert not any(v for g, v in hz.values.items() if not interior(g))
    lhs = relative_section(fiber_integrate(z, cyl)) - z
    assert lhs == -(coboundary(hz) + shih_homotopy(coboundary(z), cyl))
    assert shih_homotopy(hz, cyl).is_zero()
    if q - 1 >= 2:
        assert fiber_integrate(hz, cyl).is_zero()
    else:
        assert hz.is_zero()  # R below degree 2 is zero


@pytest.mark.parametrize("d", range(4))
@pytest.mark.parametrize("name", FIXTURES)
def test_contraction_on_fixtures(name, d):
    assert_contraction(build_standard(name), d, random.Random(f"{name}:{d}"))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4), min_size=1, max_size=5),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_contraction_on_generated_complexes(facets, d, rng):
    assert_contraction(from_facets("X", [tuple(sorted(f)) for f in facets]), d, rng)


def test_h_reads_only_the_relative_part():
    X = build_standard("torus")
    cyl = cylinder(X, 2)
    rng = random.Random(1)
    z = random_relative(cyl, 3, rng)
    noise = Cochain(cyl.complex, 3, INTEGERS, {g: 1 for g in cyl.complex.generators(3)
                                               if not interior(g)})
    assert shih_homotopy(z + noise, cyl) == shih_homotopy(z, cyl)


def test_h_serves_every_ring_from_one_plan():
    X = build_standard("circle")
    cyl = cylinder(X, 2)
    z = random_relative(cyl, 3, random.Random(2))
    hz = shih_homotopy(z, cyl)
    plans = [v for token, v in cyl.complex._cache.items() if token == ("shih", 3)]
    assert len(plans) == 1
    for coeffs in (RATIONALS, mod_coefficients(3)):
        got = shih_homotopy(z.map_values(coeffs.normalize, coeffs), cyl)
        assert got == hz.map_values(coeffs.normalize, coeffs)
    assert [v for token, v in cyl.complex._cache.items() if token == ("shih", 3)] == plans


def test_h_rejects_other_products_and_degree_zero():
    X = build_standard("circle")
    with pytest.raises(ValueError, match="Delta\\^2"):
        shih_homotopy(Cochain.zero(cylinder(X, 1).complex, 1, INTEGERS), cylinder(X, 1))
    with pytest.raises(ValueError, match="does not live"):
        shih_homotopy(Cochain.zero(cylinder(X, 3).complex, 1, INTEGERS), cylinder(X, 2))
    with pytest.raises(ValueError, match="degree-0"):
        shih_homotopy(Cochain.zero(cylinder(X, 2).complex, 0, INTEGERS), cylinder(X, 2))
