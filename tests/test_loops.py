"""Loops: the self-homotopies of the unit built from the base's cocycles.

em.relative_section(w) is the cross product of a cocycle w with the
relative class of the triangle.  It must be closed, vanish on the three
faces of X x Delta^2 and integrate back to w exactly, in every ring and
degree.  The loops are the relative sections of the cocycles the base's
coboundary system lists.  cell_with_integral adds one section to the
groupoid's filler, so it reaches every class they present, mod k
included, hits eta exactly and factors nothing after its first call.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simdiff import exact
from simdiff.character import cell_with_integral
from simdiff.cochains import (INTEGERS, RATIONALS, Cochain, coboundary, fiber_integrate,
                              mod_coefficients, pullback, random_cochain)
from simdiff.cohomology import cochain_of, cohomology, delta_system, is_coboundary
from simdiff.complexes import circle, cylinder, from_facets, point, rp2, sphere2, torus
from simdiff.em import e_section, relative_section
from simdiff.groupoid import Homotopy2, MappingGroupoid

import reference_pins

Z2, Z3 = mod_coefficients(2), mod_coefficients(3)
RINGS = [INTEGERS, RATIONALS, Z2]
FIXTURES = {"point": point, "circle": lambda: circle(3), "torus": torus, "rp2": rp2,
            "sphere2": sphere2}


def cocycles(X, degree, coeffs) -> list[Cochain]:
    return [cochain_of(X, degree, coeffs, v)
            for v in delta_system(X, degree, coeffs=coeffs).kernel]


def assert_relative_section(w: Cochain) -> None:
    cyl = cylinder(w.complex, 2)
    B = relative_section(w)
    assert (B.complex, B.degree, B.coeffs) == (cyl.complex, w.degree + 2, w.coeffs)
    assert coboundary(B).is_zero()
    for i in range(3):
        assert pullback(cyl.face_inclusion(i), B).is_zero()
    assert fiber_integrate(B, cyl) == w


@pytest.mark.parametrize("coeffs", RINGS, ids=lambda c: c.label())
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_relative_sections_on_fixtures(name, coeffs):
    X = FIXTURES[name]()
    rng = random.Random(name)
    for degree in range(3):
        zs = cocycles(X, degree, coeffs)
        for w in zs[:5]:
            assert_relative_section(w)
        total = Cochain.zero(X, degree, coeffs)
        for w in zs:
            total = total + w.scale(coeffs.normalize(rng.randint(-3, 3)))
        assert_relative_section(total)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4), min_size=1, max_size=5),
       st.integers(0, 2), st.sampled_from(RINGS), st.randoms(use_true_random=False))
def test_relative_sections_on_generated_complexes(facets, degree, coeffs, rng):
    X = from_facets("X", [tuple(sorted(f)) for f in facets])
    w = Cochain.zero(X, degree, coeffs)
    for z in cocycles(X, degree, coeffs):
        w = w + z.scale(coeffs.normalize(rng.randint(-2, 2)))
    assert_relative_section(w)


@pytest.mark.parametrize("coeffs", RINGS + [Z3], ids=lambda c: c.label())
def test_loops_are_self_homotopies_of_the_unit(coeffs):
    X = torus()
    cyl = cylinder(X, 2)
    for n in (1, 2):
        G = MappingGroupoid(X, coeffs, n)
        ws = cocycles(X, n - 1, coeffs)
        loops = [relative_section(w) for w in ws]
        assert [fiber_integrate(B, cyl) for B in loops] == ws
        u = G.unit()
        # the unit's filler is zero, so each loop is a self-homotopy of it
        assert G.homotopy(u, u).is_zero()
        for B in loops:
            Homotopy2(u, u, B)
    # in degree 0 nothing lies below: the unit has exactly one filler, as
    # the pinned reference system's kernel shows
    pinned = reference_pins.pin_positions(cyl, (0, 1, 2), 1)
    assert reference_pins.pinned_system(cyl.complex, 1, pinned).kernel == []


def test_cells_reach_a_mod_two_class_that_is_not_a_coboundary():
    # H^1(rp2; Z) is zero, so loops built from integral cocycles alone
    # would carry no class of H^1(rp2; Z/2) = Z/2
    X = rp2()
    assert cohomology(X, 1, INTEGERS).presentation.free_rank == 0
    G = MappingGroupoid(X, Z2, 2)
    eta = next(w for w in cocycles(X, 1, Z2) if not is_coboundary(w, Z2))
    u = G.unit()
    H = cell_with_integral(G, u, u, eta)
    assert is_coboundary(H.integral() - eta, Z2)


@pytest.mark.parametrize("coeffs", [Z2, Z3], ids=lambda c: c.label())
def test_cells_reach_every_mod_k_cocycle(coeffs):
    # solved modulo k: an integer solve of the lifted values misses most
    for X in (torus(), rp2()):
        G = MappingGroupoid(X, coeffs, 2)
        u = G.unit()
        rng = random.Random(X.name)
        zs = cocycles(X, 1, coeffs)
        for _ in range(4):
            eta = Cochain.zero(X, 1, coeffs)
            for z in zs:
                eta = eta + z.scale(rng.randrange(coeffs.modulus))
            H = cell_with_integral(G, u, u, eta)
            assert is_coboundary(H.integral() - eta, coeffs)


def test_cells_factor_nothing_after_the_first_call(monkeypatch):
    X = torus()
    G = MappingGroupoid(X, INTEGERS, 2)
    u = G.unit()
    zs = cocycles(X, 1, INTEGERS)
    cell_with_integral(G, u, u, zs[0])
    calls = []
    real = exact.smith_normal_form
    monkeypatch.setattr(exact, "smith_normal_form", lambda A: calls.append(A) or real(A))
    rng = random.Random(7)
    for _ in range(3):
        w0 = G.random_object(rng)
        q = random_cochain(X, 1, INTEGERS, rng)
        target = G.object(w0.data + e_section(coboundary(q)))
        H = cell_with_integral(G, w0, target, q + zs[rng.randrange(len(zs))])
        assert H.source is w0 and H.target is target
    assert calls == []


def test_cells_hit_eta_exactly_over_the_rationals():
    X = torus()
    G = MappingGroupoid(X, RATIONALS, 2)
    rng = random.Random(3)
    zs = cocycles(X, 1, RATIONALS)
    for _ in range(4):
        w0 = G.random_object(rng)
        q = random_cochain(X, 1, RATIONALS, rng)
        target = G.object(w0.data + e_section(coboundary(q)))
        eta = q
        for z in zs:
            eta = eta + z.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        H = cell_with_integral(G, w0, target, eta)
        assert H.integral() == eta
    # a difference that is not closed has no cell
    u = G.unit()
    with pytest.raises(ValueError):
        cell_with_integral(G, u, u, Cochain.indicator(X, X.generators(1)[0], RATIONALS))
