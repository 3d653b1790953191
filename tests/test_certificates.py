"""Every refutation is re-verified by code that did not produce it.

A CoboundaryObstruction certifies a target against a spanning set of what
it must be blind on.  The spanning sets here are built from the definition
alone (coboundary of unit cochains, k times unit cochains, the face
restrictions by pullback), never from the solver's systems, and each sense
of blindness is exercised: "Q", "Z" and "Z/k".
"""

from fractions import Fraction

from simdiff.cochains import (Cochain, INTEGERS, RATIONALS, coboundary,
                              mod_coefficients, pullback)
from simdiff.cohomology import (CoboundaryObstruction, CoboundaryWitness, cohomology,
                                face_pins, solve_coboundary)
from simdiff.complexes import build_standard, circle, cylinder, point, rp2, torus
from simdiff.diffhat import HatTheory, PeriodObstruction
from simdiff.groupoid import HomotopyClass, Homotopy2, MappingGroupoid, _interior

import reference_periods
from reference_pins import pin_positions


def unit_coboundaries(X, n, skip=()):
    """delta of the unit cochain on each degree-n generator of X not in skip."""
    return [coboundary(Cochain.indicator(X, g, INTEGERS))
            for g in X.generators(n) if g not in skip]


def with_entry(ob, g, value):
    fun = dict(ob.functional)
    fun[g] = value
    return CoboundaryObstruction(fun, ob.ring)


def assert_tight(ob, target, spanning):
    """ob certifies, and no one-entry corruption of it does.

    Dropping any entry breaks it.  Over "Q" so does flipping the sign of an
    entry of a functional with more than one.  Over "Z" and "Z/k" an entry
    of 1/2 equals its negative modulo integers, so a sign flip there is
    another valid certificate.
    """
    spanning = list(spanning)
    assert ob.certifies(target, spanning)
    for g, v in ob.functional.items():
        assert not with_entry(ob, g, 0).certifies(target, spanning), (ob.ring, g)
        if ob.ring == "Q" and len(ob.functional) > 1:
            assert not with_entry(ob, g, -v).certifies(target, spanning), (ob.ring, g)


def closed_extension_problem(cyl, faces, degree):
    """(pinned cochain, free generators) of the closed-extension problem
    whose faces are given, with the pins checked by pullback."""
    pinned = face_pins(cyl, faces)
    for i, F in faces.items():
        assert pullback(cyl.face_inclusion(i), pinned) == F
    gens = cyl.complex.generators(degree)
    return pinned, {gens[p] for p in pin_positions(cyl, faces, degree)}


def homotopy_problem(T, src, tgt):
    """The problem HatTheory.homotopies solves, stated from its faces."""
    X, n = T.base, T.degree
    lid = Cochain.zero(cylinder(X, 1).complex, n + 1, INTEGERS)
    return closed_extension_problem(cylinder(X, 2), {0: lid, 1: tgt.data, 2: src.data},
                                    n + 1)


def test_rational_sense_on_torus_classes():
    T = HatTheory(torus(), 1)
    gen = cohomology(T.base, 1, INTEGERS).generators[0]
    x, y = T.from_cocycle(gen), T.zero()
    comp = T.compare(x, y)
    ob = comp.obstruction
    assert not comp.equal and ob.ring == "Q"
    pinned, held = homotopy_problem(T, x.obj, y.obj)
    P = pinned.complex
    assert_tight(ob, coboundary(pinned), unit_coboundaries(P, 2, held))


def test_integral_sense_on_rp2_torsion():
    X = build_standard("rp2")
    T = HatTheory(X, 2)
    gen = cohomology(X, 2, INTEGERS).generators[0]
    x, y = T.from_cocycle(gen), T.zero()
    ob = T.compare(x, y).obstruction
    assert ob.ring == "Z"
    pinned, held = homotopy_problem(T, x.obj, y.obj)
    assert_tight(ob, coboundary(pinned), unit_coboundaries(pinned.complex, 3, held))


def test_mod_sense_on_rp2_reduction():
    X = rp2()
    z = cohomology(X, 2, INTEGERS).generators[0]
    z2 = Cochain(X, 2, mod_coefficients(2), {g: v % 2 for g, v in z.values.items()})
    ob = solve_coboundary(z2)
    assert isinstance(ob, CoboundaryObstruction) and ob.ring == "Z/2"
    twice = [Cochain.indicator(X, g, INTEGERS, 2) for g in X.generators(2)]
    assert_tight(ob, z2, unit_coboundaries(X, 1) + twice)


def test_mod_sense_in_degree_zero():
    X = point()
    for k, v in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        c = Cochain(X, 0, mod_coefficients(k), {"*": v})
        ob = solve_coboundary(c)
        assert ob.ring == f"Z/{k}"
        assert ob.certifies(c, [Cochain.indicator(X, "*", INTEGERS, k)])


def test_zero_is_decided_in_the_ring_asked_for():
    # 2 vanishes mod 2: the integer target is a coboundary over Z/2
    X = point()
    got = solve_coboundary(Cochain(X, 0, INTEGERS, {"*": 2}), mod_coefficients(2))
    assert isinstance(got, CoboundaryWitness)
    assert got.primitive.coeffs == mod_coefficients(2) and got.primitive.is_zero()
    # the first value that survives mod 2 is the one paired off
    Y = circle(3)
    target = Cochain(Y, 0, INTEGERS, {"v0": 2, "v1": 3})
    ob = solve_coboundary(target, mod_coefficients(2))
    assert ob == CoboundaryObstruction({"v1": Fraction(1, 2)}, "Z/2")
    assert ob.refutes(target)
    assert ob.certifies(target, [Cochain.indicator(Y, g, INTEGERS, 2)
                                 for g in Y.generators(0)])


def test_degree_zero_certificate_ignores_summand_order():
    # the paired-off generator is the first nonzero one in generator order,
    # whichever operand of the sum carried it
    X = circle(3)
    a = Cochain(X, 0, INTEGERS, {"v2": 1})
    b = Cochain(X, 0, INTEGERS, {"v0": 3})
    want = CoboundaryObstruction({"v0": Fraction(1, 6)}, "Z")
    assert solve_coboundary(a + b) == want
    assert solve_coboundary(b + a) == want
    assert want.refutes(a + b)


def test_groupoid_compare_certificate():
    # an interior top cell of circle x Delta^2 shifts the identity into a
    # different class of parallel morphisms
    X = circle(3)
    G = MappingGroupoid(X, INTEGERS, 2)
    P = cylinder(X, 2).complex
    D = Cochain.indicator(P, ("e0", (0, 1), (0, 1, 2), (2,)), INTEGERS)
    assert coboundary(D).is_zero()
    a = G.identity(G.unit())
    b = HomotopyClass(Homotopy2(a.source, a.target, a.rep.data + D))
    ob = G.compare(a, b).obstruction
    spanning = [coboundary(Cochain.indicator(P, g, INTEGERS))
                for g in P.generators(2) if _interior(g, 2)]
    assert spanning
    assert_tight(ob, D, spanning)
    assert G.verify_obstruction(a, b, ob)
    g = next(iter(ob.functional))
    assert not G.verify_obstruction(a, b, with_entry(ob, g, 0))


def test_period_certificate_on_the_point():
    T = HatTheory(point(), 1)
    half = Cochain(point(), 0, RATIONALS, {"*": Fraction(1, 2)})
    x, y = T.from_form(half), T.zero()
    comp = T.compare(x, y)
    ob = comp.obstruction
    assert isinstance(ob, PeriodObstruction) and ob.ring == "Z"
    h = HomotopyClass(Homotopy2(x.obj, y.obj, comp.homotopy))
    target = half - T.character.on_morphism(h)
    # the self-homotopies' characters, from the enumerated kernel of the
    # pinned system rather than the loops the solver reads
    periods = [T._character_column(B) for B in reference_periods.kernel(T)]
    assert periods
    assert ob.certifies(target, periods)
    assert ob.pairing(target) == ob.value
    assert set(ob.to_json()) == {"ring", "functional", "value"}
