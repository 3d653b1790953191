"""The contraction's deciders against the pinned X x Delta^2 reference.

MappingGroupoid.homotopy, same_class and compare, and through them
HatTheory.compare, now solve in the base's coboundary systems through the
Eilenberg-Zilber contraction.  tests/reference_pins.py keeps the pinned
systems on X x Delta^2 they replaced.  On plain and sheared models over
the circle, torus, rp2, genus-2 and rp2 x S^1, and halved models over the
point and the circles, the two paths must give the same equal and
same_class verdicts; every homotopy must pass Homotopy2, every witness
verify_witness, and every obstruction must certify against a spanning set
built from the definition, without the solver.  The homotopies of the two
paths differ by self-homotopies, whose periods must lie in the period
lattice, and the lattice itself is the pinned kernel's (compared by Smith
form).
"""

import random
from fractions import Fraction

import pytest

import reference_periods
import reference_pins as ref
from dense import from_rows, invariant_factors, transpose
from simdiff.character import CharacterModel
from simdiff.cochains import (INTEGERS, RATIONALS, Cochain, coboundary, mod_coefficients,
                              random_cochain)
from simdiff.cohomology import CoboundaryObstruction, cohomology, face_pins
from simdiff.complexes import build_standard, circle, cylinder, point
from simdiff.diffhat import HatTheory, PeriodObstruction, _random_form
from simdiff.em import relative_section
from simdiff.exact import Solution
from simdiff.groupoid import HomotopyClass, Homotopy2, MappingGroupoid, _interior

BASES = {"point": point, "circle": lambda: circle(3), "circle4": lambda: circle(4),
         "circle5": lambda: circle(5), "torus": lambda: build_standard("torus"),
         "rp2": lambda: build_standard("rp2"), "genus2": lambda: build_standard("genus2"),
         "rp2xS1": lambda: build_standard("rp2xS1")}
CASES = ([(model, base) for model in ("plain", "sheared")
          for base in ("circle", "torus", "rp2", "genus2", "rp2xS1")]
         + [("halved", base) for base in ("point", "circle", "circle4", "circle5")])


def pinned_homotopy(G, src, tgt):
    """MappingGroupoid.homotopy on the pinned reference system."""
    lid = Cochain.zero(cylinder(G.base, 1).complex, G.degree + 1, G.coeffs)
    return ref.solve_faces(cylinder(G.base, 2), {0: lid, 1: tgt.data, 2: src.data}, G.coeffs)


class PinnedTheory(HatTheory):
    """HatTheory with the homotopies of the pinned reference."""

    def homotopies(self, src, tgt):
        return pinned_homotopy(self.groupoid, src, tgt)


@pytest.fixture(scope="module", params=CASES, ids=[f"{m}-{b}" for m, b in CASES])
def theories(request):
    model, base = request.param
    X = BASES[base]()
    return HatTheory(X, 1, CharacterModel(model)), PinnedTheory(X, 1, CharacterModel(model))


def pairs(T, seed):
    """Equal by construction, off by a character, off by half a loop's
    period, and two unrelated classes."""
    rng = random.Random(seed)
    G = T.groupoid
    obj = G.random_object(rng)
    omega = _random_form(T, rng)
    m = G.random_morphism(obj, rng)
    c = T.character.on_morphism(m)
    x = T.hat(obj, omega)
    out = [(x, T.hat(m.target, omega - c)), (x, T.hat(m.target, omega + c))]
    for B in reference_periods.loops(T)[:1]:
        half = T._character_column(B).scale(Fraction(1, 2))
        out.append((x, T.hat(m.target, omega - c + half)))
    out.append((x, T.hat(G.random_object(rng), _random_form(T, rng))))
    return out


def free_coboundaries(G, held):
    """delta of the unit cochain on every generator of X x Delta^2 one
    degree below the objects' data that is not held."""
    P = cylinder(G.base, 2).complex
    return [coboundary(Cochain.indicator(P, g, INTEGERS))
            for p, g in enumerate(P.generators(G.degree + 1)) if p not in held]


def assert_checked(T, x, y, comp) -> None:
    """Re-check a verdict with code that did not produce it."""
    G, n = T.groupoid, T.degree
    if comp.homotopy is None:
        faces = {0: Cochain.zero(cylinder(G.base, 1).complex, n + 1, INTEGERS),
                 1: y.obj.data, 2: x.obj.data}
        cyl2 = cylinder(G.base, 2)
        held = ref.pin_positions(cyl2, faces, n + 1)
        assert comp.obstruction.certifies(coboundary(face_pins(cyl2, faces)),
                                          free_coboundaries(G, held))
        return
    h = HomotopyClass(Homotopy2(x.obj, y.obj, comp.homotopy))
    character = T.character.on_morphism(h)
    if comp.equal:
        if comp.shift is not None:
            character = character + coboundary(comp.shift)
        assert character == x.omega - y.omega
        return
    ob = comp.obstruction
    assert isinstance(ob, PeriodObstruction)
    periods = [T._character_column(B) for B in reference_periods.loops(T)]
    assert ob.certifies(x.omega - y.omega - character, periods)


def test_hat_verdicts_match_the_pinned_homotopies(theories):
    T, R = theories
    for seed in range(2):
        for x, y in pairs(T, seed):
            got = T.compare(x, y)
            want = R.compare(R.hat(x.obj, x.omega), R.hat(y.obj, y.omega))
            assert got.equal == want.equal, seed
            assert (got.homotopy is None) == (want.homotopy is None), seed
            assert_checked(T, x, y, got)


def test_homotopies_differ_from_the_pinned_ones_by_a_period(theories):
    """Both paths' homotopies pass Homotopy2, and the character of their
    difference, a closed cochain vanishing on the faces, pairs with the
    quotient functionals to an integer combination of the periods."""
    T, _ = theories
    G = T.groupoid
    rng = random.Random(3)
    objs = [G.random_object(rng) for _ in range(3)]
    for a in objs:
        for b in objs:
            got, want = G.homotopy(a, b), pinned_homotopy(G, a, b)
            assert type(got) is type(want)
            if isinstance(got, CoboundaryObstruction):
                continue
            Homotopy2(a, b, got)
            Homotopy2(a, b, want)
            col = T._character_column(got - want).vec
            v = [sum(c * x for c, x in zip(a_, read(col))) for read, a_ in T._functional_rows]
            if reference_periods.loops(T):
                assert isinstance(T._period_system().solve([int(x) for x in v]), Solution)
            else:
                assert not any(v)


def test_period_lattice_is_the_pinned_kernels(theories):
    T, _ = theories
    kernel = reference_periods.kernel(T)
    width = len(T.carrier.generators(0))
    functionals = from_rows(T._quotient_functionals, width)
    old = transpose(reference_periods.period_matrix(T, functionals, kernel))
    new = transpose(T._period_system().matrix)
    assert invariant_factors(old) == invariant_factors(old + new) == invariant_factors(new)


GROUPOIDS = ([(base, coeffs, 1) for base in ("point", "circle", "torus", "rp2", "genus2")
              for coeffs in (INTEGERS, RATIONALS, mod_coefficients(2))]
             + [(base, coeffs, 2) for base in ("circle", "torus", "rp2")
                for coeffs in (INTEGERS, RATIONALS, mod_coefficients(2))]
             + [("genus2", INTEGERS, 2)])


@pytest.mark.parametrize("base, coeffs, n", GROUPOIDS,
                         ids=[f"{b}-{c.label()}-{n}" for b, c, n in GROUPOIDS])
def test_class_equality_matches_the_prism_boundary_system(base, coeffs, n):
    """same_class and compare against the pinned prism-boundary system, on
    a morphism and its shifts by interior coboundaries (equal) and by loops
    (equal exactly when the loop's cocycle is a coboundary)."""
    X = BASES[base]()
    G = MappingGroupoid(X, coeffs, n)
    rng = random.Random(f"{base}:{coeffs.label()}:{n}")
    f = G.random_object(rng)
    h = G.random_morphism(f, rng)
    P = cylinder(X, 2).complex
    interior = [g for g in P.generators(n) if _interior(g, 2)]
    shifts = [coboundary(Cochain(P, n, coeffs, {g: rng.randint(-2, 2) for g in interior}))]
    loops = [relative_section(w.map_values(coeffs.normalize, coeffs))
             for w in cohomology(X, n - 1, INTEGERS).generators]
    shifts += loops
    if n >= 2:
        # a loop on a coboundary: equal
        shifts.append(relative_section(coboundary(random_cochain(X, n - 2, coeffs, rng))))
    verdicts = set()
    for D in shifts:
        other = HomotopyClass(Homotopy2(h.source, h.target, h.rep.data + D))
        for c0, c1 in ((h, other), (other, h)):
            verdict = G.same_class(c0, c1)
            assert verdict == ref.same_class(G, c0, c1)
            verdicts.add(verdict)
            comp = G.compare(c0, c1)
            assert comp.equal == verdict
            if verdict:
                assert G.verify_witness(c0, c1, comp.witness)
            else:
                assert G.verify_obstruction(c0, c1, comp.obstruction)
            want = ref.compare(G, c0, c1)
            assert want.equal == verdict
            if verdict:
                assert G.verify_witness(c0, c1, want.witness)
    assert True in verdicts
    if loops and coeffs.kind != "Zmod" and n == 1:
        assert False in verdicts


@pytest.mark.parametrize("base", ["circle", "circle5", "torus"])
def test_level3_lift_is_the_face_inclusion_walk(base):
    X = BASES[base]()
    rng = random.Random(base)
    for coeffs in (INTEGERS, mod_coefficients(3)):
        for n in (1, 2):
            G = MappingGroupoid(X, coeffs, n)
            P = cylinder(X, 2).complex
            Q = Cochain(P, n, coeffs, {g: rng.randint(-3, 3) for g in P.generators(n)
                                       if _interior(g, 2)})
            assert face_pins(cylinder(X, 3), {0: Q}) == ref.level3_pushforward(G, Q)
