"""Periods from the base's cocycles against the enumerated homotopy kernel.

HatTheory.compare reads one period column per cocycle of the base one
degree down, the push of the cocycle itself.  tests/reference_periods.py
keeps the path it replaced, which enumerated the kernel of the pinned
system on X x Delta^2, and the loops in between, the relative sections of
those cocycles, whose integrals the period matrix must equal entry for
entry.  The kernel and the package must give the same period lattice
(compared by the Smith form of the stacked columns) and, seed by seed,
the same verdicts; every witness must pass Homotopy2 and the literal
check, and every obstruction must certify against a spanning set built
without the solver.
"""

import random
from fractions import Fraction

import pytest

from simdiff.character import CharacterModel
from simdiff.cochains import INTEGERS, RATIONALS, Cochain, coboundary
from simdiff.cohomology import cohomology, face_pins
from simdiff.complexes import circle, cylinder, genus2, point, rp2, sphere2, torus
from simdiff.diffhat import HatTheory, PeriodObstruction, _random_form
from simdiff.groupoid import HomotopyClass, Homotopy2

import reference_periods as ref
from reference_pins import pin_positions
from dense import from_rows, invariant_factors, transpose

BASES = {"point": point, "circle": lambda: circle(3), "circle4": lambda: circle(4),
         "circle5": lambda: circle(5), "torus": torus, "rp2": rp2, "sphere2": sphere2,
         "genus2": genus2}
CASES = [("plain", "circle", 1), ("plain", "torus", 1), ("plain", "torus", 2),
         ("plain", "rp2", 1), ("plain", "rp2", 2), ("plain", "sphere2", 2),
         ("plain", "genus2", 1), ("plain", "genus2", 2),
         ("sheared", "circle", 1), ("sheared", "torus", 2), ("sheared", "genus2", 2),
         ("halved", "point", 1), ("halved", "circle", 1), ("halved", "circle4", 1),
         ("halved", "circle5", 1)]
IDS = [f"{model}-{base}-{n}" for model, base, n in CASES]



@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request) -> tuple[HatTheory, ref.Reference]:
    model, base, n = request.param
    T = HatTheory(BASES[base](), n, CharacterModel(model))
    return T, ref.Reference(T)


def same_lattice(U, V) -> bool:
    """Do the vectors U and the vectors V span one lattice?  The span of U
    lies in that of U + V, and equal Smith diagonals make them equal."""
    return invariant_factors(U) == invariant_factors(U + V) == invariant_factors(V)


def test_loop_periods_span_the_kernel_periods(case):
    T, R = case
    n = T.degree
    width = len(T.carrier.generators(n - 1))
    new = from_rows(T._quotient_functionals, width)
    # the cached factorization's rows span the reference's saturated lattice
    assert same_lattice(R.functionals, new)
    # in either functional basis, the loops' periods span the kernel's
    old_cols = transpose(ref.period_matrix(T, R.functionals, ref.loops(T)))
    assert same_lattice(transpose(R.periods.matrix), old_cols)
    assert same_lattice(transpose(ref.period_matrix(T, new, R.kernel)),
                        transpose(T._period_system().matrix))


def test_period_matrix_is_the_section_then_integrate_matrix(case):
    T, _ = case
    width = len(T.carrier.generators(T.degree - 1))
    functionals = from_rows(T._quotient_functionals, width)
    assert T._period_system().matrix == ref.period_matrix(T, functionals, ref.loops(T))


def pairs(T: HatTheory, seed: int) -> list:
    """Seeded pairs: equal by construction, off by half a loop's period,
    off by a character, and two unrelated classes."""
    rng = random.Random(seed)
    G = T.groupoid
    obj = G.random_object(rng)
    omega = _random_form(T, rng)
    m = G.random_morphism(obj, rng)
    c = T.character.on_morphism(m)
    x = T.hat(obj, omega)
    out = [(x, T.hat(m.target, omega - c)), (x, T.hat(m.target, omega + c))]
    loops = ref.loops(T)
    for B in rng.sample(loops, min(2, len(loops))):
        half = T._character_column(B).scale(Fraction(1, 2))
        out.append((x, T.hat(m.target, omega - c + half)))
    out.append((x, T.hat(G.random_object(rng), _random_form(T, rng))))
    return out


def unit_coboundaries(X, degree, coeffs, positions):
    gens = X.generators(degree)
    return [coboundary(Cochain.indicator(X, gens[p], coeffs)) for p in positions]


def assert_checked(T: HatTheory, R: ref.Reference, x, y, comp) -> None:
    """Re-check a verdict with code that did not produce it."""
    n = T.degree
    diff = x.omega - y.omega
    if comp.homotopy is None:
        # the objects are not homotopic: the certificate refutes delta of
        # the pinned faces and is blind on delta of every free generator
        # of X x Delta^2
        cyl1, cyl2 = cylinder(T.base, 1), cylinder(T.base, 2)
        pinned = face_pins(cyl2, {0: Cochain.zero(cyl1.complex, n + 1, INTEGERS),
                                  1: y.obj.data, 2: x.obj.data})
        held = pin_positions(cyl2, (0, 1, 2), n + 1)
        free = [p for p in range(len(cyl2.complex.generators(n + 1))) if p not in held]
        assert comp.obstruction.certifies(
            coboundary(pinned), unit_coboundaries(cyl2.complex, n + 1, INTEGERS, free))
        return
    h = HomotopyClass(Homotopy2(x.obj, y.obj, comp.homotopy))
    character = T.character.on_morphism(h)
    if comp.equal:
        if comp.shift is not None:
            character = character + coboundary(comp.shift)
        assert character == diff
        return
    ob = comp.obstruction
    assert isinstance(ob, PeriodObstruction)
    target = diff - character
    C = T.carrier
    lower = unit_coboundaries(C, n - 2, RATIONALS, range(len(C.generators(n - 2)))) \
        if n >= 2 else []
    assert all(ob.pairing(d) == 0 for d in lower)
    periods = [T._character_column(B) for B in R.kernel]
    assert ob.certifies(target, periods + lower)
    assert ob.pairing(target) == ob.value


def test_unequal_compares_read_one_set_of_quotient_functionals():
    # the quotient functionals are replayed once per theory: the period
    # system and every period obstruction read the same rows
    T = HatTheory(torus(), 2)
    read = []
    for x, y in pairs(T, 0) + pairs(T, 1):
        if isinstance(T.compare(x, y).obstruction, PeriodObstruction):
            read.append(vars(T)["_quotient_functionals"])
    assert len(read) >= 2
    assert all(rows is T._quotient_functionals for rows in read)


def test_compare_matches_the_kernel_reference(case):
    T, R = case
    n = T.degree
    kinds = set()
    for seed in range(3):
        for x, y in pairs(T, seed):
            got, want = T.compare(x, y), R.compare(x, y)
            assert got.equal == want.equal, seed
            assert type(got.obstruction) is type(want.obstruction), seed
            if got.obstruction is not None:
                assert got.obstruction.ring == want.obstruction.ring, seed
            assert_checked(T, R, x, y, got)
            assert_checked(T, R, x, y, want)
            kinds.add(type(got.obstruction))
    # equal pairs, and half a free class's period refuted by a functional
    assert type(None) in kinds
    if cohomology(T.base, n - 1, INTEGERS).presentation.free_rank:
        assert PeriodObstruction in kinds
