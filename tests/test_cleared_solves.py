"""solve_coboundary on the cleared chain, against the full coboundary.

cohomology.delta_system factors delta_{n-1} without the rows that the form
above took unit pivots at, and solve_coboundary refutes a target that is
not closed by a row of delta_n before it substitutes the kept rows.  Here
every verdict is checked against dense.full_delta, which factors every
row, over Z and Q, and over Z/2 and Z/3 against dense.solvable_mod_prime,
row reduction of the full delta mod p: a solution must satisfy delta x = target
literally, and a certificate must pass CoboundaryObstruction.certifies
against delta of every unit cochain one degree down (and, over Z/k, k
times every unit cochain), so neither answer is taken on the solver's word.
The targets are random cochains (rarely closed), coboundaries, the
cohomology representatives, multiples of them and single generators; the
disk below has a delta_0 whose rows are all cleared.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from dense import full_delta, solvable_mod_prime
from simdiff.cochains import (INTEGERS, RATIONALS, Cochain, coboundary, delta_table,
                              mod_coefficients, random_cochain)
from simdiff.cohomology import CoboundaryObstruction, cohomology, kept_rows, solve_coboundary
from simdiff.complexes import (Simplex, SimplicialSet, build_standard, cylinder, from_facets,
                               product, rp2)
from simdiff.exact import Obstruction

RINGS = [INTEGERS, RATIONALS, mod_coefficients(2), mod_coefficients(3)]
KINDS = ["pt", "delta_k", "circle", "sphere2", "torus", "rp2", "genus2", "rp2xS1", "T3"]


def disk() -> SimplicialSet:
    """One vertex, one loop e and one triangle with faces (e, s0 v, s0 v):
    delta_1 is the unit [1], so delta_0's one row is cleared."""
    X = SimplicialSet("disk")
    X.add_generator("v", 0, [])
    X.add_generator("e", 1, [Simplex("v"), Simplex("v")])
    X.add_generator("s", 2, [Simplex("e"), Simplex("v", (0,)), Simplex("v", (0,))])
    return X.freeze()


def targets(X, n: int, rng: random.Random) -> list[Cochain]:
    """Integral degree-n cochains, closed and not."""
    out = [random_cochain(X, n, INTEGERS, rng, density=0.5),
           coboundary(random_cochain(X, n - 1, INTEGERS, rng, density=0.5)),
           Cochain.indicator(X, rng.choice(X.generators(n)), INTEGERS)]
    H = cohomology(X, n, INTEGERS)
    gens = H.generators
    for g, d in zip(gens, [0] * H.presentation.free_rank + list(H.presentation.torsion)):
        out += [g, g + out[1]] + ([g.scale(d)] if d else [])
    return out


def in_ring(c: Cochain, coeffs) -> Cochain:
    if coeffs.kind == "Q":
        return c.map_values(Fraction, RATIONALS).scale(Fraction(1, 2))
    return c.map_values(coeffs.normalize, coeffs) if coeffs.modulus else c


@cache
def unit_coboundaries(X, n: int) -> list[Cochain]:
    """delta of every unit cochain in degree n - 1."""
    return [coboundary(Cochain.indicator(X, g, INTEGERS)) for g in X.generators(n - 1)]


def spanning(X, n: int, ob: CoboundaryObstruction, k: int) -> list[Cochain]:
    """What a certificate must be blind on: delta of every unit cochain in
    degree n - 1, and over Z/k k times each unit cochain on its support."""
    return unit_coboundaries(X, n) + [Cochain.indicator(X, g, INTEGERS, k)
                                      for g in ob.functional if k]


def assert_agrees(X, n: int, target: Cochain, coeffs) -> bool:
    """solve_coboundary's verdict is the full delta's, and its answer checks
    out; returns whether it solved."""
    t = in_ring(target, coeffs)
    got = solve_coboundary(t, coeffs)
    k = coeffs.modulus
    if k:
        want = solvable_mod_prime(delta_table(X, n - 1), t.vec, k)
    else:
        want = not isinstance(full_delta(X, n - 1, coeffs).solve(list(t.vec)), Obstruction)
    assert isinstance(got, CoboundaryObstruction) != want, (n, coeffs)
    if isinstance(got, CoboundaryObstruction):
        assert got.certifies(t, spanning(X, n, got, k)), (n, coeffs)
        return False
    assert got.coeffs == coeffs and coboundary(got).vec == t.vec, (n, coeffs)
    return True


def assert_solves_agree(X, seed: int = 0, degrees: range | None = None) -> None:
    rng = random.Random(seed)
    for n in degrees or range(1, X.top_dim + 1):
        if not X.generators(n - 1):
            continue
        cases = targets(X, n, rng)
        for coeffs in RINGS:
            for target in cases:
                assert_agrees(X, n, target, coeffs)


@pytest.mark.parametrize("kind", KINDS)
def test_solves_on_the_cleared_chain_agree_with_the_full_delta(kind):
    assert_solves_agree(build_standard(kind))


def test_solves_agree_on_rp2_times_rp2():
    # degree 2, where H^2 = Z/2 + Z/2 (the higher degrees cost seconds)
    assert_solves_agree(product(rp2(), rp2()), degrees=range(2, 3))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4), min_size=1, max_size=6),
       st.integers(0, 1000))
def test_solves_agree_on_generated_cylinders(facets, seed):
    assert_solves_agree(cylinder(from_facets("X", [tuple(sorted(f)) for f in facets]), 1).complex,
                        seed)


def test_a_delta_with_every_row_cleared():
    X = disk()
    assert kept_rows(X, 0) == ()
    # delta e is the triangle: not closed, refuted by delta_1's row over
    # every ring, and so is any nonzero degree-1 target
    for coeffs in RINGS:
        e = Cochain.indicator(X, "e", INTEGERS)
        assert not assert_agrees(X, 1, e, coeffs)
        assert not assert_agrees(X, 1, e.scale(3), coeffs) or coeffs.modulus == 3
        assert assert_agrees(X, 2, Cochain.indicator(X, "s", INTEGERS), coeffs)


def test_a_target_not_closed_is_refuted_by_a_row_of_delta():
    X = build_standard("torus")
    rng = random.Random(2)
    c = random_cochain(X, 1, INTEGERS, rng)
    assert not coboundary(c).is_zero()
    for coeffs, sense in [(INTEGERS, "Q"), (RATIONALS, "Q"), (mod_coefficients(3), "Z/3")]:
        got = solve_coboundary(in_ring(c, coeffs), coeffs)
        assert isinstance(got, CoboundaryObstruction) and got.ring == sense
        assert assert_agrees(X, 1, c, coeffs) is False
    # 2c is zero mod 2, so it is the coboundary of zero there
    Z2 = mod_coefficients(2)
    assert solve_coboundary(c.scale(2), Z2) == Cochain.zero(X, 0, Z2)
