"""Cohomology presentations from the cleared chain, against the eager group.

reference_cohomology keeps the constructor from before presentations were
read off Smith diagonals alone: it factors delta_{n-1} in cocycle
coordinates at once and reads the presentation off that form.  Today a
presentation reads the ranks and invariant factors of cohomology's
cleared forms, delta_n without the rows delta_{n+1}'s form took unit
pivots at.  Both must give the same presentation, the same
representative cocycles and the same classify answers, over Z and Q, on
every fixture, on torus x Delta^3 and on generated complexes.  Each
cleared form must have the rank and invariant factors of the full delta
in delta_system.  The torsion is also checked against sympy's invariant
factors of delta_{n-1}, and hat_group's divisible rank against the rank of
delta_{n-1} mod a large prime by row reduction, which uses no Smith form.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

import reference_cohomology as ref
from dense import delta_matrix, kernel_mod_prime
from simdiff.cochains import INTEGERS, RATIONALS, Cochain, coboundary, random_cochain
from simdiff.cohomology import cleared_form, cohomology, delta_system
from simdiff.complexes import build_standard, cylinder, from_facets, product, rp2, torus
from simdiff.diffhat import hat_group

KINDS = ["pt", "delta_k", "circle", "sphere2", "torus", "rp2", "genus2", "rp2xS1", "T3"]
FIXTURES = {kind: (lambda kind=kind: build_standard(kind)) for kind in KINDS}
FIXTURES["torus x Delta^3"] = lambda: cylinder(torus(), 3).complex


def samples(X, n: int, gens: list[Cochain], rng: random.Random) -> list[Cochain]:
    """Cocycles to classify: the representatives, random integer
    combinations of them, and each shifted by a random coboundary."""
    out = list(gens)
    for _ in range(3):
        c = Cochain.zero(X, n, INTEGERS)
        for g in gens:
            c = c + g.scale(rng.randint(-3, 3))
        if n >= 1:
            c = c + coboundary(random_cochain(X, n - 1, INTEGERS, rng, density=0.3))
        out.append(c)
    return out


def assert_same_groups(X) -> None:
    rng = random.Random(X.name)
    for n in range(X.top_dim + 2):
        new, old = cohomology(X, n, INTEGERS), ref.cohomology(X, n, INTEGERS)
        assert new.presentation == old.presentation, n
        gens = new.generators
        assert [c.vec for c in gens] == [c.vec for c in old.generators], n
        for c in samples(X, n, gens, rng):
            assert new.classify(c) == old.classify(c), n
        qnew, qold = cohomology(X, n, RATIONALS), ref.cohomology(X, n, RATIONALS)
        assert qnew.presentation == qold.presentation, n
        # the eager rational group also listed the torsion generators, over
        # Z; the rational group lists the free ones alone, over Q
        free = qold.generators[:qold.presentation.free_rank]
        assert [c.vec for c in qnew.generators] == [c.vec for c in free], n
        for c in samples(X, n, gens, rng):
            q = c.map_values(Fraction, RATIONALS).scale(Fraction(1, rng.randint(1, 4)))
            assert qnew.classify(q) == qold.classify(q), n


@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_presentations_match_the_eager_group(kind):
    assert_same_groups(FIXTURES[kind]())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_presentations_match_the_eager_group_on_generated_complexes(facets):
    assert_same_groups(from_facets("X", [tuple(sorted(f)) for f in facets]))


@pytest.mark.parametrize("kind", ["circle", "sphere2", "torus", "rp2", "genus2", "rp2xS1"])
def test_torsion_is_sympys_invariant_factors_of_the_coboundary_below(kind):
    X = build_standard(kind)
    for n in range(1, X.top_dim + 1):
        factors = sympy_invariant_factors(Matrix(delta_matrix(X, n - 1)), domain=ZZ)
        expected = tuple(int(d) for d in factors if abs(int(d)) > 1)
        assert cohomology(X, n, INTEGERS).presentation.torsion == expected, n


def test_rp2_times_circle_has_refined_torsion():
    assert str(hat_group(build_standard("rp2xS1"), 2)) == "Z/2 + Q^90 + Q/Z"


@pytest.mark.parametrize("kind", ["rp2xS1", "genus2", "T3"])
def test_divisible_rank_is_the_coboundary_rank_mod_a_large_prime(kind):
    # no invariant factor of a coboundary matrix here reaches 1000003, so
    # the rank mod p is the rank over Q
    X = build_standard(kind)
    for n in range(X.top_dim + 1):
        A = delta_matrix(X, n - 1) if n else []
        rank = len(A[0]) - len(kernel_mod_prime(A, 1000003)) if A else 0
        assert hat_group(X, n).divisible_rank == rank, n


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_presentations_build_no_transform(facets):
    # the cohomology-fresh benchmark workload's op: presentations of a fresh
    # complex read the Smith diagonals of the cleared forms, and no form
    # holds more than its logs.  A delta that clears no row (the top
    # nonzero one, or one whose form above was cleared away) is factored
    # once, as delta_system's form; no other system is built
    P = cylinder(from_facets("X", [tuple(sorted(f)) for f in facets]), 1).complex
    for n in range(P.top_dim + 2):
        cohomology(P, n, INTEGERS).presentation
        cohomology(P, n, RATIONALS).presentation
    systems = [key for key in P._cache if key[0] == "system"]
    assert ("system", P.top_dim - 1, INTEGERS) in systems
    for _, n, coeffs in systems:
        above = cleared_form(P, n + 1)
        assert coeffs == INTEGERS and (above is None or not above.units)
        assert cleared_form(P, n) is delta_system(P, n).form
    # delta_top has no rows, so the top degree leaves no form and the one
    # below it clears no row; lower forms may be cleared away entirely
    assert cleared_form(P, P.top_dim) is None
    assert cleared_form(P, P.top_dim - 1) is not None
    forms = [f for f in (cleared_form(P, n) for n in range(P.top_dim)) if f is not None]
    assert all(set(vars(f)) == {"shape", "diagonal", "row_log", "col_log", "units"}
               for f in forms)


def assert_cleared_like_full(X) -> None:
    """Each cleared form has the rank and the invariant factors > 1 of the
    full delta that delta_system factors, in every degree."""
    for n in range(X.top_dim + 1):
        cleared, full = cleared_form(X, n), delta_system(X, n).form
        if full is None:
            assert cleared is None, n
            continue
        assert (cleared.rank if cleared else 0) == full.rank, n
        torsion = [d for d in cleared.diagonal if d > 1] if cleared else []
        assert torsion == [d for d in full.diagonal if d > 1], n


@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_cleared_forms_have_the_full_ranks_and_invariant_factors(kind):
    assert_cleared_like_full(FIXTURES[kind]())


def test_cleared_forms_keep_the_torsion_of_rp2_times_rp2():
    # Z/2 in three degrees, Z/2 + Z/2 in degree 2
    X = product(rp2(), rp2())
    assert_cleared_like_full(X)
    assert [str(cohomology(X, n, INTEGERS).presentation) for n in range(X.top_dim + 1)] == [
        "Z", "0", "Z/2 + Z/2", "Z/2", "Z/2"]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_cleared_forms_match_the_full_deltas_on_generated_cylinders(facets):
    assert_cleared_like_full(
        cylinder(from_facets("X", [tuple(sorted(f)) for f in facets]), 1).complex)
