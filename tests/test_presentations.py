"""Cohomology presentations from the cleared chain, against the eager group.

reference_cohomology keeps the constructor from before presentations were
read off Smith diagonals alone: it factors the full delta_n
(dense.full_delta), then delta_{n-1} in cocycle coordinates, and reads the
presentation off that form.  Today a presentation reads the ranks and
invariant factors of delta_system's cleared forms, delta_n without the
rows delta_{n+1}'s form took unit pivots at.  Both must give the same
presentation over Z and Q, on every fixture, on torus x Delta^3 and on
generated complexes, and the package's representatives and classify
answers must be right by the reference's classify.  Each cleared form
must have the rank, the invariant factors and the kernel of the full
delta.  The torsion is also checked against sympy's invariant factors of
delta_{n-1}, and hat_group's divisible rank against the rank of
delta_{n-1} mod a large prime by row reduction, which uses no Smith form.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

import reference_cohomology as ref
from dense import delta_matrix, full_delta, kernel_mod_prime
from simdiff.cochains import INTEGERS, RATIONALS, Cochain, coboundary, random_cochain
from simdiff.cohomology import cohomology, delta_system, kept_rows
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


def combination(X, n: int, coeffs, coords, gens) -> Cochain:
    out = Cochain.zero(X, n, coeffs)
    for a, g in zip(coords, gens):
        out = out + g.scale(a)
    return out


def assert_same_groups(X) -> None:
    """The package's group and the reference's have one presentation, and
    the package's representatives and coordinates are right by the
    reference's classify, which shares no Smith form with them: each
    sample minus its coordinates times the representatives is a
    coboundary, and so is each torsion representative times its order.
    The representatives themselves may differ, since the cleared forms'
    cocycle bases are not the full deltas'."""
    rng = random.Random(X.name)
    for n in range(X.top_dim + 2):
        new, old = cohomology(X, n, INTEGERS), ref.cohomology(X, n, INTEGERS)
        p = new.presentation
        assert p == old.presentation, n
        gens = new.generators
        r, zero = p.free_rank, ((0,) * p.free_rank, (0,) * len(p.torsion))
        assert len(gens) == r + len(p.torsion), n
        for i, g in enumerate(gens):
            unit = tuple(int(j == i) for j in range(len(gens)))
            assert new.classify(g) == (unit[:r], unit[r:]), n
        for t, d in zip(gens[r:], p.torsion):
            assert old.classify(t.scale(d)) == zero, n
        for c in samples(X, n, old.generators, rng) + samples(X, n, gens, rng):
            free, torsion = new.classify(c)
            assert old.classify(c - combination(X, n, INTEGERS, free + torsion, gens)) == zero, n
        qnew, qold = cohomology(X, n, RATIONALS), ref.cohomology(X, n, RATIONALS)
        assert qnew.presentation == qold.presentation, n
        # the rational group lists the free representatives alone, over Q
        qgens = qnew.generators
        assert [c.vec for c in qgens] == [tuple(map(Fraction, c.vec)) for c in gens[:r]], n
        for c in samples(X, n, old.generators, rng):
            q = c.map_values(Fraction, RATIONALS).scale(Fraction(1, rng.randint(1, 4)))
            free, _ = qnew.classify(q)
            assert qold.classify(q - combination(X, n, RATIONALS, free, qgens)) == (zero[0], ()), n


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
    # complex read the Smith diagonals of delta_system's cleared forms, one
    # integral system per degree, and no form holds more than its logs
    P = cylinder(from_facets("X", [tuple(sorted(f)) for f in facets]), 1).complex
    for n in range(P.top_dim + 2):
        cohomology(P, n, INTEGERS).presentation
        cohomology(P, n, RATIONALS).presentation
    systems = sorted(key[1:] for key in P._cache if key[0] == "system")
    assert systems == [(n, INTEGERS) for n in range(P.top_dim + 2)]
    assert not any("kernel" in vars(delta_system(P, n)) for n, _ in systems)
    # delta_top has no rows, so the top degree leaves no form and the one
    # below it clears no row; lower forms may be cleared away entirely
    assert delta_system(P, P.top_dim).form is None
    assert delta_system(P, P.top_dim - 1).form is not None
    assert len(kept_rows(P, P.top_dim - 1)) == len(P.generators(P.top_dim))
    forms = [f for f in (delta_system(P, n).form for n in range(P.top_dim)) if f is not None]
    assert all(set(vars(f)) == {"shape", "diagonal", "row_log", "col_log", "units"}
               for f in forms)


def assert_cleared_like_full(X) -> None:
    """Each cleared form has the rank and the invariant factors > 1 of the
    full delta, and its system's kernel is a basis of the full delta's
    kernel, in every degree."""
    for n in range(X.top_dim + 1):
        cleared, full = delta_system(X, n), full_delta(X, n)
        if full.form is None:
            assert cleared.form is None, n
            continue
        assert (cleared.form.rank if cleared.form else 0) == full.form.rank, n
        torsion = [d for d in cleared.form.diagonal if d > 1] if cleared.form else []
        assert torsion == [d for d in full.form.diagonal if d > 1], n
        kernel = cleared.kernel
        assert len(kernel) == cleared.width - full.form.rank, n
        cols = [[] for _ in range(cleared.width)]
        for i, row in enumerate(full.matrix):
            for t, a in row.items():
                cols[t].append((i, a))
        for v in kernel:
            image: dict[int, int] = {}
            for t, x in enumerate(v):
                for i, a in cols[t] if x else ():
                    image[i] = image.get(i, 0) + a * x
            assert not any(image.values()), n


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
