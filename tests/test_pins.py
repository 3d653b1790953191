"""The pinned solves: positional against generator-keyed, and the
contraction against both.

face_pins compiles where the faces land once per face set and returns
the pinned cochain by position.  The positional pinned solve (a pinned
system keyed by position, the right-hand side -delta of the pinned
cochain, a substitution that reads S's rank rows only) and the
generator-keyed one it replaced are both kept in tests/reference_pins.py;
here they answer the same problems and must agree exactly: pins,
particular solutions, obstructions ("Z", "Q" and "Z/k") and face-conflict
errors.  The reference's kernel cochains, built from System.kernel, must
be closed and vanish on every pin.  On X x Delta^2 with all three faces
given, the package's solve_closed_extension answers through the
Eilenberg-Zilber contraction instead; it must give the same verdict, a
closed cochain with the given faces, or a certificate blind on delta of
every free generator.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_pins as ref
from simdiff.cochains import (INTEGERS, RATIONALS, Cochain, coboundary, mod_coefficients,
                              pullback, random_cochain)
from simdiff.cohomology import (CoboundaryObstruction, cohomology, face_pins,
                                solve_closed_extension)
from simdiff.complexes import circle, cylinder, genus2, rp2, torus
from simdiff.exact import System

from dense import mat_vec

BASES = {"circle": lambda: circle(3), "torus": torus, "rp2": rp2, "genus2": genus2}
RINGS = [INTEGERS, RATIONALS, mod_coefficients(2), mod_coefficients(3)]


def pinned_answers(cyl, faces, degree, coeffs):
    """Both paths' (pins, answer), or both ValueError messages."""
    try:
        want_pins = ref.face_pins(cyl, faces)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            face_pins(cyl, faces)
        assert str(got.value) == str(e)
        return str(e)
    pinned = face_pins(cyl, faces)
    positions = ref.pin_positions(cyl, faces, degree)
    got_pins = ref.pins_by_generator(pinned, positions)
    assert got_pins == want_pins
    assert [type(v) for v in got_pins.values()] == [type(v) for v in want_pins.values()]
    got = ref.solve_pinned_extension(cyl.complex, degree, positions, pinned, coeffs)
    S = ref.pinned_system(cyl.complex, degree, positions, coeffs)
    want = ref.solve_closed_extension(cyl.complex, degree, want_pins, coeffs, S)
    if isinstance(want, ref.PinnedSolution):
        assert got == want.particular
        for K in want.kernel:
            assert coboundary(K).is_zero()
            assert not any(K.vec[p] for p in positions)
    else:
        assert type(got) is type(want)
        assert got.ring == want.ring and got.functional == want.functional
    if cyl.k == 2 and len(faces) == 3:
        assert_contraction_agrees(cyl, faces, pinned, positions, got, coeffs)
    return got


def assert_contraction_agrees(cyl, faces, pinned, positions, want, coeffs):
    """The package's solve_closed_extension against the pinned verdict."""
    got = solve_closed_extension(cyl, pinned, coeffs)
    assert type(got) is type(want)
    if isinstance(got, Cochain):
        assert coboundary(got).is_zero()
        for i, F in faces.items():
            assert pullback(cyl.face_inclusion(i), got) == F
        return
    P, degree = cyl.complex, pinned.degree
    free = [coboundary(Cochain.indicator(P, g, coeffs))
            for p, g in enumerate(P.generators(degree)) if p not in positions]
    if coeffs.modulus:
        free += [Cochain.indicator(P, g, INTEGERS, coeffs.modulus) for g in got.functional]
    assert got.certifies(coboundary(pinned), free)


def closed_cochain(cyl, degree, coeffs, rng):
    """A closed cochain on X x Delta^k: a base cocycle pulled back plus a
    coboundary."""
    X = cyl.base
    z = Cochain.zero(X, degree, INTEGERS)
    for g in cohomology(X, degree, INTEGERS).generators:
        z = z + g.scale(rng.randint(-2, 2))
    z = z.map_values(coeffs.normalize, coeffs)
    w = pullback(cyl.projection, z)
    return w + coboundary(random_cochain(cyl.complex, degree - 1, coeffs, rng, density=0.3))


def faces_of(cyl, W, order):
    return {i: pullback(cyl.face_inclusion(i), W) for i in order}


def face_orders(k):
    """Every face, and for k = 2 also every face but the first."""
    every = tuple(range(k + 1))
    return [every, every[1:]] if k == 2 else [every]


def rings_for(cyl, degree):
    """Every ring on systems of at most 300 equations, Z alone on larger
    ones: factoring the Z/k lift of a larger one takes 0.1 s to seconds."""
    small = len(cyl.complex.generators(degree + 1)) <= 300
    return RINGS if small else RINGS[:1]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("base", sorted(BASES))
def test_pinned_solves_match_the_generator_keyed_reference(base, k):
    X = BASES[base]()
    cyl = cylinder(X, k)
    rng = random.Random(f"{base}:{k}")
    seen = set()
    # with every face pinned, degrees below k have no free generator
    for degree in ((1, 2) if k == 1 else (k,)):
        for coeffs in rings_for(cyl, degree):
            for order in face_orders(k):
                W = closed_cochain(cyl, degree, coeffs, rng)
                # consistent closed faces: W itself extends them
                got = pinned_answers(cyl, faces_of(cyl, W, order), degree, coeffs)
                assert isinstance(got, Cochain)
                seen.add("solution")
                # faces agreeing on overlaps but not closed
                bent = W + random_cochain(cyl.complex, degree, coeffs, rng, density=0.2)
                got = pinned_answers(cyl, faces_of(cyl, bent, order), degree, coeffs)
                seen.add(got.ring if isinstance(got, CoboundaryObstruction) else "solution")
                # faces cut from two cochains: they clash where they overlap
                faces = faces_of(cyl, W, order)
                other = closed_cochain(cyl, degree, coeffs, rng)
                faces[order[-1]] = pullback(cyl.face_inclusion(order[-1]), other)
                got = pinned_answers(cyl, faces, degree, coeffs)
                seen.add("conflict" if isinstance(got, str) else "no conflict")
    assert {"solution", "Q"} <= seen
    # faces overlap on X x Delta^(k-2), whose degree-k generators need X of
    # dimension 2
    assert ("conflict" in seen) == (k > 1 and base != "circle")


@pytest.mark.parametrize("coeffs", RINGS, ids=lambda c: c.label())
@pytest.mark.parametrize("base", sorted(BASES))
def test_ends_in_different_classes_match_the_reference(base, coeffs):
    """A class and zero at the two ends of X x Delta^1: refuted over Q on a
    free class, over Z and Z/2 only on rp2's torsion class."""
    X = BASES[base]()
    cyl = cylinder(X, 1)
    verdicts = {}
    for degree in (1, 2):
        for z in cohomology(X, degree, INTEGERS).generators:
            z = z.map_values(coeffs.normalize, coeffs)
            got = pinned_answers(cyl, {0: z, 1: Cochain.zero(X, degree, coeffs)},
                                 degree, coeffs)
            verdicts[degree] = got.ring if isinstance(got, CoboundaryObstruction) else "solved"
    if base == "rp2":
        expected = {2: {"Z": "Z", "Q": "solved", "Z/2": "Z/2", "Z/3": "solved"}}
    else:
        # a free class stays nonzero mod k; over Z it is refuted rationally
        expected = {1: {"Z": "Q", "Q": "Q", "Z/2": "Z/2", "Z/3": "Z/3"}}
    for degree, by_ring in expected.items():
        assert verdicts[degree] == by_ring[coeffs.label()]


KINDS = [("Z", 0), ("Zmod", 2), ("Zmod", 6), ("Q", 0)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(KINDS),
       st.randoms(use_true_random=False))
def test_random_matrices_substitute_like_the_full_S_reference(r, c, kind, rng):
    A = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(c)] for _ in range(r)]
    S = System(A, range(r), range(c), *kind)
    for i in range(6):
        b = mat_vec(A, [rng.randint(-3, 3) for _ in range(c)])
        if i % 2:
            # mostly inconsistent: a perturbed image
            b[rng.randrange(r)] += rng.choice([1, -1, 2, 3])
        got, want = S.solve(b), ref.solve(S, b)
        assert type(got) is type(want)
        assert vars(got) == vars(want)
