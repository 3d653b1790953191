import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from simdiff import cohomology as cohomology_module, exact
from simdiff.cochains import (Cochain, INTEGERS, RATIONALS, coboundary,
                              mod_coefficients, pullback, random_cochain)
from simdiff.cohomology import (CoboundaryObstruction, GroupPresentation, cohomology,
                                delta_system, face_pins, is_coboundary,
                                solve_closed_extension, solve_coboundary)
from simdiff.complexes import (Simplex, build_standard, circle, cylinder, from_facets,
                               key_str, point, product, rp2, sphere2, torus)
from simdiff.groupoid import MappingGroupoid

from dense import delta_matrix, kernel_mod_prime
from reference_pins import pin_positions, pins_by_generator


def test_presentation_rendering():
    assert str(GroupPresentation()) == "0"
    assert str(GroupPresentation(free_rank=2, torsion=(2, 4))) == "Z^2 + Z/2 + Z/4"
    assert str(GroupPresentation(divisible_rank=1, circle_rank=1)) == "Q + Q/Z"
    with pytest.raises(ValueError):
        GroupPresentation(torsion=(4, 2))


def test_delta_matrix_circle():
    # each edge sees its two endpoints with opposite signs
    M = delta_matrix(circle(3), 0)
    assert sorted(sorted(row) for row in M) == [[-1, 0, 1]] * 3


KNOWN_GROUPS = [
    ("point", point, 0, GroupPresentation(free_rank=1)),
    ("point", point, 1, GroupPresentation()),
    ("circle", circle, 0, GroupPresentation(free_rank=1)),
    ("circle", circle, 1, GroupPresentation(free_rank=1)),
    ("circle", circle, 2, GroupPresentation()),
    ("sphere2", sphere2, 0, GroupPresentation(free_rank=1)),
    ("sphere2", sphere2, 1, GroupPresentation()),
    ("sphere2", sphere2, 2, GroupPresentation(free_rank=1)),
    ("rp2", rp2, 0, GroupPresentation(free_rank=1)),
    ("rp2", rp2, 1, GroupPresentation()),
    ("rp2", rp2, 2, GroupPresentation(torsion=(2,))),
    ("torus", torus, 0, GroupPresentation(free_rank=1)),
    ("torus", torus, 1, GroupPresentation(free_rank=2)),
    ("torus", torus, 2, GroupPresentation(free_rank=1)),
]


@pytest.mark.parametrize("name,build,deg,expected",
                         [(f"{n}-H{d}", b, d, e) for n, b, d, e in KNOWN_GROUPS],
                         ids=[f"{n}-H{d}" for n, _, d, _ in KNOWN_GROUPS])
def test_integer_cohomology(name, build, deg, expected):
    H = cohomology(build(), deg, INTEGERS)
    assert H.presentation == expected


def test_rp2_times_rp2_has_the_kunneth_groups():
    # H^n(RP2 x RP2; Z) by Kunneth: the Z/2 tensor terms and the Tor term
    X = product(rp2(), rp2())
    groups = [str(cohomology(X, n, INTEGERS).presentation) for n in range(X.top_dim + 1)]
    assert groups == ["Z", "0", "Z/2 + Z/2", "Z/2", "Z/2"]
    assert [str(cohomology(X, n, RATIONALS).presentation)
            for n in range(X.top_dim + 1)] == ["Z", "0", "0", "0", "0"]


def test_rational_cohomology_drops_torsion():
    H = cohomology(rp2(), 2, RATIONALS)
    assert H.presentation == GroupPresentation()
    H = cohomology(torus(), 1, RATIONALS)
    assert H.presentation == GroupPresentation(free_rank=2)


@pytest.mark.parametrize("kind", ["pt", "delta_k", "circle", "sphere2", "torus", "rp2",
                                  "genus2", "rp2xS1", "T3"])
def test_generators_list_each_summand_once_over_the_group_ring(kind):
    # the rational group has no torsion summands, so it lists no torsion
    # generators, and its generators are rational cochains
    X = build_standard(kind)
    for n in range(X.top_dim + 2):
        for ring in (INTEGERS, RATIONALS):
            H = cohomology(X, n, ring)
            gens = H.generators
            assert len(gens) == H.presentation.free_rank + len(H.presentation.torsion), (n, ring)
            assert all(c.coeffs == ring for c in gens), (n, ring)


def test_generators_are_built_once_and_read_as_fresh_lists(monkeypatch):
    # random_object reads them many times per op: the first read builds the
    # representatives, and a later read copies them without a replay
    X = product(rp2(), circle(3))
    built = []
    real = cohomology_module.cochain_of
    monkeypatch.setattr(cohomology_module, "cochain_of",
                        lambda *args: built.append(args) or real(*args))
    # H^1 = Z and H^2 = Z/2: a free and a torsion representative
    for n, ring in ((1, INTEGERS), (2, INTEGERS), (1, RATIONALS)):
        built.clear()
        H = cohomology(X, n, ring)
        first = H.generators
        assert len(built) == len(first) == 1
        second = H.generators
        assert len(built) == 1
        assert second == first and second is not first
        second.append(second.pop(0))
        assert H.generators == first


def test_generators_are_cocycles_and_classify_as_unit_vectors():
    for X, deg in ((circle(3), 1), (torus(), 1), (torus(), 2), (rp2(), 2), (sphere2(), 2)):
        H = cohomology(X, deg, INTEGERS)
        for i, g in enumerate(H.generators):
            assert coboundary(g).is_zero()
            free, tors = H.classify(g)
            vec = list(free) + list(tors)
            assert vec[i] == 1
            assert all(v == 0 for j, v in enumerate(vec) if j != i)


def test_classify_respects_coboundaries():
    rng = random.Random(9)
    X = torus()
    H = cohomology(X, 1, INTEGERS)
    z = H.generators[0]
    shift = coboundary(random_cochain(X, 0, INTEGERS, rng))
    assert H.same_class(z, z + shift)
    assert not H.same_class(z, z + H.generators[1])


def test_classify_rational_scaling():
    X = circle(3)
    H = cohomology(X, 1, RATIONALS)
    z = cohomology(X, 1, INTEGERS).generators[0].map_values(Fraction, RATIONALS)
    half = z.scale(Fraction(1, 2))
    free, tors = H.classify(half)
    assert tors == ()
    assert free[0] == Fraction(1, 2) * H.classify(z)[0][0]


def test_classify_rejects_non_cocycle():
    X = circle(3)
    H = cohomology(X, 0, INTEGERS)
    c = Cochain(X, 0, INTEGERS, {"v0": 1})
    with pytest.raises(ValueError):
        H.classify(c)


def test_classify_rejects_a_cocycle_on_another_complex():
    T, C = torus(), circle(3)
    c = cohomology(C, 1, INTEGERS).generators[0]
    with pytest.raises(ValueError, match="another complex"):
        cohomology(T, 1, INTEGERS).classify(c)
    g = cohomology(T, 1, INTEGERS).generators[0]
    with pytest.raises(ValueError, match="another complex"):
        cohomology(C, 1, INTEGERS).same_class(g, g)


def test_classify_rejects_a_cocycle_of_another_degree():
    X = torus()
    g = cohomology(X, 1, INTEGERS).generators[0]
    with pytest.raises(ValueError, match="degree 2 got a cochain of degree 1"):
        cohomology(X, 2, INTEGERS).classify(g)
    with pytest.raises(ValueError, match="degree"):
        cohomology(X, 2, RATIONALS).classify(g.map_values(Fraction, RATIONALS))


def test_classify_over_z_rejects_a_non_integral_value():
    X = torus()
    H = cohomology(X, 1, INTEGERS)
    h = H.generators[0]
    half = h.map_values(lambda v: Fraction(v, 2), RATIONALS)
    with pytest.raises(ValueError, match="non-integral"):
        H.classify(half)
    with pytest.raises(ValueError, match="non-integral"):
        H.same_class(half, h.scale(0))
    # integral values held as rationals classify as the integer cocycle
    assert H.classify(half.scale(2)) == H.classify(h) == ((1, 0), ())
    # over Q the half is half a class
    assert cohomology(X, 1, RATIONALS).classify(half) == ((Fraction(1, 2), 0), ())


def test_solve_coboundary_witness():
    rng = random.Random(13)
    X = rp2()
    beta = random_cochain(X, 1, INTEGERS, rng)
    res = solve_coboundary(coboundary(beta))
    assert isinstance(res, Cochain)
    assert coboundary(res) == coboundary(beta)


def test_solve_coboundary_obstruction_integer():
    # the rp2 torsion generator is a rational coboundary but not an integral one
    X = rp2()
    z = cohomology(X, 2, INTEGERS).generators[0]
    res = solve_coboundary(z)
    assert isinstance(res, CoboundaryObstruction)
    assert res.ring == "Z"
    assert res.refutes(z)
    rng = random.Random(29)
    bdry = coboundary(random_cochain(X, 1, INTEGERS, rng))
    assert res.pairing(bdry).denominator == 1
    rat = solve_coboundary(z.map_values(Fraction, RATIONALS))
    assert isinstance(rat, Cochain)
    assert coboundary(rat) == z.map_values(Fraction, RATIONALS)


def test_solve_coboundary_obstruction_rational():
    X = circle(3)
    z = cohomology(X, 1, INTEGERS).generators[0].map_values(Fraction, RATIONALS)
    res = solve_coboundary(z)
    assert isinstance(res, CoboundaryObstruction)
    assert res.ring == "Q"
    assert res.refutes(z)
    # the functional kills every coboundary
    rng = random.Random(19)
    for _ in range(5):
        b = coboundary(random_cochain(X, 0, RATIONALS, rng))
        assert res.pairing(b) == 0


def test_solve_coboundary_mod():
    X = rp2()
    z = cohomology(X, 2, INTEGERS).generators[0]
    z2 = Cochain(X, 2, mod_coefficients(2), {g: v % 2 for g, v in z.values.items()})
    res = solve_coboundary(z2)
    # the mod-2 reduction of the torsion class is nonzero in H^2(rp2; Z/2)
    assert isinstance(res, CoboundaryObstruction)


@pytest.mark.parametrize("v", [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2), Fraction(5)])
def test_degree_zero_certificate_pairs_off_a_rational_value(v):
    # a rational target asked over Z: the weight 1/(2|numerator|) pairs
    # with it to +-1/(2 * denominator), never an integer, and never
    # divides by zero on a value in (-1, 1)
    target = Cochain(point(), 0, RATIONALS, {"*": v})
    res = solve_coboundary(target, INTEGERS)
    assert isinstance(res, CoboundaryObstruction) and res.ring == "Z"
    assert res.refutes(target)
    assert abs(res.pairing(target)) == Fraction(1, 2 * v.denominator)


def test_is_coboundary_degree_zero():
    X = point()
    assert not is_coboundary(Cochain(X, 0, INTEGERS, {"*": 1}))
    assert is_coboundary(Cochain.zero(X, 0, INTEGERS))


def test_solve_closed_extension_cylinder():
    # closed faces of a closed cochain extend to a closed cochain on
    # X x Delta^2 with exactly those faces
    X = torus()
    cyl = cylinder(X, 2)
    z = cohomology(X, 2, INTEGERS).generators[0]
    W = pullback(cyl.projection, z) + coboundary(
        random_cochain(cyl.complex, 1, INTEGERS, random.Random(2), density=0.3))
    faces = {i: pullback(cyl.face_inclusion(i), W) for i in range(3)}
    w = solve_closed_extension(cyl, face_pins(cyl, faces), INTEGERS)
    assert isinstance(w, Cochain)
    assert coboundary(w).is_zero()
    for i, F in faces.items():
        assert pullback(cyl.face_inclusion(i), w) == F
    # pins over Z are carried into Q first: the answer is the one pinned over Q
    rational = {i: F.map_values(Fraction, RATIONALS) for i, F in faces.items()}
    assert (solve_closed_extension(cyl, face_pins(cyl, faces), RATIONALS)
            == solve_closed_extension(cyl, face_pins(cyl, rational), RATIONALS))


def test_solve_closed_extension_detects_impossible():
    # a loop on a free class and the unit cannot be joined by a homotopy
    X = torus()
    cyl = cylinder(X, 2)
    G = MappingGroupoid(X, INTEGERS, 1)
    src = G.from_cocycle(cohomology(X, 1, INTEGERS).generators[0])
    faces = {0: G.maps.zero(1), 1: G.unit().data, 2: src.data}
    pinned = face_pins(cyl, faces)
    res = solve_closed_extension(cyl, pinned, INTEGERS)
    assert isinstance(res, CoboundaryObstruction)
    # re-verified from the definition: the functional refutes delta of the
    # pinned part and is blind on delta of every free generator
    P = cyl.complex
    held = pin_positions(cyl, faces, 2)
    free = [coboundary(Cochain.indicator(P, g, INTEGERS))
            for p, g in enumerate(P.generators(2)) if p not in held]
    assert res.certifies(coboundary(pinned), free)
    g, v = next(iter(res.functional.items()))
    flipped = CoboundaryObstruction({**res.functional, g: -v}, res.ring)
    assert res.ring != "Q" or not flipped.certifies(coboundary(pinned), free)


def test_solve_closed_extension_refutes_faces_that_are_not_closed():
    # a face that is not closed leaves delta K0 with a value over the
    # boundary, which no free generator reaches: that generator refutes
    X = circle(3)
    cyl = cylinder(X, 2)
    for coeffs in (INTEGERS, RATIONALS, mod_coefficients(3)):
        wall = cylinder(X, 1).complex
        bent = Cochain.indicator(wall, wall.generators(1)[0], coeffs)
        pinned = face_pins(cyl, {0: bent, 1: Cochain.zero(wall, 1, coeffs),
                                 2: Cochain.zero(wall, 1, coeffs)})
        res = solve_closed_extension(cyl, pinned, coeffs)
        assert isinstance(res, CoboundaryObstruction) and res.ring == coeffs.label()
        P = cyl.complex
        held = pin_positions(cyl, (0, 1, 2), 1)
        free = [coboundary(Cochain.indicator(P, g, coeffs))
                for p, g in enumerate(P.generators(1)) if p not in held]
        spanning = free + ([Cochain.indicator(P, g, INTEGERS, coeffs.modulus)
                            for g in res.functional] if coeffs.modulus else [])
        assert res.certifies(coboundary(pinned), spanning)


def test_face_pins_disjoint_ends():
    X = point()
    cyl = cylinder(X, 1)
    a = Cochain(X, 0, INTEGERS, {"*": 1})
    b = Cochain(X, 0, INTEGERS, {"*": 2})
    pinned = face_pins(cyl, {0: a, 1: b})
    # ends are disjoint generators, so unequal values on them never clash
    assert len(pin_positions(cyl, (0, 1), 0)) == 2
    assert sorted(pinned.vec) == [1, 2]


def test_face_pins_conflict_on_shared_edge():
    # faces 0 and 1 of Delta^2 share vertex 2; contradictory values there clash
    cyl2 = cylinder(point(), 2)
    wall = cylinder(point(), 1).complex
    v1 = ("*", (), (1,), ())
    F0 = Cochain(wall, 0, INTEGERS, {v1: 1})
    F1 = Cochain(wall, 0, INTEGERS, {v1: 2})
    with pytest.raises(ValueError, match="faces disagree"):
        face_pins(cyl2, {0: F0, 1: F1})



def test_face_pins_rejects_a_face_on_another_complex():
    cyl = cylinder(torus(), 1)
    stray = Cochain(rp2(), 1, INTEGERS, {g: 1 for g in rp2().generators(1)})
    with pytest.raises(ValueError, match="face 0 lives on rp2, not on torus"):
        face_pins(cyl, {0: stray})
    # for k = 2 the faces live on X x Delta^1, not on X
    with pytest.raises(ValueError, match="face 1 lives on torus, not on torusxD1"):
        face_pins(cylinder(torus(), 2), {1: Cochain.zero(torus(), 1, INTEGERS)})


def test_face_pins_rejects_faces_of_another_degree_or_ring():
    X = torus()
    cyl = cylinder(X, 1)
    one = Cochain.zero(X, 1, INTEGERS)
    with pytest.raises(ValueError, match="face 1 is not a degree-1 cochain over Z"):
        face_pins(cyl, {0: one, 1: Cochain.zero(X, 2, INTEGERS)})
    with pytest.raises(ValueError, match="face 1 is not a degree-1 cochain over Z"):
        face_pins(cyl, {0: one, 1: Cochain.zero(X, 1, RATIONALS)})
    with pytest.raises(ValueError, match="at least one face"):
        face_pins(cyl, {})
    pinned = face_pins(cyl, {0: one})
    with pytest.raises(ValueError, match="pins live on torusxD1, not on torusxD2"):
        solve_closed_extension(cylinder(X, 2), pinned, INTEGERS)
    with pytest.raises(ValueError, match="solved on X x Delta"):
        solve_closed_extension(cyl, pinned, INTEGERS)

def walked_face_pins(cyl, faces):
    """face_pins by walking the inclusion simplex by simplex."""
    pins = {}
    for i, F in faces.items():
        inc = cyl.face_inclusion(i)
        for g in inc.source.generators(F.degree):
            img = inc(Simplex(g))
            if img.word:
                if F.values.get(g):
                    raise ValueError(f"face {i} not normalized at {g!r}")
                continue
            v = F.values.get(g, F.coeffs.normalize(0))
            if pins.get(img.gen, v) != v:
                raise ValueError(f"faces disagree at generator {img.gen!r}")
            pins[img.gen] = v
    return pins


@pytest.mark.parametrize("coeffs", [INTEGERS, RATIONALS])
def test_face_pins_match_the_inclusion_walk(coeffs):
    rng = random.Random(3)
    for X in (circle(3), torus()):
        G = MappingGroupoid(X, INTEGERS, 1)
        cyl2 = cylinder(X, 2)
        a, b = (G.random_object(rng).data.map_values(coeffs.normalize, coeffs)
                for _ in range(2))
        faces = {0: Cochain.zero(cylinder(X, 1).complex, 2, coeffs), 1: b, 2: a}
        got = pins_by_generator(face_pins(cyl2, faces), pin_positions(cyl2, faces, 2))
        assert got == walked_face_pins(cyl2, faces)
        assert {type(v) for v in got.values()} == {type(coeffs.zero)}


TORUS7 = ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
          + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])


def values_of(c: Cochain) -> list:
    return sorted((key_str(g), v) for g, v in c.values.items())


def test_top_degree_reuses_the_factored_delta(monkeypatch):
    calls = [0]
    original = exact.smith_normal_form

    def counted(A, width=None):
        calls[0] += 1
        return original(A, width)

    monkeypatch.setattr(exact, "smith_normal_form", counted)
    monkeypatch.setattr(cohomology_module, "smith_normal_form", counted)
    P = cylinder(from_facets("torus7", TORUS7), 1).complex
    groups = [cohomology(P, n, INTEGERS) for n in range(P.top_dim + 1)]
    # the presentations read delta_system's cleared delta_0..delta_2,
    # factored once each from the top down; delta_3 has no rows and no form
    assert [str(G.presentation) for G in groups] == ["Z", "Z^2", "Z", "0"]
    assert calls[0] == 3
    assert sorted(key[1] for key in P._cache if key[0] == "system") == [0, 1, 2, 3]
    assert delta_system(P, 3).form is None
    # representatives add only the image forms of H^1 and H^2, since the
    # cocycle bases read the same forms; H^2 and H^3 reuse delta_2
    assert [len(groups[n].generators) for n in (1, 2)] == [2, 1]
    assert calls[0] == 5
    assert groups[3].generators == []
    assert calls[0] == 5
    assert groups[3]._classes.image is delta_system(P, 2).form
    # neither read a dense kernel, which System builds on first read
    assert not any("kernel" in vars(delta_system(P, n)) for n in range(P.top_dim + 1))
    # H^2 = Z: its one representative classifies as the unit coordinate
    (gen,) = groups[2].generators
    assert groups[2].classify(gen) == ((1,), ())


@pytest.mark.parametrize("build, expected", [
    (rp2, ((), (1,))),
    (sphere2, [("1.2.3", 1)]),
    (torus, [("(e2|1)*(e2|0)", 1)]),
])
def test_top_degree_generators_are_unchanged(build, expected):
    # expected is the representative's values, or for rp2, whose Z/2
    # representative the unit pivots choose, the class it must stand for
    X = build()
    H = cohomology(X, X.top_dim, INTEGERS)
    (gen,) = H.generators
    if isinstance(expected, tuple):
        assert H.classify(gen) == expected
        assert not is_coboundary(gen) and is_coboundary(gen.scale(2))
    else:
        assert values_of(gen) == expected


@pytest.mark.parametrize("build", [rp2, torus])
def test_base_times_delta3_has_the_cohomology_of_the_base(build):
    # X x Delta^3 deformation retracts onto X
    X = build()
    Y = cylinder(X, 3).complex
    for n in range(Y.top_dim + 1):
        base = X.top_dim >= n
        expected = cohomology(X, n, INTEGERS).presentation if base else GroupPresentation()
        assert cohomology(Y, n, INTEGERS).presentation == expected, n
        rank = cohomology(X, n, RATIONALS).presentation if base else GroupPresentation()
        assert cohomology(Y, n, RATIONALS).presentation == rank == GroupPresentation(
            free_rank=expected.free_rank), n


# -- the universal coefficient theorem, mod p by row reduction, not Smith form --


def cocycle_dim_mod(X, n: int, p: int) -> int:
    A = delta_matrix(X, n)
    # with no (n+1)-generators every n-cochain is a cocycle
    return len(kernel_mod_prime(A, p)) if A else len(X.generators(n))


def cohomology_dim_mod(X, n: int, p: int) -> int:
    boundaries = len(X.generators(n - 1)) - cocycle_dim_mod(X, n - 1, p) if n else 0
    return cocycle_dim_mod(X, n, p) - boundaries


def universal_coefficient_dim(X, n: int, p: int) -> int:
    """dim of H^n(X; Z) (x) Z/p + Tor(H^{n+1}(X; Z), Z/p) over Z/p."""
    H = cohomology(X, n, INTEGERS).presentation
    up = cohomology(X, n + 1, INTEGERS).presentation.torsion if n < X.top_dim else ()
    return (H.free_rank + sum(1 for d in H.torsion if d % p == 0)
            + sum(1 for d in up if d % p == 0))


def assert_universal_coefficients(X) -> None:
    for p in (2, 3):
        for n in range(X.top_dim + 1):
            assert cohomology_dim_mod(X, n, p) == universal_coefficient_dim(X, n, p), (p, n)


@pytest.mark.parametrize("build", [
    point, lambda: circle(4), sphere2, rp2, torus, lambda: cylinder(rp2(), 1).complex])
def test_universal_coefficients_on_fixtures(build):
    assert_universal_coefficients(build())


def test_universal_coefficients_see_the_torsion_of_rp2():
    X = rp2()
    assert [cohomology_dim_mod(X, n, 2) for n in range(3)] == [1, 1, 1]
    assert [cohomology_dim_mod(X, n, 3) for n in range(3)] == [1, 0, 0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_universal_coefficients_on_generated_complexes(facets):
    assert_universal_coefficients(from_facets("X", [tuple(sorted(f)) for f in facets]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_rational_ranks_add_up_to_the_euler_characteristic(facets):
    X = from_facets("X", [tuple(sorted(f)) for f in facets])
    Z = [cohomology(X, n, INTEGERS).presentation for n in range(X.top_dim + 1)]
    Q = [cohomology(X, n, RATIONALS).presentation for n in range(X.top_dim + 1)]
    assert sum((-1) ** n * q.free_rank for n, q in enumerate(Q)) == X.euler_characteristic()
    assert [z.free_rank for z in Z] == [q.free_rank for q in Q]
