"""Eilenberg-MacLane spaces, horn filling, and the loop identification."""

import random

import pytest

from simdiff.cochains import (Cochain, INTEGERS, RATIONALS, coboundary,
                              mod_coefficients, pullback, random_cochain)
from simdiff.cohomology import CoboundaryObstruction, cohomology
from simdiff.complexes import (Simplex, SimplicialMap, circle, cylinder, rp2,
                               standard_simplex, torus, vertex_path)
from simdiff.em import (EMMap, EMSpace, FundamentalCocycle, MappingComplex,
                        check_iota_compatibility, e_section, loop_integrate,
                        maps_as_cocycles, moore_fill, structure_element)

import reference_fill
import reference_pins
from reference_complexes import end_inclusions

Z2 = mod_coefficients(2)


# -- the spaces themselves -------------------------------------------------

def test_em_space_level_sizes():
    E = EMSpace(INTEGERS, 1)
    assert [len(E.level(m)) for m in range(4)] == [0, 1, 2, 3]
    assert E.level(1)[0].values == {(0, 1): 1}


def test_em_space_levels_are_cocycles():
    for E in (EMSpace(INTEGERS, 2), EMSpace(Z2, 1)):
        for m in range(4):
            for z in E.level(m):
                assert E.contains(z)
                assert not z.is_zero()


def test_em_space_rejects_bad_input():
    with pytest.raises(ValueError):
        EMSpace(RATIONALS, 1)
    with pytest.raises(ValueError):
        EMSpace(INTEGERS, -1)


@pytest.mark.parametrize("coeffs,n", [(INTEGERS, 1), (INTEGERS, 2), (Z2, 1)])
def test_em_space_simplicial_identities(coeffs, n):
    EMSpace(coeffs, n).check_levels(up_to=3)


def test_fundamental_cocycle_values():
    E = EMSpace(INTEGERS, 1)
    iota = FundamentalCocycle(E)
    assert iota.value(E.level(1)[0]) == 1
    assert iota.value(E.level(2)[0]) == 0  # wrong level, by definition
    for m in (2, 3):
        for z in E.level(m):
            assert iota.coboundary_value(z) == 0


def test_fundamental_cocycle_rational_kills_torsion():
    E = EMSpace(Z2, 1)
    iota = FundamentalCocycle(E, rational=True)
    assert all(iota.value(z) == 0 for z in E.level(1))


# -- maps as cocycles ------------------------------------------------------

def test_to_map_classifies_single_edge():
    X = circle(3)
    E = EMSpace(INTEGERS, 1)
    z = Cochain(X, 1, INTEGERS, {"e0": 1})
    f = maps_as_cocycles(X, E).to_map(z)
    assert f(Simplex("e0")).values == {(0, 1): 1}
    assert f(Simplex("e1")).is_zero() and f(Simplex("e2")).is_zero()
    assert f(Simplex("v0")).is_zero()
    assert f(Simplex("v1", (0,))).is_zero()


def test_to_map_on_simplex_is_tautological():
    D = standard_simplex(1)
    E = EMSpace(INTEGERS, 1)
    z = Cochain(D, 1, INTEGERS, {(0, 1): 1})
    f = maps_as_cocycles(D, E).to_map(z)
    assert f(Simplex((0, 1))) == z


def test_constant_map_gives_zero_cocycle():
    X = circle(3)
    E = EMSpace(INTEGERS, 1)
    bij = maps_as_cocycles(X, E)
    f = EMMap(X, E, lambda s: E.zero(X.dim_of(s)), "const")
    assert bij.to_cocycle(f).is_zero()


def test_map_cocycle_round_trip():
    rng = random.Random(11)
    X = torus()
    E = EMSpace(INTEGERS, 1)
    bij = maps_as_cocycles(X, E)
    gens = cohomology(X, 1).generators
    for _ in range(5):
        z = coboundary(random_cochain(X, 0, INTEGERS, rng))
        for g in gens:
            z = z + g.scale(rng.randrange(-3, 4))
        assert bij.to_cocycle(bij.to_map(z)) == z


def test_map_cocycle_naturality():
    rng = random.Random(12)
    src, tgt = circle(6), circle(3)
    images = {f"v{i}": Simplex(f"v{i % 3}") for i in range(6)}
    images.update({f"e{i}": Simplex(f"e{i % 3}") for i in range(6)})
    wrap = SimplicialMap(src, tgt, images, "wrap2")
    wrap.check()
    E = EMSpace(INTEGERS, 1)
    for _ in range(5):
        z = random_cochain(tgt, 1, INTEGERS, rng)
        g = maps_as_cocycles(tgt, E).to_map(z)
        composite = EMMap(src, E, lambda s: g(wrap(s)), "g.wrap")
        assert maps_as_cocycles(src, E).to_cocycle(composite) == pullback(wrap, z)


def test_homotopy_classes_match_cohomology():
    X = torus()
    cyl = cylinder(X, 1)
    gen = cohomology(X, 1).generators[0]
    shifted = gen + coboundary(Cochain(X, 0, INTEGERS, {("v1", (), "v2", ()): 3}))
    # X x Delta^1 is solved by the pinned reference; the package solves
    # closed extensions on X x Delta^2 only
    w = reference_pins.solve_faces(cyl, {1: gen, 0: shifted}, INTEGERS)
    assert isinstance(w, Cochain)
    assert coboundary(w).is_zero()
    i0, i1 = end_inclusions(cyl)
    assert pullback(i0, w) == gen and pullback(i1, w) == shifted

    res = reference_pins.solve_faces(cyl, {1: gen, 0: gen.scale(2)}, INTEGERS)
    assert isinstance(res, CoboundaryObstruction)


# -- horn filling ----------------------------------------------------------

def test_moore_fill_degenerate_horn_level2():
    E = EMSpace(INTEGERS, 1)
    x = E.level(1)[0].scale(2)
    w = moore_fill(E, 2, 1, {0: x, 2: E.degeneracy(E.face(x, 1), 0)})
    assert w == E.degeneracy(x, 0)


def test_moore_fill_degenerate_horn_level3():
    rng = random.Random(13)
    G = MappingComplex(circle(3), INTEGERS, 1)
    y = _random_level(G, 2, rng)
    s1y = G.degeneracy(y, 1)
    faces = {0: G.face(s1y, 0), 1: y, 3: G.face(s1y, 3)}
    assert moore_fill(G, 3, 2, faces) == s1y


def test_moore_fill_sum_on_inner_horn():
    E = EMSpace(INTEGERS, 1)
    gen = E.level(1)[0]
    a, b = gen.scale(2), gen.scale(-5)
    w = moore_fill(E, 2, 1, {0: b, 2: a})
    assert E.face(w, 0) == b and E.face(w, 2) == a
    assert E.face(w, 1) == a + b


def _random_level(G: MappingComplex, m: int, rng: random.Random) -> Cochain:
    """Random cocycle on base x Delta^m: a coboundary plus a class pulled
    back from the base (every 1-cochain on the circle is closed)."""
    cyl = cylinder(G.base, m)
    w = coboundary(random_cochain(cyl.complex, 0, G.coeffs, rng))
    return w + pullback(cyl.projection, random_cochain(G.base, 1, G.coeffs, rng))


def test_moore_fill_random_horns():
    rng = random.Random(14)
    G = MappingComplex(circle(3), INTEGERS, 1)
    cases = [(m, missing) for m in (2, 3) for missing in range(m + 1)]
    for trial in range(100):
        m, missing = cases[trial % len(cases)]
        w = _random_level(G, m, rng)
        faces = {j: G.face(w, j) for j in range(m + 1) if j != missing}
        filled = moore_fill(G, m, missing, faces)
        for j, x in faces.items():
            assert G.face(filled, j) == x


def test_moore_fill_rejects_bad_horns():
    E = EMSpace(INTEGERS, 1)
    x = E.level(1)[0]
    with pytest.raises(ValueError, match="levels 2 and 3"):
        moore_fill(E, 4, 0, {})
    with pytest.raises(ValueError, match="exactly faces"):
        moore_fill(E, 2, 1, {0: x})
    for missing in (-1, 3):
        with pytest.raises(ValueError, match=f"missing face index {missing} out of range"):
            moore_fill(E, 2, missing, {0: x, 1: x})

    # face identities land in level 0, which is trivial for the circle's
    # mapping complex only at the K-space; over a base they can clash
    G = MappingComplex(circle(3), INTEGERS, 1)
    cyl = cylinder(circle(3), 1)
    u = Cochain(circle(3), 1, INTEGERS, {"e0": 1})
    with pytest.raises(ValueError, match=r"d_1 x_0 != d_0 x_2"):
        moore_fill(G, 2, 1, {0: pullback(cyl.projection, u),
                             2: G.zero(1)})

    # a face off the level complex, of another degree or ring, or not a
    # cochain at all is named before any horn identity is checked
    for G in (E, MappingComplex(circle(3), INTEGERS, 2)):
        below = G.level_complex(1)
        good = G.zero(1)
        bad = [Cochain.zero(below, G.degree() - 1, INTEGERS),
               Cochain.zero(below, G.degree(), Z2),
               Cochain.zero(G.level_complex(2), G.degree(), INTEGERS),
               good.vec, None]
        for x in bad:
            for j in (0, 2):
                with pytest.raises(ValueError, match=rf"^face {j} is not a degree-"):
                    moore_fill(G, 2, 1, {0: good, 2: good, j: x})
        with pytest.raises(ValueError, match="^face 0 "):
            moore_fill(G, 2, 1, {0: bad[1], 2: bad[0]})


def test_an_incompatible_horn_raises_on_every_call():
    G = MappingComplex(circle(3), INTEGERS, 1)
    cyl = cylinder(circle(3), 1)
    u = Cochain(circle(3), 1, INTEGERS, {"e0": 1})
    faces = {0: pullback(cyl.projection, u), 2: G.zero(1)}
    for _ in range(2):
        with pytest.raises(ValueError, match=r"d_1 x_0 != d_0 x_2"):
            moore_fill(G, 2, 1, faces)


def test_a_wrong_ring_face_raises_after_the_same_horn_was_filled():
    rng = random.Random(16)
    G = MappingComplex(circle(3), INTEGERS, 1)
    w = _random_level(G, 2, rng)
    faces = {0: G.face(w, 0), 2: G.face(w, 2)}
    assert G.face(moore_fill(G, 2, 1, faces), 1) == G.face(w, 1)
    for ring in (RATIONALS, Z2):
        wrong = {j: x.map_values(lambda v: v, ring) for j, x in faces.items()}
        with pytest.raises(ValueError, match=r"^face 0 is not a degree-1 Z cochain"):
            moore_fill(G, 2, 1, wrong)


def _fill_outcome(fill, G, m, missing, faces):
    try:
        return fill(G, m, missing, faces).vec
    except ValueError as e:
        return str(e)


_RINGS = {"Z": INTEGERS, "Q": RATIONALS, "Z/3": mod_coefficients(3)}


def _compare_with_reference(G, rng, trials=2):
    """The package's filler against the reference loop on random horns of
    every shape: faces of a random level element, then the same horn with
    one face disturbed, which the two must reject with the same message."""
    for m in (2, 3):
        for missing in range(m + 1):
            for _ in range(trials):
                w = random_cochain(G.level_complex(m), G.degree(), G.coeffs, rng)
                faces = {j: G.face(w, j) for j in range(m + 1) if j != missing}
                got = moore_fill(G, m, missing, faces)
                want = reference_fill.moore_fill(G, m, missing, faces)
                assert got == want
                assert list(map(type, got.vec)) == list(map(type, want.vec))
                assert all(G.face(got, j) == x for j, x in faces.items())
                j = rng.choice(sorted(faces))
                faces[j] = faces[j] + random_cochain(
                    G.level_complex(m - 1), G.degree(), G.coeffs, rng)
                assert (_fill_outcome(moore_fill, G, m, missing, faces)
                        == _fill_outcome(reference_fill.moore_fill, G, m, missing, faces))


@pytest.mark.parametrize("ring", ["Z", "Z/3"])
@pytest.mark.parametrize("n", [1, 2])
def test_compiled_fill_matches_reference_on_em_spaces(n, ring):
    # EMSpace takes integer or finite coefficients only, so no Q here
    _compare_with_reference(EMSpace(_RINGS[ring], n), random.Random(100 + n))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("base", [circle(3), torus(), rp2()],
                         ids=["circle3", "torus", "rp2"])
def test_compiled_fill_matches_reference_on_mapping_complexes(base, n):
    """em.moore_fill against the reference loop on mapping complexes of
    three bases, over Z, Q and Z/3."""
    for ring in _RINGS.values():
        _compare_with_reference(MappingComplex(base, ring, n), random.Random(200 + n))


# -- loop identification ---------------------------------------------------

@pytest.mark.parametrize("fixture,deg", [(circle(3), 1), (torus(), 1),
                                         (torus(), 2)])
def test_e_section_integrates_back(fixture, deg):
    rng = random.Random(15)
    for _ in range(5):
        w = random_cochain(fixture, deg, INTEGERS, rng)
        assert loop_integrate(e_section(w)) == w


def test_e_section_is_end_trivial_and_closed():
    rng = random.Random(16)
    X = torus()
    cyl = cylinder(X, 1)
    i0, i1 = end_inclusions(cyl)
    z = cohomology(X, 1).generators[0] + coboundary(
        random_cochain(X, 0, INTEGERS, rng))
    c = e_section(z)
    assert coboundary(c).is_zero()
    assert pullback(i0, c).is_zero() and pullback(i1, c).is_zero()


def test_loop_integrate_rejects_non_cylinder():
    with pytest.raises(ValueError, match="cylinder"):
        loop_integrate(Cochain.zero(circle(3), 1, INTEGERS))


def test_structure_element_jump_support():
    lower = EMSpace(INTEGERS, 2)
    D1 = standard_simplex(1)
    jump_last = next(b for b in D1.all_simplices(3)
                     if vertex_path(b, 3) == (0, 0, 0, 1))
    early = next(b for b in D1.all_simplices(3)
                 if vertex_path(b, 3) == (0, 1, 1, 1))
    for a in lower.level(3):
        y = structure_element(a, jump_last, 3)
        assert y.complex is standard_simplex(3)
        # the only degree-3 generator of Delta^3 jumps at its last step
        assert set(y.values) <= {(0, 1, 2, 3)}
        assert y.values.get((0, 1, 2, 3), 0) == a.values.get((0, 1, 2), 0)
        # an early jump has p[2] = 1, so nothing is supported
        assert structure_element(a, early, 3).is_zero()


# -- compatibility of the fundamental family -------------------------------

@pytest.mark.parametrize("coeffs,n", [(INTEGERS, 1), (INTEGERS, 2), (Z2, 2)])
def test_iota_family_is_compatible(coeffs, n):
    report = check_iota_compatibility(coeffs, n)
    assert report.ok, report.failures()
    assert report.trials == n + 3
    names = {c.axiom.split(":")[0] for c in report.results}
    assert "loop-identity" in names and "pullback-closed" in names


@pytest.mark.parametrize("coeffs", [INTEGERS, Z2])
def test_scaled_family_is_flagged(coeffs):
    report = check_iota_compatibility(coeffs, 1, scale_upper=2)
    assert not report.ok
    bad = report.failures()
    assert [c.axiom for c in bad] == ["loop-identity:0"]
    assert "element" in bad[0].counterexample["detail"]


def test_iota_report_json_and_truncation():
    report = check_iota_compatibility(INTEGERS, 1, truncation=2)
    data = report.to_json()
    assert data["ok"] is True and data["trials"] == 2
    assert all(set(c) == {"axiom", "ok", "checked"} for c in data["results"])
    with pytest.raises(ValueError):
        check_iota_compatibility(INTEGERS, 0)
