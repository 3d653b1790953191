"""The mapping groupoid: fillers, classes, coherence, the square model."""

import random
from collections import Counter

import pytest

from simdiff import complexes, em, groupoid
from simdiff.cochains import (Cochain, INTEGERS, RATIONALS, coboundary, coboundary_values,
                              mod_coefficients, pullback)
from simdiff.cohomology import (CoboundaryObstruction, cohomology, is_coboundary,
                                solve_relative_coboundary)
from simdiff.complexes import (Simplex, circle, cylinder, identity_map, point, rp2,
                               standard_simplex, torus)
from simdiff.em import MappingComplex
from simdiff.groupoid import (HomotopyClass, Homotopy2, MappingGroupoid,
                              _interior)
from simdiff.moncat import check_coherence

import reference_complexes as ref
import reference_fill
import reference_pins
from dense import kernel_int

Z2 = mod_coefficients(2)


def pt_endomorphism(G, value):
    P = G.maps.level_complex(2)
    gen = P.generators(2)[0]
    u = G.unit()
    return HomotopyClass(Homotopy2(u, u, Cochain(P, 2, G.coeffs, {gen: value})))


# -- validation ------------------------------------------------------------

def test_object_validation():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    f = G.from_cocycle(cohomology(circle(), 1, INTEGERS).generators[0])
    with pytest.raises(ValueError):
        G.object(G.maps.degeneracy(f.integral(), 0))  # ends are f, not zero
    with pytest.raises(ValueError):
        G.object(Cochain.zero(circle(), 1, INTEGERS))  # wrong complex
    with pytest.raises(ValueError):
        G.object(Cochain.zero(cylinder(circle(), 1).complex, 1, INTEGERS))
    with pytest.raises(ValueError):
        G.from_cocycle(Cochain.zero(circle(), 2, INTEGERS))
    with pytest.raises(ValueError):
        MappingGroupoid(circle(), INTEGERS, -1)
    # in degree 0 the object data are 1-cochains on circle x Delta^1
    G0 = MappingGroupoid(circle(), INTEGERS, 0)
    P = G0.maps.level_complex(1)
    with pytest.raises(ValueError, match="must be closed"):
        G0.object(Cochain.indicator(P, ("e0", (), (0, 1), ()), INTEGERS))
    with pytest.raises(ValueError, match="must vanish on both ends"):
        G0.object(G0.maps.degeneracy(Cochain.indicator(circle(), "e0", INTEGERS), 0))


def test_homotopy_validation():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    f = G.from_cocycle(cohomology(circle(), 1, INTEGERS).generators[0])
    u = G.unit()
    with pytest.raises(ValueError):
        Homotopy2(f, u, G.maps.degeneracy(f.data, 1))  # face 1 is f, not u
    other = MappingGroupoid(circle(), INTEGERS, 1)
    with pytest.raises(ValueError, match="different groupoids"):
        Homotopy2(u, other.unit(), G.maps.zero(2))
    with pytest.raises(ValueError, match="level-2 of matching degree"):
        Homotopy2(u, u, u.data)
    with pytest.raises(ValueError, match="level-2 of matching degree"):
        Homotopy2(u, u, Cochain.zero(G.maps.level_complex(2), 1, INTEGERS))
    P = G.maps.level_complex(2)
    with pytest.raises(ValueError, match="must be closed"):
        Homotopy2(u, u, Cochain.indicator(P, P.generators(2)[0], INTEGERS))
    with pytest.raises(ValueError, match="face 2 must restrict to the source"):
        Homotopy2(u, f, G.maps.degeneracy(f.data, 1))  # face 2 is f, not u
    with pytest.raises(ValueError, match="face 0 must vanish"):
        Homotopy2(u, f, G.maps.degeneracy(f.data, 0))  # face 0 is f
    with pytest.raises(ValueError):
        G.compose(G.identity(f), G.identity(u))  # middle objects differ
    with pytest.raises(ValueError):
        G.compare(G.identity(f), G.identity(u))  # not parallel


@pytest.mark.parametrize("coeffs", [INTEGERS, Z2], ids=["Z", "Z/2"])
def test_homotopy_validation_names_each_face(coeffs):
    G = MappingGroupoid(circle(), coeffs, 1)
    f = G.from_cocycle(Cochain(circle(), 1, coeffs, {"e0": 1}))
    u = G.unit()
    with pytest.raises(ValueError, match="face 1 must restrict to the target"):
        Homotopy2(f, u, G.maps.degeneracy(f.data, 1))  # face 1 is f, not u
    with pytest.raises(ValueError, match="face 0 must vanish"):
        Homotopy2(u, f, G.maps.degeneracy(f.data, 0))  # face 0 is f
    with pytest.raises(ValueError, match="face 2 must restrict to the source"):
        Homotopy2(u, f, G.maps.degeneracy(f.data, 1))  # face 2 is f, not u
    # the faces are compared as cochains, ring included
    Q = MappingGroupoid(circle(), RATIONALS, 1)
    fq = Q.object(f.data.map_values(lambda v: v, RATIONALS))
    with pytest.raises(ValueError, match="face 2 must restrict to the source"):
        Homotopy2(fq, fq, G.maps.degeneracy(f.data, 1))


def test_data_closed_mod_k_is_accepted():
    """Closedness is read mod k: over Z/2 an object or homotopy whose
    unreduced coboundary is even and nonzero is valid."""
    G = MappingGroupoid(torus(), Z2, 1)
    rng = random.Random(21)
    data = next(d for d in (G._edge_coboundary(rng) for _ in range(20))
                if any(coboundary_values(d)))
    f = G.object(data)
    s1f = G.maps.degeneracy(data, 1)
    assert any(coboundary_values(s1f))
    assert Homotopy2(f, f, s1f).data == s1f


# -- loops on the point ----------------------------------------------------

def test_point_composite_integral_adds():
    G = MappingGroupoid(point(), INTEGERS, 1)
    a, b = pt_endomorphism(G, 3), pt_endomorphism(G, 5)
    assert a.integral().values == {"*": 3}
    assert G.compose(a, b).integral().values == {"*": 8}
    assert G.same_class(G.compose(a, G.inverse(a)), G.identity(G.unit()))


def test_point_distinct_classes_certified():
    G = MappingGroupoid(point(), INTEGERS, 1)
    a, b = pt_endomorphism(G, 3), pt_endomorphism(G, 5)
    assert not G.same_class(a, b)
    got = G.compare(a, b)
    assert not got.equal
    assert got.obstruction is not None
    assert G.verify_obstruction(a, b, got.obstruction)
    assert got.to_json()["obstruction"]["ring"] == got.obstruction.ring
    assert not full_solve_agrees(G, a, b)


def test_point_rational_obstruction():
    G = MappingGroupoid(point(), RATIONALS, 1)
    a, b = pt_endomorphism(G, 3), pt_endomorphism(G, 5)
    got = G.compare(a, b)
    assert not got.equal and got.obstruction.ring == "Q"
    assert G.verify_obstruction(a, b, got.obstruction)


# -- frozen filler formulas ------------------------------------------------

def test_sum_witness_faces_and_data():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(1)
    f, g = G.random_object(rng), G.random_object(rng)
    total, sigma = G.oplus_objects(f, g)
    M = G.maps
    assert sigma == M.degeneracy(g.data, 0) + M.degeneracy(f.data, 1)
    assert M.face(sigma, 2) == f.data
    assert M.face(sigma, 0) == g.data
    assert M.face(sigma, 1) == total.data == f.data + g.data


def test_compose_and_inverse_data():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(2)
    f = G.random_object(rng)
    h1 = G.random_morphism(f, rng)
    h2 = G.random_morphism(h1.target, rng)
    M = G.maps
    comp = G.compose(h1, h2)
    assert comp.rep.data == h1.rep.data + h2.rep.data - M.degeneracy(h1.target.data, 1)
    assert (comp.source, comp.target) == (f, h2.target)
    inv = G.inverse(h1)
    assert inv.rep.data == (M.degeneracy(f.data, 1)
                            + M.degeneracy(h1.target.data, 1) - h1.rep.data)
    assert (inv.source, inv.target) == (h1.target, f)


def test_structural_cell_data():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(3)
    a, b, c = (G.random_object(rng) for _ in range(3))
    M = G.maps
    lam, rho, alpha = G.left_unitor(a), G.right_unitor(a), G.associator(c, b, a)
    assert lam.rep.data == rho.rep.data == M.degeneracy(a.data, 1)
    assert lam.source.data == a.data and lam.target is a
    assert alpha.rep.data == M.degeneracy(a.data + b.data + c.data, 1)
    assert alpha.source.data == alpha.target.data == a.data + b.data + c.data
    gamma = G.braid(a, b)
    assert gamma.rep.data == M.degeneracy(a.data + b.data, 1)
    assert gamma.source.data == gamma.target.data == a.data + b.data


def test_sum_of_morphisms_is_data_sum():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(4)
    f0, f1 = G.random_object(rng), G.random_object(rng)
    h0, h1 = G.random_morphism(f0, rng), G.random_morphism(f1, rng)
    both = G.oplus_morphisms(h0, h1)
    assert both.rep.data == h0.rep.data + h1.rep.data
    assert both.source.data == f0.data + f1.data
    assert both.target.data == h0.target.data + h1.target.data
    ids = G.oplus_morphisms(G.identity(f0), G.identity(f1))
    assert ids.rep.data == G.identity(G.oplus_objects(f0, f1)[0]).rep.data


def test_sum_with_inverse_gives_braid_data():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(5)
    f = G.random_object(rng)
    h = G.random_morphism(f, rng)
    pair = G.oplus_morphisms(h, G.inverse(h))
    assert pair.rep.data == G.maps.degeneracy(f.data + h.target.data, 1)


# -- groupoid laws ---------------------------------------------------------

def test_identity_laws_and_associativity():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(6)
    f = G.random_object(rng)
    h1 = G.random_morphism(f, rng)
    h2 = G.random_morphism(h1.target, rng)
    h3 = G.random_morphism(h2.target, rng)
    assert G.compose(G.identity(f), h1).rep.data == h1.rep.data
    assert G.compose(h1, G.identity(h1.target)).rep.data == h1.rep.data
    left = G.compose(G.compose(h1, h2), h3)
    right = G.compose(h1, G.compose(h2, h3))
    assert left.rep.data == right.rep.data
    assert G.same_class(G.compose(h1, G.inverse(h1)), G.identity(f))
    assert G.same_class(G.compose(G.inverse(h1), h1), G.identity(h1.target))


def test_interchange_both_orders():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(7)
    f0, f1 = G.random_object(rng), G.random_object(rng)
    h = G.random_morphism(f0, rng)
    k = G.random_morphism(f1, rng)
    first = G.compose(G.oplus_morphisms(h, G.identity(f1)),
                      G.oplus_morphisms(G.identity(h.target), k))
    second = G.compose(G.oplus_morphisms(G.identity(f0), k),
                       G.oplus_morphisms(h, G.identity(k.target)))
    assert first.rep.data == h.rep.data + k.rep.data == second.rep.data
    got = G.compare(first, second)
    assert got.equal and G.verify_witness(first, second, got.witness)
    # a witness off level 3, off the mapping complex or of another degree
    W = got.witness
    assert not G.verify_witness(first, second, first.rep.data)
    assert not G.verify_witness(first, second, Cochain.zero(torus(), 2, INTEGERS))
    assert not G.verify_witness(first, second, Cochain.zero(W.complex, 1, INTEGERS))


def test_unit_unitors_coincide():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    u = G.unit()
    assert G.left_unitor(u).rep.data == G.right_unitor(u).rep.data
    uu, sigma = G.oplus_objects(u, u)
    assert uu.data.is_zero() and sigma.is_zero()


def test_unit_braiding_is_unitor_conjugate():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(8)
    f = G.random_object(rng)
    gamma = G.braid(f, G.unit())
    conj = G.compose(G.right_unitor(f), G.inverse(G.left_unitor(f)))
    assert G.same_class(gamma, conj)


# -- coherence, seeded -----------------------------------------------------

def pentagon_holds(G, a, b, c, d):
    ab = G.oplus_objects(a, b)[0]
    cd = G.oplus_objects(c, d)[0]
    bc = G.oplus_objects(b, c)[0]
    one = G.compose(G.compose(G.oplus_morphisms(G.associator(a, b, c), G.identity(d)),
                              G.associator(a, bc, d)),
                    G.oplus_morphisms(G.identity(a), G.associator(b, c, d)))
    two = G.compose(G.associator(ab, c, d), G.associator(a, b, cd))
    return G.same_class(one, two)


def triangle_holds(G, a, b):
    lhs = G.compose(G.associator(a, G.unit(), b),
                    G.oplus_morphisms(G.identity(a), G.left_unitor(b)))
    rhs = G.oplus_morphisms(G.right_unitor(a), G.identity(b))
    return G.same_class(lhs, rhs)


def hexagon_holds(G, a, b, c):
    bc = G.oplus_objects(b, c)[0]
    one = G.compose(G.compose(G.associator(a, b, c), G.braid(a, bc)),
                    G.associator(b, c, a))
    two = G.compose(G.compose(G.oplus_morphisms(G.braid(a, b), G.identity(c)),
                              G.associator(b, a, c)),
                    G.oplus_morphisms(G.identity(b), G.braid(a, c)))
    return G.same_class(one, two)


def test_triangle_and_pentagon_25_samples():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(9)
    for _ in range(25):
        a, b, c, d = (G.random_object(rng) for _ in range(4))
        assert triangle_holds(G, a, b)
        assert pentagon_holds(G, a, b, c, d)


def test_braid_squares_to_identity_25_samples():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(10)
    for _ in range(25):
        a, b = G.random_object(rng), G.random_object(rng)
        ab = G.oplus_objects(a, b)[0]
        round_trip = G.compose(G.braid(a, b), G.braid(b, a))
        assert G.same_class(round_trip, G.identity(ab))


def test_hexagon_10_samples():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(11)
    for _ in range(10):
        a, b, c = (G.random_object(rng) for _ in range(3))
        assert hexagon_holds(G, a, b, c)


def test_naturality_by_conjugation():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(12)
    for _ in range(5):
        a0, a1, a2 = (G.random_object(rng) for _ in range(3))
        h0 = G.random_morphism(a0, rng)
        h1 = G.random_morphism(a1, rng)
        h2 = G.random_morphism(a2, rng)
        b0, b1, b2 = h0.target, h1.target, h2.target
        # braid
        lhs = G.compose(G.oplus_morphisms(h0, h1), G.braid(b0, b1))
        rhs = G.compose(G.braid(a0, a1), G.oplus_morphisms(h1, h0))
        assert G.same_class(lhs, rhs)
        # associator
        lhs = G.compose(G.associator(a0, a1, a2),
                        G.oplus_morphisms(h0, G.oplus_morphisms(h1, h2)))
        rhs = G.compose(G.oplus_morphisms(G.oplus_morphisms(h0, h1), h2),
                        G.associator(b0, b1, b2))
        assert G.same_class(lhs, rhs)
        # unitors
        assert G.same_class(
            G.compose(G.left_unitor(a0), h0),
            G.compose(G.oplus_morphisms(G.identity(G.unit()), h0),
                      G.left_unitor(b0)))
        assert G.same_class(
            G.compose(G.right_unitor(a0), h0),
            G.compose(G.oplus_morphisms(h0, G.identity(G.unit())),
                      G.right_unitor(b0)))


def test_torus_coherence_smoke():
    G = MappingGroupoid(torus(), INTEGERS, 1)
    rng = random.Random(13)
    a, b = G.random_object(rng), G.random_object(rng)
    h = G.random_morphism(a, rng)
    assert G.same_class(G.compose(h, G.inverse(h)), G.identity(a))
    assert triangle_holds(G, a, b)
    assert G.strictness_report().result("sum-is-data-sum").ok


# -- perturbed fillers -----------------------------------------------------

def test_perturbation_moves_representatives_not_classes():
    plain = MappingGroupoid(circle(), INTEGERS, 2)
    noisy = MappingGroupoid(circle(), INTEGERS, 2, perturb=random.Random(40))
    rng = random.Random(14)
    f = plain.random_object(rng)
    h = plain.random_morphism(f, rng)
    h2 = HomotopyClass(Homotopy2(noisy.object(f.data),
                                 noisy.object(h.target.data), h.rep.data))
    inv_plain = plain.inverse(h)
    inv_noisy = noisy.inverse(h2)
    assert inv_plain.rep.data != inv_noisy.rep.data
    assert (inv_noisy.source.data, inv_noisy.target.data) == \
        (inv_plain.source.data, inv_plain.target.data)
    cast = HomotopyClass(Homotopy2(h.target, f, inv_noisy.rep.data))
    assert plain.same_class(inv_plain, cast)
    assert noisy.same_class(noisy.compose(h2, inv_noisy), noisy.identity(h2.source))


def test_perturbed_coherence_outcomes_match():
    noisy = MappingGroupoid(circle(), INTEGERS, 2, perturb=random.Random(41))
    rng = random.Random(15)
    for _ in range(3):
        a, b = noisy.random_object(rng), noisy.random_object(rng)
        assert triangle_holds(noisy, a, b)
        ab = noisy.oplus_objects(a, b)[0]
        assert noisy.same_class(
            noisy.compose(noisy.braid(a, b), noisy.braid(b, a)),
            noisy.identity(ab))
    a, b, c, d = (noisy.random_object(rng) for _ in range(4))
    assert pentagon_holds(noisy, a, b, c, d)


@pytest.mark.parametrize("n,draws", [(1, False), (2, True)])
def test_compose_draws_perturbation_only_above_degree_1(n, draws):
    """A degree-1 level-3 fill has no eligible generator, so compose leaves
    the perturbation Random untouched; in degree 2 it draws."""
    noisy = MappingGroupoid(circle(), INTEGERS, n, perturb=random.Random(42))
    rng = random.Random(16)
    f = noisy.random_object(rng)
    h = noisy.random_morphism(f, rng)
    k = noisy.random_morphism(h.target, rng)
    before = noisy.perturb.getstate()
    composite = noisy.compose(h, k)
    assert (noisy.perturb.getstate() != before) == draws
    assert (composite.source, composite.target) == (f, k.target)


def _cells(G, rng):
    """Arguments for every structural operation, drawn from rng alone."""
    a, b, c = (G.random_object(rng) for _ in range(3))
    h = G.random_morphism(a, rng)
    k = G.random_morphism(h.target, rng)
    l = G.random_morphism(b, rng)
    return {"compose": (h, k), "inverse": (h,), "oplus_morphisms": (h, l),
            "left_unitor": (a,), "right_unitor": (b,), "associator": (a, b, c),
            "braid": (a, b), "from_square": (G.to_square(k),)}


def _assert_cells_match_the_fill_recipes(X, coeffs, n, seed, perturbed):
    """Each operation's representative, its value types and the state it
    leaves the perturbation Random in equal the fill recipes'."""
    def make(cls):
        return cls(X, coeffs, n, perturb=random.Random(seed) if perturbed else None)
    G, F = make(MappingGroupoid), make(reference_fill.FillGroupoid)
    want_args = _cells(F, random.Random(seed + 100))
    for name, args in _cells(G, random.Random(seed + 100)).items():
        before = G.perturb.getstate() if perturbed else None
        got = getattr(G, name)(*args)
        want = getattr(F, name)(*want_args[name])
        assert got.rep.data == want.rep.data, name
        assert list(map(type, got.rep.data.vec)) == list(map(type, want.rep.data.vec)), name
        if perturbed:
            assert G.perturb.getstate() == F.perturb.getstate(), name
            assert (G.perturb.getstate() != before) == (n >= 2), name


@pytest.mark.parametrize("coeffs", [INTEGERS, mod_coefficients(3)], ids=["Z", "Z/3"])
@pytest.mark.parametrize("seed", [43, 44, 45])
def test_face_only_fills_perturb_like_the_whole_filler(seed, coeffs):
    """Every level-3 cell is the one face an operation reads, in closed
    form; it equals filling the whole level-3 horn, perturbing it and
    reading that face, and draws what that drew."""
    _assert_cells_match_the_fill_recipes(circle(3), coeffs, 2, seed, True)


@pytest.mark.parametrize("perturbed", [False, True], ids=["plain", "perturbed"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("coeffs", [INTEGERS, mod_coefficients(3)], ids=["Z", "Z/3"])
@pytest.mark.parametrize("base", ["circle3", "torus", "rp2"])
def test_closed_form_cells_match_the_fill_recipes(base, coeffs, n, perturbed):
    X = {"circle3": circle(3), "torus": torus(), "rp2": rp2()}[base]
    _assert_cells_match_the_fill_recipes(X, coeffs, n, 7, perturbed)


@pytest.mark.parametrize("coeffs", [INTEGERS, mod_coefficients(3)], ids=["Z", "Z/3"])
def test_closed_form_cells_keep_the_perturbed_battery(coeffs):
    """The closed forms give the coherence report, and leave the
    perturbation Random in the state, that the fill recipes give, in
    degree 2 where every level-3 cell draws."""
    def battery(cls):
        G = cls(circle(3), coeffs, 2, perturb=random.Random(48))
        report = check_coherence(G.as_instance(), trials=2, seed=48)
        return report.to_json(), G.perturb.getstate()

    got = battery(MappingGroupoid)
    assert got[0]["ok"]
    assert battery(reference_fill.FillGroupoid) == got


@pytest.mark.parametrize("n", [1, 2])
def test_a_coherence_round_fills_no_horn(n, monkeypatch):
    """Every structural cell is written out in closed form: a round calls
    no horn filler."""
    fills = []
    real = em.moore_fill

    def counting(*args, **kwargs):
        fills.append(args[1:3])
        return real(*args, **kwargs)
    monkeypatch.setattr(em, "moore_fill", counting)
    G = MappingGroupoid(circle(3), INTEGERS, n, perturb=random.Random(7))
    assert check_coherence(G.as_instance(), trials=1, seed=7).ok
    assert fills == []
    assert not hasattr(groupoid, "moore_fill")


_FOREIGN = {"another base": (circle(4), INTEGERS, 1),
            "another ring": (circle(3), mod_coefficients(3), 1),
            "another degree": (circle(3), INTEGERS, 0),
            "another instance": (circle(3), INTEGERS, 1)}


@pytest.mark.parametrize("foreign", sorted(_FOREIGN))
def test_every_operation_rejects_a_foreign_argument(foreign):
    """An object, morphism or square from a groupoid over another base,
    ring or degree raises ValueError in every operation, in any position.
    So do the objects and morphisms of a second groupoid over the same
    base, ring and degree, as in Homotopy2, though they carry the same
    data as this one's."""
    G = MappingGroupoid(circle(3), INTEGERS, 1)
    H = MappingGroupoid(*_FOREIGN[foreign])
    own, other = _cells(G, random.Random(3)), _cells(H, random.Random(3))
    for cells in (own, other):
        cells["oplus_objects"], cells["identity"] = cells["braid"], cells["left_unitor"]
    if foreign == "another instance":
        # square data is a cochain on the shared square complex, not a cell
        assert G.from_square(*other.pop("from_square")).groupoid is G
        del own["from_square"]
        assert own["left_unitor"] == other["left_unitor"]
    for name, args in own.items():
        for i in range(len(args)):
            mixed = args[:i] + (other[name][i],) + args[i + 1:]
            with pytest.raises(ValueError):
                getattr(G, name)(*mixed)
    # data of another ring on this groupoid's complex is not an object of it
    if foreign == "another ring":
        with pytest.raises(ValueError, match="Z coefficients"):
            G.object(other["left_unitor"][0].data)


def test_public_homotopy_revalidates_data_the_memo_holds():
    """The memo serves the groupoid's own operations only: Homotopy2 and
    MapObject check every call, so memoized data with a wrong target is
    still refused, and an operation repeated returns the cell it built."""
    G = MappingGroupoid(circle(3), INTEGERS, 1, perturb=random.Random(5))
    rng = random.Random(5)
    f = G.random_object(rng)
    g = next(o for o in (G.random_object(rng) for _ in range(20)) if o != f)
    unitor = G.left_unitor(f)
    assert G.left_unitor(f).rep is unitor.rep
    assert any(cell is unitor.rep for cell in G._cells.values())
    with pytest.raises(ValueError, match="face 1 must restrict to the target"):
        Homotopy2(unitor.source, g, unitor.rep.data)
    held = G.unit().data
    assert G._cells[held] is G.unit()
    assert G.object(held) is not G.unit()


def test_a_coherence_round_validates_each_distinct_cell_once(monkeypatch):
    """Past the samplers, which validate through the public constructors,
    each object or homotopy a round's operations make passes the full
    checks once: the closedness tests read each memo key's data once."""
    tested, sampled = [], []
    real = groupoid.is_closed

    def spy(c):
        tested.append(c)
        return real(c)
    monkeypatch.setattr(groupoid, "is_closed", spy)
    G = MappingGroupoid(circle(12), INTEGERS, 1, perturb=random.Random(7))
    sample_object, sample_morphism = G.random_object, G.random_morphism

    def random_object(rng):
        f = sample_object(rng)
        sampled.append(f.data)
        return f

    def random_morphism(source, rng):
        h = sample_morphism(source, rng)
        sampled.extend((h.target.data, h.rep.data))
        return h
    G.random_object, G.random_morphism = random_object, random_morphism
    assert check_coherence(G.as_instance(), trials=1, seed=7).ok
    memo = Counter(key if isinstance(key, Cochain) else key[0] for key in G._cells)
    assert sampled and set(memo.values()) == {1}
    assert Counter(tested) == Counter(sampled) + memo


def test_the_cell_memo_stays_within_its_bound(monkeypatch):
    """Many rounds on one groupoid clear the memo when it is full instead
    of letting it grow, and the rounds still pass."""
    monkeypatch.setattr(groupoid, "_CELL_MEMO_SIZE", 16)

    class Watched(dict):
        peak = clears = 0

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            Watched.peak = max(Watched.peak, len(self))

        def clear(self):
            Watched.clears += 1
            super().clear()

    G = MappingGroupoid(circle(3), INTEGERS, 1, perturb=random.Random(9))
    G._cells = Watched()
    for seed in range(4):
        assert check_coherence(G.as_instance(), trials=1, seed=seed).ok
        assert len(G._cells) <= 16
    assert Watched.peak == 16 and Watched.clears >= 4


def test_degree_1_coherence_reads_no_level_3_face(monkeypatch):
    """Structural cells are read as faces of level-3 horns, evaluated
    alone, so a coherence battery never takes a face of a level-3 element."""
    levels = []
    real = MappingComplex.face

    def counting(self, z, i):
        levels.append(self.element_level(z))
        return real(self, z, i)

    monkeypatch.setattr(MappingComplex, "face", counting)
    G = MappingGroupoid(circle(3), INTEGERS, 1, perturb=random.Random(46))
    assert check_coherence(G.as_instance(), trials=1, seed=46).ok
    assert levels and 3 not in levels


def test_a_degree_one_round_reads_the_level_maps_in_degree_two_only():
    # a circle of its own, so that no other test has read its maps
    X = complexes._circle.__wrapped__(3)
    G = MappingGroupoid(X, INTEGERS, 1)
    assert check_coherence(G.as_instance(), trials=1).ok
    M = G.maps
    level_maps = ([M.face_map(m, i) for m in (1, 2, 3) for i in range(m + 1)]
                  + [M.degeneracy_map(m, j) for m in (0, 1, 2) for j in range(m + 1)])
    read = set()
    for f in level_maps:
        assert "images" not in vars(f), f.name
        tables = {key for key in vars(f).get("_cache", {}) if key[0] == "pullback"}
        assert tables <= {("pullback", 2)}, f.name
        read |= tables
    assert read == {("pullback", 2)}


# -- the class oracle against the full solve -------------------------------

def closed_interior_basis(X, q):
    """Integral basis of the closed interior q-cochains on X x Delta^2."""
    P = cylinder(X, 2).complex
    cols = [g for g in P.generators(q) if _interior(g, 2)]
    cid = {g: j for j, g in enumerate(cols)}
    rows = []
    for g in P.generators(q + 1):
        if not _interior(g, 2):
            continue
        row = [0] * len(cols)
        s = Simplex(g)
        for i in range(q + 2):
            fc = P.face(s, i)
            if not fc.word and fc.gen in cid:
                row[cid[fc.gen]] += -1 if i % 2 else 1
        rows.append(row)
    if rows:
        basis = kernel_int(rows)
    else:
        basis = [[1 if i == j else 0 for i in range(len(cols))]
                 for j in range(len(cols))]
    return P, cols, basis


def full_solve_agrees(G, c0, c1):
    """Class equality by the pinned extension problem on X x Delta^3."""
    M = G.maps
    res = reference_pins.solve_faces(cylinder(G.base, 3),
                                     {0: c1.rep.data, 1: c0.rep.data,
                                      2: M.degeneracy(c0.target.data, 0),
                                      3: M.degeneracy(c0.source.data, 0)}, G.coeffs)
    return isinstance(res, Cochain)


@pytest.mark.parametrize("coeffs", [INTEGERS, Z2])
def test_oracle_matches_pinned_solve(coeffs):
    G = MappingGroupoid(circle(), coeffs, 2)
    rng = random.Random(16)
    f = G.random_object(rng)
    h = G.random_morphism(f, rng)
    P, cols, basis = closed_interior_basis(circle(), 3)
    shifts = list(basis)
    for _ in range(3):
        shifts.append([sum(rng.randint(-1, 1) * vec[j] for vec in basis)
                       for j in range(len(cols))])
    verdicts = set()
    for vec in shifts:
        vals = {g: v for g, v in zip(cols, vec) if v}
        D = Cochain(P, 3, coeffs, vals)
        other = HomotopyClass(Homotopy2(h.source, h.target, h.rep.data + D))
        verdict = G.same_class(h, other)
        assert verdict == full_solve_agrees(G, h, other)
        verdicts.add(verdict)
        got = G.compare(h, other)
        assert got.equal == verdict
        if got.equal:
            assert G.verify_witness(h, other, got.witness)
        elif got.obstruction is not None and got.obstruction.functional:
            assert G.verify_obstruction(h, other, got.obstruction)
    # some basis vector must represent a nonzero relative class: H^1 != 0
    assert False in verdicts


@pytest.mark.parametrize("coeffs", [INTEGERS, RATIONALS, Z2, mod_coefficients(3)])
def test_verify_obstruction_accepts_every_genuine_certificate(coeffs):
    G = MappingGroupoid(circle(3), coeffs, 2)
    rng = random.Random(23)
    h = G.random_morphism(G.random_object(rng), rng)
    P, cols, basis = closed_interior_basis(circle(3), 3)
    found = 0
    for vec in basis:
        D = Cochain(P, 3, coeffs, {g: v for g, v in zip(cols, vec) if v})
        other = HomotopyClass(Homotopy2(h.source, h.target, h.rep.data + D))
        got = G.compare(h, other)
        if not got.equal:
            assert G.verify_obstruction(h, other, got.obstruction), got.obstruction.ring
            found += 1
    assert found


@pytest.mark.parametrize("k, m", [(2, 3), (3, 2)])
def test_verify_obstruction_reads_the_certificate_sense(k, m):
    # f and f o id are equal, and their difference is a coboundary over
    # Z/k; its lift to Z is not one over Q, so the base solve refutes the
    # lift in the sense "Q", which refutes nothing over Z/k.  Scaled so it
    # pairs with the difference to 1/m, that functional is blind on every
    # coboundary but not on k times every unit cochain, so it fails as a
    # "Z/k" certificate too.
    refuted = 0
    for seed in range(5):
        G = MappingGroupoid(circle(3), mod_coefficients(k), 2, perturb=random.Random(seed))
        rng = random.Random(seed)
        f = G.random_morphism(G.random_object(rng), rng)
        g = G.compose(f, G.identity(f.target))
        assert G.same_class(f, g)
        lifted = (g.rep.data - f.rep.data).map_values(int, INTEGERS)
        ob = solve_relative_coboundary(lifted, cylinder(G.base, 2))
        if isinstance(ob, CoboundaryObstruction):
            assert ob.ring == "Q"
            assert not G.verify_obstruction(f, g, ob)
            w = 1 / (m * ob.pairing(lifted))
            scaled = CoboundaryObstruction({x: v * w for x, v in ob.functional.items()},
                                           f"Z/{k}")
            assert scaled.refutes(g.rep.data - f.rep.data)
            assert not G.verify_obstruction(f, g, scaled)
            refuted += 1
    assert refuted >= 3


def test_oracle_accepts_interior_coboundaries():
    G = MappingGroupoid(circle(), INTEGERS, 2)
    rng = random.Random(17)
    f = G.random_object(rng)
    h = G.random_morphism(f, rng)
    P = cylinder(circle(), 2).complex
    vals = {g: rng.randint(-2, 2) for g in P.generators(2) if _interior(g, 2)}
    shifted = HomotopyClass(Homotopy2(
        h.source, h.target,
        h.rep.data + coboundary(Cochain(P, 2, INTEGERS, vals))))
    assert G.same_class(h, shifted)
    got = G.compare(h, shifted)
    assert got.equal and G.verify_witness(h, shifted, got.witness)
    assert full_solve_agrees(G, h, shifted)


def test_witness_rejects_wrong_pairs():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(18)
    f = G.random_object(rng)
    h = G.random_morphism(f, rng)
    k = G.random_morphism(f, rng)
    good = G.compare(h, h).witness
    assert G.verify_witness(h, h, good)
    assert h.rep.data != k.rep.data
    assert not G.verify_witness(h, k, good)


# -- rationals and torsion coefficients ------------------------------------

def test_rational_groupoid_runs():
    G = MappingGroupoid(circle(), RATIONALS, 2)
    rng = random.Random(19)
    f = G.random_object(rng)
    h = G.random_morphism(f, rng)
    assert G.same_class(G.compose(h, G.inverse(h)), G.identity(f))
    assert triangle_holds(G, f, h.target)


def test_mod2_groupoid_runs():
    G = MappingGroupoid(circle(), Z2, 1)
    rng = random.Random(20)
    f, g = G.random_object(rng), G.random_object(rng)
    h = G.random_morphism(f, rng)
    assert G.same_class(G.compose(h, G.inverse(h)), G.identity(f))
    assert triangle_holds(G, f, g)
    total, _ = G.oplus_objects(f, f)
    assert total.data == f.data + f.data


# -- integrals -------------------------------------------------------------

def test_from_cocycle_round_trip_and_additivity():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    gen = cohomology(circle(), 1, INTEGERS).generators[0]
    f = G.from_cocycle(gen)
    assert f.integral() == gen
    rng = random.Random(21)
    g = G.random_object(rng)
    total, _ = G.oplus_objects(f, g)
    assert total.integral() == f.integral() + g.integral()


def test_morphism_integral_shifts_by_exact_terms_only():
    G = MappingGroupoid(circle(), INTEGERS, 2)
    rng = random.Random(22)
    f = G.random_object(rng)
    h = G.random_morphism(f, rng)
    P = cylinder(circle(), 2).complex
    vals = {g: rng.randint(-2, 2) for g in P.generators(2) if _interior(g, 2)}
    shifted = HomotopyClass(Homotopy2(
        h.source, h.target,
        h.rep.data + coboundary(Cochain(P, 2, INTEGERS, vals))))
    assert is_coboundary(shifted.integral() - h.integral())


# -- the square model ------------------------------------------------------

@pytest.mark.parametrize("base", [point(), circle()])
def test_square_model_maps_are_simplicial(base):
    G = MappingGroupoid(base, INTEGERS, 1)
    for m in G._square_maps():
        m.check()


def test_square_round_trip_and_faces():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(23)
    f = G.random_object(rng)
    h = G.random_morphism(f, rng)
    K = G.to_square(h)
    assert coboundary(K).is_zero()
    bottom, top, near, far = G.square_faces(K)
    assert bottom == f.data and top == h.target.data
    assert near.is_zero() and far.is_zero()
    assert G.same_class(G.from_square(K), h)


def test_square_faces_reuse_the_cached_maps(monkeypatch):
    # the side faces are the cylinder maps of the end inclusions, read from
    # their owners' caches, not a product_map rebuilt on every call
    G = MappingGroupoid(circle(), INTEGERS, 1)
    rng = random.Random(26)
    K = G.to_square(G.random_morphism(G.random_object(rng), rng))
    used = []

    def spy(f, c):
        used.append(f)
        return pullback(f, c)
    monkeypatch.setattr(groupoid, "pullback", spy)
    first = G.square_faces(K)
    assert G.square_faces(K) == first
    assert len(used) == 8 and all(a is b for a, b in zip(used[:4], used[4:]))
    inner, sq = cylinder(circle(), 1), G._square()
    one = identity_map(standard_simplex(1))
    for i, f in zip((1, 0), used[2:4]):
        assert f is inner.face_inclusion(i).cylinder_map(1)
        assert f == ref.product_map(inner.complex, sq.complex, inner.face_inclusion(i), one)


def test_square_integral_is_minus_triangle_integral():
    G1 = MappingGroupoid(point(), INTEGERS, 1)
    h1 = pt_endomorphism(G1, 4)
    assert G1.square_integral(G1.to_square(h1)) == h1.integral().scale(-1)
    G2 = MappingGroupoid(circle(), INTEGERS, 2)
    rng = random.Random(24)
    h2 = G2.random_morphism(G2.random_object(rng), rng)
    assert G2.square_integral(G2.to_square(h2)) == h2.integral().scale(-1)


def test_square_perturbation_preserves_class():
    G = MappingGroupoid(circle(), INTEGERS, 2)
    rng = random.Random(25)
    f = G.random_object(rng)
    h = G.random_morphism(f, rng)
    K = G.to_square(h)
    S = G._square().complex
    vals = {}
    for g in S.generators(2):
        (gx, wx, ga, wa), wA, gb, wb = g
        if len(ga) == 2 and len(gb) == 2:
            v = rng.randint(-2, 2)
            if v:
                vals[g] = v
    K2 = K + coboundary(Cochain(S, 2, INTEGERS, vals))
    assert K2 != K
    bottom, top, near, far = G.square_faces(K2)
    assert bottom == f.data and top == h.target.data
    assert near.is_zero() and far.is_zero()
    assert G.same_class(G.from_square(K2), h)


def test_from_square_validates_input():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    S = G._square().complex
    gen = next(g for g in S.generators(2)
               if not coboundary(Cochain.indicator(S, g, INTEGERS)).is_zero())
    with pytest.raises(ValueError):
        G.from_square(Cochain.indicator(S, gen, INTEGERS))


# -- instance surface ------------------------------------------------------

def test_instance_adapter_wires_operations():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    inst = G.as_instance()
    rng = random.Random(26)
    a, b = inst.sample_objects(rng, 2)
    assert inst.oplus(a, b).data == a.data + b.data
    h = inst.random_morphism(rng, a)
    assert inst.source(h) == a
    assert inst.target(h) == h.target
    assert inst.eq(inst.compose(h, inst.inverse(h)), inst.identity(a))
    assert inst.unit.data.is_zero()
    assert "maps(circle" in inst.name


def test_strictness_report_all_true():
    G = MappingGroupoid(circle(), INTEGERS, 1)
    assert G.strictness_report().ok
