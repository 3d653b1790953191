"""Arrow-level refinement, comparison functors, and the additivity cell."""

import json
import random
from fractions import Fraction

import pytest

from simdiff.character import CharacterModel, rational_form
from simdiff.cochains import Cochain, INTEGERS, RATIONALS, coboundary
from simdiff.cohomology import CoboundaryObstruction, cohomology
from simdiff.complexes import build_standard, circle, point, rp2, torus
from simdiff.diffhat import HatTheory, _random_form
from simdiff.refine import (
    ModelComparison,
    TildeMorphism,
    build_tilde,
    canonical_comparison,
    check_equivalence,
    derive_B,
    identity_comparison,
    with_cell_defect,
)

IDENTITIES = ["cocycle", "symmetry", "units"]
CHECK_NAMES = ["objects-respected", "fully-faithful", "fully-faithful:lattice",
               "essentially-surjective", "monoidal-cells",
               *(f"monoidal-cells:{name}" for name in IDENTITIES)]


@pytest.mark.parametrize("model, build, n", [
    ("plain", lambda: circle(3), 1), ("sheared", torus, 2), ("plain", rp2, 2),
    ("halved", lambda: circle(3), 1), ("halved", point, 1)])
def test_unit_lifts_to_zero_without_a_baseline(model, build, n):
    # the unit's faces pin zero, so its filler is zero and so is its lift
    G = build_tilde(build(), n, CharacterModel(model))
    T = G.theory
    unit = T.groupoid.unit()
    assert T.homotopies(unit, unit).is_zero()
    assert G.lift(T.zero()).is_zero()


def test_hom_and_automorphisms():
    G = build_tilde(circle(3), 1)
    T = G.theory
    # the zero class maps to itself by the zero datum alone
    loop = G.hom(G.zero(), G.zero())
    assert isinstance(loop, TildeMorphism) and loop.form.is_zero()
    basis = G.automorphism_basis()
    assert len(basis) == 1
    for g in basis:
        assert G.verify(TildeMorphism(G.zero(), G.zero(), g)).equal
    # arrows exist exactly when the integral classes match
    gen = cohomology(T.base, 1, INTEGERS).generators[0]
    assert isinstance(G.hom(G.zero(), T.from_cocycle(gen)), CoboundaryObstruction)
    rng = random.Random(4)
    x = G.random_object(rng)
    y = T.add(x, T.from_form(_random_form(T, rng)))
    m = G.hom(x, y)
    assert isinstance(m, TildeMorphism)
    assert G.verify(m).equal


def test_compose_inverse_oplus():
    G = build_tilde(circle(3), 1)
    T = G.theory
    rng = random.Random(8)
    x = G.random_object(rng)
    y = T.add(x, T.from_form(_random_form(T, rng)))
    z = T.add(y, T.from_form(_random_form(T, rng)))
    m1, m2 = G.hom(x, y), G.hom(y, z)
    both = G.compose(m1, m2)
    assert both.form == m1.form + m2.form
    assert T.eq(both.source, x) and T.eq(both.target, z)
    assert G.verify(both).equal
    round_trip = G.compose(m1, G.inverse(m1))
    assert G.parallel(round_trip, G.identity(x))
    with pytest.raises(ValueError):
        G.compose(m2, m1)  # endpoints do not abut
    s = G.oplus(m1, m2)
    assert T.eq(s.source, T.add(x, y)) and T.eq(s.target, T.add(y, z))
    assert G.verify(s).equal


def test_parallel_arrows():
    G = build_tilde(circle(3), 2)
    T = G.theory
    rng = random.Random(5)
    x = G.random_object(rng)
    y = T.add(x, T.from_form(_random_form(T, rng)))
    m = G.hom(x, y)
    assert G.parallel(m, m)
    # shifting by an exact datum changes nothing
    q = Cochain(T.base, 0, RATIONALS, {"v1": Fraction(3, 2)})
    shifted = TildeMorphism(x, y, m.form + coboundary(q))
    assert G.parallel(m, shifted)
    # shifting by a character gives a genuinely different parallel arrow
    char = rational_form(cohomology(T.base, 1, INTEGERS).generators[0])
    other = TildeMorphism(x, y, m.form + char)
    assert G.verify(other).equal
    assert not G.parallel(m, other)


def test_lift_requires_trivial_class():
    G = build_tilde(circle(3), 1)
    gen = cohomology(G.theory.base, 1, INTEGERS).generators[0]
    with pytest.raises(ValueError):
        G.lift(G.theory.from_cocycle(gen))


def test_identity_equivalence_is_deterministic():
    G = build_tilde(circle(3), 1)
    rep = check_equivalence(identity_comparison(G), seed=1)
    assert rep.ok
    assert [c.axiom for c in rep.results] == CHECK_NAMES
    assert rep.witness["models"] == ["plain", "plain"]
    again = check_equivalence(identity_comparison(G), seed=1)
    assert (json.dumps(rep.to_json(), sort_keys=True)
            == json.dumps(again.to_json(), sort_keys=True))


def test_shear_equivalence():
    for X, n in [(circle(3), 1), (rp2(), 2)]:
        G = build_tilde(X, n)
        Gs = build_tilde(X, n, CharacterModel("sheared"))
        rep = check_equivalence(canonical_comparison(G, Gs), seed=1)
        assert rep.ok, rep.failures()
        assert rep.witness["models"] == ["plain", "sheared"]


def test_shear_equivalence_on_genus2():
    X = build_standard("genus2")
    G = build_tilde(X, 1)
    Gs = build_tilde(X, 1, CharacterModel("sheared"))
    rep = check_equivalence(canonical_comparison(G, Gs), seed=1, trials=2)
    assert rep.ok, rep.failures()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shear_equivalence_on_rp2_times_circle(n):
    X = build_standard("rp2xS1")
    G = build_tilde(X, n)
    Gs = build_tilde(X, n, CharacterModel("sheared"))
    rep = check_equivalence(canonical_comparison(G, Gs), seed=1, trials=2)
    assert rep.ok, rep.failures()


def test_halved_equivalence_and_lattice():
    G = build_tilde(circle(3), 1)
    Gh = build_tilde(circle(3), 1, CharacterModel("halved"))
    rep = check_equivalence(canonical_comparison(G, Gh), seed=1)
    assert rep.ok
    lattice = rep.result("fully-faithful:lattice")
    assert lattice.ok
    assert lattice.witness == {"rank": [1, 1], "matrix": [[1]], "diagonal": [1]}


def test_canonical_comparison_guards():
    G1 = build_tilde(circle(3), 1)
    with pytest.raises(ValueError):
        canonical_comparison(G1, build_tilde(circle(3), 2))
    with pytest.raises(ValueError):
        canonical_comparison(G1, build_tilde(torus(), 1))
    Gs = build_tilde(circle(3), 1, CharacterModel("sheared"))
    Gh = build_tilde(circle(3), 1, CharacterModel("halved"))
    with pytest.raises(ValueError):
        canonical_comparison(Gs, Gh)


def test_cell_defects_detected_exactly():
    G = build_tilde(torus(), 1)
    base = identity_comparison(G)
    for kind in ("cocycle", "symmetry", "units"):
        rep = check_equivalence(with_cell_defect(base, kind), seed=3, trials=6)
        assert not rep.ok
        for check in rep.results[:5]:
            assert check.ok, (kind, check.axiom)
        for other in IDENTITIES:
            verdict = rep.result(f"monoidal-cells:{other}")
            assert verdict.ok == (other != kind), (kind, other)


def test_defects_need_free_directions():
    P = build_tilde(point(), 2)
    with pytest.raises(ValueError):
        with_cell_defect(identity_comparison(P), "units")
    G = build_tilde(circle(3), 1)
    with pytest.raises(ValueError):
        with_cell_defect(identity_comparison(G), "symmetry")
    with pytest.raises(ValueError):
        with_cell_defect(identity_comparison(G), "skew")


def test_derived_cell_of_additive_map_is_zero():
    G = build_tilde(circle(3), 1)
    rep = derive_B(G, G, lambda x: x).check_identities(seed=0, trials=6)
    assert rep.ok
    assert not rep.witness["cell_seen_nonzero"]
    assert [c.axiom for c in rep.results] == [
        "cocycle", "symmetry", "units", "translation"]


def _quadratic_shift(T: HatTheory):
    # nonadditive but class-preserving: shift by a third of a character,
    # weighted by the square of the free coordinate
    gamma = rational_form(cohomology(T.base, 0, INTEGERS).generators[0])
    gamma = gamma.map_values(lambda v: v / 3, RATIONALS)

    def phi(x):
        free, _ = T.underlying_class(x)
        k = int(free[0]) if free else 0
        return T.add(x, T.from_form(gamma.scale(k * k)))

    return phi, gamma


def test_derived_cell_of_quadratic_shift():
    G = build_tilde(circle(3), 1)
    T = G.theory
    phi, gamma = _quadratic_shift(T)
    bo = derive_B(G, G, phi)
    u = T.from_cocycle(cohomology(T.base, 1, INTEGERS).generators[0])
    assert bo.value(u, u) == gamma.scale(2)
    assert not T.eq(T.from_form(bo.value(u, u)), T.zero())
    rep = bo.check_identities(seed=0, trials=12)
    assert rep.ok
    assert rep.witness["cell_seen_nonzero"]


def test_derived_cell_completes_the_functor():
    G = build_tilde(circle(3), 1)
    phi, _ = _quadratic_shift(G.theory)
    bo = derive_B(G, G, phi)
    comp = ModelComparison(G, G, phi, lambda w: w, bo.as_cell(),
                           label="shifted")
    rep = check_equivalence(comp, seed=2, trials=5)
    assert rep.ok, rep.failures()


def test_derive_B_rejects_class_moving_map():
    G = build_tilde(circle(3), 1)
    T = G.theory
    gen = cohomology(T.base, 1, INTEGERS).generators[0]
    with pytest.raises(ValueError):
        derive_B(G, G, lambda x: T.add(x, T.from_cocycle(gen)))


def test_cell_defects_on_derived_cell():
    G = build_tilde(torus(), 1)
    honest = derive_B(G, G, lambda x: x)
    for kind in ("cocycle", "symmetry", "units"):
        rep = honest.with_defect(kind).check_identities(seed=3, trials=6)
        assert not rep.ok
        for verdict in rep.results:
            assert verdict.ok == (verdict.axiom != kind), (kind, verdict.axiom)


def test_tilde_morphism_repr():
    G = build_tilde(circle(3), 1)
    assert repr(G.identity(G.zero())) == "TildeMorphism(deg 1, |form|=0)"
    x = G.zero()
    m = TildeMorphism(x, x, G.automorphism_basis()[0])
    assert repr(m) == f"TildeMorphism(deg 1, |form|={len(m.form.values)})"
