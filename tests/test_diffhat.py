"""Refined classes: equality solver, transformations, and exactness claims."""

import json
import random
from fractions import Fraction

import pytest

from simdiff import exact
from simdiff.character import CharacterModel
from simdiff.cochains import Cochain, INTEGERS, RATIONALS, coboundary
from simdiff.cohomology import (CoboundaryObstruction, GroupPresentation, cohomology,
                                delta_system)
from simdiff.complexes import build_standard, circle, point, sphere2, torus
from simdiff.diffhat import (
    HatTheory,
    PeriodObstruction,
    exactness_certificate,
    hat_group,
)
from simdiff.groupoid import HomotopyClass, Homotopy2

import reference_periods as ref


def form_on_point(v) -> Cochain:
    return Cochain(point(), 0, RATIONALS, {"*": Fraction(v)})


def test_point_group_is_rationals_mod_integers():
    T = HatTheory(point(), 1)
    half = T.from_form(form_on_point(Fraction(1, 2)))
    assert not T.eq(half, T.zero())
    assert T.eq(T.times(2, half), T.zero())
    assert T.eq(T.from_form(form_on_point(1)), T.zero())
    third = T.from_form(form_on_point(Fraction(1, 3)))
    sixth = T.from_form(form_on_point(Fraction(1, 6)))
    assert T.eq(T.add(T.add(half, third), sixth), T.zero())
    assert not T.eq(T.add(half, third), T.zero())


def test_period_obstruction_on_the_point():
    T = HatTheory(point(), 1)
    half = form_on_point(Fraction(1, 2))
    comp = T.compare(T.from_form(half), T.zero())
    assert not comp.equal
    assert isinstance(comp.obstruction, PeriodObstruction)
    assert comp.to_json()["period"] == {
        "ring": "Z", "value": "1/2", "functional": {"*": "1"}}
    assert comp.obstruction.refutes(half)
    assert not comp.obstruction.refutes(form_on_point(3))


def test_equal_pair_carries_literal_witness():
    X = circle(3)
    T = HatTheory(X, 1)
    z = cohomology(X, 1, INTEGERS).generators[0]
    alpha = Cochain(X, 0, RATIONALS, {"v0": Fraction(1, 3), "v2": Fraction(-2)})
    shifted = alpha + Cochain(X, 0, RATIONALS,
                              {g: Fraction(4) for g in X.generators(0)})
    x, y = T.from_form(alpha), T.from_form(shifted)
    comp = T.compare(x, y)
    assert comp.equal and comp.homotopy is not None and comp.shift is None
    chosen = HomotopyClass(Homotopy2(x.obj, y.obj, comp.homotopy))
    assert T.character.on_morphism(chosen) == x.omega - y.omega
    assert not T.eq(x, T.from_form(alpha + alpha))


def test_witness_shift_absorbs_rational_coboundaries():
    X = sphere2()
    T = HatTheory(X, 2)
    q = Cochain(X, 0, RATIONALS, {(0,): Fraction(1, 5), (2,): Fraction(3)})
    comp = T.compare(T.from_form(coboundary(q)), T.zero())
    assert comp.equal and comp.shift is not None
    chosen = HomotopyClass(Homotopy2(T.groupoid.unit(), T.groupoid.unit(),
                                     comp.homotopy))
    assert (T.character.on_morphism(chosen) + coboundary(comp.shift)
            == coboundary(q))


def test_representative_validation():
    X = circle(3)
    T = HatTheory(X, 1)
    with pytest.raises(ValueError):
        T.hat(T.groupoid.unit(), Cochain(X, 1, RATIONALS, {}))
    with pytest.raises(ValueError):
        T.hat(HatTheory(point(), 1).groupoid.unit())
    with pytest.raises(ValueError):
        HatTheory(X, 0)
    other = HatTheory(point(), 1)
    with pytest.raises(ValueError):
        T.compare(other.zero(), other.zero())


def test_integral_datum_is_embedded():
    X = circle(3)
    T = HatTheory(X, 1)
    x = T.from_form(Cochain(X, 0, INTEGERS,
                            {g: 2 for g in X.generators(0)}))
    assert x.omega.coeffs == RATIONALS
    assert T.eq(x, T.zero())


def test_subtraction_and_negation_cancel():
    X = torus()
    T = HatTheory(X, 1)
    rng = random.Random(3)
    x = T.hat(T.groupoid.random_object(rng),
              Cochain(X, 0, RATIONALS,
                      {next(iter(X.generators(0))): Fraction(5, 2)}))
    assert T.eq(T.sub(x, x), T.zero())
    assert T.eq(T.add(x, T.neg(x)), T.zero())


def test_addition_is_commutative_and_associative():
    X = circle(3)
    T = HatTheory(X, 1)
    z = cohomology(X, 1, INTEGERS).generators[0]
    x = T.from_cocycle(z, Cochain(X, 0, RATIONALS, {"v0": Fraction(1, 2)}))
    y = T.from_form(Cochain(X, 0, RATIONALS, {"v1": Fraction(1, 7)}))
    w = T.from_cocycle(z.scale(-1))
    assert T.eq(T.add(x, y), T.add(y, x))
    assert T.eq(T.add(T.add(x, y), w), T.add(x, T.add(y, w)))
    assert T.eq(T.times(3, y), T.add(y, T.add(y, y)))


def test_curvature_rules():
    X = sphere2()
    T = HatTheory(X, 2)
    alpha = Cochain(X, 1, RATIONALS,
                    {next(iter(X.generators(1))): Fraction(2, 3)})
    assert T.curvature(T.from_form(alpha)) == coboundary(alpha)
    rng = random.Random(8)
    x = T.hat(T.groupoid.random_object(rng), alpha)
    y = T.hat(T.groupoid.random_object(rng))
    assert T.curvature(T.add(x, y)) == T.curvature(x) + T.curvature(y)
    assert T.curvature(T.neg(x)) == -T.curvature(x)


def test_curvature_agrees_on_equal_representatives():
    X = build_standard("rp2")
    T = HatTheory(X, 2)
    two = T.times(2, T.from_cocycle(cohomology(X, 2, INTEGERS).generators[0]))
    sol = T.homotopies(T.groupoid.unit(), two.obj)
    connect = HomotopyClass(Homotopy2(T.groupoid.unit(), two.obj, sol))
    gamma = T.character.on_morphism(connect)
    assert T.eq(two, T.from_form(gamma))
    assert T.curvature(two) == T.curvature(T.from_form(gamma))


def test_flat_classes_can_be_nonzero():
    T = HatTheory(point(), 1)
    half = T.from_form(form_on_point(Fraction(1, 2)))
    assert T.curvature(half).is_zero()
    assert not T.eq(half, T.zero())


def test_torsion_class_on_rp2_lifts_to_order_two():
    X = build_standard("rp2")
    T = HatTheory(X, 2)
    x = T.from_cocycle(cohomology(X, 2, INTEGERS).generators[0])
    assert not T.eq(x, T.zero())
    two = T.times(2, x)
    assert T.underlying_class(two) == ((), (0,))
    sol = T.homotopies(T.groupoid.unit(), two.obj)
    connect = HomotopyClass(Homotopy2(T.groupoid.unit(), two.obj, sol))
    gamma = T.character.on_morphism(connect)
    lifted = T.add(x, T.from_form(gamma.map_values(lambda v: -v / 2,
                                                   RATIONALS)))
    assert not T.eq(lifted, T.zero())
    assert T.eq(T.times(2, lifted), T.zero())


def test_distinct_classes_obstruct_before_periods():
    X = circle(3)
    T = HatTheory(X, 1)
    comp = T.compare(T.from_cocycle(cohomology(X, 1, INTEGERS).generators[0]),
                     T.zero())
    assert not comp.equal
    assert isinstance(comp.obstruction, CoboundaryObstruction)
    assert not isinstance(comp.obstruction, PeriodObstruction)
    assert comp.to_json()["classes"]["ring"] in ("Z", "Q")


def test_underlying_class_hits_generators():
    X = build_standard("rp2")
    T = HatTheory(X, 2)
    gen = cohomology(X, 2, INTEGERS).generators[0]
    assert T.underlying_class(T.from_cocycle(gen)) == ((), (1,))
    Y = torus()
    S = HatTheory(Y, 1)
    gens = cohomology(Y, 1, INTEGERS).generators
    assert S.underlying_class(S.from_cocycle(gens[0])) == ((1, 0), ())
    assert S.underlying_class(S.from_cocycle(gens[1])) == ((0, 1), ())


def test_group_presentations():
    assert hat_group(point(), 1) == GroupPresentation(circle_rank=1)
    assert str(hat_group(point(), 1)) == "Q/Z"
    assert str(hat_group(circle(3), 2)) == "Q/Z"
    assert hat_group(build_standard("rp2"), 2) == GroupPresentation(
        torsion=(2,), divisible_rank=10)
    assert str(hat_group(circle(3), 1)) == "Z + Q^2 + Q/Z"
    assert str(hat_group(sphere2(), 2)) == "Z + Q^3"
    assert str(hat_group(sphere2(), 3)) == "Q/Z"
    assert str(hat_group(torus(), 1)) == "Z^2 + Q^8 + Q/Z"
    assert str(hat_group(torus(), 2)) == "Z + Q^17 + Q/Z + Q/Z"
    assert str(hat_group(point(), 0)) == "Z"


@pytest.mark.parametrize("build, n", [(lambda: circle(3), 1), (sphere2, 2), (torus, 2)])
def test_period_matrix_dots_every_functional_with_every_column(build, n):
    T = HatTheory(build(), n)
    loops = ref.loops(T)
    assert loops
    cols = [[int(v) for v in T._character_column(B).vec] for B in loops]
    expected = [[sum(p * col[i] for i, p in phi.items()) for col in cols]
                for phi in T._quotient_functionals]
    assert T._period_system().matrix == expected


def test_homotopy_solver_substitutes_into_one_system(monkeypatch):
    T = HatTheory(circle(3), 1)
    G = T.groupoid
    u = G.unit()
    first = T.homotopies(u, u)
    W = delta_system(G.base, 0).kernel
    assert T._cocycles is W
    calls = []
    real = exact.smith_normal_form
    monkeypatch.setattr(exact, "smith_normal_form", lambda A: calls.append(A) or real(A))
    rng = random.Random(5)
    objs = [u] + [G.random_object(rng) for _ in range(3)]
    for a in objs:
        for b in objs:
            sol = T.homotopies(a, b)
            if not isinstance(sol, CoboundaryObstruction):
                assert delta_system(G.base, 0).kernel is W
    assert calls == []
    assert T.homotopies(u, u) == first


def test_certificates_pass_on_fixtures():
    for X, n in [(point(), 1), (circle(3), 1), (sphere2(), 2),
                 (build_standard("rp2"), 2), (torus(), 2)]:
        cert = exactness_certificate(X, n, trials=2, seed=11)
        assert cert.ok, (X.name, n, cert.failures())
        assert [c.axiom for c in cert.results] == [
            "underlying-class-surjective",
            "kernel-of-class-is-image-of-forms",
            "kernel-of-forms-is-image-of-characters",
            "kernel-of-forms-is-image-of-characters:negative",
            "curvature-on-forms-is-coboundary",
            "curvature-class-is-rational-class",
        ]
        json.dumps(cert.to_json())


def test_certificates_pass_on_genus2():
    # a base with two free classes one degree down, where every pinned
    # solve runs on the 45-vertex genus2 x Delta^2
    X = build_standard("genus2")
    for n in (1, 2):
        cert = exactness_certificate(X, n, trials=2, seed=11)
        assert cert.ok, (n, cert.failures())


def test_certificates_pass_on_rp2_times_circle():
    # a product base with torsion: H^2 = H^3 = Z/2
    X = build_standard("rp2xS1")
    for n in (1, 2):
        cert = exactness_certificate(X, n, trials=2, seed=11)
        assert cert.ok, (n, cert.failures())


@pytest.mark.parametrize("kind", ["rp2xS1", "T3"])
def test_degree_three_certificates_pass_on_three_dimensional_products(kind):
    # rp2 x S1 in its top degree, where H^3 = Z/2 is all torsion, and T3,
    # where H^3 = Z is free
    cert = exactness_certificate(build_standard(kind), 3, trials=2, seed=11)
    assert cert.ok, cert.failures()


def test_certificate_is_deterministic():
    X = circle(3)
    a = exactness_certificate(X, 1, trials=3, seed=7).to_json()
    b = exactness_certificate(X, 1, trials=3, seed=7).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_certificate_negative_round_audits_the_functional():
    cert = exactness_certificate(build_standard("rp2"), 2, trials=2, seed=11)
    negative = "kernel-of-forms-is-image-of-characters:negative"
    assert cert.result(negative).ok
    neg = cert.result(negative).witness
    assert neg["candidate"] == "non-closed" and neg["separated"]
    assert neg["audit"]["ok"] and neg["audit"]["witness"]["kills_coboundaries"]
    assert neg["curvature_separates"]
    flat = exactness_certificate(point(), 1, trials=2, seed=11)
    audit = flat.result(negative).witness["audit"]
    assert audit == {"axiom": "period-audit", "ok": True, "checked": 1,
                     "witness": {"kills_coboundaries": True, "columns_ok": True,
                                 "recomputed_value": "1/2",
                                 "matches_reported": True}}


def test_sheared_model_certificates():
    for X, n in [(circle(3), 1), (build_standard("rp2"), 2)]:
        cert = exactness_certificate(X, n, trials=2, seed=4,
                                     model=CharacterModel("sheared"))
        assert cert.ok and cert.witness["model"] == "sheared"


def test_halved_model_certificates():
    for X in (point(), circle(3)):
        cert = exactness_certificate(X, 1, trials=2, seed=4,
                                     model=CharacterModel("halved"))
        assert cert.ok and cert.witness["model"] == "halved"


def test_halved_model_carries_data_on_the_subdivision():
    X = circle(3)
    T = HatTheory(X, 1, CharacterModel("halved"))
    assert T.carrier.name == "circle6"
    z = cohomology(X, 1, INTEGERS).generators[0]
    assert T.eq(T.sub(T.from_cocycle(z), T.from_cocycle(z)), T.zero())
    with pytest.raises(ValueError):
        T.from_form(Cochain(X, 0, RATIONALS, {"v0": Fraction(1, 2)}))


def test_forms_kernel_memberships_directly():
    X = circle(3)
    T = HatTheory(X, 1)
    unitc = cohomology(X, 0, INTEGERS).generators[0]
    assert T.eq(T.from_form(unitc.map_values(Fraction, RATIONALS)), T.zero())
    half = unitc.map_values(lambda v: Fraction(v, 2), RATIONALS)
    assert not T.eq(T.from_form(half), T.zero())
    leaning = Cochain(X, 0, RATIONALS, {"v0": Fraction(1, 2)})
    x = T.from_form(leaning)
    assert not T.eq(x, T.zero())
    assert not T.curvature(x).is_zero()
