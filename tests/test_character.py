"""Cocycle groupoids, the integration functor, and the character models."""

import random
from fractions import Fraction

import pytest

from simdiff.cochains import (
    Cochain,
    INTEGERS,
    RATIONALS,
    coboundary,
    mod_coefficients,
    pullback,
)
from simdiff.character import (
    CharacterModel,
    CocycleGroupoid,
    HALVED_PARITIES,
    arrow_equation_report,
    cell_with_integral,
    character_functor,
    character_groupoid,
    composition_equation_report,
    halved_diagram,
    halved_weak_inverse,
    integration_witness_report,
    morphism_character,
    object_character,
    pullback_functor,
    rational_form,
    restrict_morphism,
    restrict_object,
    shear,
    suspension_consistency,
    transfer_functor,
)
from simdiff.cohomology import cohomology
from simdiff.complexes import (
    Simplex,
    circle,
    constant_map,
    point,
    sphere2,
    torus,
)
from simdiff.groupoid import MappingGroupoid
from simdiff.moncat import check_coherence, check_monoidal_functor
from simdiff.subdiv import covering, rotation, vertex_inclusion


def groupoid(X=None, coeffs=INTEGERS, n=1, perturb=None):
    return MappingGroupoid(X if X is not None else circle(3), coeffs, n,
                           perturb=perturb)


# -- embeddings and the shear ----------------------------------------------


def test_rational_form_embeds_integers_and_rejects_torsion():
    z = Cochain(circle(3), 1, INTEGERS, {"e0": 2, "e1": -1})
    w = rational_form(z)
    assert w.coeffs == RATIONALS
    assert w.values == {"e0": Fraction(2), "e1": Fraction(-1)}
    assert rational_form(w) is w
    with pytest.raises(ValueError):
        rational_form(Cochain(circle(3), 1, mod_coefficients(2), {"e0": 1}))


def test_shear_pushes_values_to_head_vertices():
    X = circle(3)
    z = Cochain(X, 1, INTEGERS, {"e0": 5, "e2": -1})
    s = shear(X, z)
    assert s.degree == 0
    assert s.values == {"v1": 5, "v0": -1}
    with pytest.raises(ValueError):
        shear(X, Cochain(X, 0, INTEGERS, {"v0": 1}))


# -- the groupoid of closed cochains ---------------------------------------


def test_cocycle_groupoid_validates_objects_and_morphisms():
    CG = CocycleGroupoid(circle(3), 1, INTEGERS)
    closed = Cochain(circle(3), 1, INTEGERS, {"e0": 1, "e1": 1, "e2": 1})
    assert CG.object(closed) is closed
    with pytest.raises(ValueError):
        CocycleGroupoid(circle(3), 0, INTEGERS)
    with pytest.raises(ValueError):
        CocycleGroupoid(circle(3), 1, mod_coefficients(3))
    q = Cochain(circle(3), 0, INTEGERS, {"v0": 2})
    m = CG.morphism(closed, closed + coboundary(q), q)
    assert m.eta == q
    with pytest.raises(ValueError):
        CG.morphism(closed, closed + coboundary(q), q.scale(2))


def test_cocycle_groupoid_equality_is_eta_up_to_coboundary():
    X = sphere2()
    CG = CocycleGroupoid(X, 2, INTEGERS)
    z = CG.zero()
    rng = random.Random(4)
    a = CG.random_morphism(rng, z)
    b = CG.morphism(a.source, a.target,
                    a.eta + coboundary(Cochain(X, 0, INTEGERS, {(0,): 3})))
    assert CG.eq(a, b)
    # degree-1 cocycles on the sphere are all exact, so closed shifts vanish
    assert cohomology(X, 1, INTEGERS).presentation.free_rank == 0


def test_cocycle_groupoid_degree_zero_eta_equality_is_literal():
    CG = CocycleGroupoid(circle(3), 1, INTEGERS)
    z = CG.zero()
    shift = Cochain(circle(3), 0, INTEGERS, {"v0": 1, "v1": 1, "v2": 1})
    a = CG.identity(z)
    b = CG.morphism(z, z, shift)
    assert not CG.eq(a, b)


def test_cocycle_instance_passes_the_coherence_battery():
    CG = CocycleGroupoid(circle(3), 1, RATIONALS)
    assert check_coherence(CG.as_instance(), trials=12, seed=2).ok
    CG2 = CocycleGroupoid(torus(), 2, INTEGERS)
    assert check_coherence(CG2.as_instance(), trials=6, seed=2).ok


def test_pullback_and_transfer_functors_check_their_frames():
    src = CocycleGroupoid(circle(3), 1, RATIONALS)
    dst = CocycleGroupoid(circle(6), 1, RATIONALS)
    F = pullback_functor(src, dst, covering(3, 2))
    assert check_monoidal_functor(F, trials=8, seed=1).ok
    with pytest.raises(ValueError):
        pullback_functor(dst, src, covering(3, 2))
    T = transfer_functor(circle(3), dst, src)
    assert check_monoidal_functor(T, trials=8, seed=1).ok
    with pytest.raises(ValueError):
        transfer_functor(circle(6), dst, src)


# -- integration as a monoidal functor -------------------------------------


def test_character_functor_rejects_torsion_and_degree_zero():
    with pytest.raises(ValueError):
        character_functor(MappingGroupoid(circle(3), mod_coefficients(2), 1))


def test_character_functor_battery_and_literal_defects_circle():
    report = integration_witness_report(groupoid(), trials=4, seed=3)
    battery = [c for c in report.results
               if c.axiom not in ("literal-defects-zero", "witness-integrals")]
    assert len(battery) == 7 and all(c.ok for c in battery)
    assert report.result("literal-defects-zero").ok
    assert report.result("witness-integrals").ok
    assert report.ok


def test_character_functor_battery_over_rationals():
    report = integration_witness_report(groupoid(coeffs=RATIONALS),
                                        trials=3, seed=3)
    assert report.ok


def test_character_functor_battery_torus_degree_two():
    report = integration_witness_report(groupoid(torus(), n=2),
                                        trials=3, seed=3)
    assert report.ok


def test_character_functor_battery_survives_perturbation():
    G = groupoid(perturb=random.Random(9))
    report = integration_witness_report(G, trials=4, seed=3)
    assert report.ok


def test_mu_cell_is_trivial_on_the_strict_model():
    G = groupoid()
    F = character_functor(G)
    rng = random.Random(5)
    a, b = G.random_object(rng), G.random_object(rng)
    cell = F.mu(a, b)
    assert cell.eta.is_zero()
    assert cell.source == object_character(G, a) + object_character(G, b)


# -- cells with a prescribed integral --------------------------------------


def test_cell_with_integral_hits_the_requested_value_exactly():
    G = groupoid()
    w0 = cohomology(circle(3), 1, INTEGERS).generators[0]
    q = Cochain(circle(3), 0, INTEGERS, {"v0": 3})
    w1 = w0 + coboundary(q)
    one = Cochain(circle(3), 0, INTEGERS, {"v0": 2, "v1": 2, "v2": 2})
    eta = q + one
    H = cell_with_integral(G, G.from_cocycle(w0), G.from_cocycle(w1), eta)
    assert H.integral() == eta
    assert H.source.integral() == w0 and H.target.integral() == w1


def test_cell_with_integral_rejects_unreachable_data():
    G = groupoid()
    c = G.from_cocycle(cohomology(circle(3), 1, INTEGERS).generators[0])
    leaky = Cochain(circle(3), 0, INTEGERS, {"v0": 1})
    with pytest.raises(ValueError):
        cell_with_integral(G, c, c, leaky)
    with pytest.raises(ValueError):
        cell_with_integral(G, c, c, Cochain(circle(3), 1, INTEGERS))


def test_suspension_consistency_across_fixtures():
    assert suspension_consistency(groupoid(), trials=8, seed=2).ok
    assert suspension_consistency(groupoid(coeffs=RATIONALS),
                                  trials=6, seed=2).ok
    assert suspension_consistency(groupoid(sphere2(), n=2),
                                  trials=4, seed=2).ok
    assert suspension_consistency(groupoid(point()), trials=4, seed=2).ok


# -- restriction -----------------------------------------------------------


def test_restriction_commutes_with_integration_literally():
    G3, G6 = groupoid(), groupoid(circle(6))
    d = covering(3, 2)
    rng = random.Random(11)
    c = G3.random_object(rng)
    H = G3.random_morphism(c, rng)
    assert restrict_object(G6, d, c).integral() == pullback(d, c.integral())
    assert restrict_morphism(G6, d, H).integral() == pullback(d, H.integral())


def test_restriction_rejects_mismatched_frames():
    G3, G6 = groupoid(), groupoid(circle(6))
    rng = random.Random(1)
    c = G3.random_object(rng)
    with pytest.raises(ValueError):
        restrict_object(G3, covering(3, 2), c)
    with pytest.raises(ValueError):
        restrict_object(groupoid(circle(6), n=2), covering(3, 2), c)


# -- the three character models --------------------------------------------


def test_plain_model_pullback_equations_are_strict():
    model = CharacterModel("plain")
    chN, chM = model.character(groupoid()), model.character(groupoid(circle(6)))
    report = arrow_equation_report(model, model.arrow(chM, chN, covering(3, 2)),
                                   trials=4, seed=7)
    assert report.ok


def test_sheared_model_differs_but_satisfies_the_equations():
    plain, sheared = CharacterModel("plain"), CharacterModel("sheared")
    G = groupoid()
    c = G.random_object(random.Random(3))
    assert sheared.character(G).on_object(c) != plain.character(G).on_object(c)
    chN = sheared.character(G)
    chM = sheared.character(groupoid(circle(6)))
    report = arrow_equation_report(sheared,
                                   sheared.arrow(chM, chN, covering(3, 2)),
                                   trials=4, seed=7)
    assert report.ok


def test_halved_model_equations_with_nonzero_corrections():
    model = CharacterModel("halved", HALVED_PARITIES)
    G3, G6, Gpt = groupoid(), groupoid(circle(6)), groupoid(point())
    chN, chM, chPt = (model.character(G3), model.character(G6),
                      model.character(Gpt))
    cover = model.arrow(chM, chN, covering(3, 2))
    base = model.arrow(chPt, chN, vertex_inclusion(circle(3), "v0", "base"),
                       pins={"*": "v1"})
    turn = model.arrow(chN, chN, rotation(3))
    collapse = model.arrow(chN, chPt, constant_map(circle(3), point(), "*"))
    for arrow in (cover, base, turn, collapse):
        assert arrow_equation_report(model, arrow, trials=4, seed=7).ok
    z = rational_form(G3.random_object(random.Random(1)).integral())
    assert not cover.correction(z).is_zero()
    assert not base.correction(z).is_zero()
    assert turn.correction(z).is_zero()


def test_halved_basepoint_correction_reads_off_the_first_edge():
    model = CharacterModel("halved", HALVED_PARITIES)
    chN = model.character(groupoid())
    chPt = model.character(groupoid(point()))
    base = model.arrow(chPt, chN, vertex_inclusion(circle(3), "v0", "base"),
                       pins={"*": "v1"})
    z = Cochain(circle(3), 1, RATIONALS, {"e0": 5, "e1": -2})
    assert base.correction(z).values == {"*": Fraction(5)}


def test_composition_pasting_is_literal_in_every_model():
    d, r = covering(3, 2), rotation(3)
    for kind in ("plain", "sheared", "halved"):
        model = CharacterModel(kind, HALVED_PARITIES)
        chM = model.character(groupoid(circle(6)))
        chN = model.character(groupoid())
        report = composition_equation_report(model, chM, chN, chN, d, r,
                                             trials=4, seed=5)
        assert report.result("corrections-compose").ok
        assert report.result("lifts-compose").ok


# -- the halved transformation and its weak inverse ------------------------


def test_halved_weak_inverse_report_is_clean():
    diagram, inv = halved_weak_inverse(degree=1, trials=5, seed=4)
    assert inv.report.ok
    assert sorted(inv.components) == ["circle3", "circle6", "pt"]
    assert sorted(inv.cells) == ["restrict-basepoint", "restrict-collapse",
                                 "restrict-cover", "restrict-turn"]


def test_halved_weak_inverse_basepoint_cell_is_honestly_nontrivial():
    diagram, inv = halved_weak_inverse(degree=1, trials=4, seed=4)
    b = Cochain(circle(6), 1, RATIONALS, {"e0": 5, "e3": 2})
    cell = inv.cells["restrict-basepoint"](b)
    assert cell.eta.values == {"*": Fraction(5)}
    up_pt = diagram.upper["pt"]
    assert cell.source == cell.target
    assert not up_pt.eq(cell, up_pt.identity(cell.source))
    turn_cell = inv.cells["restrict-turn"](b)
    assert turn_cell.eta.is_zero()


def test_halved_diagram_lifts_commute_with_comparisons():
    diagram = halved_diagram(degree=1)
    assert diagram.lifts["basepoint"](Simplex("*")).gen == "v1"
    assert set(diagram.maps) == {"collapse", "basepoint", "cover", "turn"}
