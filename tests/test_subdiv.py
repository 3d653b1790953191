"""Circle halving: comparisons, transfer, staircases, primitives."""

import random
from fractions import Fraction

import pytest

from simdiff.cochains import (
    Cochain,
    INTEGERS,
    RATIONALS,
    coboundary,
    pullback,
    random_cochain,
)
from simdiff.complexes import (
    ConstructionError,
    Simplex,
    circle,
    compose_maps,
    constant_map,
    identity_map,
    point,
    sphere2,
)
from simdiff.subdiv import (
    chain_primitive,
    circle_map,
    comparison,
    covering,
    halving,
    halving_homotopy,
    homotopy_chain,
    lift_map,
    one_step_homotopy,
    path_simplex,
    prism_primitive,
    rotation,
    simplex_vertices,
    subdividable,
    subdivide,
    transfer,
    vertex_inclusion,
)

C3 = circle(3)
C6 = circle(6)
FLOOR3 = comparison(C3, "floor")
CEIL3 = comparison(C3, "ceil")
FLOOR6 = comparison(C6, "floor")
CEIL6 = comparison(C6, "ceil")


def test_subdivide_fixtures():
    assert subdivide(point()) is point()
    assert subdivide(C3) is circle(6)
    assert subdividable(point()) and subdividable(C3)
    assert not subdividable(sphere2())
    with pytest.raises(ConstructionError):
        subdivide(sphere2())


def test_circle_map_rejects_bad_vertex_functions():
    with pytest.raises(ConstructionError):
        circle_map(3, 3, lambda k: k // 2)
    with pytest.raises(ConstructionError):
        circle_map(3, 6, lambda k: 2 * k)


def test_comparison_edge_images():
    assert FLOOR3(Simplex("e0")) == Simplex("v0", (0,))
    assert FLOOR3(Simplex("e1")) == Simplex("e0")
    assert CEIL3(Simplex("e0")) == Simplex("e0")
    assert CEIL3(Simplex("e1")) == Simplex("v1", (0,))
    assert comparison(point(), "floor")(Simplex("*")) == Simplex("*")


def test_transfer_left_inverse_of_comparison_pullback():
    rng = random.Random(5)
    for comp in (FLOOR3, CEIL3):
        for coeffs in (INTEGERS, RATIONALS):
            for deg in (0, 1):
                c = random_cochain(C3, deg, coeffs, rng)
                assert (transfer(C3, pullback(comp, c)) - c).is_zero()


def test_halving_homotopy_identity():
    rng = random.Random(6)
    for par, comp in (("floor", FLOOR3), ("ceil", CEIL3)):
        b = random_cochain(C6, 1, RATIONALS, rng)
        lhs = coboundary(halving_homotopy(C3, par, b))
        rhs = pullback(comp, transfer(C3, b)) - b
        assert (lhs - rhs).is_zero()
        c = random_cochain(C6, 0, INTEGERS, rng)
        lhs0 = halving_homotopy(C3, par, coboundary(c))
        rhs0 = pullback(comp, transfer(C3, c)) - c
        assert (lhs0 - rhs0).is_zero()


def test_transfer_annihilates_the_homotopy():
    rng = random.Random(7)
    b = random_cochain(C6, 1, RATIONALS, rng)
    for par in ("floor", "ceil"):
        assert transfer(C3, halving_homotopy(C3, par, b)).is_zero()


def test_halving_homotopy_rejects_degree_zero():
    c = Cochain(C6, 0, RATIONALS, {"v0": 1})
    with pytest.raises(ValueError):
        halving_homotopy(C3, "floor", c)


def test_matched_parity_lifts_are_standard():
    d = covering(3, 2)
    assert lift_map(d, FLOOR6, FLOOR3) == covering(6, 2)
    assert lift_map(rotation(3), FLOOR3, FLOOR3) == rotation(6, 2)


def test_mixed_parity_lift_shifts_by_one():
    d = covering(3, 2)
    dp = lift_map(d, CEIL6, FLOOR3)
    for k in range(12):
        assert dp(Simplex(f"v{k}")) == Simplex(f"v{(k + 1) % 6}")
    assert compose_maps(dp, FLOOR3) == compose_maps(CEIL6, d)


def test_lift_pins_select_the_odd_inclusion():
    i = vertex_inclusion(C3, "v0")
    free = lift_map(i, identity_map(point()), FLOOR3)
    assert free(Simplex("*")) == Simplex("v0")
    pinned = lift_map(i, identity_map(point()), FLOOR3, pins={"*": "v1"})
    assert pinned(Simplex("*")) == Simplex("v1")
    with pytest.raises(ConstructionError):
        lift_map(i, identity_map(point()), FLOOR3, pins={"*": "v2"})


def test_lift_rejects_impossible_edge_pins():
    with pytest.raises(ConstructionError):
        lift_map(covering(3, 2), FLOOR6, FLOOR3, pins={"v0": "v1"})


def test_lift_frame_guard():
    with pytest.raises(ValueError):
        lift_map(rotation(3), FLOOR6, FLOOR3)


def test_point_prism_primitive_reads_the_crossed_edge():
    g0 = vertex_inclusion(C3, "v0")
    g1 = vertex_inclusion(C3, "v1")
    H = one_step_homotopy(g0, g1)
    z = Cochain(C3, 1, RATIONALS, {"e0": Fraction(5), "e1": Fraction(-2)})
    assert dict(prism_primitive(H, z).values) == {"*": Fraction(5)}
    rng = random.Random(9)
    w = random_cochain(C3, 0, RATIONALS, rng)
    lhs = prism_primitive(H, coboundary(w))
    rhs = pullback(g1, w) - pullback(g0, w)
    assert (lhs - rhs).is_zero()


def test_prism_primitive_rejects_degree_zero():
    H = one_step_homotopy(vertex_inclusion(C3, "v0"), vertex_inclusion(C3, "v1"))
    with pytest.raises(ValueError):
        prism_primitive(H, Cochain(C3, 0, RATIONALS, {"v0": 1}))


def test_covering_staircase_identities():
    d = covering(3, 2)
    dp = lift_map(d, CEIL6, FLOOR3)
    ga = compose_maps(dp, CEIL3)
    gb = compose_maps(FLOOR6, d)
    chain = homotopy_chain(gb, ga)
    assert len(chain) == 2
    rng = random.Random(11)
    z = random_cochain(C3, 1, RATIONALS, rng)
    P = chain_primitive(chain, z)
    assert (coboundary(P) + chain_primitive(chain, coboundary(z))
            - (pullback(ga, z) - pullback(gb, z))).is_zero()
    w = random_cochain(C3, 0, RATIONALS, rng)
    assert (chain_primitive(chain, coboundary(w))
            - (pullback(ga, w) - pullback(gb, w))).is_zero()
    hot = Cochain(C3, 1, RATIONALS, {"e0": 1})
    assert not chain_primitive(chain, hot).is_zero()


def test_composite_staircase_matches_pasted_primitives():
    d = covering(3, 2)
    r = rotation(3)
    dp = lift_map(d, CEIL6, FLOOR3)
    rp = lift_map(r, FLOOR3, FLOOR3)
    rd = circle_map(6, 3, lambda k: k + 1, "rd")
    rdp = lift_map(rd, CEIL6, FLOOR3)
    assert rdp == compose_maps(dp, rp)
    z = Cochain(C3, 1, RATIONALS, {"e0": Fraction(2), "e2": Fraction(7, 3)})
    direct = chain_primitive(
        homotopy_chain(compose_maps(FLOOR6, rd), compose_maps(rdp, CEIL3)), z)
    base = homotopy_chain(compose_maps(FLOOR6, d), compose_maps(dp, CEIL3))
    pasted = chain_primitive(base, pullback(r, z))
    assert (direct - pasted).is_zero()


def test_strict_pairs_have_empty_staircases():
    r = rotation(3)
    rp = lift_map(r, FLOOR3, FLOOR3)
    ga, gb = compose_maps(rp, CEIL3), compose_maps(CEIL3, r)
    assert ga == gb
    assert homotopy_chain(gb, ga) == []
    p = constant_map(C3, point(), "*")
    pp = lift_map(p, FLOOR3, identity_map(point()))
    assert homotopy_chain(compose_maps(CEIL3, p), pp) == []
    with pytest.raises(ValueError):
        chain_primitive([], Cochain(C3, 1, RATIONALS, {}))


def test_path_helpers():
    assert simplex_vertices(C3, Simplex("e1"), 1) == ["v1", "v2"]
    assert simplex_vertices(C3, Simplex("e2", (0,)), 2) == ["v2", "v2", "v0"]
    assert path_simplex(C3, ["v1", "v1", "v2"]) == Simplex("e1", (0,))
    assert path_simplex(C3, ["v2", "v2"]) == Simplex("v2", (0,))
    with pytest.raises(ConstructionError):
        path_simplex(C3, ["v0", "v2"])


def test_halving_bundle_realizes_through_the_opposite_parity():
    h = halving(C3, "floor")
    assert h.sd is C6 and h.comparison is not h.opposite
    rng = random.Random(13)
    z = random_cochain(C3, 1, RATIONALS, rng)
    assert (h.realize(z) - pullback(CEIL3, z)).is_zero()
    b = random_cochain(C6, 1, RATIONALS, rng)
    assert (h.transfer(b) - transfer(C3, b)).is_zero()
    assert (h.homotopy(b) - halving_homotopy(C3, "floor", b)).is_zero()
