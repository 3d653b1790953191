import random

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from simdiff.cochains import (Cochain, INTEGERS, RATIONALS, coboundary,
                              cochain_from_json, cochain_to_json, embed_rational,
                              fiber_integrate, mod_coefficients,
                              parse_coefficients, pullback, random_cochain)
from simdiff.complexes import (ConstructionError, Simplex, SimplicialMap, SimplicialSet,
                               circle, complex_from_json, cylinder, point, rp2, sphere2,
                               standard_simplex, torus)


def test_parse_coefficients():
    assert parse_coefficients("Z") == INTEGERS
    assert parse_coefficients("Q") == RATIONALS
    assert parse_coefficients("Z/2") == mod_coefficients(2)
    with pytest.raises(ValueError):
        parse_coefficients("R")


def test_integer_coefficients_reject_fractions():
    X = point()
    with pytest.raises(ValueError):
        Cochain(X, 0, INTEGERS, {"*": Fraction(1, 2)})


@pytest.mark.parametrize("coeffs", [INTEGERS, mod_coefficients(3)], ids=["Z", "Z/3"])
def test_integer_rings_reject_values_that_are_not_integers(coeffs):
    # int() truncated these: 2.7 read as 2 and 7/2 as 3, and a scale by 0.5
    # gave the zero cochain
    X = circle(3)
    for bad in (2.7, 0.5, Fraction(7, 2), float("nan"), float("inf"), "junk", None, [1], "1/0"):
        with pytest.raises(ValueError):
            Cochain(X, 1, coeffs, {"e0": bad})
        with pytest.raises(ValueError):
            Cochain(X, 1, coeffs, {"e0": 3}).scale(bad)
    with pytest.raises(ValueError, match=f"non-integer value 7/2 for {coeffs.label()}"):
        cochain_from_json(X, {"coefficients": coeffs.label(), "degree": 1,
                              "values": [{"id": "e0", "value": "7/2"}]})
    # integral values of any type are ring elements
    c = Cochain(X, 1, coeffs, {"e0": 4.0, "e1": Fraction(-6, 3), "e2": "5"})
    assert c == Cochain(X, 1, coeffs, {"e0": 4, "e1": -2, "e2": 5})
    assert all(type(v) is int for v in c.vec)


def test_rationals_reject_values_that_are_not_numbers():
    # Fraction(v) raised TypeError, OverflowError or ZeroDivisionError here
    X = circle(3)
    for bad in (None, float("inf"), float("nan"), "junk", [1], "1/0"):
        with pytest.raises(ValueError, match="is not a value for Q coefficients"):
            Cochain(X, 1, RATIONALS, {"e0": bad})
        with pytest.raises(ValueError, match="is not a value for Q coefficients"):
            Cochain(X, 1, RATIONALS, {"e0": 3}).scale(bad)
    c = Cochain(X, 1, RATIONALS, {"e0": 0.5, "e1": "7/2", "e2": 2})
    assert c.vec == (Fraction(1, 2), Fraction(7, 2), Fraction(2))


def test_cochains_name_a_generator_the_complex_lacks():
    X = circle(3)
    with pytest.raises(ValueError, match="circle3 has no generator 'nope'"):
        Cochain(X, 1, INTEGERS, {"nope": 1})
    with pytest.raises(ValueError, match="circle3 has no generator 'nope'"):
        Cochain.indicator(X, "nope", INTEGERS)
    with pytest.raises(ValueError, match="value on 'v0' of dim 0 in degree 1"):
        Cochain(X, 1, INTEGERS, {"v0": 1})


def test_scale_takes_ring_elements_only():
    X = circle(3)
    c = Cochain(X, 1, INTEGERS, {"e0": 2, "e1": -1})
    assert c.scale(3) == Cochain(X, 1, INTEGERS, {"e0": 6, "e1": -3})
    assert c.scale(Fraction(4, 2)) == c + c
    # a non-integral scalar is not an element of Z, even where every
    # product would be an integer
    with pytest.raises(ValueError, match="non-integer value 1/2"):
        Cochain(X, 1, INTEGERS, {"e0": 2}).scale(Fraction(1, 2))
    q = c.map_values(Fraction, RATIONALS).scale(Fraction(1, 2))
    assert q.values == {"e0": 1, "e1": Fraction(-1, 2)}
    assert Cochain(X, 1, mod_coefficients(3), {"e0": 2}).scale(5).values == {"e0": 1}


def test_mod_arithmetic():
    Z2 = mod_coefficients(2)
    X = circle(3)
    c = Cochain(X, 1, Z2, {"e0": 1, "e1": 3})
    assert c.values == {"e0": 1, "e1": 1}
    assert (c + c).is_zero()
    assert (-c) == c


def test_vertex_coboundary_on_interval():
    # delta of the vertex-0 indicator on Delta^1 is minus the edge indicator
    D1 = standard_simplex(1)
    c = Cochain.indicator(D1, (0,), INTEGERS)
    dc = coboundary(c)
    assert dc.values == {(0, 1): -1}


def test_coboundary_squares_to_zero():
    rng = random.Random(5)
    for X in (circle(3), sphere2(), rp2(), torus()):
        for n in range(X.top_dim):
            c = random_cochain(X, n, INTEGERS, rng)
            assert coboundary(coboundary(c)).is_zero()


def test_top_degree_coboundary_vanishes():
    c = Cochain(circle(3), 1, INTEGERS, {"e0": 1, "e1": -2, "e2": 5})
    assert coboundary(c).is_zero()


def test_degenerate_simplices_evaluate_to_zero():
    X = circle(3)
    c = Cochain(X, 1, INTEGERS, {"e0": 7})
    s = Simplex("v0", (0,))
    assert c.eval(s) == 0


def test_pullback_is_linear_and_functorial():
    rng = random.Random(7)
    big, small = circle(6), circle(3)
    f = SimplicialMap(big, small,
                      {f"v{i}": Simplex(f"v{i % 3}") for i in range(6)} |
                      {f"e{i}": Simplex(f"e{i % 3}") for i in range(6)},
                      "wrap2")
    f.check()
    a = random_cochain(small, 1, RATIONALS, rng)
    b = random_cochain(small, 1, RATIONALS, rng)
    assert pullback(f, a + b) == pullback(f, a) + pullback(f, b)
    assert pullback(f, coboundary(a)) == coboundary(pullback(f, a))


def test_pullback_normalization_kills_degenerate_images():
    from simdiff.complexes import constant_map
    X = circle(3)
    const = constant_map(X, X, "v0")
    c = Cochain(X, 1, INTEGERS, {"e0": 1, "e1": 1, "e2": 1})
    assert pullback(const, c).is_zero()


def test_fiber_integration_point_interval():
    cyl = cylinder(point(), 1)
    (gen,) = cyl.complex.generators(1)
    z = Cochain.indicator(cyl.complex, gen, RATIONALS)
    res = fiber_integrate(z, cyl)
    assert res.values == {"*": 1}


def test_fiber_integration_square_signs():
    # both shuffle cells of the square, with opposite signs
    cyl = cylinder(standard_simplex(1), 1)
    total = Cochain.zero(standard_simplex(1), 1, INTEGERS)
    for sign, cell in cyl.decomposition[(0, 1)]:
        z = Cochain.indicator(cyl.complex, cell, INTEGERS)
        total = total + fiber_integrate(z, cyl).scale(sign)
    assert total.values == {(0, 1): 2}


def test_fiber_integration_kills_base_pullbacks():
    rng = random.Random(11)
    for k in (1, 2):
        cyl = cylinder(circle(3), k)
        zz = pullback(cyl.projection, random_cochain(circle(3), k, RATIONALS, rng))
        assert fiber_integrate(zz, cyl).is_zero()


@pytest.mark.parametrize("k,base", [(1, "circle"), (2, "circle"), (3, "circle")])
def test_stokes_identity(k, base):
    X = circle(3) if base == "circle" else point()
    cyl = cylinder(X, k)
    sub = cylinder(X, k - 1) if k >= 2 else None
    rng = random.Random(100 + k)
    for trial in range(25):
        n = rng.choice(range(k, k + 3))
        z = random_cochain(cyl.complex, n, RATIONALS, rng)
        lhs = coboundary(fiber_integrate(z, cyl))
        rhs = fiber_integrate(coboundary(z), cyl).scale((-1) ** k)
        for i in range(k + 1):
            face = pullback(cyl.face_inclusion(i), z)
            term = fiber_integrate(face, sub) if sub else face
            rhs = rhs + term.scale((-1) ** (k + 1 + i))
        assert lhs == rhs


def test_stokes_end_inclusion_order():
    # k = 1 in the classical form: delta(int z) = i1# z - i0# z - int(delta z)
    X = circle(3)
    cyl = cylinder(X, 1)
    i0, i1 = cyl.end_inclusions
    rng = random.Random(3)
    for trial in range(10):
        z = random_cochain(cyl.complex, 2, RATIONALS, rng)
        lhs = coboundary(fiber_integrate(z, cyl))
        rhs = pullback(i1, z) - pullback(i0, z) - fiber_integrate(coboundary(z), cyl)
        assert lhs == rhs


def test_fiber_integration_naturality():
    from simdiff.complexes import identity_map, product_map
    big, small = circle(6), circle(3)
    f = SimplicialMap(big, small,
                      {f"v{i}": Simplex(f"v{i % 3}") for i in range(6)} |
                      {f"e{i}": Simplex(f"e{i % 3}") for i in range(6)},
                      "wrap2")
    rng = random.Random(17)
    for k in (1, 2):
        cb, cs = cylinder(big, k), cylinder(small, k)
        fk = product_map(cb.complex, cs.complex, f, identity_map(standard_simplex(k)))
        for trial in range(5):
            z = random_cochain(cs.complex, k + 1, RATIONALS, rng)
            assert fiber_integrate(pullback(fk, z), cb) == pullback(f, fiber_integrate(z, cs))


def test_embed_rational_kills_torsion():
    assert embed_rational(INTEGERS, 3) == Fraction(3)
    assert embed_rational(mod_coefficients(2), 1) == Fraction(0)


def test_cochain_json_round_trip():
    X = circle(3)
    c = Cochain(X, 1, RATIONALS, {"e0": Fraction(1, 2), "e2": -2})
    data = cochain_to_json(c)
    assert data["values"][0] == {"id": "e0", "value": "1/2"}
    back = cochain_from_json(X, data)
    assert back == c


def test_cochain_json_rejects_an_id_that_prints_two_generators():
    X = SimplicialSet("x")
    X.add_generator(1, 0, [])
    X.add_generator("1", 0, [])
    X.freeze()
    c = Cochain(X, 0, INTEGERS, {1: 5})
    with pytest.raises(ValueError, match=r"names 2 generators of x: \[1, '1'\]"):
        cochain_from_json(X, cochain_to_json(c))


def test_cochain_json_rejects_unknown_generator():
    X = circle(3)
    data = {"complex": "circle", "degree": 1, "coefficients": "Q",
            "values": [{"id": "nope", "value": "1"}]}
    with pytest.raises(ValueError):
        cochain_from_json(X, data)


# Nested JSON values, biased towards the keys and strings both parsers read.
_KEYS = ["name", "generators", "id", "dim", "faces", "degeneracies",
         "degree", "values", "value", "coefficients"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["Z", "Q", "Z/2", "Z/0", "v0", "e0", "1/2", "1/0", "x"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner,
                      max_size=5),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example({"name": "x", "generators": [[1]]})
@example({"name": "x", "generators": ["a"]})
@example({"name": "x", "generators": [{"id": "a", "dim": 1, "faces": [1, 2]}]})
@example([])
@example({"degree": 0, "coefficients": 5})
@example({"degree": 0, "values": ["a"]})
@example({"degree": 0, "values": [{"id": "v0", "value": None}]})
@example({"degree": 0, "values": [{"id": "v0", "value": "1/0"}]})
@example({"degree": None})
@example({"degree": 1.9, "values": []})
@example({"degree": True, "values": []})
@example({"name": "x", "generators": [{"id": "a", "dim": 0.9}]})
@example({"name": "x", "generators": [{"id": "a", "dim": False}]})
@example({"values": []})
@example(None)
def test_malformed_json_raises_only_value_errors(data):
    X = circle(3)
    for parse in (complex_from_json, lambda d: cochain_from_json(X, d),
                  parse_coefficients):
        try:
            parse(data)
        except ValueError:  # ConstructionError is a ValueError
            pass


# Anything but a JSON integer (an int that is not a bool) where one is read.
_NOT_INT = (st.booleans() | st.floats() | st.none() | st.text(max_size=3)
            | st.lists(st.integers(), max_size=2)
            | st.integers().map(lambda n: n + 0.5))


@settings(max_examples=200, deadline=None)
@given(_NOT_INT)
@example(1.9)
@example(True)
@example(0.9)
@example(1.0)
@example(0.5)
@example(False)
def test_json_integers_are_not_coerced(bad):
    X = circle(3)
    with pytest.raises(ValueError):
        cochain_from_json(X, {"degree": bad, "coefficients": "Z", "values": []})
    with pytest.raises(ConstructionError):
        complex_from_json({"name": "x", "generators": [{"id": "a", "dim": bad}]})
    # a triangle with a degenerate face, valid with degeneracies [0]
    def pinched(word):
        return {"name": "x", "generators": [
            {"id": "v", "dim": 0},
            {"id": "e", "dim": 1, "faces": [{"id": "v"}, {"id": "v"}]},
            {"id": "t", "dim": 2, "faces": [{"id": "e"}, {"id": "e"},
                                            {"id": "v", "degeneracies": word}]}]}
    assert complex_from_json(pinched([0])).gen_dim("t") == 2
    with pytest.raises(ConstructionError):
        complex_from_json(pinched([bad]))
