import random

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from simdiff.cochains import (Cochain, INTEGERS, RATIONALS, coboundary,
                              cochain_from_json, cochain_to_json, embed_rational,
                              fiber_integrate, mod_coefficients,
                              parse_coefficients, pullback, random_cochain)
from simdiff.complexes import (Simplex, SimplicialMap, circle, complex_from_json,
                               cylinder, point, rp2, sphere2, standard_simplex,
                               torus)


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
