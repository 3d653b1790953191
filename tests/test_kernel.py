"""The positional cochain kernel against the per-generator walks it replaced.

coboundary, pullback and fiber_integrate read position gathers built once
per complex, degree and map, and +, - combine whole value vectors.  The
reference functions below are the walks they replaced: every face through
SimplicialSet.face, every image through SimplicialMap.__call__, every value
through Cochain.eval, and every result through the public, normalizing
Cochain constructor from a dict.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simdiff.cochains import (Cochain, INTEGERS, RATIONALS, coboundary,
                              cochain_from_json, cochain_to_json, fiber_integrate,
                              mod_coefficients, pullback)
from simdiff.complexes import (Simplex, SimplicialMap, SimplicialSet, compose_maps,
                               cylinder, from_facets, identity_map, key_str,
                               vertex_induced_map)

RINGS = [INTEGERS, RATIONALS, mod_coefficients(2), mod_coefficients(6)]


# -- the walks the kernel replaced -------------------------------------------


def ref_coboundary(c: Cochain) -> Cochain:
    X = c.complex
    out = {}
    for gen in X.generators(c.degree + 1):
        s = Simplex(gen)
        total = 0
        for i in range(c.degree + 2):
            v = c.eval(X.face(s, i))
            total = total + v if i % 2 == 0 else total - v
        out[gen] = total
    return Cochain(X, c.degree + 1, c.coeffs, out)


def ref_pullback(f: SimplicialMap, c: Cochain) -> Cochain:
    return Cochain(f.source, c.degree, c.coeffs,
                   {g: c.eval(f(Simplex(g))) for g in f.source.generators(c.degree)})


def ref_fiber_integrate(z: Cochain, cyl) -> Cochain:
    out = {}
    for gen in cyl.base.generators(z.degree - cyl.k):
        out[gen] = sum((sign * z.eval(Simplex(cell))
                        for sign, cell in cyl.decomposition[gen]), 0)
    return Cochain(cyl.base, z.degree - cyl.k, z.coeffs, out)


def ref_json(c: Cochain) -> dict:
    """cochain_to_json as the dict representation wrote it."""
    index = c.complex.gen_index(c.degree)
    values = {g: v for g, v in c.values.items()}
    return {"complex": c.complex.name, "degree": c.degree,
            "coefficients": c.coeffs.label(),
            "values": [{"id": key_str(g), "value": str(values[g])}
                       for g in sorted(values, key=index.__getitem__)]}


def assert_canonical(c: Cochain) -> None:
    """c equals its re-validation through the public constructor, value
    types, hash, generator order and JSON included; its values are read-only."""
    again = Cochain(c.complex, c.degree, c.coeffs, c.values)
    assert again == c and hash(again) == hash(c)
    assert all(type(again.values[g]) is type(v) for g, v in c.values.items())
    order = [c.complex.gen_index(c.degree)[g] for g in c.values]
    assert order == sorted(order) and len(order) == len(c.values)
    assert list(c.values.items()) == list(zip(c.values, c.values.values()))
    with pytest.raises(TypeError):
        c.values[next(iter(c.complex.generators(c.degree)), "x")] = 1
    assert cochain_to_json(c) == ref_json(c)
    assert cochain_from_json(c.complex, cochain_to_json(c)) == c


def assert_matches(got: Cochain, want: Cochain) -> None:
    """A kernel result equals its reference, hash and value types included."""
    assert got == want and hash(got) == hash(want)
    assert list(got.values.items()) == list(want.values.items())
    assert [type(v) for v in got.values.values()] == [type(v) for v in want.values.values()]
    assert_canonical(got)


# -- strategies --------------------------------------------------------------


def facet_lists(vertices: int, size: int):
    return st.lists(st.sets(st.integers(0, vertices - 1), min_size=1, max_size=size),
                    min_size=1, max_size=5)


def build(name: str, facets) -> SimplicialSet:
    return from_facets(name, [tuple(sorted(f)) for f in facets])


@st.composite
def complexes(draw, size: int = 4) -> SimplicialSet:
    return build("X", draw(facet_lists(draw(st.integers(1, 6)), size)))


@st.composite
def vertex_maps(draw, X: SimplicialSet) -> SimplicialMap:
    """A monotone vertex map out of X onto a complex holding every image."""
    verts = [g[0] for g in X.generators(0)]
    width = draw(st.integers(1, len(verts)))
    values = sorted(draw(st.lists(st.integers(0, width - 1),
                                  min_size=len(verts), max_size=len(verts))))
    vf = dict(zip(verts, values))
    images = [{vf[v] for v in g} for g in X.generators()]
    extra = draw(st.lists(st.sets(st.integers(0, width - 1), min_size=1, max_size=3),
                          max_size=2))
    return vertex_induced_map(X, build("T", images + extra), vf.__getitem__)


@st.composite
def cochains(draw, X: SimplicialSet, degree: int, coeffs=None):
    coeffs = coeffs or draw(st.sampled_from(RINGS))
    value = (st.fractions(min_value=-5, max_value=5, max_denominator=3)
             if coeffs is RATIONALS else st.integers(-7, 7))
    vals = {g: draw(value) for g in X.generators(degree) if draw(st.booleans())}
    return Cochain(X, degree, coeffs, vals)


def degrees(X: SimplicialSet, low: int = 0):
    return st.integers(low, X.top_dim)


# -- differential tests ------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_coboundary_matches_the_face_walk(data):
    X = data.draw(complexes())
    c = data.draw(cochains(X, data.draw(degrees(X))))
    dc = coboundary(c)
    assert_matches(dc, ref_coboundary(c))
    assert coboundary(dc).is_zero()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pullback_matches_the_image_walk_and_is_functorial(data):
    X = data.draw(complexes())
    f = data.draw(vertex_maps(X))
    g = data.draw(vertex_maps(f.target))
    d = data.draw(degrees(X))
    c = data.draw(cochains(f.target, d))
    pc = pullback(f, c)
    assert_matches(pc, ref_pullback(f, c))
    assert coboundary(pc) == pullback(f, coboundary(c))
    z = data.draw(cochains(g.target, d))
    assert pullback(compose_maps(f, g), z) == pullback(f, pullback(g, z))


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fiber_integrate_matches_the_cell_walk(k, data):
    X = data.draw(complexes(size=3 if k < 3 else 2))
    cyl = cylinder(X, k)
    z = data.draw(cochains(cyl.complex, data.draw(degrees(cyl.complex, low=k))))
    out = fiber_integrate(z, cyl)
    assert_matches(out, ref_fiber_integrate(z, cyl))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sums_and_negation_match_the_public_constructor(data):
    X = data.draw(complexes())
    d = data.draw(degrees(X))
    a = data.draw(cochains(X, d))
    b = data.draw(cochains(X, d, a.coeffs))
    keys = set(a.values) | set(b.values)
    for got, fn in ((a + b, lambda u, v: u + v), (a - b, lambda u, v: u - v),
                    (-a, lambda u, v: -u)):
        want = Cochain(X, d, a.coeffs, {g: fn(a.values.get(g, 0), b.values.get(g, 0))
                                        for g in keys})
        assert_matches(got, want)
    assert (a - a).is_zero()


@pytest.mark.parametrize("coeffs", RINGS, ids=lambda c: c.label())
def test_every_ring_matches_the_walks(coeffs):
    X = build("X", [(0, 1, 2), (1, 2, 3), (0, 3)])
    value = (lambda i: Fraction(i % 7 - 3, 1 + i % 2)) if coeffs is RATIONALS \
        else (lambda i: i % 7 - 3)
    f = vertex_induced_map(X, build("T", [(0, 1, 2)]), lambda v: min(v, 2))
    for d in range(X.top_dim + 1):
        c = Cochain(X, d, coeffs, {g: value(i) for i, g in enumerate(X.generators(d))})
        assert_matches(coboundary(c), ref_coboundary(c))
        assert_matches(c - c.scale(3), Cochain(X, d, coeffs, {g: -2 * v
                                                              for g, v in c.values.items()}))
        t = Cochain(f.target, d, coeffs,
                    {g: value(i + 1) for i, g in enumerate(f.target.generators(d))})
        assert_matches(pullback(f, t), ref_pullback(f, t))
    cyl = cylinder(X, 2)
    for d in range(2, cyl.complex.top_dim + 1):
        z = Cochain(cyl.complex, d, coeffs,
                    {g: value(i) for i, g in enumerate(cyl.complex.generators(d))})
        assert_matches(fiber_integrate(z, cyl), ref_fiber_integrate(z, cyl))


def test_mod_k_sums_reduce():
    X = build("X", [(0, 1, 2)])
    Z6 = mod_coefficients(6)
    c = Cochain(X, 0, Z6, {(0,): 3, (1,): 5})
    assert (c + c).values == {(1,): 4}
    assert (-c).values == {(0,): 3, (1,): 1}
    assert coboundary(Cochain(X, 1, Z6, {(0, 1): 3, (1, 2): 3})).values == {}


def test_values_is_a_read_only_view_in_generator_order():
    X = build("X", [(0, 1, 2)])
    a = Cochain(X, 0, INTEGERS, {(2,): 5, (0,): 1})
    b = Cochain(X, 0, INTEGERS, {(1,): 2, (0,): -1})
    total = b + a
    assert total.vec == (0, 2, 5)
    assert list(total.values) == [(1,), (2,)]
    assert total.values == {(2,): 5, (1,): 2} and len(total.values) == 2
    assert (0,) not in total.values and total.values.get((0,), "none") == "none"
    with pytest.raises(KeyError):
        total.values[(0,)]
    with pytest.raises(TypeError):
        total.values[(0,)] = 1
    with pytest.raises(TypeError):
        del total.values[(1,)]
    assert total == a + b and hash(total) == hash(a + b)


# -- the tables are built once -----------------------------------------------


def counting(monkeypatch, owner, name: str) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_second_pullback_along_a_map_makes_no_map_calls(monkeypatch):
    X = build("X", [(0, 1, 2), (1, 3)])
    T = build("T", [(0, 1)])
    f = vertex_induced_map(X, T, lambda v: min(v, 1))
    c = Cochain(T, 1, INTEGERS, {(0, 1): 5})
    first = pullback(f, c)
    calls = counting(monkeypatch, SimplicialMap, "__call__")
    again = pullback(f, c)
    assert calls[0] == 0
    assert again == first == ref_pullback(f, c)
    assert calls[0] > 0  # the reference walk is counted


def test_second_coboundary_in_a_degree_makes_no_face_calls(monkeypatch):
    X = build("X", [(0, 1, 2), (1, 2, 3)])
    c = Cochain(X, 1, INTEGERS, {(0, 1): 2, (2, 3): -1})
    calls = counting(monkeypatch, SimplicialSet, "face")
    reads = counting(monkeypatch, SimplicialSet, "face_rows")
    first = coboundary(c)
    built = reads[0]
    assert built > 0  # the face table is read off the compiled complex
    assert coboundary(c + c) == first + first
    assert reads[0] == built and calls[0] == 0


def test_generator_tables_are_built_once():
    X = build("X", [(0, 1, 2), (2, 3)])
    assert X.generators(1) is X.generators(1)
    for d in range(X.top_dim + 1):
        assert list(X.gen_index(d)) == list(X.generators(d))
        assert [X.gen_index(d)[g] for g in X.generators(d)] == list(range(len(X.generators(d))))
    assert X.generators(7) == ()


def test_map_images_are_read_only():
    X = build("X", [(0, 1)])
    f = identity_map(X)
    with pytest.raises(TypeError):
        f.images[(0,)] = Simplex((1,))
    assert f == identity_map(X)
    assert hash(f) == hash(identity_map(X))
    assert f.pullback_table(1).positions == (0,)


def test_rational_zero_is_a_fraction():
    X = build("X", [(0, 1)])
    c = Cochain(X, 0, RATIONALS, {(0,): Fraction(1, 2)})
    assert type(c.eval(Simplex((1,)))) is Fraction
    assert type(c.eval(Simplex((0,), (0,)))) is Fraction
