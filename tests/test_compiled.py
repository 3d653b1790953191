"""The compiled construction against the reference construction.

reference_complexes keeps the construction from before freeze compiled the
face tables: Simplex faces, key_str sorts in product and freeze, and
problems() on Simplex objects.  Both must give the same generators in the
same order, the same faces, the same cochain tables and the same problem
lists, on generated complexes, their products with standard simplices,
products of the fixtures and hand-built broken complexes.  product_map,
the face inclusions, the codegeneracies, the cylinder maps and the square
model, all pairings read one dimension at a time, must give the same
images and names as the reference's Simplex loops, and cross_section's
compiled gather the same positions as the reference's Simplex walk.
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_complexes as ref
from simdiff import cochains, complexes
from simdiff.cochains import INTEGERS, delta_table, face_table
from simdiff.complexes import (ConstructionError, Simplex, SimplicialMap, SimplicialSet,
                               build_standard, circle, codegeneracy_map, coface_map,
                               constant_map, cylinder, from_facets, identity_map, key_str,
                               key_strings, point, product, product_map, rp2, sphere2,
                               standard_simplex, torus)
from simdiff.em import MappingComplex
from simdiff.groupoid import MappingGroupoid


def compiled_faces(X):
    return {g: tuple(X.faces(Simplex(g))) if X.gen_dim(g) else () for g in X.generators()}


def tables(X, face_table, delta_table):
    # a delta row as its (position, coefficient) pairs in face order, read
    # off the package's {position: coefficient} rows and the reference's pairs
    return [([(sign, g.positions, g.size) for sign, g in face_table(X, n)],
             [tuple(dict(row).items()) for row in delta_table(X, n)])
            for n in range(X.top_dim)]


def assert_same(new, old):
    assert new.generators() == old.generators()
    for d in range(new.top_dim + 1):
        assert new.generators(d) == old.generators(d)
        assert dict(new.gen_index(d)) == dict(old.gen_index(d))
    assert compiled_faces(new) == old._faces
    assert new.problems() == old.problems() == []
    assert (tables(new, face_table, delta_table)
            == tables(old, ref.face_table, ref.delta_table))


def reference_circle(n):
    X = ref.SimplicialSet(f"circle{n}")
    for i in range(n):
        X.add_generator(f"v{i}", 0)
    for i in range(n):
        X.add_generator(f"e{i}", 1, [Simplex(f"v{(i + 1) % n}"), Simplex(f"v{i}")])
    return X.freeze()


def reference_simplex(k):
    return ref.from_facets(f"delta{k}", [tuple(range(k + 1))])


# vertex labels of 1 to 4 digits, so numeric and string orders disagree
labels = st.lists(st.integers(1, 4).flatmap(lambda n: st.integers(10 ** (n - 1) - (n == 1),
                                                                   10 ** n - 1)),
                  min_size=7, max_size=7, unique=True)
facet_sets = st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=3),
                      min_size=1, max_size=6)


def relabel(facets, names):
    return [tuple(sorted(names[v] for v in f)) for f in facets]


@settings(max_examples=60, deadline=None)
@given(facet_sets, labels)
def test_from_facets_matches_the_reference(facets, names):
    F = relabel(facets, names)
    assert_same(from_facets("X", F), ref.from_facets("X", F))


@settings(max_examples=40, deadline=None)
@given(facet_sets, labels, st.integers(1, 3))
def test_products_with_simplices_match_the_reference(facets, names, k):
    F = relabel(facets, names)
    new = product(from_facets("X", F), standard_simplex(k))
    old = ref.product(ref.from_facets("X", F), reference_simplex(k))
    assert_same(new, old)


# a second factor that is no simplex: up to three edges or triangles on
# four vertices
small_facet_sets = st.lists(st.sets(st.integers(0, 3), min_size=1, max_size=3),
                            min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(facet_sets, labels, small_facet_sets, labels)
def test_products_of_two_generated_complexes_match_the_reference(facets, names,
                                                                  second, second_names):
    F, G = relabel(facets, names), relabel(second, second_names)
    new = product(from_facets("X", F), from_facets("Y", G))
    old = ref.product(ref.from_facets("X", F), ref.from_facets("Y", G))
    assert_same(new, old)


@settings(max_examples=30, deadline=None)
@given(facet_sets, labels)
def test_key_strings_are_the_key_strings_in_position_order(facets, names):
    # from_facets keeps the strings it sorted by; a product keeps none and
    # spells them on first read
    X = from_facets("X", relabel(facets, names))
    assert ("key_strings",) in X._cache
    assert key_strings(X) == tuple(map(key_str, X.generators()))
    P = product(X, standard_simplex(1))
    assert ("key_strings",) not in P._cache
    assert key_strings(P) == tuple(map(key_str, P.generators()))


def test_freeze_keeps_the_key_strings_it_sorted_by():
    for X in (valid(SimplicialSet), ties(1, "1")):
        assert X._cache[("key_strings",)] == tuple(map(key_str, X.generators()))
        assert key_strings(X) is X._cache[("key_strings",)]


def shuffle_blocks(Y):
    return {key[1]: block for key, block in Y._cache.items()
            if isinstance(key, tuple) and key[:1] == ("shuffle-block",)}


def test_shuffle_blocks_are_cached_on_the_second_factor_and_immutable():
    Y = from_facets("Y", [(0, 1, 2), (2, 3)])
    X = from_facets("X", [(0, 1), (1, 2)])
    P = product(X, Y)
    blocks = shuffle_blocks(Y)
    # one block per dimension of X, none on X or on the product
    assert sorted(blocks) == [0, 1]
    assert not shuffle_blocks(X) and not shuffle_blocks(P)
    for p, block in blocks.items():
        assert isinstance(block, tuple) and all(type(f) is tuple for f in block)
        assert all(type(t) is tuple and len(t) == 3 for t in block.triples)
        assert block == complexes._shuffle_block(Y, p)
        assert len(block.triples) == len(block.dims) == len(block.tails) == sum(block.counts)
    # a second product over the same Y reads the same blocks, and the
    # blocks do not depend on the first factor
    Q = product(from_facets("Z", [(5, 6), (7,)]), Y)
    assert all(shuffle_blocks(Y)[p] is block for p, block in blocks.items())
    assert_same(Q, ref.product(ref.from_facets("Z", [(5, 6), (7,)]),
                               ref.from_facets("Y", [(0, 1, 2), (2, 3)])))


def reference_torus():
    return ref.product(reference_circle(3), reference_circle(3), name="torus")


@pytest.mark.parametrize("build, build_ref", [
    (lambda: torus(), reference_torus),
    (lambda: product(rp2(), standard_simplex(1)),
     lambda: ref.product(ref.from_facets("rp2", complexes.RP2_TRIANGLES), reference_simplex(1))),
    (lambda: product(torus(), standard_simplex(2)),
     lambda: ref.product(reference_torus(), reference_simplex(2))),
    (lambda: product(sphere2(), standard_simplex(3)),
     lambda: ref.product(ref.from_facets("sphere2", [(0, 1, 2), (0, 1, 3), (0, 2, 3),
                                                      (1, 2, 3)]), reference_simplex(3))),
    (lambda: product(rp2(), circle(3)),
     lambda: ref.product(ref.from_facets("rp2", complexes.RP2_TRIANGLES), reference_circle(3))),
    (lambda: product(torus(), circle(3)),
     lambda: ref.product(reference_torus(), reference_circle(3))),
    (lambda: product(circle(4), torus()),
     lambda: ref.product(reference_circle(4), reference_torus())),
    # BROKEN["valid"] has the degenerate face a.(0,), whose word the
    # product composes with the word its face recipe leaves
    (lambda: product(valid(SimplicialSet), standard_simplex(2)),
     lambda: ref.product(valid(ref.SimplicialSet), reference_simplex(2))),
    (lambda: product(valid(SimplicialSet), circle(3)),
     lambda: ref.product(valid(ref.SimplicialSet), reference_circle(3))),
    (lambda: product(circle(3), valid(SimplicialSet)),
     lambda: ref.product(reference_circle(3), valid(ref.SimplicialSet))),
])
def test_fixture_products_match_the_reference(build, build_ref):
    assert_same(build(), build_ref())


def test_products_with_int_keyed_factors_match_the_reference():
    # key_str spells a product key with an int first entry as a plain tuple
    def build(cls):
        X = cls("ints")
        X.add_generator(0, 0)
        X.add_generator(1, 0)
        X.add_generator(2, 1, [Simplex(1), Simplex(0)])
        return X.freeze()
    assert_same(product(build(SimplicialSet), circle(3)),
                ref.product(build(ref.SimplicialSet), reference_circle(3)))


def test_every_product_validates_once(monkeypatch):
    """product() hands its rows to freeze, and freeze's check() runs
    problems() on every product, once."""
    calls = []
    real = SimplicialSet.problems

    def spy(self):
        calls.append(self.name)
        return real(self)
    monkeypatch.setattr(SimplicialSet, "problems", spy)
    X, D, V = from_facets("X", [(0, 1, 2), (1, 3)]), standard_simplex(2), valid(SimplicialSet)
    for A, B in ((X, D), (V, circle(3)), (D, X)):
        calls.clear()
        P = product(A, B)
        assert calls == [P.name]


# -- the same problems, in the same order --------------------------------------


def added(cls, case):
    X = cls(case)
    for key, dim, faces in BROKEN[case]:
        X.add_generator(key, dim, faces)
    return X


def valid(cls):
    return added(cls, "valid").freeze()


def broken(cls, case):
    X = added(cls, case)
    try:
        X.freeze()
    except ConstructionError as e:
        return str(e), X.problems()
    return None, X.problems()


BROKEN = {
    "missing": [("a", 0, ()), ("e", 1, [Simplex("a"), Simplex("zz")])],
    "bad word": [("a", 0, ()), ("b", 0, ()), ("e", 1, [Simplex("a"), Simplex("b")]),
                 ("t", 2, [Simplex("e"), Simplex("a", (1,)), Simplex("e")]),
                 ("u", 2, [Simplex("e"), Simplex("a", (0, 0)), Simplex("e")])],
    "wrong dimension": [("a", 0, ()), ("e", 1, [Simplex("a"), Simplex("a")]),
                        ("t", 2, [Simplex("e"), Simplex("a"), Simplex("e", (0,))])],
    "identity": [("a", 0, ()), ("b", 0, ()), ("c", 0, ()),
                 ("ab", 1, [Simplex("b"), Simplex("a")]),
                 ("bc", 1, [Simplex("c"), Simplex("b")]),
                 ("ac", 1, [Simplex("c"), Simplex("a")]),
                 ("t", 2, [Simplex("ab"), Simplex("ac"), Simplex("bc")]),
                 ("s", 2, [Simplex("bc"), Simplex("ac"), Simplex("a", (0,))])],
    # several classes at once, added out of generator order
    "mixed": [("z", 1, [Simplex("y"), Simplex("q")]), ("y", 0, ()),
              ("x", 2, [Simplex("z"), Simplex("y"), Simplex("z", (2,))]),
              ("w", 1, [Simplex("y"), Simplex("x")]),
              ("b", 2, [Simplex("z"), Simplex("nowhere"), Simplex("y", (0, 1))])],
    "valid": [("a", 0, ()), ("e", 1, [Simplex("a"), Simplex("a")]),
              ("t", 2, [Simplex("e"), Simplex("e"), Simplex("a", (0,))])],
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_problems_match_the_reference(case):
    new, old = broken(SimplicialSet, case), broken(ref.SimplicialSet, case)
    assert new == old
    assert (new[0] is None) == (case == "valid")
    assert len(new[1]) > 0 or case == "valid"


def test_a_broken_face_recipe_fails_the_product_like_the_reference(monkeypatch):
    """Swap faces 0 and 1 of one shuffle of the (1, 1) shape: every face
    keeps its dimension, so only identities break.  product() must refuse
    the complex, and problems() must list what the reference lists for
    the same table, in the same order."""
    real = complexes._face_recipe

    def broken_recipe(p, q):
        rows = real(p, q)
        if (p, q) != (1, 1):
            return rows
        first, second, *rest = rows[1]
        return (rows[0], (second, first, *rest), *rows[2:])
    monkeypatch.setattr(complexes, "_face_recipe", broken_recipe)
    with pytest.raises(ConstructionError, match=r"d_\d d_\d != d_\d d_\d") as raised:
        product(circle(3), circle(3), name="broken")
    monkeypatch.setattr(SimplicialSet, "check", lambda self: None)
    P = product(circle(3), circle(3), name="broken")
    old = ref.SimplicialSet("broken")
    for g in P.generators():
        old.add_generator(g, P.gen_dim(g), P.faces(Simplex(g)) if P.gen_dim(g) else ())
    with pytest.raises(ConstructionError):
        old.freeze()
    problems = P.problems()
    assert problems == old.problems() != []
    assert str(raised.value) == "broken: " + "; ".join(problems[:5])


def ties(first, second, cls=SimplicialSet):
    X = cls("ties")
    for key in (second, "0", first):
        X.add_generator(key, 0)
    X.add_generator("e", 1, [Simplex(first), Simplex(second)])
    return X.freeze()


@pytest.mark.parametrize("first, second", [(1, "1"), ("1", 1)])
def test_keys_with_equal_strings_keep_the_order_they_were_added_in(first, second):
    new = ties(first, second)
    assert new.generators(0) == ("0", second, first)
    assert_same(new, ties(first, second, ref.SimplicialSet))


# -- product maps and cross sections ---------------------------------------------


def assert_same_map(new, old):
    """Same ends, same name, same image for every generator.  The images
    are read through the rule, so the maps that the package caches keep
    building theirs one dimension at a time."""
    assert new.source is old.source and new.target is old.target
    assert new.name == old.name
    gens = new.source.generators()
    assert dict(zip(gens, map(new.rule, gens))) == dict(old.images)


def assert_same_images(P, Q, f, g):
    assert_same_map(product_map(P, Q, f, g), ref.product_map(P, Q, f, g))


def assert_same_structure_maps(X, top=3):
    """The face inclusions of X x Delta^k, k = 1..top, the codegeneracies
    of the mapping complex on X, levels 0..top - 1, the square model of the mapping
    groupoid on X, the cylinder maps of the collapse of X to a point, k = 1,
    2, and those of the ends of X x Delta^1, k = 1, against the reference
    loops."""
    for k in range(1, top + 1):
        cyl = cylinder(X, k)
        for i in range(k + 1):
            assert_same_map(cyl.face_inclusion(i), ref.face_inclusion(cyl, i))
    maps = MappingComplex(X, INTEGERS, 1)
    assert_same_map(maps.degeneracy_map(0, 0), ref.projection(cylinder(X, 1)))
    for m in range(1, top):
        for j in range(m + 1):
            assert_same_map(maps.degeneracy_map(m, j),
                            ref.product_map(cylinder(X, m + 1).complex, cylinder(X, m).complex,
                                            identity_map(X), codegeneracy_map(m, j),
                                            f"idxsigma_{j}"))
    G = MappingGroupoid(X, INTEGERS, 1)
    for new, old in zip(G._square_maps(), ref.square_maps(G), strict=True):
        assert_same_map(new, old)
    collapse = constant_map(X, point(), "*")
    ends = [cylinder(X, 1).face_inclusion(i) for i in (0, 1)]
    for f, k in [(collapse, 1), (collapse, 2)] + [(end, 1) for end in ends]:
        P, Q = cylinder(f.source, k).complex, cylinder(f.target, k).complex
        assert_same_map(f.cylinder_map(k),
                        ref.product_map(P, Q, f, identity_map(standard_simplex(k))))


def assert_same_cylinder_maps(X):
    """id x sigma_j, id x delta_i, and the collapse of X to a point times
    sigma_j and the identity, between the cylinders of X and of a point."""
    for m in (1, 2):
        for j in range(m + 1):
            sigma = codegeneracy_map(m, j)
            assert_same_images(cylinder(X, m + 1).complex, cylinder(X, m).complex,
                               identity_map(X), sigma)
            assert_same_images(cylinder(X, m + 1).complex, cylinder(point(), m).complex,
                               constant_map(X, point(), "*"), sigma)
    for k in (1, 2, 3):
        if k > 1:
            for i in range(k + 1):
                assert_same_images(cylinder(X, k - 1).complex, cylinder(X, k).complex,
                                   identity_map(X), coface_map(k, i))
        assert_same_images(cylinder(X, k).complex, cylinder(point(), k).complex,
                           constant_map(X, point(), "*"), identity_map(standard_simplex(k)))


@settings(max_examples=25, deadline=None)
@given(facet_sets, labels)
def test_product_maps_on_generated_cylinders_match_the_reference(facets, names):
    assert_same_cylinder_maps(from_facets("X", relabel(facets, names)))


def rotation(n):
    X = circle(n)
    images = {f"{kind}{i}": Simplex(f"{kind}{(i + 1) % n}") for kind in "ve" for i in range(n)}
    return SimplicialMap(X, X, images, "rotate")


@pytest.mark.parametrize("name", ["circle", "sphere2", "rp2", "torus"])
def test_product_maps_on_fixture_cylinders_match_the_reference(name):
    assert_same_cylinder_maps(build_standard(name))


@pytest.mark.parametrize("name, top", [("pt", 3), ("circle", 3), ("torus", 3), ("rp2", 3),
                                       ("genus2", 3), ("rp2xS1", 2)])
def test_structure_maps_on_fixtures_match_the_reference(name, top):
    # on rp2 x S^1 the level-3 maps alone would take seconds; levels 1 and 2
    # cover every map shape
    assert_same_structure_maps(build_standard(name), top)


def test_product_maps_on_fixture_products_match_the_reference():
    C = circle(3)
    T = product(C, C)
    rot, crush = rotation(3), constant_map(C, C, "v1")
    for f, g in [(rot, identity_map(C)), (rot, crush), (crush, rot), (crush, crush)]:
        assert_same_images(T, T, f, g)
    X = product(rp2(), C)
    assert_same_images(X, product(point(), C), constant_map(rp2(), point(), "*"), rot)
    assert_same_images(X, X, identity_map(rp2()), crush)


@pytest.mark.parametrize("name", sorted(complexes._FIXTURE_BUILDERS))
def test_cross_section_gathers_match_the_walk(name):
    X = build_standard(name)
    for k in (1, 2, 3):
        cyl = cylinder(X, k)
        for m in range(3):
            got = cochains._cross_section_gather(cyl, m)
            assert got.positions == tuple(ref.cross_section_positions(cyl, m)), (k, m)
            assert got.size == len(X.generators(m))
