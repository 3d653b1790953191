"""Fixture complexes, products, prisms, maps, and the JSON format."""

import json

import pytest

from simdiff.complexes import (
    ConstructionError,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    build_standard,
    circle,
    codegeneracy_map,
    coface_map,
    complex_from_json,
    complex_to_json,
    compose_maps,
    constant_map,
    cylinder,
    from_facets,
    identity_map,
    pair_map,
    point,
    product,
    product_map,
    rp2,
    sphere2,
    standard_simplex,
    torus,
    vertex_path,
)

from reference_complexes import end_inclusions


def counts(X):
    by_dim = {}
    for k in X.generators():
        by_dim[X.gen_dim(k)] = by_dim.get(X.gen_dim(k), 0) + 1
    return by_dim


def test_point():
    X = point()
    assert counts(X) == {0: 1}
    assert X.euler_characteristic() == 1


def test_circle_counts_and_chi():
    X = circle(3)
    assert counts(X) == {0: 3, 1: 3}
    assert X.euler_characteristic() == 0
    assert X.face(X.simplex("e0"), 0) == Simplex("v1")
    assert X.face(X.simplex("e2"), 0) == Simplex("v0")
    assert X.face(X.simplex("e2"), 1) == Simplex("v2")


def test_circle_needs_three_vertices():
    with pytest.raises(ConstructionError):
        circle(2)


def test_sphere2_counts():
    assert counts(sphere2()) == {0: 4, 1: 6, 2: 4}
    assert sphere2().euler_characteristic() == 2


def test_rp2_counts_and_chi():
    X = rp2()
    assert counts(X) == {0: 6, 1: 15, 2: 10}
    assert X.euler_characteristic() == 1
    # closed surface: every edge lies in exactly two triangles
    incident = {e: 0 for e in X.generators(1)}
    for t in X.generators(2):
        for i in range(3):
            incident[X.face(X.simplex(t), i).gen] += 1
    assert set(incident.values()) == {2}


def test_delta_k():
    assert counts(standard_simplex(3)) == {0: 4, 1: 6, 2: 4, 3: 1}
    assert build_standard("delta_k", k=2) is standard_simplex(2)


def test_build_standard_rejects_unknown():
    with pytest.raises(ConstructionError):
        build_standard("klein_bottle")
    with pytest.raises(ConstructionError):
        build_standard("circle", m=5)


def test_all_fixtures_pass_identity_check():
    for X in (point(), circle(3), circle(6), sphere2(), rp2(),
              standard_simplex(3), torus()):
        assert X.problems() == []


def test_degenerate_face_identities_brute_force():
    X = circle(3)
    for d in range(1, 4):
        for s in X.all_simplices(d):
            for j in range(d + 1):
                t = X.degeneracy(s, j)
                assert X.face(t, j) == s
                assert X.face(t, j + 1) == s
                for i in range(d + 2):
                    if i < j:
                        assert X.face(t, i) == X.degeneracy(X.face(s, i), j - 1)
                    elif i > j + 1:
                        assert X.face(t, i) == X.degeneracy(X.face(s, i - 1), j)


def test_all_simplices_counts():
    X = circle(3)
    # 3 vertices once doubly degenerate + 3 edges twice singly degenerate
    assert len(list(X.all_simplices(2))) == 9


def test_torus_counts():
    T = torus()
    assert counts(T) == {0: 9, 1: 27, 2: 18}
    assert T.euler_characteristic() == 0


def test_circle_cylinder_counts():
    cyl = cylinder(circle(3), 1)
    P, decomp = cyl.complex, cyl.decomposition
    assert counts(P) == {0: 6, 1: 12, 2: 6}
    assert P.euler_characteristic() == 0
    for e in ("e0", "e1", "e2"):
        assert len(decomp[e]) == 2  # C(1+1, 1) prism triangles per edge


def test_prism_cell_counts_and_signs():
    X = circle(3)
    for k in (1, 2, 3):
        decomp = cylinder(X, k).decomposition
        from math import comb
        for g in X.generators():
            m = X.gen_dim(g)
            assert len(decomp[g]) == comb(m + k, k)
    # Delta^1 x Delta^1: the two shuffle 2-cells carry opposite signs
    decomp = cylinder(standard_simplex(1), 1).decomposition
    signs = sorted(sign for sign, _ in decomp[(0, 1)])
    assert signs == [-1, 1]


def test_chi_invariance_under_cylinder():
    for X in (circle(3), sphere2(), rp2()):
        for k in (1, 2):
            P = cylinder(X, k).complex
            assert P.euler_characteristic() == X.euler_characteristic()


def test_pt_cylinder_is_interval():
    P = cylinder(point(), 1).complex
    assert counts(P) == {0: 2, 1: 1}


def test_product_face_consistency():
    for P in (torus(), cylinder(circle(3), 2).complex):
        assert P.problems() == []


def test_end_inclusions_commute_with_maps():
    X, Y = circle(6), circle(3)
    f = SimplicialMap(X, Y, {
        **{f"v{i}": Simplex(f"v{i % 3}") for i in range(6)},
        **{f"e{i}": Simplex(f"e{i % 3}") for i in range(6)},
    }, name="wrap2")
    f.check()
    cx, cy = cylinder(X, 1), cylinder(Y, 1)
    fx = product_map(cx.complex, cy.complex, f, identity_map(standard_simplex(1)))
    fx.check()
    for e in (0, 1):
        left = compose_maps(end_inclusions(cx)[e], fx)
        right = compose_maps(f, end_inclusions(cy)[e])
        assert left == right


def test_projection_after_end_inclusion_is_identity():
    X = rp2()
    c = cylinder(X, 1)
    for inc in end_inclusions(c):
        assert compose_maps(inc, c.projection) == identity_map(X)


def test_face_inclusions_check():
    c2 = cylinder(circle(3), 2)
    for i in range(3):
        c2.face_inclusion(i).check()


def test_compose_maps_and_constants():
    X, Y = circle(6), circle(3)
    f = SimplicialMap(X, Y, {
        **{f"v{i}": Simplex(f"v{i % 3}") for i in range(6)},
        **{f"e{i}": Simplex(f"e{i % 3}") for i in range(6)},
    })
    collapse = constant_map(Y, point(), "*")
    collapse.check()
    assert compose_maps(f, collapse) == constant_map(X, point(), "*")
    assert compose_maps(identity_map(X), f) == f
    assert compose_maps(f, identity_map(Y)) == f


def test_map_check_catches_bad_assignment():
    X, Y = circle(3), circle(3)
    bad = SimplicialMap(X, Y, {
        **{f"v{i}": Simplex(f"v{i}") for i in range(3)},
        "e0": Simplex("e1"), "e1": Simplex("e1"), "e2": Simplex("e2"),
    })
    with pytest.raises(ConstructionError):
        bad.check()


def test_vertex_path():
    X = standard_simplex(2)
    s = X.degeneracy(X.simplex((0, 1, 2)), 1)
    assert vertex_path(s, 3) == (0, 1, 1, 2)


def test_json_round_trip_byte_stable():
    for X in (circle(3), rp2()):
        blob = json.dumps(complex_to_json(X), sort_keys=True, indent=1)
        Y = complex_from_json(json.loads(blob))
        blob2 = json.dumps(complex_to_json(Y), sort_keys=True, indent=1)
        assert blob == blob2
        assert Y.problems() == []


def test_json_rejects_malformed():
    with pytest.raises(ConstructionError):
        complex_from_json({"generators": []})
    with pytest.raises(ConstructionError):
        complex_from_json({"name": "x", "generators": [{"id": "a"}]})


@pytest.mark.parametrize("blob", [
    '{"name": "x", "generators": [{"id": "a", "dim": 0},'
    ' {"id": "e", "dim": 1, "faces": [{"id": ["a"]}, {"id": "a"}]}]}',
    '{"name": "x", "generators": [{"id": "a", "dim": 0},'
    ' {"id": "e", "dim": 1, "faces": [{"id": {"a": 0}}, {"id": "a"}]}]}',
    '{"name": "x", "generators": [{"id": ["a"], "dim": 0}]}',
    '{"name": "x", "generators": [{"id": {"a": 0}, "dim": 0}]}',
], ids=["face-list", "face-object", "generator-list", "generator-object"])
def test_json_rejects_list_and_object_ids(blob):
    with pytest.raises(ConstructionError):
        complex_from_json(json.loads(blob))


def test_json_rejects_ids_that_print_alike():
    # 1 and "1" would both be written "1", so neither reading keeps them
    blob = '{"name": "x", "generators": [{"id": 1, "dim": 0}, {"id": "1", "dim": 0}]}'
    with pytest.raises(ConstructionError, match="ids 1 and '1' both print as '1'"):
        complex_from_json(json.loads(blob))


def test_duplicate_generator_rejected():
    X = SimplicialSet("dup")
    X.add_generator("a", 0)
    with pytest.raises(ConstructionError):
        X.add_generator("a", 0)


def _add_after_freeze():
    X = SimplicialSet("p")
    X.add_generator("a", 0)
    X.freeze().add_generator("b", 0)


@pytest.mark.parametrize("build, match", [
    (_add_after_freeze, "frozen"),
    (lambda: SimplicialSet("n").add_generator("a", -1), "negative dimension"),
    (lambda: SimplicialSet("v").add_generator("a", 0, [Simplex("b")]), "vertex 'a' has faces"),
    (lambda: SimplicialSet("f").add_generator("e", 1, [Simplex("a")]), "has 1 faces"),
    (lambda: from_facets("r", [(0, 1, 1)]), "repeats a vertex"),
    (lambda: coface_map(2, 3), "coface index 3"),
    (lambda: codegeneracy_map(1, 2), "codegeneracy index 2"),
    (lambda: circle(3).face(Simplex("e0"), 2), "face index 2 out of range for dimension 1"),
    (lambda: circle(3).face(Simplex("v0"), 0), "face index 0 out of range for dimension 0"),
    (lambda: circle(3).degeneracy(Simplex("e0"), 2), "degeneracy index 2"),
    (lambda: cylinder(circle(3), 1).face_inclusion(2), "face index 2 out of range"),
    (lambda: product_map(cylinder(circle(3), 1).complex, cylinder(torus(), 1).complex,
                         identity_map(circle(3)), identity_map(standard_simplex(1))),
     "torusxD1 is not the product circle3xdelta1"),
    (lambda: product_map(cylinder(circle(3), 1).complex, cylinder(rp2(), 1).complex,
                         identity_map(rp2()), identity_map(standard_simplex(1))),
     "circle3xD1 is not the product rp2xdelta1"),
    (lambda: product_map(circle(3), cylinder(circle(3), 1).complex,
                         identity_map(circle(3)), identity_map(standard_simplex(1))),
     "circle3 is not the product circle3xdelta1"),
    (lambda: pair_map(circle(3), cylinder(circle(3), 1).complex, Simplex, Simplex,
                      "diagonal").pullback_table(0),
     r"circle3xD1: pair \('v0', \(\), 'v0', \(\)\) is not a generator"),
], ids=["frozen", "negative-dim", "vertex-faces", "face-count", "repeated-vertex",
        "coface", "codegeneracy", "face", "vertex-face", "degeneracy", "face-inclusion",
        "product-map-target", "product-map-source", "product-map-not-a-product",
        "pair-map-not-a-pair"])
def test_construction_and_index_errors_are_value_errors(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_from_facets_names_a_facet_whose_labels_do_not_sort():
    with pytest.raises(ConstructionError, match=r"m: facet \(0, 'a', 1\)"):
        from_facets("m", [(0, "a", 1)])
    with pytest.raises(ConstructionError, match=r"facet 5 "):
        from_facets("m", [5])
    with pytest.raises(ConstructionError, match=r"facet \(\[0\], \[1\]\)"):
        from_facets("m", [([0], [1])])
    with pytest.raises(ConstructionError, match="different facets"):
        from_facets("m", [(0, 1), ("a", "b")])


@pytest.mark.parametrize("kind, shape, chi", [
    ("genus2", {0: 15, 1: 51, 2: 34}, -2),
    ("rp2xS1", {0: 18, 1: 108, 2: 180, 3: 90}, 0),
    ("T3", {0: 27, 1: 189, 2: 324, 3: 162}, 0),
])
def test_ladder_fixtures(kind, shape, chi):
    X = build_standard(kind)
    assert X is build_standard(kind)
    assert X.name == kind and counts(X) == shape
    assert X.euler_characteristic() == chi
