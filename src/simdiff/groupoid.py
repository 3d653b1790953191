"""The symmetric monoidal groupoid of based loops of maps into K(A, n+1).

Objects are end-trivial closed data on ``X x Delta^1`` (level-1 elements of
the mapping complex), morphisms are level-2 homotopies taken up to a level-3
witness relation, and every structural operation -- composition, inverses,
the sum, unitors, associator, braid -- is a specific Moore horn fill, so the
whole calculus is algorithmic and exact.

Equality of morphism classes is a decision procedure: the difference of two
parallel representatives lives on the generators whose simplex-factor path
covers the triangle, and it is a witnessed coboundary there or refuted by an
integral functional.  One Smith form per base complex, degree and ring
answers every later comparison.

In this model the object sum is strictly associative, commutative and unital
at the data level, so the structural cells land in identity classes; the
point of running the coherence battery here is that a perturbation hook can
add interior coboundaries to every morphism-producing filler, and no class
outcome may change.  Genuinely nontrivial coherence data lives in the
synthetic instances checked by the monoidal-category module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .cochains import (Cochain, Coefficients, INTEGERS, coboundary,
                       fiber_integrate, pullback, random_cochain)
from .cohomology import (CoboundaryObstruction, CoboundaryWitness, cohomology,
                         delta_system, solve_coboundary_in)
from .complexes import (Simplex, SimplicialMap, SimplicialSet, cylinder,
                        identity_map, pair_canonical, product_map,
                        standard_simplex, vertex_path)
from .em import MappingComplex, e_section, loop_integrate, moore_fill
# smith_normal_form is unused here, but bench/tests/test_tracing.py checks
# that the tracer rewraps it in this module; drop it with that assertion
from .exact import System, smith_normal_form  # noqa: F401
from .report import Check, Report
from .words import apply_word, word_of_surjection


# -- objects and morphisms -------------------------------------------------


class MapObject:
    """A based loop of maps: closed, end-trivial data on the 1-cylinder."""

    __slots__ = ("groupoid", "data")

    def __init__(self, groupoid: "MappingGroupoid", data: Cochain):
        maps = groupoid.maps
        if maps.element_level(data) != 1:
            raise ValueError("object data must live on the 1-cylinder")
        if data.degree != groupoid.degree + 1:
            raise ValueError(f"object data must have degree {groupoid.degree + 1}")
        if not coboundary(data).is_zero():
            raise ValueError("object data must be closed")
        for i in (0, 1):
            if not maps.face(data, i).is_zero():
                raise ValueError("object data must vanish on both ends")
        self.groupoid = groupoid
        self.data = data

    def integral(self) -> Cochain:
        """Interval integration: the closed cocycle on X this loop presents."""
        return loop_integrate(self.data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MapObject) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"MapObject({self.groupoid.base.name}, deg {self.groupoid.degree})"


class Homotopy2:
    """A homotopy between objects: level-2 data with faces (source, target, 0)."""

    __slots__ = ("source", "target", "data")

    def __init__(self, source: MapObject, target: MapObject, data: Cochain):
        g = source.groupoid
        if target.groupoid is not g:
            raise ValueError("source and target belong to different groupoids")
        maps = g.maps
        if maps.element_level(data) != 2 or data.degree != g.degree + 1:
            raise ValueError("homotopy data must be level-2 of matching degree")
        if not coboundary(data).is_zero():
            raise ValueError("homotopy data must be closed")
        if maps.face(data, 2) != source.data:
            raise ValueError("face 2 must restrict to the source")
        if maps.face(data, 1) != target.data:
            raise ValueError("face 1 must restrict to the target")
        if not maps.face(data, 0).is_zero():
            raise ValueError("face 0 must vanish")
        self.source = source
        self.target = target
        self.data = data


class HomotopyClass:
    """A morphism: a homotopy remembered by one representative.

    Equality of classes is not structural; it is decided by the owning
    groupoid's compare/same_class.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: Homotopy2):
        self.rep = rep

    @property
    def source(self) -> MapObject:
        return self.rep.source

    @property
    def target(self) -> MapObject:
        return self.rep.target

    @property
    def groupoid(self) -> "MappingGroupoid":
        return self.rep.source.groupoid

    def integral(self) -> Cochain:
        """Triangle integration of the representative.

        Changing the representative changes the result by an exact term
        only, so the induced map to C/im(delta) is well defined.
        """
        g = self.groupoid
        return fiber_integrate(self.rep.data, cylinder(g.base, 2))

    def __repr__(self):
        g = self.groupoid
        return f"HomotopyClass({g.base.name}, deg {g.degree})"


@dataclass
class ClassComparison:
    """Decision on a pair of parallel morphisms, with checkable evidence.

    equal carries either a closed level-3 witness with the four pinned
    faces, or an obstruction functional on the interior level-2 generators.
    """

    equal: bool
    witness: Cochain | None = None
    obstruction: CoboundaryObstruction | None = None

    def to_json(self) -> dict:
        out: dict[str, Any] = {"equal": self.equal}
        if self.witness is not None:
            out["witness_support"] = len(self.witness.values)
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction.to_json()
        return out


# -- the interior equality oracle ------------------------------------------


def _interior(key, k: int) -> bool:
    """Does the product generator's simplex factor touch every vertex?"""
    return len(key[2]) == k + 1


# -- instance surface for the generic coherence battery --------------------


@dataclass
class SymMonGroupoidInstance:
    """A symmetric monoidal groupoid behind opaque handles.

    The coherence battery only ever calls these operations, so mapping
    groupoids and synthetic skeletal instances run through the same checks.
    ``eq`` decides morphism equality; ``random_morphism(rng, source)`` may
    pick its own target.
    """

    name: str
    unit: Any
    oplus: Callable[[Any, Any], Any]
    oplus_mor: Callable[[Any, Any], Any]
    identity: Callable[[Any], Any]
    compose: Callable[[Any, Any], Any]
    inverse: Callable[[Any], Any]
    associator: Callable[[Any, Any, Any], Any]
    left_unitor: Callable[[Any], Any]
    right_unitor: Callable[[Any], Any]
    braid: Callable[[Any, Any], Any]
    eq: Callable[[Any, Any], bool]
    source: Callable[[Any], Any]
    target: Callable[[Any], Any]
    sample_objects: Callable[[random.Random, int], list]
    random_morphism: Callable[[random.Random, Any], Any]


# -- the groupoid ----------------------------------------------------------

_Q_VERTEX = {(0, 0): 0, (1, 0): 1, (0, 1): 0, (1, 1): 2}


def _delta_simplex(k: int, path: tuple) -> Simplex:
    """The simplex of delta^k walking a weakly rising vertex path."""
    support = tuple(sorted(set(path)))
    pos = {v: i for i, v in enumerate(support)}
    return Simplex(support, word_of_surjection(tuple(pos[v] for v in path)))


class MappingGroupoid:
    """Based loops of maps X -> K(A, n+1) with their homotopy calculus.

    ``degree`` is n; object data has cochain degree n+1.  With ``perturb``
    set to a seeded Random, every morphism-producing filler gets an extra
    interior coboundary: representatives change, endpoints and classes
    must not.  Object-level fills stay deterministic either way so that
    sums of objects are reproducible.
    """

    def __init__(self, X: SimplicialSet, coeffs: Coefficients, n: int,
                 perturb: random.Random | None = None):
        if n < 0:
            raise ValueError("degree must be nonnegative")
        if coeffs.kind not in ("Z", "Q", "Zmod"):
            raise ValueError("groupoid coefficients must be Z, Q or Z/k")
        self.base = X
        self.coeffs = coeffs
        self.degree = n
        self.maps = MappingComplex(X, coeffs, n + 1)
        self.perturb = perturb

    # -- object constructors ----------------------------------------------

    def unit(self) -> MapObject:
        return MapObject(self, self.maps.zero(1))

    def object(self, data: Cochain) -> MapObject:
        return MapObject(self, data)

    def from_cocycle(self, w: Cochain) -> MapObject:
        """The loop presenting a closed degree-n cocycle on the base."""
        if w.complex is not self.base or w.degree != self.degree:
            raise ValueError("expected a base cocycle of the groupoid degree")
        return MapObject(self, e_section(w))

    def random_object(self, rng: random.Random) -> MapObject:
        """A seeded object: cohomology generators plus presentation noise."""
        n, X = self.degree, self.base
        z = Cochain.zero(X, n, self.coeffs)
        if n >= 1:
            z = z + coboundary(random_cochain(X, n - 1, self.coeffs, rng))
        for gen in cohomology(X, n, INTEGERS).generators:
            c = rng.randrange(-2, 3)
            if c:
                z = z + Cochain(X, n, self.coeffs,
                                {g: c * v for g, v in gen.values.items()})
        data = e_section(z)
        if rng.random() < 0.7:
            data = data + self._edge_coboundary(rng)
        return MapObject(self, data)

    def random_morphism(self, source: MapObject,
                        rng: random.Random) -> HomotopyClass:
        """A seeded morphism out of ``source``; the target comes with it."""
        M = self.maps
        P = cylinder(self.base, 2).complex
        q = self.degree + 1
        vals = {}
        for g in P.generators(q - 1):
            if {0, 2} <= set(g[2]) and rng.random() < 0.5:
                v = rng.randint(-3, 3)
                if v:
                    vals[g] = v
        data = M.degeneracy(source.data, 1) + coboundary(
            Cochain(P, q - 1, self.coeffs, vals))
        target = MapObject(self, M.face(data, 1))
        return HomotopyClass(Homotopy2(source, target, data))

    def _edge_coboundary(self, rng: random.Random) -> Cochain:
        """delta of a random end-trivial cochain on the 1-cylinder."""
        P = cylinder(self.base, 1).complex
        q = self.degree + 1
        vals = {}
        for g in P.generators(q - 1):
            if len(g[2]) == 2 and rng.random() < 0.5:
                v = rng.randint(-3, 3)
                if v:
                    vals[g] = v
        return coboundary(Cochain(P, q - 1, self.coeffs, vals))

    def _interior_coboundary(self, m: int, rng: random.Random,
                             keep: int) -> Cochain:
        """delta of a random cochain vanishing on every face but ``keep``.

        Support is restricted to generators whose simplex-factor path hits
        every vertex except possibly ``keep``, so for i != keep the face
        d_i of the result is zero and only the produced face moves, by an
        interior coboundary.
        """
        P = cylinder(self.base, m).complex
        q = self.degree + 1
        need = set(range(m + 1)) - {keep}
        vals = {}
        for g in P.generators(q - 1):
            if need <= set(g[2]) and rng.random() < 0.6:
                v = rng.randint(-3, 3)
                if v:
                    vals[g] = v
        return coboundary(Cochain(P, q - 1, self.coeffs, vals))

    def _fill(self, m: int, missing: int, faces: dict[int, Cochain]) -> Cochain:
        w = moore_fill(self.maps, m, missing, faces)
        if self.perturb is not None:
            w = w + self._interior_coboundary(m, self.perturb, keep=missing)
        return w

    # -- groupoid structure -----------------------------------------------

    def identity(self, f: MapObject) -> HomotopyClass:
        return HomotopyClass(Homotopy2(f, f, self.maps.degeneracy(f.data, 1)))

    def compose(self, first: HomotopyClass, second: HomotopyClass) -> HomotopyClass:
        """first then second; the middle objects must carry equal data."""
        if first.target != second.source:
            raise ValueError("middle objects differ")
        w = self._fill(3, 2, {0: self.maps.zero(2),
                              1: second.rep.data,
                              3: first.rep.data})
        return HomotopyClass(Homotopy2(first.source, second.target,
                                       self.maps.face(w, 2)))

    def inverse(self, c: HomotopyClass) -> HomotopyClass:
        f = c.source
        w = self._fill(3, 1, {0: self.maps.zero(2),
                              2: self.maps.degeneracy(f.data, 1),
                              3: c.rep.data})
        return HomotopyClass(Homotopy2(c.target, f, self.maps.face(w, 1)))

    # -- monoidal structure -----------------------------------------------

    def oplus_objects(self, f: MapObject, g: MapObject) -> tuple[MapObject, Cochain]:
        """The sum of two objects and the 2-simplex witnessing it.

        The witness carries f on edge (0,1), g on (1,2) and the sum on
        (0,2).  This fill is deterministic even under perturbation so that
        repeated sums of the same objects agree on the nose.
        """
        sigma = moore_fill(self.maps, 2, 1, {0: g.data, 2: f.data})
        return MapObject(self, self.maps.face(sigma, 1)), sigma

    def oplus_morphisms(self, left: HomotopyClass,
                        right: HomotopyClass) -> HomotopyClass:
        """The sum of two morphisms, by the three-step filler recipe."""
        M = self.maps
        f0, g0 = left.source, left.target
        f1, g1 = right.source, right.target
        src, sigma = self.oplus_objects(f0, f1)
        tgt, _ = self.oplus_objects(g0, g1)
        s0f1 = M.degeneracy(f1.data, 0)
        tau = self._fill(3, 2, {0: s0f1, 1: sigma,
                                3: M.degeneracy(f0.data, 1)})
        upper = self._fill(3, 1, {0: M.degeneracy(f1.data, 1),
                                  2: left.rep.data + s0f1,
                                  3: M.face(tau, 2)})
        half = M.face(upper, 1)
        lower = self._fill(3, 2, {0: M.zero(2),
                                  1: M.degeneracy(g0.data, 1) + right.rep.data,
                                  3: half})
        return HomotopyClass(Homotopy2(src, tgt, M.face(lower, 2)))

    def left_unitor(self, f: MapObject) -> HomotopyClass:
        """unit (+) f -> f."""
        M = self.maps
        src, sigma = self.oplus_objects(self.unit(), f)
        w = self._fill(3, 1, {0: M.degeneracy(f.data, 1),
                              2: M.degeneracy(f.data, 0),
                              3: sigma})
        return HomotopyClass(Homotopy2(src, f, M.face(w, 1)))

    def right_unitor(self, f: MapObject) -> HomotopyClass:
        """f (+) unit -> f."""
        M = self.maps
        src, sigma = self.oplus_objects(f, self.unit())
        w = self._fill(3, 2, {0: M.zero(2),
                              1: M.degeneracy(f.data, 1),
                              3: sigma})
        return HomotopyClass(Homotopy2(src, f, M.face(w, 2)))

    def associator(self, a: MapObject, b: MapObject,
                   c: MapObject) -> HomotopyClass:
        """(a+b)+c -> a+(b+c)."""
        M = self.maps
        ab, _ = self.oplus_objects(a, b)
        src, sig_ab_c = self.oplus_objects(ab, c)
        bc, _ = self.oplus_objects(b, c)
        tgt, sig_a_bc = self.oplus_objects(a, bc)
        tau = self._fill(3, 2, {0: M.degeneracy(c.data, 0),
                                1: sig_ab_c,
                                3: M.degeneracy(ab.data, 1)})
        x2 = sig_a_bc + M.degeneracy(b.data, 1) - M.degeneracy(b.data, 0)
        kappa = self._fill(3, 1, {0: M.degeneracy(c.data, 1),
                                  2: x2,
                                  3: M.face(tau, 2)})
        return HomotopyClass(Homotopy2(src, tgt, M.face(kappa, 1)))

    def unitors_and_associator(self, f: MapObject, g: MapObject,
                               h: MapObject):
        """(left unitor of f, right unitor of f, associator (h+g)+f -> h+(g+f))."""
        return (self.left_unitor(f), self.right_unitor(f),
                self.associator(h, g, f))

    def braid(self, f: MapObject, g: MapObject) -> HomotopyClass:
        """f+g -> g+f, as the unitor / interchange chain.

        The middle interchange step is a data-level equality here (object
        data adds commutatively), so it contributes an identity cell; the
        composite still exercises sums, inverses and composition.
        """
        up = self.oplus_morphisms(self.inverse(self.right_unitor(f)),
                                  self.inverse(self.left_unitor(g)))
        down = self.oplus_morphisms(self.left_unitor(g), self.right_unitor(f))
        interchange = self.identity(up.target)
        return self.compose(self.compose(up, interchange), down)

    # -- class equality ---------------------------------------------------

    def _require_parallel(self, c0: HomotopyClass, c1: HomotopyClass) -> None:
        if c0.source != c1.source or c0.target != c1.target:
            raise ValueError("classes compare only between equal endpoints")

    def _solver(self) -> System:
        """delta Q = D restricted to the inside of X x Delta^2.

        Parallel-homotopy differences are supported on interior generators,
        and interior coboundaries stay interior, so the relative system
        pins every generator that misses a vertex of the triangle.  It is
        factored once; each comparison is a substitution.
        """
        P = cylinder(self.base, 2).complex
        q = self.degree + 1
        token = ("prism-boundary", q)
        if token not in P._cache:
            P._cache[token] = frozenset(g for d in (q - 1, q) for g in P.generators(d)
                                        if not _interior(g, 2))
        return delta_system(P, q - 1, P._cache[token], self.coeffs)

    def same_class(self, c0: HomotopyClass, c1: HomotopyClass) -> bool:
        self._require_parallel(c0, c1)
        diff = c1.rep.data - c0.rep.data
        if diff.is_zero():
            return True
        return isinstance(solve_coboundary_in(self._solver(), diff, self.coeffs),
                          CoboundaryWitness)

    def compare(self, c0: HomotopyClass, c1: HomotopyClass) -> ClassComparison:
        """Decide equality and build the evidence.

        Equal classes get a closed level-3 witness with faces
        (c1, c0, s0 target, s0 source); unequal ones an obstruction
        functional on the interior level-2 generators.
        """
        self._require_parallel(c0, c1)
        M = self.maps
        diff = c1.rep.data - c0.rep.data
        reflexive = M.degeneracy(c0.rep.data, 0)
        if diff.is_zero():
            return ClassComparison(True, witness=reflexive)
        got = solve_coboundary_in(self._solver(), diff, self.coeffs)
        if isinstance(got, CoboundaryObstruction):
            return ClassComparison(False, obstruction=got)
        witness = reflexive + coboundary(self._level3_pushforward(got.primitive))
        return ClassComparison(True, witness=witness)

    def _level3_pushforward(self, Q: Cochain) -> Cochain:
        """Copy interior 2-prism data onto the 0-face of the 3-prism."""
        inc = cylinder(self.base, 3).face_inclusion(0)
        vals = {}
        for g, v in Q.values.items():
            img = inc(Simplex(g))
            if img.word:
                raise AssertionError("interior generator degenerated under lift")
            vals[img.gen] = v
        return Cochain(inc.target, Q.degree, self.coeffs, vals)

    def verify_witness(self, c0: HomotopyClass, c1: HomotopyClass,
                       G: Cochain) -> bool:
        """Independently check a level-3 equality witness."""
        M = self.maps
        try:
            if M.element_level(G) != 3:
                return False
        except ValueError:
            return False
        if G.degree != self.degree + 1:
            return False
        s, t = c0.source, c0.target
        return (coboundary(G).is_zero()
                and M.face(G, 0) == c1.rep.data
                and M.face(G, 1) == c0.rep.data
                and M.face(G, 2) == M.degeneracy(t.data, 0)
                and M.face(G, 3) == M.degeneracy(s.data, 0))

    def verify_obstruction(self, c0: HomotopyClass, c1: HomotopyClass,
                           ob: CoboundaryObstruction) -> bool:
        """Check that a functional genuinely refutes the equality.

        The pairing must kill (or stay integral on) the coboundary of every
        interior generator one degree down, and fail on the difference.
        """
        if not ob.functional:
            return False
        diff = c1.rep.data - c0.rep.data
        if not ob.refutes(diff):
            return False
        P = cylinder(self.base, 2).complex
        q = self.degree + 1
        for g in P.generators(q - 1):
            if not _interior(g, 2):
                continue
            probe = ob.pairing(coboundary(Cochain(P, q - 1, INTEGERS, {g: 1})))
            if ob.ring == "Q":
                if probe != 0:
                    return False
            elif probe.denominator != 1:
                return False
        return True

    # -- the square presentation ------------------------------------------

    def _square(self):
        return cylinder(self.maps.level_complex(1), 1)

    def _square_maps(self) -> tuple[SimplicialMap, SimplicialMap,
                                    SimplicialMap, SimplicialMap]:
        """(collapse, lower triangle, upper triangle, diagonal).

        collapse sends square vertices (a, b) to 0, 1, 0, 2: the bottom
        edge becomes the source edge, the top edge the target edge, the
        basepoint end degenerates and the far end lands on the zero face.
        The triangle inclusions split the square along the diagonal.
        """
        S = self._square().complex
        cache = S._cache
        if "square_model" not in cache:
            Y = self.maps.level_complex(1)
            T = self.maps.level_complex(2)
            qimg = {}
            for key in S.generators():
                (gx, wx, ga, wa), wA, gb, wb = key
                d = S.gen_dim(key)
                sx = Simplex(gx, apply_word(wx, wA))
                pa = vertex_path(Simplex(ga, apply_word(wa, wA)), d)
                pb = vertex_path(Simplex(gb, wb), d)
                path = tuple(_Q_VERTEX[ab] for ab in zip(pa, pb))
                qimg[key] = pair_canonical(T, sx, _delta_simplex(2, path))
            collapse = SimplicialMap(S, T, qimg, "square_collapse")

            def triangle(vmap: dict, name: str) -> SimplicialMap:
                imgs = {}
                for key in T.generators():
                    gx, wx, gd, wd = key
                    d = T.gen_dim(key)
                    pd = vertex_path(Simplex(gd, wd), d)
                    sy = pair_canonical(
                        Y, Simplex(gx, wx),
                        _delta_simplex(1, tuple(vmap[v][0] for v in pd)))
                    imgs[key] = pair_canonical(
                        S, sy, _delta_simplex(1, tuple(vmap[v][1] for v in pd)))
                return SimplicialMap(T, S, imgs, name)

            lower = triangle({0: (0, 0), 1: (1, 0), 2: (1, 1)}, "lower_triangle")
            upper = triangle({0: (0, 0), 1: (0, 1), 2: (1, 1)}, "upper_triangle")
            dimg = {key: pair_canonical(S, Simplex(key), Simplex(key[2], key[3]))
                    for key in Y.generators()}
            diag = SimplicialMap(Y, S, dimg, "square_diagonal")
            cache["square_model"] = (collapse, lower, upper, diag)
        return cache["square_model"]

    def to_square(self, c: HomotopyClass) -> Cochain:
        """Present a morphism on (X x D1) x D1: bottom source, top target."""
        return pullback(self._square_maps()[0], c.rep.data)

    def square_faces(self, K: Cochain) -> tuple[Cochain, Cochain, Cochain, Cochain]:
        """(bottom, top, basepoint end, far end) restrictions of square data."""
        sq = self._square()
        Y = self.maps.level_complex(1)
        inner = cylinder(self.base, 1)
        one = identity_map(standard_simplex(1))
        S = sq.complex
        return (pullback(sq.face_inclusion(1), K),
                pullback(sq.face_inclusion(0), K),
                pullback(product_map(Y, S, inner.face_inclusion(1), one), K),
                pullback(product_map(Y, S, inner.face_inclusion(0), one), K))

    def from_square(self, K: Cochain) -> HomotopyClass:
        """Fold closed square data back into a triangle morphism.

        The lower triangle is already morphism-shaped onto the diagonal;
        the upper half arrives transposed and is straightened by one fill.
        """
        if not coboundary(K).is_zero():
            raise ValueError("square data must be closed")
        bottom, top, near, far = self.square_faces(K)
        if not near.is_zero() or not far.is_zero():
            raise ValueError("square data must vanish on both vertical ends")
        _, lower, upper, diag = self._square_maps()
        source = MapObject(self, bottom)
        target = MapObject(self, top)
        mid = MapObject(self, pullback(diag, K))
        M = self.maps
        first = HomotopyClass(Homotopy2(source, mid, pullback(lower, K)))
        w = self._fill(3, 1, {0: M.degeneracy(target.data, 1),
                              2: M.degeneracy(target.data, 0),
                              3: pullback(upper, K)})
        second = HomotopyClass(Homotopy2(mid, target, M.face(w, 1)))
        return self.compose(first, second)

    def square_integral(self, K: Cochain) -> Cochain:
        """Iterated interval integration of square data down to the base.

        On the collapse pullback of a morphism this equals minus the
        triangle integral: the two half-triangles of the square carry
        opposite shuffle signs and only the upper one survives.
        """
        return loop_integrate(loop_integrate(K))

    # -- reporting ---------------------------------------------------------

    def strictness_report(self, seed: int = 0) -> Report:
        """Data-level strictness of the object sum (a model fact, not an axiom).

        One sampled triple of objects, one check per law.
        """
        rng = random.Random(seed)
        a, b, c = (self.random_object(rng) for _ in range(3))
        ab = self.oplus_objects(a, b)[0]
        bc = self.oplus_objects(b, c)[0]
        laws = {
            "sum-is-data-sum": ab.data == a.data + b.data,
            "associative-on-data": (self.oplus_objects(ab, c)[0].data
                                    == self.oplus_objects(a, bc)[0].data),
            "commutative-on-data": self.oplus_objects(b, a)[0].data == ab.data,
            "unital-on-data": self.oplus_objects(self.unit(), a)[0].data == a.data,
        }
        return Report(f"strictness({self.base.name}, deg {self.degree})", 1, seed,
                      [Check(name, ok, 1) for name, ok in laws.items()])

    def as_instance(self) -> SymMonGroupoidInstance:
        """Package the groupoid for the generic coherence battery."""
        return SymMonGroupoidInstance(
            name=f"maps({self.base.name}, deg {self.degree}, {self.coeffs.label()})",
            unit=self.unit(),
            oplus=lambda a, b: self.oplus_objects(a, b)[0],
            oplus_mor=self.oplus_morphisms,
            identity=self.identity,
            compose=self.compose,
            inverse=self.inverse,
            associator=self.associator,
            left_unitor=self.left_unitor,
            right_unitor=self.right_unitor,
            braid=self.braid,
            eq=self.same_class,
            source=lambda c: c.source,
            target=lambda c: c.target,
            sample_objects=lambda rng, k: [self.random_object(rng)
                                           for _ in range(k)],
            random_morphism=lambda rng, src: self.random_morphism(src, rng),
        )
