"""The symmetric monoidal groupoid of based loops of maps into K(A, n+1).

Objects are end-trivial closed data on ``X x Delta^1`` (level-1 elements of
the mapping complex), morphisms are level-2 homotopies taken up to a level-3
witness relation, and every structural operation -- composition, inverses,
the sum, unitors, associator, braid -- is a specific Moore horn fill, so the
whole calculus is algorithmic and exact.

Homotopy existence and equality of morphism classes are decided on the
base.  The difference D of two parallel representatives lives on the
generators whose simplex-factor path covers the triangle: it is a closed
relative cochain of (X x Delta^2, X x dDelta^2).  Through the
Eilenberg-Zilber contraction of those cochains onto the base's
(cohomology.solve_relative_coboundary), D is a coboundary there exactly
when its integral over the triangle is one on X, which the base's cached
coboundary system decides; the primitive is h D + g b, with h the dual of
Shih's homotopy (one plan per degree, cached on X x Delta^2) and g the
relative section.  A homotopy between objects is found the same way from
the faces it must have.  No linear system on a product is ever factored.

In this model the object sum is strictly associative, commutative and unital
at the data level, so the structural cells land in identity classes; the
point of running the coherence battery here is that a perturbation hook can
add interior coboundaries to every morphism-producing filler, and no class
outcome may change.  The hook moves fillers from degree 2 up only: a
level-3 fill is perturbed by delta of a degree-n cochain on generators of
X x Delta^3 whose simplex factor covers three vertices, and in degree 1
no generator does, so a degree-1 fill draws no random numbers and builds
no coboundary at all.  Genuinely nontrivial coherence data lives in the
synthetic instances checked by the monoidal-category module.

Every fill goes through em.moore_fill, whose compiled plans are cached on
the cylinders of the base: a new groupoid on the same base, of any ring,
reuses them.  The MapObject and Homotopy2 constructors validate every
object and morphism they are given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable

from .cochains import (Cochain, Coefficients, INTEGERS, coboundary,
                       fiber_integrate, pullback, random_cochain)
from .cohomology import (CoboundaryObstruction, cohomology, face_pins, solve_closed_extension,
                         solve_relative_coboundary)
from .complexes import (Simplex, SimplicialMap, SimplicialSet, cached_on, cylinder,
                        derived, pair_canonical, vertex_path)
from .em import MappingComplex, e_section, loop_integrate, moore_fill
# smith_normal_form is unused here, but bench/tests/test_tracing.py checks
# that the tracer rewraps it in this module; drop it with that assertion
from .exact import smith_normal_form  # noqa: F401
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


@derived("covering")
def _covering(P: SimplicialSet, degree: int, need: frozenset) -> tuple[int, ...]:
    """Positions of the generators of one degree of P = X x Delta^m whose
    simplex factor covers ``need``."""
    return tuple(p for p, g in enumerate(P.generators(degree)) if need <= set(g[2]))


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
    must not.  In degree 1 that coboundary is zero (no degree-1 generator
    of X x Delta^3 covers three vertices of Delta^3), so only degrees 2
    and up perturb anything.  Object-level fills stay deterministic either
    way so that sums of objects are reproducible.
    """

    def __init__(self, X: SimplicialSet, coeffs: Coefficients, n: int,
                 perturb: random.Random | None = None):
        if n < 0:
            raise ValueError("degree must be nonnegative")
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
        data = M.degeneracy(source.data, 1) + self._random_coboundary(
            2, frozenset((0, 2)), rng, 0.5)
        target = MapObject(self, M.face(data, 1))
        return HomotopyClass(Homotopy2(source, target, data))

    def _edge_coboundary(self, rng: random.Random) -> Cochain:
        """delta of a random end-trivial cochain on the 1-cylinder."""
        return self._random_coboundary(1, frozenset((0, 1)), rng, 0.5)

    def _interior_coboundary(self, m: int, rng: random.Random,
                             keep: int) -> Cochain:
        """delta of a random cochain vanishing on every face but ``keep``.

        Support is restricted to generators whose simplex-factor path hits
        every vertex except possibly ``keep``, so for i != keep the face
        d_i of the result is zero and only the produced face moves, by an
        interior coboundary.
        """
        return self._random_coboundary(
            m, frozenset(range(m + 1)) - {keep}, rng, 0.6)

    def _random_coboundary(self, m: int, need: frozenset, rng: random.Random,
                           density: float) -> Cochain:
        """delta of a random cochain on X x Delta^m, one degree below the
        object data, supported where the simplex factor covers ``need``.

        Each eligible generator, in generator order, draws rng.random()
        and, when that falls below density, a value in -3..3.
        """
        P = self.maps.level_complex(m)
        q = self.degree + 1
        norm = self.coeffs.normalize
        vec = [self.coeffs.zero] * len(P.generators(q - 1))
        for p in _covering(P, self.degree, need):
            if rng.random() < density:
                vec[p] = norm(rng.randint(-3, 3))
        return coboundary(Cochain._trusted(P, q - 1, self.coeffs, vec))

    def _fill(self, m: int, missing: int, faces: dict[int, Cochain]) -> Cochain:
        """The Moore filler, plus an interior coboundary under perturbation.

        Where no generator is eligible (every level-3 fill in degree 1) that
        coboundary is zero, so it is neither drawn nor built.
        """
        w = moore_fill(self.maps, m, missing, faces)
        if self.perturb is not None and _covering(self.maps.level_complex(m), self.degree,
                                                  frozenset(range(m + 1)) - {missing}):
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

    def homotopy(self, src: MapObject,
                 tgt: MapObject) -> Cochain | CoboundaryObstruction:
        """One closed level-2 filler from src to tgt, or what refutes one.

        The faces are lid 0 on X x Delta^1, face 1 the target and face 2
        the source; cohomology.solve_closed_extension pins them as K0 and
        solves over the groupoid's ring through the contraction of the
        relative cochains of X x Delta^2: with y = delta K0 and delta b =
        fiber_integrate(y) on the base, the filler is K0 - h y - g b, h the
        dual of Shih's homotopy (cached per degree on X x Delta^2) and g =
        em.relative_section.  Every other filler differs from this one by
        the relative section of a cocycle one degree down (the cross
        product with the triangle's relative class; Hatcher, Algebraic
        Topology, 3.B) plus a coboundary vanishing on the faces.
        """
        cyl2 = cylinder(self.base, 2)
        pinned = face_pins(cyl2, {0: self.maps.zero(1), 1: tgt.data, 2: src.data})
        return solve_closed_extension(cyl2, pinned, self.coeffs)

    # -- class equality ---------------------------------------------------

    def _require_parallel(self, c0: HomotopyClass, c1: HomotopyClass) -> None:
        if c0.source != c1.source or c0.target != c1.target:
            raise ValueError("classes compare only between equal endpoints")

    def _primitive(self, c0: HomotopyClass,
                   c1: HomotopyClass) -> Cochain | CoboundaryObstruction:
        """Q with delta Q = D = c1 - c0 in the relative cochains, or what
        refutes one: D vanishes on the three faces, so with delta b =
        fiber_integrate(D) on the base, Q = h D + g b
        (cohomology.solve_relative_coboundary)."""
        self._require_parallel(c0, c1)
        return solve_relative_coboundary(c1.rep.data - c0.rep.data, cylinder(self.base, 2))

    def same_class(self, c0: HomotopyClass, c1: HomotopyClass) -> bool:
        """Are two parallel morphisms equal?  Exactly when the integral of
        their difference over the triangle is a coboundary on the base,
        which the base's cached coboundary system decides."""
        return not isinstance(self._primitive(c0, c1), CoboundaryObstruction)

    def compare(self, c0: HomotopyClass, c1: HomotopyClass) -> ClassComparison:
        """Decide equality and build the evidence.

        Equal classes get a closed level-3 witness with faces
        (c1, c0, s0 target, s0 source): s0 c0 plus delta of Q = h D + g b
        placed on face 0 of X x Delta^3.  Unequal ones get the base
        certificate for fiber_integrate(D) composed with the integral, a
        functional on the interior level-2 generators.
        """
        got = self._primitive(c0, c1)
        if isinstance(got, CoboundaryObstruction):
            return ClassComparison(False, obstruction=got)
        lift = face_pins(cylinder(self.base, 3), {0: got})
        return ClassComparison(True, witness=self.maps.degeneracy(c0.rep.data, 0)
                               + coboundary(lift))

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
        """Check that a functional genuinely refutes the equality: its sense
        must be one this ring's solve gives ("Q" over Q, "Z" or "Q" over Z,
        "Z/k" over Z/k), and it must certify the difference against the
        coboundary of every interior generator one degree down and, over
        Z/k, k times the unit cochain on each generator it reads."""
        k = self.coeffs.modulus
        senses = {"Q": ("Q",), "Z": ("Z", "Q")}.get(self.coeffs.kind, (self.coeffs.label(),))
        if ob.ring not in senses:
            return False
        P = cylinder(self.base, 2).complex
        q = self.degree + 1
        index = P.gen_index(q)
        spanning = chain((coboundary(Cochain(P, q - 1, INTEGERS, {g: 1}))
                          for g in P.generators(q - 1) if _interior(g, 2)),
                         (Cochain(P, q, INTEGERS, {g: k}) for g in ob.functional
                          if k and g in index))
        return ob.certifies(c1.rep.data - c0.rep.data, spanning)

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

        def build():
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
            return collapse, lower, upper, diag
        return cached_on(S, "square_model", build)

    def to_square(self, c: HomotopyClass) -> Cochain:
        """Present a morphism on (X x D1) x D1: bottom source, top target."""
        return pullback(self._square_maps()[0], c.rep.data)

    def square_faces(self, K: Cochain) -> tuple[Cochain, Cochain, Cochain, Cochain]:
        """(bottom, top, basepoint end, far end) restrictions of square data."""
        sq = self._square()
        inner = cylinder(self.base, 1)
        return (pullback(sq.face_inclusion(1), K),
                pullback(sq.face_inclusion(0), K),
                pullback(inner.face_inclusion(1).cylinder_map(1), K),
                pullback(inner.face_inclusion(0).cylinder_map(1), K))

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
