"""The symmetric monoidal groupoid of based loops of maps into K(A, n+1).

Objects are end-trivial closed data on ``X x Delta^1`` (level-1 elements of
the mapping complex), morphisms are level-2 homotopies taken up to a level-3
witness relation, and every structural operation -- composition, inverses,
the sum, unitors, associator, braid -- is the missing face of a specific
Moore horn fill, written out in closed form, so the whole calculus is
algorithmic and exact.

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
outcome may change.  The hook moves fillers from degree 2 up only: the
face k of a level-3 fill moves by P_k, the face k of delta of a degree-n
cochain on generators of X x Delta^3 whose simplex factor covers the three
vertices other than k, and in degree 1 no generator does, so a degree-1
operation draws no random numbers and builds no coboundary at all.
Genuinely nontrivial coherence data lives in the synthetic instances
checked by the monoidal-category module.

The closed forms.  Moore's filler (em.moore_fill; May, Simplicial Objects
in Algebraic Topology, section 17) is a recurrence in the faces and
degeneracies s_j = M.degeneracy(., j).  Every horn behind a cell here has
a zero face or degenerate faces on end-trivial data, so the simplicial
identities (d_i s_j = s_j d_{i-1} for i > j + 1, d_i s_j = s_{j-1} d_i for
i < j, d_j s_j = d_{j+1} s_j = id) and d_1 f = 0 on objects collapse it to
a few terms.  For compose, the level-3 horn (0, k, _, h) fills to
w = s_1 k + s_2 (h - s_1 b), b the middle object, and the face read is
d_2 w = h + k - s_1 b.  With P_k the face k of the perturbation (above):

    oplus_objects(f, g)       = (f + g, s_0 g + s_1 f)
    compose(h: a->b, k: b->c) = h + k - s_1 b + P_2
    inverse(h: f->g)          = s_1 f + s_1 g - h + P_1
    oplus_morphisms(l, r)     = l + r - P_2 + P_1 + P_2'  (drawn 2, 1, 2)
    left_unitor(f)            = s_1 f + P_1
    right_unitor(f)           = s_1 f + P_2
    associator(a, b, c)       = s_1 (a + b + c) - P_2 + P_1  (drawn 2, 1)
    from_square, upper half   = s_1 m + s_0 t - U + P_1

where U is the upper triangle's data, m = d_1 U the diagonal and t the
top.  A multi-step recipe sees an earlier P only with sign +-1, because
d_1 of an interior coboundary's face vanishes.  tests/reference_fill.py
keeps the fill recipes, and the tests check these forms against them bit
for bit, Random state included.  No horn check reads the arguments, so
every operation checks that each object or morphism it is given lies over
this groupoid's base, ring and degree, and raises ValueError otherwise.

The MapObject and Homotopy2 constructors validate every object and
morphism they are given, on every call: closedness mod the ring
(cochains.is_closed), then every face at once through the mapping complex's
boundary gather, compared slice by slice in the order the error messages
name them.  The structural operations (unit, the sums, identity, compose,
inverse, the unitors, associator, braid) and from_square validate each
distinct cell once per groupoid: they compute a cell's data (and draw its
perturbation) first, then look it up in a memo keyed on the object data,
or on (data, source data, target data) for a homotopy, and on a miss build
it through the public constructor.  The samplers, object and from_cocycle
use the constructors directly.  The memo holds at most _CELL_MEMO_SIZE
cells and is cleared when full, so a long-lived groupoid does not grow
with every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable

from .cochains import (Cochain, Coefficients, INTEGERS, coboundary,
                       fiber_integrate, is_closed, pullback, random_cochain)
from .cohomology import (CoboundaryObstruction, cohomology, face_pins, solve_closed_extension,
                         solve_relative_coboundary)
from .complexes import (Simplex, SimplicialMap, SimplicialSet, cached_on, codegeneracy_map,
                        cylinder, degenerate, derived, pair_map, vertex_path)
from .em import MappingComplex, e_section, loop_integrate
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
        if data.coeffs is not groupoid.coeffs and data.coeffs != groupoid.coeffs:
            raise ValueError(f"object data must have {groupoid.coeffs.label()} coefficients")
        if not is_closed(data):
            raise ValueError("object data must be closed")
        if any(maps.boundary(data)):
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
        if not is_closed(data):
            raise ValueError("homotopy data must be closed")
        faces, n = maps.boundary(data), len(source.data.vec)
        if not _restricts(data, faces[2 * n:], source.data):
            raise ValueError("face 2 must restrict to the source")
        if not _restricts(data, faces[n:2 * n], target.data):
            raise ValueError("face 1 must restrict to the target")
        if any(faces[:n]):
            raise ValueError("face 0 must vanish")
        self.source = source
        self.target = target
        self.data = data


def _restricts(data: Cochain, face: tuple, end: Cochain) -> bool:
    """Is the face slice of level-2 data the object data end, as the
    cochains would compare?  Complex and degree already agree."""
    return face == end.vec and (data.coeffs is end.coeffs or data.coeffs == end.coeffs)


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

# validated cells one groupoid keeps for its own operations (one coherence
# trial on circle(12) holds under a hundred)
_CELL_MEMO_SIZE = 1024

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
        self._cells: dict = {}  # key -> MapObject or Homotopy2 validated for it
        self._perturbs: dict[int, bool] = {}  # keep -> does P_keep draw?

    # -- object constructors ----------------------------------------------

    def unit(self) -> MapObject:
        return self._object(self.maps.zero(1))

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
                z = z + gen.map_values(lambda v: c * v, self.coeffs)
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

    def _perturbed(self, data: Cochain, keep: int, sign: int = 1) -> Cochain:
        """data + sign P_keep, where P_keep is the face ``keep`` of an
        interior coboundary on X x Delta^3: what perturbing the level-3
        fill whose missing face is ``keep`` adds to that face.

        P_keep is absent, and draws nothing, when the groupoid does not
        perturb or no generator is eligible (every fill in degree 1); that
        is decided once per groupoid and keep.
        """
        if self.perturb is None:
            return data
        draws = self._perturbs.get(keep)
        if draws is None:
            draws = self._perturbs[keep] = bool(_covering(
                self.maps.level_complex(3), self.degree, frozenset(range(4)) - {keep}))
        if not draws:
            return data
        P = self.maps.face(self._interior_coboundary(3, self.perturb, keep=keep), keep)
        return data + P if sign > 0 else data - P

    def _own(self, *cells) -> None:
        """Raise ValueError unless every object or morphism belongs to this
        groupoid, the rule Homotopy2 applies to its source and target: a
        second groupoid over the same base, ring and degree is another
        groupoid."""
        for x in cells:
            if x.groupoid is not self:
                raise ValueError(f"{x!r} does not belong to this groupoid over "
                                 f"{self.base.name} in degree {self.degree} with "
                                 f"{self.coeffs.label()} coefficients")

    def _object(self, data: Cochain) -> MapObject:
        """The object on data, validated by MapObject once per groupoid."""
        f = self._cells.get(data)
        return f if f is not None else self._keep(data, MapObject(self, data))

    def _morphism(self, source: MapObject, target: MapObject,
                  data: Cochain) -> HomotopyClass:
        """The morphism source -> target on data, validated by Homotopy2
        once per groupoid; source and target are this groupoid's."""
        key = (data, source.data, target.data)
        h = self._cells.get(key)
        return HomotopyClass(h if h is not None
                             else self._keep(key, Homotopy2(source, target, data)))

    def _keep(self, key, cell):
        cells = self._cells
        if len(cells) >= _CELL_MEMO_SIZE:
            cells.clear()
        cells[key] = cell
        return cell

    def _sum(self, f: MapObject, g: MapObject) -> MapObject:
        return self._object(f.data + g.data)

    # -- groupoid structure -----------------------------------------------

    def identity(self, f: MapObject) -> HomotopyClass:
        self._own(f)
        return self._morphism(f, f, self.maps.degeneracy(f.data, 1))

    def compose(self, first: HomotopyClass, second: HomotopyClass) -> HomotopyClass:
        """first then second; the middle objects must carry equal data."""
        self._own(first, second)
        if first.target != second.source:
            raise ValueError("middle objects differ")
        data = first.rep.data + second.rep.data - self.maps.degeneracy(second.source.data, 1)
        return self._morphism(first.source, second.target, self._perturbed(data, 2))

    def inverse(self, c: HomotopyClass) -> HomotopyClass:
        self._own(c)
        M, f, g = self.maps, c.source, c.target
        data = M.degeneracy(f.data, 1) + M.degeneracy(g.data, 1) - c.rep.data
        return self._morphism(g, f, self._perturbed(data, 1))

    # -- monoidal structure -----------------------------------------------

    def oplus_objects(self, f: MapObject, g: MapObject) -> tuple[MapObject, Cochain]:
        """The sum of two objects and the 2-simplex witnessing it.

        The witness carries f on edge (0,1), g on (1,2) and the sum on
        (0,2).  It is deterministic even under perturbation so that
        repeated sums of the same objects agree on the nose.
        """
        self._own(f, g)
        M = self.maps
        return self._sum(f, g), M.degeneracy(g.data, 0) + M.degeneracy(f.data, 1)

    def oplus_morphisms(self, left: HomotopyClass,
                        right: HomotopyClass) -> HomotopyClass:
        """The sum of two morphisms, by the three-step filler recipe: the
        sum's witness moved by P_2, then the half step and the lower step."""
        self._own(left, right)
        data = self._perturbed(left.rep.data + right.rep.data, 2, -1)
        data = self._perturbed(self._perturbed(data, 1), 2)
        return self._morphism(self._sum(left.source, right.source),
                              self._sum(left.target, right.target), data)

    def left_unitor(self, f: MapObject) -> HomotopyClass:
        """unit (+) f -> f."""
        self._own(f)
        data = self._perturbed(self.maps.degeneracy(f.data, 1), 1)
        return self._morphism(self._sum(self.unit(), f), f, data)

    def right_unitor(self, f: MapObject) -> HomotopyClass:
        """f (+) unit -> f."""
        self._own(f)
        data = self._perturbed(self.maps.degeneracy(f.data, 1), 2)
        return self._morphism(self._sum(f, self.unit()), f, data)

    def associator(self, a: MapObject, b: MapObject,
                   c: MapObject) -> HomotopyClass:
        """(a+b)+c -> a+(b+c), by two fills drawing P_2 then P_1."""
        self._own(a, b, c)
        src = self._sum(self._sum(a, b), c)
        data = self._perturbed(self.maps.degeneracy(src.data, 1), 2, -1)
        return self._morphism(src, self._sum(a, self._sum(b, c)), self._perturbed(data, 1))

    def braid(self, f: MapObject, g: MapObject) -> HomotopyClass:
        """f+g -> g+f, as the unitor / interchange chain.

        The middle interchange step is a data-level equality here (object
        data adds commutatively), so it contributes an identity cell; the
        composite still exercises sums, inverses and composition.
        """
        self._own(f, g)
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
        return (is_closed(G)
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
        """(collapse, lower triangle, upper triangle, diagonal), each a
        pairing into a product.

        collapse is <pi_X pi_Y, q>, where q sends square vertices (a, b) to
        0, 1, 0, 2 (_Q_VERTEX): the bottom edge becomes the source edge, the
        top edge the target edge, the basepoint end degenerates and the far
        end lands on the zero face.  The triangle inclusions split the
        square along the diagonal: the lower one is <id x sigma_1, sigma_0>
        and the upper one <id x sigma_0, sigma_1>, each sigma read on the
        Delta^2 factor.  The diagonal is <id_Y, pi_Delta>.
        """
        S = self._square().complex

        def build():
            M = self.maps
            Y, T = M.level_complex(1), M.level_complex(2)
            base = cylinder(self.base, 1).projection.rule

            def path(key):
                (_, _, ga, wa), wA, gb, wb = key
                d = S.gen_dim(key)
                pa = vertex_path(Simplex(ga, apply_word(wa, wA)), d)
                pb = vertex_path(Simplex(gb, wb), d)
                return _delta_simplex(2, tuple(_Q_VERTEX[ab] for ab in zip(pa, pb)))
            collapse = pair_map(S, T, lambda key: degenerate(base(key[0]), key[1]), path,
                                "square_collapse")

            def triangle(j: int, name: str) -> SimplicialMap:
                sigma = codegeneracy_map(1, 1 - j).rule
                return pair_map(T, S, M.degeneracy_map(1, j).rule,
                                lambda key: degenerate(sigma(key[2]), key[3]), name)
            diag = pair_map(Y, S, Simplex, lambda key: Simplex(key[2], key[3]),
                            "square_diagonal")
            return collapse, triangle(1, "lower_triangle"), triangle(0, "upper_triangle"), diag
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
        the upper half U arrives transposed and is straightened by one
        fill, s_1 m + s_0 t - U + P_1 with m = d_1 U the diagonal and t the
        top.
        """
        if not is_closed(K):
            raise ValueError("square data must be closed")
        bottom, top, near, far = self.square_faces(K)
        if not near.is_zero() or not far.is_zero():
            raise ValueError("square data must vanish on both vertical ends")
        _, lower, upper, diag = self._square_maps()
        source = self._object(bottom)
        target = self._object(top)
        mid = self._object(pullback(diag, K))
        M = self.maps
        first = self._morphism(source, mid, pullback(lower, K))
        data = M.degeneracy(mid.data, 1) + M.degeneracy(top, 0) - pullback(upper, K)
        second = self._morphism(mid, target, self._perturbed(data, 1))
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
