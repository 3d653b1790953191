"""Closed-form characters of map groupoids, with corrected pullbacks.

Objects of a mapping groupoid integrate to closed cochains on the base and
homotopies integrate one degree down, so the closed cochains form a
symmetric monoidal groupoid of their own and integration is a monoidal
functor into it.  Three character models share that shape: the plain one,
a sheared one differing by the coboundary of a fixed degree-lowering map,
and one carried by the halved model of the base.  Pullback along a base
map is strict for the first two and acquires an explicit correction term,
with staircase primitives, for the third.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Mapping

from .cochains import (
    Cochain,
    Coefficients,
    INTEGERS,
    RATIONALS,
    coboundary,
    fiber_integrate,
    is_closed,
    pullback,
    random_cochain,
)
from .cohomology import (
    CoboundaryObstruction,
    cohomology,
    is_coboundary,
)
from .complexes import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    cached_on,
    circle,
    compose_maps,
    constant_map,
    cylinder,
    derived,
    identity_map,
    point,
)
from .em import relative_section
from .groupoid import (
    HomotopyClass,
    Homotopy2,
    MapObject,
    MappingGroupoid,
    SymMonGroupoidInstance,
)
from .moncat import (
    AdjointEquivalenceData,
    MonFunctor,
    StrictTransformation,
    TransformationArrow,
    TransformationNode,
    check_monoidal_functor,
    weak_inverse,
)
from .report import Check, Report, sampled
from .subdiv import (
    chain_primitive,
    comparison,
    covering,
    halving,
    homotopy_chain,
    lift_map,
    rotation,
    subdivide,
    transfer,
    vertex_inclusion,
)


def rational_form(c: Cochain) -> Cochain:
    """The cochain with values embedded in the rationals."""
    if c.coeffs.kind == "Q":
        return c
    if c.coeffs.kind != "Z":
        raise ValueError("only integral cochains embed in rational forms")
    return c.map_values(Fraction, RATIONALS)


def shear(X: SimplicialSet, z: Cochain) -> Cochain:
    """A fixed degree-lowering linear map: push each value to its 0-face.

    Values on generators whose 0-face is degenerate are dropped.  Used to
    build a character model differing from the plain one by coboundaries.
    """
    if z.degree < 1:
        raise ValueError("shear needs degree >= 1")
    vals: dict[Hashable, object] = {}
    for g, v in z.values.items():
        f = X.face(Simplex(g), 0)
        if not f.word:
            vals[f.gen] = vals.get(f.gen, 0) + v
    return Cochain(X, z.degree - 1, z.coeffs, vals)


def _embedded_generators(X: SimplicialSet, degree: int,
                         coeffs: Coefficients) -> list[Cochain]:
    gens = cohomology(X, degree, INTEGERS).generators
    if coeffs.kind == "Q":
        return [rational_form(g) for g in gens]
    return gens


# -- the groupoid of closed cochains ---------------------------------------


@dataclass(frozen=True)
class CocycleMorphism:
    """An arrow between closed cochains: eta with d(eta) = target - source."""

    source: Cochain
    target: Cochain
    eta: Cochain


class CocycleGroupoid:
    """Closed degree-n cochains on a base, arrows one degree down.

    Two parallel arrows are equal when their eta data differ by a
    coboundary; composition adds, the sum of objects is the cochain sum,
    and every structure cell is an identity.
    """

    def __init__(self, X: SimplicialSet, degree: int, coeffs: Coefficients):
        if degree < 1:
            raise ValueError("cocycle groupoids need degree >= 1")
        if coeffs.kind not in ("Z", "Q"):
            raise ValueError("cocycle groupoids are taken over Z or Q")
        self.base = X
        self.degree = degree
        self.coeffs = coeffs

    # -- objects and arrows ------------------------------------------------

    def zero(self) -> Cochain:
        return Cochain.zero(self.base, self.degree, self.coeffs)

    def object(self, z: Cochain) -> Cochain:
        if z.complex is not self.base or z.degree != self.degree:
            raise ValueError("object must be a base cochain of the right degree")
        if z.coeffs != self.coeffs:
            raise ValueError("object has the wrong coefficients")
        if not is_closed(z):
            raise ValueError("objects must be closed")
        return z

    def morphism(self, source: Cochain, target: Cochain,
                 eta: Cochain) -> CocycleMorphism:
        if (coboundary(eta) - (target - source)).is_zero():
            return CocycleMorphism(source, target, eta)
        raise ValueError("eta does not cobound target - source")

    def identity(self, z: Cochain) -> CocycleMorphism:
        return CocycleMorphism(z, z, Cochain.zero(self.base, self.degree - 1,
                                                  self.coeffs))

    def compose(self, first: CocycleMorphism,
                second: CocycleMorphism) -> CocycleMorphism:
        if first.target != second.source:
            raise ValueError("arrows do not meet end to end")
        return CocycleMorphism(first.source, second.target,
                               first.eta + second.eta)

    def inverse(self, m: CocycleMorphism) -> CocycleMorphism:
        return CocycleMorphism(m.target, m.source, -m.eta)

    def oplus_mor(self, a: CocycleMorphism,
                  b: CocycleMorphism) -> CocycleMorphism:
        return CocycleMorphism(a.source + b.source, a.target + b.target,
                               a.eta + b.eta)

    def eq(self, a: CocycleMorphism, b: CocycleMorphism) -> bool:
        return (a.source == b.source and a.target == b.target
                and is_coboundary(a.eta - b.eta))

    # -- sampling ----------------------------------------------------------

    def random_object(self, rng: random.Random) -> Cochain:
        z = self.zero()
        for g in _embedded_generators(self.base, self.degree, self.coeffs):
            z = z + g.scale(self.coeffs.normalize(rng.randint(-2, 2)))
        q = random_cochain(self.base, self.degree - 1, self.coeffs, rng)
        return z + coboundary(q)

    def random_morphism(self, rng: random.Random,
                        src: Cochain) -> CocycleMorphism:
        q = random_cochain(self.base, self.degree - 1, self.coeffs, rng)
        eta = q
        for g in _embedded_generators(self.base, self.degree - 1, self.coeffs):
            eta = eta + g.scale(self.coeffs.normalize(rng.randint(-1, 1)))
        return CocycleMorphism(src, src + coboundary(q), eta)

    # -- packaging ---------------------------------------------------------

    @derived("instance")
    def as_instance(self) -> SymMonGroupoidInstance:
        return SymMonGroupoidInstance(
            name=f"cocycles({self.base.name}, deg {self.degree},"
                 f" {self.coeffs.label()})",
            unit=self.zero(),
            oplus=lambda a, b: a + b,
            oplus_mor=self.oplus_mor,
            identity=self.identity,
            compose=self.compose,
            inverse=self.inverse,
            associator=lambda a, b, c: self.identity(a + b + c),
            left_unitor=self.identity,
            right_unitor=self.identity,
            braid=lambda a, b: self.identity(a + b),
            eq=self.eq,
            source=lambda m: m.source,
            target=lambda m: m.target,
            sample_objects=lambda rng, k: [self.random_object(rng)
                                           for _ in range(k)],
            random_morphism=self.random_morphism,
        )


# -- functors between cocycle groupoids ------------------------------------


def _cochain_functor(src: CocycleGroupoid, dst: CocycleGroupoid,
                     fn: Callable[[Cochain], Cochain], name: str) -> MonFunctor:
    """The strictly monoidal functor applying the cochain map fn to objects
    and to every part of an arrow."""
    return MonFunctor(
        name=name,
        source=src.as_instance(),
        target=dst.as_instance(),
        on_objects=fn,
        on_morphisms=lambda m: CocycleMorphism(fn(m.source), fn(m.target), fn(m.eta)),
        mu=lambda a, b: dst.identity(fn(a) + fn(b)),
        unit_cell=dst.identity(dst.zero()),
    )


def pullback_functor(src: CocycleGroupoid, dst: CocycleGroupoid,
                     f: SimplicialMap, name: str = "") -> MonFunctor:
    """Pullback along f as a strictly monoidal functor of cocycle groupoids."""
    if f.source is not dst.base or f.target is not src.base:
        raise ValueError("map does not run between the groupoid bases")
    return _cochain_functor(src, dst, lambda z: pullback(f, z), name or f"({f.name})^*")


def transfer_functor(base: SimplicialSet, src: CocycleGroupoid,
                     dst: CocycleGroupoid, name: str = "") -> MonFunctor:
    """Summing a halved model back to its base, as a monoidal functor."""
    if src.base is not subdivide(base) or dst.base is not base:
        raise ValueError("transfer runs from the halved model to the base")
    return _cochain_functor(src, dst, lambda z: transfer(base, z),
                            name or f"transfer({base.name})")


# -- integration as a monoidal functor -------------------------------------


def character_groupoid(G: MappingGroupoid) -> CocycleGroupoid:
    return cached_on(G.base, ("character-groupoid", G.degree),
                     CocycleGroupoid, G.base, G.degree, RATIONALS)


def object_character(G: MappingGroupoid, obj: MapObject) -> Cochain:
    return rational_form(obj.integral())


def morphism_character(G: MappingGroupoid, m: HomotopyClass) -> Cochain:
    return rational_form(m.integral())


def _mu_eta(G: MappingGroupoid, a: MapObject, b: MapObject) -> Cochain:
    """Integral of the sum witness, oriented from the sum to the summands."""
    sigma = G.oplus_objects(a, b)[1]
    return -rational_form(fiber_integrate(sigma, cylinder(G.base, 2)))


def character_functor(G: MappingGroupoid) -> MonFunctor:
    """Interval/triangle integration as a monoidal functor to closed forms.

    The structure cell on a pair of objects carries the triangle integral
    of the 2-simplex witnessing their sum; endpoints agree on the nose
    because object sums are data sums.
    """
    if G.coeffs.kind not in ("Z", "Q"):
        raise ValueError("characters need Z or Q coefficients")
    if G.degree < 1:
        raise ValueError("characters need degree >= 1")
    CG = character_groupoid(G)

    def on_objects(o: MapObject) -> Cochain:
        return object_character(G, o)

    def on_morphisms(m: HomotopyClass) -> CocycleMorphism:
        return CG.morphism(on_objects(m.source), on_objects(m.target),
                           morphism_character(G, m))

    def mu(a: MapObject, b: MapObject) -> CocycleMorphism:
        s = G.oplus_objects(a, b)[0]
        return CG.morphism(on_objects(s), on_objects(a) + on_objects(b),
                           _mu_eta(G, a, b))

    return MonFunctor(
        name=f"int({G.base.name}, deg {G.degree})",
        source=G.as_instance(),
        target=CG.as_instance(),
        on_objects=on_objects,
        on_morphisms=on_morphisms,
        mu=mu,
        unit_cell=CG.identity(CG.zero()),
    )


def integration_witness_report(G: MappingGroupoid, trials: int = 10,
                               seed: int = 0) -> Report:
    """Audit the character functor with literal defects and prism integrals.

    Beyond the class-level battery, the coherence squares are rechecked as
    literal cochain identities, and equality witnesses from the class
    oracle are integrated: their triangle-face alternating sums must
    vanish, and from degree two up the 3-prism integral of a witness must
    cobound that alternating sum.  The report holds the functor battery's
    checks followed by ``literal-defects-zero`` and ``witness-integrals``,
    both drawn from one generator.

    ``literal-defects-zero`` stays in this report: it audits the closed
    forms of the groupoid's cells, and holds on every unperturbed
    groupoid.  Each defect is the triangle integral of the cells'
    perturbation faces and nothing else.  Take composition: h + k - s_1 b
    + P_2 integrates to tri(h) + tri(k) + tri(P_2), since tri(s_1 b) = 0,
    so its defect is exactly tri(P_2).  P_2 is the face of an interior
    coboundary, so its integral is a coboundary on the base and every
    class-level check still holds, but from degree 2 up, where generators
    are eligible, it is not zero.  So a perturbed groupoid of degree 2 or
    more fails this one check, and only this one.
    """
    F = check_monoidal_functor(character_functor(G), trials=trials, seed=seed)
    rng = random.Random(seed + 101)
    cyl2 = cylinder(G.base, 2)
    cyl3 = cylinder(G.base, 3)
    n = G.degree

    def tri(c: Cochain) -> Cochain:
        return rational_form(fiber_integrate(c, cyl2))

    def mu_eta(x: MapObject, y: MapObject) -> Cochain:
        return _mu_eta(G, x, y)

    def literal_sample(rng: random.Random) -> dict:
        a, b, c = (G.random_object(rng) for _ in range(3))
        f = G.random_morphism(a, rng)
        g = G.random_morphism(f.target, rng)
        h = G.random_morphism(b, rng)
        return dict(a=a, b=b, c=c, f=f, g=g, h=h)

    def literal(a, b, c, f, g, h) -> bool:
        ab = G.oplus_objects(a, b)[0]
        bc = G.oplus_objects(b, c)[0]
        defects = [
            tri(G.compose(f, g).rep.data) - tri(f.rep.data) - tri(g.rep.data),
            tri(G.identity(a).rep.data),
            tri(G.oplus_morphisms(f, h).rep.data)
            + mu_eta(f.target, h.target)
            - mu_eta(f.source, h.source) - tri(f.rep.data) - tri(h.rep.data),
            mu_eta(ab, c) + mu_eta(a, b)
            - tri(G.associator(a, b, c).rep.data)
            - mu_eta(a, bc) - mu_eta(b, c),
            tri(G.left_unitor(a).rep.data) - mu_eta(G.unit(), a),
            tri(G.right_unitor(a).rep.data) - mu_eta(a, G.unit()),
            mu_eta(a, b) - tri(G.braid(a, b).rep.data) - mu_eta(b, a),
        ]
        return all(d.is_zero() for d in defects)

    def stokes_sample(rng: random.Random) -> dict:
        a = G.random_object(rng)
        f = G.random_morphism(a, rng)
        return dict(f=f, g=G.random_morphism(f.target, rng))

    def stokes(f, g) -> bool:
        one = G.compose(f, g)
        two = G.compose(f, G.compose(g, G.identity(g.target)))
        W = G.compare(one, two).witness
        if W is None or not is_closed(W):
            return False
        ints = [tri(G.maps.face(W, i)) for i in range(4)]
        alt = ints[0] - ints[1] + ints[2] - ints[3]
        if n >= 2:
            vol = rational_form(fiber_integrate(W, cyl3))
            return (coboundary(vol) - alt).is_zero()
        return alt.is_zero()

    return Report(f"character({G.base.name}, deg {n})", trials, seed, F.results + [
        sampled("literal-defects-zero", trials, literal_sample, literal, rng),
        sampled("witness-integrals", trials, stokes_sample, stokes, rng),
    ])


# -- cells with a prescribed integral --------------------------------------


def cell_with_integral(G: MappingGroupoid, source: MapObject,
                       target: MapObject, eta: Cochain) -> HomotopyClass:
    """A homotopy source -> target whose triangle integral is exactly eta.

    The groupoid's filler (MappingGroupoid.homotopy) plus the relative
    section of eta minus the filler's integral: a section integrates back
    to its cocycle exactly, and it is closed and zero on the faces when the
    difference is closed.  Over Z, Q and Z/k every cocycle is a combination
    of the base's cocycle basis, so a cell exists exactly then; otherwise
    this raises ValueError.
    """
    n, X = G.degree, G.base
    if eta.complex is not X or eta.degree != n - 1:
        raise ValueError("eta must live on the base one degree down")
    data = G.homotopy(source, target)
    if isinstance(data, CoboundaryObstruction):
        raise ValueError("the faces admit no closed filling")
    rest = eta - fiber_integrate(data, cylinder(X, 2))
    if not is_closed(rest):
        raise ValueError("no cell carries the requested integral class")
    return HomotopyClass(Homotopy2(source, target, data + relative_section(rest)))


def suspension_consistency(G: MappingGroupoid, trials: int = 25,
                           seed: int = 0) -> Report:
    """Characters of built cells recover the data they were built from.

    Each trial picks a closed base cocycle, a primitive step, and a closed
    shift; the cell built from that eta must integrate back to eta's
    class, and its endpoint characters must equal the chosen cocycles.
    Every trial runs; the one check's counterexample counts the failures.
    """
    n, X = G.degree, G.base
    CG = character_groupoid(G)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        w0 = Cochain.zero(X, n, G.coeffs)
        for g in _embedded_generators(X, n, G.coeffs):
            w0 = w0 + g.scale(G.coeffs.normalize(rng.randint(-2, 2)))
        q = random_cochain(X, n - 1, G.coeffs, rng)
        w1 = w0 + coboundary(q)
        eta = q
        for g in _embedded_generators(X, n - 1, G.coeffs):
            eta = eta + g.scale(G.coeffs.normalize(rng.randint(-1, 1)))
        src, tgt = G.from_cocycle(w0), G.from_cocycle(w1)
        H = cell_with_integral(G, src, tgt, eta)
        lower = CG.morphism(rational_form(w0), rational_form(w1),
                            rational_form(eta))
        lifted = CG.morphism(object_character(G, src),
                             object_character(G, tgt),
                             morphism_character(G, H))
        if not (CG.eq(lower, lifted)
                and object_character(G, src) == rational_form(w0)
                and object_character(G, tgt) == rational_form(w1)):
            failures += 1
    return Report(f"suspension({X.name}, deg {n})", trials, seed, [
        Check("suspension-consistency", failures == 0, trials,
              {"failures": failures} if failures else None)])


# -- restriction along base maps -------------------------------------------


def restrict_object(G: MappingGroupoid, f: SimplicialMap,
                    obj: MapObject) -> MapObject:
    """Pull an object back along a base map into the groupoid over f's source."""
    if obj.groupoid.base is not f.target or G.base is not f.source:
        raise ValueError("map does not run between the groupoid bases")
    if (G.coeffs, G.degree) != (obj.groupoid.coeffs, obj.groupoid.degree):
        raise ValueError("groupoids disagree in degree or coefficients")
    return G.object(pullback(f.cylinder_map(1), obj.data))


def restrict_morphism(G: MappingGroupoid, f: SimplicialMap,
                      m: HomotopyClass) -> HomotopyClass:
    src = restrict_object(G, f, m.source)
    tgt = restrict_object(G, f, m.target)
    data = pullback(f.cylinder_map(2), m.rep.data)
    return HomotopyClass(Homotopy2(src, tgt, data))


# -- character models ------------------------------------------------------


@dataclass(frozen=True)
class DiffCharacter:
    """One model's forms-side realization of a mapping groupoid.

    on_object lands in closed degree-n cochains on the carrier; on_morphism
    one degree down.  The boundary of a morphism's character is always the
    difference of its endpoint characters.  push carries a form on the base
    to the carrier: the realization on the halved model, the identity for
    the models whose carrier is the base.
    """

    model: str
    groupoid: MappingGroupoid
    carrier: SimplicialSet
    on_object: Callable[[MapObject], Cochain]
    on_morphism: Callable[[HomotopyClass], Cochain]
    push: Callable[[Cochain], Cochain] = lambda w: w

    @property
    def degree(self) -> int:
        return self.groupoid.degree


@dataclass(frozen=True)
class CharacterArrow:
    """A base map equipped for one character model.

    pull moves carrier forms of the source character to the destination
    side; correction measures the failure of pull to intertwine the object
    characters, and primitive witnesses the morphism-level equation.
    """

    f: SimplicialMap
    dest: DiffCharacter
    source: DiffCharacter
    lift: SimplicialMap
    correction: Callable[[Cochain], Cochain]
    primitive: Callable[[Cochain], Cochain | None]

    def pull(self, w: Cochain) -> Cochain:
        return pullback(self.lift, w)


class CharacterModel:
    """A family of characters of one kind over the supported bases.

    kind "plain": forms live on the base, integration as is.
    kind "sheared": forms on the base, shifted by the shear coboundary.
    kind "halved": forms on the halved model, realized through the parity
    opposite to the one lifted maps commute with.
    """

    KINDS = ("plain", "sheared", "halved")

    def __init__(self, kind: str, parities: Mapping[str, str] | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}")
        self.kind = kind
        self.parities = dict(parities or {})

    def parity(self, X: SimplicialSet) -> str:
        return self.parities.get(X.name, "floor")

    def character(self, G: MappingGroupoid) -> DiffCharacter:
        if self.kind == "plain":
            return DiffCharacter(
                self.kind, G, G.base,
                on_object=lambda o: object_character(G, o),
                on_morphism=lambda m: morphism_character(G, m))
        if self.kind == "sheared":
            X = G.base

            def obj(o: MapObject) -> Cochain:
                z = object_character(G, o)
                return z + coboundary(shear(X, z))

            def mor(m: HomotopyClass) -> Cochain:
                return (morphism_character(G, m)
                        + shear(X, object_character(G, m.target))
                        - shear(X, object_character(G, m.source)))

            return DiffCharacter(self.kind, G, X, obj, mor)
        h = halving(G.base, self.parity(G.base))
        return DiffCharacter(
            self.kind, G, h.sd,
            on_object=lambda o: h.realize(object_character(G, o)),
            on_morphism=lambda m: h.realize(morphism_character(G, m)),
            push=h.realize)

    def arrow(self, dest: DiffCharacter, source: DiffCharacter,
              f: SimplicialMap, pins: dict | None = None) -> CharacterArrow:
        """Equip f: M -> N, giving the pull from the model over N to M."""
        if (f.source is not dest.groupoid.base
                or f.target is not source.groupoid.base):
            raise ValueError("characters do not frame the map")
        M, N = f.source, f.target
        if self.kind in ("plain", "sheared"):
            if self.kind == "plain":
                def corr(z: Cochain) -> Cochain:
                    return Cochain.zero(M, z.degree - 1, z.coeffs)
            else:
                def corr(z: Cochain) -> Cochain:
                    return pullback(f, shear(N, z)) - shear(M, pullback(f, z))
            return CharacterArrow(f, dest, source, f, corr,
                                  primitive=lambda w: None)
        hm = halving(M, self.parity(M))
        hn = halving(N, self.parity(N))
        lift = lift_map(f, hm.comparison, hn.comparison, pins=pins)
        ga = compose_maps(lift, hn.opposite)
        gb = compose_maps(hm.opposite, f)
        chain = homotopy_chain(gb, ga)

        def corr(z: Cochain) -> Cochain:
            if chain and z.degree >= 1:
                return chain_primitive(chain, z)
            return Cochain.zero(hm.sd, z.degree - 1, z.coeffs)

        def prim(w: Cochain) -> Cochain | None:
            if chain and w.degree >= 1:
                return chain_primitive(chain, w)
            return None

        return CharacterArrow(f, dest, source, lift, corr, prim)


def arrow_equation_report(model: CharacterModel, arrow: CharacterArrow,
                          trials: int = 5, seed: int = 0) -> Report:
    """The pullback equations for one equipped arrow, checked exactly.

    Object-level: the correction cobounds the gap between pulling the
    character back and taking the character of the restriction.
    Morphism-level: the same square one degree down closes with the
    stated primitive as an explicit coboundary witness (absent primitives
    force a literally zero defect).  Identity arrows carry no correction.
    One check per equation, each over every trial.
    """
    G_N = arrow.source.groupoid
    G_M = arrow.dest.groupoid
    rng = random.Random(seed)
    object_eq = morphism_eq = identity_eq = True
    for _ in range(trials):
        c = G_N.random_object(rng)
        z = rational_form(c.integral())
        lhs = coboundary(arrow.correction(z))
        rhs = (arrow.pull(arrow.source.on_object(c))
               - arrow.dest.on_object(restrict_object(G_M, arrow.f, c)))
        if not (lhs - rhs).is_zero():
            object_eq = False
        H = G_N.random_morphism(c, rng)
        w = rational_form(H.integral())
        z0 = rational_form(H.source.integral())
        z1 = rational_form(H.target.integral())
        defect = (arrow.pull(arrow.source.on_morphism(H))
                  + arrow.correction(z0) - arrow.correction(z1)
                  - arrow.dest.on_morphism(
                      restrict_morphism(G_M, arrow.f, H)))
        witness = arrow.primitive(w)
        if witness is None:
            if not defect.is_zero():
                morphism_eq = False
        elif not (defect - coboundary(witness)).is_zero():
            morphism_eq = False
    ident = model.arrow(arrow.source, arrow.source, identity_map(G_N.base))
    rng2 = random.Random(seed + 1)
    for _ in range(trials):
        z = rational_form(G_N.random_object(rng2).integral())
        if not ident.correction(z).is_zero():
            identity_eq = False
    return Report(f"arrow({arrow.f.name}, {model.kind})", trials, seed, [
        Check("object-equation", object_eq, trials),
        Check("morphism-equation", morphism_eq, trials),
        Check("identity-trivial", identity_eq, trials)])


def composition_equation_report(model: CharacterModel,
                                char_M: DiffCharacter,
                                char_N: DiffCharacter,
                                char_P: DiffCharacter,
                                f: SimplicialMap, g: SimplicialMap,
                                trials: int = 5, seed: int = 0) -> Report:
    """Corrections compose along f then g against an independent equipment.

    The composite map gets its own lift and staircase; its correction must
    equal the pasted one, the f-correction of the pulled-back form plus
    the f-pull of the g-correction, as literal cochains.  The report's
    checks are ``corrections-compose`` (every trial) and ``lifts-compose``.
    """
    if f.target is not g.source:
        raise ValueError("maps do not compose")
    a_f = model.arrow(char_M, char_N, f)
    a_g = model.arrow(char_N, char_P, g)
    gf = compose_maps(f, g)
    a_gf = model.arrow(char_M, char_P, gf)
    G_P = char_P.groupoid
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        z = rational_form(G_P.random_object(rng).integral())
        pasted = a_f.correction(pullback(g, z)) + a_f.pull(a_g.correction(z))
        if not (a_gf.correction(z) - pasted).is_zero():
            ok = False
    if model.kind == "halved":
        lifts_compose = a_gf.lift == compose_maps(a_f.lift, a_g.lift)
    else:
        lifts_compose = a_gf.lift == gf
    return Report(f"composition({gf.name}, {model.kind})", trials, seed, [
        Check("corrections-compose", ok, trials),
        Check("lifts-compose", lifts_compose, 1)])


# -- the halving transformation and its weak inverse -----------------------


HALVED_PARITIES = {"circle6": "ceil"}


def _halved_node(X: SimplicialSet, degree: int, coeffs: Coefficients,
                 parity: str) -> tuple[TransformationNode,
                                       AdjointEquivalenceData,
                                       CocycleGroupoid, CocycleGroupoid]:
    upper = CocycleGroupoid(X, degree, coeffs)
    lower = CocycleGroupoid(subdivide(X), degree, coeffs)
    h = halving(X, parity)
    node = TransformationNode(
        name=X.name, upper=upper.as_instance(), lower=lower.as_instance(),
        component=pullback_functor(upper, lower, h.comparison,
                                   name=f"{parity}({X.name})^*"))

    def unit(b: Cochain) -> CocycleMorphism:
        return lower.morphism(b, pullback(h.comparison, h.transfer(b)),
                              h.homotopy(b))

    adj = AdjointEquivalenceData(
        backward=transfer_functor(X, lower, upper),
        unit=unit,
        counit=upper.identity,
    )
    return node, adj, upper, lower


@dataclass(frozen=True)
class HalvedDiagram:
    """The fixture diagram of halved comparisons, ready for pasting."""

    transformation: StrictTransformation
    adjoints: dict[str, AdjointEquivalenceData]
    upper: dict[str, CocycleGroupoid]
    lower: dict[str, CocycleGroupoid]
    maps: dict[str, SimplicialMap]
    lifts: dict[str, SimplicialMap]


def halved_diagram(degree: int = 1,
                   coeffs: Coefficients = RATIONALS) -> HalvedDiagram:
    """Point, 3-circle and 6-circle with their halved comparisons.

    The 6-circle runs on the opposite parity, so the lifted covering
    shifts by one vertex, and the basepoint lift is pinned to the odd
    preimage; both choices make the pasted inverse carry honest
    nonidentity cells.
    """
    spaces = {"pt": point(), "circle3": circle(3), "circle6": circle(6)}
    nodes: dict[str, TransformationNode] = {}
    adjoints: dict[str, AdjointEquivalenceData] = {}
    upper: dict[str, CocycleGroupoid] = {}
    lower: dict[str, CocycleGroupoid] = {}
    for key, X in spaces.items():
        parity = HALVED_PARITIES.get(X.name, "floor")
        node, adj, up, low = _halved_node(X, degree, coeffs, parity)
        nodes[key], adjoints[key] = node, adj
        upper[key], lower[key] = up, low
    maps = {
        "collapse": constant_map(circle(3), point(), "*"),
        "basepoint": vertex_inclusion(circle(3), "v0", "base"),
        "cover": covering(3, 2),
        "turn": rotation(3),
    }
    frames = {
        "collapse": ("pt", "circle3"),
        "basepoint": ("circle3", "pt"),
        "cover": ("circle3", "circle6"),
        "turn": ("circle3", "circle3"),
    }
    pins = {"basepoint": {"*": "v1"}}

    def comp_of(key: str) -> SimplicialMap:
        X = spaces[key]
        return comparison(X, HALVED_PARITIES.get(X.name, "floor"))

    arrows = []
    lifts: dict[str, SimplicialMap] = {}
    for name, fmap in maps.items():
        src, dst = frames[name]
        lift = lift_map(fmap, comp_of(dst), comp_of(src), pins=pins.get(name))
        lifts[name] = lift
        arrows.append(TransformationArrow(
            name=f"restrict-{name}", src=src, dst=dst,
            upper=pullback_functor(upper[src], upper[dst], fmap),
            lower=pullback_functor(lower[src], lower[dst], lift)))
    u = StrictTransformation(name=f"halved-comparison(deg {degree})",
                             nodes=nodes, arrows=arrows)
    return HalvedDiagram(u, adjoints, upper, lower, maps, lifts)


def halved_weak_inverse(degree: int = 1, trials: int = 6, seed: int = 0):
    """Paste the weak inverse of the halved comparison over the diagram."""
    diagram = halved_diagram(degree)
    inv = weak_inverse(diagram.transformation, diagram.adjoints,
                       trials=trials, seed=seed)
    return diagram, inv
