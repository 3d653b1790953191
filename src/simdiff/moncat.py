"""Symmetric monoidal coherence: axiom batteries, functor checks, weak inverses.

Everything operates on the opaque :class:`~simdiff.groupoid.SymMonGroupoidInstance`
surface, so mapping groupoids, cocycle groupoids and synthetic skeletal
examples all run through the same code paths.  Each battery returns a
:class:`~simdiff.report.Report` with one sampled :class:`~simdiff.report.Check`
per axiom, each drawn from its own derived seed and stopped at its first
counterexample.  Batteries report instead of raising, except where a
construction is impossible (bad adjoint data), which raises
:class:`CoherenceError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .groupoid import SymMonGroupoidInstance
from .report import Check, Report, short_repr

# Older names of the report record; the benchmark harness builds reports
# under them positionally, so they stay until it moves to Report and Check.
CoherenceReport = Report
AxiomResult = Check

__all__ = [
    "AdjointEquivalenceData",
    "AxiomResult",
    "CoherenceError",
    "CoherenceReport",
    "MonFunctor",
    "StrictTransformation",
    "TransformationArrow",
    "TransformationNode",
    "WeakInverse",
    "check_coherence",
    "check_monoidal_functor",
    "cochain_defects",
    "compose_functors",
    "identity_functor",
    "skeletal_instance",
    "weak_inverse",
]


class CoherenceError(ValueError):
    """A structural precondition failed; carries the offending location."""

    def __init__(self, message: str, *, node: str | None = None,
                 detail: str | None = None):
        super().__init__(message)
        self.node = node
        self.detail = detail


# -- the axiom battery -----------------------------------------------------


def check_coherence(G: SymMonGroupoidInstance, trials: int = 25,
                    seed: int = 0) -> Report:
    """Sampled verification of the symmetric monoidal groupoid axioms.

    Each axiom gets its own derived seed, so reports are reproducible and
    adding an axiom does not reshuffle the others.  Composition is written
    diagrammatically throughout: ``compose(f, g)`` is f-then-g.
    """
    report = Report(G.name, trials, seed)
    cp, op, om, idm = G.compose, G.oplus, G.oplus_mor, G.identity

    def pentagon(a, b, c, d) -> bool:
        one = cp(cp(om(G.associator(a, b, c), idm(d)),
                    G.associator(a, op(b, c), d)),
                 om(idm(a), G.associator(b, c, d)))
        two = cp(G.associator(op(a, b), c, d), G.associator(a, b, op(c, d)))
        return G.eq(one, two)

    def triangle(a, b) -> bool:
        one = cp(G.associator(a, G.unit, b), om(idm(a), G.left_unitor(b)))
        two = om(G.right_unitor(a), idm(b))
        return G.eq(one, two)

    def hexagon(a, b, c) -> bool:
        one = cp(cp(G.associator(a, b, c), G.braid(a, op(b, c))),
                 G.associator(b, c, a))
        two = cp(cp(om(G.braid(a, b), idm(c)), G.associator(b, a, c)),
                 om(idm(b), G.braid(a, c)))
        return G.eq(one, two)

    def involutive(a, b) -> bool:
        return G.eq(cp(G.braid(a, b), G.braid(b, a)), idm(op(a, b)))

    def natural_assoc(f, g, h) -> bool:
        a, b, c = G.source(f), G.source(g), G.source(h)
        x, y, z = G.target(f), G.target(g), G.target(h)
        one = cp(om(om(f, g), h), G.associator(x, y, z))
        two = cp(G.associator(a, b, c), om(f, om(g, h)))
        return G.eq(one, two)

    def natural_left(f) -> bool:
        one = cp(om(idm(G.unit), f), G.left_unitor(G.target(f)))
        two = cp(G.left_unitor(G.source(f)), f)
        return G.eq(one, two)

    def natural_right(f) -> bool:
        one = cp(om(f, idm(G.unit)), G.right_unitor(G.target(f)))
        two = cp(G.right_unitor(G.source(f)), f)
        return G.eq(one, two)

    def natural_braid(f, g) -> bool:
        one = cp(om(f, g), G.braid(G.target(f), G.target(g)))
        two = cp(G.braid(G.source(f), G.source(g)), om(g, f))
        return G.eq(one, two)

    report.sample("pentagon", _objects(G, "abcd"), pentagon, seed + 1)
    report.sample("triangle", _objects(G, "ab"), triangle, seed + 2)
    report.sample("hexagon", _objects(G, "abc"), hexagon, seed + 3)
    report.sample("braid-involutive", _objects(G, "ab"), involutive, seed + 4)
    report.sample("naturality-associator", _morphisms(G, "fgh"), natural_assoc, seed + 5)
    report.sample("naturality-left-unitor", _morphisms(G, "f"), natural_left, seed + 6)
    report.sample("naturality-right-unitor", _morphisms(G, "f"), natural_right, seed + 7)
    report.sample("naturality-braid", _morphisms(G, "fg"), natural_braid, seed + 8)
    return report


def _objects(G: SymMonGroupoidInstance,
             names: Sequence[str]) -> Callable[[random.Random], dict]:
    """A sampler of one object of G under each name."""
    return lambda rng: dict(zip(names, G.sample_objects(rng, len(names))))


def _morphisms(G: SymMonGroupoidInstance,
               names: Sequence[str]) -> Callable[[random.Random], dict]:
    """A sampler of one morphism of G under each name, each out of a
    sampled object; the objects are drawn first."""
    return lambda rng: dict(zip(names, [G.random_morphism(rng, a)
                                        for a in G.sample_objects(rng, len(names))]))


# -- skeletal instances from group cochains --------------------------------


@dataclass(frozen=True)
class SkeletalMorphism:
    source: int
    target: int
    value: int


def skeletal_instance(modulus: int,
                      omega: Callable[[int, int, int], int],
                      braiding: Callable[[int, int], int] | None = None
                      ) -> SymMonGroupoidInstance:
    """The one-object-per-group-element groupoid of a 3-cochain.

    Objects are Z/modulus, every morphism is an automorphism with a value in
    Z/modulus, the tensor adds, and the associator component at (a, b, c) is
    omega(a, b, c).  The pentagon holds exactly when omega is a cocycle, so
    this is the standard counterexample generator for the battery.  Unitors
    are identities (omega should be normalized for the triangle to pass);
    the braiding component defaults to zero.
    """
    m = modulus
    if m < 1:
        raise ValueError("modulus must be positive")
    beta = braiding if braiding is not None else (lambda a, b: 0)

    def mor(g: int, h: int, value: int) -> SkeletalMorphism:
        return SkeletalMorphism(g % m, h % m, value % m)

    def compose(x: SkeletalMorphism, y: SkeletalMorphism) -> SkeletalMorphism:
        if x.target != y.source:
            raise ValueError("composition endpoints do not match")
        return mor(x.source, y.target, x.value + y.value)

    def oplus_mor(x: SkeletalMorphism, y: SkeletalMorphism) -> SkeletalMorphism:
        return mor(x.source + y.source, x.target + y.target, x.value + y.value)

    return SymMonGroupoidInstance(
        name=f"skeletal(Z/{m})",
        unit=0,
        oplus=lambda a, b: (a + b) % m,
        oplus_mor=oplus_mor,
        identity=lambda a: mor(a, a, 0),
        compose=compose,
        inverse=lambda x: mor(x.target, x.source, -x.value),
        associator=lambda a, b, c: mor(a + b + c, a + b + c, omega(a, b, c)),
        left_unitor=lambda a: mor(a, a, 0),
        right_unitor=lambda a: mor(a, a, 0),
        braid=lambda a, b: mor(a + b, a + b, beta(a, b)),
        eq=lambda x, y: x == y,
        source=lambda x: x.source,
        target=lambda x: x.target,
        sample_objects=lambda rng, k: [rng.randrange(m) for _ in range(k)],
        random_morphism=lambda rng, src: mor(src, src, rng.randrange(m)),
    )


def cochain_defects(modulus: int,
                    omega: Callable[[int, int, int], int]) -> list[tuple]:
    """Quadruples where the group coboundary of omega is nonzero.

    Direct enumeration over (Z/modulus)^4; empty exactly when omega is a
    3-cocycle.  Serves as the independent oracle for the pentagon outcome of
    :func:`skeletal_instance`.
    """
    m = modulus
    bad = []
    for g in range(m):
        for h in range(m):
            for k in range(m):
                for l in range(m):
                    d = (omega(h, k, l) - omega((g + h) % m, k, l)
                         + omega(g, (h + k) % m, l) - omega(g, h, (k + l) % m)
                         + omega(g, h, k))
                    if d % m:
                        bad.append((g, h, k, l))
    return bad


# -- monoidal functors -----------------------------------------------------


@dataclass
class MonFunctor:
    """A strong symmetric monoidal functor in oplax orientation.

    ``mu(a, b)`` is the structure cell F(a + b) -> F(a) + F(b) in the target,
    and ``unit_cell`` the cell F(unit) -> unit.  Both are invertible in a
    groupoid, so the orientation is a bookkeeping choice; it matches the
    prism-integral witnesses produced downstream.
    """

    name: str
    source: SymMonGroupoidInstance
    target: SymMonGroupoidInstance
    on_objects: Callable[[Any], Any]
    on_morphisms: Callable[[Any], Any]
    mu: Callable[[Any, Any], Any]
    unit_cell: Any


def identity_functor(G: SymMonGroupoidInstance) -> MonFunctor:
    return MonFunctor(
        name=f"id[{G.name}]",
        source=G,
        target=G,
        on_objects=lambda a: a,
        on_morphisms=lambda f: f,
        mu=lambda a, b: G.identity(G.oplus(a, b)),
        unit_cell=G.identity(G.unit),
    )


def compose_functors(F: MonFunctor, G: MonFunctor) -> MonFunctor:
    """Diagrammatic composite: apply F, then G."""
    if G.source is not F.target:
        raise CoherenceError("functors are not composable")
    T = G.target

    def mu(a, b):
        return T.compose(G.on_morphisms(F.mu(a, b)),
                         G.mu(F.on_objects(a), F.on_objects(b)))

    return MonFunctor(
        name=f"{G.name} . {F.name}",
        source=F.source,
        target=T,
        on_objects=lambda a: G.on_objects(F.on_objects(a)),
        on_morphisms=lambda f: G.on_morphisms(F.on_morphisms(f)),
        mu=mu,
        unit_cell=T.compose(G.on_morphisms(F.unit_cell), G.unit_cell),
    )


def check_monoidal_functor(F: MonFunctor, trials: int = 25,
                           seed: int = 0) -> Report:
    """Sampled verification of the monoidal functor axioms for F.

    Covers plain functoriality, naturality of the structure cells, and the
    compatibility squares with associator, unitors and braiding, all as
    morphism-class equalities in the target instance.
    """
    S, T = F.source, F.target
    report = Report(F.name, trials, seed)
    cp, om, idm = T.compose, T.oplus_mor, T.identity
    Fo, Fm = F.on_objects, F.on_morphisms

    def identities(a) -> bool:
        return T.eq(Fm(S.identity(a)), idm(Fo(a)))

    def composites(f, h) -> bool:
        return T.eq(Fm(S.compose(f, h)), cp(Fm(f), Fm(h)))

    def composable(rng) -> dict:
        f = S.random_morphism(rng, S.sample_objects(rng, 1)[0])
        return {"f": f, "h": S.random_morphism(rng, S.target(f))}

    def mu_natural(f, g) -> bool:
        a, b = S.source(f), S.source(g)
        x, y = S.target(f), S.target(g)
        one = cp(Fm(S.oplus_mor(f, g)), F.mu(x, y))
        two = cp(F.mu(a, b), om(Fm(f), Fm(g)))
        return T.eq(one, two)

    def assoc_square(a, b, c) -> bool:
        one = cp(cp(F.mu(S.oplus(a, b), c), om(F.mu(a, b), idm(Fo(c)))),
                 T.associator(Fo(a), Fo(b), Fo(c)))
        two = cp(Fm(S.associator(a, b, c)),
                 cp(F.mu(a, S.oplus(b, c)), om(idm(Fo(a)), F.mu(b, c))))
        return T.eq(one, two)

    def unit_left(a) -> bool:
        one = Fm(S.left_unitor(a))
        two = cp(cp(F.mu(S.unit, a), om(F.unit_cell, idm(Fo(a)))),
                 T.left_unitor(Fo(a)))
        return T.eq(one, two)

    def unit_right(a) -> bool:
        one = Fm(S.right_unitor(a))
        two = cp(cp(F.mu(a, S.unit), om(idm(Fo(a)), F.unit_cell)),
                 T.right_unitor(Fo(a)))
        return T.eq(one, two)

    def symmetry(a, b) -> bool:
        one = cp(F.mu(a, b), T.braid(Fo(a), Fo(b)))
        two = cp(Fm(S.braid(a, b)), F.mu(b, a))
        return T.eq(one, two)

    report.sample("functor-identity", _objects(S, "a"), identities, seed + 11)
    report.sample("functor-composition", composable, composites, seed + 12)
    report.sample("mu-naturality", _morphisms(S, "fg"), mu_natural, seed + 13)
    report.sample("associativity-square", _objects(S, "abc"), assoc_square, seed + 14)
    report.sample("left-unit-square", _objects(S, "a"), unit_left, seed + 15)
    report.sample("right-unit-square", _objects(S, "a"), unit_right, seed + 16)
    report.sample("symmetry-square", _objects(S, "ab"), symmetry, seed + 17)
    return report


# -- transformations over a finite diagram ---------------------------------


@dataclass
class TransformationNode:
    """One diagram object: the two instances above it and the component."""

    name: str
    upper: SymMonGroupoidInstance
    lower: SymMonGroupoidInstance
    component: MonFunctor


@dataclass
class TransformationArrow:
    """One diagram arrow with its action on both rows."""

    name: str
    src: str
    dst: str
    upper: MonFunctor
    lower: MonFunctor


@dataclass
class StrictTransformation:
    """A transformation whose naturality squares commute literally."""

    name: str
    nodes: dict[str, TransformationNode]
    arrows: list[TransformationArrow]

    def arrow(self, name: str) -> TransformationArrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)


@dataclass
class AdjointEquivalenceData:
    """Chosen inverse data for one component: v, unit and counit.

    ``unit(b)`` is a morphism b -> u(v(b)) in the lower instance and
    ``counit(a)`` a morphism v(u(a)) -> a in the upper one.  The data is
    always supplied by the caller, never synthesized; the construction only
    validates it (zig-zags) and pastes.
    """

    backward: MonFunctor
    unit: Callable[[Any], Any]
    counit: Callable[[Any], Any]


@dataclass
class WeakInverse:
    """The pasted weak inverse: components, arrow cells, and its audit.

    ``cells[arrow]`` maps an object b of the lower instance at the arrow's
    source node to a morphism  upper_arrow(v_src(b)) -> v_dst(lower_arrow(b)).
    The report records every coherence condition actually checked: cell
    naturality, the unit/counit modification squares, the monoidal structure
    of each component, and the monoidal-transformation squares of unit and
    counit.
    """

    components: dict[str, MonFunctor]
    cells: dict[str, Callable[[Any], Any]]
    report: Report


def _backward_monoidal(u: MonFunctor, adj: AdjointEquivalenceData) -> MonFunctor:
    """Equip the chosen backward functor with pasted monoidal cells."""
    A, B = u.source, u.target
    v = adj.backward

    def mu(b, bp):
        into = B.compose(B.oplus_mor(adj.unit(b), adj.unit(bp)),
                         B.inverse(u.mu(v.on_objects(b), v.on_objects(bp))))
        return A.compose(v.on_morphisms(into),
                         adj.counit(A.oplus(v.on_objects(b), v.on_objects(bp))))

    unit_cell = A.compose(
        v.on_morphisms(B.inverse(u.unit_cell)), adj.counit(A.unit))
    return MonFunctor(
        name=v.name, source=B, target=A,
        on_objects=v.on_objects, on_morphisms=v.on_morphisms,
        mu=mu, unit_cell=unit_cell)


def weak_inverse(u: StrictTransformation,
                 adj: Mapping[str, AdjointEquivalenceData],
                 trials: int = 10, seed: int = 0) -> WeakInverse:
    """Paste a weak inverse to a componentwise-equivalence strict u.

    The adjoint data is validated first: both zig-zag composites must be
    identity classes on sampled objects, and every arrow square of u must
    commute literally on objects.  Violations raise :class:`CoherenceError`
    naming the node and the violating object.  The returned transformation's
    coherence (cell naturality, modification squares for unit and counit,
    monoidal structure of each component and of unit/counit) is then checked
    on samples and recorded in the report.
    """
    report = Report(f"weak-inverse[{u.name}]", trials, seed)
    components: dict[str, MonFunctor] = {}

    for key, node in u.nodes.items():
        if key not in adj:
            raise CoherenceError(f"no adjoint data for node {key}", node=key)
        data = adj[key]
        A, B = node.upper, node.lower
        uc, v = node.component, data.backward
        rng = random.Random((seed + 1) * 7919 + len(key))
        for a in A.sample_objects(rng, trials):
            ua = uc.on_objects(a)
            zig = B.compose(data.unit(ua),
                            uc.on_morphisms(data.counit(a)))
            if not B.eq(zig, B.identity(ua)):
                raise CoherenceError(
                    f"zig-zag failed at node {key}", node=key, detail=short_repr(a))
        for b in B.sample_objects(rng, trials):
            vb = v.on_objects(b)
            zag = A.compose(v.on_morphisms(data.unit(b)), data.counit(vb))
            if not A.eq(zag, A.identity(vb)):
                raise CoherenceError(
                    f"zag-zig failed at node {key}", node=key, detail=short_repr(b))
        components[key] = _backward_monoidal(uc, data)

    for arrow in u.arrows:
        src, dst = u.nodes[arrow.src], u.nodes[arrow.dst]
        rng = random.Random((seed + 2) * 104729 + len(arrow.name))
        for b in src.lower.sample_objects(rng, trials):
            through = dst.component.on_objects(
                arrow.upper.on_objects(components[arrow.src].on_objects(b)))
            under = arrow.lower.on_objects(
                src.component.on_objects(components[arrow.src].on_objects(b)))
            if through != under:
                raise CoherenceError(
                    f"transformation square not strict on arrow {arrow.name}",
                    node=arrow.src, detail=short_repr(b))

    def make_cell(arrow: TransformationArrow) -> Callable[[Any], Any]:
        src, dst = u.nodes[arrow.src], u.nodes[arrow.dst]
        v_src, v_dst = components[arrow.src], components[arrow.dst]
        eps, eta = adj[arrow.src].unit, adj[arrow.dst].counit

        def cell(b):
            lifted = arrow.upper.on_objects(v_src.on_objects(b))
            back = dst.upper.inverse(eta(lifted))
            down = v_dst.on_morphisms(
                arrow.lower.on_morphisms(src.lower.inverse(eps(b))))
            return dst.upper.compose(back, down)

        return cell

    cells = {arrow.name: make_cell(arrow) for arrow in u.arrows}

    # recorded coherence of the construction
    for key, node in u.nodes.items():
        _sample_node_laws(report, key, node, components[key], adj[key], seed)
    for arrow in u.arrows:
        _sample_arrow_laws(report, u, arrow, components, cells[arrow.name], adj, seed)

    return WeakInverse(components, cells, report)


def _sample_node_laws(report: Report, key: str, node: TransformationNode,
                      v: MonFunctor, data: AdjointEquivalenceData,
                      seed: int) -> None:
    """The pasted component v as a monoidal functor, and the unit and
    counit of one node's adjoint data as monoidal transformations."""
    A, B, uc = node.upper, node.lower, node.component
    sub = check_monoidal_functor(v, report.trials, seed * 31 + len(key))
    report.results.append(Check(
        f"component-monoidal:{key}", sub.ok, report.trials,
        None if sub.ok else sub.failures()[0].counterexample))

    def unit_monoidal(b, bp) -> bool:
        one = B.compose(data.unit(B.oplus(b, bp)), B.compose(
            uc.on_morphisms(v.mu(b, bp)),
            uc.mu(v.on_objects(b), v.on_objects(bp))))
        two = B.oplus_mor(data.unit(b), data.unit(bp))
        return B.eq(one, two)

    def counit_monoidal(a, ap) -> bool:
        vu_mu = A.compose(v.on_morphisms(uc.mu(a, ap)),
                          v.mu(uc.on_objects(a), uc.on_objects(ap)))
        one = A.compose(vu_mu, A.oplus_mor(data.counit(a), data.counit(ap)))
        two = data.counit(A.oplus(a, ap))
        return A.eq(one, two)

    report.sample(f"unit-monoidal:{key}", _objects(B, ("b", "bp")), unit_monoidal,
                  seed * 37 + 1)
    report.sample(f"counit-monoidal:{key}", _objects(A, ("a", "ap")), counit_monoidal,
                  seed * 37 + 2)


def _sample_arrow_laws(report: Report, u: StrictTransformation,
                       arrow: TransformationArrow,
                       components: Mapping[str, MonFunctor],
                       cell: Callable[[Any], Any],
                       adj: Mapping[str, AdjointEquivalenceData],
                       seed: int) -> None:
    """Naturality of u and of the pasted cell at one arrow, and the unit and
    counit modification squares there."""
    src, dst = u.nodes[arrow.src], u.nodes[arrow.dst]
    v_src, v_dst = components[arrow.src], components[arrow.dst]
    adj_src, adj_dst = adj[arrow.src], adj[arrow.dst]

    def u_natural(k) -> bool:
        one = dst.component.on_morphisms(arrow.upper.on_morphisms(k))
        two = arrow.lower.on_morphisms(src.component.on_morphisms(k))
        return dst.lower.eq(one, two)

    def cell_natural(k) -> bool:
        b, bp = src.lower.source(k), src.lower.target(k)
        one = dst.upper.compose(
            arrow.upper.on_morphisms(v_src.on_morphisms(k)), cell(bp))
        two = dst.upper.compose(
            cell(b), v_dst.on_morphisms(arrow.lower.on_morphisms(k)))
        return dst.upper.eq(one, two)

    def unit_mod_square(b) -> bool:
        # unit: 1 => u.v against the pasted cell of u.v at this arrow
        one = dst.lower.compose(
            arrow.lower.on_morphisms(adj_src.unit(b)),
            dst.component.on_morphisms(cell(b)))
        two = adj_dst.unit(arrow.lower.on_objects(b))
        return dst.lower.eq(one, two)

    def counit_mod_square(a) -> bool:
        # counit: v.u => 1, whose cell at the arrow is cell(u a)
        one = arrow.upper.on_morphisms(adj_src.counit(a))
        two = dst.upper.compose(
            cell(src.component.on_objects(a)),
            adj_dst.counit(arrow.upper.on_objects(a)))
        return dst.upper.eq(one, two)

    name = arrow.name
    report.sample(f"transformation-naturality:{name}", _morphisms(src.upper, "k"),
                  u_natural, seed * 41 + 2)
    report.sample(f"cell-naturality:{name}", _morphisms(src.lower, "k"), cell_natural,
                  seed * 41 + 3)
    report.sample(f"unit-modification:{name}", _objects(src.lower, "b"), unit_mod_square,
                  seed * 41 + 4)
    report.sample(f"counit-modification:{name}", _objects(src.upper, "a"),
                  counit_mod_square, seed * 41 + 5)
