"""Circle halving: comparison maps, transfer, lifts, and one-step prisms.

A point is its own halving; the cyclic circle with n edges halves into the
one with 2n edges, each old edge split in two.  Two simplicial comparison
maps collapse the halved circle back onto the original, one keeping the
lower vertex of each pair ("floor"), one the upper ("ceil").  Transfer sums
a halved cochain back to the base; transfer after pullback is the identity
on the nose, and an explicit degree-lowering operator witnesses the other
composite as homotopic to the identity.

For maps between halved models that agree only up to adjacent vertices,
one-step prisms provide simplicial homotopies, and integrating a pulled
back cocycle over the prism interval yields a primitive measuring the
discrepancy of the two composites around a square of maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from .cochains import Cochain, coboundary, pullback
from .complexes import (
    ConstructionError,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    circle,
    compose_maps,
    constant_map,
    cylinder,
    identity_map,
    point,
    vertex_path,
)
from .em import loop_integrate
from .words import word_of_surjection

PARITIES = ("floor", "ceil")


# -- halving of the fixtures ----------------------------------------------


def circle_edge_count(X: SimplicialSet) -> int:
    """Number of edges if X is a cyclic circle fixture, else 0."""
    n = len(X.generators(0))
    return n if n >= 3 and X is circle(n) else 0


def subdividable(X: SimplicialSet) -> bool:
    return X is point() or circle_edge_count(X) > 0


def subdivide(X: SimplicialSet) -> SimplicialSet:
    """The edge-halved model of X (point or circle fixtures only)."""
    if X is point():
        return X
    n = circle_edge_count(X)
    if n:
        return circle(2 * n)
    raise ConstructionError(f"no halving model for {X.name}")


# -- circle maps from vertex functions -------------------------------------


def circle_map(m: int, n: int, phi: Callable[[int], int],
               name: str = "") -> SimplicialMap:
    """Simplicial map circle(m) -> circle(n) with vertex k at v_{phi(k)}.

    phi is evaluated on 0..m; consecutive values must agree or advance by
    one step mod n, and phi(m) must agree with phi(0) mod n.
    """
    src, tgt = circle(m), circle(n)
    if phi(m) % n != phi(0) % n:
        raise ConstructionError("vertex function does not close up")
    images: dict[Hashable, Simplex] = {}
    for k in range(m):
        images[f"v{k}"] = Simplex(f"v{phi(k) % n}")
    for k in range(m):
        a, b = phi(k) % n, phi(k + 1) % n
        if b == a:
            images[f"e{k}"] = Simplex(f"v{a}", (0,))
        elif b == (a + 1) % n:
            images[f"e{k}"] = Simplex(f"e{a}")
        else:
            raise ConstructionError(
                f"vertex function jumps {a} -> {b} across edge e{k}")
    f = SimplicialMap(src, tgt, images, name or "circle-map")
    f.check()
    return f


def rotation(n: int, step: int = 1) -> SimplicialMap:
    return circle_map(n, n, lambda k: k + step, f"rot{step % n}")


def covering(n: int, fold: int) -> SimplicialMap:
    """The fold-sheeted cyclic covering circle(fold*n) -> circle(n)."""
    if fold < 1:
        raise ConstructionError("covering needs fold >= 1")
    return circle_map(fold * n, n, lambda k: k, f"cover{fold}")


def vertex_inclusion(X: SimplicialSet, key: Hashable,
                     name: str = "") -> SimplicialMap:
    return SimplicialMap(point(), X, {"*": X.simplex(key)}, name or f"at-{key}")


def comparison(X: SimplicialSet, parity: str) -> SimplicialMap:
    """The collapse subdivide(X) -> X keeping the floor or ceil vertex."""
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}")
    if X is point():
        return identity_map(X)
    n = circle_edge_count(X)
    if not n:
        raise ConstructionError(f"no halving model for {X.name}")
    if parity == "floor":
        return circle_map(2 * n, n, lambda k: k // 2, f"floor{n}")
    return circle_map(2 * n, n, lambda k: (k + 1) // 2, f"ceil{n}")


# -- transfer and its homotopy ---------------------------------------------


def transfer(X: SimplicialSet, c: Cochain) -> Cochain:
    """Sum a cochain on subdivide(X) back onto X.

    Left inverse of pullback along either comparison map, in every degree.
    """
    sd = subdivide(X)
    if c.complex is not sd:
        raise ValueError("cochain does not live on the halved model")
    if X is point():
        return Cochain(X, c.degree, c.coeffs, dict(c.values))
    n = circle_edge_count(X)
    vals: dict[Hashable, object] = {}
    if c.degree == 0:
        for j in range(n):
            v = c.values.get(f"v{2 * j}", 0)
            if v:
                vals[f"v{j}"] = v
    elif c.degree == 1:
        for j in range(n):
            v = c.values.get(f"e{2 * j}", 0) + c.values.get(f"e{2 * j + 1}", 0)
            if v:
                vals[f"e{j}"] = v
    return Cochain(X, c.degree, c.coeffs, vals)


def halving_homotopy(X: SimplicialSet, parity: str, c: Cochain) -> Cochain:
    """Degree-lowering h on subdivide(X) with dh + hd = comparison-pullback
    after transfer, minus the identity.

    Supported on the odd vertices; vanishes except in degree one.
    """
    sd = subdivide(X)
    if c.complex is not sd:
        raise ValueError("cochain does not live on the halved model")
    if c.degree < 1:
        raise ValueError("homotopy starts in degree 1")
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}")
    vals: dict[Hashable, object] = {}
    if c.degree == 1 and X is not point():
        n = circle_edge_count(X)
        for j in range(n):
            if parity == "floor":
                v = -c.values.get(f"e{2 * j}", 0)
            else:
                v = c.values.get(f"e{2 * j + 1}", 0)
            if v:
                vals[f"v{2 * j + 1}"] = v
    return Cochain(sd, c.degree - 1, c.coeffs, vals)


@dataclass(frozen=True)
class Halving:
    """One node of a halved diagram: base, halved model, both comparisons.

    `comparison` is the parity used for strict commutation with lifted
    maps; `opposite` is the other collapse, used to realize cochains of
    the base on the halved model.
    """

    base: SimplicialSet
    sd: SimplicialSet
    parity: str
    comparison: SimplicialMap
    opposite: SimplicialMap

    def transfer(self, c: Cochain) -> Cochain:
        return transfer(self.base, c)

    def homotopy(self, c: Cochain) -> Cochain:
        return halving_homotopy(self.base, self.parity, c)

    def realize(self, c: Cochain) -> Cochain:
        return pullback(self.opposite, c)


def halving(X: SimplicialSet, parity: str = "floor") -> Halving:
    other = "ceil" if parity == "floor" else "floor"
    return Halving(X, subdivide(X), parity,
                   comparison(X, parity), comparison(X, other))


# -- lifting maps through comparisons --------------------------------------


def maps_equal(a: SimplicialMap, b: SimplicialMap) -> bool:
    if a.source is not b.source or a.target is not b.target:
        return False
    return all(a(Simplex(g)) == b(Simplex(g)) for g in a.source.generators())


def _edge_table(Y: SimplicialSet) -> dict:
    token = ("edge-endpoints",)
    table = Y._cache.get(token)
    if table is None:
        table = {}
        for e in Y.generators(1):
            s = Simplex(e)
            table[(Y.face(s, 1).gen, Y.face(s, 0).gen)] = e
        Y._cache[token] = table
    return table


def lift_map(f: SimplicialMap, comp_src: SimplicialMap,
             comp_tgt: SimplicialMap, pins: dict | None = None,
             name: str = "") -> SimplicialMap:
    """A map of halved models commuting strictly with the comparisons.

    Searches vertex assignments in the comparison fibers (deterministic,
    first solution in generator order); `pins` forces chosen vertex images.
    Sources and targets must be one-dimensional.
    """
    if f.source is not comp_src.target or f.target is not comp_tgt.target:
        raise ValueError("comparisons do not frame the map being lifted")
    M2, N2 = comp_src.source, comp_tgt.source
    if M2.top_dim > 1 or N2.top_dim > 1:
        raise ConstructionError("lifting supports one-dimensional models only")
    pins = pins or {}
    verts = list(M2.generators(0))
    fibers: dict[Hashable, list] = {}
    for v in verts:
        w = f(comp_src(Simplex(v))).gen
        cands = [y for y in N2.generators(0)
                 if comp_tgt(Simplex(y)).gen == w]
        if v in pins:
            cands = [y for y in cands if y == pins[v]]
        if not cands:
            raise ConstructionError(f"no lift candidate over vertex {v!r}")
        fibers[v] = cands
    edges = []
    targets = {}
    for e in M2.generators(1):
        s = Simplex(e)
        edges.append((e, M2.face(s, 1).gen, M2.face(s, 0).gen))
        targets[e] = f(comp_src(s))
    table = _edge_table(N2)
    order = {v: i for i, v in enumerate(verts)}

    def edge_image(e: Hashable, ya: Hashable, yb: Hashable) -> Simplex | None:
        if ya == yb:
            img = Simplex(ya, (0,))
        else:
            key = table.get((ya, yb))
            if key is None:
                return None
            img = Simplex(key)
        return img if comp_tgt(img) == targets[e] else None

    assignment: dict[Hashable, Hashable] = {}

    def extend(i: int) -> bool:
        if i == len(verts):
            return True
        v = verts[i]
        for y in fibers[v]:
            assignment[v] = y
            ok = True
            for e, a, b in edges:
                if order[a] <= i and order[b] <= i:
                    if edge_image(e, assignment[a], assignment[b]) is None:
                        ok = False
                        break
            if ok and extend(i + 1):
                return True
            del assignment[v]
        return False

    if not extend(0):
        raise ConstructionError(
            f"no strict lift of {f.name or 'map'} through the comparisons")
    images: dict[Hashable, Simplex] = {v: Simplex(assignment[v]) for v in verts}
    for e, a, b in edges:
        images[e] = edge_image(e, assignment[a], assignment[b])
    lifted = SimplicialMap(M2, N2, images, name or f"lift({f.name})")
    lifted.check()
    if not maps_equal(compose_maps(lifted, comp_tgt), compose_maps(comp_src, f)):
        raise ConstructionError("lift does not commute with the comparisons")
    return lifted


# -- one-step prisms and their primitives ----------------------------------


def simplex_vertices(X: SimplicialSet, s: Simplex, dim: int) -> list:
    """Generator keys of the vertices of s, in order, via iterated faces."""
    out = []
    for i in range(dim + 1):
        t = s
        for j in range(dim, i, -1):
            t = X.face(t, j)
        for _ in range(i):
            t = X.face(t, 0)
        out.append(t.gen)
    return out


def path_simplex(Y: SimplicialSet, keys: list) -> Simplex:
    """The simplex of a one-dimensional Y tracing the given vertex keys."""
    p = len(keys) - 1
    runs = [keys[0]]
    for k in keys[1:]:
        if k != runs[-1]:
            runs.append(k)
    if len(runs) == 1:
        return Simplex(keys[0], word_of_surjection((0,) * (p + 1)))
    if len(runs) == 2:
        e = _edge_table(Y).get((runs[0], runs[1]))
        if e is not None:
            split = keys.index(runs[1])
            theta = tuple(0 if i < split else 1 for i in range(p + 1))
            return Simplex(e, word_of_surjection(theta))
    raise ConstructionError(f"no simplex of {Y.name} along {keys!r}")


def one_step_homotopy(g0: SimplicialMap, g1: SimplicialMap,
                      name: str = "") -> SimplicialMap:
    """The prism homotopy from g0 to g1 when they differ by adjacent vertices.

    Defined on cylinder(source, 1); each prism generator maps to the simplex
    tracing g0 over interval coordinate 0 and g1 over coordinate 1.  Raises
    when some traced path is not carried by a single simplex of the target.
    """
    if g0.source is not g1.source or g0.target is not g1.target:
        raise ValueError("homotopy endpoints must be parallel maps")
    W, Y = g0.source, g0.target
    P = cylinder(W, 1).complex
    images: dict[Hashable, Simplex] = {}
    for key in P.generators():
        gx, wx, gd, wd = key
        p = P.gen_dim(key)
        xkeys = simplex_vertices(W, Simplex(gx, wx), p)
        tvals = vertex_path(Simplex(gd, wd), p)
        path = [(g0 if t == 0 else g1)(Simplex(xk)).gen
                for xk, t in zip(xkeys, tvals)]
        images[key] = path_simplex(Y, path)
    H = SimplicialMap(P, Y, images, name or f"step({g0.name}->{g1.name})")
    H.check()
    return H


def prism_primitive(H: SimplicialMap, z: Cochain) -> Cochain:
    """Integrate the pullback of z over the prism interval.

    With P(z) this primitive and g0, g1 the ends of H,
    dP(z) + P(dz) equals the pullback along g1 minus the one along g0.
    In degree zero the primitive term is absent and only P(dz) remains.
    """
    if z.degree < 1:
        raise ValueError("prism primitive needs degree >= 1")
    return loop_integrate(pullback(H, z))


# -- staircases between non-adjacent maps ----------------------------------


def _vertex_index(s: Simplex) -> int:
    return int(str(s.gen)[1:])


def _map_from_values(W: SimplicialSet, Y: SimplicialSet,
                     vals: dict, name: str) -> SimplicialMap:
    n = circle_edge_count(Y)
    if W is point():
        return vertex_inclusion(Y, f"v{vals['*'] % n}", name)
    m = circle_edge_count(W)
    return circle_map(m, n, lambda k: vals[f"v{k % m}"], name)


def homotopy_chain(g0: SimplicialMap, g1: SimplicialMap) -> list[SimplicialMap]:
    """One-step prisms staircasing from g0 to g1, possibly several hops.

    Vertices advance forward around the target circle, one step per hop; a
    vertex may move only while its incoming edges are flat, and a flat
    outgoing edge drags its head along.  Raises when the walk jams.
    """
    if g0.source is not g1.source or g0.target is not g1.target:
        raise ValueError("homotopy endpoints must be parallel maps")
    W, Y = g0.source, g0.target
    if Y is point():
        return []
    n = circle_edge_count(Y)
    if not n:
        raise ConstructionError(f"staircases need a circle target, not {Y.name}")
    verts = list(W.generators(0))
    edges = [(W.face(Simplex(e), 1).gen, W.face(Simplex(e), 0).gen)
             for e in W.generators(1)]
    cur = {v: _vertex_index(g0(Simplex(v))) % n for v in verts}
    tgt = {v: _vertex_index(g1(Simplex(v))) % n for v in verts}
    chain: list[SimplicialMap] = []
    prev = g0
    step = 0
    while any((tgt[v] - cur[v]) % n for v in verts):
        moving = {v for v in verts
                  if (tgt[v] - cur[v]) % n
                  and all(cur[u] == cur[v] for u, w in edges if w == v)}
        while True:
            dragged = {v for v in moving
                       if any(u == v and cur[w] == cur[v] and w not in moving
                              for u, w in edges)}
            if not dragged:
                break
            moving -= dragged
        if not moving:
            raise ConstructionError(
                f"maps {g0.name} and {g1.name} admit no forward staircase")
        nxt = {v: (cur[v] + 1) % n if v in moving else cur[v] for v in verts}
        step += 1
        g = _map_from_values(W, Y, nxt, f"{g0.name}+{step}")
        chain.append(one_step_homotopy(prev, g))
        prev, cur = g, nxt
    return chain


def chain_primitive(chain: list[SimplicialMap], z: Cochain) -> Cochain:
    """Sum of prism primitives along a staircase; same boundary identity.

    The chain may be empty when both ends agree; callers supply the complex
    through a nonempty chain or handle the empty case themselves.
    """
    if not chain:
        raise ValueError("empty staircase has no primitive carrier")
    total = prism_primitive(chain[0], z)
    for H in chain[1:]:
        total = total + prism_primitive(H, z)
    return total
