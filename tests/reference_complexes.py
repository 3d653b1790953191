"""The complex construction before compiled face tables, kept as a reference.

SimplicialSet, from_facets, _pair and product are the package's code from
before freeze compiled the face tables to positions: faces are stored as
Simplex objects, product sorts its generators by key_str and freeze sorts
them again, and problems() walks Simplex faces.  face_table and
delta_table build the cochain tables through SimplicialSet.face.
product_map, face_inclusion, projection and square_maps build every image
of every dimension at once, from Simplex objects through pair_canonical,
as the package did before its maps into products became pairings read one
dimension at a time; cross_section_positions walks Simplex faces to find
where cochains.cross_section puts its values.  The differential tests in
test_compiled.py compare the compiled construction with these, generator
for generator and face for face, image for image.  end_inclusions names the
two ends of a 1-cylinder for the tests that read them.
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Iterator, Mapping

from simdiff import complexes
from simdiff.complexes import (ConstructionError, Gather, Simplex, SimplicialMap, cylinder,
                               degenerate, key_str, vertex_path)
from simdiff.groupoid import _Q_VERTEX, _delta_simplex
from simdiff.words import Word, apply_face, apply_word, check_word, compose_degeneracy

_NO_INDEX: Mapping[Hashable, int] = MappingProxyType({})


class SimplicialSet:
    """Finite simplicial set presented by nondegenerate generators.

    Instances are immutable once frozen; every operation is pure.  Generator
    order is fixed at freeze time (by dimension, then key string) so that
    cochain bases and JSON output are deterministic.  The generator tuple and
    the position index of each dimension are built once, at freeze time.
    """

    def __init__(self, name: str):
        self.name = name
        self._dims: dict[Hashable, int] = {}
        self._faces: dict[Hashable, tuple[Simplex, ...]] = {}
        self._order: tuple[Hashable, ...] = ()
        self._by_dim: dict[int, tuple[Hashable, ...]] = {}
        self._index: dict[int, Mapping[Hashable, int]] = {}
        self._frozen = False
        self._cache: dict[Any, Any] = {}

    # -- construction ------------------------------------------------------

    def add_generator(self, key: Hashable, dim: int,
                      faces: Iterable[Simplex] = ()) -> None:
        if self._frozen:
            raise ConstructionError(f"{self.name}: frozen, cannot add generators")
        if key in self._dims:
            raise ConstructionError(f"{self.name}: duplicate generator {key!r}")
        if dim < 0:
            raise ConstructionError(f"{self.name}: negative dimension for {key!r}")
        faces = tuple(faces)
        if dim == 0 and faces:
            raise ConstructionError(f"{self.name}: vertex {key!r} has faces")
        if dim > 0 and len(faces) != dim + 1:
            raise ConstructionError(
                f"{self.name}: generator {key!r} of dim {dim} has {len(faces)} faces")
        self._dims[key] = dim
        self._faces[key] = faces

    def freeze(self) -> "SimplicialSet":
        if not self._frozen:
            self._order = tuple(sorted(self._dims, key=lambda k: (self._dims[k], key_str(k))))
            by_dim: dict[int, list[Hashable]] = {}
            for k in self._order:
                by_dim.setdefault(self._dims[k], []).append(k)
            self._by_dim = {d: tuple(gens) for d, gens in by_dim.items()}
            self._index = {d: MappingProxyType({k: i for i, k in enumerate(gens)})
                           for d, gens in self._by_dim.items()}
            self._frozen = True
            self.check()
        return self

    # -- structure ---------------------------------------------------------

    def generators(self, dim: int | None = None) -> tuple[Hashable, ...]:
        if dim is None:
            return self._order
        return self._by_dim.get(dim, ())

    def gen_index(self, dim: int) -> Mapping[Hashable, int]:
        """Position of each generator of one dimension in generators(dim)."""
        return self._index.get(dim, _NO_INDEX)

    def gen_dim(self, key: Hashable) -> int:
        return self._dims[key]

    def dim_of(self, s: Simplex) -> int:
        return self._dims[s.gen] + len(s.word)

    @property
    def top_dim(self) -> int:
        return max(self._dims.values()) if self._dims else -1

    def simplex(self, key: Hashable) -> Simplex:
        if key not in self._dims:
            raise KeyError(f"{self.name}: no generator {key!r}")
        return Simplex(key)

    def face(self, s: Simplex, i: int) -> Simplex:
        d = self.dim_of(s)
        if d == 0 or not 0 <= i <= d:
            raise ValueError(f"face index {i} out of range for dimension {d}")
        if s.word:
            word, residual = apply_face(s.word, i)
            if residual is None:
                return Simplex(s.gen, word)
            return degenerate(self._faces[s.gen][residual], word)
        return self._faces[s.gen][i]

    def degeneracy(self, s: Simplex, j: int) -> Simplex:
        d = self.dim_of(s)
        if not 0 <= j <= d:
            raise ValueError(f"degeneracy index {j} out of range for dimension {d}")
        return degenerate(s, (j,))

    def faces(self, s: Simplex) -> list[Simplex]:
        return [self.face(s, i) for i in range(self.dim_of(s) + 1)]

    def all_simplices(self, dim: int) -> Iterator[Simplex]:
        """All simplices of a dimension, degenerate ones included."""
        for key in self._order:
            p = self._dims[key]
            if p > dim:
                continue
            for word in combinations(range(dim), dim - p):
                yield Simplex(key, word)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d for d in self._dims.values())

    # -- validation --------------------------------------------------------

    def problems(self) -> list[str]:
        """Simplicial-identity and reference violations, empty when valid."""
        out: list[str] = []
        for key, facelist in self._faces.items():
            dim = self._dims[key]
            for i, f in enumerate(facelist):
                if f.gen not in self._dims:
                    out.append(f"{key!r}: face {i} references missing {f.gen!r}")
                    continue
                try:
                    check_word(f.word, self._dims[f.gen])
                except ValueError as e:
                    out.append(f"{key!r}: face {i} has bad word ({e})")
                    continue
                if self.dim_of(f) != dim - 1:
                    out.append(f"{key!r}: face {i} has dimension {self.dim_of(f)},"
                               f" expected {dim - 1}")
        if out:
            return out
        for key in self._order:
            dim = self._dims[key]
            if dim < 2:
                continue
            s = Simplex(key)
            for j in range(dim + 1):
                for i in range(j):
                    left = self.face(self.face(s, j), i)
                    right = self.face(self.face(s, i), j - 1)
                    if left != right:
                        out.append(f"{key!r}: d_{i} d_{j} != d_{j-1} d_{i}"
                                   f" ({left} vs {right})")
        return out

    def check(self) -> None:
        problems = self.problems()
        if problems:
            raise ConstructionError(f"{self.name}: " + "; ".join(problems[:5]))

    def __repr__(self) -> str:
        counts = {}
        for d in self._dims.values():
            counts[d] = counts.get(d, 0) + 1
        shape = ",".join(f"{counts[d]}" for d in sorted(counts))
        return f"<SimplicialSet {self.name} ({shape})>"


def from_facets(name: str, facets: Iterable[tuple]) -> SimplicialSet:
    """Ordered simplicial complex generated by the given top faces.

    Vertex labels must be sortable; every subset of a facet becomes a
    generator keyed by its sorted vertex tuple.
    """
    X = SimplicialSet(name)
    seen: set[tuple] = set()
    subsets: list[tuple] = []
    for facet in facets:
        t = tuple(sorted(set(facet)))
        if len(t) != len(facet):
            raise ConstructionError(f"{name}: facet {facet!r} repeats a vertex")
        for r in range(1, len(t) + 1):
            for sub in combinations(t, r):
                if sub not in seen:
                    seen.add(sub)
                    subsets.append(sub)
    for sub in sorted(subsets, key=lambda s: (len(s), s)):
        if len(sub) == 1:
            X.add_generator(sub, 0)
        else:
            faces = [Simplex(sub[:i] + sub[i + 1:]) for i in range(len(sub))]
            X.add_generator(sub, len(sub) - 1, faces)
    return X.freeze()


def _pair(sx: Simplex, sy: Simplex) -> Simplex:
    """Canonical form of a component pair as a product simplex.

    Shared degeneracies are stripped innermost-first until the component
    words are disjoint; what was stripped becomes the word of the result.
    """
    shared: list[int] = []
    wx, wy = sx.word, sy.word
    while True:
        common = set(wx) & set(wy)
        if not common:
            break
        j = min(common)
        wx, rx = apply_face(wx, j)
        wy, ry = apply_face(wy, j)
        if rx is not None or ry is not None:
            raise AssertionError("shared degeneracy failed to cancel")
        shared.append(j)
    word: Word = ()
    for j in reversed(shared):
        word = compose_degeneracy(word, j)
    return Simplex((sx.gen, wx, sy.gen, wy), word)


def product(X: SimplicialSet, Y: SimplicialSet, name: str | None = None) -> SimplicialSet:
    """Simplicial product via shuffle enumeration of nondegenerate pairs."""
    P = SimplicialSet(name or f"{X.name}x{Y.name}")
    entries: list[tuple[int, tuple]] = []
    for gx in X.generators():
        p = X.gen_dim(gx)
        for gy in Y.generators():
            q = Y.gen_dim(gy)
            for d in range(max(p, q), p + q + 1):
                for wx in combinations(range(d), d - p):
                    rest = [v for v in range(d) if v not in wx]
                    for wy in combinations(rest, d - q):
                        entries.append((d, (gx, wx, gy, wy)))
    for d, key in sorted(entries, key=lambda e: (e[0], key_str(e[1]))):
        gx, wx, gy, wy = key
        sx, sy = Simplex(gx, wx), Simplex(gy, wy)
        faces = [_pair(X.face(sx, i), Y.face(sy, i)) for i in range(d + 1)] if d else []
        P.add_generator(key, d, faces)
    P._factors = (X, Y)
    return P.freeze()


def face_table(X: SimplicialSet, n: int) -> tuple[tuple[int, Gather], ...]:
    """(sign, gather of face i) for i = 0..n+1 over the (n+1)-generators of X.

    Gather i reads the position of face i of each (n+1)-generator off a
    degree-n vector, the sentinel where that face is degenerate; the signs
    alternate from +1.  Built once per complex and degree.
    """
    token = ("face_table", n)
    if token not in X._cache:
        index = X.gen_index(n)
        size = len(index)
        faces: list[list[int]] = [[] for _ in range(n + 2)]
        for gen in X.generators(n + 1):
            s = Simplex(gen)
            for i, col in enumerate(faces):
                f = X.face(s, i)
                col.append(size if f.word else index[f.gen])
        X._cache[token] = tuple((-1 if i % 2 else 1, Gather(col, size))
                                for i, col in enumerate(faces))
    return X._cache[token]


def delta_table(X: SimplicialSet, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The sparse coboundary C^n -> C^{n+1} of X, built once and cached.

    One row ((position, coefficient), ...) per (n+1)-generator, in
    generator order, with positions in X.generators(n); degenerate faces are
    dropped and repeated faces merged into one coefficient (rows may come
    out empty).
    """
    token = ("delta_table", n)
    if token not in X._cache:
        faces = face_table(X, n)
        size = len(X.generators(n))
        rows = []
        for r in range(len(X.generators(n + 1))):
            row: dict[int, int] = {}
            for sign, g in faces:
                p = g.positions[r]
                if p != size:
                    row[p] = row.get(p, 0) + sign
            rows.append(tuple((p, a) for p, a in row.items() if a))
        X._cache[token] = tuple(rows)
    return X._cache[token]


def pair_canonical(P: complexes.SimplicialSet, sx: Simplex, sy: Simplex) -> Simplex:
    """Canonical form of a component pair as a simplex of the product
    complex P, checked against P's generators."""
    pair = _pair(sx, sy)
    if pair.gen not in P._dims:
        raise KeyError(f"{P.name}: pair {pair.gen!r} is not a generator")
    return pair


def product_map(P: complexes.SimplicialSet, Q: complexes.SimplicialSet,
                f: SimplicialMap, g: SimplicialMap, name: str = "") -> SimplicialMap:
    """The map f x g between product complexes built by product()."""
    images = {}
    for key in P.generators():
        gx, wx, gy, wy = key
        images[key] = pair_canonical(Q, f(Simplex(gx, wx)), g(Simplex(gy, wy)))
    return SimplicialMap(P, Q, images, name or f"{f.name}x{g.name}")


def face_inclusion(cyl: complexes.ProductWithSimplex, i: int) -> SimplicialMap:
    """id x delta_i, from X x Delta^{k-1} (or X itself when k = 1)."""
    X, k = cyl.base, cyl.k
    if k == 1:
        images = {g: Simplex((g, (), (1 - i,), tuple(range(X.gen_dim(g)))))
                  for g in X.generators()}
        return SimplicialMap(X, cyl.complex, images, f"end{1 - i}_{X.name}")
    src = cylinder(X, k - 1).complex
    images = {}
    for key in src.generators():
        gx, wx, gd, wd = key
        lifted = tuple(v if v < i else v + 1 for v in gd)
        images[key] = Simplex((gx, wx, lifted, wd))
    return SimplicialMap(src, cyl.complex, images, f"idxdelta_{i}")


def projection(cyl: complexes.ProductWithSimplex) -> SimplicialMap:
    """X x Delta^k -> X."""
    return SimplicialMap(cyl.complex, cyl.base,
                         {key: Simplex(key[0], key[1]) for key in cyl.complex.generators()},
                         f"proj_{cyl.base.name}")


def end_inclusions(cyl: complexes.ProductWithSimplex) -> tuple[SimplicialMap, SimplicialMap]:
    """(i_0, i_1): the inclusions of X at vertex 0 and vertex 1 of X x Delta^1."""
    if cyl.k != 1:
        raise ConstructionError("end inclusions only exist for k = 1")
    return cyl.face_inclusion(1), cyl.face_inclusion(0)


def square_maps(G) -> tuple[SimplicialMap, SimplicialMap, SimplicialMap, SimplicialMap]:
    """(collapse, lower triangle, upper triangle, diagonal) of the square
    model of the mapping groupoid G, each image built through pair_canonical
    from vertex paths."""
    S = G._square().complex
    Y = G.maps.level_complex(1)
    T = G.maps.level_complex(2)
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


def cross_section_positions(cyl: complexes.ProductWithSimplex, m: int) -> list[int]:
    """For each (m + k)-generator of X x Delta^k, the position of its front
    m-face among X's m-generators where its simplex path is (0, ..., 0, 1,
    ..., k) and that face is nondegenerate, else the sentinel."""
    X, k, P = cyl.base, cyl.k, cyl.complex
    index = X.gen_index(m)
    path = (0,) * (m + 1) + tuple(range(1, k + 1))
    positions = []
    for gx, wx, t, wt in P.generators(m + k):
        p = len(index)
        if vertex_path(Simplex(t, wt), m + k) == path:
            front = Simplex(gx, wx)
            for v in range(m + k, m, -1):
                front = X.face(front, v)
            if not front.word:
                p = index[front.gen]
        positions.append(p)
    return positions
