"""Finite simplicial sets: generators, fixtures, products with simplices.

A complex is presented by its nondegenerate simplices (generators); an
arbitrary simplex is a generator decorated with a degeneracy word.  Faces of
generators may be degenerate, so the face tables store decorated references
and the word algebra from :mod:`simdiff.words` does the rest.

Products are built by the shuffle (Eilenberg-Zilber) enumeration: a
nondegenerate simplex of X x Y is a pair of decorated simplices whose words
are disjoint.  Only products with standard simplices are part of the public
surface (plus the torus fixture, which reuses the same machinery).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from .words import (
    Word,
    apply_face,
    apply_word,
    check_word,
    compose_degeneracy,
    surjection_of_word,
    word_of_surjection,
)


class ConstructionError(ValueError):
    """A fixture or complex could not be built from the given data."""


@dataclass(frozen=True)
class Simplex:
    """A possibly degenerate simplex: generator key plus degeneracy word."""

    gen: Hashable
    word: Word = ()


def degenerate(s: Simplex, extra: Word) -> Simplex:
    """Apply the degeneracies `extra` (innermost first) on top of s."""
    return Simplex(s.gen, apply_word(s.word, extra)) if extra else s


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


def key_str(key: Hashable) -> str:
    """Deterministic printable form of a generator key."""
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        if len(key) == 4 and isinstance(key[1], tuple) and isinstance(key[3], tuple) \
                and not isinstance(key[0], int):
            gx, wx, gy, wy = key
            return (f"({key_str(gx)}|{','.join(map(str, wx))})"
                    f"*({key_str(gy)}|{','.join(map(str, wy))})")
        return ".".join(key_str(v) for v in key)
    return str(key)


# -- position gathers ------------------------------------------------------


class Gather:
    """out[i] = vec[positions[i]], compiled once to one C-level getter.

    positions index a vector of length size padded by one zero: position
    size is the sentinel that degenerate images and faces read.  get takes
    the padded vector and returns a tuple.
    """

    __slots__ = ("positions", "size", "get")

    def __init__(self, positions: Iterable[int], size: int):
        self.positions = tuple(positions)
        self.size = size
        if len(self.positions) > 1:
            self.get = itemgetter(*self.positions)
        elif self.positions:
            p, = self.positions
            self.get = lambda vec: (vec[p],)
        else:
            self.get = lambda vec: ()

    def __repr__(self):
        return f"Gather({self.positions}, size={self.size})"


# -- simplicial maps -------------------------------------------------------


class SimplicialMap:
    """Map of simplicial sets given on generators.

    Images may be degenerate.  Compatibility with degeneracies is automatic
    from the word algebra; compatibility with faces is what check() verifies.
    The images are read-only, so the pullback tables cached per degree can
    never go stale.
    """

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 images: Mapping[Hashable, Simplex], name: str = ""):
        self.source = source
        self.target = target
        self.images = MappingProxyType(dict(images))
        self.name = name or f"{source.name}->{target.name}"
        self._pullback: dict[int, Gather] = {}

    def __call__(self, s: Simplex) -> Simplex:
        return degenerate(self.images[s.gen], s.word)

    def pullback_table(self, dim: int) -> Gather:
        """The position of each source generator's image among the target
        generators of one dimension, the sentinel where the image is
        degenerate; built once per degree."""
        if dim not in self._pullback:
            images = self.images
            index = self.target.gen_index(dim)
            size = len(index)
            self._pullback[dim] = Gather(
                (size if images[g].word else index[images[g].gen]
                 for g in self.source.generators(dim)), size)
        return self._pullback[dim]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SimplicialMap)
                and self.source is other.source
                and self.target is other.target
                and self.images == other.images)

    def __hash__(self):
        return hash((id(self.source), id(self.target),
                     tuple(sorted(self.images.items(), key=lambda kv: key_str(kv[0])))))

    def check(self) -> None:
        for key in self.source.generators():
            s = Simplex(key)
            img = self(s)
            if self.target.dim_of(img) != self.source.gen_dim(key):
                raise ConstructionError(
                    f"map {self.name}: image of {key!r} has wrong dimension")
            for i in range(self.source.gen_dim(key) + 1) if self.source.gen_dim(key) else ():
                left = self(self.source.face(s, i))
                right = self.target.face(img, i)
                if left != right:
                    raise ConstructionError(
                        f"map {self.name}: face {i} of {key!r} does not commute")

    def __repr__(self):
        return f"<SimplicialMap {self.name}>"


def identity_map(X: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(X, X, {k: Simplex(k) for k in X.generators()}, f"id_{X.name}")


def compose_maps(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """The composite `first f, then g`."""
    if f.target is not g.source:
        raise ConstructionError(
            f"cannot compose {f.name} with {g.name}: target/source mismatch")
    images = {k: g(f(Simplex(k))) for k in f.source.generators()}
    return SimplicialMap(f.source, g.target, images, f"{g.name}.{f.name}")


def constant_map(X: SimplicialSet, Y: SimplicialSet, vertex: Hashable) -> SimplicialMap:
    v = Y.simplex(vertex)
    images = {k: degenerate(v, tuple(range(X.gen_dim(k)))) for k in X.generators()}
    return SimplicialMap(X, Y, images, f"const_{key_str(vertex)}")


# -- fixtures --------------------------------------------------------------


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


_STANDARD: dict[int, SimplicialSet] = {}


def standard_simplex(k: int) -> SimplicialSet:
    """The standard k-simplex; memoized so maps can share the instance."""
    if k < 0:
        raise ConstructionError("standard simplex needs k >= 0")
    if k not in _STANDARD:
        _STANDARD[k] = from_facets(f"delta{k}", [tuple(range(k + 1))])
    return _STANDARD[k]


def coface_map(k: int, i: int) -> SimplicialMap:
    """The inclusion delta(k-1) -> delta(k) missing vertex i."""
    if not 0 <= i <= k:
        raise ConstructionError(f"coface index {i} out of range for delta{k}")
    key = ("coface", k, i)
    src, tgt = standard_simplex(k - 1), standard_simplex(k)
    if key not in tgt._cache:
        images = {}
        for g in src.generators():
            images[g] = Simplex(tuple(v if v < i else v + 1 for v in g))
        tgt._cache[key] = SimplicialMap(src, tgt, images, f"delta_{i}")
    return tgt._cache[key]


def vertex_induced_map(src: SimplicialSet, tgt: SimplicialSet, vfun,
                       name: str = "") -> SimplicialMap:
    """Map between vertex-tuple-keyed complexes from a monotone vertex map.

    Each generator tuple maps through vfun; repeats become degeneracies.
    The image support tuple must be a generator of the target.
    """
    images = {}
    for key in src.generators():
        path = tuple(vfun(v) for v in key)
        if any(a > b for a, b in zip(path, path[1:])):
            raise ConstructionError(f"vertex map not monotone on {key!r}")
        img = tuple(sorted(set(path)))
        pos = {v: i for i, v in enumerate(img)}
        theta = tuple(pos[p] for p in path)
        images[key] = Simplex(img, word_of_surjection(theta))
    return SimplicialMap(src, tgt, images, name)


def codegeneracy_map(k: int, j: int) -> SimplicialMap:
    """The collapse delta(k+1) -> delta(k) merging vertices j, j+1."""
    if not 0 <= j <= k:
        raise ConstructionError(f"codegeneracy index {j} out of range for delta{k}")
    key = ("codegeneracy", k, j)
    src, tgt = standard_simplex(k + 1), standard_simplex(k)
    if key not in tgt._cache:
        tgt._cache[key] = vertex_induced_map(
            src, tgt, lambda v: v if v <= j else v - 1, f"sigma_{j}")
    return tgt._cache[key]


_FIXTURES: dict[tuple, SimplicialSet] = {}


def _memo(token: tuple, build: Callable[[], SimplicialSet]) -> SimplicialSet:
    if token not in _FIXTURES:
        _FIXTURES[token] = build()
    return _FIXTURES[token]


def point() -> SimplicialSet:
    def build():
        X = SimplicialSet("pt")
        X.add_generator("*", 0)
        return X.freeze()
    return _memo(("pt",), build)


def circle(n: int = 3) -> SimplicialSet:
    """Cyclic triangulation of the circle; edge e_i runs v_i -> v_{i+1}."""
    if n < 3:
        raise ConstructionError("circle needs at least 3 vertices")

    def build():
        X = SimplicialSet(f"circle{n}")
        for i in range(n):
            X.add_generator(f"v{i}", 0)
        for i in range(n):
            X.add_generator(f"e{i}", 1,
                            [Simplex(f"v{(i + 1) % n}"), Simplex(f"v{i}")])
        return X.freeze()
    return _memo(("circle", n), build)


def sphere2() -> SimplicialSet:
    """Boundary of the 3-simplex."""
    return _memo(("sphere2",),
                 lambda: from_facets("sphere2", combinations(range(4), 3)))


RP2_TRIANGLES = [(0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
                 (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5)]


def rp2() -> SimplicialSet:
    """The 6-vertex triangulation of the real projective plane."""
    return _memo(("rp2",), lambda: from_facets("rp2", RP2_TRIANGLES))


def torus() -> SimplicialSet:
    return _memo(("torus",), lambda: product(circle(3), circle(3), name="torus"))


_FIXTURE_BUILDERS: dict[str, Callable[..., SimplicialSet]] = {
    "pt": point,
    "delta_k": lambda k=1: standard_simplex(int(k)),
    "circle": lambda n=3: circle(int(n)),
    "sphere2": sphere2,
    "torus": torus,
    "rp2": rp2,
}


def build_standard(kind: str, **params) -> SimplicialSet:
    if kind not in _FIXTURE_BUILDERS:
        raise ConstructionError(
            f"unknown fixture kind {kind!r}; choose from {sorted(_FIXTURE_BUILDERS)}")
    try:
        return _FIXTURE_BUILDERS[kind](**params)
    except TypeError as e:
        raise ConstructionError(f"bad parameters for {kind}: {e}") from None


# -- products --------------------------------------------------------------


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


def pair_canonical(P: SimplicialSet, sx: Simplex, sy: Simplex) -> Simplex:
    """_pair, checked against the generators of the product complex P."""
    s = _pair(sx, sy)
    if s.gen not in P._dims:
        raise KeyError(f"{P.name}: pair {s.gen!r} is not a generator")
    return s


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


def product_map(P: SimplicialSet, Q: SimplicialSet,
                f: SimplicialMap, g: SimplicialMap,
                name: str = "") -> SimplicialMap:
    """The map f x g between product complexes built by product()."""
    images = {}
    for key in P.generators():
        gx, wx, gy, wy = key
        images[key] = pair_canonical(Q, f(Simplex(gx, wx)), g(Simplex(gy, wy)))
    return SimplicialMap(P, Q, images, name or f"{f.name}x{g.name}")


@dataclass(frozen=True)
class PrismDecomposition:
    """Shuffle cells of base x Delta^k, per base generator, with signs.

    The cell of an m-generator x for the partition B | A of {0..m+k-1}
    (|B| = k words on the base side) is the pair (s_B x, s_A iota_k); its
    sign is the signature of the partition, (-1)^{#{(b,a) in BxA : b > a}}.
    """

    base_name: str
    k: int
    cells: dict[Hashable, tuple[tuple[int, tuple], ...]] = field(hash=False)

    def __getitem__(self, gen: Hashable) -> tuple[tuple[int, tuple], ...]:
        return self.cells[gen]


class ProductWithSimplex:
    """X x Delta^k with its prism decomposition and structural maps."""

    def __init__(self, X: SimplicialSet, k: int):
        if k not in (1, 2, 3):
            raise ConstructionError("products are supported against Delta^k, k in 1..3")
        D = standard_simplex(k)
        self.base = X
        self.k = k
        self.complex = product(X, D, name=f"{X.name}xD{k}")
        iota = tuple(range(k + 1))
        cells: dict[Hashable, tuple[tuple[int, tuple], ...]] = {}
        for g in X.generators():
            m = X.gen_dim(g)
            entries = []
            for B in combinations(range(m + k), k):
                A = tuple(v for v in range(m + k) if v not in B)
                inv = sum(1 for b in B for a in A if b > a)
                entries.append(((-1) ** inv, (g, B, iota, A)))
            cells[g] = tuple(entries)
        self.decomposition = PrismDecomposition(X.name, k, cells)
        self.projection = SimplicialMap(
            self.complex, X,
            {key: Simplex(key[0], key[1]) for key in self.complex.generators()},
            f"proj_{X.name}")
        self._inclusions: dict[int, SimplicialMap] = {}

    def face_inclusion(self, i: int) -> SimplicialMap:
        """id x delta_i, from X x Delta^{k-1} (or X itself when k = 1)."""
        if not 0 <= i <= self.k:
            raise ConstructionError(f"face index {i} out of range")
        if i not in self._inclusions:
            if self.k == 1:
                vertex = (1 - i,)
                images = {}
                for g in self.base.generators():
                    p = self.base.gen_dim(g)
                    images[g] = Simplex((g, (), vertex, tuple(range(p))))
                m = SimplicialMap(self.base, self.complex, images,
                                  f"end{1 - i}_{self.base.name}")
            else:
                src = cylinder(self.base, self.k - 1).complex
                images = {}
                for key in src.generators():
                    gx, wx, gd, wd = key
                    lifted = tuple(v if v < i else v + 1 for v in gd)
                    images[key] = Simplex((gx, wx, lifted, wd))
                m = SimplicialMap(src, self.complex, images, f"idxdelta_{i}")
            self._inclusions[i] = m
        return self._inclusions[i]

    @property
    def end_inclusions(self) -> tuple[SimplicialMap, SimplicialMap]:
        """(i_0, i_1): inclusions of X at vertex 0 and vertex 1 (k = 1 only)."""
        if self.k != 1:
            raise ConstructionError("end inclusions only exist for k = 1")
        return self.face_inclusion(1), self.face_inclusion(0)


def cylinder(X: SimplicialSet, k: int = 1) -> ProductWithSimplex:
    """Memoized X x Delta^k with decomposition and inclusions."""
    token = ("cylinder", k)
    if token not in X._cache:
        X._cache[token] = ProductWithSimplex(X, k)
    return X._cache[token]


# -- vertex paths ----------------------------------------------------------


def vertex_path(s: Simplex, dim: int) -> tuple:
    """Vertex sequence of a simplex whose generator key is a vertex tuple."""
    theta = surjection_of_word(s.word, dim)
    return tuple(s.gen[t] for t in theta)


# -- JSON ------------------------------------------------------------------


def complex_to_json(X: SimplicialSet) -> dict:
    gens = []
    for key in X.generators():
        entry: dict[str, Any] = {"id": key_str(key), "dim": X.gen_dim(key)}
        entry["faces"] = [{"id": key_str(f.gen), "degeneracies": list(f.word)}
                          for f in X._faces[key]]
        gens.append(entry)
    return {"name": X.name, "generators": gens}


def json_int(value: Any) -> int:
    """value if it is a JSON integer (an int, not a bool); else TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def complex_from_json(data: dict) -> SimplicialSet:
    try:
        X = SimplicialSet(str(data["name"]))
        for entry in data["generators"]:
            faces = [Simplex(f["id"], tuple(json_int(j) for j in f.get("degeneracies", ())))
                     for f in entry.get("faces", ())]
            X.add_generator(entry["id"], json_int(entry["dim"]), faces)
    except (KeyError, TypeError, AttributeError, OverflowError) as e:
        raise ConstructionError(f"malformed complex JSON: {e!r}") from None
    return X.freeze()
