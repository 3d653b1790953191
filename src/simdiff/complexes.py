"""Finite simplicial sets: generators, fixtures, products with simplices.

A complex is presented by its nondegenerate simplices (generators); an
arbitrary simplex is a generator decorated with a degeneracy word.  Faces of
generators may be degenerate, so a frozen complex compiles its face table to
(position, word) pairs, the position indexing its generator tuple, and the
word algebra from :mod:`simdiff.words` does the rest.  Validation, the
cochain kernels' face tables and products all read the compiled table.

Three memo rules.  Results keyed by words and small ints (the word
algebra, the canonical pair words, the shuffles of two dimensions, the
fixtures) are functools caches at module level, where they are defined:
they are bounded by dimension and by the fixtures in use.  Memos keyed by
simplices of one complex (FaceMemo.row, the product's numbering) live for
one build.  Data derived from one complex, map, cylinder or group (face
and coboundary tables, factored systems, structure maps, fill plans) goes
through derived or cached_on, which keep it in that owner's _cache: it
lives exactly as long as its owner, and no other module touches the store.

Products are built by the shuffle (Eilenberg-Zilber) enumeration: a
nondegenerate simplex of X x Y is a pair of decorated simplices whose words
are disjoint.  product() computes each generator's faces from its factors'
compiled tables and spells its key string from theirs, once.  Only products
with standard simplices are part of the public surface (plus the torus and
ladder fixtures, which reuse the same machinery).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import cache, cached_property, wraps
from itertools import combinations
from operator import add, itemgetter, neg
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

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

    add_generator records each generator's key, dimension and faces;
    freeze() compiles them once, and the complex is immutable from then on.
    Freezing orders the generators by dimension, then key string, so that
    cochain bases and JSON output are deterministic, builds the generator
    tuple and the position index of each dimension, and stores the face
    table by position: face i of the generator at position q of
    generators() is the pair (position, word), the position again in
    generators() and the word its degeneracies.  face(), the cochain
    kernels and the validation in problems() all read that table.
    """

    def __init__(self, name: str):
        self.name = name
        self._dims: dict[Hashable, int] = {}
        # until freeze, the faces of each generator in the order added: Simplex
        # objects from add_generator, or (id, word) pairs from product, id
        # counting generators in the order added; product also sets the key
        # strings, which freeze otherwise spells with key_str
        self._added: list[tuple] = []
        self._strs: list[str] | None = None
        self._order: tuple[Hashable, ...] = ()
        self._by_dim: dict[int, tuple[Hashable, ...]] = {}
        self._index: dict[int, Mapping[Hashable, int]] = {}
        self._start: dict[int, int] = {}
        self._table: tuple[tuple[tuple[int, Word], ...], ...] = ()
        self._missing: tuple[Hashable, ...] = ()
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
        self._added.append(faces)

    def freeze(self) -> "SimplicialSet":
        if not self._frozen:
            keys = list(self._dims)
            dims = list(self._dims.values())
            rows = self._added
            if self._strs is None:
                rows = self._resolve(keys)
                self._strs = [key_str(k) for k in keys]
            order = [i for _, _, i in sorted(zip(dims, self._strs, range(len(keys))))]
            # pos[id] is the position of a generator, and pos[-1 - k] = -1 - k
            # keeps the marks of missing references
            pos = [0] * len(order) + list(range(-len(self._missing), 0))
            for q, i in enumerate(order):
                pos[i] = q
            self._order = tuple(keys[i] for i in order)
            self._table = tuple(tuple([(pos[j], w) for j, w in rows[i]]) for i in order)
            start = 0
            for d in sorted(set(dims)):
                gens = self._order[start:start + dims.count(d)]
                self._by_dim[d] = gens
                self._index[d] = MappingProxyType({k: p for p, k in enumerate(gens)})
                self._start[d] = start
                start += len(gens)
            self._added, self._strs = [], None
            self._frozen = True
            self.check()
        return self

    def _resolve(self, keys: list) -> list[tuple[tuple[int, Word], ...]]:
        """The added Simplex faces as (id, word) pairs; a face on a missing
        generator gets id -1 - k, k indexing self._missing."""
        ids = {k: i for i, k in enumerate(keys)}
        missing: list[Hashable] = []
        rows = []
        for faces in self._added:
            row = []
            for f in faces:
                i = ids.get(f.gen)
                if i is None:
                    missing.append(f.gen)
                    i = -len(missing)
                row.append((i, f.word))
            rows.append(tuple(row))
        self._missing = tuple(missing)
        return rows

    # -- structure ---------------------------------------------------------

    def generators(self, dim: int | None = None) -> tuple[Hashable, ...]:
        if dim is None:
            return self._order
        return self._by_dim.get(dim, ())

    def gen_index(self, dim: int) -> Mapping[Hashable, int]:
        """Position of each generator of one dimension in generators(dim)."""
        return self._index.get(dim, _NO_INDEX)

    def offset(self, dim: int) -> int:
        """Position in generators() of the first generator of one dimension."""
        return self._start.get(dim, 0)

    def face_rows(self, dim: int) -> tuple[tuple[tuple[int, Word], ...], ...]:
        """The compiled faces of generators(dim), one row per generator: face
        i is (position in generators(), word)."""
        start = self._start.get(dim, 0)
        return self._table[start:start + len(self.generators(dim))]

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
        p = self._dims[s.gen]
        d = p + len(s.word)
        if d == 0 or not 0 <= i <= d:
            raise ValueError(f"face index {i} out of range for dimension {d}")
        r, word = face_at(self._table, self._start[p] + self._index[p][s.gen], s.word, i)
        return Simplex(self._order[r], word)

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
        """Simplicial-identity and reference violations, empty when valid.

        Runs on the compiled table, so it has nothing to check before
        freeze.  Reference problems (a missing generator, a bad word, a face
        of the wrong dimension) are listed in the order the generators were
        added; only when there are none are the identities d_i d_j =
        d_{j-1} d_i checked, in generator order, through face_at and the
        cached word algebra.
        """
        table, order = self._table, self._order
        dims = [d for d in sorted(self._by_dim) for _ in self._by_dim[d]]
        bad: dict[int, list[str]] = {}
        for q, row in enumerate(table):
            expect = dims[q] - 1
            for i, (r, w) in enumerate(row):
                # all but the common case, a nondegenerate face of dimension expect
                if w or r < 0 or dims[r] != expect:
                    msg = self._face_problem(dims, r, w, expect)
                    if msg:
                        bad.setdefault(q, []).append(f"{order[q]!r}: face {i} {msg}")
        if bad:
            return [msg for key, d in self._dims.items()
                    for msg in bad.get(self._start[d] + self._index[d][key], ())]
        out: list[str] = []
        for q, row in enumerate(table):
            for j in range(1, len(row) if len(row) > 2 else 0):
                rj, wj = row[j]
                below = None if wj else table[rj]
                for i in range(j):
                    left = face_at(table, rj, wj, i) if below is None else below[i]
                    ri, wi = row[i]
                    right = face_at(table, ri, wi, j - 1) if wi else table[ri][j - 1]
                    if left != right:
                        out.append(f"{order[q]!r}: d_{i} d_{j} != d_{j-1} d_{i}"
                                   f" ({Simplex(order[left[0]], left[1])} vs"
                                   f" {Simplex(order[right[0]], right[1])})")
        return out

    def _face_problem(self, dims: list[int], r: int, w: Word, expect: int) -> str | None:
        """What is wrong with the face (r, w) of a generator of dimension
        expect + 1, or None."""
        if r < 0:
            return f"references missing {self._missing[-1 - r]!r}"
        try:
            check_word(w, dims[r])
        except ValueError as e:
            return f"has bad word ({e})"
        if dims[r] + len(w) != expect:
            return f"has dimension {dims[r] + len(w)}, expected {expect}"
        return None

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


class LinearPlan:
    """A sparse integer matrix, compiled to gathers: apply(padded) = M vec.

    rows hold {input position: coefficient} over a vector of length size,
    which apply reads padded by one zero, as Gather does.  The rows are
    grouped by their number of terms (an entry c counts |c| times) and each
    group is a short sum of gathers; the entries read with a minus sign
    come from one negated copy of them, appended after the padding zero,
    and order puts the grouped rows back in row order.  An empty row reads
    the zero.  The plan holds integers only, so it serves every ring, and
    apply does not reduce mod k.
    """

    __slots__ = ("minus", "groups", "order")

    def __init__(self, rows: Sequence[Mapping[int, int]], size: int):
        minus = sorted({k for row in rows for k, c in row.items() if c < 0})
        self.minus = Gather(minus, size)
        at_minus = {k: size + 1 + i for i, k in enumerate(minus)}
        by_terms: dict[int, list[tuple[int, list[int]]]] = {}
        for r, row in enumerate(rows):
            terms = [k if c > 0 else at_minus[k]
                     for k, c in sorted(row.items()) for _ in range(abs(c))]
            by_terms.setdefault(len(terms) or 1, []).append((r, terms or [size]))
        ranked = [by_terms[t] for t in sorted(by_terms)]
        self.groups = [tuple(Gather(col, size + 1 + len(minus))
                             for col in zip(*(terms for _, terms in group)))
                       for group in ranked]
        order = [0] * len(rows)
        for at, (r, _) in enumerate(row for group in ranked for row in group):
            order[r] = at
        self.order = Gather(order, len(rows))

    def apply(self, padded: tuple) -> tuple:
        both = padded + tuple(map(neg, self.minus.get(padded)))
        out = []
        for first, *rest in self.groups:
            col = first.get(both)
            for g in rest:
                col = map(add, col, g.get(both))
            out.extend(col)
        return self.order.get(out)


# -- derived data ----------------------------------------------------------


def cached_on(owner: Any, key: Hashable, build: Callable, *args) -> Any:
    """owner._cache[key], set to build(*args) the first time; an owner gets
    its store on first use.  derived is the door for a function of its
    owner; a build whose owner is not its first argument, or whose key
    leaves out one of its arguments, comes through here."""
    store = vars(owner).setdefault("_cache", {})
    if key not in store:
        store[key] = build(*args)
    return store[key]


def derived(name: str) -> Callable[[Callable], Callable]:
    """Decorator: fn(owner, *args) is cached on owner under (name, *args),
    keywords and defaults resolved first, so every way of passing the same
    arguments reaches one entry."""
    def wrap(fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        params = list(signature.parameters.values())[1:]
        defaults = tuple(p.default for p in params if p.default is not p.empty)
        width, head = len(params), (name,)

        @wraps(fn)
        def get(owner, *args, **kwargs):
            if kwargs:
                bound = signature.bind(owner, *args, **kwargs)
                bound.apply_defaults()
                args = bound.args[1:]
            elif len(args) < width:
                args += defaults[len(args) - width:]
            try:
                return owner._cache[head + args]
            except (AttributeError, KeyError):
                pass
            return cached_on(owner, head + args, fn, owner, *args)
        return get
    return wrap


# -- simplicial maps -------------------------------------------------------


class SimplicialMap:
    """Map of simplicial sets given on generators.

    Images may be degenerate.  Compatibility with degeneracies is automatic
    from the word algebra; compatibility with faces is what check() verifies.
    The images are read-only, so the pullback tables and cylinder maps
    derived on the map can never go stale.
    """

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 images: Mapping[Hashable, Simplex], name: str = ""):
        self.source = source
        self.target = target
        self.images = MappingProxyType(dict(images))
        self.name = name or f"{source.name}->{target.name}"

    def __call__(self, s: Simplex) -> Simplex:
        return degenerate(self.images[s.gen], s.word)

    @derived("pullback")
    def pullback_table(self, dim: int) -> Gather:
        """The position of each source generator's image among the target
        generators of one dimension, the sentinel where the image is
        degenerate; built once per degree."""
        images = self.images
        index = self.target.gen_index(dim)
        size = len(index)
        return Gather((size if images[g].word else index[images[g].gen]
                       for g in self.source.generators(dim)), size)

    @derived("cylinder_map")
    def cylinder_map(self, k: int) -> "SimplicialMap":
        """This map times the identity of Delta^k, between the two
        cylinders; built once per k."""
        return product_map(cylinder(self.source, k).complex, cylinder(self.target, k).complex,
                           self, identity_map(standard_simplex(k)))

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
        try:
            t = tuple(sorted(set(facet)))
            repeats = len(t) != len(facet)
        except TypeError as e:
            raise ConstructionError(
                f"{name}: facet {facet!r} does not have sortable vertex labels ({e})") from None
        if repeats:
            raise ConstructionError(f"{name}: facet {facet!r} repeats a vertex")
        for r in range(1, len(t) + 1):
            for sub in combinations(t, r):
                if sub not in seen:
                    seen.add(sub)
                    subsets.append(sub)
    try:
        subsets.sort(key=lambda s: (len(s), s))
    except TypeError as e:
        raise ConstructionError(
            f"{name}: vertex labels of different facets do not sort together ({e})") from None
    for sub in subsets:
        if len(sub) == 1:
            X.add_generator(sub, 0)
        else:
            faces = [Simplex(sub[:i] + sub[i + 1:]) for i in range(len(sub))]
            X.add_generator(sub, len(sub) - 1, faces)
    return X.freeze()


def standard_simplex(k: int) -> SimplicialSet:
    """The standard k-simplex; memoized so maps can share the instance."""
    if k < 0:
        raise ConstructionError("standard simplex needs k >= 0")
    return _standard_simplex(k)


@cache
def _standard_simplex(k: int) -> SimplicialSet:
    return from_facets(f"delta{k}", [tuple(range(k + 1))])


def coface_map(k: int, i: int) -> SimplicialMap:
    """The inclusion delta(k-1) -> delta(k) missing vertex i."""
    if not 0 <= i <= k:
        raise ConstructionError(f"coface index {i} out of range for delta{k}")
    return _coface_map(standard_simplex(k), k, i)


@derived("coface")
def _coface_map(tgt: SimplicialSet, k: int, i: int) -> SimplicialMap:
    src = standard_simplex(k - 1)
    images = {g: Simplex(tuple(v if v < i else v + 1 for v in g)) for g in src.generators()}
    return SimplicialMap(src, tgt, images, f"delta_{i}")


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
    return _codegeneracy_map(standard_simplex(k), k, j)


@derived("codegeneracy")
def _codegeneracy_map(tgt: SimplicialSet, k: int, j: int) -> SimplicialMap:
    return vertex_induced_map(standard_simplex(k + 1), tgt,
                              lambda v: v if v <= j else v - 1, f"sigma_{j}")


@cache
def point() -> SimplicialSet:
    X = SimplicialSet("pt")
    X.add_generator("*", 0)
    return X.freeze()


def circle(n: int = 3) -> SimplicialSet:
    """Cyclic triangulation of the circle; edge e_i runs v_i -> v_{i+1}.
    One instance per n, however n is passed."""
    if n < 3:
        raise ConstructionError("circle needs at least 3 vertices")
    return _circle(n)


@cache
def _circle(n: int) -> SimplicialSet:
    X = SimplicialSet(f"circle{n}")
    for i in range(n):
        X.add_generator(f"v{i}", 0)
    for i in range(n):
        X.add_generator(f"e{i}", 1, [Simplex(f"v{(i + 1) % n}"), Simplex(f"v{i}")])
    return X.freeze()


@cache
def sphere2() -> SimplicialSet:
    """Boundary of the 3-simplex."""
    return from_facets("sphere2", combinations(range(4), 3))


RP2_TRIANGLES = [(0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
                 (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5)]


@cache
def rp2() -> SimplicialSet:
    """The 6-vertex triangulation of the real projective plane."""
    return from_facets("rp2", RP2_TRIANGLES)


@cache
def torus() -> SimplicialSet:
    return product(circle(3), circle(3), name="torus")


def _torus9(rename: Callable[[int], Hashable]) -> list[tuple]:
    """The 3x3 grid torus minus the triangle (0, 3, 4); vertex 3i + j at
    grid point (i, j), renamed."""
    def at(i: int, j: int) -> Hashable:
        return rename(3 * (i % 3) + j % 3)
    hole = {rename(0), rename(3), rename(4)}
    return [t for i in range(3) for j in range(3)
            for t in ((at(i, j), at(i + 1, j), at(i + 1, j + 1)),
                      (at(i, j), at(i, j + 1), at(i + 1, j + 1)))
            if set(t) != hole]


@cache
def genus2() -> SimplicialSet:
    """Two 9-vertex tori, each minus one triangle, glued along its boundary."""
    second = {0: 0, 3: 3, 4: 4, 1: 9, 2: 10, 5: 11, 6: 12, 7: 13, 8: 14}
    return from_facets("genus2", _torus9(int) + _torus9(second.__getitem__))


_FIXTURE_BUILDERS: dict[str, Callable[..., SimplicialSet]] = {
    "pt": point,
    "delta_k": lambda k=1: standard_simplex(int(k)),
    "circle": lambda n=3: circle(int(n)),
    "sphere2": sphere2,
    "torus": torus,
    "rp2": rp2,
    "genus2": genus2,
    "rp2xS1": cache(lambda: product(rp2(), circle(3), name="rp2xS1")),
    "T3": cache(lambda: product(torus(), circle(3), name="T3")),
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


def face_at(table: tuple, r: int, w: Word, i: int) -> tuple[int, Word]:
    """Face i of the simplex (r, w), generator position r and word w, over
    a compiled face table, as (position, word)."""
    if not w:
        return table[r][i]
    word, residual = apply_face(w, i)
    if residual is None:
        return r, word
    r, w = table[r][residual]
    return r, apply_word(w, word)


class FaceMemo:
    """The face rows of (position, word) simplices over one compiled face
    table, memoized on the simplex for one build."""

    def __init__(self, table: tuple):
        self.table = table
        self.rows: dict[tuple[int, Word], tuple[tuple[int, ...], tuple[Word, ...]]] = {}

    def row(self, r: int, w: Word, d: int) -> tuple[tuple[int, ...], tuple[Word, ...]]:
        """(positions, words) of faces 0..d of the d-simplex (r, w), memoized."""
        hit = self.rows.get((r, w))
        if hit is None:
            table = self.table
            hit = self.rows[r, w] = tuple(zip(*(face_at(table, r, w, i)
                                                for i in range(d + 1))))
        return hit


@cache
def _pair_words(wx: Word, wy: Word) -> tuple[Word, Word, Word]:
    """Canonical form of a pair of component words.

    Shared degeneracies are stripped innermost-first until the component
    words are disjoint; what was stripped becomes the word of the pair.
    """
    shared: list[int] = []
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
    return wx, wy, word


def pair_canonical(P: SimplicialSet, sx: Simplex, sy: Simplex) -> Simplex:
    """Canonical form of a component pair as a simplex of the product
    complex P, checked against P's generators."""
    wx, wy, word = _pair_words(sx.word, sy.word)
    key = (sx.gen, wx, sy.gen, wy)
    if key not in P._dims:
        raise KeyError(f"{P.name}: pair {key!r} is not a generator")
    return Simplex(key, word)


@cache
def _shuffles(p: int, q: int) -> tuple[tuple[Word, Word, str, str], ...]:
    """The disjoint word pairs over a p- and a q-generator, with their
    strings, in enumeration order."""
    out = []
    for d in range(max(p, q), p + q + 1):
        for wx in combinations(range(d), d - p):
            rest = [v for v in range(d) if v not in wx]
            for wy in combinations(rest, d - q):
                out.append((wx, wy, ",".join(map(str, wx)), ",".join(map(str, wy))))
    return tuple(out)


def product(X: SimplicialSet, Y: SimplicialSet, name: str | None = None) -> SimplicialSet:
    """Simplicial product via shuffle enumeration of nondegenerate pairs.

    A generator (gx, wx, gy, wy) is numbered in enumeration order as
    (position of gx, wx, position of gy, wy), and its key string is put
    together once from the factors' key strings and the word strings.  Its
    faces come from the factors' compiled tables and are handed to freeze
    as (number, word) pairs, so no Simplex is built.  The face rows and
    the numbering are memoized for this build; the word algebra, the
    shuffles and the canonical pair words come from module-level caches.
    """
    P = SimplicialSet(name or f"{X.name}x{Y.name}")
    xgens, ygens = X.generators(), Y.generators()
    xdims = [X.gen_dim(g) for g in xgens]
    ydims = [Y.gen_dim(g) for g in ygens]
    ystrs = [key_str(g) for g in ygens]
    numbered: dict[tuple[int, Word, int, Word], int] = {}
    keys, dims, strs = [], [], []
    for ax, gx in enumerate(xgens):
        p = xdims[ax]
        # key_str reads a 4-tuple with an int first entry as a plain tuple
        sx = None if isinstance(gx, int) else key_str(gx)
        for ay, gy in enumerate(ygens):
            sy = ystrs[ay]
            for wx, wy, swx, swy in _shuffles(p, ydims[ay]):
                key = (gx, wx, gy, wy)
                numbered[ax, wx, ay, wy] = len(keys)
                keys.append(key)
                dims.append(p + len(wx))
                strs.append(key_str(key) if sx is None else f"({sx}|{swx})*({sy}|{swy})")

    xface, yface = FaceMemo(X._table), FaceMemo(Y._table)
    rows = []
    for (ax, wx, ay, wy), d in zip(numbered, dims):
        if not d:
            rows.append(())
            continue
        xpos, xwords = xface.row(ax, wx, d)
        ypos, ywords = yface.row(ay, wy, d)
        rows.append(tuple([(numbered[a, cx, b, cy], w) for a, b, (cx, cy, w)
                           in zip(xpos, ypos, map(_pair_words, xwords, ywords))]))
    P._dims = dict(zip(keys, dims))
    P._added, P._strs = rows, strs
    P._factors = (X, Y)
    return P.freeze()


def product_map(P: SimplicialSet, Q: SimplicialSet,
                f: SimplicialMap, g: SimplicialMap,
                name: str = "") -> SimplicialMap:
    """The map f x g between product complexes built by product()."""
    fimg, gimg, targets = f.images, g.images, Q._dims
    images = {}
    for key in P.generators():
        gx, wx, gy, wy = key
        sx, sy = fimg[gx], gimg[gy]
        cx, cy, word = _pair_words(apply_word(sx.word, wx), apply_word(sy.word, wy))
        pair = (sx.gen, cx, sy.gen, cy)
        if pair not in targets:
            raise KeyError(f"{Q.name}: pair {pair!r} is not a generator")
        images[key] = Simplex(pair, word)
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
    """X x Delta^k with its prism decomposition and structural maps.

    The decomposition, the projection and the face inclusions are built
    the first time they are used.  Data derived from the cylinder shares
    its complex's store.
    """

    def __init__(self, X: SimplicialSet, k: int):
        if k not in (1, 2, 3):
            raise ConstructionError("products are supported against Delta^k, k in 1..3")
        D = standard_simplex(k)
        self.base = X
        self.k = k
        self.complex = product(X, D, name=f"{X.name}xD{k}")
        self._cache = self.complex._cache

    @cached_property
    def decomposition(self) -> PrismDecomposition:
        X, k = self.base, self.k
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
        return PrismDecomposition(X.name, k, cells)

    @cached_property
    def projection(self) -> SimplicialMap:
        return SimplicialMap(
            self.complex, self.base,
            {key: Simplex(key[0], key[1]) for key in self.complex.generators()},
            f"proj_{self.base.name}")

    @derived("face_inclusion")
    def face_inclusion(self, i: int) -> SimplicialMap:
        """id x delta_i, from X x Delta^{k-1} (or X itself when k = 1)."""
        if not 0 <= i <= self.k:
            raise ConstructionError(f"face index {i} out of range")
        if self.k == 1:
            images = {g: Simplex((g, (), (1 - i,), tuple(range(self.base.gen_dim(g)))))
                      for g in self.base.generators()}
            return SimplicialMap(self.base, self.complex, images, f"end{1 - i}_{self.base.name}")
        src = cylinder(self.base, self.k - 1).complex
        images = {}
        for key in src.generators():
            gx, wx, gd, wd = key
            lifted = tuple(v if v < i else v + 1 for v in gd)
            images[key] = Simplex((gx, wx, lifted, wd))
        return SimplicialMap(src, self.complex, images, f"idxdelta_{i}")

    @property
    def end_inclusions(self) -> tuple[SimplicialMap, SimplicialMap]:
        """(i_0, i_1): inclusions of X at vertex 0 and vertex 1 (k = 1 only)."""
        if self.k != 1:
            raise ConstructionError("end inclusions only exist for k = 1")
        return self.face_inclusion(1), self.face_inclusion(0)


@derived("cylinder")
def cylinder(X: SimplicialSet, k: int = 1) -> ProductWithSimplex:
    """Memoized X x Delta^k with decomposition and inclusions."""
    return ProductWithSimplex(X, k)


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
                          for f in (X.faces(Simplex(key)) if entry["dim"] else ())]
        gens.append(entry)
    return {"name": X.name, "generators": gens}


def json_int(value: Any) -> int:
    """value if it is a JSON integer (an int, not a bool); else TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_key(value: Any) -> Hashable:
    """value if it can be a generator id (not a JSON list or object); else TypeError."""
    if isinstance(value, (list, dict)):
        raise TypeError(f"expected a generator id, got {value!r}")
    return value


def complex_from_json(data: dict) -> SimplicialSet:
    """The complex complex_to_json wrote.  Ids that print alike (1 and "1")
    would be written alike, so they raise ConstructionError naming both."""
    try:
        X = SimplicialSet(str(data["name"]))
        printed: dict[str, Hashable] = {}
        for entry in data["generators"]:
            key = json_key(entry["id"])
            other = printed.setdefault(key_str(key), key)
            if other != key:
                raise ConstructionError(f"{X.name}: generator ids {other!r} and {key!r}"
                                        f" both print as {key_str(key)!r}")
            faces = [Simplex(json_key(f["id"]),
                             tuple(json_int(j) for j in f.get("degeneracies", ())))
                     for f in entry.get("faces", ())]
            X.add_generator(key, json_int(entry["dim"]), faces)
    except (KeyError, TypeError, AttributeError, OverflowError) as e:
        raise ConstructionError(f"malformed complex JSON: {e!r}") from None
    return X.freeze()
