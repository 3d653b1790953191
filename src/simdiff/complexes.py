"""Finite simplicial sets: generators, fixtures, products with simplices.

A complex is presented by its nondegenerate simplices (generators); an
arbitrary simplex is a generator decorated with a degeneracy word.  Faces of
generators may be degenerate, so a frozen complex compiles its face table to
(position, word) pairs, the position indexing its generator tuple, and the
word algebra from :mod:`simdiff.words` does the rest.  Validation, the
cochain kernels' face tables, the coboundary rows and products all read
the compiled table.  One ordering function (_ordering: by dimension, key
string, then order added) fixes every generator's position before any
face row is written, so product(), from_facets() and freeze's resolution
of Simplex faces each write a row once, already in positions.

Two memo rules.  Results keyed by words and small ints (the word algebra,
the canonical pair words, the shuffles of two dimensions, the face recipe
and pair index of each product shape, the fixtures) are functools caches
at module level, where they are defined: they are bounded by dimension and
by the fixtures in use.  Data derived from one complex, map, cylinder or
group (key strings, face and coboundary tables, factored systems,
structure maps, fill plans) goes through derived or cached_on, which keep
it in that owner's _cache: it lives exactly as long as its owner, and no
other module touches the store.  So do the shuffle blocks of a product
X x Y: they are keyed by the second factor Y and the dimension p of a
generator of X, and stored on Y, so every product with Delta^k reads the
same few.  No memo is keyed by the simplices of one complex.

Products are built by the shuffle (Eilenberg-Zilber) enumeration: a
nondegenerate simplex of X x Y is a pair of decorated simplices whose words
are disjoint.  The generators over one pair of factor generators are the
shuffles of their dimensions, so product() numbers them by arithmetic,
reads their faces off the factors' compiled tables through the recipe of
their shape, and spells each key string as the key string of its x
followed by a tail its shuffle block holds.  Only products with standard
simplices are part of the public surface (plus the torus and ladder
fixtures, which reuse the same machinery).

A map into a product is a pairing <first, second> of its two components
(pair_map): product maps, the face inclusions and codegeneracies of the
cylinders and the square model of the groupoid are all built that way.
Such a map is a rule on generator keys, and its images are read one
dimension at a time: a pullback table runs the rule on the generators of
its own degree only.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property, wraps
from itertools import accumulate, chain, combinations
from operator import add, itemgetter, neg
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

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
    Freezing orders the generators by dimension, then key string (then
    order added), so that cochain bases and JSON output are deterministic,
    writes each face row once with positions, builds the generator tuple
    and the position index of each dimension, and checks the result.  The
    face table is stored by position: face i of the generator at position
    q of generators() is the pair (position, word), the position again in
    generators() and the word its degeneracies.  face(), the cochain
    kernels and the validation in problems() all read that table.
    product() and from_facets() fix the positions the same way and hand
    over rows already written with them (_compiled), so no row is copied.
    """

    def __init__(self, name: str):
        self.name = name
        self._dims: dict[Hashable, int] = {}
        # until freeze, the Simplex faces of each generator in the order added
        self._added: list[tuple[Simplex, ...]] = []
        self._order: tuple[Hashable, ...] = ()
        self._by_dim: dict[int, tuple[Hashable, ...]] = {}
        self._index: dict[int, Mapping[Hashable, int]] = {}
        self._start: dict[int, int] = {}
        self._table: tuple[tuple[tuple[int, Word], ...], ...] = ()
        self._missing: tuple[Hashable, ...] = ()
        # the two factors of a complex built by product()
        self._factors: tuple[SimplicialSet, SimplicialSet] | None = None
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

    @classmethod
    def _compiled(cls, name: str, keys: list, dims: list[int], order: list[int],
                  table: Sequence[tuple[tuple[int, Word], ...]],
                  strs: list[str] | None = None) -> "SimplicialSet":
        """The frozen complex of the given generators: keys and dims in the
        order added, order from _ordering(dims, key strings), and table the
        face rows in position order, each face a (position, word) pair.
        strs, when given, are the key strings in the order added, kept as
        key_strings.  It is checked like any other."""
        X = cls(name)
        X._dims = dict(zip(keys, dims))
        X._seal(order, table, strs)
        return X

    def freeze(self) -> "SimplicialSet":
        if not self._frozen:
            keys = list(self._dims)
            strs = [key_str(k) for k in keys]
            order, pos = _ordering(list(self._dims.values()), strs)
            self._seal(order, self._resolve(keys, order, pos), strs)
        return self

    def _seal(self, order: list[int], table: Sequence[tuple[tuple[int, Word], ...]],
              strs: list[str] | None = None) -> None:
        """Store the generators in position order and their face table,
        and the key strings in position order when given, build the index
        of each dimension, and check the result."""
        keys = list(self._dims)
        self._order = tuple(map(keys.__getitem__, order))
        if strs is not None:
            # the entry key_strings reads
            self._cache[("key_strings",)] = tuple(map(strs.__getitem__, order))
        self._table = tuple(table)
        dims = list(self._dims.values())
        start = 0
        for d in sorted(set(dims)):
            gens = self._order[start:start + dims.count(d)]
            self._by_dim[d] = gens
            self._index[d] = MappingProxyType({k: p for p, k in enumerate(gens)})
            self._start[d] = start
            start += len(gens)
        self._added = []
        self._frozen = True
        self.check()

    def _resolve(self, keys: list, order: list[int],
                 pos: list[int]) -> list[tuple[tuple[int, Word], ...]]:
        """The added Simplex faces as (position, word) rows in position
        order; a face on a missing generator gets -1 - k, k indexing
        self._missing."""
        at = {k: pos[i] for i, k in enumerate(keys)}
        missing: list[Hashable] = []
        rows = []
        for i in order:
            row = []
            for f in self._added[i]:
                q = at.get(f.gen)
                if q is None:
                    missing.append(f.gen)
                    q = -len(missing)
                row.append((q, f.word))
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
        freeze, and reads it one dimension and one column at a time:
        column i of a dimension is face i of each of its generators.
        Reference problems (a missing generator, a bad word, a face of the
        wrong dimension) are listed in the order the generators were added.
        A dimension whose faces are all nondegenerate and lie in the
        positions of the dimension below has none, so only the other
        dimensions are read face by face.  Only when there are none are the
        identities d_i d_j = d_{j-1} d_i checked: for each dimension and
        each i < j, face i of column j against face j - 1 of column i,
        through face_at and the cached word algebra.  A violation is listed
        by generator, then j, then i.
        """
        table, order = self._table, self._order
        dims = [d for d in sorted(self._by_dim) for _ in self._by_dim[d]]
        # per dimension d > 0, its faces in one flat row-major list, with
        # their positions and words: column i is every (d + 1)-th from i
        layers = []
        for d in sorted(self._by_dim):
            if d:
                flat = list(chain.from_iterable(self.face_rows(d)))
                layers.append((d, self._start[d], flat, list(map(itemgetter(0), flat)),
                               list(map(itemgetter(1), flat))))
        bad: dict[int, list[str]] = {}
        for d, start, flat, rs, ws in layers:
            lo = self._start.get(d - 1, 0)
            if lo <= min(rs) and max(rs) < lo + len(self._by_dim.get(d - 1, ())) \
                    and not any(ws):
                continue
            for k, (r, w) in enumerate(flat):
                msg = self._face_problem(dims, r, w, d - 1)
                if msg:
                    q, i = divmod(k, d + 1)
                    q += start
                    bad.setdefault(q, []).append(f"{order[q]!r}: face {i} {msg}")
        if bad:
            return [msg for key, d in self._dims.items()
                    for msg in bad.get(self._start[d] + self._index[d][key], ())]
        found: list[tuple[int, int, int, tuple, tuple]] = []
        for d, start, flat, rs, ws in layers:
            n = d + 1
            # per column, the rows of its faces, or None when one is degenerate
            below = [None if any(ws[c::n]) else list(map(table.__getitem__, rs[c::n]))
                     for c in range(n)] if d > 1 else []
            for j in range(1, len(below)):
                for i in range(j):
                    left = _faces_of(table, flat, n, j, below[j], i)
                    right = _faces_of(table, flat, n, i, below[i], j - 1)
                    if left != right:
                        found += [(start + q, j, i, a, b) for q, (a, b)
                                  in enumerate(zip(left, right)) if a != b]
        return [f"{order[q]!r}: d_{i} d_{j} != d_{j-1} d_{i}"
                f" ({Simplex(order[a[0]], a[1])} vs {Simplex(order[b[0]], b[1])})"
                for q, j, i, a, b in sorted(found)]

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


def _faces_of(table: tuple, flat: list[tuple[int, Word]], n: int, c: int,
              below: list | None, e: int) -> list[tuple[int, Word]]:
    """Face e of each face in column c of flat, the faces of one dimension
    of a compiled table in row-major order, n to a row.  below, when
    given, holds the face rows of that column's faces, all nondegenerate,
    and the faces are read off them."""
    if below is not None:
        return list(map(itemgetter(e), below))
    return [face_at(table, r, w, e) for r, w in flat[c::n]]


def _ordering(dims: list[int], strs: list[str]) -> tuple[list[int], list[int]]:
    """Where generators go, given their dimensions and key strings in the
    order added: order[q] is the id (the index in that order) of the
    generator at position q, sorted by (dimension, key string, id), and
    pos[id] is its position.  Every complex fixes its positions here,
    before any face row is written.  The ids are sorted by key string and
    then by dimension, each pass a stable sort on one C-level key, which
    orders them like (dimension, key string, id) without building a tuple
    per generator."""
    order = sorted(range(len(dims)), key=strs.__getitem__)
    order.sort(key=dims.__getitem__)
    pos = [0] * len(order)
    for q, i in enumerate(order):
        pos[i] = q
    return order, pos


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


_MISSING = object()


def cached_on(owner: Any, key: Hashable, build: Callable, *args) -> Any:
    """owner._cache[key], set to build(*args) the first time; an owner gets
    its store on first use.  derived is the door for a function of its
    owner; a build whose owner is not its first argument, or whose key
    leaves out one of its arguments, comes through here.  A hit hashes the
    key once and a miss twice; a build that raises stores nothing."""
    store = vars(owner).setdefault("_cache", {})
    value = store.get(key, _MISSING)
    if value is _MISSING:
        value = store[key] = build(*args)
    return value


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


@derived("key_strings")
def key_strings(X: SimplicialSet) -> tuple[str, ...]:
    """key_str of each generator of X, in position order.  from_facets and
    freeze store the strings they sorted by here (_seal); a product does
    not keep its own, which on a big cylinder would hold tens of MB, and
    spells them on first read."""
    return tuple(map(key_str, X.generators()))


# -- simplicial maps -------------------------------------------------------


class SimplicialMap:
    """Map of simplicial sets given on generators.

    The images come as a mapping, or as a rule from a generator key to its
    image; images is then built on its first read, and pullback_table
    calls the rule on one dimension's generators.  Images may be
    degenerate.  Compatibility with degeneracies is automatic from the word
    algebra; compatibility with faces is what check() verifies.  The images
    are read-only and a rule must be pure, so the pullback tables and
    cylinder maps derived on the map can never go stale.
    """

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 images: Mapping[Hashable, Simplex] | Callable[[Hashable], Simplex],
                 name: str = ""):
        self.source = source
        self.target = target
        if isinstance(images, Mapping):
            self.images = MappingProxyType(dict(images))
            images = self.images.__getitem__
        self.rule = images
        self.name = name or f"{source.name}->{target.name}"

    @cached_property
    def images(self) -> Mapping[Hashable, Simplex]:
        rule = self.rule
        return MappingProxyType({key: rule(key) for key in self.source.generators()})

    def __call__(self, s: Simplex) -> Simplex:
        return degenerate(self.images[s.gen], s.word)

    @derived("pullback")
    def pullback_table(self, dim: int) -> Gather:
        """The position of each source generator's image among the target
        generators of one dimension, the sentinel where the image is
        degenerate; built once per degree, from the images of that
        degree's generators only."""
        index = self.target.gen_index(dim)
        size = len(index)
        return Gather((size if s.word else index[s.gen]
                       for s in map(self.rule, self.source.generators(dim))), size)

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
    return SimplicialMap(X, X, Simplex, f"id_{X.name}")


def compose_maps(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """The composite `first f, then g`."""
    if f.target is not g.source:
        raise ConstructionError(
            f"cannot compose {f.name} with {g.name}: target/source mismatch")
    images = {k: g(f(Simplex(k))) for k in f.source.generators()}
    return SimplicialMap(f.source, g.target, images, f"{g.name}.{f.name}")


def constant_map(X: SimplicialSet, Y: SimplicialSet, vertex: Hashable) -> SimplicialMap:
    v = Y.simplex(vertex)
    return SimplicialMap(X, Y, lambda k: degenerate(v, tuple(range(X.gen_dim(k)))),
                         f"const_{key_str(vertex)}")


# -- fixtures --------------------------------------------------------------


def from_facets(name: str, facets: Iterable[tuple]) -> SimplicialSet:
    """Ordered simplicial complex generated by the given top faces.

    Vertex labels must be sortable; every subset of a facet becomes a
    generator keyed by its sorted vertex tuple.  Positions are fixed
    first, and the faces are written once as (position, ()) rows, positions
    from one subset -> position dict, so no Simplex is built.
    """
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
    dims = [len(sub) - 1 for sub in subsets]
    strs = [key_str(sub) for sub in subsets]
    order, pos = _ordering(dims, strs)
    at = dict(zip(subsets, pos))
    table = tuple(tuple([(at[sub[:i] + sub[i + 1:]], ()) for i in range(len(sub))])
                  if len(sub) > 1 else () for sub in map(subsets.__getitem__, order))
    return SimplicialSet._compiled(name, subsets, dims, order, table, strs)


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


@cache
def _pair_index(p: int, q: int, wx: Word, wy: Word) -> tuple[int, Word]:
    """The canonical pair of s_wx x and s_wy y, x a p- and y a q-generator:
    the index of its component words in _shuffles(p, q), and its word."""
    cx, cy, word = _pair_words(wx, wy)
    for k, (sx, sy, _, _) in enumerate(_shuffles(p, q)):
        if sx == cx and sy == cy:
            return k, word
    raise AssertionError(f"({cx}, {cy}) is not a shuffle of ({p}, {q})")


@cache
def _face_recipe(p: int, q: int) -> tuple[tuple[tuple, ...], ...]:
    """How the faces of a product generator over a p- and a q-generator are
    made: one row per shuffle (wx, wy) of _shuffles(p, q), one entry
    (cell, k, word, a, lx, b, ly) per face i of it.

    d_i s_wx x = s_lx d_{a-1} x: the x side takes its factor's face a - 1,
    or keeps x when a = 0 (d_i cancels against wx); b and ly say the same
    of the y side.  cell = a * width + b, width = q + 2 (1 when q = 0),
    indexes the factor pair the face lies over in the grid of (x or a face
    of x, y or a face of y) that product() lays out for each pair of
    generators.  When the factor faces are nondegenerate, the face is
    shuffle k of that pair with degeneracy word `word`.
    """
    width = q + 2 if q else 1
    out = []
    for wx, wy, _, _ in _shuffles(p, q):
        faces = []
        d = p + len(wx)
        for i in range(d + 1 if d else 0):
            lx, a = apply_face(wx, i)
            ly, b = apply_face(wy, i)
            a, b = 0 if a is None else a + 1, 0 if b is None else b + 1
            faces.append((a * width + b, *_pair_index(p - (a > 0), q - (b > 0), lx, ly),
                          a, lx, b, ly))
        out.append(tuple(faces))
    return tuple(out)


class _ShuffleBlock(NamedTuple):
    """The generators over one p-generator x of X and every generator of Y,
    in enumeration order, without x: the pair key of each is
    (x, wx, gy, wy), its dimension p + len(wx) and its key string
    "(" + key_str(x) + tail.  counts[ay] is the number of shuffles over the
    generator at position ay of Y."""

    triples: tuple[tuple[Word, Hashable, Word], ...]
    dims: tuple[int, ...]
    tails: tuple[str, ...]
    counts: tuple[int, ...]


def _shuffle_block(Y: SimplicialSet, p: int) -> _ShuffleBlock:
    """Y's block for the p-generators of a first factor, which product
    caches on Y."""
    triples, dims, tails, counts = [], [], [], []
    for gy, sy in zip(Y.generators(), key_strings(Y)):
        shuffles = _shuffles(p, Y.gen_dim(gy))
        counts.append(len(shuffles))
        for wx, wy, swx, swy in shuffles:
            triples.append((wx, gy, wy))
            dims.append(p + len(wx))
            tails.append(f"|{swx})*({sy}|{swy})")
    return _ShuffleBlock(tuple(triples), tuple(dims), tuple(tails), tuple(counts))


def product(X: SimplicialSet, Y: SimplicialSet, name: str | None = None) -> SimplicialSet:
    """Simplicial product via shuffle enumeration of nondegenerate pairs.

    The generators over the factor generators at positions ax and ay are
    the shuffles of their dimensions, with ids in enumeration order from
    base[ax * ny + ay] on, so a generator's id is arithmetic.  Everything
    about them but x itself (the words and y of each pair, its dimension,
    the tail of its key string and the shuffle counts) is one shuffle
    block per dimension p of x, cached on Y under ("shuffle-block", p), so
    each x adds its key to the block's triples and its key string to the
    block's tails.  The keys, dimensions and key strings come first, and
    _ordering turns them into positions.  Then the faces come from the
    cached recipe of each shape: the face over a pair of factor generators
    is the first id of that pair plus the shuffle index the recipe names,
    read through pos into a position.  Where a factor's face is itself
    degenerate, its word is composed with the word the recipe leaves on
    that side, as face_at does, and the pair is made canonical again.  Each
    row is written once, as (position, word) pairs, and the rows are only
    reordered into position order, so no Simplex is built and no row
    copied.
    """
    xdims = [X.gen_dim(g) for g in X.generators()]
    ydims = [Y.gen_dim(g) for g in Y.generators()]
    ny = len(ydims)
    blocks = {p: cached_on(Y, ("shuffle-block", p), _shuffle_block, Y, p) for p in set(xdims)}
    base = list(accumulate(chain.from_iterable(blocks[p].counts for p in xdims), initial=0))
    keys, dims, strs = [], [], []
    for gx, p, sx in zip(X.generators(), xdims, key_strings(X)):
        block = blocks[p]
        pairs = list(map((gx,).__add__, block.triples))
        keys += pairs
        dims += block.dims
        # key_str reads a 4-tuple with an int first entry as a plain tuple
        strs += (map(key_str, pairs) if isinstance(gx, int) else
                 map(f"({sx}".__add__, block.tails))
    order, pos = _ordering(dims, strs)
    # the key strings are not kept (key_strings spells them on first read),
    # and they go before the rows are built, which is when the build peaks
    del strs
    # per y generator: dimension, and the positions and words of itself
    # and its faces
    ys = [(q, (ay, *(r for r, _ in row)), ((), *(w for _, w in row)))
          for ay, (q, row) in enumerate(zip(ydims, Y._table))]
    rows = []
    for ax, (p, xrow) in enumerate(zip(xdims, X._table)):
        xs, xwords = (ax, *(r for r, _ in xrow)), ((), *(w for _, w in xrow))
        for q, yfaces, ywords in ys:
            grid = [base[rx * ny + ry] for rx in xs for ry in yfaces]
            for faces in _face_recipe(p, q):
                row = []
                for c, k, w, a, lx, b, ly in faces:
                    tx, ty = xwords[a], ywords[b]
                    if tx or ty:
                        k, w = _pair_index(xdims[xs[a]], ydims[yfaces[b]],
                                           apply_word(tx, lx), apply_word(ty, ly))
                    row.append((pos[grid[c] + k], w))
                rows.append(tuple(row))
    P = SimplicialSet._compiled(name or f"{X.name}x{Y.name}", keys, dims, order,
                                tuple(map(rows.__getitem__, order)))
    P._factors = (X, Y)
    return P


def pair_map(P: SimplicialSet, Q: SimplicialSet, first: Callable[[Hashable], Simplex],
             second: Callable[[Hashable], Simplex], name: str) -> SimplicialMap:
    """The pairing <first, second>: P -> Q, Q built by product().  A key
    goes to the canonical pair of first(key) and second(key), simplices of
    Q's two factors; a pair that is not a generator of Q raises
    ConstructionError when it is read."""
    targets = Q._dims

    def rule(key: Hashable) -> Simplex:
        sx, sy = first(key), second(key)
        cx, cy, word = _pair_words(sx.word, sy.word)
        pair = (sx.gen, cx, sy.gen, cy)
        if pair not in targets:
            raise ConstructionError(f"{Q.name}: pair {pair!r} is not a generator")
        return Simplex(pair, word)
    return SimplicialMap(P, Q, rule, name)


def product_map(P: SimplicialSet, Q: SimplicialSet,
                f: SimplicialMap, g: SimplicialMap,
                name: str = "") -> SimplicialMap:
    """The map f x g between product complexes built by product(): the
    pairing <f pi_1, g pi_2>.  P must be the product of the sources of f
    and g, and Q of their targets."""
    for R, (A, B) in ((P, (f.source, g.source)), (Q, (f.target, g.target))):
        if R._factors != (A, B):
            raise ConstructionError(f"product map {f.name}x{g.name}: {R.name} is not"
                                    f" the product {A.name}x{B.name}")
    first, second = f.rule, g.rule
    return pair_map(P, Q, lambda key: degenerate(first(key[0]), key[1]),
                    lambda key: degenerate(second(key[2]), key[3]), name or f"{f.name}x{g.name}")


class ProductWithSimplex:
    """X x Delta^k with its prism decomposition and structural maps.

    The decomposition is built the first time it is used, and the
    projection and the face inclusions build their images one dimension
    at a time.  Data derived from the cylinder shares its complex's store.
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
    def decomposition(self) -> Mapping[Hashable, tuple[tuple[int, tuple], ...]]:
        """The shuffle cells of each base generator, with signs.

        The cell of an m-generator x for the partition B | A of {0..m+k-1}
        (|B| = k words on the base side) is the pair (s_B x, s_A iota_k);
        its sign is the signature of the partition,
        (-1)^{#{(b,a) in BxA : b > a}}.
        """
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
        return MappingProxyType(cells)

    @cached_property
    def projection(self) -> SimplicialMap:
        return SimplicialMap(self.complex, self.base, lambda key: Simplex(key[0], key[1]),
                             f"proj_{self.base.name}")

    @derived("face_inclusion")
    def face_inclusion(self, i: int) -> SimplicialMap:
        """id x delta_i, from X x Delta^{k-1}; when k = 1, the pairing
        <id_X, the constant vertex 1 - i> from X itself."""
        if not 0 <= i <= self.k:
            raise ConstructionError(f"face index {i} out of range")
        X = self.base
        if self.k == 1:
            end = constant_map(X, standard_simplex(1), (1 - i,))
            return pair_map(X, self.complex, Simplex, end.rule, f"end{1 - i}_{X.name}")
        return product_map(cylinder(X, self.k - 1).complex, self.complex, identity_map(X),
                           coface_map(self.k, i), f"idxdelta_{i}")


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
