"""Normalized cochains with exact coefficients.

Cochains are maps on the nondegenerate generators of one dimension;
degenerate simplices evaluate to zero.  Coefficients are the integers, the
rationals (standing in for real forms), or integers mod k: the ring
object exact.Coefficients, re-exported here with INTEGERS, RATIONALS and
mod_coefficients.

Real coefficients are modeled by exact rationals throughout, which is what
makes every identity in the test suite hold with zero tolerance.

A cochain stores its values positionally: vec is a tuple with one value of
the ring per generator of its degree, in the order of
complex.generators(degree), zeros included.  vec is the cochain; values
is a read-only snapshot {generator: value} of its nonzero entries in
generator order, a fresh dict built on each read and not kept.  Zeros
compare and hash alike whatever their type, so == and hash read vec.

Values are normalized where they enter: the public Cochain constructor
checks degrees and normalizes user dicts, JSON and random input.  The kernel
operations (coboundary, pullback, fiber_integrate, +, -) read position
gathers compiled once per complex, degree and map, combine whole vectors
with operator.add and operator.sub, and build their results with
Cochain._trusted, which only reduces mod k.

fiber_integrate over Delta^2, cross_section(., 2) and shih_homotopy are
the three maps of the Eilenberg-Zilber contraction of the relative
cochains of (X x Delta^2, X x dDelta^2) onto the base's, which lets
questions on X x Delta^2 be solved on X.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import combinations, compress, repeat
from operator import add, mul, neg, sub
from types import MappingProxyType
from typing import Any, Hashable, Iterable

from .complexes import (Gather, LinearPlan, ProductWithSimplex, Simplex, SimplicialMap,
                        SimplicialSet, cylinder, derived, face_at, json_int, key_str)
from .exact import INTEGERS, RATIONALS, Coefficients, mod_coefficients
from .words import Word, apply_word, surjection_of_word, word_of_surjection


def parse_coefficients(text: str) -> Coefficients:
    if not isinstance(text, str):
        raise ValueError(f"cannot parse coefficients {text!r}")
    t = text.strip()
    if t in ("Z", "int", "integers"):
        return INTEGERS
    if t in ("Q", "rat", "rationals"):
        return RATIONALS
    if t.startswith("Z/"):
        return mod_coefficients(int(t[2:]))
    raise ValueError(f"cannot parse coefficients {text!r}")


def embed_rational(A: Coefficients, v) -> Fraction:
    """The coefficient map A -> A tensor Q (kills torsion)."""
    if A.kind == "Zmod":
        return Fraction(0)
    return Fraction(v)


def _gen_dim(X: SimplicialSet, gen: Hashable) -> int:
    """The dimension of a generator of X; ValueError naming it if X has none."""
    try:
        return X.gen_dim(gen)
    except KeyError:
        raise ValueError(f"{X.name} has no generator {gen!r}") from None


class Cochain:
    """A normalized cochain of one degree on one complex, stored by position."""

    __slots__ = ("complex", "degree", "coeffs", "vec")

    def __init__(self, complex: SimplicialSet, degree: int, coeffs: Coefficients,
                 values: Mapping[Hashable, Any] | None = None):
        self.complex = complex
        self.degree = degree
        self.coeffs = coeffs
        index = complex.gen_index(degree)
        vec = [coeffs.zero] * len(index)
        for gen, v in (values or {}).items():
            i = index.get(gen)
            if i is None:
                raise ValueError(f"value on {gen!r} of dim {_gen_dim(complex, gen)}"
                                 f" in degree {degree}")
            vec[i] = coeffs.normalize(v)
        self.vec = tuple(vec)

    @classmethod
    def _trusted(cls, complex: SimplicialSet, degree: int, coeffs: Coefficients,
                 vec: Iterable) -> "Cochain":
        """A kernel result: vec holds one ring value per degree-`degree`
        generator of complex, in generator order, so only reduce mod k."""
        c = cls.__new__(cls)
        c.complex = complex
        c.degree = degree
        c.coeffs = coeffs
        k = coeffs.modulus
        c.vec = tuple([v % k for v in vec]) if k else tuple(vec)
        return c

    # -- basics ------------------------------------------------------------

    @classmethod
    def zero(cls, X: SimplicialSet, degree: int, coeffs: Coefficients) -> "Cochain":
        return cls._trusted(X, degree, coeffs, (coeffs.zero,) * len(X.generators(degree)))

    @classmethod
    def indicator(cls, X: SimplicialSet, gen: Hashable, coeffs: Coefficients,
                  value=1) -> "Cochain":
        return cls(X, _gen_dim(X, gen), coeffs, {gen: value})

    @property
    def values(self) -> Mapping[Hashable, Any]:
        """A read-only snapshot {generator: value} of the nonzero values in
        generator order, built from vec on each read: callers that look up
        many generators read it once."""
        vec = self.vec
        return MappingProxyType(dict(zip(compress(self.complex.generators(self.degree), vec),
                                         filter(None, vec))))

    def eval(self, s: Simplex):
        if s.word:
            return self.coeffs.zero
        i = self.complex.gen_index(self.degree).get(s.gen)
        if i is None:
            return self.coeffs.zero
        return self.vec[i] or self.coeffs.zero

    def is_zero(self) -> bool:
        return not any(self.vec)

    def _compatible(self, other: "Cochain") -> None:
        if (self.complex is not other.complex or self.degree != other.degree
                or (self.coeffs is not other.coeffs and self.coeffs != other.coeffs)):
            raise ValueError("cochains live on different complexes, degrees, or coefficients")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain._trusted(self.complex, self.degree, self.coeffs,
                                map(add, self.vec, other.vec))

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain._trusted(self.complex, self.degree, self.coeffs,
                                map(sub, self.vec, other.vec))

    def __neg__(self) -> "Cochain":
        return Cochain._trusted(self.complex, self.degree, self.coeffs, map(neg, self.vec))

    def scale(self, c) -> "Cochain":
        """c times this cochain; c is normalized once, so a value that is
        not a ring element (a non-integral Fraction over Z) raises
        ValueError."""
        c = self.coeffs.normalize(c)
        return Cochain._trusted(self.complex, self.degree, self.coeffs,
                                map(mul, self.vec, repeat(c)))

    def map_values(self, fn, coeffs: Coefficients) -> "Cochain":
        """Apply a coefficient map (e.g. the rational embedding) valuewise."""
        norm, zero = coeffs.normalize, coeffs.zero
        return Cochain._trusted(self.complex, self.degree, coeffs,
                                [norm(fn(v)) if v else zero for v in self.vec])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Cochain) and self.complex is other.complex
                and self.degree == other.degree and self.coeffs == other.coeffs
                and self.vec == other.vec)

    def __hash__(self):
        return hash((id(self.complex), self.degree, self.vec))

    def __repr__(self):
        n = len(self.vec) - self.vec.count(0)
        return (f"<Cochain deg {self.degree} on {self.complex.name}"
                f" ({self.coeffs.label()}), {n} nonzero>")


def _combine(gathers, padded: tuple) -> Iterable:
    """sum of sign * gather(padded) over the (sign, Gather) pairs."""
    (sign, first), *rest = gathers
    out = first.get(padded) if sign > 0 else map(neg, first.get(padded))
    for sign, g in rest:
        out = map(add if sign > 0 else sub, out, g.get(padded))
    return out


@derived("face_table")
def face_table(X: SimplicialSet, n: int) -> tuple[tuple[int, Gather], ...]:
    """(sign, gather of face i) for i = 0..n+1 over the (n+1)-generators of X.

    Gather i reads the position of face i of each (n+1)-generator off a
    degree-n vector, the sentinel where that face is degenerate; the signs
    alternate from +1.  Read off the compiled face table once per complex
    and degree.
    """
    start = X.offset(n)
    size = len(X.generators(n))
    columns = zip(*X.face_rows(n + 1)) if X.generators(n + 1) else [()] * (n + 2)
    return tuple((-1 if i % 2 else 1, Gather([size if w else q - start for q, w in col], size))
                 for i, col in enumerate(columns))


@derived("delta_table")
def delta_table(X: SimplicialSet, n: int) -> tuple[dict[int, int], ...]:
    """The sparse coboundary C^n -> C^{n+1} of X, built once and cached.

    One row {position: coefficient} per (n+1)-generator, in generator
    order, with positions in X.generators(n), read straight off
    X.face_rows(n + 1) in face order: degenerate faces are dropped and
    repeated faces merged into one coefficient (rows may come out empty).
    cohomology.delta_system factors these rows, less the ones it clears,
    and solve_coboundary refutes a target that is not closed by one of
    them; no reader mutates them.
    """
    start = X.offset(n)
    rows = []
    for faces in X.face_rows(n + 1):
        row: dict[int, int] = {}
        sign = 1
        for q, w in faces:
            if not w:
                row[q - start] = row.get(q - start, 0) + sign
            sign = -sign
        rows.append(row if all(row.values()) else {p: a for p, a in row.items() if a})
    return tuple(rows)


def coboundary_values(c: Cochain) -> Iterable:
    """The values of delta c in generator order, not reduced mod k."""
    return _combine(face_table(c.complex, c.degree), c.vec + (c.coeffs.zero,))


def coboundary(c: Cochain) -> Cochain:
    """Alternating sum over faces, degree raised by one; delta delta = 0."""
    return Cochain._trusted(c.complex, c.degree + 1, c.coeffs, coboundary_values(c))


def is_closed(c: Cochain) -> bool:
    """Is delta c zero in c's ring?  Read off coboundary_values, reduced
    mod k, without building delta c; stops at the first nonzero value."""
    k = c.coeffs.modulus
    values = coboundary_values(c)
    return not any(v % k for v in values) if k else not any(values)


def pullback(f: SimplicialMap, c: Cochain) -> Cochain:
    """f^# c; normalization kills images that got degenerate."""
    if c.complex is not f.target:
        raise ValueError("cochain does not live on the target of the map")
    gather = f.pullback_table(c.degree)
    return Cochain._trusted(f.source, c.degree, c.coeffs,
                            gather.get(c.vec + (c.coeffs.zero,)))


@derived("fiber_table")
def fiber_table(cyl: ProductWithSimplex, degree: int) -> tuple[tuple[int, Gather], ...]:
    """(sign, gather of cell j) over the (degree - k)-generators of the base.

    Every base generator of one dimension has its shuffle cells in the same
    partition order, and a cell's sign depends on its partition alone, so
    column j of the decomposition is one gather with one sign.  Built once
    per product and degree.
    """
    index = cyl.complex.gen_index(degree)
    gens = cyl.base.generators(degree - cyl.k)
    table = []
    for column in zip(*(cyl.decomposition[g] for g in gens)):
        (sign,) = {s for s, _ in column}
        table.append((sign, Gather([index[cell] for _, cell in column], len(index))))
    return tuple(table)


def fiber_integrate(z: Cochain, cyl: ProductWithSimplex) -> Cochain:
    """Slant product with the fundamental chain of Delta^k via shuffle cells.

    Lowers degree by k.  With F_i = id x delta_i (so for k = 1 the end
    inclusions are i_0 = F_1, i_1 = F_0), the boundary-term signs produced
    by the shuffle convention are

        delta(int_k z) = (-1)^(k+1) sum_i (-1)^i int_{k-1}(F_i# z)
                         + (-1)^k int_k(delta z)

    which for k = 1 reads delta(int z) = i_1# z - i_0# z - int(delta z).
    The k = 2, 3 signs are pinned down by randomized identities in the
    test suite; nothing downstream assumes any other convention.
    """
    k = cyl.k
    if z.complex is not cyl.complex:
        raise ValueError("cochain does not live on the given product")
    if z.degree < k:
        raise ValueError(f"cannot integrate degree {z.degree} over Delta^{k}")
    cells = fiber_table(cyl, z.degree)
    out = _combine(cells, z.vec + (z.coeffs.zero,)) if cells else ()
    return Cochain._trusted(cyl.base, z.degree - k, z.coeffs, out)


def cross_section(w: Cochain, k: int, sign: int = 1) -> Cochain:
    """sign times the cross product of w with the top cell of Delta^k.

    Supported on X x Delta^k where the simplex path of a generator is
    (0, ..., 0, 1, ..., k), with value sign * w(front face) there.  Where
    the values land is compiled once per base, k and degree into one
    Gather (_cross_section_gather).  For k = 2 and sign 1 it is the dual
    of the Alexander-Whitney map, g in the contraction that shih_homotopy
    completes.
    """
    cyl = cylinder(w.complex, k)
    vals = _cross_section_gather(cyl, w.degree).get(w.vec + (w.coeffs.zero,))
    return Cochain._trusted(cyl.complex, w.degree + k, w.coeffs,
                            vals if sign > 0 else map(neg, vals))


@derived("cross-section")
def _cross_section_gather(cyl: ProductWithSimplex, m: int) -> Gather:
    """For each (m + k)-generator of X x Delta^k, the position of its front
    m-face in X's degree-m generators, the sentinel off the path (0, ..., 0,
    1, ..., k) or where that face is degenerate.  The simplex path comes
    from the word algebra and the front face from X's compiled table."""
    X, k = cyl.base, cyl.k
    d, table, start = m + k, X._table, X.offset(m)
    size = len(X.generators(m))
    path = (0,) * (m + 1) + tuple(range(1, k + 1))
    positions = []
    for gx, wx, t, wt in cyl.complex.generators(d):
        p = size
        if tuple(t[v] for v in surjection_of_word(wt, d)) == path:
            dim = X.gen_dim(gx)
            r, word = X.offset(dim) + X.gen_index(dim)[gx], wx
            for v in range(d, m, -1):
                r, word = face_at(table, r, word, v)
            if not word:
                p = r - start
        positions.append(p)
    return Gather(positions, size)


# -- the Eilenberg-Zilber contraction of X x Delta^2 rel X x dDelta^2 ---------


@cache
def _shih_terms(path: tuple[int, ...]) -> tuple[tuple[int, Word, int, Word], ...]:
    """The terms of Shih's homotopy on an m-simplex (a, b) of X x Delta^2
    whose triangle side covers the triangle, b given by its vertex path.

    The homotopy is the sum over 0 <= q < m, mb = m - p - q >= 1 and the
    (p + 1, q)-shuffles (alpha, beta) of {0, ..., p + q} of

        (-1)^(mb + sum_i (alpha_i - i)) *
            (s_{beta + mb} s_{mb - 1} d_{m-q+1} ... d_m a,
             s_{alpha + mb} d_{mb} ... d_{m-q-1} b)

    (Gonzalez-Diaz and Real, JPAA 139, 1999).  Each term is listed as
    (q, degeneracies of the base side, innermost first, sign, word of the
    triangle side).
    """
    m = len(path) - 1
    terms = []
    for q in range(m):
        for p in range(m - q):
            mb = m - p - q
            every = range(p + q + 1)
            for alpha in combinations(every, p + 1):
                b = path[:mb] + path[m - q:]
                for a in alpha:
                    b = b[:a + mb + 1] + b[a + mb:]
                if len(set(b)) == 3:
                    twist = sum(a - i for i, a in enumerate(alpha))
                    terms.append((q, (mb - 1, *(v + mb for v in every if v not in alpha)),
                                  -1 if (mb + twist) % 2 else 1, word_of_surjection(b)))
    return tuple(terms)


@derived("shih")
def _shih_plan(cyl: ProductWithSimplex, degree: int) -> LinearPlan:
    """h: R^degree -> R^(degree - 1) as one LinearPlan, cached on X x Delta^2.

    Row t is the sum of sign * z(term) over the terms of Shih's homotopy
    on the (degree - 1)-generator at position t that are generators over
    the whole triangle (the others are degenerate or lie where z vanishes).
    The base side is read off X's compiled face table and the word algebra,
    the terms off the cached _shih_terms; rows over the triangle's boundary
    are empty.
    """
    P, X = cyl.complex, cyl.base
    m = degree - 1
    index, xgens, table = P.gen_index(degree), X.generators(), X._table
    rows = []
    for gx, wx, gd, wd in P.generators(m):
        row: dict[int, int] = {}
        rows.append(row)
        if len(gd) < 3:
            continue
        dim = X.gen_dim(gx)
        r0 = X.offset(dim) + X.gen_index(dim)[gx]
        for q, extra, sign, wb in _shih_terms(surjection_of_word(wd, m)):
            r, w = r0, wx
            for i in range(m, m - q, -1):
                r, w = face_at(table, r, w, i)
            w = apply_word(w, extra)
            if not set(w).intersection(wb):
                col = index[xgens[r], w, (0, 1, 2), wb]
                row[col] = row.get(col, 0) + sign
    return LinearPlan(rows, len(P.generators(degree)))


def shih_homotopy(z: Cochain, cyl: ProductWithSimplex) -> Cochain:
    """h z: the dual of Shih's Eilenberg-Zilber homotopy, lowering degree by one.

    On the relative cochains R of (X x Delta^2, X x dDelta^2), those
    vanishing on every generator whose triangle factor misses a vertex,
    it completes f = fiber_integrate and g = cross_section(., 2) to a
    contraction of R onto C(X) shifted up by two:

        f g = id,   g f - id = -(delta h + h delta),
        h g = 0,    f h = 0,    h h = 0.

    h z reads z on R's generators only and lands in R.  It is compiled
    once per base and degree into a LinearPlan (_shih_plan) cached on
    X x Delta^2, which serves every ring.
    """
    if cyl.k != 2:
        raise ValueError("the contraction is built for X x Delta^2")
    if z.complex is not cyl.complex:
        raise ValueError("cochain does not live on the given product")
    if z.degree < 1:
        raise ValueError("h lowers degree by one: no degree-0 input")
    plan = _shih_plan(cyl, z.degree)
    return Cochain._trusted(cyl.complex, z.degree - 1, z.coeffs,
                            plan.apply(z.vec + (z.coeffs.zero,)))


def random_cochain(X: SimplicialSet, degree: int, coeffs: Coefficients, rng,
                   density: float = 0.7) -> Cochain:
    vals = {}
    for gen in X.generators(degree):
        if rng.random() < density:
            vals[gen] = rng.randint(-4, 4)
    return Cochain(X, degree, coeffs, vals)


# -- JSON ------------------------------------------------------------------


def cochain_to_json(c: Cochain) -> dict:
    return {
        "complex": c.complex.name,
        "degree": c.degree,
        "coefficients": c.coeffs.label(),
        "values": [{"id": key_str(g), "value": str(v)} for g, v in c.values.items()],
    }


def cochain_from_json(X: SimplicialSet, data: dict) -> Cochain:
    try:
        coeffs = parse_coefficients(data.get("coefficients", "Q"))
        valstr = {v["id"]: Fraction(v["value"]) for v in data.get("values", ())}
        degree = json_int(data["degree"])
    except (KeyError, TypeError, AttributeError, OverflowError,
            ZeroDivisionError) as e:
        raise ValueError(f"malformed cochain JSON: {e!r}") from None
    ids: dict[str, list] = {}
    for g in X.generators():
        ids.setdefault(key_str(g), []).append(g)
    vals = {}
    for i, v in valstr.items():
        gens = ids.get(i, [])
        if len(gens) != 1:
            raise ValueError(f"cochain id {i!r} names {len(gens)} generators of {X.name}: {gens}")
        vals[gens[0]] = v
    return Cochain(X, degree, coeffs, vals)
