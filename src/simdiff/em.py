"""Eilenberg-MacLane spaces as simplicial abelian groups.

K(A,n) has level m the group of normalized n-cocycles on Delta^m; faces and
degeneracies pull back along cofaces and codegeneracies.  Levels are never
materialized as simplicial sets; everything works with level elements
(cochains on standard simplices) and spanning sets per level.

The same simplicial-group interface drives mapping complexes
Hom(X x Delta^*, K(A,n)), whose level-m elements are n-cocycles on
X x Delta^m; these are what the homotopy-of-maps machinery fills horns in.

Index convention: E_n := K(A,n), so a degree-n cohomology class of X is a
homotopy class of maps X -> E_n and the loop identification lowers the
index by one.  (Writings that grade the spectrum the other way would call
our K(A,n+1) "E_n".)

check_iota_compatibility audits the fundamental family exhaustively on
spanning level elements and returns a :class:`~simdiff.report.Report` with
one check per property and level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cochains import (Cochain, Coefficients, coboundary, embed_rational,
                       fiber_integrate, pullback)
from .complexes import (ConstructionError, Simplex, SimplicialMap,
                        SimplicialSet, codegeneracy_map, coface_map, cylinder,
                        identity_map, key_str, product_map, standard_simplex,
                        vertex_path)
from .cohomology import cochain_of, delta_system
from .report import Report, scan


class SimplicialGroup:
    """Levelwise abelian group with face and degeneracy operators.

    Elements of level m are Cochains on a level-m complex; subclasses fix
    which complex that is and how the operators act.
    """

    coeffs: Coefficients

    def level_complex(self, m: int) -> SimplicialSet:
        raise NotImplementedError

    def degree(self) -> int:
        raise NotImplementedError

    def element_level(self, z: Cochain) -> int:
        raise NotImplementedError

    def face(self, z: Cochain, i: int) -> Cochain:
        raise NotImplementedError

    def degeneracy(self, z: Cochain, j: int) -> Cochain:
        raise NotImplementedError

    def zero(self, m: int) -> Cochain:
        return Cochain.zero(self.level_complex(m), self.degree(), self.coeffs)


class EMSpace(SimplicialGroup):
    """K(A,n): level m is Z^n(Delta^m; A)."""

    def __init__(self, coeffs: Coefficients, n: int):
        if coeffs.kind not in ("Z", "Zmod"):
            raise ValueError("EM spaces take integer or finite coefficients")
        if n < 0:
            raise ValueError("EM degree must be >= 0")
        self.coeffs = coeffs
        self.n = n
        self._levels: dict[int, list[Cochain]] = {}

    def __repr__(self):
        return f"K({self.coeffs.label()},{self.n})"

    def level_complex(self, m: int) -> SimplicialSet:
        return standard_simplex(m)

    def degree(self) -> int:
        return self.n

    def element_level(self, z: Cochain) -> int:
        return z.complex.top_dim

    def level(self, m: int) -> list[Cochain]:
        """Spanning set of the level-m group (a basis when A = Z)."""
        if m not in self._levels:
            D = standard_simplex(m)
            self._levels[m] = [cochain_of(D, self.n, self.coeffs, v)
                               for v in delta_system(D, self.n, coeffs=self.coeffs).kernel]
        return self._levels[m]

    def contains(self, z: Cochain) -> bool:
        return (z.degree == self.n and z.coeffs == self.coeffs
                and coboundary(z).is_zero())

    def face(self, z: Cochain, i: int) -> Cochain:
        return pullback(coface_map(self.element_level(z), i), z)

    def degeneracy(self, z: Cochain, j: int) -> Cochain:
        return pullback(codegeneracy_map(self.element_level(z), j), z)

    def check_levels(self, up_to: int = 3) -> None:
        """Simplicial identities on spanning elements of small levels."""
        for m in range(1, up_to + 1):
            for z in self.level(m):
                for i in range(m + 1) if m >= 2 else ():
                    for j in range(i, m):
                        if (self.face(self.face(z, j + 1), i)
                                != self.face(self.face(z, i), j)):
                            raise ConstructionError(
                                f"{self!r}: face identity fails at level {m}")
                for j in range(m + 1):
                    s = self.degeneracy(z, j)
                    if self.face(s, j) != z or self.face(s, j + 1) != z:
                        raise ConstructionError(
                            f"{self!r}: degeneracy section fails at level {m}")


class MappingComplex(SimplicialGroup):
    """Hom(X x Delta^*, K(A,n)) in cocycle form: level m is C-degree-n
    cocycle data on X x Delta^m, with level 0 living on X itself.

    Levels are capped at 3, which is all the homotopy calculus needs.
    """

    def __init__(self, X: SimplicialSet, coeffs: Coefficients, n: int):
        self.base = X
        self.coeffs = coeffs
        self.n = n

    def level_complex(self, m: int) -> SimplicialSet:
        if m == 0:
            return self.base
        return cylinder(self.base, m).complex

    def degree(self) -> int:
        return self.n

    def element_level(self, z: Cochain) -> int:
        if z.complex is self.base:
            return 0
        for m in (1, 2, 3):
            if z.complex is self.level_complex(m):
                return m
        raise ValueError("element does not belong to this mapping complex")

    def face(self, z: Cochain, i: int) -> Cochain:
        m = self.element_level(z)
        if m == 0:
            raise ValueError("level-0 elements have no faces")
        return pullback(cylinder(self.base, m).face_inclusion(i), z)

    def degeneracy(self, z: Cochain, j: int) -> Cochain:
        m = self.element_level(z)
        return pullback(_product_codegeneracy(self.base, m, j), z)


def _product_codegeneracy(X: SimplicialSet, m: int, j: int) -> SimplicialMap:
    """id_X x sigma_j: X x Delta^{m+1} -> X x Delta^m (to X itself at m=0)."""
    token = ("product_codegeneracy", m, j)
    if token not in X._cache:
        src = cylinder(X, m + 1).complex
        if m == 0:
            images = {key: Simplex(key[0], key[1]) for key in src.generators()}
            X._cache[token] = SimplicialMap(src, X, images, f"idxsigma_{j}")
        else:
            X._cache[token] = product_map(
                src, cylinder(X, m).complex, identity_map(X),
                codegeneracy_map(m, j), f"idxsigma_{j}")
    return X._cache[token]


# -- horn filling ----------------------------------------------------------


def moore_fill(G: SimplicialGroup, m: int, missing: int,
               faces: dict[int, Cochain]) -> Cochain:
    """Deterministic filler for the horn with the given faces.

    faces maps each j != missing to the required d_j of the result.
    Incompatible faces raise with the first violated identity.
    """
    if m not in (2, 3):
        raise ValueError("horn filling is supported for levels 2 and 3")
    if not 0 <= missing <= m:
        raise ValueError(f"missing face index {missing} out of range")
    expected = [j for j in range(m + 1) if j != missing]
    if sorted(faces) != expected:
        raise ValueError(f"horn needs exactly faces {expected}")
    for j in expected:
        for l in expected:
            if j < l and G.face(faces[j], l - 1) != G.face(faces[l], j):
                raise ValueError(
                    f"incompatible horn: d_{l - 1} x_{j} != d_{j} x_{l}")
    w = G.zero(m)
    for j in range(missing):
        w = w + G.degeneracy(faces[j] - G.face(w, j), j)
    for j in range(m, missing, -1):
        w = w + G.degeneracy(faces[j] - G.face(w, j), j - 1)
    return w


# -- fundamental cocycles --------------------------------------------------


@dataclass
class FundamentalCocycle:
    """The tautological n-cochain rule on K(A,n): z maps to z(top n-face).

    Reduced and closed; with rational=True values are pushed along the
    coefficient map A -> A (x) Q, which kills torsion.
    """

    space: EMSpace
    rational: bool = False

    def value(self, z: Cochain):
        n = self.space.n
        v = z.values.get(tuple(range(n + 1)), 0) if z.complex.top_dim == n else 0
        if self.rational:
            return embed_rational(self.space.coeffs, v)
        return self.space.coeffs.normalize(v)

    def coboundary_value(self, z: Cochain):
        """delta iota evaluated on a level element one above the degree."""
        total = 0
        for i in range(z.complex.top_dim + 1):
            v = self.value(self.space.face(z, i))
            total = total + v if i % 2 == 0 else total - v
        return total


# -- maps to K(A,n) as cocycles --------------------------------------------


class EMMap:
    """A simplicial map X -> K(A,n), given by its value on each simplex."""

    def __init__(self, source: SimplicialSet, space: EMSpace,
                 assignment: Callable[[Simplex], Cochain], name: str = ""):
        self.source = source
        self.space = space
        self.name = name
        self._assign = assignment

    def __call__(self, s: Simplex) -> Cochain:
        return self._assign(s)


@dataclass
class MapCocycleBijection:
    """Both directions of the maps <-> cocycles identification."""

    source: SimplicialSet
    space: EMSpace

    def to_map(self, z: Cochain) -> EMMap:
        if z.complex is not self.source or not self.space.contains(z):
            raise ValueError("not a cocycle of the right degree on the source")
        E = self.space
        n = E.n
        src = self.source

        def assign(s: Simplex) -> Cochain:
            m = src.dim_of(s)
            D = standard_simplex(m)
            vals = {}
            for t in D.generators(n):
                sub = s
                # deleting from the top down keeps lower face indices stable
                for v in range(m, -1, -1):
                    if v not in t:
                        sub = src.face(sub, v)
                val = z.eval(sub)
                if val:
                    vals[t] = val
            return Cochain(D, n, E.coeffs, vals)

        return EMMap(src, E, assign, "classify")

    def to_cocycle(self, f: EMMap) -> Cochain:
        iota = FundamentalCocycle(self.space)
        vals = {}
        for g in self.source.generators(self.space.n):
            v = iota.value(f(Simplex(g)))
            if v:
                vals[g] = v
        return Cochain(self.source, self.space.n, self.space.coeffs, vals)


def maps_as_cocycles(X: SimplicialSet, E: EMSpace) -> MapCocycleBijection:
    return MapCocycleBijection(X, E)


# -- the loop identification ----------------------------------------------


def e_section(w: Cochain) -> Cochain:
    """The based loop presenting w: an end-trivial cocycle on X x Delta^1.

    Supported where the interval coordinate jumps 0 -> 1 at the last step;
    the value there is (-1)^n w(front face).  Fiber integration over the
    interval recovers w exactly.
    """
    X = w.complex
    n = w.degree
    cyl = cylinder(X, 1)
    jump = (0,) * (n + 1) + (1,)
    sign = 1 if n % 2 == 0 else -1
    vals = {}
    for key in cyl.complex.generators(n + 1):
        gx, wx, t, wt = key
        if vertex_path(Simplex(t, wt), n + 1) != jump:
            continue
        v = w.eval(X.face(Simplex(gx, wx), n + 1))
        if v:
            vals[key] = sign * v
    return Cochain(cyl.complex, n + 1, w.coeffs, vals)


def loop_integrate(z: Cochain) -> Cochain:
    """Inverse direction of the loop identification on X x Delta^1."""
    factors = getattr(z.complex, "_factors", None)
    if not factors or factors[1] is not standard_simplex(1):
        raise ValueError("cochain does not live on a cylinder")
    return fiber_integrate(z, cylinder(factors[0], 1))


def structure_element(a: Cochain, b: Simplex, n: int) -> Cochain:
    """The structure map of the spectrum on a level pair.

    a is a level element of K(A,n-1) at some level d, b a d-simplex of the
    interval; the result is the level element of K(A,n) classified by the
    loop cocycle of the lower fundamental class.  Its value on a generator
    t of Delta^d is +-a(front of t) when the interval path jumps 0 -> 1 at
    the last step of t, and 0 otherwise.
    """
    d = a.complex.top_dim
    p = vertex_path(b, d)
    sign = 1 if (n - 1) % 2 == 0 else -1
    vals = {}
    for t in standard_simplex(d).generators(n):
        if p[t[-2]] == 0 and p[t[-1]] == 1:
            v = a.values.get(t[:-1], 0)
            if v:
                vals[t] = sign * v
    return Cochain(standard_simplex(d), n, a.coeffs, vals)


# -- compatibility of the fundamental family -------------------------------


def check_iota_compatibility(coeffs: Coefficients, n: int,
                             truncation: int | None = None,
                             scale_upper: int = 1,
                             scale_lower: int = 1) -> Report:
    """Verify the loop identity tying iota_{n-1} to iota_n.

    Checks, on spanning level elements up to the truncation (default n+3):
    both rules closed and reduced; the structure map lands in cocycles and
    is simplicial; the induced loop cocycle is closed and end-trivial; and
    integrating it over the interval returns the lower fundamental class.
    The scale arguments deform the family (scale != 1 models an
    incompatible choice and must be flagged by the final check).

    The checks are exhaustive, not sampled: the report's ``trials`` is the
    truncation level, its seed is 0, and each check is named
    ``<check>:<level>`` with ``checked`` counting the elements examined up
    to the first defect, which is the counterexample.
    """
    if n < 1:
        raise ValueError("compatibility pairs need n >= 1")
    L = truncation if truncation is not None else n + 3
    lower = EMSpace(coeffs, n - 1)
    upper = EMSpace(coeffs, n)
    iota_low = FundamentalCocycle(lower)
    iota_up = FundamentalCocycle(upper)
    norm = coeffs.normalize
    report = Report(f"iota({coeffs.label()}, {n})", L, 0)
    checks = report.results
    D1 = standard_simplex(1)

    def upper_eval(y: Cochain):
        """iota'_n = scale_upper * iota_n applied to a K(A,n) level element."""
        return norm(scale_upper * iota_up.value(y))

    def pairs(m: int):
        return ((a, b, m) for a in lower.level(m) for b in D1.all_simplices(m))

    # closedness of both rules on all spanning elements up to level L
    for E, rule, tag in ((lower, iota_low, "iota-lower-closed"),
                         (upper, iota_up, "iota-upper-closed")):
        for m in range(E.n + 1, L + 1):
            checks.append(scan(
                f"{tag}:{m}", E.level(m),
                lambda z, rule=rule: (None if norm(rule.coboundary_value(z)) == 0
                                      else {"detail": _describe(z)})))

    # reducedness: degenerate elements evaluate to zero
    for E, rule, tag in ((lower, iota_low, "iota-lower-reduced"),
                         (upper, iota_up, "iota-upper-reduced")):
        if E.n == 0:
            continue
        degenerate = (E.degeneracy(z, j) for z in E.level(E.n - 1)
                      for j in range(E.n))
        checks.append(scan(
            f"{tag}:{E.n}", degenerate,
            lambda s, rule=rule: (None if rule.value(s) == 0
                                  else {"detail": _describe(s)})))

    # the structure map produces honest cocycle elements, simplicially
    def simplicial(abm) -> dict | None:
        a, b, m = abm
        y = structure_element(a, b, n)
        if not coboundary(y).is_zero():
            return {"detail": f"non-cocycle value at {_describe(a)}"}
        for i in range(m + 1):
            left = pullback(coface_map(m, i), y)
            right = structure_element(lower.face(a, i), D1.face(b, i), n)
            if left != right:
                return {"detail": f"face {i} at {_describe(a)}"}
        return None

    for m in range(n, min(L, n + 2) + 1):
        checks.append(scan(f"structure-map-simplicial:{m}", pairs(m), simplicial))

    # the pulled-back fundamental class is closed at every level up to L
    def closed(abm) -> dict | None:
        a, b, m = abm
        total = 0
        for i in range(m + 1):
            v = upper_eval(structure_element(lower.face(a, i), D1.face(b, i), n))
            total = total + v if i % 2 == 0 else total - v
        if norm(total) == 0:
            return None
        return {"detail": f"pair ({_describe(a)}, {key_str(b.gen)}{b.word})"}

    for m in range(n + 1, L + 1):
        checks.append(scan(f"pullback-closed:{m}", pairs(m), closed))

    # end-triviality of the pulled-back class
    ends = ((a, eps) for a in lower.level(n) for eps in (0, 1))
    checks.append(scan(
        f"pullback-end-trivial:{n}", ends,
        lambda ae: (None if upper_eval(structure_element(
            ae[0], Simplex((ae[1],), tuple(range(n))), n)) == 0
            else {"detail": f"end {ae[1]} at {_describe(ae[0])}"})))

    # the loop identity: integrating the pulled-back class over the
    # interval must return the lower fundamental class
    X = standard_simplex(n - 1)
    bij = maps_as_cocycles(X, lower)
    cyl = cylinder(X, 1)

    def loop(z: Cochain) -> dict | None:
        f = bij.to_map(z)
        vals = {}
        for key in cyl.complex.generators(n):
            gx, wx, t, wt = key
            v = upper_eval(structure_element(f(Simplex(gx, wx)),
                                             Simplex(t, wt), n))
            if v:
                vals[key] = v
        pulled = Cochain(cyl.complex, n, coeffs, vals)
        if fiber_integrate(pulled, cyl) == z.scale(scale_lower):
            return None
        return {"detail": _describe(z)}

    checks.append(scan(f"loop-identity:{n - 1}", lower.level(n - 1), loop))
    return report


def _describe(z: Cochain) -> str:
    vals = ", ".join(f"{key_str(g)}:{v}" for g, v in sorted(
        z.values.items(), key=lambda kv: key_str(kv[0])))
    body = vals if vals else "zero"
    return f"level-{z.complex.top_dim} element [{body}]"
