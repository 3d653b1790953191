"""Cochain complexes as integer matrices: cohomology and solvers.

The coboundary in each degree is a sparse integer matrix over the generator
bases.  Integer Smith form gives presentations H = Z^r + sum Z/d, coordinates
for classifying cocycles, and representative cocycles for each summand.
A presentation of H^n reads only the Smith diagonals of delta_n and
delta_{n-1} that delta_system caches on the complex (their ranks and
invariant factors), so it replays none of their transforms; the image form
behind representatives and coordinates (delta_{n-1} in cocycle
coordinates, read off delta_n's T and Tinv, a Smith form of its own) is
built on first use.  Rational cohomology rides on the integer computation
(torsion dropped: its generators are the free ones, over Q).

delta_system is the one constructor of linear systems on cochains: delta
of a complex in one degree over one ring (the Coefficients object itself),
an exact.System factored once and cached on the complex; nothing here
calls exact's one-shot solvers.  exact answers in Solution | Obstruction
over positions; from here up every question on cochains is answered in
one shape, the answer cochain or a CoboundaryObstruction.
solve_coboundary answers "is this cochain a coboundary" with the
primitive or a functional certificate, by one substitution into that
system.

Homotopy existence and class equality are questions on X x Delta^2 about
the relative cochains R of (X x Delta^2, X x dDelta^2), and they are
answered on the base.  R contracts onto C(X) shifted up by two (the
Eilenberg-Zilber contraction, dualized; see cochains.shih_homotopy): f =
fiber_integrate, g = cross_section(., 2) (em.relative_section) and h, the
dual of Shih's homotopy, compiled once per base and degree into a
LinearPlan cached on X x Delta^2.  solve_relative_coboundary solves
delta x = y in R by solving delta b = f y on X and returning x = h y + g b,
or composes the base certificate with f.  solve_closed_extension pins the
three faces (face_pins compiles where the faces of X x Delta^k land once
per face set) and solves for the rest through it.  No system on
X x Delta^2 is built: every linear solve is in the base's cached systems.

Every "no" comes back as one kind of certificate, a CoboundaryObstruction:
a functional on cochains whose pairing refutes the target.  Its ring names
the sense in which it does, decided by exact.blind alone:

* "Q": zero on every coboundary, nonzero on the target;
* "Z": an integer on every integral coboundary, not on the target;
* "Z/k": as "Z", and an integer on k times every cochain too.

CoboundaryObstruction.certifies re-checks a certificate against a
spanning set of what it must be blind on, sharing no code with the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Hashable, Iterable, Mapping, Sequence

from .cochains import (Cochain, Coefficients, INTEGERS, coboundary, cross_section,
                       delta_table, fiber_integrate, shih_homotopy)
from .complexes import Gather, ProductWithSimplex, SimplicialSet, cached_on, derived, key_str
from .exact import Obstruction, SmithForm, System, apply_rows, blind, smith_normal_form


@derived("system")
def delta_system(X: SimplicialSet, n: int, coeffs: Coefficients = INTEGERS) -> System:
    """delta: C^n -> C^{n+1} of X over coeffs, factored once.

    Rows and columns are the generator positions of degrees n + 1 and n,
    in order.  The system is cached on X under (n, coeffs), never under
    matrix content.
    """
    width = len(X.generators(n))
    A = []
    for sparse in delta_table(X, n):
        row = [0] * width
        for p, a in sparse:
            row[p] = a
        A.append(row)
    return System(A, width, coeffs)


def vector_of(c: Cochain) -> list:
    return list(c.vec)


def cochain_of(X: SimplicialSet, n: int, coeffs: Coefficients, vec: Sequence) -> Cochain:
    if len(vec) != len(X.generators(n)):
        raise ValueError(f"vector of length {len(vec)} for {len(X.generators(n))} generators")
    return Cochain._trusted(X, n, coeffs, map(coeffs.normalize, vec))


@dataclass(frozen=True)
class GroupPresentation:
    """Z^free + sum Z/d + Q^divisible + (Q/Z)^circle, d's in divisor order."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()
    divisible_rank: int = 0
    circle_rank: int = 0

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} not in divisor order")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion factors must be >= 2")

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts += [f"Z/{d}" for d in self.torsion]
        if self.divisible_rank:
            parts += ["Q" if self.divisible_rank == 1 else f"Q^{self.divisible_rank}"]
        parts += ["Q/Z"] * self.circle_rank
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion),
                "divisible_rank": self.divisible_rank, "circle_rank": self.circle_rank,
                "pretty": str(self)}


def keyed_json(values: Mapping[Hashable, object]) -> dict[str, str]:
    """Values as exact strings, keyed and ordered by key_str."""
    return {key_str(g): str(v)
            for g, v in sorted(values.items(), key=lambda kv: key_str(kv[0]))}


@dataclass
class CoboundaryObstruction:
    """Functional on cochains refuting delta beta = target.

    ring records the sense of the certificate, not the ring asked for:

    * "Q": the pairing is zero on every coboundary and nonzero on the
      target, which refutes rational solvability, hence integral too;
    * "Z": the pairing is an integer on every integral coboundary but not
      on the target;
    * "Z/k": the pairing is an integer on every integral coboundary and on
      k times every cochain, but not on the target's integer
      representatives.

    The one place that reads these senses is exact.blind.
    """

    functional: dict[Hashable, Fraction]
    ring: str

    def pairing(self, c: Cochain) -> Fraction:
        return sum((Fraction(v) * self.functional.get(g, Fraction(0))
                    for g, v in c.values.items()), Fraction(0))

    def refutes(self, target: Cochain) -> bool:
        return not blind(self.pairing(target), self.ring)

    def certifies(self, target: Cochain, spanning: Iterable[Cochain]) -> bool:
        """Refutes target and is blind on every cochain in spanning.

        spanning must span what a solution is built from: the coboundaries
        of the free generators one degree down, and for "Z/k" also k times
        each unit cochain on the functional's generators.
        """
        return self.refutes(target) and all(
            blind(self.pairing(c), self.ring) for c in spanning)

    def to_json(self) -> dict:
        return {"ring": self.ring, "functional": keyed_json(self.functional)}


def _pair_off(gen: Hashable, v, coeffs: Coefficients) -> CoboundaryObstruction:
    """The certificate for a target value v at a generator that no
    coboundary of the unknowns reaches: the unit functional at gen, weighted
    so that its pairing with the target is nonzero ("Q") or not an integer.

    Over Z the weight is 1/(2|numerator of v|), so even a target value that
    is not an integer pairs to +-1/(2 * its denominator).
    """
    w = (Fraction(1) if coeffs.kind == "Q" else Fraction(1, coeffs.modulus)
         if coeffs.modulus else Fraction(1, 2 * abs(Fraction(v).numerator)))
    return CoboundaryObstruction({gen: w}, coeffs.label())


def solve_coboundary(target: Cochain,
                     coeffs: Coefficients | None = None) -> Cochain | CoboundaryObstruction:
    """The primitive beta with delta beta = target, else a certificate.

    The coefficient ring defaults to the target's own; a target asked
    over Z/k is reduced mod k first, so zero is decided in the ring asked
    for.  The answer is one substitution into the cached
    delta_system(X, n - 1, coeffs).
    """
    coeffs = coeffs or target.coeffs
    if coeffs.modulus and coeffs != target.coeffs:
        target = target.map_values(coeffs.normalize, coeffs)
    X = target.complex
    n = target.degree
    if target.is_zero():
        return Cochain.zero(X, max(n - 1, 0), coeffs)
    if n < 1 or not X.generators(n - 1):
        # nothing to be a coboundary of: pair off the first nonzero value,
        # in generator order
        return _pair_off(*next(iter(target.values.items())), coeffs)
    S = delta_system(X, n - 1, coeffs)
    res = S.solve(list(target.vec))
    if isinstance(res, Obstruction):
        gens = X.generators(n)
        return CoboundaryObstruction({gens[q]: v for q, v in enumerate(res.functional) if v},
                                     res.ring)
    return Cochain._trusted(X, n - 1, coeffs, res.x0)


def is_coboundary(target: Cochain, coeffs: Coefficients | None = None) -> bool:
    return not isinstance(solve_coboundary(target, coeffs), CoboundaryObstruction)


@dataclass(frozen=True)
class _Classes:
    """What representatives and classify read, built once per integral group.

    cocycles holds the cocycle basis as sparse columns {generator position:
    entry}; image is the Smith form of delta_{n-1} in its coordinates,
    None when there is nothing to divide out.
    """

    cocycles: Sequence[Mapping[int, int]]
    image: SmithForm | None
    free_pos: list[int]
    torsion_pos: list[int]


class CohomologyGroup:
    """H^n(X; Z) (or Q) with representatives and coordinates.

    The presentation reads the diagonals of two factorizations that
    delta_system caches on X, delta_n's and delta_{n-1}'s.  The cocycles
    are a saturated sublattice holding every coboundary, so H^n has free
    rank dim ker delta_n - rank delta_{n-1} and torsion the invariant
    factors > 1 of delta_{n-1}.

    generators and classify also need the image form: delta_{n-1} in the
    cocycle basis's coordinates, factored by its own Smith form, which
    gives the free and torsion positions.  It is built on first use.  The
    rational group delegates to the integral group, so both rings share
    that one build.
    """

    def __init__(self, X: SimplicialSet, n: int, coeffs: Coefficients):
        if coeffs.kind not in ("Z", "Q"):
            raise ValueError("cohomology groups are computed over Z or Q")
        self.complex = X
        self.degree = n
        self.coeffs = coeffs
        if coeffs.kind == "Q":
            self._integral = cohomology(X, n, INTEGERS)
            self.presentation = GroupPresentation(
                free_rank=self._integral.presentation.free_rank)
            return
        self._integral = self
        out = delta_system(X, n).form
        below = delta_system(X, n - 1).form if n >= 1 else None
        # no generators one degree up (down) leaves no form: rank zero
        cocycles = len(X.generators(n)) - (out.rank if out else 0)
        self.presentation = GroupPresentation(
            free_rank=cocycles - (below.rank if below else 0),
            torsion=tuple(d for d in below.diagonal if d > 1) if below else ())

    # -- internals ---------------------------------------------------------

    @cached_property
    def _classes(self) -> _Classes:
        X, n = self.complex, self.degree
        out = delta_system(X, n).form
        if out is None:
            # no generators one degree up: everything is a cocycle, the
            # basis is the unit basis, and delta_{n-1} in its coordinates is
            # delta_{n-1} itself, already factored by its system
            cocycles: Sequence[Mapping[int, int]] = [
                {i: 1} for i in range(len(X.generators(n)))]
            image = delta_system(X, n - 1).form if n >= 1 else None
        else:
            cocycles = out.T[out.rank:]
            # delta_{n-1} in kernel coordinates: the rows of Tinv past the
            # rank (the kernel's dual basis) times delta_{n-1}, row by row
            Y: list[list[int]] = []
            if n >= 1:
                faces = delta_table(X, n - 1)
                width = len(X.generators(n - 1))
                for dual in out.Tinv[out.rank:]:
                    y = [0] * width
                    for t, a in dual.items():
                        for j, w in faces[t]:
                            y[j] += a * w
                    Y.append(y)
            image = smith_normal_form(Y) if Y and Y[0] else None
        dia = image.diagonal if image is not None else []
        return _Classes(
            cocycles, image,
            free_pos=[i for i in range(len(cocycles)) if i >= len(dia) or dia[i] == 0],
            torsion_pos=[i for i, d in enumerate(dia) if d > 1])

    def _kernel_coords(self, vec: Sequence[int]) -> list[int]:
        """Coordinates of a cocycle vector in the kernel basis."""
        f = delta_system(self.complex, self.degree).form
        if f is None:
            return list(vec)
        u = apply_rows(f.Tinv, vec)
        if any(u[:f.rank]):
            raise ValueError("vector is not a cocycle")
        return u[f.rank:]

    # -- public ------------------------------------------------------------

    @property
    def generators(self) -> list[Cochain]:
        """Representative cocycles over the group's ring: free summands
        first, then torsion, which the rational group drops."""
        k = self._integral._classes
        out = []
        c = len(self.complex.generators(self.degree))
        for pos in k.free_pos + (k.torsion_pos if self.coeffs.kind == "Z" else []):
            # column pos of Sinv in the kernel basis
            u = k.image.Sinv[pos] if k.image is not None else {pos: 1}
            vec = [0] * c
            for i, a in u.items():
                for t, v in k.cocycles[i].items():
                    vec[t] += a * v
            out.append(cochain_of(self.complex, self.degree, self.coeffs, vec))
        return out

    def classify(self, c: Cochain) -> tuple[tuple, tuple]:
        """(free coords, torsion coords) of a cocycle's class.

        c must be a degree-n cocycle on this group's complex, with integer
        values if the group is integral; anything else raises ValueError.
        """
        if c.complex is not self.complex:
            raise ValueError(f"classify on {self.complex.name} got a cochain on "
                             f"another complex, {c.complex.name}")
        if c.degree != self.degree:
            raise ValueError(f"classify in degree {self.degree} got a cochain "
                             f"of degree {c.degree}")
        vec = [Fraction(v) for v in vector_of(c)]
        denom = lcm(*(v.denominator for v in vec)) if vec else 1
        if denom != 1 and self.coeffs.kind == "Z":
            raise ValueError("classify over Z got a non-integral value")
        if not coboundary(c).is_zero():
            raise ValueError("classify expects a cocycle")
        k = self._integral._classes
        ivec = [int(v * denom) for v in vec]
        u = self._kernel_coords(ivec)
        w = apply_rows(k.image.S, u) if k.image is not None else u
        if self.coeffs.kind == "Q":
            return tuple(Fraction(w[i], denom) for i in k.free_pos), ()
        free = tuple(w[i] for i in k.free_pos)
        torsion = tuple(w[i] % k.image.diagonal[i] for i in k.torsion_pos)
        return free, torsion

    def same_class(self, c1: Cochain, c2: Cochain) -> bool:
        return self.classify(c1) == self.classify(c2)


@derived("cohomology")
def cohomology(X: SimplicialSet, n: int, coeffs: Coefficients = INTEGERS) -> CohomologyGroup:
    return CohomologyGroup(X, n, coeffs)


# -- the relative problems on X x Delta^2 ------------------------------------


def solve_relative_coboundary(target: Cochain,
                              cyl: ProductWithSimplex) -> Cochain | CoboundaryObstruction:
    """The x in R with delta x = target, else a certificate.

    R is the relative cochains of (X x Delta^2, X x dDelta^2), and target
    must be closed and in R.  Through the contraction (f, g, h) of R onto
    the base (cochains.shih_homotopy), target is a coboundary in R exactly
    when f target = fiber_integrate(target) is one on X.  With delta b =
    f target, from solve_coboundary in the base's cached system, x = h
    target + g b: g f - id = -(delta h + h delta) and delta target = 0 give
    delta x = target.  Otherwise the base certificate phi refutes, and
    phi o f refutes here, since f commutes with delta.

    Both are over target's ring.
    """
    if target.is_zero():
        return Cochain.zero(target.complex, max(target.degree - 1, 0), target.coeffs)
    base = fiber_integrate(target, cyl)
    got = solve_coboundary(base)
    if isinstance(got, CoboundaryObstruction):
        cells = cyl.decomposition
        return CoboundaryObstruction({cell: sign * v for g, v in got.functional.items()
                                      for sign, cell in cells[g]}, got.ring)
    x = shih_homotopy(target, cyl)
    if base.degree:
        # in degree 0 there is no b: f target is zero
        x = x + cross_section(got, 2)
    return x


def solve_closed_extension(cyl: ProductWithSimplex, pinned: Cochain,
                           coeffs: Coefficients) -> Cochain | CoboundaryObstruction:
    """A closed cochain on X x Delta^2 equal to pinned over the triangle's
    boundary, or a functional refuting one.

    pinned is K0 = face_pins(cyl, faces) for all three faces; every other
    generator is free.  The answer is K = K0 - x with delta x = y = delta
    K0 and x in R: x = h y + g b from solve_relative_coboundary, or its
    certificate.  If a face is not closed, y has a value over the boundary
    that no free generator's coboundary reaches, and that generator,
    paired off, refutes.  Every certificate is a functional on the degree
    + 1 generators, blind on delta of each free generator.  The only
    linear system solved is the base's cached delta_system.
    """
    P = cyl.complex
    if cyl.k != 2 or pinned.complex is not P:
        raise ValueError(f"pins live on {pinned.complex.name}, not on {P.name}"
                         if cyl.k == 2 else "closed extensions are solved on X x Delta^2")
    if pinned.coeffs != coeffs:
        pinned = pinned.map_values(coeffs.normalize, coeffs)
    y = coboundary(pinned)
    padded = y.vec + (coeffs.zero,)
    for i in range(3):
        table = cyl.face_inclusion(i).pullback_table(y.degree)
        if any(table.get(padded)):
            p = next(p for p in table.positions if padded[p])
            return _pair_off(P.generators(y.degree)[p], padded[p], coeffs)
    got = solve_relative_coboundary(y, cyl)
    if isinstance(got, CoboundaryObstruction):
        return got
    return pinned - got


class _PinPlan:
    """Where the faces of X x Delta^k land in one degree, for one face order.

    The faces' vectors are read concatenated in that order, with one zero
    appended.  place gathers the pinned cochain, each generator reading
    the last face value landing on it, else the zero; earlier and later
    gather the pairs of face values landing on one generator (at position
    overlap[j]) in the order they land, so the faces agree exactly when the
    two gathers do.
    """

    __slots__ = ("place", "earlier", "later", "overlap")

    def __init__(self, cyl: ProductWithSimplex, degree: int, order: tuple[int, ...]):
        last: dict[int, int] = {}  # generator position -> index of its last value
        pairs = []
        at = 0
        for i in order:
            for p in cyl.face_inclusion(i).pullback_table(degree).positions:
                if p in last:
                    pairs.append((last[p], at, p))
                last[p] = at
                at += 1
        self.place = Gather([last.get(p, at) for p in range(len(cyl.complex.generators(degree)))],
                            at)
        self.earlier = Gather([a for a, _, _ in pairs], at)
        self.later = Gather([b for _, b, _ in pairs], at)
        self.overlap = tuple(p for _, _, p in pairs)


def face_pins(cyl: ProductWithSimplex, faces: Mapping[int, Cochain]) -> Cochain:
    """The cochain on X x Delta^k with prescribed face restrictions, zero
    on every generator no face reaches.

    faces maps i to the required (id x delta_i)# restriction, a cochain on
    X x Delta^{k-1} (on X itself for k = 1); all of one degree and one
    coefficient ring.  A cochain on any other complex, or of another
    degree or ring, raises ValueError.  Every id x delta_i sends generators
    to generators, so each value lands on one generator of X x Delta^k.
    Where the values land is compiled once per degree and face order and
    cached on the cylinder (see _PinPlan); a call concatenates the faces'
    vectors and gathers.  Overlaps must agree; a conflict raises
    ValueError naming the first generator where faces disagree, which
    callers surface as incompatible faces.
    """
    if not faces:
        raise ValueError("face_pins needs at least one face")
    order = tuple(faces)
    first = faces[order[0]]
    degree, coeffs = first.degree, first.coeffs
    for i, F in faces.items():
        inclusion = cyl.face_inclusion(i)
        if F.complex is not inclusion.source:
            raise ValueError(f"face {i} lives on {F.complex.name},"
                             f" not on {inclusion.source.name}")
        if F.degree != degree or (F.coeffs is not coeffs and F.coeffs != coeffs):
            raise ValueError(f"face {i} is not a degree-{degree} cochain over {coeffs.label()}")
    P = cyl.complex
    plan = cached_on(cyl, ("pin-plan", degree, order), _PinPlan, cyl, degree, order)
    vec = tuple(chain.from_iterable(F.vec for F in faces.values())) + (coeffs.zero,)
    earlier, later = plan.earlier.get(vec), plan.later.get(vec)
    if earlier != later:
        p = next(p for p, u, v in zip(plan.overlap, earlier, later) if u != v)
        raise ValueError(f"faces disagree at generator {P.generators(degree)[p]!r}")
    return Cochain._trusted(P, degree, coeffs, plan.place.get(vec))
