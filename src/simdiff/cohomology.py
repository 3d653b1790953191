"""Cochain complexes as integer matrices: cohomology and solvers.

The coboundary in each degree is a sparse integer matrix over the generator
bases.  Integer Smith form gives presentations H = Z^r + sum Z/d, coordinates
for classifying cocycles, and representative cocycles for each summand.

delta_system(X, n, coeffs) is the one factorization of delta_n: an
exact.System over one ring (the Coefficients object itself), cached on the
complex, on delta_n without the rows at the unit pivots of the integral
delta_system(X, n + 1).form, built from the top degree down (clearing:
Chen-Kerber, "Persistent homology computation with a twist", EuroCG 2011;
Bauer-Kerber-Reininghaus, "Clear and compress", 2014); kept_rows(X, n)
lists the rows it keeps.  The clearing lemma: if A is a set of rows of
delta_{n+1} whose form took unit pivots at the columns P, then U delta_n =
[0; delta_n'] for a unimodular U, delta_n' being delta_n without the rows
P.  Proof: the rows of Tinv at the unit places are rows of S A, which
delta_{n+1} delta_n = 0 makes annihilate delta_n, and on the columns P
they are upper unitriangular (exact.SmithForm), so with the unit rows off
P they form U.  A row subset of delta_{n+1} still composes to zero with
delta_n, so the lemma holds at every step down.  U is invertible over Z,
Q and Z/k, so over each delta_n' has delta_n's rank, invariant factors
and kernel; for a closed b, delta x = b exactly when delta_n' x = b on the
kept rows, and a certificate on the kept rows extends by zero; and the
integer annihilator of delta_n is spanned by the rows of delta_{n+1} and
the rows of S past the rank of delta_n''s form, extended by zero.

The image form behind representatives and coordinates (delta_{n-1} in
cocycle coordinates, read through the logs of delta_n's form, a Smith
form of its own) is built on first use.  Rational cohomology rides on the
integer computation (torsion dropped: its generators are the free ones,
over Q).  Nothing here calls exact's one-shot solvers.  exact answers in
Solution | Obstruction over positions; from here up every question on
cochains is answered in one shape, the answer cochain or a
CoboundaryObstruction.  solve_coboundary refutes a target that is not
closed by a row of delta and substitutes any other into the cached system.

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

from .cochains import (Cochain, Coefficients, INTEGERS, coboundary, coboundary_values,
                       cross_section, delta_table, fiber_integrate, is_closed, shih_homotopy)
from .complexes import Gather, ProductWithSimplex, SimplicialSet, cached_on, derived, key_str
from .exact import Obstruction, Row, SmithForm, System, blind, replay, smith_normal_form, unit


@derived("kept")
def kept_rows(X: SimplicialSet, n: int) -> tuple[int, ...]:
    """The rows of delta_n that delta_system(X, n) keeps: every position but
    the unit pivots of the integral delta_system(X, n + 1).form."""
    rows = delta_table(X, n)
    above = delta_system(X, n + 1).form if rows else None
    cleared = set(above.units) if above else ()
    return tuple(i for i in range(len(rows)) if i not in cleared)


@derived("system")
def delta_system(X: SimplicialSet, n: int, coeffs: Coefficients = INTEGERS) -> System:
    """delta: C^n -> C^{n+1} of X over coeffs on the rows kept_rows(X, n),
    factored once: the one factorization of delta_n (module docstring).

    The rows are delta_table's own {column: entry} rows, not copies, with
    the width; no dense row is built.  The system is cached on X under
    (n, coeffs), never under matrix content.
    """
    rows = delta_table(X, n)
    return System([rows[i] for i in kept_rows(X, n)], len(X.generators(n)), coeffs)


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
    for.  A target that is not closed is refuted by the row of delta at
    the first generator where delta target is nonzero ("Q"; over Z/k that
    row over k, "Z/k").  Any other is one substitution of its values on
    kept_rows(X, n - 1) into the cached delta_system(X, n - 1, coeffs).
    """
    coeffs = coeffs or target.coeffs
    if coeffs.modulus and coeffs != target.coeffs:
        target = target.map_values(coeffs.normalize, coeffs)
    X = target.complex
    n = target.degree
    if target.is_zero():
        return Cochain.zero(X, max(n - 1, 0), coeffs)
    gens = X.generators(n)
    if n < 1 or not X.generators(n - 1):
        # nothing to be a coboundary of: pair off the first nonzero value,
        # in generator order
        return _pair_off(*next(iter(target.values.items())), coeffs)
    k = coeffs.modulus
    bad = next((p for p, v in enumerate(coboundary_values(target)) if (v % k if k else v)), None)
    if bad is not None:
        w = Fraction(1, k or 1)
        return CoboundaryObstruction({gens[p]: w * a for p, a in delta_table(X, n)[bad].items()},
                                     coeffs.label() if k else "Q")
    kept = kept_rows(X, n - 1)
    res = delta_system(X, n - 1, coeffs).solve([target.vec[q] for q in kept])
    if isinstance(res, Obstruction):
        return CoboundaryObstruction({gens[kept[q]]: v for q, v in enumerate(res.functional)
                                      if v}, res.ring)
    return Cochain._trusted(X, n - 1, coeffs, res.x0)


def is_coboundary(target: Cochain, coeffs: Coefficients | None = None) -> bool:
    return not isinstance(solve_coboundary(target, coeffs), CoboundaryObstruction)


@dataclass(frozen=True)
class _Classes:
    """What representatives and classify read, built once per integral group.

    image is the Smith form of delta_{n-1} in cocycle coordinates, None
    when there is nothing to divide out; free_pos and torsion_pos are the
    places of its diagonal that give free and torsion summands.
    """

    image: SmithForm | None
    free_pos: list[int]
    torsion_pos: list[int]


class CohomologyGroup:
    """H^n(X; Z) (or Q) with representatives and coordinates.

    The cocycles are a saturated sublattice holding every coboundary, so
    H^n has free rank dim ker delta_n - rank delta_{n-1} and torsion the
    invariant factors > 1 of delta_{n-1}.  The presentation reads these
    off the diagonals of delta_system(X, n).form and delta_system(X, n -
    1).form, which have delta_n's and delta_{n-1}'s ranks and invariant
    factors though rows are cleared (the clearing lemma in the module
    docstring).

    generators and classify also need the image form: delta_{n-1} in the
    coordinates of the cocycle basis (T's columns past the rank in
    delta_system(X, n).form, a basis of ker delta_n), factored by its own
    Smith form, which gives the free and torsion positions.  It is built
    on first use, and no cocycle basis is: a representative is T (0, u),
    one replay.  The rational group delegates to the integral group, so
    both rings share that one build.
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
        # no row left one degree up (down) leaves no form: rank zero
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
            # no row of delta_n is left, so delta_n is zero: everything is a
            # cocycle, the basis is the unit basis, and delta_{n-1} in its
            # coordinates is delta_{n-1} itself, which its system factors
            # with no row cleared
            z = len(X.generators(n))
            image = delta_system(X, n - 1).form if n >= 1 else None
        else:
            z = out.shape[1] - out.rank
            # delta_{n-1} in kernel coordinates, the rows of Tinv past the
            # rank times delta_{n-1}: Tinv delta_{n-1} (zero up to the rank)
            # past the rank, by one replay on delta_{n-1}'s sparse rows
            width = len(X.generators(n - 1)) if n >= 1 else 0
            Y = replay(out.col_log, map(Row, delta_table(X, n - 1)), transpose=True,
                       inverse=True)[out.rank:] if width else []
            image = smith_normal_form(Y, width) if Y else None
        dia = image.diagonal if image is not None else []
        return _Classes(
            image,
            free_pos=[i for i in range(z) if i >= len(dia) or dia[i] == 0],
            torsion_pos=[i for i, d in enumerate(dia) if d > 1])

    # -- public ------------------------------------------------------------

    @property
    def generators(self) -> list[Cochain]:
        """Representative cocycles over the group's ring: free summands
        first, then torsion, which the rational group drops.  They are
        built once per group; each read gets a list of its own."""
        return list(self._generators)

    @cached_property
    def _generators(self) -> tuple[Cochain, ...]:
        k = self._integral._classes
        f = delta_system(self.complex, self.degree).form
        z = len(self.complex.generators(self.degree)) - (f.rank if f is not None else 0)
        out = []
        for pos in k.free_pos + (k.torsion_pos if self.coeffs.kind == "Z" else []):
            # column pos of the image form's Sinv, in the kernel basis
            u = (replay(k.image.row_log, unit(z, pos), inverse=True)
                 if k.image is not None else unit(z, pos))
            vec = replay(f.col_log, [0] * f.rank + u, transpose=True) if f is not None else u
            out.append(cochain_of(self.complex, self.degree, self.coeffs, vec))
        return tuple(out)

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
        vec = [Fraction(v) for v in c.vec]
        denom = lcm(*(v.denominator for v in vec)) if vec else 1
        if denom != 1 and self.coeffs.kind == "Z":
            raise ValueError("classify over Z got a non-integral value")
        if not is_closed(c):
            raise ValueError("classify expects a cocycle")
        k = self._integral._classes
        f = delta_system(self.complex, self.degree).form
        u = [int(v * denom) for v in vec]
        if f is not None:
            # coordinates in the kernel basis: Tinv u past the rank
            u = replay(f.col_log, u, transpose=True, inverse=True)
            if any(u[:f.rank]):
                raise ValueError("vector is not a cocycle")
            u = u[f.rank:]
        w = replay(k.image.row_log, u) if k.image is not None else u
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
