"""The pinned solves on X x Delta^k, kept as references.

The package used to solve every closed-extension and class-equality
problem as a pinned system on X x Delta^k: delta with the generators over
the simplex's boundary held out as known values (and, for class
equality, the equations over the boundary dropped), factored once per pin
set.  It now answers both through the Eilenberg-Zilber contraction of the
relative cochains of X x Delta^2 onto the base.  The positional pinned
path is kept here as it was (pinned_system, solve_pinned_extension, the
prism-boundary system behind same_class and compare, and the level-3
pushforward of a primitive), so the contraction can be checked against it
verdict for verdict, and so the X x Delta^1 and X x Delta^3 problems the
tests pose still have a solver.

Older still is the generator-keyed pinned solve, the reference for the
positional one: face_pins keyed pins by generator, delta_system kept a
pin table of sparse columns beside its System, System.rhs moved the known
values through that table, and solve_int_snf substituted b through every
row of S.  They are kept here, as they were, so the positional path (a
pin plan, b = -delta pi from the face gathers, compiled rank rows and the
test A x0 = b) can be compared with them answer for answer.  The reference builds its own
matrix and checks it against the positional system's, then substitutes
into that system's Smith form, so each pinned problem is factored once.
A System does not name the positions its rows and columns came from, so
PinnedSystem keeps them beside it here.

The positional solve returns no kernel cochains with its particular
solution.  The generator-keyed reference still builds them, from
System.kernel, as a PinnedSolution of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import neg
from typing import Hashable, Iterable, Mapping

from simdiff import cohomology
from simdiff.cochains import (INTEGERS, Cochain, Coefficients, coboundary, coboundary_values,
                              delta_table)
from simdiff.cohomology import CoboundaryObstruction
from simdiff.complexes import Gather, ProductWithSimplex, Simplex, SimplicialSet, cylinder
from simdiff.exact import (Obstruction, SmithForm, Solution, System, _lift, apply_cols,
                           apply_rows)
from simdiff.groupoid import ClassComparison, _interior


# -- the positional pinned path --------------------------------------------


class PinnedSystem(System):
    """A System that also names the positions its rows and columns were
    kept from: rows in X.generators(n + 1), cols in X.generators(n)."""

    def __init__(self, A, rows: list[int], cols: list[int], coeffs: Coefficients):
        super().__init__(A, len(cols), coeffs)
        self.rows = rows
        self.cols = cols


def pin_positions(cyl: ProductWithSimplex, order: Iterable[int], degree: int) -> frozenset:
    """The positions of the degree-generators of X x Delta^k that the faces
    in order land on: the unknowns a pinned solve holds out."""
    return frozenset(p for i in order
                     for p in cyl.face_inclusion(i).pullback_table(degree).positions)


def pinned_system(X: SimplicialSet, n: int, pinned: frozenset[int] = frozenset(),
                  coeffs: Coefficients = INTEGERS,
                  dropped: frozenset[int] = frozenset()) -> PinnedSystem:
    """delta: C^n -> C^{n+1} over coeffs, with some generators held out.

    pinned holds positions in X.generators(n): an unknown with a known
    value, whose column leaves the system.  dropped holds positions in
    X.generators(n + 1), whose equations leave it.  rows and cols are the
    positions kept, in order.  The system is factored once and cached on X
    under (n, pinned, dropped, coeffs).
    """
    token = ("pinned-system", n, pinned, dropped, coeffs)
    if token not in X._cache:
        free = [p for p in range(len(X.generators(n))) if p not in pinned]
        column = {p: j for j, p in enumerate(free)}
        rows, A = [], []
        for q, sparse in enumerate(delta_table(X, n)):
            if q in dropped:
                continue
            row = [0] * len(free)
            for p, a in sparse:
                j = column.get(p)
                if j is not None:
                    row[j] = a
            rows.append(q)
            A.append(row)
        X._cache[token] = PinnedSystem(A, rows, free, coeffs)
    return X._cache[token]


def _on_rows(S: PinnedSystem, res: Obstruction, gens) -> CoboundaryObstruction:
    return CoboundaryObstruction({gens[q]: v for q, v in zip(S.rows, res.functional) if v},
                                 res.ring)


def solve_pinned_extension(P: SimplicialSet, degree: int, positions: frozenset,
                           pi: Cochain, coeffs: Coefficients) -> Cochain | CoboundaryObstruction:
    """A closed degree-`degree` cochain on P equal to pi on the pinned
    positions, or a functional on C^{degree+1} refuting delta x = -delta pi
    over the free x.  The solution is one gather over pi's values followed
    by the system's unknowns."""
    if pi.coeffs != coeffs:
        pi = pi.map_values(coeffs.normalize, coeffs)
    token = ("closed-extension", degree, positions, coeffs)
    ext = P._cache.get(token)
    if ext is None:
        S = pinned_system(P, degree, positions, coeffs)
        N = len(P.generators(degree))
        unknown = {p: N + j for j, p in enumerate(S.cols)}
        ext = P._cache[token] = S, Gather([unknown.get(p, p) for p in range(N)],
                                          N + len(S.cols))
    S, place = ext
    res = S.solve(list(map(neg, coboundary_values(pi))))
    if isinstance(res, Obstruction):
        return _on_rows(S, res, P.generators(degree + 1))
    return Cochain._trusted(P, degree, coeffs, place.get(pi.vec + tuple(res.x0)))


def solve_faces(cyl: ProductWithSimplex, faces: Mapping[int, Cochain],
                coeffs: Coefficients) -> Cochain | CoboundaryObstruction:
    """solve_pinned_extension for the cochain the package's face_pins
    builds from faces, with exactly the generators they reach pinned."""
    degree = next(iter(faces.values())).degree
    return solve_pinned_extension(cyl.complex, degree, pin_positions(cyl, faces, degree),
                                  cohomology.face_pins(cyl, faces), coeffs)


def prism_boundary_system(G) -> PinnedSystem:
    """delta Q = D restricted to the inside of X x Delta^2: every generator
    missing a vertex of the triangle pinned one degree down and dropped in
    the degree of D."""
    P = cylinder(G.base, 2).complex
    q = G.degree + 1
    pinned, dropped = (frozenset(p for p, g in enumerate(P.generators(d)) if not _interior(g, 2))
                       for d in (q - 1, q))
    return pinned_system(P, q - 1, pinned, G.coeffs, dropped)


def solve_interior(G, D: Cochain):
    """Q on the interior of X x Delta^2 with delta Q = D, or a functional on
    the interior generators refuting it."""
    S = prism_boundary_system(G)
    X, n, vec = D.complex, D.degree, D.vec
    b = [vec[q] for q in S.rows]
    if len(b) - b.count(0) != len(D.values):
        raise ValueError("target is not supported on the system's rows")
    res = S.solve(b)
    if isinstance(res, Obstruction):
        return _on_rows(S, res, X.generators(n))
    out = [G.coeffs.zero] * len(X.generators(n - 1))
    for p, v in zip(S.cols, res.x0):
        out[p] = v
    return Cochain._trusted(X, n - 1, G.coeffs, out)


def same_class(G, c0, c1) -> bool:
    """MappingGroupoid.same_class on the prism-boundary system."""
    diff = c1.rep.data - c0.rep.data
    return diff.is_zero() or not isinstance(solve_interior(G, diff), CoboundaryObstruction)


def level3_pushforward(G, Q: Cochain) -> Cochain:
    """Copy interior 2-prism data onto the 0-face of the 3-prism, simplex
    by simplex."""
    inc = cylinder(G.base, 3).face_inclusion(0)
    vals = {}
    for g, v in Q.values.items():
        img = inc(Simplex(g))
        if img.word:
            raise AssertionError("interior generator degenerated under lift")
        vals[img.gen] = v
    return Cochain(inc.target, Q.degree, G.coeffs, vals)


def compare(G, c0, c1) -> ClassComparison:
    """MappingGroupoid.compare on the prism-boundary system."""
    diff = c1.rep.data - c0.rep.data
    reflexive = G.maps.degeneracy(c0.rep.data, 0)
    if diff.is_zero():
        return ClassComparison(True, witness=reflexive)
    got = solve_interior(G, diff)
    if isinstance(got, CoboundaryObstruction):
        return ClassComparison(False, obstruction=got)
    lift = level3_pushforward(G, got)
    return ClassComparison(True, witness=reflexive + coboundary(lift))


# -- the generator-keyed pinned path -----------------------------------------


@dataclass
class PinnedSolution:
    """particular + integer/rational span of kernel, as cochains."""

    particular: Cochain
    kernel: list[Cochain]


def pins_by_generator(pinned: Cochain, positions: frozenset) -> dict:
    """Pinned values on the given positions as the {generator: value} dict
    face_pins used to return."""
    gens = pinned.complex.generators(pinned.degree)
    return {gens[p]: pinned.vec[p] for p in sorted(positions)}


def face_pins(cyl: ProductWithSimplex, faces: Mapping[int, Cochain]) -> dict:
    """Generator pins on X x Delta^k realizing prescribed face restrictions."""
    pins: dict = {}
    for i, F in faces.items():
        inclusion = cyl.face_inclusion(i)
        if F.complex is not inclusion.source:
            raise ValueError(f"face {i} lives on {F.complex.name},"
                             f" not on {inclusion.source.name}")
        targets = cyl.complex.generators(F.degree)
        for p, v in zip(inclusion.pullback_table(F.degree).positions, F.vec):
            t = targets[p]
            old = pins.get(t)
            if old is not None and old != v:
                raise ValueError(f"faces disagree at generator {t!r}")
            pins[t] = v
    return pins


def delta_system(X: SimplicialSet, n: int, pinned: frozenset) -> tuple[list, list, list, dict]:
    """delta: C^n -> C^{n+1} with generators held out: (A, rows, cols, pin
    table), rows and columns named by generator, the pin table
    {generator: [(row, a), ...]}."""
    gens = X.generators(n)
    free = [p for p, g in enumerate(gens) if g not in pinned]
    column = {p: j for j, p in enumerate(free)}
    rows, A, pins = [], [], {}
    for gen, sparse in zip(X.generators(n + 1), delta_table(X, n)):
        if gen in pinned:
            continue
        row = [0] * len(free)
        for p, a in sparse:
            j = column.get(p)
            if j is not None:
                row[j] = a
            else:
                pins.setdefault(gens[p], []).append((len(rows), a))
        rows.append(gen)
        A.append(row)
    return A, rows, [gens[p] for p in free], pins


def rhs(pins: Mapping[Hashable, list], rows: int, known: Mapping[Hashable, object]) -> list:
    """b = -(sum of each known value times its pinned column)."""
    b: list = [0] * rows
    for g, v in known.items():
        if v:
            for i, a in pins.get(g, ()):
                b[i] -= a * v
    return b


def solve_int_snf(f: SmithForm, b) -> Solution | Obstruction:
    """The substitution through every row of S."""
    r, c = f.shape
    y = []
    for i, (row, sb) in enumerate(zip(f.S, apply_rows(f.S, b))):
        d = f.diagonal[i] if i < c else 0
        if d:
            if sb % d:
                return Obstruction([Fraction(row.get(t, 0), d) for t in range(r)], "Z")
            y.append(sb // d)
        elif sb:
            return Obstruction([Fraction(row.get(t, 0)) for t in range(r)], "Q")
    return Solution(apply_cols(f.T, y, c))


def solve(S: System, b) -> Solution | Obstruction:
    """System.solve through the full-S substitution."""
    if S.form is None:
        return Solution([0] * S.width)
    f = S.form
    if S.coeffs.kind == "Q":
        e = lcm(*(v.denominator for v in b)) * (f.diagonal[f.rank - 1] if f.rank else 1)
        res = solve_int_snf(f, [int(v * m * e) for v, m in zip(b, S._scale)])
        if isinstance(res, Obstruction):
            return Obstruction([v * m for v, m in zip(res.functional, S._scale)], "Q")
        return Solution([Fraction(v, e) for v in res.x0])
    res = solve_int_snf(f, b)
    k = S.coeffs.modulus
    if not k:
        return res
    if isinstance(res, Obstruction):
        return Obstruction(res.functional, S.coeffs.label())
    return Solution([v % k for v in res.x0[:S.width]])


def solve_closed_extension(P: SimplicialSet, degree: int, pins: Mapping[Hashable, object],
                           coeffs: Coefficients,
                           S: PinnedSystem) -> PinnedSolution | CoboundaryObstruction:
    """Closed cochains on P with the generator-keyed pins, or a certificate.

    S is the positional system for the same pins: its matrix must be the
    one built here, row for row and column for column, and its Smith form
    is reused rather than factored a second time.
    """
    pinned = {g: coeffs.normalize(v) for g, v in pins.items()}
    A, rows, cols, table = delta_system(P, degree, frozenset(pinned))
    assert S.matrix == (_lift(A, coeffs.modulus) if coeffs.modulus else A)
    assert [P.generators(degree + 1)[q] for q in S.rows] == rows
    assert [P.generators(degree)[p] for p in S.cols] == cols
    res = solve(S, rhs(table, len(rows), pinned))
    if isinstance(res, Obstruction):
        return CoboundaryObstruction({g: v for g, v in zip(rows, res.functional) if v},
                                     res.ring)
    particular = Cochain(P, degree, coeffs, {**pinned, **dict(zip(cols, res.x0))})
    kernel = [Cochain(P, degree, coeffs, dict(zip(cols, kv))) for kv in S.kernel]
    return PinnedSolution(particular, kernel)
