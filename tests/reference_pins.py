"""The generator-keyed pinned solve, kept as the reference for the positional one.

face_pins keyed pins by generator, delta_system kept a pin table of sparse
columns beside its System, System.rhs moved the known values through that
table, and solve_int_snf substituted b through every row of S.  They are
kept here, as they were, so the positional path (a pin plan, b = -delta pi
from the face gathers, compiled rank rows and the test A x0 = b) can be
compared with them answer for answer.  The reference builds its own
matrix and checks it against the positional system's, then substitutes
into that system's Smith form, so each pinned problem is factored once.

The package's solve_closed_extension has since stopped returning the
kernel cochains with its particular solution.  The reference still builds
them, from System.kernel, as a PinnedSolution of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping

from simdiff.cochains import Cochain, Coefficients, delta_table
from simdiff.cohomology import CoboundaryObstruction, Pins
from simdiff.complexes import ProductWithSimplex, SimplicialSet
from simdiff.exact import (Obstruction, SmithForm, Solution, System, _lift, apply_cols,
                           apply_rows)


@dataclass
class PinnedSolution:
    """particular + integer/rational span of kernel, as cochains."""

    particular: Cochain
    kernel: list[Cochain]


def pins_by_generator(pins: Pins) -> dict:
    """A Pins as the {generator: value} dict face_pins used to return."""
    c = pins.cochain
    gens = c.complex.generators(c.degree)
    return {gens[p]: c.vec[p] for p in sorted(pins.positions)}


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
        return Solution([0] * len(S.cols))
    f = S.form
    if S.kind == "Q":
        e = lcm(*(v.denominator for v in b)) * (f.diagonal[f.rank - 1] if f.rank else 1)
        res = solve_int_snf(f, [int(v * m * e) for v, m in zip(b, S._scale)])
        if isinstance(res, Obstruction):
            return Obstruction([v * m for v, m in zip(res.functional, S._scale)], "Q")
        return Solution([Fraction(v, e) for v in res.x0])
    res = solve_int_snf(f, b)
    if S.kind == "Z":
        return res
    if isinstance(res, Obstruction):
        return Obstruction(res.functional, S.ring)
    return Solution([v % S.modulus for v in res.x0[:len(S.cols)]])


def solve_closed_extension(P: SimplicialSet, degree: int, pins: Mapping[Hashable, object],
                           coeffs: Coefficients,
                           S: System) -> PinnedSolution | CoboundaryObstruction:
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
