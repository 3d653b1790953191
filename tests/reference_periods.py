"""The enumerated homotopy kernel behind HatTheory.compare, kept as the
reference for the cocycle periods that replaced it.

compare once read every closed cochain on X x Delta^2 vanishing on the
three faces: the kernel of the pinned system behind homotopies, one dense
cochain per basis vector (731 of them on T^3 in degree 2), which
solve_closed_extension returned beside its particular solution.  The
period system was the quotient functionals, then the integer kernel of
delta's transpose, on the characters of those cochains, and compare chose
the homotopy particular + sum(coordinate * kernel cochain).  The code is
kept here as it was, so the package can be checked against it: the same
period lattices, the same verdicts, and witnesses and obstructions that
pass the same checks.  The particular solution is still the package's:
homotopies returns the one it always did.

loops lists the self-homotopies of the unit that compare read in between
(one relative section per cocycle of the base one degree down), so the
period matrix can be checked against their integrals entry for entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, mul

from simdiff.cochains import INTEGERS, Cochain, coboundary
from simdiff.cohomology import CoboundaryObstruction, cochain_of, solve_coboundary
from simdiff.complexes import cylinder
from simdiff.diffhat import HatClass, HatComparison, HatTheory, PeriodObstruction
from simdiff.em import relative_section
from simdiff.exact import Obstruction, System, blind
from simdiff.groupoid import HomotopyClass, Homotopy2

from dense import delta_matrix, full_delta, kernel_int, transpose
from reference_pins import pin_positions, pinned_system


def kernel(T: HatTheory) -> list[Cochain]:
    """The pinned system's kernel as cochains on X x Delta^2, in its order.

    The faces pin the same generators for every pair of objects: every
    generator over the triangle's boundary.
    """
    n, X = T.degree, T.base
    cyl2 = cylinder(X, 2)
    P = cyl2.complex
    S = pinned_system(P, n + 1, pin_positions(cyl2, (0, 1, 2), n + 1))
    out = []
    for kv in S.kernel:
        vec = [0] * len(P.generators(n + 1))
        for p, v in zip(S.cols, kv):
            vec[p] = v
        out.append(Cochain._trusted(P, n + 1, INTEGERS, vec))
    return out


def loops(T: HatTheory) -> list[Cochain]:
    """The relative section of each cocycle full_delta(X, n - 1).kernel
    lists, in its order: closed data on X x Delta^2, zero on the faces.
    The cocycles are the full delta's, so their order and basis need not
    be the package's."""
    X, n = T.base, T.degree
    return [relative_section(cochain_of(X, n - 1, INTEGERS, w))
            for w in full_delta(X, n - 1).kernel]


def quotient_functionals(T: HatTheory) -> list[list[int]]:
    """Dense integer rows spanning the annihilator of rational coboundaries
    in carrier degree n - 1; identity rows when nothing is divided out."""
    n = T.degree
    gens = T.carrier.generators(n - 1)
    lower = T.carrier.generators(n - 2) if n >= 2 else []
    if lower:
        return kernel_int(transpose(delta_matrix(T.carrier, n - 2)))
    return [[1 if i == j else 0 for i in range(len(gens))] for j in range(len(gens))]


def period_matrix(T: HatTheory, functionals: list[list[int]],
                  columns: list[Cochain]) -> list[list[int]]:
    """The functionals on the characters of the given cochains."""
    colvecs = [[int(v) for v in T._character_column(B).vec] for B in columns]
    M = []
    for phi in functionals:
        nonzero = [(i, p) for i, p in enumerate(phi) if p]
        M.append([sum(p * col[i] for i, p in nonzero) for col in colvecs])
    return M


class Reference:
    """compare over the enumerated kernel, for one theory."""

    def __init__(self, T: HatTheory):
        self.theory = T
        self.kernel = kernel(T)
        self.functionals = quotient_functionals(T)
        M = period_matrix(T, self.functionals, self.kernel)
        self.periods = System(M, len(self.kernel), INTEGERS)

    def compare(self, x: HatClass, y: HatClass) -> HatComparison:
        T = self.theory
        particular = T.homotopies(x.obj, y.obj)
        if isinstance(particular, CoboundaryObstruction):
            return HatComparison(False, obstruction=particular)
        base = HomotopyClass(Homotopy2(x.obj, y.obj, particular))
        mor0 = T.character.on_morphism(base)
        tvec = list(((x.omega - y.omega) - mor0).vec)
        v = [sum(p * tvec[i] for i, p in enumerate(phi) if p)
             for phi in self.functionals]
        ring = "Z" if self.kernel else "Q"
        bad = next((j for j, val in enumerate(v) if not blind(val, ring)), None)
        got = None
        if bad is not None:
            got = Obstruction([Fraction(int(j == bad)) for j in range(len(v))], ring)
        elif self.kernel:
            got = self.periods.solve([int(val) for val in v])
        if isinstance(got, Obstruction):
            return HatComparison(False, homotopy=particular,
                                 obstruction=self._period_obstruction(got, v))
        coords = [] if got is None else [int(c) for c in got.x0]
        data = particular
        if any(coords):
            vec = data.vec
            for c, B in zip(coords, self.kernel):
                if c:
                    vec = map(add, vec, map(mul, B.vec, repeat(c)))
            data = Cochain._trusted(data.complex, data.degree, INTEGERS, vec)
        chosen = HomotopyClass(Homotopy2(x.obj, y.obj, data))
        morH = T.character.on_morphism(chosen)
        residual = (x.omega - y.omega) - morH
        if residual.is_zero():
            return HatComparison(True, homotopy=data)
        shift = solve_coboundary(residual)
        if isinstance(shift, CoboundaryObstruction):
            raise ArithmeticError("residual escaped the coboundary image")
        if morH + coboundary(shift) != x.omega - y.omega:
            raise ArithmeticError("witness failed its literal check")
        return HatComparison(True, homotopy=data, shift=shift)

    def _period_obstruction(self, got: Obstruction, v: list[Fraction]) -> PeriodObstruction:
        T = self.theory
        gens = T.carrier.generators(T.degree - 1)
        fun: dict = {}
        for yr, phi in zip(got.functional, self.functionals):
            if yr:
                for g, p in zip(gens, phi):
                    if p:
                        fun[g] = fun.get(g, Fraction(0)) + yr * p
        value = sum((yr * val for yr, val in zip(got.functional, v) if yr), Fraction(0))
        return PeriodObstruction({g: val for g, val in fun.items() if val}, got.ring, value)
