"""Arrow-level refinement of the refined-class groups, and certified
comparison functors between character models over one base.

An arrow between two refined classes is a rational datum one degree down
whose inclusion matches their difference; parallel arrows agree modulo
exact data, so each arrow group is a torsor under the character lattice.
Comparison functors between two models are checked on objects first (the
integral class, the curvature through the form transport, the inclusion
of forms), then for arrow bijectivity, essential surjectivity, and the
coherence identities of their monoidal cell.  The additivity defect of
any class-preserving object map lifts to such a cell, and the lift's
identities are what the defect-injection harness corrupts one at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .character import rational_form, shear
from .cochains import Cochain, INTEGERS, RATIONALS
from .cohomology import CoboundaryObstruction, cohomology, is_coboundary, keyed_json
from .diffhat import HatClass, HatTheory, _random_form
from .exact import smith_normal_form
from .groupoid import Homotopy2, HomotopyClass
from .report import Check, Report, scan, tally


@dataclass(frozen=True, eq=False)
class TildeMorphism:
    """An arrow source -> target, carried by one rational datum."""

    source: HatClass
    target: HatClass
    form: Cochain

    def __repr__(self) -> str:
        return f"TildeMorphism(deg {self.source.degree}, |form|={len(self.form.values)})"


class TildeGroupoid:
    """Refined classes with one arrow group per matching pair.

    Objects are the classes of a HatTheory.  An arrow x -> y exists
    exactly when the underlying integral classes agree, and then the
    arrows form a torsor under the characters one degree down; a single
    witness therefore pins down the whole set.  Composition adds the
    data, and the sum of classes makes the groupoid strict monoidal.
    """

    def __init__(self, theory: HatTheory):
        self.theory = theory

    def zero(self) -> HatClass:
        return self.theory.zero()

    def random_object(self, rng: random.Random) -> HatClass:
        T = self.theory
        return T.hat(T.groupoid.random_object(rng), _random_form(T, rng))

    def lift(self, d: HatClass) -> Cochain:
        """A rational datum whose inclusion is d.

        Exists exactly when d's integral class vanishes; the connecting
        homotopy's character supplies it.  The unit's own self-homotopy is
        the zero cochain (its faces pin zero), so the zero class lifts to
        the zero datum.
        """
        T = self.theory
        unit = T.groupoid.unit()
        sol = T.homotopies(unit, d.obj)
        if isinstance(sol, CoboundaryObstruction):
            raise ValueError("class has a nonzero integral part; no datum spans it")
        connect = HomotopyClass(Homotopy2(unit, d.obj, sol))
        return d.omega + T.character.on_morphism(connect)

    def hom(self, x: HatClass, y: HatClass) -> TildeMorphism | CoboundaryObstruction:
        """The arrow x -> y, or the functional separating the classes."""
        T = self.theory
        d = T.sub(y, x)
        sol = T.homotopies(T.groupoid.unit(), d.obj)
        if isinstance(sol, CoboundaryObstruction):
            return sol
        return TildeMorphism(x, y, self.lift(d))

    def verify(self, m: TildeMorphism):
        """Recheck the arrow condition; a HatComparison either way."""
        T = self.theory
        return T.compare(T.from_form(m.form), T.sub(m.target, m.source))

    def identity(self, x: HatClass) -> TildeMorphism:
        return TildeMorphism(x, x, Cochain.zero(
            self.theory.carrier, self.theory.degree - 1, RATIONALS))

    def compose(self, first: TildeMorphism, second: TildeMorphism) -> TildeMorphism:
        """first then second."""
        if not self.theory.eq(first.target, second.source):
            raise ValueError("arrows do not abut")
        return TildeMorphism(first.source, second.target,
                             first.form + second.form)

    def inverse(self, m: TildeMorphism) -> TildeMorphism:
        return TildeMorphism(m.target, m.source, -m.form)

    def oplus(self, m1: TildeMorphism, m2: TildeMorphism) -> TildeMorphism:
        T = self.theory
        return TildeMorphism(T.add(m1.source, m2.source),
                             T.add(m1.target, m2.target),
                             m1.form + m2.form)

    def parallel(self, m1: TildeMorphism, m2: TildeMorphism) -> bool:
        """Same endpoints and data agreeing modulo exact data."""
        if not (self.theory.eq(m1.source, m2.source)
                and self.theory.eq(m1.target, m2.target)):
            return False
        return is_coboundary(m1.form - m2.form)

    def automorphism_basis(self) -> list[Cochain]:
        """Characters spanning every arrow group's translations.

        No object enters: the basis is one and the same for all of them.
        """
        T = self.theory
        below = cohomology(T.carrier, T.degree - 1, INTEGERS)
        free = below.presentation.free_rank
        return [rational_form(g) for g in below.generators[:free]]


def build_tilde(X, n: int, model=None) -> TildeGroupoid:
    """The arrow-level refinement of the degree-n classes over X."""
    return TildeGroupoid(HatTheory(X, n, model))


# -- comparison functors ------------------------------------------------


@dataclass
class ModelComparison:
    """Functor data from one refinement to another.

    on_object maps classes, push_form transports rational data between
    the carriers, and cell(x, y) is the monoidal two-cell sitting over
    the pair, an arrow from the image of the sum to the sum of images'
    correction.  Arrows are carried by pushing their datum and absorbing
    the cell of the difference.
    """

    source: TildeGroupoid
    target: TildeGroupoid
    on_object: Callable[[HatClass], HatClass]
    push_form: Callable[[Cochain], Cochain]
    cell: Callable[[HatClass, HatClass], Cochain]
    label: str = "custom"

    def on_morphism(self, m: TildeMorphism) -> TildeMorphism:
        d = self.source.theory.sub(m.target, m.source)
        form = self.push_form(m.form) + self.cell(d, m.source)
        return TildeMorphism(self.on_object(m.source),
                             self.on_object(m.target), form)


def _zero_cell(target: TildeGroupoid) -> Callable[[HatClass, HatClass], Cochain]:
    T = target.theory
    return lambda x, y: Cochain.zero(T.carrier, T.degree - 1, RATIONALS)


def canonical_comparison(source: TildeGroupoid,
                         target: TildeGroupoid) -> ModelComparison:
    """The structure-respecting functor between two shipped models.

    Same kind: carry the data across.  Plain to sheared: translate the
    rational datum by the shear of the object's own cocycle, undoing the
    twist in the sheared character.  Plain to halved: push the datum
    onto the halved carrier.  No other direction has a canonical choice.
    """
    A, B = source.theory, target.theory
    if A.base is not B.base or A.degree != B.degree:
        raise ValueError("comparisons need one base and one degree")
    pair = (A.model.kind, B.model.kind)
    if pair[0] == pair[1]:
        push = lambda w: w
        on_object = lambda x: B.hat(x.obj, x.omega)
    elif pair == ("plain", "sheared"):
        push = lambda w: w
        base = A.base

        def on_object(x: HatClass) -> HatClass:
            z = rational_form(x.obj.integral())
            return B.hat(x.obj, x.omega - shear(base, z))
    elif pair == ("plain", "halved"):
        push = B.character.push
        on_object = lambda x: B.hat(x.obj, push(x.omega))
    else:
        raise ValueError(f"no canonical comparison from {pair[0]} to {pair[1]}")
    return ModelComparison(source, target, on_object, push,
                           _zero_cell(target), label=f"{pair[0]}->{pair[1]}")


def identity_comparison(tilde: TildeGroupoid) -> ModelComparison:
    return canonical_comparison(tilde, tilde)


def _coordinate_defect(theory: HatTheory, kind: str,
                       rho: Cochain) -> Callable[[HatClass, HatClass], Cochain]:
    # each shape corrupts exactly one coherence identity: any biadditive
    # bump satisfies the cocycle law, and only the constant one touches
    # the units
    need = {"units": 0, "cocycle": 1, "symmetry": 2}
    if kind not in need:
        raise ValueError(f"unknown defect kind {kind!r}")
    free = cohomology(theory.base, theory.degree, INTEGERS).presentation.free_rank
    if free < need[kind]:
        raise ValueError(
            f"a {kind} defect needs {need[kind]} free integral directions")

    def coord(x: HatClass, i: int) -> int:
        f, _ = theory.underlying_class(x)
        return int(f[i]) if i < len(f) else 0

    if kind == "units":
        return lambda x, y: rho
    if kind == "symmetry":
        return lambda x, y: rho.scale(
            coord(x, 0) * coord(y, 1) - coord(y, 0) * coord(x, 1))
    return lambda x, y: rho.scale((coord(x, 0) * coord(y, 0)) ** 2)


def with_cell_defect(comp: ModelComparison, kind: str) -> ModelComparison:
    """Same functor, monoidal cell corrupted in exactly one way.

    The bump is a character-valued function of the endpoints, so every
    arrow condition still holds and only the named coherence identity
    can notice.  Kinds: "cocycle", "symmetry", "units".
    """
    B = comp.target.theory
    below = cohomology(B.carrier, B.degree - 1, INTEGERS)
    if not below.presentation.free_rank:
        raise ValueError("no free character below; nothing to corrupt with")
    rho = rational_form(below.generators[0])
    bump = _coordinate_defect(comp.source.theory, kind, rho)
    cell = comp.cell
    return ModelComparison(comp.source, comp.target, comp.on_object,
                           comp.push_form,
                           lambda x, y: cell(x, y) + bump(x, y),
                           label=comp.label + f"+{kind}-defect")


# -- the equivalence certificate ----------------------------------------


def _objects_respected(comp: ModelComparison, rng: random.Random,
                       trials: int) -> Check:
    A, B = comp.source.theory, comp.target.theory

    def defect(_) -> dict | None:
        x = comp.source.random_object(rng)
        image = comp.on_object(x)
        if A.underlying_class(x) != B.underlying_class(image):
            return {"stage": "integral-class",
                    "source": [list(map(int, t)) for t in A.underlying_class(x)],
                    "image": [list(map(int, t)) for t in B.underlying_class(image)]}
        if B.curvature(image) != comp.push_form(A.curvature(x)):
            gap = B.curvature(image) - comp.push_form(A.curvature(x))
            return {"stage": "curvature", "gap": keyed_json(gap.values)}
        beta = _random_form(A, rng)
        c = B.compare(comp.on_object(A.from_form(beta)),
                      B.from_form(comp.push_form(beta)))
        if not c.equal:
            return {"stage": "forms", "obstruction": c.to_json()}
        return None

    return scan("objects-respected", range(trials), defect)


def _character_lattice(comp: ModelComparison) -> Check:
    # arrow groups are torsors under the character lattice, so the
    # functor is arrow-bijective exactly when the pushed lattice matches
    A, B = comp.source.theory, comp.target.theory
    n = A.degree
    below_s = cohomology(A.carrier, n - 1, INTEGERS)
    below_t = cohomology(B.carrier, n - 1, INTEGERS)
    bs = below_s.presentation.free_rank
    bt = below_t.presentation.free_rank
    cols: list[list[int]] = []
    flat = True
    for g in below_s.generators[:bs]:
        img = comp.push_form(rational_form(g))
        if any(v.denominator != 1 for v in img.values.values()):
            flat = False
            break
        if not B.eq(B.from_form(img), B.zero()):
            flat = False
            break
        free, _ = below_t.classify(img.map_values(int, INTEGERS))
        cols.append(list(map(int, free)))
    matrix = [list(row) for row in zip(*cols)] if cols else []
    sf = smith_normal_form(matrix) if matrix and matrix[0] else None
    iso = flat and bs == bt and (
        bs == 0 or (sf is not None and sf.rank == bt
                    and all(abs(d) == 1 for d in sf.diagonal[:sf.rank])))
    return Check("fully-faithful:lattice", iso, 1, witness={
        "rank": [bs, bt], "matrix": matrix,
        "diagonal": [] if sf is None else [int(d) for d in sf.diagonal]})


def _fully_faithful(comp: ModelComparison, rng: random.Random,
                    trials: int) -> list[Check]:
    src, tgt = comp.source, comp.target
    A = src.theory
    lattice = _character_lattice(comp)
    gens = cohomology(A.base, A.degree, INTEGERS).generators
    pairs = []
    for _ in range(trials):
        x = src.random_object(rng)
        y = A.add(x, A.from_form(_random_form(A, rng)))
        m = src.hom(x, y)
        if isinstance(m, CoboundaryObstruction):
            ok, entry = False, {"note": "arrow missing where classes agree"}
        else:
            ok = tgt.verify(comp.on_morphism(m)).equal
            entry = {"transported": ok}
        if gens:
            far = A.add(x, A.from_cocycle(gens[0]))
            agree = (isinstance(src.hom(x, far), CoboundaryObstruction)
                     and isinstance(tgt.hom(comp.on_object(x),
                                            comp.on_object(far)),
                                    CoboundaryObstruction))
            entry["empty-agrees"] = agree
            ok = ok and agree
        pairs.append((ok, entry))
    return [tally("fully-faithful", pairs), lattice]


def _essentially_surjective(comp: ModelComparison, rng: random.Random,
                            trials: int) -> Check:
    A, B = comp.source.theory, comp.target.theory
    rounds = []
    for _ in range(trials):
        u = comp.target.random_object(rng)
        x = A.hat(u.obj)  # theories share the groupoid, so the object transfers
        d = B.sub(u, comp.on_object(x))
        alpha = comp.target.lift(d)
        c = B.compare(B.add(comp.on_object(x), B.from_form(alpha)), u)
        entry = {"class": [list(map(int, t)) for t in B.underlying_class(u)]}
        if not c.equal:
            entry["obstruction"] = c.to_json()
        rounds.append((c.equal, entry))
    return tally("essentially-surjective", rounds)


def _monoidal_cells(comp: ModelComparison, rng: random.Random,
                    trials: int) -> list[Check]:
    src = comp.source
    A, B = src.theory, comp.target.theory
    arrows_ok = 0
    fails: dict[str, list] = {"cocycle": [], "symmetry": [], "units": []}

    def classes(*xs: HatClass) -> list:
        return [[list(map(int, t)) for t in A.underlying_class(x)] for x in xs]

    for _ in range(trials):
        x, y, z = (src.random_object(rng) for _ in range(3))
        gap = B.sub(comp.on_object(A.add(x, y)),
                    B.add(comp.on_object(x), comp.on_object(y)))
        if B.compare(B.from_form(comp.cell(x, y)), gap).equal:
            arrows_ok += 1
        coc = (comp.cell(x, A.add(y, z)) + comp.cell(y, z)
               - comp.cell(x, y) - comp.cell(A.add(x, y), z))
        if not is_coboundary(coc):
            fails["cocycle"].append({"triple": classes(x, y, z),
                                     "gap": keyed_json(coc.values)})
        sym = comp.cell(x, y) - comp.cell(y, x)
        if not is_coboundary(sym):
            fails["symmetry"].append({"pair": classes(x, y),
                                      "gap": keyed_json(sym.values)})
        zero = A.zero()
        for c in (comp.cell(x, zero), comp.cell(zero, x)):
            if not is_coboundary(c):
                fails["units"].append({"object": classes(x),
                                       "gap": keyed_json(c.values)})
    arrows = Check("monoidal-cells", arrows_ok == trials, trials,
                   witness={"arrows-verified": arrows_ok})
    return [arrows] + [
        Check(f"monoidal-cells:{name}", not bad, trials,
              {"failures": len(bad), **bad[0]} if bad else None)
        for name, bad in fails.items()]


def check_equivalence(comp: ModelComparison, *, seed: int = 0,
                      trials: int = 5) -> Report:
    """Certify the functor as a monoidal equivalence, or say where not.

    Object compatibilities come first; everything later leans on them,
    so when they fail the report holds that one check.  Then arrow
    bijectivity (one lattice unimodularity fact plus a transported
    witness per sampled pair), essential surjectivity (split a sampled
    target off the image up to a datum), and the coherence identities of
    the supplied cell, compared modulo exact data.

    The returned :class:`~simdiff.report.Report` has the functor's label
    as subject and ``{"models", "space", "degree"}`` as witness.  Its
    checks, all drawn from one generator, are ``objects-respected``,
    ``fully-faithful`` (the sampled pairs) with ``fully-faithful:lattice``
    (witness: the pushed lattice's ranks, matrix and Smith diagonal),
    ``essentially-surjective``, and ``monoidal-cells`` (the arrow
    condition) with one ``monoidal-cells:<identity>`` check per coherence
    identity, whose counterexample counts the failures and shows the first.
    """
    rng = random.Random(seed)
    A, B = comp.source.theory, comp.target.theory
    checks = [_objects_respected(comp, rng, trials)]
    if checks[0].ok:
        checks += _fully_faithful(comp, rng, trials)
        checks.append(_essentially_surjective(comp, rng, trials))
        checks += _monoidal_cells(comp, rng, trials)
    return Report(comp.label, trials, seed, checks, {
        "models": [A.model.kind, B.model.kind],
        "space": A.base.name, "degree": A.degree})


# -- the additivity cell ------------------------------------------------


class BObstruction:
    """Additivity defect of an object map, lifted to a monoidal cell.

    value(x, y) spans the class of on_object(x + y) minus the images'
    sum; it is well defined modulo characters, so every identity below
    is compared through the inclusion of forms.  An additive map yields
    the zero cell.
    """

    def __init__(self, source: TildeGroupoid, target: TildeGroupoid,
                 on_object: Callable[[HatClass], HatClass],
                 push_form: Callable[[Cochain], Cochain],
                 bump: Callable[[HatClass, HatClass], Cochain] | None = None):
        self.source = source
        self.target = target
        self.on_object = on_object
        self.push_form = push_form
        self._bump = bump
        self._values: dict = {}

    def value(self, x: HatClass, y: HatClass) -> Cochain:
        key = (x.obj, x.omega, y.obj, y.omega)
        if key not in self._values:
            A, B = self.source.theory, self.target.theory
            d = B.sub(self.on_object(A.add(x, y)),
                      B.add(self.on_object(x), self.on_object(y)))
            self._values[key] = self.target.lift(d)
        out = self._values[key]
        if self._bump is not None:
            out = out + self._bump(x, y)
        return out

    def as_cell(self) -> Callable[[HatClass, HatClass], Cochain]:
        """The cell in the shape ModelComparison wants."""
        return self.value

    def with_defect(self, kind: str,
                    rho: Cochain | None = None) -> "BObstruction":
        """Corrupt exactly one identity; see with_cell_defect.

        Here the bump must be visible modulo characters, so the default
        takes a third of a character rather than a whole one.
        """
        B = self.target.theory
        if rho is None:
            below = cohomology(B.carrier, B.degree - 1, INTEGERS)
            if not below.presentation.free_rank:
                raise ValueError("no free character below; nothing to corrupt with")
            rho = rational_form(below.generators[0]).map_values(
                lambda v: v / 3, RATIONALS)
        bump = _coordinate_defect(self.source.theory, kind, rho)
        return BObstruction(self.source, self.target, self.on_object,
                            self.push_form, bump=bump)

    def check_identities(self, *, seed: int = 0, trials: int = 8) -> Report:
        """Cocycle, symmetry, units, and translation, on seeded samples.

        One check per identity, whose counterexample counts its failing
        samples; the report's witness says whether any sampled cell was
        nonzero, that is, whether the identities were tested on more than
        the zero cell.
        """
        rng = random.Random(seed)
        A, B = self.source.theory, self.target.theory
        fails = {"cocycle": 0, "symmetry": 0, "units": 0, "translation": 0}
        nonzero_seen = False
        for _ in range(trials):
            x, y, z = (self.source.random_object(rng) for _ in range(3))
            beta = _random_form(A, rng)
            lhs = self.value(x, A.add(y, z)) + self.value(y, z)
            rhs = self.value(x, y) + self.value(A.add(x, y), z)
            if not B.eq(B.from_form(lhs), B.from_form(rhs)):
                fails["cocycle"] += 1
            bxy = self.value(x, y)
            if not B.eq(B.from_form(bxy), B.from_form(self.value(y, x))):
                fails["symmetry"] += 1
            if not (B.eq(B.from_form(self.value(x, A.zero())), B.zero())
                    and B.eq(B.from_form(self.value(A.zero(), x)), B.zero())):
                fails["units"] += 1
            moved = self.on_object(A.add(x, A.from_form(beta)))
            step = B.add(self.on_object(x),
                         B.from_form(self.push_form(beta)))
            if not B.eq(moved, step):
                fails["translation"] += 1
            if not nonzero_seen and not B.eq(B.from_form(bxy), B.zero()):
                nonzero_seen = True
        return Report("additivity-cell", trials, seed,
                      [Check(k, v == 0, trials, {"failures": v} if v else None)
                       for k, v in fails.items()],
                      {"cell_seen_nonzero": nonzero_seen})


def derive_B(source: TildeGroupoid, target: TildeGroupoid,
             on_object: Callable[[HatClass], HatClass], *,
             push_form: Callable[[Cochain], Cochain] | None = None) -> BObstruction:
    """Lift the additivity defect of a class-preserving object map.

    The map must leave the integral class alone, or the defect has no
    spanning datum; that is probed on three samples up front and raises
    rather than reporting.
    """
    push = push_form if push_form is not None else (lambda w: w)
    A, B = source.theory, target.theory
    rng = random.Random(97)  # the precondition is structural, not statistical
    for _ in range(3):
        x = source.random_object(rng)
        if A.underlying_class(x) != B.underlying_class(on_object(x)):
            raise ValueError("map moves the integral class; the defect has no lift")
    return BObstruction(source, target, on_object, push)
