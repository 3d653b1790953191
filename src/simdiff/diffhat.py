"""Refined classes: groupoid objects carrying rational antiderivative data.

A refined class pairs an object of the integral mapping groupoid with a
rational cochain one degree down on the character model's carrier.  Two
pairs are identified when some homotopy between the objects has character
equal to the difference of the rational parts modulo rational
coboundaries.  That relation is decided exactly: equality comes with a
homotopy and a rational primitive that reproduce the difference
literally, inequality with a functional whose pairing refutes every
candidate at once.  The candidates are one homotopy plus the relative
section (em.relative_section) of an integer combination of the cocycle
basis W of the base one degree down.  A section integrates back to its
cocycle exactly, so the candidates' characters differ by the pushes of W:
the periods are read off the base, with no fiber integration.

Curvature, the underlying integral class, and the inclusion of rational
cochains are the three transformations out of the resulting group; their
kernels and images interlock, and exactness_certificate checks each
containment on seeded samples with the witnesses spelled out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .character import CharacterModel, cell_with_integral, rational_form
from .cochains import (
    Cochain,
    INTEGERS,
    RATIONALS,
    coboundary,
    fiber_integrate,
    is_closed,
    random_cochain,
)
from .cohomology import (
    CoboundaryObstruction,
    GroupPresentation,
    cohomology,
    cochain_of,
    delta_system,
    kept_rows,
    keyed_json,
    solve_coboundary,
)
from .complexes import SimplicialSet, cached_on, cylinder, derived
from .em import relative_section
from .exact import Obstruction, System, blind, compile_rows, replay_units
from .groupoid import HomotopyClass, Homotopy2, MapObject, MappingGroupoid
from .report import Check, Report, tally


@dataclass(frozen=True, eq=False)
class HatClass:
    """One representative: a groupoid object plus a rational datum.

    The rational part lives on the theory's carrier in degree n - 1 and
    is not an invariant by itself; use HatTheory.eq or compare to relate
    representatives.
    """

    theory: "HatTheory"
    obj: MapObject
    omega: Cochain

    @property
    def degree(self) -> int:
        return self.theory.degree

    def __repr__(self):
        return (f"HatClass(deg {self.degree} over {self.theory.base.name}, "
                f"|omega|={len(self.omega.values)})")


@dataclass
class PeriodObstruction(CoboundaryObstruction):
    """A functional on carrier cochains separating two refined classes.

    It is blind on rational coboundaries and on the character of every
    homotopy between the endpoints, and refutes the required difference of
    rational parts; value records that pairing.
    """

    value: Fraction

    def to_json(self) -> dict:
        return {**super().to_json(), "value": str(self.value)}


@dataclass
class HatComparison:
    """Decision record for one equality question.

    When equal, homotopy is level-2 data between the two objects and
    shift a rational primitive with

        character(homotopy) + delta(shift) = omega_left - omega_right

    holding literally (shift is None when nothing needs absorbing).
    When unequal, obstruction separates the classes: the one refuting a
    homotopy if the objects are not even homotopic ("classes" in JSON), a
    PeriodObstruction otherwise ("period").
    """

    equal: bool
    homotopy: Cochain | None = None
    shift: Cochain | None = None
    obstruction: CoboundaryObstruction | None = None

    def to_json(self) -> dict:
        out: dict = {"equal": self.equal}
        if self.homotopy is not None:
            out["homotopy_support"] = len(self.homotopy.values)
        if self.shift is not None:
            out["shift"] = keyed_json(self.shift.values)
        if self.obstruction is not None:
            key = "period" if isinstance(self.obstruction, PeriodObstruction) else "classes"
            out[key] = self.obstruction.to_json()
        return out


class HatTheory:
    """Refined degree-n classes over one base, in one character model.

    Degree zero is excluded: with no rational datum below it, that group
    is just the integral 0-cocycles (see hat_group).  All arithmetic is
    exact, and the equality solver covers every homotopy between two
    objects at once: one particular homotopy plus the relative section of
    an integer combination of the cocycles one degree down, whose periods
    it solves for, so decisions are complete rather than sampled.
    """

    def __init__(self, X: SimplicialSet, n: int,
                 model: CharacterModel | None = None):
        if n < 1:
            raise ValueError("refined classes start in degree one")
        self.base = X
        self.degree = n
        self.model = model or CharacterModel("plain")
        # theories over one base share the groupoid, so their objects are
        # interchangeable and cross-model functors need no translation
        self.groupoid = cached_on(X, ("hat-groupoid", n), MappingGroupoid, X, INTEGERS, n)
        self.character = self.model.character(self.groupoid)
        self.carrier = self.character.carrier

    # -- representatives ----------------------------------------------

    def hat(self, obj: MapObject, omega: Cochain | None = None) -> HatClass:
        if obj.groupoid is not self.groupoid:
            raise ValueError("object belongs to a different groupoid")
        if omega is None:
            omega = Cochain.zero(self.carrier, self.degree - 1, RATIONALS)
        else:
            omega = rational_form(omega)
            if omega.complex is not self.carrier or omega.degree != self.degree - 1:
                raise ValueError(
                    f"rational datum must sit on the carrier in degree {self.degree - 1}")
        return HatClass(self, obj, omega)

    def zero(self) -> HatClass:
        return self.hat(self.groupoid.unit())

    def from_cocycle(self, w: Cochain, omega: Cochain | None = None) -> HatClass:
        return self.hat(self.groupoid.from_cocycle(w), omega)

    def from_form(self, alpha: Cochain) -> HatClass:
        """Refine the trivial object by a rational datum."""
        return self.hat(self.groupoid.unit(), alpha)

    # -- transformations out of the group -----------------------------

    def curvature(self, x: HatClass) -> Cochain:
        """Closed rational degree-n cochain, equal on equal classes."""
        return self.character.on_object(x.obj) + coboundary(x.omega)

    def underlying_class(self, x: HatClass) -> tuple[tuple, tuple]:
        """(free, torsion) coordinates of the object's integral class."""
        H = cohomology(self.base, self.degree, INTEGERS)
        return H.classify(x.obj.integral())

    # -- abelian structure --------------------------------------------

    def add(self, x: HatClass, y: HatClass) -> HatClass:
        s, _ = self.groupoid.oplus_objects(x.obj, y.obj)
        defect = (self.character.on_object(s)
                  - self.character.on_object(x.obj)
                  - self.character.on_object(y.obj))
        if not defect.is_zero():
            # the sum witness would have to correct omega; this groupoid
            # never produces one with nonzero character
            raise ArithmeticError("sum object breaks strict character additivity")
        return self.hat(s, x.omega + y.omega)

    def neg(self, x: HatClass) -> HatClass:
        return self.hat(self.groupoid.object(-x.obj.data), -x.omega)

    def sub(self, x: HatClass, y: HatClass) -> HatClass:
        return self.add(x, self.neg(y))

    def times(self, k: int, x: HatClass) -> HatClass:
        if k < 0:
            return self.neg(self.times(-k, x))
        out = self.zero()
        for _ in range(k):
            out = self.add(out, x)
        return out

    # -- the equality solver ------------------------------------------

    def homotopies(self, src: MapObject,
                   tgt: MapObject) -> Cochain | CoboundaryObstruction:
        """One level-2 filler from src to tgt, or what separates them
        (MappingGroupoid.homotopy)."""
        return self.groupoid.homotopy(src, tgt)

    def lift(self, x: HatClass) -> Cochain | CoboundaryObstruction:
        """A rational datum whose inclusion is x: the character of a homotopy
        from the unit to x's object, or what separates the two."""
        unit = self.groupoid.unit()
        sol = self.homotopies(unit, x.obj)
        if isinstance(sol, CoboundaryObstruction):
            return sol
        connect = HomotopyClass(Homotopy2(unit, x.obj, sol))
        return x.omega + self.character.on_morphism(connect)

    @cached_property
    def _cocycles(self) -> list[list[int]]:
        """W, the integral cocycle basis of the base one degree down, as
        the vectors the cached delta_system lists."""
        return delta_system(self.base, self.degree - 1).kernel

    @cached_property
    def _quotient_functionals(self) -> list[dict[int, int]]:
        """Sparse integer rows spanning the annihilator of rational
        coboundaries in carrier degree n - 1: the rows delta_system(C, n -
        1) keeps and the rows of S past the rank of delta_system(C, n -
        2).form, on the rows it keeps (the clearing lemma in cohomology;
        exact.replay_units).  Unit rows below n = 2.  Built once per
        theory and read by _functional_rows and _period_obstruction.
        """
        n, C = self.degree, self.carrier
        if n < 2:
            return [{j: 1} for j in range(len(C.generators(n - 1)))]
        f = delta_system(C, n - 2).form
        kept = kept_rows(C, n - 2)
        past = replay_units(f.row_log, f.shape[0], f.rank, transpose=True) if f else []
        return ([row for row in delta_system(C, n - 1).matrix if row]
                + [{kept[i]: a for i, a in r.items()} for r in past])

    @cached_property
    def _functional_rows(self) -> list:
        """The quotient functionals, compiled by exact.compile_rows."""
        return compile_rows(self._quotient_functionals)

    def _character_column(self, B: Cochain) -> Cochain:
        cyl2 = cylinder(self.base, 2)
        return self.character.push(rational_form(fiber_integrate(B, cyl2)))

    @derived("periods")
    def _period_system(self) -> System:
        """Quotient functionals on the pushes of the cocycle basis W.

        The push of w is the character of relative_section(w), which
        integrates back to w exactly.  W is the same for every pair, so
        the matrix is factored once per theory.
        """
        X, n = self.base, self.degree
        cols = [tuple(map(int, self.character.push(cochain_of(X, n - 1, RATIONALS, w)).vec))
                for w in self._cocycles]
        M = [[sum(map(mul, a, read(col))) for col in cols]
             for read, a in self._functional_rows]
        return System(M, len(cols), INTEGERS)

    def compare(self, x: HatClass, y: HatClass) -> HatComparison:
        """Decide x = y with a literal witness or a refuting functional."""
        if x.theory is not self or y.theory is not self:
            raise ValueError("classes belong to a different theory")
        data = self.homotopies(x.obj, y.obj)
        if isinstance(data, CoboundaryObstruction):
            return HatComparison(False, obstruction=data)
        base = HomotopyClass(Homotopy2(x.obj, y.obj, data))
        mor0 = self.character.on_morphism(base)
        tvec = ((x.omega - y.omega) - mor0).vec
        v = [sum(map(mul, a, read(tvec))) for read, a in self._functional_rows]
        # with no cocycles below the periods must vanish; with some they
        # must be integer combinations of the cocycles' periods
        W = self._cocycles
        ring = "Z" if W else "Q"
        bad = next((j for j, val in enumerate(v) if not blind(val, ring)), None)
        got = None
        if bad is not None:
            got = Obstruction([Fraction(int(j == bad)) for j in range(len(v))], ring)
        elif W:
            got = self._period_system().solve([int(val) for val in v])
        if isinstance(got, Obstruction):
            return HatComparison(False, homotopy=data,
                                 obstruction=self._period_obstruction(got, v))
        coords = [] if got is None else [int(c) for c in got.x0]
        morH = mor0
        if any(coords):
            z = [sum(map(mul, coords, col)) for col in zip(*W)]
            data = data + relative_section(cochain_of(self.base, self.degree - 1, INTEGERS, z))
            morH = self.character.on_morphism(HomotopyClass(Homotopy2(x.obj, y.obj, data)))
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
        """The combination got.functional of the quotient functionals, as a
        functional on carrier generators, with its value on the periods v."""
        gens = self.carrier.generators(self.degree - 1)
        fun: dict = {}
        for yr, phi in zip(got.functional, self._quotient_functionals):
            if yr:
                for t, p in phi.items():
                    fun[gens[t]] = fun.get(gens[t], Fraction(0)) + yr * p
        value = sum((yr * val for yr, val in zip(got.functional, v) if yr), Fraction(0))
        return PeriodObstruction({g: val for g, val in fun.items() if val}, got.ring, value)

    def eq(self, x: HatClass, y: HatClass) -> bool:
        return self.compare(x, y).equal


def hat_group(X: SimplicialSet, n: int) -> GroupPresentation:
    """Presentation of the group of refined degree-n classes over X.

    The integral degree-n group splits off, joined by one circle factor
    per free class one degree down and a rational line per independent
    coboundary in degree n.  Degree zero carries no rational datum and is
    the integral 0-cocycles, free on the components of X.
    """
    if n == 0:
        return GroupPresentation(
            free_rank=cohomology(X, 0, INTEGERS).presentation.free_rank)
    top = cohomology(X, n, INTEGERS).presentation
    below = cohomology(X, n - 1, INTEGERS).presentation
    # rank of delta in degree n - 1, off the form the presentation of H^n
    # read
    D = delta_system(X, n - 1).form
    drank = D.rank if D is not None else 0
    return GroupPresentation(free_rank=top.free_rank, torsion=top.torsion,
                             divisible_rank=drank,
                             circle_rank=below.free_rank)


# -- the five exactness claims ------------------------------------------


def _random_form(T: HatTheory, rng: random.Random) -> Cochain:
    c = random_cochain(T.carrier, T.degree - 1, RATIONALS, rng)
    denom = rng.choice([1, 2, 3, 4])
    return c.map_values(lambda v: v / denom, RATIONALS)


def _claim_class_surjective(T: HatTheory) -> Check:
    H = cohomology(T.base, T.degree, INTEGERS)
    pres = H.presentation
    cases = []
    for j, gen in enumerate(H.generators):
        free, torsion = T.underlying_class(T.from_cocycle(gen))
        want_free = tuple(1 if i == j else 0 for i in range(pres.free_rank))
        want_tor = tuple(1 if pres.free_rank + i == j else 0
                         for i in range(len(pres.torsion)))
        cases.append(((tuple(free), tuple(torsion)) == (want_free, want_tor),
                      {"generator": j,
                       "class": [list(map(int, free)), list(map(int, torsion))]}))
    return tally("underlying-class-surjective", cases)


def _claim_kernel_class_is_forms(T: HatTheory, rng: random.Random,
                                 trials: int) -> Check:
    G, n = T.groupoid, T.degree
    rounds = []
    for _ in range(trials):
        q = random_cochain(T.base, n - 1, INTEGERS, rng)
        c = G.from_cocycle(coboundary(q))
        x = T.hat(c, _random_form(T, rng))
        free, torsion = T.underlying_class(x)
        in_kernel = not any(free) and not any(torsion)
        alpha = T.lift(x)
        if isinstance(alpha, CoboundaryObstruction):
            rounds.append((False, {"note": "coboundary object not null-homotopic"}))
            continue
        comp = T.compare(T.from_form(alpha), x)
        back = T.underlying_class(T.from_form(_random_form(T, rng)))
        forms_in_kernel = not any(back[0]) and not any(back[1])
        rounds.append((in_kernel and comp.equal and forms_in_kernel,
                       {"kernel_member": in_kernel,
                        "matched_by_form": comp.equal,
                        "forms_land_in_kernel": forms_in_kernel,
                        "comparison": comp.to_json()}))
    return tally("kernel-of-class-is-image-of-forms", rounds)


def _audit_period(T: HatTheory, obs: PeriodObstruction,
                  alpha: Cochain) -> Check:
    """Re-derive the functional's properties instead of trusting the solver.

    The functional must kill rational coboundaries, be blind on the
    character of every self-homotopy shift of the trivial object (up to
    shifts whose characters are coboundaries), and refute alpha itself.
    The shifts are re-derived from the cocycle basis one degree down, each
    by relative_section, fiber integration and the push, without reading
    the period system.  The returned check's witness records each property
    and the recomputed value.
    """
    n, X = T.degree, T.base
    lower = T.carrier.generators(n - 2) if n >= 2 else []
    kills = all(obs.pairing(coboundary(
        Cochain.indicator(T.carrier, g, RATIONALS))) == 0 for g in lower)
    col_vals = [obs.pairing(T._character_column(
        relative_section(cochain_of(X, n - 1, INTEGERS, w)))) for w in T._cocycles]
    # the zero cochain is a self-homotopy of the trivial object, and any
    # other one moves the pairing by a blind period: refute alpha itself
    value = obs.pairing(alpha)
    cols_ok = all(blind(v, obs.ring) for v in col_vals)
    separated = not blind(value, obs.ring)
    return Check("period-audit", kills and cols_ok and separated and value == obs.value,
                 1, witness={"kills_coboundaries": kills, "columns_ok": cols_ok,
                             "recomputed_value": str(value),
                             "matches_reported": value == obs.value})


def _claim_kernel_forms_is_characters(T: HatTheory, rng: random.Random,
                                      trials: int) -> Check:
    G, n, X = T.groupoid, T.degree, T.base
    below = cohomology(X, n - 1, INTEGERS)
    rounds = []
    for _ in range(trials):
        z = Cochain.zero(X, n - 1, INTEGERS)
        for gen in below.generators:
            z = z + gen.scale(rng.randint(-2, 2))
        if n >= 2:
            z = z + coboundary(random_cochain(X, n - 2, INTEGERS, rng))
        h = cell_with_integral(G, G.unit(), G.unit(), z)
        alpha = T.character.on_morphism(h)
        comp = T.compare(T.from_form(alpha), T.zero())
        rounds.append((comp.equal, {"character_support": len(alpha.values),
                                    "comparison": comp.to_json()}))
    return tally("kernel-of-forms-is-image-of-characters", rounds)


def _negative_forms_round(T: HatTheory) -> Check:
    """A rational datum outside the character image must stay nonzero."""
    name = "kernel-of-forms-is-image-of-characters:negative"
    n = T.degree
    below = cohomology(T.base, n - 1, INTEGERS)
    candidate = None
    kind = None
    if below.presentation.free_rank:
        half = rational_form(below.generators[0]).map_values(
            lambda v: v / 2, RATIONALS)
        candidate, kind = T.character.push(half), "half-integral-class"
    else:
        for g in T.carrier.generators(n - 1):
            ind = Cochain.indicator(T.carrier, g, RATIONALS, Fraction(1, 2))
            if not is_closed(ind):
                candidate, kind = ind, "non-closed"
                break
    if candidate is None:
        return Check(name, True, 0, witness={
            "note": "no rational datum lies outside the character image"})
    comp = T.compare(T.from_form(candidate), T.zero())
    ok = not comp.equal
    entry: dict = {"candidate": kind, "separated": ok,
                   "comparison": comp.to_json()}
    if isinstance(comp.obstruction, PeriodObstruction):
        audit = _audit_period(T, comp.obstruction, candidate)
        entry["audit"] = audit.to_json()
        ok = ok and audit.ok
    if kind == "non-closed":
        flat = T.curvature(T.from_form(candidate)).is_zero()
        entry["curvature_separates"] = not flat
        ok = ok and not flat
    return Check(name, ok, 1, witness=entry)


def _claim_curvature_of_forms(T: HatTheory, rng: random.Random,
                              trials: int) -> Check:
    rounds = []
    for _ in range(trials):
        alpha = _random_form(T, rng)
        ok = T.curvature(T.from_form(alpha)) == coboundary(alpha)
        rounds.append((ok, {"support": len(alpha.values)}))
    return tally("curvature-on-forms-is-coboundary", rounds)


def _claim_curvature_class_matches(T: HatTheory, rng: random.Random,
                                   trials: int) -> Check:
    G = T.groupoid
    rounds = []
    for _ in range(trials):
        x = T.hat(G.random_object(rng), _random_form(T, rng))
        diff = (T.curvature(x)
                - T.character.push(rational_form(x.obj.integral())))
        primitive = solve_coboundary(diff, RATIONALS)
        if isinstance(primitive, CoboundaryObstruction):
            rounds.append((False, {}))
        else:
            rounds.append((coboundary(primitive) == diff,
                           {"primitive_support": len(primitive.values)}))
    return tally("curvature-class-is-rational-class", rounds)


def exactness_certificate(X: SimplicialSet, n: int, trials: int = 3,
                          seed: int = 0,
                          model: CharacterModel | None = None) -> Report:
    """Check the five kernel/image claims for refined degree-n classes.

    Seeded rounds, all drawn from one generator, construct explicit
    witnesses and verify them literally.  The returned
    :class:`~simdiff.report.Report` has witness ``{"space", "degree",
    "model"}`` and one check per claim, in the order below, whose witness
    lists every round's data and comparison witness.  The negative round of
    the third claim is its own check, ``...:negative``, whose witness holds
    the refuted candidate and the from-scratch audit of the refuting
    period functional.
    """
    T = HatTheory(X, n, model)
    rng = random.Random(seed)
    return Report(f"exactness({X.name}, deg {n})", trials, seed, [
        _claim_class_surjective(T),
        _claim_kernel_class_is_forms(T, rng, trials),
        _claim_kernel_forms_is_characters(T, rng, trials),
        _negative_forms_round(T),
        _claim_curvature_of_forms(T, rng, trials),
        _claim_curvature_class_matches(T, rng, trials),
    ], {"space": X.name, "degree": n, "model": T.model.kind})
