"""The three benchmark workloads and their independent answer checks.

Each workload is a closed loop over seeded ops.  ``make_input(i)`` derives
op i's inputs from the workload seed alone, so the same seed gives the same
ops; ``run`` is the only call that is timed; ``check`` re-verifies the
answer without trusting the code that produced it and returns a failure
reason, or None.  Op -1 is the untimed warm-up op of set-up.

Why these three (each later optimisation needs one workload where its layer
does most of the work and one where it does little):

* hat-compare: ``HatTheory(torus, 1).compare`` uses exact linear algebra
  (L0) as "one matrix, many right-hand sides": ``homotopies`` refactors the
  same 351x81 system for every new (source, target) pair, and about 90% of
  an op is Smith form.  A factor-once linear system should show its gain
  here.
* coherence-battery: ``check_coherence`` on the mapping groupoid of a
  12-vertex circle spends its time in the cochain calculus (L1: pullback,
  coboundary) and the groupoid operations (L2); Smith form time is
  negligible.  A compiled cochain kernel should show its gain here and a
  linear-algebra change none.  A torus base costs about 5.6 s per op, which
  leaves too few samples.
* cohomology-fresh: a fresh relabelled surface times an interval per op,
  all of its cohomology over Z and Q.  L0 is used the other way from
  hat-compare: many distinct matrices and a new complex object per op, so
  no cache keyed by complex can hit across ops, and L1/L2 are idle.  (The
  Q groups refactor the Z groups' matrices within an op, which the traced
  run shows as its SNF repeat share.)  Sparse elimination should show its
  gain here; a factor-once system should barely touch it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from simdiff import cochains, cohomology, complexes, diffhat, groupoid, moncat
from simdiff.cochains import INTEGERS, RATIONALS, Cochain
from simdiff.complexes import key_str


def cochain_key(c: Cochain) -> list:
    """Canonical JSON-ready form of a cochain's values."""
    return sorted([key_str(g), str(v)] for g, v in c.values.items())


def generators_per_degree(X) -> list[int]:
    return [len(X.generators(d)) for d in range(X.top_dim + 1)]


# -- hat-compare ---------------------------------------------------------------


@dataclass(frozen=True)
class HatPair:
    x: diffhat.HatClass
    y: diffhat.HatClass
    truth: bool
    kind: str


class HatCompare:
    """One op is one ``HatTheory(torus, 1).compare(x, y)`` on a seeded pair.

    With m a random morphism out of x's object and c its character, even
    ops build y = hat(m.target, omega - c), equal to x by construction.  Odd
    ops are unequal: y = hat(m.target, omega + c) when c is not constant,
    else y = hat(m.target, omega - c + q) for a non-integral constant q.
    Any homotopy between the objects has character c plus the character of
    a self-loop, and on the connected torus in degree 1 those are the
    integer constants; so the first needs 2c constant and the second q
    integral, and neither holds.
    """

    name = "hat-compare"
    why = ("HatTheory(torus, 1).compare on seeded pairs, half equal: Smith form "
           "dominates and one 351x81 system is refactored for every pair")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        X = complexes.torus()
        for k in (1, 2):
            complexes.cylinder(X, k)
        self.theory = diffhat.HatTheory(X, 1)
        carrier = self.theory.carrier
        self.ones = Cochain(carrier, 0, RATIONALS,
                            {g: 1 for g in carrier.generators(0)})

    def make_input(self, i: int) -> HatPair:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        T = self.theory
        G = T.groupoid
        obj = G.random_object(rng)
        omega = cochains.random_cochain(T.carrier, 0, RATIONALS, rng).scale(
            Fraction(1, rng.choice((1, 2, 3, 4))))
        m = G.random_morphism(obj, rng)
        c = T.character.on_morphism(m)
        x = T.hat(obj, omega)
        if i % 2 == 0:
            return HatPair(x, T.hat(m.target, omega - c), True, "equal")
        values = {c.values.get(g, 0) for g in T.carrier.generators(0)}
        if len(values) > 1 and rng.random() < 0.5:
            return HatPair(x, T.hat(m.target, omega + c), False, "unequal-plus")
        d = rng.choice((2, 3, 5))
        q = Fraction(d * rng.randint(-3, 3) + rng.randint(1, d - 1), d)
        return HatPair(x, T.hat(m.target, omega - c + self.ones.scale(q)),
                       False, "unequal-period")

    def run(self, p: HatPair) -> diffhat.HatComparison:
        return self.theory.compare(p.x, p.y)

    def check(self, p: HatPair, comp: diffhat.HatComparison) -> str | None:
        if comp.equal != p.truth:
            return f"decided equal={comp.equal} on a {p.kind} pair"
        ob = comp.obstruction
        if not comp.equal and not isinstance(ob, diffhat.PeriodObstruction):
            return "homotopic objects were declared non-homotopic"
        T = self.theory
        try:
            h = groupoid.HomotopyClass(groupoid.Homotopy2(p.x.obj, p.y.obj, comp.homotopy))
        except ValueError as e:
            return f"returned homotopy is invalid: {e}"
        difference = p.x.omega - p.y.omega
        if comp.equal:
            lhs = T.character.on_morphism(h)
            if comp.shift is not None:
                lhs = lhs + cochains.coboundary(comp.shift)
            return None if lhs == difference else "witness fails its literal check"
        if not ob.refutes(difference - T.character.on_morphism(h)):
            return "period obstruction does not refute the difference"
        # self-loop characters are the integer constants (see class docstring),
        # so the functional must pair with them to zero (Q) or integrally (Z)
        period = ob.pairing(self.ones)
        blind = period == 0 if ob.ring == "Q" else period.denominator == 1
        return None if blind else "period obstruction is not blind to self-loops"

    def input_key(self, p: HatPair) -> list:
        return [cochain_key(p.x.obj.data), cochain_key(p.x.omega),
                cochain_key(p.y.obj.data), cochain_key(p.y.omega), p.kind]

    def answer_key(self, p: HatPair, comp: diffhat.HatComparison) -> dict:
        return comp.to_json()

    def label(self, p: HatPair) -> str:
        return p.kind

    def size(self) -> dict:
        X = self.theory.base
        return {"generators_per_degree": {
            "torus": generators_per_degree(X),
            "torus x D1": generators_per_degree(complexes.cylinder(X, 1).complex),
            "torus x D2": generators_per_degree(complexes.cylinder(X, 2).complex)}}


# -- coherence-battery -----------------------------------------------------------


class CoherenceBattery:
    """One op is one trial of every symmetric monoidal axiom.

    ``check_coherence(MappingGroupoid(circle(12), Z, 1, perturb=Random(s))
    .as_instance(), trials=1, seed=s)`` over distinct seeds s.  Every axiom
    holds in this model, so each report must be ok with every axiom checked.
    """

    name = "coherence-battery"
    why = ("check_coherence on the circle(12) mapping groupoid, distinct seeds: "
           "pullback and coboundary dominate, Smith form is negligible")
    AXIOMS = ("pentagon", "triangle", "hexagon", "braid-involutive",
              "naturality-associator", "naturality-left-unitor",
              "naturality-right-unitor", "naturality-braid")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.base = complexes.circle(12)
        for k in (1, 2, 3):
            complexes.cylinder(self.base, k)

    def make_input(self, i: int) -> int:
        return self.seed * 1_000_003 + i + 1

    def run(self, s: int) -> moncat.CoherenceReport:
        G = groupoid.MappingGroupoid(self.base, INTEGERS, 1, perturb=random.Random(s))
        return moncat.check_coherence(G.as_instance(), trials=1, seed=s)

    def check(self, s: int, report: moncat.CoherenceReport) -> str | None:
        bad = [r.axiom for r in report.results if not r.ok]
        if bad:
            return f"axioms failed: {', '.join(bad)}"
        if tuple(r.axiom for r in report.results) != self.AXIOMS:
            return "report does not cover every axiom"
        if any(r.checked != 1 for r in report.results):
            return "an axiom was not checked exactly once"
        return None

    def input_key(self, s: int) -> int:
        return s

    def answer_key(self, s: int, report: moncat.CoherenceReport) -> dict:
        return report.to_json()

    def label(self, s: int) -> str:
        return "battery"

    def size(self) -> dict:
        return {"generators_per_degree": {
            "circle12": generators_per_degree(self.base),
            **{f"circle12 x D{k}": generators_per_degree(
                complexes.cylinder(self.base, k).complex) for k in (1, 2, 3)}}}


# -- cohomology-fresh -------------------------------------------------------------

TORUS7_TRIANGLES = ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                    + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])

# (facets, vertex count, H^n(S x D1; Z) for n = 0..3)
SURFACES = {
    "rp2": (complexes.RP2_TRIANGLES, 6, ("Z", "0", "Z/2", "0")),
    "torus7": (TORUS7_TRIANGLES, 7, ("Z", "Z^2", "Z", "0")),
}


@dataclass(frozen=True)
class Relabelled:
    surface: str
    facets: tuple


class CohomologyFresh:
    """One op: a freshly built surface x D1, cohomology over Z and Q in every degree.

    Every third op takes the 6-vertex RP2, the others the 7-vertex torus,
    each under a seeded vertex relabelling.  An uneven mix keeps the median
    latency inside one mode (a torus op) instead of between the two.  Every
    op builds a new complex object, so no cache keyed by complex can hit
    across ops; the relabelling also makes most ops' matrices differ in
    content from earlier ops'.
    """

    name = "cohomology-fresh"
    why = ("Z and Q cohomology of a fresh relabelled RP2 or 7-vertex torus x D1 "
           "per op: many distinct matrices, no cache keyed by complex can hit")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.reference = {}
        self.sizes = {}
        for name, (facets, _, expected) in SURFACES.items():
            P = complexes.cylinder(complexes.from_facets(name, facets), 1).complex
            ref = tuple(cohomology.cohomology(P, n, INTEGERS).presentation
                        for n in range(P.top_dim + 1))
            if tuple(map(str, ref)) != expected:
                raise RuntimeError(f"{name} x D1 has cohomology {ref}, expected {expected}")
            self.reference[name] = ref
            self.sizes[f"{name} x D1"] = generators_per_degree(P)

    def make_input(self, i: int) -> Relabelled:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        name = "rp2" if i % 3 == 0 else "torus7"
        facets, nv, _ = SURFACES[name]
        # labels of 1 to 4 digits, so that both the numeric vertex order and
        # the string order of generator keys vary: a plain permutation of
        # 0..5 gives RP2 only 12 distinct ordered complexes
        labels: list[int] = []
        while len(labels) < nv:
            v = rng.randrange(10 ** rng.randint(1, 4))
            if v not in labels:
                labels.append(v)
        return Relabelled(name, tuple(tuple(labels[v] for v in f) for f in facets))

    def run(self, r: Relabelled):
        X = complexes.from_facets(f"{r.surface}-relabelled", r.facets)
        P = complexes.cylinder(X, 1).complex
        return P, [(cohomology.cohomology(P, n, INTEGERS).presentation,
                    cohomology.cohomology(P, n, RATIONALS).presentation)
                   for n in range(P.top_dim + 1)]

    def check(self, r: Relabelled, answer) -> str | None:
        P, groups = answer
        chi = sum((-1) ** n * q.free_rank for n, (_, q) in enumerate(groups))
        if chi != P.euler_characteristic():
            return f"rational Euler characteristic {chi} != {P.euler_characteristic()}"
        if any(z.free_rank != q.free_rank for z, q in groups):
            return "Z free rank differs from Q rank"
        if tuple(z for z, _ in groups) != self.reference[r.surface]:
            return "presentation differs from the unrelabelled surface"
        return None

    def input_key(self, r: Relabelled) -> list:
        return [r.surface, [list(f) for f in r.facets]]

    def answer_key(self, r: Relabelled, answer) -> list:
        return [[str(z), str(q)] for z, q in answer[1]]

    def label(self, r: Relabelled) -> str:
        return r.surface

    def size(self) -> dict:
        return {"generators_per_degree": self.sizes}


WORKLOADS = {w.name: w for w in (HatCompare, CoherenceBattery, CohomologyFresh)}
