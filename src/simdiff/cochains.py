"""Normalized cochains with exact coefficients.

Cochains are finitely supported maps on the nondegenerate generators of one
dimension; degenerate simplices evaluate to zero.  Coefficients are the
integers, the rationals (standing in for real forms), or integers mod k.

Real coefficients are modeled by exact rationals throughout, which is what
makes every identity in the test suite hold with zero tolerance.

Values are normalized where they enter: the public Cochain constructor
checks degrees and normalizes user dicts, JSON, random and vector input.
The kernel operations (coboundary, pullback, fiber_integrate, +, -) read
index tables compiled once per complex, degree and map, and build their
results with Cochain._trusted: the keys come from those tables and the
values are already in the ring, so it only reduces mod k and drops zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Hashable, Mapping

from .complexes import (ProductWithSimplex, Simplex, SimplicialMap, SimplicialSet,
                        json_int, key_str)


@dataclass(frozen=True)
class Coefficients:
    """Coefficient system: Z, Q or Z/k; zero is the ring's own zero."""

    kind: str
    modulus: int = 0
    zero: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zmod"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "Zmod" and self.modulus < 2:
            raise ValueError("Zmod needs modulus >= 2")
        object.__setattr__(self, "zero", Fraction(0) if self.kind == "Q" else 0)

    @property
    def exact_field(self) -> bool:
        return self.kind == "Q"

    def normalize(self, v) -> Any:
        if self.kind == "Q":
            return Fraction(v)
        if self.kind == "Zmod":
            return int(v) % self.modulus
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValueError(f"non-integer value {v} for Z coefficients")
            return v.numerator
        return int(v)

    def label(self) -> str:
        return f"Z/{self.modulus}" if self.kind == "Zmod" else self.kind


INTEGERS = Coefficients("Z")
RATIONALS = Coefficients("Q")


def mod_coefficients(k: int) -> Coefficients:
    return Coefficients("Zmod", modulus=k)


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


class Cochain:
    """A sparse normalized cochain of one degree on one complex."""

    __slots__ = ("complex", "degree", "coeffs", "values")

    def __init__(self, complex: SimplicialSet, degree: int, coeffs: Coefficients,
                 values: Mapping[Hashable, Any] | None = None):
        self.complex = complex
        self.degree = degree
        self.coeffs = coeffs
        vals: dict[Hashable, Any] = {}
        for gen, v in (values or {}).items():
            if complex.gen_dim(gen) != degree:
                raise ValueError(
                    f"value on {gen!r} of dim {complex.gen_dim(gen)} in degree {degree}")
            v = coeffs.normalize(v)
            if v:
                vals[gen] = v
        self.values = vals

    @classmethod
    def _trusted(cls, complex: SimplicialSet, degree: int, coeffs: Coefficients,
                 values: dict[Hashable, Any]) -> "Cochain":
        """A kernel result: keys are degree-`degree` generators of complex and
        values are already in the ring, so only reduce mod k and drop zeros."""
        c = cls.__new__(cls)
        c.complex = complex
        c.degree = degree
        c.coeffs = coeffs
        k = coeffs.modulus
        if k:
            c.values = {g: r for g, v in values.items() if (r := v % k)}
        else:
            c.values = {g: v for g, v in values.items() if v}
        return c

    # -- basics ------------------------------------------------------------

    @classmethod
    def zero(cls, X: SimplicialSet, degree: int, coeffs: Coefficients) -> "Cochain":
        return cls(X, degree, coeffs)

    @classmethod
    def indicator(cls, X: SimplicialSet, gen: Hashable, coeffs: Coefficients,
                  value=1) -> "Cochain":
        return cls(X, X.gen_dim(gen), coeffs, {gen: value})

    def eval(self, s: Simplex):
        if s.word:
            return self.coeffs.zero
        return self.values.get(s.gen, self.coeffs.zero)

    def is_zero(self) -> bool:
        return not self.values

    def support(self) -> list[Hashable]:
        return sorted(self.values, key=self.complex.gen_index(self.degree).__getitem__)

    def _compatible(self, other: "Cochain") -> None:
        if (self.complex is not other.complex or self.degree != other.degree
                or self.coeffs != other.coeffs):
            raise ValueError("cochains live on different complexes, degrees, or coefficients")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        vals = dict(self.values)
        for g, v in other.values.items():
            vals[g] = vals.get(g, 0) + v
        return Cochain._trusted(self.complex, self.degree, self.coeffs, vals)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def __neg__(self) -> "Cochain":
        return Cochain._trusted(self.complex, self.degree, self.coeffs,
                                {g: -v for g, v in self.values.items()})

    def scale(self, c) -> "Cochain":
        return Cochain(self.complex, self.degree, self.coeffs,
                       {g: v * c for g, v in self.values.items()})

    def map_values(self, fn, coeffs: Coefficients) -> "Cochain":
        """Apply a coefficient map (e.g. the rational embedding) valuewise."""
        return Cochain(self.complex, self.degree, coeffs,
                       {g: fn(v) for g, v in self.values.items()})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Cochain) and self.complex is other.complex
                and self.degree == other.degree and self.coeffs == other.coeffs
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.complex), self.degree,
                     tuple(sorted(((key_str(g), v) for g, v in self.values.items())))))

    def __repr__(self):
        n = len(self.values)
        return (f"<Cochain deg {self.degree} on {self.complex.name}"
                f" ({self.coeffs.label()}), {n} nonzero>")


def delta_table(X: SimplicialSet, n: int) -> tuple[tuple[Hashable, tuple], ...]:
    """The sparse coboundary C^n -> C^{n+1} of X, built once and cached.

    One row (gen, ((face_gen, coefficient), ...)) per (n+1)-generator, in
    generator order; degenerate faces are dropped and repeated faces merged
    into one coefficient (rows may come out empty).
    """
    token = ("delta_table", n)
    if token not in X._cache:
        rows = []
        for gen in X.generators(n + 1):
            s = Simplex(gen)
            row: dict[Hashable, int] = {}
            for i in range(n + 2):
                f = X.face(s, i)
                if not f.word:
                    row[f.gen] = row.get(f.gen, 0) + (-1 if i % 2 else 1)
            rows.append((gen, tuple((g, a) for g, a in row.items() if a)))
        X._cache[token] = tuple(rows)
    return X._cache[token]


def coboundary(c: Cochain) -> Cochain:
    """Alternating sum over faces, degree raised by one; delta delta = 0."""
    get = c.values.get
    out: dict[Hashable, Any] = {}
    for gen, row in delta_table(c.complex, c.degree):
        total = 0
        for g, a in row:
            v = get(g)
            if v is not None:
                total += a * v
        if total:
            out[gen] = total
    return Cochain._trusted(c.complex, c.degree + 1, c.coeffs, out)


def pullback(f: SimplicialMap, c: Cochain) -> Cochain:
    """f^# c; normalization kills images that got degenerate."""
    if c.complex is not f.target:
        raise ValueError("cochain does not live on the target of the map")
    vals = c.values
    return Cochain._trusted(f.source, c.degree, c.coeffs,
                            {g: vals[t] for g, t in f.pullback_table(c.degree) if t in vals})


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
    X = cyl.base
    out: dict[Hashable, Any] = {}
    for gen in X.generators(z.degree - k):
        total = 0
        for sign, cell in cyl.decomposition[gen]:
            v = z.values.get(cell)
            if v:
                total = total + v if sign > 0 else total - v
        if total:
            out[gen] = total
    return Cochain._trusted(X, z.degree - k, z.coeffs, out)


def random_cochain(X: SimplicialSet, degree: int, coeffs: Coefficients, rng,
                   low: int = -4, high: int = 4, density: float = 0.7) -> Cochain:
    vals = {}
    for gen in X.generators(degree):
        if rng.random() < density:
            vals[gen] = rng.randint(low, high)
    return Cochain(X, degree, coeffs, vals)


# -- JSON ------------------------------------------------------------------


def cochain_to_json(c: Cochain) -> dict:
    return {
        "complex": c.complex.name,
        "degree": c.degree,
        "coefficients": c.coeffs.label(),
        "values": [{"id": key_str(g), "value": str(c.values[g])}
                   for g in c.support()],
    }


def cochain_from_json(X: SimplicialSet, data: dict) -> Cochain:
    try:
        coeffs = parse_coefficients(data.get("coefficients", "Q"))
        valstr = {v["id"]: Fraction(v["value"]) for v in data.get("values", ())}
        degree = json_int(data["degree"])
    except (KeyError, TypeError, AttributeError, OverflowError,
            ZeroDivisionError) as e:
        raise ValueError(f"malformed cochain JSON: {e!r}") from None
    ids = {key_str(g): g for g in X.generators()}
    try:
        vals = {ids[i]: v for i, v in valstr.items()}
    except KeyError as e:
        raise ValueError(f"cochain references unknown generator {e}") from None
    return Cochain(X, degree, coeffs, vals)
