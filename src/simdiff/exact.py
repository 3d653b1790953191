"""Exact linear algebra: one ring object and one factor-once System.

Coefficients is the ring: Z, Q or Z/k (INTEGERS, RATIONALS,
mod_coefficients(k)).  It depends on nothing, so it lives here, and
simdiff.cochains re-exports it.

Every linear question is one System(A, width, coeffs): A x = b in width
unknowns over coeffs, for many b.  It factors one integer matrix A',
once, as a Smith form D = S A' T: A itself over Z, the lift [A | k I]
over Z/k, and over Q, A with each row scaled to clear its denominators.
The first solve compiles S's rank rows (System.rank_rows) and A''s
sparse columns (System.columns).  Each solve(b) is then one integer
substitution, solve_int_snf: y = S b over the diagonal, x0 = T y, then
the test A' x0 = b.  Over Z/k solve_mod_snf, the one Z/k reduction, cuts
x0 to the unknowns mod k; over Q, b is scaled like A' first.  The kernel
basis (T's columns past the rank) is built only when System.kernel is
read, never by a solve.

The answer has two shapes, one per layer.  Here it is a Solution (one x0;
the others differ from it by System.kernel) or an Obstruction, a
functional that Obstruction.check re-verifies against System.matrix
without trusting the solver.  Its sense names what it refutes, not the
ring asked: a row of S over its invariant factor ("Z", and "Z/k" over
Z/k) or, read only when the test fails, the first row of S past the rank
that does not vanish on b ("Q").  blind() is the one definition of each
sense.  From the cochain layer up (simdiff.cohomology) the answer is the
solution cochain or a CoboundaryObstruction.

solve_int, solve_rational and solve_mod are System(A, width, ring).solve(b)
in one call.  They remain only as names the benchmark's tracer
(bench/tracing.py) wraps.  Everything is pure Python over int and
Fraction, so every certificate is exact.

The Smith form eliminates on D alone, held as sparse rows, and logs each
elementary row and column operation.  S, Sinv, T and Tinv are replayed
from those logs, each on its first read, as sparse rows or columns: none
is made dense, a presentation that reads only the diagonal builds none of
them, and a substitution touches only the nonzeros of those it reads.
Coboundary matrices hold a few nonzeros per row and almost every pivot is
+-1, so the work follows the nonzeros and their fill rather than the cube
of the matrix size.  The pivot order is the dense smallest-entry rule and
the replay applies the same operations in the same order, so the
transforms, and every cocycle and certificate read off them, are the ones
a dense elimination gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import floordiv, itemgetter, mul, ne
from typing import Any, Callable, Iterable, Mapping, Sequence


# -- the ring ----------------------------------------------------------------


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

    def normalize(self, v) -> Any:
        """v as an element of the ring, read through Fraction(v) unless it
        is an int over Z or Z/k.  A value Fraction cannot take (nan, inf,
        None, a non-number) raises ValueError for every ring; over Z and
        Z/k so does a fraction or a float with a fractional part."""
        if self.kind == "Q" or type(v) is not int:
            try:
                q = Fraction(v)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise ValueError(
                    f"{v!r} is not a value for {self.label()} coefficients") from None
            if self.kind == "Q":
                return q
            if q.denominator != 1:
                raise ValueError(f"non-integer value {v} for {self.label()} coefficients")
            v = q.numerator
        return v % self.modulus if self.modulus else v

    def label(self) -> str:
        return f"Z/{self.modulus}" if self.kind == "Zmod" else self.kind


INTEGERS = Coefficients("Z")
RATIONALS = Coefficients("Q")


def mod_coefficients(k: int) -> Coefficients:
    return Coefficients("Zmod", modulus=k)


# -- the Smith form ------------------------------------------------------------


Sparse = list[dict[int, int]]


def apply_rows(M: Sparse, v: Sequence) -> list:
    """M v for M held as sparse rows {column: entry}."""
    return [sum(a * v[t] for t, a in row.items()) for row in M]


def _reader(idx: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """v -> the tuple of v's entries at idx, by one C-level getter."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        p, = idx
        return lambda v: (v[p],)
    return lambda v: ()


def compile_rows(M: Iterable[Mapping[int, int]]) -> list[tuple[Callable, tuple[int, ...]]]:
    """Sparse rows {column: entry} as (read, entries) pairs, one per row.

    read(v) is the row's (index tuple) entries of v, so the row times v is
    sum(map(mul, entries, read(v))) with no Python loop over the row.
    """
    return [(_reader(tuple(row)), tuple(row.values())) for row in M]


def apply_cols(M: Sparse, y: Sequence, n: int) -> list:
    """M y for an n-row M held as sparse columns {row: entry}."""
    out = [0] * n
    for col, w in zip(M, y):
        if w:
            for t, a in col.items():
                out[t] += a * w
    return out


def _axpy(dst: dict[int, int], src: Mapping[int, int], q: int) -> None:
    """dst += q * src, dropping the entries that cancel."""
    for t, v in src.items():
        w = dst.get(t, 0) + q * v
        if w:
            dst[t] = w
        else:
            del dst[t]


def _replay(n: int, log: Sequence[tuple], inverse: bool) -> Sparse:
    """The n x n identity with a log's operations applied, as sparse vectors.

    An operation (i, j, q) is line i += q * line j, (i, j) swaps lines i
    and j, and (i,) negates line i, where a line is a row for the row log
    and a column for the column log.  The forward transform (S, T) is held
    as those lines, so vector i gains q times vector j.  Its inverse (Sinv,
    Tinv) is held the other way round and takes the inverse operation on
    the other side: vector j loses q times vector i.  A swap or a negation
    is its own inverse and acts alike on both.
    """
    M = [{i: 1} for i in range(n)]
    for op in log:
        if len(op) == 3:
            i, j, q = op
            if inverse:
                _axpy(M[j], M[i], -q)
            else:
                _axpy(M[i], M[j], q)
        elif len(op) == 2:
            i, j = op
            M[i], M[j] = M[j], M[i]
        else:
            i, = op
            M[i] = {t: -v for t, v in M[i].items()}
    return M


@dataclass
class SmithForm:
    """D = S A T with S, T unimodular; the transforms are built on first read.

    A is r x c (shape).  D is rectangular diagonal; diagonal lists its
    min(r, c) entries d_0 | d_1 | ..., nonnegative, the zeros last.  The
    elimination leaves two logs of elementary operations, row_log on the
    rows and col_log on the column positions.  S and Sinv are the row log
    replayed on the r x r identity, T and Tinv the column log on the c x c
    one, each on its first read and cached: a reader of T alone pays for
    T alone.  S and Tinv are sparse rows {column: entry}, Sinv and T
    sparse columns {row: entry}: S b and Tinv v are read row by row, T y
    and a column of T or Sinv column by column, and none of the four is
    made dense.
    """

    shape: tuple[int, int]
    diagonal: list[int]
    row_log: list[tuple] = field(repr=False)
    col_log: list[tuple] = field(repr=False)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    @cached_property
    def S(self) -> Sparse:
        return _replay(self.shape[0], self.row_log, inverse=False)

    @cached_property
    def Sinv(self) -> Sparse:
        return _replay(self.shape[0], self.row_log, inverse=True)

    @cached_property
    def T(self) -> Sparse:
        return _replay(self.shape[1], self.col_log, inverse=False)

    @cached_property
    def Tinv(self) -> Sparse:
        return _replay(self.shape[1], self.col_log, inverse=True)


def smith_normal_form(A: Sequence[Sequence[int]]) -> SmithForm:
    """D = S A T by sparse elimination that replays the dense pivot order.

    The pivot is the smallest |entry| of the trailing block, first in
    row-major order.  The pivot is swapped into place and made positive,
    rows then columns are reduced by it, and a pass that leaves a remainder
    starts over.  Once the pivot's row and column are clear, a row whose
    entries it does not divide is added to its row and the search starts
    over.  The trailing block holding no entry ends the elimination.

    divides is the last pivot whose scan found every later entry a
    multiple of it (at first 1), and integer row and column operations keep
    every trailing entry a multiple of it.  So no entry is smaller: the
    pivot search stops at the first row holding a +-divides, and a pivot
    equal to divides skips the scan, which could find nothing.

    Only D is updated, held as rows {column id: entry} with a lazy column
    permutation, so a column swap touches no entry.  Each operation is
    appended to the row or the column log, which SmithForm replays into S,
    Sinv, T and Tinv when one is first read.  The operations are the dense
    elimination's, in its order, so every factor equals a dense loop's
    entry for entry (tests/test_snf.py keeps one as the reference).
    """
    r = len(A)
    c = len(A[0]) if r else 0
    D = [{j: int(v) for j, v in filter(itemgetter(1), enumerate(row))} for row in A]
    pos = list(range(c))  # column id -> position
    at = list(range(c))  # position -> column id
    row_log: list[tuple] = []
    col_log: list[tuple] = []
    divides = 1  # every trailing entry is a multiple of it

    def row_add(i, j, q):
        # row i += q * row j
        _axpy(D[i], D[j], q)
        row_log.append((i, j, q))

    def col_add(i, j, q, rows):
        # col i += q * col j, whose entries all lie in rows
        ci, cj = at[i], at[j]
        for row in rows:
            w = row.get(ci, 0) + q * row[cj]
            if w:
                row[ci] = w
            else:
                del row[ci]
        col_log.append((i, j, q))

    def pivot(k):
        # (|entry|, row, position) of the pivot, or None for a zero block
        best = None
        for i in range(k, r):
            row = D[i]
            if row:
                m = min(map(abs, row.values()))
                if best is None or m < best[0]:
                    best = (m, i, min(pos[t] for t, v in row.items() if abs(v) == m))
                    if m == divides:
                        break
        return best

    for k in range(min(r, c)):
        while True:
            best = pivot(k)
            if best is None:
                break
            _, pi, pj = best
            if pi != k:
                D[k], D[pi] = D[pi], D[k]
                row_log.append((k, pi))
            if pj != k:
                at[k], at[pj] = at[pj], at[k]
                pos[at[k]], pos[at[pj]] = k, pj
                col_log.append((k, pj))
            ck = at[k]
            if D[k][ck] < 0:
                D[k] = {t: -v for t, v in D[k].items()}
                row_log.append((k,))
            p = D[k][ck]
            rows = [D[k]]  # where the pivot column is nonzero after the row pass
            for i in range(k + 1, r):
                v = D[i].get(ck)
                if v:
                    row_add(i, k, -(v // p))
                    if ck in D[i]:
                        rows.append(D[i])
            for t, v in list(D[k].items()):
                if t != ck:
                    col_add(pos[t], k, -(v // p), rows)
            if len(rows) > 1 or len(D[k]) > 1:
                continue  # a remainder is left in the pivot's column or row
            if p == divides:
                break  # p divides every later entry: nothing to fold
            # divisibility: fold a row holding a non-multiple into the pivot's
            offender = next((i for i in range(k + 1, r)
                             if any(v % p for v in D[i].values())), None)
            if offender is None:
                divides = p
                break
            row_add(k, offender, 1)
        if best is None:
            break  # the trailing block is zero, and so are all later ones

    diagonal = [D[k].get(at[k], 0) for k in range(min(r, c))]
    return SmithForm((r, c), diagonal, row_log, col_log)


# -- the factor-once system ------------------------------------------------


@dataclass
class Solution:
    """One solution x0 of A x = b over the relevant ring; every other differs
    from it by a vector of System.kernel."""

    x0: list


def blind(value, ring: str) -> bool:
    """Is a certificate's pairing value one that refutes nothing?

    The one definition of a certificate's sense: over "Q" a blind value is
    zero, over "Z" and "Z/k" an integer.  A certificate is blind on
    everything a solution could be built from and not blind on the target.
    """
    return value == 0 if ring == "Q" else Fraction(value).denominator == 1


@dataclass
class Obstruction:
    """A functional certifying unsolvability, in the sense of blind().

    ring is the sense; "Z/k" is checked against the lift [A | k I].
    """

    functional: list[Fraction]
    ring: str

    def check(self, A: Sequence[Sequence[int]], b: Sequence) -> bool:
        r = self.functional
        rA = [sum(ri * aij for ri, aij in zip(r, col) if ri) for col in zip(*A)] if A and A[0] else []
        rb = sum(ri * bi for ri, bi in zip(r, b) if ri)
        return all(blind(v, self.ring) for v in rA) and not blind(rb, self.ring)


def _lift(A: Sequence[Sequence[int]], k: int) -> list[list[int]]:
    """The integer lift [A | k I] of a matrix over Z/k."""
    r = len(A)
    return [list(row) + [k if i == j else 0 for j in range(r)] for i, row in enumerate(A)]


class System:
    """A x = b in width unknowns over the ring coeffs, for many b, factored once.

    matrix is what an Obstruction is checked against: A itself, or over
    Z/k the lift [A | k I].  With no equations there is no form and every
    vector of length width solves.  Over Q, A may hold Fractions: row i is
    scaled by the least common denominator of its entries before it is
    factored, and a "Q" obstruction, a row of S, is scaled back by the same
    factors, so it is a functional on A.  rank_rows and columns are built
    on the first solve, and each transform of the form on its first read.
    """

    def __init__(self, A: Sequence[Sequence], width: int, coeffs: Coefficients):
        self.width = width
        self.coeffs = coeffs
        self.matrix = _lift(A, coeffs.modulus) if coeffs.modulus else A
        self.form: SmithForm | None = None  # no equations leave no form
        if not A:
            return
        if coeffs.kind == "Q":
            self._scale = [lcm(*(v.denominator for v in row)) for row in A]
        self.form = smith_normal_form(self._factored())

    def _factored(self) -> Sequence[Sequence]:
        """The integer matrix the Smith form factors."""
        if self.coeffs.kind != "Q":
            return self.matrix
        return [[v * m for v in row] for row, m in zip(self.matrix, self._scale)]

    @cached_property
    def rank_rows(self) -> list[tuple[Callable, tuple[int, ...]]]:
        """S's rows up to the rank, compiled; the rest stay sparse rows."""
        return compile_rows(self.form.S[:self.form.rank])

    @cached_property
    def columns(self) -> Sparse:
        """The factored matrix as sparse columns {row: entry}."""
        return [{i: int(v) for i, v in enumerate(col) if v} for col in zip(*self._factored())]

    @cached_property
    def kernel(self) -> list[list]:
        """A basis of the solutions of A x = 0 (over Z/k a spanning set),
        dense, built on first read; no solve reads it.

        The columns of T past the rank, over Z/k cut to the unknowns and
        reduced mod k, without zeros and repeats; with no equations every
        vector solves, and the basis is the unit vectors.
        """
        c, f, k = self.width, self.form, self.coeffs.modulus
        if f is None:
            return [[int(i == j) for i in range(c)] for j in range(c)]
        if not k:
            return [[col.get(t, 0) for t in range(c)] for col in f.T[f.rank:]]
        residues = (tuple(col.get(t, 0) % k for t in range(c)) for col in f.T[f.rank:])
        return [list(w) for w in dict.fromkeys(residues) if any(w)]

    def solve(self, b: Sequence) -> Solution | Obstruction:
        """Substitute b into the factorization: one solution, or why none."""
        if self.form is None:
            return Solution([0] * self.width)
        if self.coeffs.kind == "Q":
            return self._solve_rational(b)
        if self.coeffs.modulus:
            return solve_mod_snf(self, b)
        return solve_int_snf(self, b)

    def _solve_rational(self, b: Sequence) -> Solution | Obstruction:
        # b scaled like A's rows, cleared of denominators and multiplied by
        # the last invariant factor e, which every d_i divides: the integer
        # substitution then divides exactly, and x0 is its answer over e
        f = self.form
        e = lcm(*(v.denominator for v in b)) * (f.diagonal[f.rank - 1] if f.rank else 1)
        res = solve_int_snf(self, [int(v * m * e) for v, m in zip(b, self._scale)])
        if isinstance(res, Obstruction):
            return Obstruction([v * m for v, m in zip(res.functional, self._scale)], "Q")
        return Solution([Fraction(v, e) for v in res.x0])


def solve_int_snf(system: System, b: Sequence[int]) -> Solution | Obstruction:
    """The integer substitution of b into a system's nonempty Smith form.

    y_i = (S b)_i / d_i over the rank rows, the first row d_i does not
    divide giving a "Z" obstruction; then x0 = T y.  A' x0 = b holds
    exactly when S b vanishes past the rank, so only when it fails are
    those rows read, the first nonzero one giving a "Q" obstruction.
    """
    f = system.form
    r, c = f.shape
    sb = [sum(map(mul, a, read(b))) for read, a in system.rank_rows]
    for i, (v, d) in enumerate(zip(sb, f.diagonal)):
        if v % d:
            return Obstruction([Fraction(f.S[i].get(t, 0), d) for t in range(r)], "Z")
    x0 = apply_cols(f.T, list(map(floordiv, sb, f.diagonal)), c)
    if any(map(ne, apply_cols(system.columns, x0, r), b)):
        for row in f.S[f.rank:]:
            if sum(a * b[t] for t, a in row.items()):
                # rationally inconsistent: rA = 0 with rb != 0
                return Obstruction([Fraction(row.get(t, 0)) for t in range(r)], "Q")
        raise ArithmeticError("A x0 != b although S b vanishes past the rank")
    return Solution(x0)


def solve_mod_snf(system: System, b: Sequence[int]) -> Solution | Obstruction:
    """The one Z/k reduction of the integer substitution into the lift
    [A | k I]: x0 cut to the unknowns mod k, or the certificate, always a
    row of S over its invariant factor (the lift has full row rank), in
    the sense "Z/k"."""
    res = solve_int_snf(system, b)
    if isinstance(res, Obstruction):
        return Obstruction(res.functional, system.coeffs.label())
    k = system.coeffs.modulus
    return Solution([v % k for v in res.x0[:system.width]])


# -- the one-shot solvers ----------------------------------------------------


def solve_int(A: Sequence[Sequence[int]], b: Sequence[int]) -> Solution | Obstruction:
    """An integer solution of A x = b, or an obstruction row."""
    return System(A, len(A[0]) if A else 0, INTEGERS).solve(b)


def solve_rational(A: Sequence[Sequence], b: Sequence) -> Solution | Obstruction:
    """A rational solution of A x = b, or a functional with rA=0, rb!=0."""
    return System(A, len(A[0]) if A else 0, RATIONALS).solve(b)


def solve_mod(A: Sequence[Sequence[int]], b: Sequence[int], k: int) -> Solution | Obstruction:
    """A solution of A x = b over Z/k, or a "Z/k" functional on the lift."""
    return System(A, len(A[0]) if A else 0, mod_coefficients(k)).solve(b)
