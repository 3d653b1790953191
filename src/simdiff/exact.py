"""Exact linear algebra: one ring object and one factor-once System.

Coefficients is the ring: Z, Q or Z/k (INTEGERS, RATIONALS,
mod_coefficients(k)).  It depends on nothing, so it lives here, and
simdiff.cochains re-exports it.

Every linear question is one System(A, width, coeffs): A x = b in width
unknowns over coeffs, for many b.  A's rows are sparse {column: entry},
as the coboundaries come (cohomology.delta_system), or dense lists, and
every step reads them as they come: no row is made dense.  It factors one
integer matrix A', once, as a Smith form D = S A' T: A itself over Z, the
lift [A | k I] over Z/k, and over Q, A with each row scaled to clear its
denominators.
The Smith form is held as its two elimination logs, which replay reads
one vector at a time, so a transform that fills (T of a long circle's
delta_0) is never built.  Each solve(b) is one integer substitution,
solve_int_snf: y = S b over the diagonal, x0 = T y, then the test A' x0
= b on A''s sparse columns (System.columns).  Over Z/k solve_mod_snf,
the one Z/k reduction, cuts x0 to the unknowns mod k; over Q, b is
scaled like A' first.  The kernel basis (T's columns past the rank) is
replayed only when System.kernel is read, never by a solve.

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

The Smith form eliminates on D alone, held as sparse rows sorted into
column order as they arrive, with a column -> rows index that finds the
rows a pivot column touches, and logs each elementary row and column
operation; the logs are what it returns.
Coboundary matrices hold a few nonzeros per row and almost every pivot is
+-1, so the elimination runs in two phases.  A unit phase takes +-1
pivots, the shortest row first and in it the column that holds the
fewest rows, so the work follows the nonzeros and keeps fill low; then
the dense elimination's smallest-entry loop factors only what is left,
the part that can carry torsion.  No choice depends on the order a row's
entries came in, so dense and sparse rows of one matrix give the same
logs.  The diagonal, and every presentation and verdict read off it, is
the one any elimination gives; S and T, and the cocycles and
certificates read off them, are those of this pivot order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import lcm
from operator import floordiv, itemgetter, ne
from typing import Any, Callable, Iterable, Sequence


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
        k = self.modulus
        if self.kind == "Zmod":
            if type(k) is not int or k < 2:
                raise ValueError(f"Zmod needs an int modulus >= 2, not {k!r}")
        elif type(k) is not int or k:
            raise ValueError(f"{self.kind} takes modulus 0, not {k!r}")
        object.__setattr__(self, "zero", Fraction(0) if self.kind == "Q" else 0)

    def normalize(self, v) -> Any:
        """v as an element of the ring, read through Fraction(v) unless it
        is an int over Z or Z/k, or a Fraction over Q, which is returned as
        it is.  A value Fraction cannot take (nan, inf, None, a non-number)
        raises ValueError for every ring; over Z and Z/k so does a fraction
        or a float with a fractional part."""
        if self.kind == "Q" and type(v) is Fraction:
            return v
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


class Row(dict):
    """A sparse vector {index: entry} that replay carries as one entry of a
    vector, so a block of vectors (the rows of a matrix) is read in one
    pass: q * row scales a copy, += adds in place, dropping what cancels."""

    def __rmul__(self, q: int) -> Row:
        return Row({t: q * a for t, a in self.items()})

    def __neg__(self) -> Row:
        return -1 * self

    def __iadd__(self, other: Mapping[int, int]) -> Row:
        for t, a in other.items():
            w = self.get(t, 0) + a
            if w:
                self[t] = w
            else:
                self.pop(t, None)
        return self


def replay(log: Sequence[tuple], v: Iterable, transpose: bool = False,
           inverse: bool = False) -> list:
    """P v, P^T v, P^-1 v or P^-T v for P = E_m ... E_1, the product of a
    log's operations (i, j, q): E = I + q e_i e_j^T, (i, j): a swap, (i,):
    a negation.  The row log's P is S, the column log's T^T, so S b =
    replay(row_log, b), Sinv e = replay(row_log, e, inverse=True), T y =
    replay(col_log, y, transpose=True), Tinv v = replay(col_log, v,
    transpose=True, inverse=True), and a row of S or Tinv is
    replay(row_log, unit(r, i), transpose=True) or replay(col_log,
    unit(c, k), inverse=True).  v's entries are numbers, or Rows (updated
    in place) when v is a matrix held by rows, as in replay_units.
    """
    v = list(v)
    sign = -1 if inverse else 1
    for op in (log if transpose == inverse else reversed(log)):
        if len(op) == 3:
            i, j, q = op
            if transpose:
                i, j = j, i
            if v[j]:
                v[i] += sign * q * v[j]
        elif len(op) == 2:
            i, j = op
            v[i], v[j] = v[j], v[i]
        else:
            i, = op
            v[i] = -v[i]
    return v


def unit(n: int, k: int) -> list[int]:
    """The k-th unit vector of length n."""
    return [int(t == k) for t in range(n)]


def replay_units(log: Sequence[tuple], n: int, first: int, transpose: bool = False,
                 inverse: bool = False) -> list[dict[int, int]]:
    """replay of unit(n, k) for k = first .. n - 1, as sparse vectors
    {index: entry}: one replay of the block [0; I] held as Rows, whose cost
    follows the nonzeros rather than one pass of the log per vector."""
    block = replay(log, [Row({t - first: 1} if t >= first else {}) for t in range(n)],
                   transpose, inverse)
    out: list[dict[int, int]] = [{} for _ in range(n - first)]
    for t, line in enumerate(block):
        for k, a in line.items():
            out[k][t] = a
    return out


@dataclass
class SmithForm:
    """D = S A T with S, T unimodular, held as the elimination's two logs.

    A is r x c (shape).  D is rectangular diagonal; diagonal lists its
    min(r, c) entries d_0 | d_1 | ..., nonnegative, the 1s of the unit
    phase first and the zeros last.  row_log and col_log, the elementary
    operations on the rows and on the column positions in the order
    taken, are the only form of S, Sinv, T and Tinv: no transform is
    built, and replay applies one to a vector in one pass over its log.
    units lists the column ids of A at the unit pivots, in the order
    taken: pivot k sits at diagonal place k with entry 1.  The unit phase
    adds a pivot's column only to columns not yet pivoted, and the loop
    after it touches only later places, so the rows of Tinv at places
    0..len(units) - 1, read on the columns units, form an upper
    unitriangular block in that order; each of those rows is row k of
    S A, so it lies in A's row space.  cohomology.delta_system's clearing
    rests on both.
    """

    shape: tuple[int, int]
    diagonal: list[int]
    row_log: list[tuple] = field(repr=False)
    col_log: list[tuple] = field(repr=False)
    units: tuple[int, ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def entries(row: Mapping[int, Any] | Sequence) -> Iterable[tuple[int, Any]]:
    """A row's (column, entry) pairs: a sparse row {column: entry} as it
    is, a dense row's nonzeros in column order."""
    if isinstance(row, Mapping):
        return row.items()
    return filter(itemgetter(1), enumerate(row))


def smith_normal_form(A: Sequence[Mapping[int, int] | Sequence[int]],
                      width: int | None = None) -> SmithForm:
    """D = S A T by sparse elimination: unit pivots first, then the
    smallest-entry loop on what they leave.

    A's rows are sparse {column: entry} in width columns, or dense lists,
    whose length is the width when none is given.  Each row is sorted into
    column order as it arrives, without its zeros, so both forms factor
    alike.

    Only D is updated, held as rows {column id: entry} with a lazy column
    permutation, so a column swap touches no entry.  holds[column id] is
    a column -> rows index, the set of rows with an entry in that column,
    kept exact by every operation, so a row pass visits only the rows that
    hold the pivot column, in row order, instead of every later row.  Each
    operation is appended to the row or the column log, which replay
    reads as S, Sinv, T and Tinv.

    The unit phase pops rows from a lazy heap on (current length, row
    index), skipping an entry whose row was taken or has changed since,
    and takes the first that holds a +-1.  Its pivot is the +-1 whose
    column holds the fewest rows, ties by column id.  The row is negated
    if the pivot is -1, the row pass clears the pivot column from the
    other rows (each changed row is pushed again), and column operations
    clear the pivot row, which then holds its pivot alone.  No column has
    moved yet, so those operations are logged on column ids.  When no row
    holds a +-1, row and column swaps bring the u unit pivots to the
    first u diagonal places, in the order they were taken, and
    SmithForm.units records their column ids in that order.

    The smallest-entry loop then runs from k = u.  Its pivot is the
    smallest |entry| of the trailing block, first in row-major order.  The
    pivot is swapped into place and made positive, rows then columns are
    reduced by it, and a pass that leaves a remainder starts over.  Once
    the pivot's row and column are clear, a row whose entries it does not
    divide is added to its row and the search starts over.  The trailing
    block holding no entry ends the elimination.

    divides is the last pivot whose scan found every later entry a
    multiple of it (at first 1), and integer row and column operations keep
    every trailing entry a multiple of it.  So no entry is smaller: the
    pivot search stops at the first row holding a +-divides, and a pivot
    equal to divides skips the scan, which could find nothing.

    A matrix with no +-1 entry gives the unit phase nothing to take, and
    its factors are the dense loop's (tests/test_snf.py keeps that loop as
    the reference); otherwise only the diagonal is.
    """
    r = len(A)
    c = width if width is not None else len(A[0]) if r else 0
    # a dict row (delta_table's, a Row) is read as it is: entries' Mapping
    # check goes through the ABC machinery on every row
    D = [{j: int(v) for j, v in sorted(row.items() if isinstance(row, dict)
                                       else entries(row)) if v} for row in A]
    holds: list[set[int]] = [set() for _ in range(c)]
    for i, row in enumerate(D):
        for t in row:
            holds[t].add(i)
    pos = list(range(c))  # column id -> position
    at = list(range(c))  # position -> column id
    row_log: list[tuple] = []
    col_log: list[tuple] = []
    divides = 1  # every trailing entry is a multiple of it

    def row_add(i, j, q):
        # row i += q * row j (q != 0), dropping the entries that cancel
        dst = D[i]
        get = dst.get
        for t, v in D[j].items():
            w = get(t)
            if w is None:
                dst[t] = q * v
                holds[t].add(i)
            elif w + q * v:
                dst[t] = w + q * v
            else:
                del dst[t]
                holds[t].discard(i)
        row_log.append((i, j, q))

    def col_add(i, j, q, rows):
        # col i += q * col j, whose entries all lie in rows
        ci, cj = at[i], at[j]
        held = holds[ci]
        for s in rows:
            row = D[s]
            w = row.get(ci, 0) + q * row[cj]
            if w:
                row[ci] = w
                held.add(s)
            else:
                del row[ci]
                held.discard(s)
        col_log.append((i, j, q))

    def row_swap(i, j):
        for t in D[i]:
            holds[t].discard(i)
        for t in D[j]:
            holds[t].discard(j)
        D[i], D[j] = D[j], D[i]
        for t in D[i]:
            holds[t].add(i)
        for t in D[j]:
            holds[t].add(j)
        row_log.append((i, j))

    def col_swap(i, j):
        at[i], at[j] = at[j], at[i]
        pos[at[i]], pos[at[j]] = i, j
        col_log.append((i, j))

    # the unit phase: the shortest row holding a +-1 first
    units = []  # (row, column id) of each unit pivot, in the order taken
    done = [False] * r
    queue = [(len(row), i) for i, row in enumerate(D) if row]
    heapify(queue)
    while queue:
        n, i = heappop(queue)
        row = D[i]
        if done[i] or len(row) != n:
            continue  # a stale entry: the row was taken, or has changed since
        # its +-1 whose column holds the fewest rows, ties by column id
        best = min(((len(holds[t]), t) for t, v in row.items() if v == 1 or v == -1),
                   default=None)
        if best is None:
            continue  # pushed again if a row operation ever changes it
        t = best[1]
        if row[t] < 0:
            D[i] = row = {s: -v for s, v in row.items()}
            row_log.append((i,))
        for s in sorted(holds[t]):
            if s != i:
                row_add(s, i, -D[s][t])
                if D[s]:
                    heappush(queue, (len(D[s]), s))
        # no column is swapped yet, so positions are column ids, and column
        # t is now nonzero in row i alone: each column operation clears one
        # entry of row i and touches no other row
        for s, v in row.items():
            if s != t:
                holds[s].discard(i)
                col_log.append((s, t, -v))
        D[i] = {t: 1}
        done[i] = True
        units.append((i, t))
    at_row = list(range(r))  # index -> the row there
    home = list(range(r))  # row -> its index
    for k, (i, t) in enumerate(units):
        j = home[i]
        if j != k:
            row_swap(k, j)
            o = at_row[k]
            at_row[k], at_row[j], home[i], home[o] = i, o, k, j
        if pos[t] != k:
            col_swap(k, pos[t])

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

    # the smallest-entry loop on what the units leave
    for k in range(len(units), min(r, c)):
        while True:
            best = pivot(k)
            if best is None:
                break
            _, pi, pj = best
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            ck = at[k]
            if D[k][ck] < 0:
                D[k] = {t: -v for t, v in D[k].items()}
                row_log.append((k,))
            p = D[k][ck]
            rows = [k]  # where the pivot column is nonzero after the row pass
            for i in sorted(holds[ck]):
                if i > k:
                    row_add(i, k, -(D[i][ck] // p))
                    if ck in D[i]:
                        rows.append(i)
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
    return SmithForm((r, c), diagonal, row_log, col_log, tuple(t for _, t in units))


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

    def check(self, A: Sequence[Mapping[int, int] | Sequence[int]], b: Sequence) -> bool:
        """The functional r is blind on every column of A (rows sparse or
        dense) and not blind on b: r A over A's nonzeros, since a column
        with none pairs to zero, which is blind in every sense."""
        r = self.functional
        rA: dict[int, Any] = {}
        for ri, row in zip(r, A):
            if ri:
                for t, a in entries(row):
                    rA[t] = rA.get(t, 0) + ri * a
        rb = sum(ri * bi for ri, bi in zip(r, b) if ri)
        return all(blind(v, self.ring) for v in rA.values()) and not blind(rb, self.ring)


def _lift(A: Sequence[Mapping[int, int] | Sequence[int]], k: int,
          width: int | None = None) -> list:
    """The integer lift [A | k I] of a matrix over Z/k, in A's row form: a
    dense row gains its row of k I, a sparse row {column: entry} in width
    columns the one entry k at column width + i."""
    r = len(A)
    return [{**row, width + i: k} if isinstance(row, Mapping)
            else [*row, *(k if i == j else 0 for j in range(r))] for i, row in enumerate(A)]


class System:
    """A x = b in width unknowns over the ring coeffs, for many b, factored once.

    A's rows are sparse {column: entry} or dense lists, and every step
    reads them as they come.  matrix is what an Obstruction is checked
    against: A itself, or over Z/k the lift [A | k I], in A's row form.
    With no equations there is no form and every vector of length width
    solves.  Over Q, A may hold Fractions: row i is scaled by the least
    common denominator of its entries before it is factored, and a "Q"
    obstruction, a row of S, is scaled back by the same factors, so it is
    a functional on A.  columns is built on the first solve.
    """

    def __init__(self, A: Sequence[Mapping[int, Any] | Sequence], width: int,
                 coeffs: Coefficients):
        self.width = width
        self.coeffs = coeffs
        k = coeffs.modulus
        self.matrix = _lift(A, k, width) if k else A
        self.form: SmithForm | None = None  # no equations leave no form
        if not A:
            return
        if coeffs.kind == "Q":
            self._scale = [lcm(*(v.denominator for _, v in entries(row))) for row in A]
        self.form = smith_normal_form(self._factored(), width + len(A) if k else width)

    def _factored(self) -> Sequence[Mapping[int, int] | Sequence[int]]:
        """The integer matrix the Smith form factors."""
        if self.coeffs.kind != "Q":
            return self.matrix
        return [{t: int(v * m) for t, v in entries(row)}
                for row, m in zip(self.matrix, self._scale)]

    @cached_property
    def columns(self) -> Sparse:
        """The factored matrix as sparse columns {row: entry}: the nonzeros
        of matrix, over Q scaled by their row's factor, so the factored
        matrix is built once, for the Smith form."""
        cols: Sparse = [{} for _ in range(self.form.shape[1])]
        scale = self._scale if self.coeffs.kind == "Q" else None
        for i, row in enumerate(self.matrix):
            m = scale[i] if scale else 1
            for t, v in entries(row):
                cols[t][i] = int(v * m)
        return cols

    @cached_property
    def kernel(self) -> list[list]:
        """A basis of the solutions of A x = 0 (over Z/k a spanning set),
        dense, built on first read; no solve reads it.

        The columns of T past the rank (replay_units), over Z/k cut to
        the unknowns and reduced mod k, without zeros and repeats; with no
        equations every vector solves, and the basis is the unit vectors.
        """
        c, f, k = self.width, self.form, self.coeffs.modulus
        if f is None:
            return [unit(c, j) for j in range(c)]
        cols = replay_units(f.col_log, f.shape[1], f.rank, transpose=True)
        if not k:
            return [[col.get(t, 0) for t in range(c)] for col in cols]
        residues = (tuple(col.get(t, 0) % k for t in range(c)) for col in cols)
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

    y_i = (S b)_i / d_i up to the rank, the first place d_i does not divide
    giving a "Z" obstruction (row i of S over d_i); then x0 = T y.  A' x0
    = b holds exactly when S b vanishes past the rank, so only when the
    test fails is the first nonzero place past the rank read, its row of S
    giving a "Q" obstruction.
    """
    f = system.form
    r, c = f.shape
    sb = replay(f.row_log, b)
    for i, d in enumerate(f.diagonal[:f.rank]):
        if sb[i] % d:
            row = replay(f.row_log, unit(r, i), transpose=True)
            return Obstruction([Fraction(v, d) for v in row], "Z")
    y = list(map(floordiv, sb, f.diagonal[:f.rank]))
    x0 = replay(f.col_log, y + [0] * (c - f.rank), transpose=True)
    if any(map(ne, apply_cols(system.columns, x0, r), b)):
        i = next((i for i in range(f.rank, r) if sb[i]), None)
        if i is None:
            raise ArithmeticError("A x0 != b although S b vanishes past the rank")
        # rationally inconsistent: rA = 0 with rb != 0
        return Obstruction(list(map(Fraction, replay(f.row_log, unit(r, i), transpose=True))),
                           "Q")
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
