"""Exact linear algebra: one factor-once System behind every solver.

A System holds one integer matrix A over one ring, with named rows
(equations) and columns (unknowns), and factors A once when it is built:

* over Z, the Smith form D = S A T;
* over Z/k, the Smith form of the integer lift [A | k I];
* over Q, the reduced row echelon form E A.

The kernel basis is read off once too, so System.solve(b) for each new
right-hand side is a substitution.  It returns a Solution (x0 plus the
kernel) or an Obstruction, a functional that Obstruction.check re-verifies
against System.matrix without trusting the solver:

* "Q": a row r with r A = 0 and r b != 0;
* "Z": a rational row r with r A integral and r b not an integer;
* "Z/k": the "Z" sense against the lift [A | k I], which System.matrix is.

The one-shot solvers solve_int, solve_mod and solve_rational factor and
substitute in one call, with the same substitution code.  Everything is
pure Python over int and Fraction, so every certificate is exact.  Matrix
sizes stay in the hundreds, where cubic algorithms with small pivots are
fast enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> list[list]:
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * cols
        for k, a in enumerate(row):
            if a:
                rb = B[k]
                for j in range(cols):
                    if rb[j]:
                        acc[j] += a * rb[j]
        out.append(acc)
    return out


def mat_vec(A: Sequence[Sequence], v: Sequence) -> list:
    # right-hand sides are sparse: visit only v's nonzero entries
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nz if row[j]) for row in A]


def transpose(A: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*A)] if A else []


@dataclass
class SmithForm:
    """D = S A T with S, T unimodular; inverses accumulated alongside.

    D is rectangular diagonal with nonnegative entries d_0 | d_1 | ...
    """

    D: Matrix
    S: Matrix
    T: Matrix
    Sinv: Matrix
    Tinv: Matrix

    @property
    def diagonal(self) -> list[int]:
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(A: Sequence[Sequence[int]]) -> SmithForm:
    r = len(A)
    c = len(A[0]) if r else 0
    D = [list(map(int, row)) for row in A]
    S, Sinv = identity_matrix(r), identity_matrix(r)
    T, Tinv = identity_matrix(c), identity_matrix(c)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        S[i], S[j] = S[j], S[i]
        for row in Sinv:
            row[i], row[j] = row[j], row[i]

    def row_add(i, j, q):
        # row i += q * row j
        for t in range(c):
            D[i][t] += q * D[j][t]
        for t in range(r):
            S[i][t] += q * S[j][t]
        for row in Sinv:
            row[j] -= q * row[i]

    def row_neg(i):
        for t in range(c):
            D[i][t] = -D[i][t]
        for t in range(r):
            S[i][t] = -S[i][t]
        for row in Sinv:
            row[i] = -row[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in T:
            row[i], row[j] = row[j], row[i]
        Tinv[i], Tinv[j] = Tinv[j], Tinv[i]

    def col_add(i, j, q):
        # col i += q * col j
        for row in D:
            row[i] += q * row[j]
        for row in T:
            row[i] += q * row[j]
        for t in range(c):
            Tinv[j][t] -= q * Tinv[i][t]

    n = min(r, c)
    for k in range(n):
        while True:
            # smallest nonzero entry of the trailing block into the pivot
            best = None
            for i in range(k, r):
                for j in range(k, c):
                    v = D[i][j]
                    if v and (best is None or abs(v) < abs(best[0])):
                        best = (v, i, j)
            if best is None:
                break
            _, pi, pj = best
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            if D[k][k] < 0:
                row_neg(k)
            dirty = False
            for i in range(k + 1, r):
                if D[i][k]:
                    q = D[i][k] // D[k][k]
                    row_add(i, k, -q)
                    if D[i][k]:
                        dirty = True
            for j in range(k + 1, c):
                if D[k][j]:
                    q = D[k][j] // D[k][k]
                    col_add(j, k, -q)
                    if D[k][j]:
                        dirty = True
            if dirty:
                continue
            # divisibility: fold any non-multiple into the pivot's column
            offender = None
            for i in range(k + 1, r):
                for j in range(k + 1, c):
                    if D[i][j] % D[k][k]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(k, offender, 1)
    return SmithForm(D, S, T, Sinv, Tinv)


# -- solvers ---------------------------------------------------------------


@dataclass
class Solution:
    """x0 + span(kernel) solves A x = b over the relevant ring.

    A System hands every Solution the same kernel list: read it, do not
    change it.
    """

    x0: list
    kernel: list[list]


@dataclass
class Obstruction:
    """A functional certifying unsolvability; see check() for the sense.

    ring "Q" is the rational sense; "Z" and "Z/k" are the integral sense,
    for "Z/k" against the lift [A | k I].
    """

    functional: list[Fraction]
    ring: str

    def check(self, A: Sequence[Sequence[int]], b: Sequence) -> bool:
        r = self.functional
        rA = [sum(ri * aij for ri, aij in zip(r, col) if ri) for col in zip(*A)] if A and A[0] else []
        rb = sum(ri * bi for ri, bi in zip(r, b) if ri)
        if self.ring == "Q":
            return all(v == 0 for v in rA) and rb != 0
        return all(Fraction(v).denominator == 1 for v in rA) and Fraction(rb).denominator != 1


def _snf_kernel(f: SmithForm) -> list[list[int]]:
    r = len(f.D)
    c = len(f.D[0]) if f.D else 0
    diag = f.diagonal
    cols = [j for j in range(c) if j >= len(diag) or diag[j] == 0]
    return [[f.T[i][j] for i in range(c)] for j in cols]


def solve_int(A: Sequence[Sequence[int]], b: Sequence[int]) -> Solution | Obstruction:
    """All integer solutions of A x = b, or a rational obstruction row."""
    r = len(A)
    c = len(A[0]) if r else 0
    if r == 0:
        return Solution([], [[1 if i == j else 0 for i in range(c)] for j in range(c)])
    return solve_int_snf(smith_normal_form(A), b)


def solve_int_snf(f: SmithForm, b: Sequence[int],
                  kernel: list[list[int]] | None = None) -> Solution | Obstruction:
    """solve_int against a precomputed nonempty Smith form.

    Splitting the decomposition from the substitution lets callers solving
    many right-hand sides against one matrix pay for it once; a kernel
    read off f beforehand is passed in and returned as it is.
    """
    r = len(f.D)
    c = len(f.D[0]) if f.D else 0
    sb = mat_vec(f.S, b)
    diag = f.diagonal
    y = [0] * c
    for i in range(r):
        d = diag[i] if i < len(diag) else 0
        if d:
            if sb[i] % d:
                row = [Fraction(v, d) for v in f.S[i]]
                return Obstruction(row, "Z")
            y[i] = sb[i] // d
        elif sb[i]:
            # rationally inconsistent: rA = 0 with rb != 0
            return Obstruction([Fraction(v) for v in f.S[i]], "Q")
    x0 = mat_vec(f.T, y)
    return Solution(x0, _snf_kernel(f) if kernel is None else kernel)


@dataclass
class EchelonForm:
    """E A in reduced row echelon form over Q, with E invertible.

    pivots lists the (row, column) pairs of the reduced form; kernel is the
    basis read off it, one vector per non-pivot column.
    """

    E: list[list[Fraction]]
    pivots: list[tuple[int, int]]
    kernel: list[list[Fraction]]


def echelon_form(A: Sequence[Sequence]) -> EchelonForm:
    """Gauss-Jordan elimination of A over Q, row operations kept in E."""
    r = len(A)
    c = len(A[0]) if r else 0
    M = [[Fraction(v) for v in row] for row in A]
    # track row ops so an inconsistent row yields a functional on the input
    E = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(c):
        piv = next((i for i in range(row, r) if M[i][col]), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        E[row], E[piv] = E[piv], E[row]
        inv = 1 / M[row][col]
        M[row] = [v * inv for v in M[row]]
        E[row] = [v * inv for v in E[row]]
        for i in range(r):
            if i != row and M[i][col]:
                q = M[i][col]
                M[i] = [a - q * p for a, p in zip(M[i], M[row])]
                E[i] = [a - q * p for a, p in zip(E[i], E[row])]
        pivots.append((row, col))
        row += 1
        if row == r:
            break
    pivot_cols = {col for _, col in pivots}
    kernel = []
    for free in range(c):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * c
        v[free] = Fraction(1)
        for i, col in pivots:
            v[col] = -M[i][free]
        kernel.append(v)
    return EchelonForm(E, pivots, kernel)


def solve_echelon(f: EchelonForm, b: Sequence) -> Solution | Obstruction:
    """solve_rational against a precomputed echelon form."""
    Eb = [sum((e * v for e, v in zip(row, b) if e and v), Fraction(0)) for row in f.E]
    for i in range(len(f.pivots), len(Eb)):
        if Eb[i]:
            return Obstruction(list(f.E[i]), "Q")
    x0 = [Fraction(0)] * (len(f.pivots) + len(f.kernel))
    for i, col in f.pivots:
        x0[col] = Eb[i]
    return Solution(x0, f.kernel)


def solve_rational(A: Sequence[Sequence], b: Sequence) -> Solution | Obstruction:
    """All rational solutions of A x = b, or a functional with rA=0, rb!=0."""
    return solve_echelon(echelon_form(A), b)


def kernel_int(A: Sequence[Sequence[int]]) -> list[list[int]]:
    if not A:
        return []
    return _snf_kernel(smith_normal_form(A))


def kernel_mod_prime(A: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of the kernel of A over the field Z/p (p prime)."""
    r = len(A)
    c = len(A[0]) if r else 0
    M = [[v % p for v in row] for row in A]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(c):
        piv = next((i for i in range(row, r) if M[i][col] % p), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = pow(M[row][col], -1, p)
        M[row] = [(v * inv) % p for v in M[row]]
        for i in range(r):
            if i != row and M[i][col]:
                q = M[i][col]
                M[i] = [(a - q * b) % p for a, b in zip(M[i], M[row])]
        pivots.append((row, col))
        row += 1
        if row == r:
            break
    pivot_cols = {col for _, col in pivots}
    kernel = []
    for free in range(c):
        if free in pivot_cols:
            continue
        v = [0] * c
        v[free] = 1
        for i, col in pivots:
            v[col] = (-M[i][free]) % p
        kernel.append(v)
    return kernel


def _lift(A: Sequence[Sequence[int]], k: int) -> Matrix:
    """The integer lift [A | k I] of a matrix over Z/k."""
    r = len(A)
    return [list(row) + [k if i == j else 0 for j in range(r)] for i, row in enumerate(A)]


def _reduce_mod(vectors: Sequence[Sequence[int]], c: int, k: int) -> list[list[int]]:
    """Distinct nonzero residues mod k of the vectors' first c entries."""
    out = []
    seen = set()
    for v in vectors:
        w = tuple(u % k for u in v[:c])
        if any(w) and w not in seen:
            seen.add(w)
            out.append(list(w))
    return out


def solve_mod(A: Sequence[Sequence[int]], b: Sequence[int], k: int) -> Solution | None:
    """Solutions of A x = b over Z/k, via the integer lift [A | k I]."""
    if not A:
        return Solution([], [])
    return solve_mod_snf(smith_normal_form(_lift(A, k)), b, k)


def solve_mod_snf(f: SmithForm, b: Sequence[int], k: int) -> Solution | None:
    """solve_mod against a precomputed Smith form of the lift [A | k I]."""
    c = (len(f.D[0]) if f.D else 0) - len(f.D)
    res = solve_int_snf(f, list(b))
    if isinstance(res, Obstruction):
        return None
    return Solution([v % k for v in res.x0[:c]], _reduce_mod(res.kernel, c, k))


# -- the factor-once system ------------------------------------------------


class System:
    """A x = b over one ring for many right-hand sides b, factored once.

    kind is "Z", "Zmod" (with modulus k) or "Q".  rows and cols name the
    equations and the unknowns.  pins maps each name held out of the
    unknowns to its sparse column [(row, coefficient), ...], so rhs() moves
    known values to the right-hand side without a dense product.  matrix is
    what was factored: A itself, or over Z/k the lift [A | k I].
    """

    def __init__(self, A: Sequence[Sequence[int]], rows: Sequence[Hashable],
                 cols: Sequence[Hashable], kind: str = "Z", modulus: int = 0,
                 pins: Mapping[Hashable, list[tuple[int, int]]] | None = None):
        if kind not in ("Z", "Zmod", "Q"):
            raise ValueError(f"unknown ring kind {kind!r}")
        self.rows = list(rows)
        self.cols = list(cols)
        self.kind = kind
        self.modulus = modulus
        self.ring = f"Z/{modulus}" if kind == "Zmod" else kind
        self.pins = dict(pins or {})
        c = len(self.cols)
        self.matrix = _lift(A, modulus) if kind == "Zmod" else A
        self.form: SmithForm | EchelonForm | None
        if not A:
            # no equations: every vector solves, the kernel is everything
            self.form = None
            self.kernel = [[int(i == j) for i in range(c)] for j in range(c)]
        elif kind == "Q":
            self.form = echelon_form(A)
            self.kernel = self.form.kernel
        else:
            self.form = smith_normal_form(self.matrix)
            self.kernel = _snf_kernel(self.form)
            if kind == "Zmod":
                self.kernel = _reduce_mod(self.kernel, c, modulus)

    def rhs(self, known: Mapping[Hashable, object]) -> list:
        """b = -(sum of each known value times its pinned column)."""
        b: list = [0] * len(self.rows)
        for g, v in known.items():
            if v:
                for i, a in self.pins.get(g, ()):
                    b[i] -= a * v
        return b

    def solve(self, b: Sequence) -> Solution | Obstruction:
        """Substitute b into the factorization: every solution, or why none."""
        if self.form is None:
            return Solution([0] * len(self.cols), self.kernel)
        if self.kind == "Q":
            return solve_echelon(self.form, b)
        res = solve_int_snf(self.form, b, self.kernel)
        if self.kind == "Z":
            return res
        if isinstance(res, Obstruction):
            return Obstruction(res.functional, self.ring)
        return Solution([v % self.modulus for v in res.x0[:len(self.cols)]], self.kernel)


def invariant_factors(A: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    if not A or not A[0]:
        return []
    return [d for d in smith_normal_form(A).diagonal if d]
