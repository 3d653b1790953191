"""The sparse Smith form against what a Smith form promises, the dense loop
it replaced, and sympy.

exact.smith_normal_form eliminates in two phases: a unit phase that takes
+-1 pivots, shortest row first, and then the dense smallest-entry loop on
what the units leave.  SmithForm holds only its logs; the tests read S, T,
Sinv and Tinv through dense.transforms, the logs replayed on the identity,
and check exact.replay, which reads them one vector at a time, against
those in all of its readings.  The unit phase takes another pivot order than
the dense loop, so the factors are checked for what they promise rather
than entry for entry: D = S A T, S Sinv and T Tinv are identities, and the
diagonal is in divisor order and equals the dense loop's diagonal and
sympy's invariant factors.  A matrix with no +-1 entry gives the unit
phase nothing to take, and there the factors must still equal the dense
loop's entry for entry; the dense loop is kept here as that reference.
Every matrix is factored twice, from dense rows and from sparse rows
{column: entry} in shuffled insertion order with the width given apart,
and the two factorizations must agree in every log and factor.  Each unit
pivot that SmithForm.units records must hold a 1 on the diagonal, and
Tinv's rows at the unit places, read on the unit columns, must be upper
unitriangular in the order taken: cohomology's cleared forms rest on it.
On a long circle's delta_0 the chained unit pivots fill T, and there the
solves, kernels and representatives read through replay must equal those
read off the reference transforms.
"""

import random
import sys
import zlib
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from simdiff import exact
from simdiff.cochains import INTEGERS, delta_table
from simdiff.complexes import circle, cylinder, rp2, sphere2, torus
from simdiff.cohomology import cohomology, delta_system
from simdiff.exact import (Row, SmithForm, Solution, _lift, apply_cols, replay, replay_units,
                           smith_normal_form)

import reference_cohomology
from dense import (apply_rows, delta_matrix, dense_factors, from_cols, from_rows, identity_matrix,
                   mat_mul, mat_vec, transforms, transpose)

BASES = {"circle": lambda: circle(3), "sphere2": sphere2, "rp2": rp2, "torus": torus}


def reference_smith_normal_form(A):
    """The dense triple loop that exact.smith_normal_form replaced.

    It returns (D, S, T, Sinv, Tinv) as dense lists of rows.
    """
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
    return D, S, T, Sinv, Tinv


FIELDS = {"shape", "diagonal", "row_log", "col_log", "units"}


def sparse_rows(A, seed: int) -> list[dict[int, int]]:
    """A's rows as {column: entry} in shuffled insertion order.  Zero rows
    come out empty, and now and then a row keeps an explicit zero, which
    the Smith form must drop."""
    rng = random.Random(seed)
    out = []
    for row in A:
        items = [(j, v) for j, v in enumerate(row) if v or rng.random() < 0.1]
        rng.shuffle(items)
        out.append(dict(items))
    return out


def assert_divisor_order(diagonal) -> None:
    nonzero = [d for d in diagonal if d]
    assert diagonal[:len(nonzero)] == nonzero and all(d > 0 for d in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def assert_sympy_diagonal(A, f: SmithForm) -> None:
    if not A or not A[0]:
        return
    D = sympy_snf(Matrix(A), domain=ZZ)
    theirs = sorted(abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i])
    assert sorted(d for d in f.diagonal if d) == theirs


def assert_unit_block(f: SmithForm) -> None:
    """Unit pivot k holds the diagonal place k with a 1, and row k of Tinv
    holds 1 at column units[k] and 0 at every earlier unit column."""
    units = f.units
    assert len(set(units)) == len(units) and all(0 <= t < f.shape[1] for t in units)
    assert f.diagonal[:len(units)] == [1] * len(units)
    Tinv = transforms(f)[3]
    for k, t in enumerate(units):
        row = Tinv[k]
        assert [row.get(s, 0) for s in units[:k + 1]] == [0] * k + [1], (k, t)


def assert_smith_form(A) -> SmithForm:
    """Factor A and check what the factorization promises.

    D = S A T with S Sinv and T Tinv identities; the diagonal in divisor
    order, equal to the dense loop's and to sympy's; and for a matrix with
    no +-1 entry, every factor equal to the dense loop's.  The form holds
    its logs and nothing else, and the factors are its logs replayed on
    the identity (dense.transforms).  A is factored a second time from
    sparse rows (shuffled by a checksum of A, so the order is fixed), with
    the width passed, which must give the same logs and factors.
    """
    f = smith_normal_form(A)
    assert set(vars(f)) == FIELDS
    checksum = zlib.crc32(repr(A).encode())
    factors = dense_factors(f)
    assert_unit_block(f)
    D, S, T, Sinv, Tinv = factors
    r, c = f.shape
    assert mat_mul(mat_mul(S, A), T) == D
    assert mat_mul(S, Sinv) == identity_matrix(r)
    assert mat_mul(T, Tinv) == identity_matrix(c)
    assert_divisor_order(f.diagonal)
    reference = reference_smith_normal_form(A)
    assert f.diagonal == [reference[0][i][i] for i in range(min(r, c))]
    assert_sympy_diagonal(A, f)
    if not any(v == 1 or v == -1 for row in A for v in row):
        # the unit phase takes nothing, and the loop is the dense one
        assert factors == reference
    g = smith_normal_form(sparse_rows(A, checksum), c)
    assert (g.shape, g.diagonal, g.row_log, g.col_log, g.units) == (
        f.shape, f.diagonal, f.row_log, f.col_log, f.units)
    assert dense_factors(g) == factors
    return f


def deltas(name: str, k: int) -> list[list[list[int]]]:
    X = BASES[name]()
    Y = cylinder(X, k).complex if k else X
    return [delta_matrix(Y, n) for n in range(Y.top_dim)]


# -- fixture matrices ----------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", list(BASES))
def test_fixture_deltas_replay_the_dense_loop(name, k):
    for A in deltas(name, k):
        assert_smith_form(A)


def test_rp2_times_delta3_low_degrees_replay_the_dense_loop():
    for A in deltas("rp2", 3)[:2]:
        assert_smith_form(A)


@pytest.mark.parametrize("name", list(BASES))
def test_delta3_cylinder_deltas_leave_tinv_unitriangular_on_the_unit_columns(name):
    # what clearing rests on, in every degree of the cylinders too large
    # for the dense loop, on the sparse rows cohomology factors
    Y = cylinder(BASES[name](), 3).complex
    for n in range(Y.top_dim):
        f = smith_normal_form(delta_table(Y, n), len(Y.generators(n)))
        assert f.units and len(f.units) <= f.rank
        assert_unit_block(f)


@pytest.mark.parametrize("modulus", [2, 3, 6])
def test_mod_k_lifts_replay_the_dense_loop(modulus):
    cases = [A for name in BASES for A in deltas(name, 0)] + deltas("circle", 1)
    for A in cases:
        assert_smith_form(_lift(A, modulus))


# -- generated matrices --------------------------------------------------------

ENTRIES = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, -2, 3, 4, 6])


@st.composite
def sparse_matrices(draw):
    r = draw(st.integers(0, 7))
    c = draw(st.integers(0, 7))
    return [[draw(ENTRIES) for _ in range(c)] for _ in range(r)]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
@example([])
@example([[]])
@example([[], [], []])
@example([[0, 2, -3, 4]])
@example([[6], [4], [0]])
@example([[2, 0], [0, 3]])
@example([[0, 0], [0, 0]])
@example([[1, 0, 0], [0, 0, 0]])
@example([[0, 0, 0], [0, 2, 0], [0, 0, 0]])
def test_generated_matrices_replay_the_dense_loop(A):
    assert_smith_form(A)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
@example([[0, 2, -3, 4]])
@example([[1, 0, 0], [0, 0, 0]])
def test_every_row_type_gives_the_same_logs(A):
    """A dict row and a Row are copied as they are, any other mapping
    through entries(): all must give the dense rows' logs."""
    c = len(A[0]) if A else 0
    f = smith_normal_form(A)
    rows = sparse_rows(A, zlib.crc32(repr(A).encode()))
    for B in (rows, [Row(row) for row in rows], [MappingProxyType(row) for row in rows]):
        g = smith_normal_form(B, c)
        assert (g.shape, g.diagonal, g.row_log, g.col_log, g.units) == (
            f.shape, f.diagonal, f.row_log, f.col_log, f.units)


# -- both phases ----------------------------------------------------------------

UNIT_FREE = st.sampled_from([0, 0, 0, 2, -2, 4, 6, -6])


@st.composite
def mixed_matrices(draw):
    """[[U, 0], [0, B]] with its rows and columns shuffled.  U holds a +-1,
    which the unit phase takes; B is nonzero with even entries only, and no
    operation on U's rows and columns reaches it, so the smallest-entry
    loop must run on B."""
    ur, uc, br, bc = (draw(st.integers(1, 4)) for _ in range(4))
    U = [[draw(ENTRIES) for _ in range(uc)] for _ in range(ur)]
    i, j = draw(st.integers(0, ur - 1)), draw(st.integers(0, uc - 1))
    U[i][j] = draw(st.sampled_from([1, -1]))
    B = [[draw(UNIT_FREE) for _ in range(bc)] for _ in range(br)]
    i, j = draw(st.integers(0, br - 1)), draw(st.integers(0, bc - 1))
    B[i][j] = draw(st.sampled_from([2, -4, 6]))
    rows = [u + [0] * bc for u in U] + [[0] * uc + b for b in B]
    order = draw(st.permutations(range(uc + bc)))
    return [[row[j] for j in order] for row in draw(st.permutations(rows))]


@settings(max_examples=100, deadline=None)
@given(mixed_matrices())
@example([[2, 1], [4, 0]])
@example([[0, 3, 0], [1, 2, 0], [0, 0, 4]])
def test_mixed_matrices_take_unit_pivots_then_run_the_loop(A):
    # the unit phase puts only 1s on the diagonal, so an invariant factor
    # past 1 comes from the smallest-entry loop
    f = assert_smith_form(A)
    assert 1 in f.diagonal and any(d > 1 for d in f.diagonal)


def test_the_unit_phase_takes_the_shortest_row_first():
    # row 1 is the shortest row with a +-1: it is negated, then clears
    # column 1 from row 0, before row 0 is touched as a pivot
    f = smith_normal_form([[1, 1, 1], [0, -1, 0]])
    assert f.row_log[:2] == [(1,), (0, 1, -1)]
    assert f.diagonal == [1, 1]


@pytest.mark.parametrize("rows, width", [([], 0), ([], 3), ([{}, {}], 0), ([{}, {}], 2),
                                         ([{0: 0}, {}], 1), ([{2: -3}], 4)])
def test_the_width_of_sparse_rows_comes_from_the_argument(rows, width):
    # no entry in a trailing column, or none at all: the shape and the
    # transforms still span the width given
    f = smith_normal_form(rows, width)
    dense = [[row.get(j, 0) for j in range(width)] for row in rows]
    D, S, T, Sinv, Tinv = dense_factors(f)
    assert f.shape == (len(rows), width)
    assert len(f.diagonal) == min(len(rows), width)
    assert len(T) == len(Tinv) == width and len(S) == len(Sinv) == len(rows)
    if rows and width:
        assert (D, S, T, Sinv, Tinv) == reference_smith_normal_form(dense)
    else:
        # 0 x c and r x 0: nothing to eliminate, the transforms are identities
        assert f.diagonal == [] and f.row_log == f.col_log == []
        assert S == Sinv == identity_matrix(len(rows))
        assert T == Tinv == identity_matrix(width)


# -- the branches a unit pivot never takes ---------------------------------------


def lines_run(A) -> Counter:
    """How often each line of exact.py ran while factoring A."""
    hit: Counter = Counter()

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_lineno] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == exact.__file__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        smith_normal_form(A)
    finally:
        sys.settrace(previous)
    return hit


def line_of(marker: str) -> int:
    with open(exact.__file__) as source:
        found = [n for n, text in enumerate(source, 1) if marker in text]
    assert len(found) == 1, marker
    return found[0]


def test_unit_pivots_leave_the_loop_only_the_remainder():
    taken, search = line_of("units.append((i, t))"), line_of("best = pivot(k)")
    # full rank by units alone: the smallest-entry loop never searches
    hit = lines_run([[1, 1, 0], [0, -1, 1]])
    assert (hit[taken], hit[search]) == (2, 0)
    # one unit, then the loop finds the 4 its column operation left
    hit = lines_run([[2, 1], [4, 0]])
    assert hit[taken] == 1 and hit[search] >= 1
    assert smith_normal_form([[2, 1], [4, 0]]).diagonal == [1, 4]


def test_non_unit_branches_are_reached_and_replayed():
    branches = {
        "non-unit pivot": line_of("offender = next("),
        "remainder re-loop": line_of("continue  # a remainder is left"),
        "divisibility fold": line_of("row_add(k, offender, 1)"),
    }
    hit = lines_run([[2, 0], [0, 3]])
    assert {name for name, line in branches.items() if line not in hit} == set()
    # a unit pivot takes none of them
    hit = lines_run([[1, 1, 0], [0, -1, 1]])
    assert all(line not in hit for line in branches.values())
    for A in ([[2, 0], [0, 3]], [[2, 4], [6, 8]], [[4, 6], [6, 4]], [[3, 0, 0], [0, 2, 0]]):
        assert_smith_form(A)


# -- a pivot that repeats a divisor --------------------------------------------


def diag(*entries) -> list[list[int]]:
    return [[v if i == j else 0 for j in range(len(entries))] for i, v in enumerate(entries)]


REPEATING = [diag(2, 4, 2), diag(2, 6, 4), diag(2, 2, 4, 6), diag(3, 3, 6, 9, 2),
             diag(4, 2, 2, 8), [[2, 4, 0], [4, 2, 6], [0, 6, 4]]]


@pytest.mark.parametrize("A", REPEATING)
def test_repeated_divisors_replay_the_dense_loop(A):
    assert_smith_form(A)
    for modulus in (2, 4, 6):
        assert_smith_form(_lift(A, modulus))


def test_a_pivot_equal_to_the_last_divisor_skips_the_scan():
    scan, skip = line_of("divides = p"), line_of("break  # p divides every later entry")
    # the first 2 scans the later rows and finds only multiples of 2; the
    # three 2s after it cannot find a non-multiple, so they do not scan
    hit = lines_run(diag(2, 2, 2, 2))
    assert (hit[scan], hit[skip]) == (1, 3)
    # a larger pivot scans again: 6 does not divide 4, so the fold runs
    hit = lines_run(diag(2, 6, 4))
    assert hit[line_of("row_add(k, offender, 1)")] >= 1
    assert smith_normal_form(diag(2, 6, 4)).diagonal == [2, 2, 12]


# -- the logs, read by replay ----------------------------------------------------


@st.composite
def replay_cases(draw):
    """A matrix with or without +-1 entries, now and then lifted to
    [A | k I], and one vector for each side of it."""
    r, c = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    values = draw(st.sampled_from([ENTRIES, UNIT_FREE]))
    A = [[draw(values) for _ in range(c)] for _ in range(r)]
    k = draw(st.sampled_from([0, 0, 2, 3, 6]))
    if k:
        A, c = _lift(A, k), c + r
    vector = st.lists(st.integers(-9, 9), min_size=r, max_size=r)
    return A, draw(vector), draw(st.lists(st.integers(-9, 9), min_size=c, max_size=c))


@settings(max_examples=150, deadline=None)
@given(replay_cases())
@example(([[2, 0], [0, 3]], [1, -1], [2, 5]))
@example(([[1, 1, 0], [0, -1, 1]], [3, 4], [1, 0, -2]))
def test_replay_is_the_reference_transform_times_a_vector(case):
    # all four transforms and their transposes, which give a row of S or
    # Tinv from a unit vector, against the logs replayed on the identity,
    # on one vector and on a block of unit vectors
    A, b, y = case
    given_b, given_y = list(b), list(y)
    f = smith_normal_form(A)
    r, c = f.shape
    S, Sinv, T, Tinv = transforms(f)
    S, Sinv, T, Tinv = from_rows(S, r), from_cols(Sinv, r), from_cols(T, c), from_rows(Tinv, c)
    row_readings = {(False, False): S, (False, True): Sinv,
                    (True, False): transpose(S), (True, True): transpose(Sinv)}
    col_readings = {(True, False): T, (True, True): Tinv,
                    (False, False): transpose(T), (False, True): transpose(Tinv)}
    for log, n, v, readings in ((f.row_log, r, b, row_readings),
                                (f.col_log, c, y, col_readings)):
        for (tr, inv), M in readings.items():
            assert replay(log, v, transpose=tr, inverse=inv) == mat_vec(M, v), (tr, inv)
            # the unit vectors from n // 2 on, as one replay of a block of Rows
            block = replay_units(log, n, n // 2, transpose=tr, inverse=inv)
            assert [[col.get(t, 0) for t in range(n)] for col in block] == transpose(M)[n // 2:]
    # the vectors are read, not changed
    assert (b, y) == (given_b, given_y)


def test_a_form_holds_only_its_logs():
    # no transform is built or cached: reading every transform through
    # replay leaves the form as the elimination made it
    A = deltas("torus", 1)[1]
    f = smith_normal_form(A)
    reference = dense_factors(f)
    before = {name: list(value) if isinstance(value, list) else value
              for name, value in vars(f).items()}
    r, c = f.shape
    for log, n in ((f.row_log, r), (f.col_log, c)):
        for tr in (False, True):
            for inv in (False, True):
                replay(log, [1] * n, transpose=tr, inverse=inv)
    assert set(vars(f)) == FIELDS and vars(f) == before
    assert dense_factors(f) == reference


def test_a_filled_t_reads_the_same_through_replay():
    # circle(2000)'s delta_0: the chained unit pivots fill T (939k
    # entries), while its log stays about as long as the circle
    X = circle(2000)
    system = delta_system(X, 0)
    f = system.form
    r, c = f.shape
    S, Sinv, T, Tinv = transforms(f)
    assert sum(map(len, T)) > 900_000 and len(f.col_log) < 3 * c
    # a coboundary solves to the reference's x0; a vector on one edge does
    # not, and the first row of S past the rank that sees it refutes it
    rng = random.Random(2000)
    x = [rng.randint(-5, 5) for _ in range(c)]
    b = [sum(a * x[t] for t, a in row.items()) for row in delta_table(X, 0)]
    sb = apply_rows(S, b)
    y = [v // d for v, d in zip(sb, f.diagonal[:f.rank])] + [0] * (c - f.rank)
    assert system.solve(b) == Solution(apply_cols(T, y, c))
    loop = [1] + [0] * (r - 1)
    got = system.solve(loop)
    i = next(i for i in range(f.rank, r) if sum(a * loop[t] for t, a in S[i].items()))
    assert got.ring == "Q" and got.functional == [S[i].get(t, 0) for t in range(r)]
    # the kernel: T's columns past the rank
    assert system.kernel == [[col.get(t, 0) for t in range(c)] for col in T[f.rank:]]
    # representatives in both degrees, and the classes they stand for
    for n in (0, 1):
        new = cohomology(X, n, INTEGERS)
        old = reference_cohomology.cohomology(X, n, INTEGERS)
        assert [g.vec for g in new.generators] == [g.vec for g in old.generators], n
        assert [new.classify(g) for g in new.generators] == [
            old.classify(g) for g in new.generators], n
