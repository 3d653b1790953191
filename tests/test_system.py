"""The factor-once System against the one-shot solvers, sympy and itself.

Every Solution is checked by multiplying out A x = b, and every Obstruction
by Obstruction.check against the matrix that was factored, so neither
verdict is taken from the code that produced it.

Over Q the System solves through the integer Smith form.  The dense
Gauss-Jordan elimination it replaced is kept here as the reference.  Its
particular solutions and kernel bases differ from the System's, so the two
are compared by solution set: the same verdict, the same kernel dimension
(System.kernel against the echelon form's), and particular solutions that
differ by a kernel vector.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from simdiff import cochains, exact
from simdiff.cochains import (Cochain, INTEGERS, RATIONALS, coboundary_values,
                              mod_coefficients)
from simdiff.cohomology import delta_system
from simdiff.complexes import build_standard, circle, cylinder, product, sphere2, torus
from simdiff.diffhat import HatTheory
from simdiff.exact import (Coefficients, Obstruction, Solution, System, _lift, solve_int,
                           solve_mod, solve_rational)

import reference_pins as ref
from dense import delta_matrix, from_rows, mat_vec, transpose

RINGS = [INTEGERS, mod_coefficients(2), mod_coefficients(6), RATIONALS]


# -- the Q reference: dense Gauss-Jordan ---------------------------------------


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
    return Solution(x0)


def reference_solve_rational(A: Sequence[Sequence], b: Sequence) -> Solution | Obstruction:
    """All rational solutions of A x = b, or a functional with rA=0, rb!=0."""
    return solve_echelon(echelon_form(A), b)


def assert_same_rational_solutions(S: System, A, b, got) -> None:
    """got = S.solve(b) has the echelon reference's verdict and, for a
    Solution, its affine solution set: x0 plus S.kernel against the
    reference's."""
    f = echelon_form(A)
    ref = solve_echelon(f, b)
    assert type(got) is type(ref)
    if isinstance(got, Obstruction):
        assert got.ring == ref.ring == "Q"
        return
    kernel = S.kernel
    assert len(kernel) == len(f.kernel)
    if kernel:
        assert Matrix(kernel).rank() == len(kernel)
    diff = [a - b for a, b in zip(got.x0, ref.x0, strict=True)]
    # x0 - ref.x0 lies in the span of the kernel
    if kernel:
        assert isinstance(reference_solve_rational(transpose(kernel), diff), Solution)
    else:
        assert not any(diff)


def fixture_deltas() -> list[tuple[str, list[list[int]]]]:
    out = []
    for X in (circle(3), sphere2(), build_standard("rp2"), torus()):
        for n in range(X.top_dim):
            out.append((f"{X.name} delta{n}", delta_matrix(X, n)))
    return out


def pinned_torus_system() -> tuple[System, frozenset]:
    """The 351 x 81 closed-extension system HatTheory(torus, 1) used to
    factor (the pinned reference), and its pinned positions."""
    cyl2 = cylinder(torus(), 2)
    positions = ref.pin_positions(cyl2, (0, 1, 2), 2)
    return ref.pinned_system(cyl2.complex, 2, positions), positions


def residues(v, S: System) -> list:
    k = S.coeffs.modulus
    return [x % k for x in v] if k else list(v)


def verify(S: System, A, b, got) -> None:
    """Re-check a verdict without trusting the solver."""
    if isinstance(got, Obstruction):
        assert got.check(S.matrix, b)
        return
    assert isinstance(got, Solution)
    assert residues(mat_vec(A, got.x0), S) == residues(b, S)
    for v in S.kernel:
        assert not any(residues(mat_vec(A, v), S))


def one_shot(S: System, A, b):
    if S.coeffs.kind == "Z":
        return solve_int(A, b)
    if S.coeffs.kind == "Q":
        return solve_rational(A, b)
    return solve_mod(A, b, S.coeffs.modulus)


def check_against_one_shot(S: System, A, b):
    got = S.solve(b)
    ref = one_shot(S, A, b)
    if S.coeffs.kind == "Q":
        assert_same_rational_solutions(S, A, b, got)
    assert type(got) is type(ref)
    assert vars(got) == vars(ref)
    k = S.coeffs.modulus
    if k and isinstance(ref, Obstruction):
        # the one-shot Z/k certificate checks against the lift built here
        assert ref.ring == f"Z/{k}"
        assert ref.check(_lift(A, k), b)
    verify(S, A, b, got)
    return got


def right_hand_sides(A, rng: random.Random, count: int) -> list[list]:
    """Half images A x (solvable), half perturbed images (mostly not)."""
    c = len(A[0]) if A else 0
    out = []
    for i in range(count):
        b = mat_vec(A, [rng.randint(-3, 3) for _ in range(c)])
        if i % 2:
            j = rng.randrange(len(b))
            b[j] += rng.choice([1, -1, 2])
        out.append(b)
    return out


def test_fixture_deltas_agree_with_one_shot_solvers_in_every_ring():
    rng = random.Random(3)
    verdicts = {ring: set() for ring in RINGS}
    for _, A in fixture_deltas():
        for ring in RINGS:
            S = System(A, len(A[0]), ring)
            for b in right_hand_sides(A, rng, 6):
                if ring == RATIONALS and rng.random() < 0.5:
                    b = [Fraction(v, 2) for v in b]
                got = check_against_one_shot(S, A, b)
                verdicts[ring].add(type(got))
    for ring, seen in verdicts.items():
        assert seen == {Solution, Obstruction}, ring


@pytest.mark.parametrize("ring", [INTEGERS, RATIONALS, mod_coefficients(3)])
def test_sparse_and_dense_rows_give_the_same_answers(ring):
    # the same matrix as dense rows and as {column: entry} rows in shuffled
    # insertion order; over Q each row is divided by a small scale, so the
    # entries are Fractions and the rows' scale factors differ
    rng = random.Random(8)
    verdicts = set()
    for _, A in fixture_deltas():
        if ring == RATIONALS:
            A = [[Fraction(v, i % 3 + 1) for v in row] for i, row in enumerate(A)]
        rows = []
        for row in A:
            items = [(j, v) for j, v in enumerate(row) if v]
            rng.shuffle(items)
            rows.append(dict(items))
        c = len(A[0])
        dense, sparse = System(A, c, ring), System(rows, c, ring)
        assert sparse.form.diagonal == dense.form.diagonal
        assert sparse.columns == dense.columns
        assert sparse.kernel == dense.kernel
        for b in right_hand_sides(A, rng, 6):
            got, ref = sparse.solve(b), dense.solve(b)
            assert type(got) is type(ref) and vars(got) == vars(ref)
            if isinstance(got, Obstruction):
                assert got.check(sparse.matrix, b) and got.check(dense.matrix, b)
            else:
                assert residues(mat_vec(A, got.x0), sparse) == residues(b, sparse)
            verdicts.add(type(got))
    assert verdicts == {Solution, Obstruction}


def test_fixture_kernels_have_the_rank_sympy_gives():
    for name, A in fixture_deltas():
        rank = Matrix(A).rank()
        for ring in (INTEGERS, RATIONALS):
            S = System(A, len(A[0]), ring)
            assert S.form.rank == rank, (name, ring)
            assert len(S.kernel) == len(A[0]) - rank, (name, ring)


def test_rational_verdicts_match_sympy_ranks():
    rng = random.Random(5)
    for _, A in fixture_deltas():
        S = System(A, len(A[0]), RATIONALS)
        rank = Matrix(A).rank()
        for b in right_hand_sides(A, rng, 4):
            solvable = Matrix(A).row_join(Matrix(b)).rank() == rank
            assert isinstance(S.solve(b), Solution) == solvable


def test_cached_diagonal_matches_sympy():
    cases = fixture_deltas() + [("torus pinned", pinned_torus_system()[0].matrix)]
    for name, A in cases:
        S = System(A, len(A[0]), INTEGERS)
        ours = sorted(d for d in S.form.diagonal if d)
        D = sympy_snf(Matrix(A), domain=ZZ)
        theirs = sorted(abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i])
        assert ours == theirs, name


def test_pinned_torus_system_solves_random_right_hand_sides():
    S, pins = pinned_torus_system()
    A = S.matrix
    assert (len(S.rows), len(S.cols)) == (351, 81)
    rng = random.Random(11)
    verdicts = set()
    for i, b in enumerate(right_hand_sides(A, rng, 12)):
        # the one-shot solver refactors the matrix, so compare it on a few
        got = check_against_one_shot(S, A, b) if i < 3 else S.solve(b)
        verify(S, A, b, got)
        verdicts.add(type(got))
    assert verdicts == {Solution, Obstruction}


def test_pin_table_moves_known_values_like_the_dense_matrix():
    # the right-hand side of a pinned solve is -delta of the pinned cochain:
    # the known values times the pinned columns of the dense matrix, moved
    S, pins = pinned_torus_system()
    P = cylinder(torus(), 2).complex
    D = delta_matrix(P, 2)
    rng = random.Random(2)
    known = {p: rng.randint(-2, 2) for p in pins}
    vec = [known.get(p, 0) for p in range(len(P.generators(2)))]
    b = [-v for v in coboundary_values(Cochain(P, 2, INTEGERS, dict(zip(P.generators(2), vec))))]
    dense = [-sum(D[q][p] * v for p, v in known.items()) for q in S.rows]
    assert S.rows == list(range(len(P.generators(3))))
    assert b == dense
    # and S's columns are the positions left free, in order
    assert S.cols == [p for p in range(len(P.generators(2))) if p not in pins]
    assert S.matrix == [[D[q][p] for p in S.cols] for q in S.rows]


def test_delta_systems_are_cached_by_degree_and_ring():
    Y = cylinder(circle(3), 1).complex
    Z = delta_system(Y, 1)
    assert delta_system(Y, 1, INTEGERS) is Z
    assert delta_system(Y, 1, RATIONALS) is not Z
    assert delta_system(Y, 1, mod_coefficients(2)).coeffs == mod_coefficients(2)
    assert delta_system(Y, 2) is not Z
    assert Z.width == len(Y.generators(1))
    # the rows come sparse, {column: entry}, and hold delta's matrix
    assert all(type(row) is dict for row in Z.matrix)
    assert from_rows(Z.matrix, Z.width) == delta_matrix(Y, 1)


def test_systems_are_cached_by_degree_pins_and_ring():
    # the pinned systems of the reference path
    S, pins = pinned_torus_system()
    P = cylinder(torus(), 2).complex
    assert ref.pinned_system(P, 2, frozenset(sorted(pins))) is S
    Y = cylinder(circle(3), 1).complex
    ends = frozenset(p for p, g in enumerate(Y.generators(1)) if len(g[2]) == 1)
    Z = ref.pinned_system(Y, 1, ends)
    assert ref.pinned_system(Y, 1, frozenset(set(ends))) is Z
    assert ref.pinned_system(Y, 1, ends, RATIONALS) is not Z
    assert ref.pinned_system(Y, 1, ends, mod_coefficients(2)).coeffs == mod_coefficients(2)
    assert ref.pinned_system(Y, 1) is not Z
    assert len(ref.pinned_system(Y, 1).cols) == len(Z.cols) + len(ends)
    # dropped equations are positions one degree up, a key of their own
    tops = frozenset(range(0, len(Y.generators(2)), 2))
    W = ref.pinned_system(Y, 1, ends, dropped=tops)
    assert W is not Z and ref.pinned_system(Y, 1, ends, INTEGERS, tops) is W
    assert W.rows == [q for q in Z.rows if q not in tops] and W.cols == Z.cols


def test_a_solve_leaves_the_kernel_unbuilt():
    # the kernel is dense, so only a reader of System.kernel builds it
    for ring in RINGS:
        for _, A in fixture_deltas()[:3]:
            S = System(A, len(A[0]), ring)
            S.solve([0] * len(A))
            S.solve(mat_vec(A, [1] * len(A[0])))
            assert "kernel" not in vars(S)
    # nor does a class comparison, on a fresh torus no other test has read
    T = HatTheory(product(circle(3), circle(3), name="torus"), 1)
    G = T.groupoid
    rng = random.Random(4)
    x = T.hat(G.random_object(rng))
    assert T.compare(x, x).equal
    assert not T.compare(x, T.from_form(Cochain(T.carrier, 0, RATIONALS, {
        T.carrier.generators(0)[0]: Fraction(1, 2)}))).equal
    # and it factors no system on X x Delta^2 at all: it solves in the
    # base's coboundary systems, and only HatTheory's own read of the
    # cocycles below the degree builds a kernel there
    P = cylinder(T.base, 2).complex
    assert not any(token[0] == "system" for token in P._cache)
    base = {token[1]: S for token, S in T.base._cache.items() if token[0] == "system"}
    assert base and all(("kernel" in vars(S)) == (n == T.degree - 1) for n, S in base.items())


def test_one_ring_object_serves_every_layer():
    assert cochains.Coefficients is exact.Coefficients
    assert cochains.INTEGERS is exact.INTEGERS and cochains.RATIONALS is exact.RATIONALS
    assert cochains.mod_coefficients is exact.mod_coefficients
    assert delta_system(circle(3), 0, RATIONALS).coeffs is RATIONALS


def test_ring_kind_is_validated():
    with pytest.raises(ValueError):
        System([[1]], 1, Coefficients("R"))


def test_mod_obstruction_is_a_checkable_certificate():
    S = System([[2]], 1, mod_coefficients(4))
    got = S.solve([1])
    assert isinstance(got, Obstruction) and got.ring == "Z/4"
    assert got.check(S.matrix, [1])
    assert solve_mod([[2]], [1], 4) == got


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from(RINGS),
       st.randoms(use_true_random=False))
def test_random_matrices_agree_with_one_shot_solvers(r, c, ring, rng):
    A = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(c)] for _ in range(r)]
    S = System(A, c, ring)
    for b in right_hand_sides(A, rng, 4):
        check_against_one_shot(S, A, b)


FRACTIONS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3),
                             Fraction(3, 4), Fraction(-5, 6)])


@st.composite
def rational_systems(draw):
    """A Fraction matrix, some rows and columns zeroed, and a right-hand side."""
    r = draw(st.integers(1, 5))
    c = draw(st.integers(0, 5))
    A = [[draw(FRACTIONS) for _ in range(c)] for _ in range(r)]
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        A[i] = [0] * c
    for j in draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=2)) if c else ():
        for row in A:
            row[j] = 0
    return A, [draw(FRACTIONS) for _ in range(r)]


@settings(max_examples=150, deadline=None)
@given(rational_systems(), st.randoms(use_true_random=False))
@example(([[0, 0, 0]], [1]), random.Random(0))
@example(([[Fraction(1, 2), 0, Fraction(1, 3)]], [Fraction(1, 5)]), random.Random(0))
@example(([[0], [Fraction(2, 3)]], [0, 1]), random.Random(0))
@example(([[1, 0], [0, 0]], [1, 0]), random.Random(0))
@example(([[], []], [0, Fraction(1, 2)]), random.Random(0))
def test_rational_systems_with_fraction_entries(system, rng):
    A, b = system
    c = len(A[0])
    S = System(A, c, RATIONALS)
    assert S.form.rank == Matrix(A).rank()
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)]
    assert isinstance(check_against_one_shot(S, A, mat_vec(A, x)), Solution)
    check_against_one_shot(S, A, b)


def test_a_rational_system_builds_its_factored_matrix_once(monkeypatch):
    calls = []
    real = System._factored

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(System, "_factored", counting)
    # torus delta1 with row i divided by i % 4 + 1: Fraction entries, and
    # rows whose scale factors differ
    A = [[Fraction(v, i % 4 + 1) for v in row] for i, row in enumerate(delta_matrix(torus(), 1))]
    S = System(A, len(A[0]), RATIONALS)
    x = [Fraction(j % 3 - 1, j % 2 + 1) for j in range(len(A[0]))]
    assert isinstance(check_against_one_shot(S, A, mat_vec(A, x)), Solution)
    assert calls.count(S) == 1
    dense = [[v * m for v in row] for row, m in zip(S.matrix, S._scale)]
    assert S.columns == [{i: int(v) for i, v in enumerate(col) if v} for col in zip(*dense)]


def test_ten_compares_factor_each_base_matrix_once(monkeypatch):
    shapes = []
    real = exact.smith_normal_form

    def counting(A, width=None):
        # System hands its rows over with their width
        shapes.append((len(A), width))
        return real(A, width)

    monkeypatch.setattr(exact, "smith_normal_form", counting)
    # a fresh torus, so no earlier test has factored its systems
    T = HatTheory(product(circle(3), circle(3), name="torus"), 1)
    G = T.groupoid
    rng = random.Random(7)
    decisions = []
    for i in range(10):
        x = T.hat(G.random_object(rng))
        m = G.random_morphism(x.obj, rng)
        shift = T.character.on_morphism(m)
        y = T.hat(m.target, (-shift) if i % 2 == 0 else shift.scale(Fraction(1, 2)))
        decisions.append(T.compare(x, y).equal)
    # the 351 x 81 pinned system on torus x Delta^2 is gone: every matrix
    # factored is one of the base's, each once
    assert (351, 81) not in shapes
    assert all(r <= 27 and c <= 27 for r, c in shapes)
    assert len(shapes) == len(set(shapes))
    assert all(decisions[::2])
