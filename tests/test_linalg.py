import random

from fractions import Fraction

from simdiff.exact import (Obstruction, Solution, System, smith_normal_form, solve_int,
                           solve_mod, solve_rational)

from dense import (dense_factors, identity_matrix, invariant_factors, kernel_int,
                   kernel_mod_prime, mat_mul, mat_vec)


def random_matrix(rng, r, c, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def check_smith(A):
    f = smith_normal_form(A)
    r, c = len(A), len(A[0])
    assert f.shape == (r, c)
    D, S, T, Sinv, Tinv = dense_factors(f)
    assert mat_mul(mat_mul(S, A), T) == D
    assert mat_mul(S, Sinv) == identity_matrix(r)
    assert mat_mul(T, Tinv) == identity_matrix(c)
    diag = f.diagonal
    assert len(diag) == min(r, c)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return f


def test_smith_hand_examples():
    assert invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert invariant_factors([[1, 2], [3, 4]]) == [1, 2]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[0, 0], [0, 0]]) == []


def test_smith_random_properties():
    rng = random.Random(23)
    for _ in range(40):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        check_smith(random_matrix(rng, r, c))


def test_solve_int_simple():
    res = solve_int([[2]], [3])
    assert isinstance(res, Obstruction)
    assert res.check([[2]], [3])
    res = solve_int([[2]], [6])
    assert isinstance(res, Solution)
    assert res.x0 == [3]


def test_solve_int_kernel():
    res = solve_int([[1, 1]], [0])
    assert isinstance(res, Solution)
    kernel = System([[1, 1]], [0], [0, 1]).kernel
    assert len(kernel) == 1
    (k,) = kernel
    assert k[0] + k[1] == 0 and abs(k[0]) == 1


def test_solve_int_random():
    rng = random.Random(31)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, r, c)
        x = [rng.randint(-3, 3) for _ in range(c)]
        b = mat_vec(A, x)
        res = solve_int(A, b)
        assert isinstance(res, Solution)
        assert mat_vec(A, res.x0) == b
        for k in System(A, range(r), range(c)).kernel:
            assert all(v == 0 for v in mat_vec(A, k))


def test_solve_int_obstructions_verify():
    rng = random.Random(37)
    found = 0
    while found < 10:
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        A = random_matrix(rng, r, c)
        b = [rng.randint(-6, 6) for _ in range(r)]
        res = solve_int(A, b)
        if isinstance(res, Obstruction):
            assert res.check(A, b)
            found += 1


def test_solve_rational():
    res = solve_rational([[2]], [3])
    assert isinstance(res, Solution)
    assert res.x0 == [Fraction(3, 2)]
    res = solve_rational([[1, 1], [1, 1]], [1, 2])
    assert isinstance(res, Obstruction)
    assert res.check([[1, 1], [1, 1]], [1, 2])


def test_solve_rational_random():
    rng = random.Random(41)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, r, c)
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(c)]
        b = mat_vec(A, x)
        res = solve_rational(A, b)
        assert isinstance(res, Solution)
        assert mat_vec(A, res.x0) == b
        for k in System(A, range(r), range(c), "Q").kernel:
            assert all(v == 0 for v in mat_vec(A, k))


def test_kernel_int_saturated():
    # kernel of [[2, -2]] over Z contains (1,1), not just (2,2)
    kb = kernel_int([[2, -2]])
    assert len(kb) == 1
    assert sorted(map(abs, kb[0])) == [1, 1]


def test_kernel_mod_prime():
    kb = kernel_mod_prime([[1, 1]], 2)
    assert kb == [[1, 1]]
    kb = kernel_mod_prime([[2, 0], [0, 1]], 2)
    assert kb == [[1, 0]]


def test_solve_mod():
    res = solve_mod([[2]], [1], 4)
    assert res is None
    res = solve_mod([[3]], [1], 4)
    assert isinstance(res, Solution)
    assert (3 * res.x0[0]) % 4 == 1
    res = solve_mod([[2]], [2], 4)
    assert isinstance(res, Solution)
    assert (2 * res.x0[0]) % 4 == 2
    kernel = System([[2]], [0], [0], "Zmod", 4).kernel
    assert any((2 * k[0]) % 4 == 0 and k[0] % 4 for k in kernel)

