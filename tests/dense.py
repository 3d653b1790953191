"""Dense matrix helpers for the tests.

The package keeps its Smith form factors sparse and never multiplies dense
matrices; the tests build dense copies here to check them entry for entry
and to multiply solutions out.
"""

from simdiff.exact import SmithForm


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B) -> list[list]:
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * cols
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(B[k]):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def mat_vec(A, v) -> list:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def from_rows(vectors, n: int) -> list[list[int]]:
    return [[v.get(t, 0) for t in range(n)] for v in vectors]


def from_cols(vectors, n: int) -> list[list[int]]:
    return [[v.get(t, 0) for v in vectors] for t in range(n)]


def dense_factors(f: SmithForm) -> tuple:
    """(D, S, T, Sinv, Tinv) of f as dense lists of rows."""
    r, c = f.shape
    D = [[f.diagonal[i] if i == j else 0 for j in range(c)] for i in range(r)]
    return D, from_rows(f.S, r), from_cols(f.T, c), from_cols(f.Sinv, r), from_rows(f.Tinv, c)
