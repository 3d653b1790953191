"""Dense matrix helpers for the tests.

The package keeps its Smith form factors and coboundaries sparse and never
multiplies dense matrices; the tests build dense copies here to check them
entry for entry and to multiply solutions out.  invariant_factors and
kernel_mod_prime are the tests' own readings of a matrix's Smith diagonal
and of its rank mod p; delta_matrix, transpose and kernel_int are the dense
readings the package once made itself.
"""

from simdiff.cochains import delta_table
from simdiff.exact import SmithForm, smith_normal_form


def delta_matrix(X, n: int) -> list[list[int]]:
    """Matrix of delta: C^n -> C^{n+1}; rows index (n+1)-generators."""
    width = len(X.generators(n))
    rows = []
    for sparse in delta_table(X, n):
        row = [0] * width
        for p, a in sparse.items():
            row[p] = a
        rows.append(row)
    return rows


def transpose(A) -> list[list]:
    return [list(col) for col in zip(*A)] if A else []


def kernel_int(A) -> list[list[int]]:
    """A basis of the integer solutions of A x = 0: the columns of T past
    the rank of A's Smith form."""
    if not A:
        return []
    f = smith_normal_form(A)
    return [[col.get(t, 0) for t in range(f.shape[1])] for col in f.T[f.rank:]]


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


def invariant_factors(A) -> list[int]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    if not A or not A[0]:
        return []
    return [d for d in smith_normal_form(A).diagonal if d]


def kernel_mod_prime(A, p: int) -> list[list[int]]:
    """Basis of the kernel of A over the field Z/p (p prime), by dense
    Gauss-Jordan elimination: a rank oracle that shares no code with the
    Smith form."""
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
