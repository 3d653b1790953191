"""Dense matrix helpers for the tests.

The package keeps its Smith form factors and coboundaries sparse and never
multiplies dense matrices; the tests build dense copies here to check them
entry for entry and to multiply solutions out.  invariant_factors and
kernel_mod_prime are the tests' own readings of a matrix's Smith diagonal
and of its rank mod p; delta_matrix, transpose and kernel_int are the dense
readings the package once made itself.

transforms is the reference reading of a Smith form's logs: the package
once held S, Sinv, T and Tinv as the logs replayed on the identity, and
now reads them only through exact.replay on one vector at a time.  The
identity replay is kept here, as it was, so every check of D = S A T, of
the inverses and of replay itself has a reference that shares no code
with replay.
"""

from simdiff.cochains import delta_table
from simdiff.exact import SmithForm, Sparse, smith_normal_form


def _axpy(dst: dict[int, int], src, q: int) -> None:
    """dst += q * src, dropping the entries that cancel."""
    for t, v in src.items():
        w = dst.get(t, 0) + q * v
        if w:
            dst[t] = w
        else:
            del dst[t]


def _replay(n: int, log, inverse: bool) -> Sparse:
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


def transforms(f: SmithForm) -> tuple[Sparse, Sparse, Sparse, Sparse]:
    """(S, Sinv, T, Tinv) of f, replayed on the identity: S and Tinv as
    sparse rows {column: entry}, Sinv and T as sparse columns {row: entry}."""
    r, c = f.shape
    return (_replay(r, f.row_log, False), _replay(r, f.row_log, True),
            _replay(c, f.col_log, False), _replay(c, f.col_log, True))


def apply_rows(M: Sparse, v) -> list:
    """M v for M held as sparse rows {column: entry}."""
    return [sum(a * v[t] for t, a in row.items()) for row in M]


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
    return [[col.get(t, 0) for t in range(f.shape[1])] for col in transforms(f)[2][f.rank:]]


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
    S, Sinv, T, Tinv = transforms(f)
    return D, from_rows(S, r), from_cols(T, c), from_cols(Sinv, r), from_rows(Tinv, c)


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
