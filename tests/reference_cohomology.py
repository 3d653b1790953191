"""The eager cohomology group from before lazy image forms, kept as a reference.

CohomologyGroup is the package's class from before presentations were read
off the cached coboundary factorizations: its constructor builds the
cocycle basis, delta_{n-1} in kernel coordinates (Y), the Smith form of Y
and the free and torsion positions at once, and reads the presentation off
Y's diagonal.  The rational group copies the integral group's attributes.
The differential tests in test_presentations.py compare the package's
groups with these: presentations, representatives and classify.  The
transforms are the identity replays of dense.transforms, built once per
group, so the package's log replays are checked against code they do not
share.  The coboundaries are dense.full_delta, every row of delta_n
factored, not the package's cleared delta_system.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from simdiff.cochains import Cochain, Coefficients, INTEGERS, coboundary, delta_table
from simdiff.cohomology import GroupPresentation, cochain_of, vector_of
from simdiff.complexes import SimplicialSet
from simdiff.exact import smith_normal_form

from dense import apply_rows, delta_matrix, full_delta, transforms


class CohomologyGroup:
    """H^n(X; Z) (or Q) with representatives and coordinates.

    The integer computation is done once; the rational group reuses the
    integral group's factorizations and drops the torsion.
    """

    def __init__(self, X: SimplicialSet, n: int, coeffs: Coefficients):
        if coeffs.kind not in ("Z", "Q"):
            raise ValueError("cohomology groups are computed over Z or Q")
        if coeffs.kind == "Q":
            vars(self).update(vars(cohomology(X, n, INTEGERS)))
            self.coeffs = coeffs
            self.presentation = GroupPresentation(free_rank=len(self._free_pos))
            return
        self.complex = X
        self.degree = n
        self.coeffs = coeffs
        out = full_delta(X, n)
        # no generators one degree up leaves no form: everything is a cocycle
        self._snf_out = out.form
        # the transforms, replayed on the identity (dense.transforms), and
        # the cocycle basis: T's columns past the rank, or the unit basis
        c = len(X.generators(n))
        if out.form is None:
            self._kernel = [[int(i == j) for i in range(c)] for j in range(c)]
        else:
            self._out_transforms = transforms(out.form)
            self._kernel = [[col.get(t, 0) for t in range(c)]
                            for col in self._out_transforms[2][out.form.rank:]]
        z = len(self._kernel)
        # delta_{n-1} in kernel coordinates: the rows of Tinv past the rank
        # (the kernel's dual basis) times delta_{n-1}, row by row
        Y: list[list[int]] = []
        if n >= 1 and out.form is not None:
            faces = delta_table(X, n - 1)
            width = len(X.generators(n - 1))
            for dual in self._out_transforms[3][out.form.rank:]:
                y = [0] * width
                for t, a in dual.items():
                    for j, w in faces[t].items():
                        y[j] += a * w
                Y.append(y)
        elif n >= 1:
            Y = delta_matrix(X, n - 1)
        if z and Y and Y[0]:
            # with no generators one degree up the kernel basis is the unit
            # basis, so Y is delta_{n-1}, already factored by its system
            self._snf_img = (full_delta(X, n - 1).form if out.form is None
                             else smith_normal_form(Y))
            dia = self._snf_img.diagonal
            self._img_transforms = transforms(self._snf_img)
        else:
            self._snf_img = None
            dia = []
        self._img_diag = dia
        self._torsion_pos = [i for i, d in enumerate(dia) if d > 1]
        self._free_pos = [i for i in range(z) if i >= len(dia) or dia[i] == 0]
        self.presentation = GroupPresentation(
            free_rank=len(self._free_pos),
            torsion=tuple(dia[i] for i in self._torsion_pos))

    # -- internals ---------------------------------------------------------

    def _kernel_coords(self, vec: Sequence[int]) -> list[int]:
        """Coordinates of a cocycle vector in the kernel basis."""
        f = self._snf_out
        if f is None:
            return list(vec)
        u = apply_rows(self._out_transforms[3], vec)
        if any(u[:f.rank]):
            raise ValueError("vector is not a cocycle")
        return u[f.rank:]

    # -- public ------------------------------------------------------------

    @property
    def generators(self) -> list[Cochain]:
        """Representative cocycles: free summands first, then torsion."""
        out = []
        c = len(self.complex.generators(self.degree))
        for pos in self._free_pos + self._torsion_pos:
            # column pos of Sinv in the kernel basis
            u = self._img_transforms[1][pos] if self._snf_img is not None else {pos: 1}
            vec = [0] * c
            for i, a in u.items():
                for t, v in enumerate(self._kernel[i]):
                    if v:
                        vec[t] += a * v
            out.append(cochain_of(self.complex, self.degree, INTEGERS, vec))
        return out

    def classify(self, c: Cochain) -> tuple[tuple, tuple]:
        """(free coords, torsion coords) of a cocycle's class."""
        if not coboundary(c).is_zero():
            raise ValueError("classify expects a cocycle")
        vec = vector_of(c)
        if self.coeffs.kind == "Q":
            denom = lcm(*(Fraction(v).denominator for v in vec)) if vec else 1
            ivec = [int(Fraction(v) * denom) for v in vec]
        else:
            denom = 1
            ivec = [int(v) for v in vec]
        u = self._kernel_coords(ivec)
        w = apply_rows(self._img_transforms[0], u) if self._snf_img is not None else u
        if self.coeffs.kind == "Q":
            return tuple(Fraction(w[i], denom) for i in self._free_pos), ()
        free = tuple(w[i] for i in self._free_pos)
        torsion = tuple(w[i] % self._img_diag[i] for i in self._torsion_pos)
        return free, torsion

    def same_class(self, c1: Cochain, c2: Cochain) -> bool:
        return self.classify(c1) == self.classify(c2)


def cohomology(X: SimplicialSet, n: int, coeffs: Coefficients = INTEGERS) -> CohomologyGroup:
    token = ("reference-cohomology", n, coeffs)
    if token not in X._cache:
        X._cache[token] = CohomologyGroup(X, n, coeffs)
    return X._cache[token]
