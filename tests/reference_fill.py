"""Reference for the compiled horn filler: Moore's iterative loop.

This is the loop em.moore_fill ran on every call before the filler was
compiled to one cached linear plan per horn shape.  It reads the group's
face, degeneracy and zero, builds a Cochain per step, and serves as the
oracle that the compiled plan must match entry for entry.

groupoid_fill is MappingGroupoid._fill as it was before level-3 fills
evaluated only their missing face: the whole filler, perturbed as a
whole, and then that face read off it.
"""

from simdiff.cochains import Cochain
from simdiff.em import SimplicialGroup
from simdiff.groupoid import MappingGroupoid, _covering


def moore_fill(G: SimplicialGroup, m: int, missing: int,
               faces: dict[int, Cochain], *, face_only: bool = False) -> Cochain:
    """Deterministic filler for the horn with the given faces.

    faces maps each j != missing to the required d_j of the result.
    Incompatible faces raise with the first violated identity.  With
    face_only set the result is the filler's face d_missing, read off the
    whole filler.  Nothing is memoized.
    """
    if m not in (2, 3):
        raise ValueError("horn filling is supported for levels 2 and 3")
    if not 0 <= missing <= m:
        raise ValueError(f"missing face index {missing} out of range")
    expected = [j for j in range(m + 1) if j != missing]
    if sorted(faces) != expected:
        raise ValueError(f"horn needs exactly faces {expected}")
    for j in expected:
        for l in expected:
            if j < l and G.face(faces[j], l - 1) != G.face(faces[l], j):
                raise ValueError(
                    f"incompatible horn: d_{l - 1} x_{j} != d_{j} x_{l}")
    w = G.zero(m)
    for j in range(missing):
        w = w + G.degeneracy(faces[j] - G.face(w, j), j)
    for j in range(m, missing, -1):
        w = w + G.degeneracy(faces[j] - G.face(w, j), j - 1)
    return G.face(w, missing) if face_only else w


def groupoid_fill(g: MappingGroupoid, missing: int, faces: dict[int, Cochain]) -> Cochain:
    """Face ``missing`` of the level-3 filler of the groupoid's horn, plus
    an interior coboundary on the whole filler under perturbation."""
    M = g.maps
    w = moore_fill(M, 3, missing, faces)
    if g.perturb is not None and _covering(M.level_complex(3), g.degree,
                                           frozenset(range(4)) - {missing}):
        w = w + g._interior_coboundary(3, g.perturb, keep=missing)
    return M.face(w, missing)
