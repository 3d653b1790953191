"""Reference for the horn filler: Moore's iterative loop.

moore_fill reads the group's face, degeneracy and zero, builds a Cochain
per step, and serves as the oracle that em.moore_fill must match entry for
entry and message for message.  It is written apart from the package, so
a change to em.moore_fill cannot change the oracle with it.

groupoid_fill fills a level-3 horn of a mapping groupoid the way the
groupoid once built every structural cell: the whole filler, perturbed as
a whole by an interior coboundary, and then its missing face read off it.
FillGroupoid is the mapping groupoid whose operations are those fill
recipes; MappingGroupoid writes each one out in closed form, and must
give the same representatives and leave its perturbation Random in the
same state.
"""

from simdiff.cochains import Cochain, coboundary, pullback
from simdiff.em import SimplicialGroup
from simdiff.groupoid import (HomotopyClass, Homotopy2, MapObject, MappingGroupoid,
                              _covering)


def moore_fill(G: SimplicialGroup, m: int, missing: int,
               faces: dict[int, Cochain]) -> Cochain:
    """Deterministic filler for the horn with the given faces.

    faces maps each j != missing to the required d_j of the result.
    Incompatible faces raise with the first violated identity.
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
    return w


def groupoid_fill(g: MappingGroupoid, missing: int, faces: dict[int, Cochain]) -> Cochain:
    """Face ``missing`` of the level-3 filler of the groupoid's horn, plus
    an interior coboundary on the whole filler under perturbation."""
    M = g.maps
    w = moore_fill(M, 3, missing, faces)
    if g.perturb is not None and _covering(M.level_complex(3), g.degree,
                                           frozenset(range(4)) - {missing}):
        w = w + g._interior_coboundary(3, g.perturb, keep=missing)
    return M.face(w, missing)


class FillGroupoid(MappingGroupoid):
    """MappingGroupoid with every structural cell built by Moore horn fills."""

    def compose(self, first: HomotopyClass, second: HomotopyClass) -> HomotopyClass:
        if first.target != second.source:
            raise ValueError("middle objects differ")
        face = groupoid_fill(self, 2, {0: self.maps.zero(2),
                                       1: second.rep.data,
                                       3: first.rep.data})
        return HomotopyClass(Homotopy2(first.source, second.target, face))

    def inverse(self, c: HomotopyClass) -> HomotopyClass:
        f = c.source
        face = groupoid_fill(self, 1, {0: self.maps.zero(2),
                                       2: self.maps.degeneracy(f.data, 1),
                                       3: c.rep.data})
        return HomotopyClass(Homotopy2(c.target, f, face))

    def oplus_objects(self, f: MapObject, g: MapObject) -> tuple[MapObject, Cochain]:
        sigma = moore_fill(self.maps, 2, 1, {0: g.data, 2: f.data})
        return MapObject(self, self.maps.face(sigma, 1)), sigma

    def oplus_morphisms(self, left: HomotopyClass,
                        right: HomotopyClass) -> HomotopyClass:
        M = self.maps
        f0, g0 = left.source, left.target
        f1, g1 = right.source, right.target
        src, sigma = self.oplus_objects(f0, f1)
        tgt, _ = self.oplus_objects(g0, g1)
        s0f1 = M.degeneracy(f1.data, 0)
        tau = groupoid_fill(self, 2, {0: s0f1, 1: sigma, 3: M.degeneracy(f0.data, 1)})
        half = groupoid_fill(self, 1, {0: M.degeneracy(f1.data, 1),
                                       2: left.rep.data + s0f1,
                                       3: tau})
        lower = groupoid_fill(self, 2, {0: M.zero(2),
                                        1: M.degeneracy(g0.data, 1) + right.rep.data,
                                        3: half})
        return HomotopyClass(Homotopy2(src, tgt, lower))

    def left_unitor(self, f: MapObject) -> HomotopyClass:
        M = self.maps
        src, sigma = self.oplus_objects(self.unit(), f)
        face = groupoid_fill(self, 1, {0: M.degeneracy(f.data, 1),
                                       2: M.degeneracy(f.data, 0),
                                       3: sigma})
        return HomotopyClass(Homotopy2(src, f, face))

    def right_unitor(self, f: MapObject) -> HomotopyClass:
        M = self.maps
        src, sigma = self.oplus_objects(f, self.unit())
        face = groupoid_fill(self, 2, {0: M.zero(2),
                                       1: M.degeneracy(f.data, 1),
                                       3: sigma})
        return HomotopyClass(Homotopy2(src, f, face))

    def associator(self, a: MapObject, b: MapObject, c: MapObject) -> HomotopyClass:
        M = self.maps
        ab, _ = self.oplus_objects(a, b)
        src, sig_ab_c = self.oplus_objects(ab, c)
        bc, _ = self.oplus_objects(b, c)
        tgt, sig_a_bc = self.oplus_objects(a, bc)
        tau = groupoid_fill(self, 2, {0: M.degeneracy(c.data, 0),
                                      1: sig_ab_c,
                                      3: M.degeneracy(ab.data, 1)})
        x2 = sig_a_bc + M.degeneracy(b.data, 1) - M.degeneracy(b.data, 0)
        kappa = groupoid_fill(self, 1, {0: M.degeneracy(c.data, 1), 2: x2, 3: tau})
        return HomotopyClass(Homotopy2(src, tgt, kappa))

    def from_square(self, K: Cochain) -> HomotopyClass:
        if not coboundary(K).is_zero():
            raise ValueError("square data must be closed")
        bottom, top, near, far = self.square_faces(K)
        if not near.is_zero() or not far.is_zero():
            raise ValueError("square data must vanish on both vertical ends")
        _, lower, upper, diag = self._square_maps()
        source = MapObject(self, bottom)
        target = MapObject(self, top)
        mid = MapObject(self, pullback(diag, K))
        M = self.maps
        first = HomotopyClass(Homotopy2(source, mid, pullback(lower, K)))
        face = groupoid_fill(self, 1, {0: M.degeneracy(target.data, 1),
                                       2: M.degeneracy(target.data, 0),
                                       3: pullback(upper, K)})
        second = HomotopyClass(Homotopy2(mid, target, face))
        return self.compose(first, second)
