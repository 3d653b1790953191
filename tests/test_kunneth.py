"""Cohomology of products against the Kunneth formula, which never builds them.

For complexes of finite type the Kunneth theorem (Hatcher, Algebraic
Topology, Thm. 3B.6) gives

    H^n(X x Y; Z) = sum_{p+q=n} H^p(X) (x) H^q(Y)
                    + sum_{p+q=n+1} Tor(H^p(X), H^q(Y)).

kunneth reads only the factors' presentations, so it reads no transform
of any Smith form and never factors a coboundary of the product: it checks
the product's groups by code that shares nothing with their elimination
but the factors' own groups.
"""

from math import gcd

import pytest

from simdiff.cochains import INTEGERS
from simdiff.cohomology import GroupPresentation, cohomology
from simdiff.complexes import build_standard, circle, genus2, product, rp2, torus


def prime_powers(d: int) -> list[tuple[int, int]]:
    """d > 1 as its (prime, exponent) pairs."""
    out = []
    p = 2
    while p * p <= d:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if d > 1:
        out.append((d, 1))
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """The invariant factors, in divisor order, of the sum of Z/d over orders.

    Each Z/d splits into its primary parts; the largest invariant factor
    takes the largest power of every prime, the next the next largest, and
    so on.
    """
    powers: dict[int, list[int]] = {}
    for d in orders:
        for p, e in prime_powers(d):
            powers.setdefault(p, []).append(p ** e)
    factors: dict[int, int] = {}
    for p, qs in powers.items():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] = factors.get(i, 1) * q
    return tuple(sorted(factors.values()))


def tensor(G: GroupPresentation, H: GroupPresentation) -> tuple[int, list[int]]:
    """G (x) H as (free rank, cyclic orders): Z (x) Z/d = Z/d and
    Z/d (x) Z/e = Z/gcd(d, e)."""
    orders = ([d for d in G.torsion for _ in range(H.free_rank)]
              + [e for e in H.torsion for _ in range(G.free_rank)]
              + [gcd(d, e) for d in G.torsion for e in H.torsion])
    return G.free_rank * H.free_rank, orders


def tor(G: GroupPresentation, H: GroupPresentation) -> list[int]:
    """Tor(G, H) as cyclic orders: only torsion meets torsion."""
    return [gcd(d, e) for d in G.torsion for e in H.torsion]


def kunneth(X, Y, n: int) -> GroupPresentation:
    """H^n(X x Y; Z) from the presentations of H^*(X; Z) and H^*(Y; Z)."""
    HX = [cohomology(X, p, INTEGERS).presentation for p in range(X.top_dim + 1)]
    HY = [cohomology(Y, q, INTEGERS).presentation for q in range(Y.top_dim + 1)]
    free, orders = 0, []
    for p, G in enumerate(HX):
        for q, H in enumerate(HY):
            if p + q == n:
                rank, cyclic = tensor(G, H)
                free += rank
                orders += cyclic
            elif p + q == n + 1:
                orders += tor(G, H)
    return GroupPresentation(free_rank=free,
                             torsion=tuple(d for d in invariant_factors(orders) if d > 1))


def test_invariant_factors_merge_primary_parts():
    assert invariant_factors([]) == ()
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 2, 4]) == (2, 2, 4)
    assert invariant_factors([4, 6, 9]) == (6, 36)
    assert invariant_factors([1, 12, 18]) == (6, 36)


PRODUCTS = {
    "rp2xS1": (rp2, lambda: circle(3), ["Z", "Z", "Z/2", "Z/2"]),
    "T3": (torus, lambda: circle(3), ["Z", "Z^3", "Z^3", "Z"]),
    "genus2xS1": (genus2, lambda: circle(3), ["Z", "Z^5", "Z^5", "Z"]),
    "rp2xrp2": (rp2, rp2, ["Z", "0", "Z/2 + Z/2", "Z/2", "Z/2"]),
    "T4": (lambda: build_standard("T3"), lambda: circle(3), ["Z", "Z^4", "Z^6", "Z^4", "Z"]),
    "genus2xgenus2": (genus2, genus2, ["Z", "Z^8", "Z^18", "Z^8", "Z"]),
}


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_product_cohomology_is_the_kunneth_sum(name):
    build_x, build_y, expected = PRODUCTS[name]
    X, Y = build_x(), build_y()
    P = product(X, Y)
    oracle = [kunneth(X, Y, n) for n in range(P.top_dim + 2)]
    assert [str(G) for G in oracle] == expected + ["0"]
    assert [cohomology(P, n, INTEGERS).presentation for n in range(P.top_dim + 1)] == oracle[:-1]
