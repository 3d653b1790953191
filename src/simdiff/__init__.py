"""Exact simplicial models for differential cohomology.

Finite simplicial sets with degeneracy bookkeeping, normalized cochains over
exact coefficients, Eilenberg-MacLane mapping groupoids whose cells are
written in closed form, a lifted Chern character with integration
witnesses, and the resulting hat-groups with their exactness certificates.

The package is single-threaded; caches are unlocked.  Complexes memoize
their coboundary matrices and factored linear systems, so share a complex
between threads only behind a lock of your own.
"""

__version__ = "0.1.0"
