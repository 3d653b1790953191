"""Degeneracy-word algebra for simplicial sets.

Every simplex has a unique presentation ``s_{a_r} ... s_{a_1} y`` with ``y``
nondegenerate and ``a_1 < ... < a_r`` (the Eilenberg-Zilber lemma).  A *word*
is that strictly increasing tuple, listing degeneracies innermost first.  The
two operations here push a new degeneracy or a face operator through a word,
using the simplicial identities

    s_i s_j = s_{j+1} s_i          (i <= j)
    d_i s_j = s_{j-1} d_i          (i < j)
    d_i s_j = id                   (i = j or i = j+1)
    d_i s_j = s_j d_{i-1}          (i > j+1)

Words correspond to monotone surjections of finite ordinals; the conversion
helpers at the bottom exist so tests can check the algebra against plain
composition of vertex maps.

The five word operations are pure and are cached here, once, with
functools.cache; every product build, face and structure map reads them
through that cache, and no caller keeps a word memo of its own.  The
caches are keyed by words and small ints, so they are bounded by the
dimensions in use (a word on an m-simplex is a subset of {0..m-1}), not by
how many complexes a process builds.  They return tuples only, so a shared
entry cannot be mutated.  check_word is not cached: it validates input and
raises.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterator

Word = tuple[int, ...]


def check_word(word: Word, base_dim: int | None = None) -> None:
    """Validate strict monotonicity; with base_dim, also entry bounds.

    Entry a_t is applied to a simplex of dimension base_dim + t - 1, so it
    must not exceed that.
    """
    prev = -1
    for t, a in enumerate(word):
        if a <= prev:
            raise ValueError(f"word {word} is not strictly increasing")
        if base_dim is not None and a > base_dim + t:
            raise ValueError(f"entry {a} of {word} exceeds dimension {base_dim + t}")
        prev = a


@cache
def compose_degeneracy(word: Word, j: int) -> Word:
    """Canonical word of the composite s_j s_word (s_j outermost).

    s_j commutes inward past every entry >= j, bumping each by one, and
    settles in front of the first smaller entry.
    """
    k = 0
    while k < len(word) and word[k] < j:
        k += 1
    return word[:k] + (j,) + tuple(a + 1 for a in word[k:])


@cache
def apply_word(word: Word, extra: Word) -> Word:
    """Canonical word of s_extra s_word (extra applied on top, innermost first)."""
    for a in extra:
        word = compose_degeneracy(word, a)
    return word


@cache
def apply_face(word: Word, i: int) -> tuple[Word, int | None]:
    """Push d_i through s_word: d_i s_word = s_word' (d_residual).

    Returns (word', residual); residual is None when the face cancels
    against one of the degeneracies.  The face meets the outermost
    (largest) entry first.
    """
    collected: list[int] = []
    remaining = list(word)
    face: int | None = i
    while remaining:
        a = remaining.pop()
        if face < a:
            collected.append(a - 1)
        elif face == a or face == a + 1:
            face = None
            break
        else:
            collected.append(a)
            face -= 1
    out = tuple(remaining)
    for j in reversed(collected):
        out = compose_degeneracy(out, j)
    return out, face


@cache
def surjection_of_word(word: Word, m: int) -> tuple[int, ...]:
    """Vertex map [m] -> [m - len(word)] of the codegeneracy composite."""
    values = list(range(m + 1))
    for a in reversed(word):
        values = [v if v <= a else v - 1 for v in values]
    return tuple(values)


@cache
def word_of_surjection(theta: tuple[int, ...]) -> Word:
    """Inverse of surjection_of_word: collect the positions of repeats."""
    return tuple(i for i in range(len(theta) - 1) if theta[i] == theta[i + 1])


def monotone_surjections(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """All monotone surjections [m] -> [k], enumerated by their repeat sets."""
    if k > m or k < 0:
        return
    for repeats in combinations(range(m), m - k):
        values = []
        v = 0
        for i in range(m + 1):
            values.append(v)
            if i not in repeats:
                v += 1
        yield tuple(values)
