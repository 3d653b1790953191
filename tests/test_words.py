"""Degeneracy-word algebra against the monotone-surjection model.

A word is faithfully a monotone surjection of ordinals; both operations are
checked exhaustively against plain composition of vertex maps for all small
dimensions.  The word operations and the word-keyed helpers built on them
are cached at module level: the caches must stop growing once the words of
a workload's dimensions are in, and a cached answer must equal a fresh one
and be immutable.
"""

import sys
from itertools import combinations
from pathlib import Path

import pytest

from simdiff import cochains, complexes, words
from simdiff.words import (
    apply_face,
    apply_word,
    check_word,
    compose_degeneracy,
    monotone_surjections,
    surjection_of_word,
    word_of_surjection,
)


def test_known_identities():
    # d_0 s_0 = id
    assert apply_face((0,), 0) == ((), None)
    # d_2 s_0 = s_0 d_1
    assert apply_face((0,), 2) == ((0,), 1)
    # d_0 s_1 = s_0 d_0
    assert apply_face((1,), 0) == ((0,), 0)
    # d_0 s_2 s_0 = s_1 (cancellation after one commutation)
    assert apply_face((0, 2), 0) == ((1,), None)


def test_compose_degeneracy_ordering():
    assert compose_degeneracy((), 0) == (0,)
    assert compose_degeneracy((0,), 0) == (0, 1)   # s_0 s_0 = s_1 s_0
    assert compose_degeneracy((0,), 2) == (0, 2)
    assert compose_degeneracy((1, 3), 2) == (1, 2, 4)


def test_check_word_rejects():
    with pytest.raises(ValueError):
        check_word((1, 1))
    with pytest.raises(ValueError):
        check_word((2, 1))
    with pytest.raises(ValueError):
        check_word((-1,))
    with pytest.raises(ValueError):
        check_word((0, 3), base_dim=1)  # entry 3 applied at dimension 2
    check_word((0, 2), base_dim=1)


def _sigma(j, m):
    """Vertex map of the codegeneracy [m+1] -> [m]."""
    return tuple(v if v <= j else v - 1 for v in range(m + 2))


def _delta(i, m):
    """Vertex map of the coface [m-1] -> [m]."""
    return tuple(v if v < i else v + 1 for v in range(m))


def _compose(outer, inner):
    return tuple(outer[v] for v in inner)


@pytest.mark.parametrize("m", range(1, 7))
def test_word_surjection_round_trip(m):
    for k in range(m + 1):
        for theta in monotone_surjections(m, k):
            word = word_of_surjection(theta)
            check_word(word, base_dim=k)
            assert surjection_of_word(word, m) == theta


@pytest.mark.parametrize("m", range(1, 6))
def test_compose_degeneracy_exhaustive(m):
    for k in range(m + 1):
        for theta in monotone_surjections(m, k):
            word = word_of_surjection(theta)
            for j in range(m + 1):
                composite = _compose(theta, _sigma(j, m))
                assert compose_degeneracy(word, j) == word_of_surjection(composite)


@pytest.mark.parametrize("m", range(1, 6))
def test_apply_face_exhaustive(m):
    for k in range(m + 1):
        for theta in monotone_surjections(m, k):
            word = word_of_surjection(theta)
            for i in range(m + 1):
                f = _compose(theta, _delta(i, m))
                missing = [v for v in range(k + 1) if v not in f]
                got_word, got_residual = apply_face(word, i)
                if missing:
                    assert len(missing) == 1
                    mv = missing[0]
                    g = tuple(v if v < mv else v - 1 for v in f)
                    assert got_residual == mv
                    assert got_word == word_of_surjection(g)
                else:
                    assert got_residual is None
                    assert got_word == word_of_surjection(f)


def test_apply_word_stacks_innermost_first():
    # s_1 s_0 applied to an edge vertexwise: double the middle then the front
    assert apply_word((), (0, 1)) == (0, 1)
    assert apply_word((0,), (0, 2)) == (0, 1, 2)


# -- the module-level caches -------------------------------------------------

CACHED = (words.compose_degeneracy, words.apply_word, words.apply_face,
          words.surjection_of_word, words.word_of_surjection,
          complexes._pair_words, complexes._shuffles, complexes._pair_index,
          complexes._face_recipe, cochains._shih_terms)


def test_check_word_is_not_cached():
    # it validates input and raises; only the pure operations are cached
    assert not hasattr(check_word, "cache_info")
    assert all(hasattr(fn, "cache_info") for fn in CACHED)


def test_caches_stop_growing_on_fresh_complexes():
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench.workloads import CohomologyFresh

    def sizes():
        # and the shuffle blocks that every cylinder reads off Delta^1
        blocks = [key for key in complexes.standard_simplex(1)._cache
                  if isinstance(key, tuple) and key[:1] == ("shuffle-block",)]
        return [fn.cache_info().currsize for fn in CACHED] + [len(blocks)]

    w = CohomologyFresh(seed=5)
    w.setup()
    for i in range(5):
        w.run(w.make_input(i))
    before = sizes()
    assert before[-1] >= 3  # one per dimension of a surface, at least
    for i in range(5, 55):
        w.run(w.make_input(i))
    assert sizes() == before


def _immutable(x) -> bool:
    if isinstance(x, tuple):
        return all(map(_immutable, x))
    return x is None or isinstance(x, (int, str))


def _words(m: int):
    """Every word on an m-simplex."""
    return [word_of_surjection(theta)
            for k in range(m + 1) for theta in monotone_surjections(m, k)]


def _calls(m: int):
    """(cached function, arguments) over the words of dimension m."""
    ws = _words(m)
    for w in ws:
        yield words.surjection_of_word, (w, m)
        yield words.word_of_surjection, (surjection_of_word(w, m),)
        for j in range(m + 1):
            yield words.compose_degeneracy, (w, j)
            if m:
                yield words.apply_face, (w, j)
        for extra in [(j,) for j in range(m + 1)] + list(combinations(range(m + 2), 2)):
            yield words.apply_word, (w, extra)
        for v in ws:
            yield complexes._pair_words, (w, v)
            yield complexes._pair_index, (m - len(w), m - len(v), w, v)
        if m - len(w) == 2:
            yield cochains._shih_terms, (surjection_of_word(w, m),)
    for p in range(m + 1):
        yield complexes._shuffles, (p, m - p)
        yield complexes._face_recipe, (p, m - p)


@pytest.mark.parametrize("m", range(7))
def test_cached_answers_are_fresh_answers_and_tuples(m):
    for fn, args in _calls(m):
        got = fn(*args)
        assert got == fn.__wrapped__(*args), (fn.__name__, args)
        assert type(got) is tuple and _immutable(got), (fn.__name__, args)
