"""The multiplication tables live on canonical indices only, and every W_J
question reads the one coset split: check both against the realization and
the word-letter definition of W_J, and check that J is validated on every
call that has no cached table for it."""

import itertools
import random
from functools import reduce

import pytest

from heckekl import HeckeElement, LaurentPoly, coxeter_system


def _subsets(s):
    for r in range(s.rank + 1):
        yield from map(frozenset, itertools.combinations(s.generators, r))


def _in_parabolic_by_letters(s, w, J):
    """The reference: the letters of any reduced word of w are an invariant of w."""
    return set(s.word(w)) <= J


def _product(s, word):
    return reduce(s.multiply, (s.generator(g) for g in word), s.identity)


@pytest.mark.parametrize("group", ["B3", "D4", "I2(7)"])
def test_apply_matches_the_realization(group):
    s = coxeter_system(group)
    for w in s.elements():
        for i in s.generators:
            assert s.apply_right(w, i) == s.multiply(w, s.generator(i))
            assert s.apply_left(i, w) == s.multiply(s.generator(i), w)


@pytest.mark.parametrize("group", ["B3", "D4", "I2(7)"])
def test_element_from_word_matches_the_realization(group):
    s = coxeter_system(group)
    rng = random.Random(3)
    words = [s.word(w) for w in s.elements()]
    # unreduced words too: the walk must not assume a reduced input
    words += [[rng.choice(s.generators) for _ in range(rng.randrange(2 * s.rank + 8))] for _ in range(200)]
    for word in words:
        assert s.element_from_word(word) == _product(s, word)


def test_element_from_word_names_the_bad_position():
    s = coxeter_system("B3")
    for word, bad, pos in [([1, 4], 4, 2), ([0], 0, 1), ([2, 1, "3"], "3", 3)]:
        with pytest.raises(ValueError, match=rf"invalid generator index {bad!r} at position {pos} \(rank 3\)"):
            s.element_from_word(word)


@pytest.mark.parametrize("group", ["A3", "B3", "D4", "I2(7)"])
def test_in_parabolic_matches_the_word_letters(group):
    s = coxeter_system(group)
    for J in _subsets(s):
        for w in s.elements():
            assert s.in_parabolic(w, J) == _in_parabolic_by_letters(s, w, J)


@pytest.mark.parametrize("group", ["A3", "B3", "D4", "I2(7)"])
def test_restrict_matches_the_word_letters(group):
    s = coxeter_system(group)
    h = HeckeElement(s, {w: LaurentPoly({k % 5 - 2: k + 1}) for k, w in enumerate(s.elements())})
    for J in _subsets(s):
        want = {w: c for w, c in h.terms.items() if _in_parabolic_by_letters(s, w, J)}
        assert h.restrict(J).terms == want
        assert h.restrict(sorted(J, reverse=True)).terms == want


def _invalid_j_calls(s, J):
    w = s.longest_element()
    h = HeckeElement(s, {w: LaurentPoly(1), s.identity: LaurentPoly(1)})
    return [
        lambda: s.coset_index(J),
        lambda: s.parabolic_factorize_left(w, J),
        lambda: s.in_parabolic(w, J),
        lambda: h.restrict(J),
    ]


@pytest.mark.parametrize("group", ["A3", "D4"])
def test_an_invalid_j_is_refused_after_valid_tables_are_cached(group):
    s = coxeter_system(group)
    for J in _subsets(s):
        s.coset_index(J)
    bad = [frozenset({0}), frozenset({1, s.rank + 1}), [s.rank + 1], {1, 2, 99}, (0, 1)]
    for J in bad:
        for call in _invalid_j_calls(s, J):
            for _ in range(2):  # every time, not just the first
                with pytest.raises(ValueError, match="outside"):
                    call()


def test_a_list_or_set_j_reaches_the_cached_table():
    s = coxeter_system("A3")
    got = s.coset_index(frozenset({1, 2}))
    assert s.coset_index([2, 1]) is got
    assert s.coset_index({1, 2}) is got
    assert s.coset_index((2, 1, 2)) is got
    assert s.coset_index([3]) is s.coset_index(frozenset({3}))


def test_subset_runs_once_per_new_frozenset_j(monkeypatch):
    s = coxeter_system("D4")
    seen = []
    validate = s.subset

    def counting(J):
        seen.append(J)
        return validate(J)

    monkeypatch.setattr(s, "subset", counting)
    J = frozenset({1, 3})
    w = s.longest_element()
    s.coset_index(J)
    s.parabolic_factorize_left(w, J)
    s.in_parabolic(w, J)
    HeckeElement(s, {w: LaurentPoly(1)}).restrict(J)
    assert seen == [J]


@pytest.mark.parametrize("group", ["A3", "I2(7)"])
def test_apply_rejects_a_generator_index_out_of_range(group):
    # index 0 or -1 would wrap to the last table, rank + 1 would run past it
    s = coxeter_system(group)
    e = s.identity
    for i in (0, -1, s.rank + 1):
        message = rf"invalid generator index {i} \(rank {s.rank}\)"
        with pytest.raises(ValueError, match=message):
            s.apply_right(e, i)
        with pytest.raises(ValueError, match=message):
            s.apply_left(i, e)
