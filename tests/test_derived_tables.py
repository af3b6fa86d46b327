"""The group's tables all come from the breadth-first enumeration; check them
against independent references: the realization length formulas, the
subword property of Bruhat order and a descent walk for the right coset split."""

import itertools
import random

import pytest

from heckekl import coxeter_system


def _inversions(w):
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


_LENGTH_FORMULAS = {
    "A": _inversions,
    "B": lambda w: _inversions(w) + sum(-v for v in w if v < 0),
    "D": lambda w: _inversions(w) + sum(-v - 1 for v in w if v < 0),
    "I2": lambda w: w[0],
}


@pytest.mark.parametrize("group", ["A5", "B4", "D4", "I2(24)"])
def test_lengths_match_the_realization_formulas(group):
    s = coxeter_system(group)
    formula = _LENGTH_FORMULAS[s.family]
    assert all(s.length(w) == formula(w) for w in s.elements())


@pytest.mark.parametrize("group", ["A5", "B4", "D4", "I2(24)"])
def test_inverse_inverts(group):
    s = coxeter_system(group)
    for w in s.elements():
        assert s.multiply(w, s.inverse(w)) == s.identity
        assert s.multiply(s.inverse(w), w) == s.identity


def _subword_interval(s, w):
    word = s.word(w)
    return {s.element_from_word(sub) for k in range(len(word) + 1) for sub in itertools.combinations(word, k)}


@pytest.mark.parametrize(
    "group, sample",
    [("B3", None), ("D4", 12)],
)
def test_bruhat_matches_subword_oracle(group, sample):
    s = coxeter_system(group)
    ws = list(s.elements())
    if sample is not None:
        ws = random.Random(7).sample(ws, sample) + [s.longest_element()]
    for w in ws:
        interval = _subword_interval(s, w)
        assert [u for u in s.elements() if s.bruhat_leq(u, w)] == s.bruhat_interval(w)
        assert set(s.bruhat_interval(w)) == interval


def _right_split_by_descents(s, w, J):
    """Peel left descents in J off w: w = v*u with v in W_J, u in ^JW."""
    v, u = s.identity, w
    while s.left_descents(u) & J:
        t = min(s.left_descents(u) & J)
        u = s.apply_left(t, u)
        v = s.apply_right(v, t)
    return v, u


@pytest.mark.parametrize("group", ["D4", "I2(7)"])
def test_right_split_matches_a_descent_walk(group):
    s = coxeter_system(group)
    for r in range(s.rank + 1):
        for J in map(frozenset, itertools.combinations(s.generators, r)):
            for w in s.elements():
                assert s.parabolic_factorize_right(w, J) == _right_split_by_descents(s, w, J)
