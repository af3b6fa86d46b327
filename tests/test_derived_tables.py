"""The group's tables all come from the breadth-first enumeration; check them
against independent references: the realization length formulas, the
subword property of Bruhat order and a descent walk for the right coset split."""

import itertools
import random

import pytest

from heckekl import coxeter_system
from conftest import subword_interval


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
        interval = subword_interval(s, w)
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


@pytest.mark.parametrize("group", ["A3", "B3", "D4", "I2(7)"])
def test_parabolic_tables_match_the_descent_filters(group):
    s = coxeter_system(group)
    els = s.elements()
    for r in range(s.rank + 1):
        for J in map(frozenset, itertools.combinations(s.generators, r)):
            wj = tuple(w for w in els if s.in_parabolic(w, J))
            left = tuple(w for w in els if not s.right_descents(w) & J)
            right = tuple(w for w in els if not s.left_descents(w) & J)
            assert s.subgroup_elements(J) == wj
            assert s.min_coset_reps(J, "left") == left
            assert s.min_coset_reps(J, "right") == right
            split, join = s.coset_index(J)
            assert len(split) == s.order
            assert {(u, v, k) for u, row in join.items() for v, k in row.items()} == {
                (u, v, k) for k, (u, v) in enumerate(split)
            }
            # keys in canonical order: W^J across, W_J down the identity's row
            assert list(join) == [s.index(u) for u in left]
            assert list(join[0]) == [s.index(v) for v in wj]
