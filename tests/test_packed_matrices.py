"""Transition matrices kept packed behind views: same_entries compares the
packed dicts of views at one (K, off) and falls back to the decoded entries
otherwise, and matmul mixes views with plain-dict matrices."""

import random
from functools import reduce

import pytest

from heckekl import LaurentPoly, factorize_chain, kl_matrix, matmul, transition_matrix
from heckekl import hybrid
from heckekl.hybrid import TransitionMatrix
from heckekl.klbasis import _Column
from conftest import get_cache
from test_packed_hybrid import ref_matmul_columns


def _no_decode(h):
    raise AssertionError("a packed comparison decoded an entry")


def _with_column(m, w, packed, polys):
    """m with column w replaced by a view of packed at (64, 0)."""
    cols = {**m.columns, w: _Column(m.system, packed, polys)}
    return TransitionMatrix(m.system, m.I, m.J, m.order, cols)


@pytest.mark.parametrize("group", ["A3", "B3"])
def test_same_entries_on_views_reads_the_packed_dicts(group):
    cache = get_cache(group)
    kl = kl_matrix(cache)
    s = cache.system
    w = s.generator(1)
    base = dict(cache.kl_column(w)._packed)  # h_{e,s1} = q and h_{s1,s1} = 1
    e, s2 = s.index(s.identity), s.index(s.generator(2))
    variants = {"changed": {**base, e: base[e] + 1}, "missing": {s.index(w): 1}, "extra": {**base, s2: 1}}
    # views that decode nothing: a packed comparison must do without
    same = _with_column(kl, w, base, _no_decode)
    assert _with_column(kl, w, dict(base), _no_decode).same_entries(same)
    for name, packed in variants.items():
        other = _with_column(kl, w, packed, _no_decode)
        assert not other.same_entries(same) and not same.same_entries(other), name
        # against the cache's own views, decoding as the fallback does
        assert not _with_column(kl, w, packed, cache._polys).same_entries(kl), name
    assert _with_column(kl, w, dict(base), cache._polys).same_entries(kl)


@pytest.mark.parametrize("group", ["A3", "B3"])
def test_a_product_at_a_wider_width_compares_against_kl_matrix(group, monkeypatch):
    cache = get_cache(group)
    kl = kl_matrix(cache)
    monkeypatch.setattr(hybrid, "width", lambda bound: 128)
    product = reduce(matmul, factorize_chain(cache))
    col = next(iter(product.columns.values()))
    assert isinstance(col, _Column) and col.K == 128
    assert product.same_entries(kl) and kl.same_entries(product)
    w = cache.system.longest_element()
    bumped = {x: h + 1 for x, h in product.columns[w]._packed.items()}
    cols = {**product.columns, w: _Column(cache.system, bumped, col._polys, 128)}
    wrong = TransitionMatrix(cache.system, product.I, product.J, product.order, cols)
    assert not wrong.same_entries(kl) and not kl.same_entries(wrong)


@pytest.mark.parametrize("coeff", [3, 2**80])
def test_matmul_of_views_and_plain_dicts_matches_reference(coeff):
    cache = get_cache("A3")
    s = cache.system
    order = s.elements()
    rng = random.Random(coeff % 97)
    views = transition_matrix(cache, {1}, {1, 2})
    assert all(isinstance(col, _Column) for col in views.columns.values())

    def plain(I, J):
        cols = {w: {} for w in order}
        for w in order:
            for x in rng.sample(order, 4):
                p = LaurentPoly({rng.randint(-6, 6): rng.randint(-coeff, coeff)})
                if p:
                    cols[w][x] = p
        return TransitionMatrix(s, frozenset(I), frozenset(J), order, cols)

    for a, b in ((plain((), {1}), views), (views, plain({1, 2}, {1, 2, 3}))):
        assert matmul(a, b).columns == ref_matmul_columns(a, b)
    # a view factor times a plain-dict copy of the next factor
    nxt = transition_matrix(cache, {1, 2}, {1, 2, 3})
    copy = TransitionMatrix(s, nxt.I, nxt.J, order, {w: dict(c.items()) for w, c in nxt.columns.items()})
    assert matmul(views, copy).columns == ref_matmul_columns(views, copy)
    assert matmul(views, copy).same_entries(matmul(views, nxt))
