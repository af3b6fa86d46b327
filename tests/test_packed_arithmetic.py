"""The packed Hecke product and bar, the coset tables and one-pass parabolic_kl,
each against the straightforward construction it replaced."""

import json
import random

import pytest

from heckekl import LaurentPoly, coxeter_system, parabolic_kl, restriction_coeffs, t_basis
from heckekl import hecke
from heckekl.hecke import _add, _check_exact, _wrap
from heckekl.laurent import ONE, ExactnessError, pack, unpack
from conftest import get_cache

_QINV_MINUS_Q = LaurentPoly({-1: 1, 1: -1})
_Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})


# ---------------------------------------------------------------------------
# reference arithmetic: the quadratic relation on LaurentPoly term dicts
# ---------------------------------------------------------------------------


def _times_gen_left(system, i, terms):
    """T_{s_i} * (sum of terms), one application of the quadratic relation."""
    out = {}
    for w, c in terms.items():
        sw = system.apply_left(i, w)
        _add(out, sw, c)
        if system.length(sw) < system.length(w):
            _add(out, w, c * _QINV_MINUS_Q)
    return out


def ref_mul(a, b):
    """a * b, walking the whole word of every term of a."""
    system = a.system
    out = {}
    for x, cx in a.terms.items():
        cur = b.terms
        for s in reversed(system.word(x)):
            cur = _times_gen_left(system, s, cur)
        for w, c in cur.items():
            _add(out, w, cx * c)
    return _wrap(system, out)


def ref_bar_t(system, x):
    """bar(T_x), folded along the word: bar(T_s) = T_s + (q - q^-1)."""
    cur = {system.identity: ONE}
    for s in reversed(system.word(x)):
        nxt = _times_gen_left(system, s, cur)
        for w, c in cur.items():
            _add(nxt, w, c * _Q_MINUS_QINV)
        cur = nxt
    return cur


def ref_bar(h):
    system = h.system
    out = {}
    for x, cx in h.terms.items():
        cbar = cx.bar()
        for w, c in ref_bar_t(system, x).items():
            _add(out, w, cbar * c)
    return _wrap(system, out)


def big_poly(rng):
    """Coefficients up to 2^80 in absolute value, exponents in [-40, 40]."""
    return LaurentPoly(
        {rng.randint(-40, 40): rng.randint(-(2**80), 2**80) for _ in range(rng.randint(1, 3))}
    )


def big_element(system, rng, size):
    return _wrap(system, {w: big_poly(rng) for w in rng.sample(system.elements(), size)})


GROUPS = ["A3", "B3", "D4", "I2(7)"]


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("K", [64, 65, 83, 128])
def test_pack_unpack_round_trip(K):
    rng = random.Random(K)
    half = 2 ** (K - 1)
    for _ in range(300):
        p = LaurentPoly({rng.randint(-40, 40): rng.randint(-half, half - 1) for _ in range(rng.randint(0, 5))})
        assert unpack(pack(p, K, 40), K, 40) == p
    # the extreme digits, next to each other
    p = LaurentPoly({0: -half, 1: half - 1, 2: -half, 5: 1})
    assert unpack(pack(p, K, 0), K, 0) == p
    # a top digit of +-1 over -+2^(K-1): P has fewer bits than its digits suggest
    for p in ({0: -1, 1: -half, 2: 1}, {0: 1, 1: half - 1, 2: -half, 3: 1}, {-3: -5, -2: -half, 4: 1}):
        p = LaurentPoly(p)
        assert unpack(pack(p, K, 3), K, 3) == p


def test_json_emits_large_coefficients_as_strings():
    p = LaurentPoly({-3: 2**53, 0: 2**53 - 1, 1: -(2**53) + 1, 2: -(2**80)})
    obj = p.to_json_obj()
    assert obj == {"-3": str(2**53), "0": 2**53 - 1, "1": -(2**53) + 1, "2": str(-(2**80))}
    assert LaurentPoly.from_json_obj(json.loads(json.dumps(obj))) == p


def test_inexact_division_raises():
    _check_exact(0, 64)
    _check_exact(-(1 << 64), 64)
    with pytest.raises(ExactnessError, match="not exact"):
        _check_exact(1 << 63, 64)


# ---------------------------------------------------------------------------
# packed product and bar against the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("group", GROUPS)
def test_packed_product_matches_reference(group):
    rng = random.Random(group)
    cache = get_cache(group)
    s = cache.system
    for _ in range(6):
        a = big_element(s, rng, 3)
        b = big_element(s, rng, 4)
        assert a * b == ref_mul(a, b)
    # dense times dense, with a wide scalar on the right factor
    w0 = s.longest_element()
    c = cache.kl_element(w0)
    d = c * t_basis(s, rng.choice(s.elements())).scale(big_poly(rng))
    assert c * d == ref_mul(c, d)


@pytest.mark.parametrize("group", GROUPS)
def test_packed_bar_matches_reference(group):
    rng = random.Random(group)
    s = coxeter_system(group)
    for _ in range(6):
        h = big_element(s, rng, 5)
        assert h.bar() == ref_bar(h)
    for x in s.elements():
        assert t_basis(s, x).bar().terms == ref_bar_t(s, x)


def test_bar_keeps_one_table_per_system():
    s = coxeter_system("B3")
    x = s.longest_element()
    narrow, wide = t_basis(s, x), t_basis(s, x).scale(2**200)
    assert narrow.bar().terms == ref_bar_t(s, x)
    assert hecke._BAR_ROWS[s][0] == 64
    assert wide.bar() == ref_bar(wide)
    assert hecke._BAR_ROWS[s][0] > 64  # the wider table replaced the narrow one
    assert narrow.bar().terms == ref_bar_t(s, x)
    assert hecke._BAR_ROWS[s][0] == 64


# ---------------------------------------------------------------------------
# coset tables and one-pass parabolic_kl
# ---------------------------------------------------------------------------


def _subsets(s):
    out = [frozenset()]
    for g in s.generators:
        out += [j | {g} for j in out]
    return out


def _descent_walk(s, w, J):
    """(u, v) by peeling right descents in J off w one at a time."""
    u, v = w, s.identity
    while s.right_descents(u) & J:
        t = min(s.right_descents(u) & J)
        u = s.apply_right(u, t)
        v = s.apply_left(t, v)
    return u, v


def test_coset_table_matches_the_descent_walk():
    s = coxeter_system("B3")
    for J in _subsets(s):
        table = s.coset_table(J)
        assert len(table) == s.order
        for w in s.elements():
            u, v = table[w]
            assert (u, v) == _descent_walk(s, w, J) == s.parabolic_factorize_left(w, J)
            assert s.multiply(u, v) == w and s.length(u) + s.length(v) == s.length(w)
            assert not s.right_descents(u) & J and set(s.word(v)) <= J


def test_coset_table_validates_J():
    s = coxeter_system("A2")
    with pytest.raises(ValueError, match="outside"):
        s.coset_table({3})


@pytest.mark.parametrize("group", ["A3", "B3", "I2(7)"])
def test_one_pass_parabolic_kl_matches_per_pair_definition(group):
    cache = get_cache(group)
    s = cache.system
    for J in _subsets(s):
        reps = s.min_coset_reps(J, "left")
        want = {}
        for up in reps:
            for u in reps:
                c = restriction_coeffs(cache, u, up, J).get(s.identity)
                if c is not None and not c.is_zero():
                    want[(u, up)] = c
        assert parabolic_kl(cache, J) == want
