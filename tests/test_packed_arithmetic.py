"""The packed Hecke product and bar, the stored packed form of Hecke elements,
the coset tables and one-pass parabolic_kl, each against the straightforward
construction it replaced."""

import json
import pickle
import random

import pytest

from heckekl import (
    HybridBasisSpec,
    LaurentPoly,
    coxeter_system,
    expand_in_hybrid,
    hybrid_element,
    parabolic_kl,
    restriction_coeffs,
    t_basis,
)
from heckekl.hecke import HeckeElement as _wrap
from heckekl.hecke import _add, _check_exact, form
from heckekl.laurent import ONE, ZERO, ExactnessError, pack, unpack
from conftest import get_cache, subsets

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


@pytest.mark.parametrize("group", GROUPS + ["I2(24)"])
def test_packed_bar_matches_reference(group):
    rng = random.Random(group)
    s = coxeter_system(group)
    for _ in range(6):
        h = big_element(s, rng, 5)
        assert h.bar() == ref_bar(h)
    for x in s.elements():
        assert t_basis(s, x).bar().terms == ref_bar_t(s, x)


@pytest.mark.parametrize("group", ["B3", "D4", "I2(7)"])
def test_repeated_wide_values_multiply_and_bar_exactly(group):
    """Dense operands over a few distinct coefficients wider than 64 bits: the
    walk multiplies a repeated pair of values once and reuses the product."""
    rng = random.Random(f"repeat {group}")
    s = coxeter_system(group)
    w0 = s.longest_element()
    w = rng.choice([x for x in s.elements() if s.length(x) == s.length(w0) // 2])
    polys = [big_poly(rng) for _ in range(3)]
    a = _wrap(s, {x: rng.choice(polys) for x in s.bruhat_interval(w0)})
    b = _wrap(s, {x: rng.choice(polys) for x in s.bruhat_interval(w)})
    assert a.K > 64 and len(set(a._packed.values())) <= 3 < len(a._packed)
    c = big_element(s, rng, 2 * len(b.terms))  # distinct values: seed or b repeats, or neither
    assert len(set(c._packed.values())) == len(c._packed)
    for x, y in [(a, b), (b, a), (a, c), (c, a), (c, c)]:
        assert x * y == ref_mul(x, y)
    assert a.bar() == ref_bar(a)


def test_bar_is_kept_on_its_element_only():
    rng = random.Random("bar slot")
    cache = get_cache("B3")
    s = cache.system
    h = big_element(s, rng, 5)
    hbar = h.bar()
    assert h.bar() is hbar
    assert hbar._bar is None  # else hbar.bar() would hand back h without a walk
    assert hbar.bar() == h and hbar.bar() is hbar.bar()
    kl = cache.kl_element(s.longest_element())
    assert kl.bar() == kl
    made = [h.psi(), -h, h.restrict({1, 2}), h * hbar, hbar * h, kl * h, cache.kl_element(s.longest_element())]
    assert all(x._bar is None for x in made)


def test_bar_at_narrow_then_wide_then_narrow_widths():
    s = coxeter_system("B3")
    x = s.longest_element()
    narrow, wide = t_basis(s, x), t_basis(s, x).scale(2**200)
    assert narrow.bar().terms == ref_bar_t(s, x)
    assert wide.bar() == ref_bar(wide)
    assert narrow.bar().terms == ref_bar_t(s, x)


# ---------------------------------------------------------------------------
# the stored packed form: results feeding further arithmetic
# ---------------------------------------------------------------------------


def ref_form(a, b):
    """sum over x of bar(a)_x b_x, from the reference bar."""
    abar = ref_bar(a)
    total = ZERO
    for x, c in b.terms.items():
        total = total + abar.coeff(x) * c
    return total


def small_element(system, rng, size):
    """Coefficients in [-3, 3], exponents in [-4, 4]: a K = 64 operand, offsets vary."""
    return _wrap(
        system,
        {w: LaurentPoly({rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(2)}) for w in rng.sample(system.elements(), size)},
    )


def rebuild(cache, coords, spec):
    """sum over x of coords[x] TC^J_x, in the standard basis."""
    out = _wrap(cache.system, {})
    for x, c in coords.items():
        out = out + hybrid_element(cache, spec, x).scale(c)
    return out


@pytest.mark.parametrize("group", ["A3", "B3", "I2(7)"])  # the references are slow at D4
def test_results_feed_products_bars_forms_and_expansions(group):
    rng = random.Random(f"chain {group}")
    cache = get_cache(group)
    s = cache.system
    w = rng.choice(s.elements())
    for make in (small_element, big_element):  # K = 64 only, then K > 64 mixed in
        a, b, c = make(s, rng, 3), small_element(s, rng, 2), cache.kl_element(w)
        ab = a * b
        assert ab == ref_mul(a, b)
        assert ab * c == ref_mul(ref_mul(a, b), c)
        assert c * ab == ref_mul(c, ref_mul(a, b))
        assert ab.bar() == ref_bar(ref_mul(a, b))
        assert ab.bar() * ab == ref_mul(ref_bar(ab), ab)
        assert form(ab, c) == ref_form(ab, c)
        assert form(c, ab.bar()) == ref_form(c, ref_bar(ab))
        spec = HybridBasisSpec({1})
        for h in (ab, c * t_basis(s, w)):
            assert rebuild(cache, expand_in_hybrid(cache, h, spec), spec) == h


def test_mixed_widths_and_offsets():
    rng = random.Random("mixed")
    cache = get_cache("B3")
    s = cache.system
    big, small = big_element(s, rng, 4), small_element(s, rng, 3)
    kl = cache.kl_element(s.longest_element())
    assert big.K > 64 and small.K == 64 and (kl.K, kl.off) == (64, 0)
    assert small.off != big.off and small.off > 0  # negative exponents lift the offset
    for x, y in ((big, small), (small, big), (big, kl), (kl, big), (small, kl), (kl, small)):
        assert x * y == ref_mul(x, y)
        assert (x * y).bar() == ref_bar(ref_mul(x, y))
        assert form(x, y) == ref_form(x, y)
    # one value at two widths and two offsets compares equal
    wide = small * _wrap(s, {s.identity: LaurentPoly({-5: 2**90})})
    assert wide.K > 64 and wide.scale(LaurentPoly({5: 1})) == small.scale(2**90)
    assert (small - small).is_zero() and -small == small.scale(-1)


def test_results_are_packed_with_the_least_offset():
    rng = random.Random("offsets")
    s = coxeter_system("D4")
    a, b = small_element(s, rng, 3), small_element(s, rng, 3)
    lhs, rhs = (a * b).bar(), a.bar() * b.bar()
    assert (lhs.K, lhs.off) == (rhs.K, rhs.off) == (64, -min(c.min_exp() for c in lhs.terms.values()))
    assert lhs._packed == rhs._packed  # equal elements at one width: equal packed dicts


def test_exact_norms_keep_the_kl_width():
    # T_s C_w0 = q^-1 C_w0, so the norms stay put while the carried bounds grow by 3^l(w0) a step
    cache = get_cache("D4")
    s = cache.system
    w0 = s.longest_element()
    c = h = cache.kl_element(w0)
    for _ in range(4):
        h = t_basis(s, w0) * h
    assert h == c.scale(LaurentPoly.q_power(-4 * s.length(w0)))
    assert h.K == 64  # the carried bound alone, |C_w0|_1 3^(4 l(w0)), would widen the digits


def test_kl_element_shares_the_column():
    cache = get_cache("D4")
    s = cache.system
    for w in (s.identity, s.generator(2), s.longest_element()):
        col = cache.kl_column(w)
        c = cache.kl_element(w)
        assert c.terms is col and c.terms._packed is col._packed  # no copy
        assert c == _wrap(s, dict(col.items()))
        assert dict(pickle.loads(pickle.dumps(c)).terms.items()) == dict(col.items())  # over a copy of s
        assert c.psi().terms._packed == cache.kl_column(s.inverse(w))._packed


def test_terms_are_a_read_only_view():
    rng = random.Random("view")
    s = coxeter_system("A3")
    h = small_element(s, rng, 4) * small_element(s, rng, 2)
    w = next(iter(h.terms))
    with pytest.raises(TypeError):
        h.terms[w] = ONE
    with pytest.raises(TypeError):
        get_cache("A3").kl_element(w).terms[w] = ONE
    plain = dict(h.terms.items())
    assert h.terms == plain and plain == h.terms
    assert h.terms != {**plain, w: plain[w] + ONE}
    assert h == _wrap(s, plain) and h.support() == sorted(plain, key=s.sort_key)
    assert all(h.coeff(x) == c for x, c in plain.items())


# ---------------------------------------------------------------------------
# coset tables and one-pass parabolic_kl
# ---------------------------------------------------------------------------


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
    for J in subsets(s):
        for w in s.elements():
            u, v = s.parabolic_factorize_left(w, J)
            assert (u, v) == _descent_walk(s, w, J)
            assert s.multiply(u, v) == w and s.length(u) + s.length(v) == s.length(w)
            assert not s.right_descents(u) & J and set(s.word(v)) <= J


def test_coset_table_validates_J():
    s = coxeter_system("A2")
    with pytest.raises(ValueError, match="outside"):
        s.parabolic_factorize_left(s.identity, {3})


@pytest.mark.parametrize("group", ["A3", "B3", "I2(7)"])
def test_one_pass_parabolic_kl_matches_per_pair_definition(group):
    cache = get_cache(group)
    s = cache.system
    for J in subsets(s):
        reps = s.min_coset_reps(J, "left")
        want = {}
        for up in reps:
            for u in reps:
                c = restriction_coeffs(cache, u, up, J).get(s.identity)
                if c is not None and not c.is_zero():
                    want[(u, up)] = c
        assert parabolic_kl(cache, J) == want
