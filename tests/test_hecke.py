import random

import pytest

from heckekl import (
    LaurentPoly,
    MixedSystemError,
    ONE,
    Q,
    QINV,
    ZERO,
    coxeter_system,
    form,
    t_basis,
    unit,
)
from heckekl.hecke import HeckeElement as _wrap
from conftest import subsets


def rand_element(s, rng, size=3):
    terms = {
        w: LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)})
        for w in rng.sample(s.elements(), min(size, s.order))
    }
    return _wrap(s, terms)


@pytest.mark.parametrize("group", ["A2", "B2", "I2(5)", "A3"])
def test_quadratic_relation(group):
    s = coxeter_system(group)
    one = unit(s)
    for i in s.generators:
        ts = t_basis(s, s.generator(i))
        assert ts * ts == one + ts.scale(QINV - Q)


def test_length_additive_products():
    s = coxeter_system("B3")
    for w in s.elements():
        prod = unit(s)
        for i in s.word(w):
            prod = prod * t_basis(s, s.generator(i))
        assert prod == t_basis(s, w)


def test_deletion_rule():
    # T_s T_w = T_sw + (q^-1 - q) T_w when sw < w, on both sides
    s = coxeter_system("A3")
    for w in s.elements():
        for i in s.generators:
            ts = t_basis(s, s.generator(i))
            tw = t_basis(s, w)
            left = ts * tw
            sw = s.apply_left(i, w)
            if s.length(sw) > s.length(w):
                assert left == t_basis(s, sw)
            else:
                assert left == t_basis(s, sw) + tw.scale(QINV - Q)
            right = tw * ts
            ws = s.apply_right(w, i)
            if s.length(ws) > s.length(w):
                assert right == t_basis(s, ws)
            else:
                assert right == t_basis(s, ws) + tw.scale(QINV - Q)


def test_module_axioms_random():
    rng = random.Random(23)
    s = coxeter_system("A2")
    one = unit(s)
    for _ in range(60):
        a, b, c = (rand_element(s, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert one * a == a and a * one == a
        assert a - a == _wrap(s, {})
        assert -a + a == _wrap(s, {})
        assert a.scale(2) == a + a
        assert a.scale(Q).scale(QINV) == a


def test_scalar_multiplication():
    s = coxeter_system("A2")
    h = t_basis(s, s.generator(1))
    assert h.scale(Q) == Q * h == h * Q
    assert 3 * h == h.scale(3)
    assert (Q * h).coeff(s.generator(1)) == Q


def test_mixed_system_rejected():
    a = unit(coxeter_system("A2"))
    b = unit(coxeter_system("B2"))
    with pytest.raises(MixedSystemError):
        a + b
    with pytest.raises(MixedSystemError):
        a * b


def test_bar_on_generators():
    s = coxeter_system("A3")
    one = unit(s)
    for i in s.generators:
        ts = t_basis(s, s.generator(i))
        assert ts.bar() == ts + one.scale(Q - QINV)
        # bar(T_s) is the inverse of T_s
        assert ts * ts.bar() == one


def test_bar_involution_and_multiplicativity():
    rng = random.Random(5)
    for group in ("A2", "I2(5)", "B2"):
        s = coxeter_system(group)
        for _ in range(25):
            a, b = rand_element(s, rng), rand_element(s, rng)
            assert a.bar().bar() == a
            assert (a * b).bar() == a.bar() * b.bar()
            assert (a + b).bar() == a.bar() + b.bar()
        # bar conjugates scalars
        h = rand_element(s, rng)
        assert h.scale(Q).bar() == h.bar().scale(QINV)


def test_bar_fixes_unit():
    s = coxeter_system("A2")
    assert unit(s).bar() == unit(s)


def test_psi_antiautomorphism():
    rng = random.Random(17)
    s = coxeter_system("A3")
    for w in s.elements():
        assert t_basis(s, w).psi() == t_basis(s, s.inverse(w))
    for _ in range(20):
        a, b = rand_element(s, rng), rand_element(s, rng)
        assert (a * b).psi() == b.psi() * a.psi()
        assert a.psi().psi() == a
        assert a.psi().bar() == a.bar().psi()


def test_omega():
    rng = random.Random(29)
    s = coxeter_system("A2")
    one = unit(s)
    for x in s.elements():
        assert t_basis(s, x) * t_basis(s, x).omega() == one
    for _ in range(20):
        a, b = rand_element(s, rng), rand_element(s, rng)
        assert a.omega().omega() == a
        # anti-automorphism: psi reverses products, bar preserves them
        assert (a * b).omega() == b.omega() * a.omega()
    # omega conjugates scalars: omega(q h) = q^-1 omega(h)
    h = rand_element(s, rng)
    assert h.scale(Q).omega() == h.omega().scale(QINV)


def test_form_orthonormality():
    s = coxeter_system("A2")
    for x in s.elements():
        for y in s.elements():
            got = form(t_basis(s, x).bar(), t_basis(s, y))
            assert got == (ONE if x == y else ZERO)


def test_form_adjointness_with_scalars():
    # form(a h, h') = form(h, omega(a) h'), including scalar-heavy inputs
    rng = random.Random(31)
    s = coxeter_system("A2")
    one = unit(s)
    assert form(one.scale(Q), one) == QINV
    assert form(one, one.scale(Q)) == Q
    for _ in range(40):
        a, h, h2 = (rand_element(s, rng) for _ in range(3))
        assert form(a * h, h2) == form(h, a.omega() * h2)
    # scalar slots transform on opposite sides
    h = rand_element(s, rng)
    h2 = rand_element(s, rng)
    assert form(h.scale(Q), h2) == QINV * form(h, h2)
    assert form(h, h2.scale(Q)) == Q * form(h, h2)


def test_restrict_keeps_parabolic_terms():
    s = coxeter_system("A3")
    J = frozenset({1, 2})
    for w in s.elements():
        r = t_basis(s, w).restrict(J)
        if set(s.word(w)) <= J:
            assert r == t_basis(s, w)
        else:
            assert r.is_zero()


def test_restrict_is_two_sided_module_map():
    rng = random.Random(41)
    s = coxeter_system("A3")
    J = frozenset({1, 2})
    wj = s.subgroup_elements(J)
    for _ in range(30):
        h = rand_element(s, rng, size=4)
        a = _wrap(s, {rng.choice(wj): LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})})
        assert (a * h).restrict(J) == a * h.restrict(J)
        assert (h * a).restrict(J) == h.restrict(J) * a


def test_coset_orthogonality_exhaustive():
    # (T_{u^-1} T_{u'})|_J = delta_{u,u'} T_1 for minimal coset representatives
    for group in ("A2", "A3"):
        s = coxeter_system(group)
        one = unit(s)
        zero = _wrap(s, {})
        for J in subsets(s):
            reps = s.min_coset_reps(J, "left")
            for u in reps:
                for u2 in reps:
                    got = (t_basis(s, s.inverse(u)) * t_basis(s, u2)).restrict(J)
                    assert got == (one if u == u2 else zero)


def test_element_accessors_and_json():
    s = coxeter_system("A2")
    h = t_basis(s, s.generator(1)).scale(Q) + unit(s)
    assert h.coeff(s.identity) == ONE
    assert h.coeff(s.generator(1)) == Q
    assert h.coeff(s.generator(2)) == ZERO
    assert h.support() == [s.identity, s.generator(1)]
    obj = h.to_json_obj()
    assert obj == {
        "terms": [
            {"word": [], "coeff": {"0": 1}},
            {"word": [1], "coeff": {"1": 1}},
        ]
    }
