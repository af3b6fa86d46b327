import doctest
import random

import pytest

import heckekl.laurent
from heckekl import LaurentPoly, ONE, Q, QINV, ZERO


def rand_poly(rng):
    return LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))})


def test_textual_grammar():
    assert str(ZERO) == "0"
    assert str(ONE) == "1*q^0"
    assert str(Q) == "1*q^1"
    assert str(QINV) == "1*q^-1"
    assert str(LaurentPoly({2: -3, -1: 1})) == "1*q^-1 + -3*q^2"
    assert str(Q + 1) == "1*q^0 + 1*q^1"
    assert repr(Q + 1) == "LaurentPoly('1*q^0 + 1*q^1')"


def test_canonical_form_drops_zeros():
    p = LaurentPoly({3: 0, 1: 2})
    assert p == LaurentPoly({1: 2})
    assert (p - p).is_zero()
    assert not (p - p)
    assert p


def test_int_coercion_and_equality():
    assert LaurentPoly(5) == 5
    assert 2 + Q == LaurentPoly({0: 2, 1: 1})
    assert Q + 2 == 2 + Q
    assert 3 * Q == LaurentPoly({1: 3})
    assert 1 - Q == LaurentPoly({0: 1, 1: -1})
    assert ZERO == 0


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_pow():
    assert (Q + 1) ** 2 == LaurentPoly({0: 1, 1: 2, 2: 1})
    assert Q**0 == ONE
    assert QINV**3 == LaurentPoly({-3: 1})
    with pytest.raises(ValueError):
        (Q + 1) ** -1


def test_bar():
    rng = random.Random(7)
    assert Q.bar() == QINV
    assert ONE.bar() == ONE
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_inspection_helpers():
    p = LaurentPoly({-2: 3, 0: -1, 5: 2})
    assert p.coeff(-2) == 3
    assert p.coeff(1) == 0
    assert list(p.items()) == [(-2, 3), (0, -1), (5, 2)]
    assert p.min_exp() == -2
    assert p.max_exp() == 5
    assert ZERO.min_exp() is None and ZERO.max_exp() is None
    assert not p.has_nonneg_coeffs()
    assert not p.is_poly_in_q()
    assert LaurentPoly({1: 2, 3: 1}).has_nonneg_coeffs()
    assert LaurentPoly({0: 1, 2: -1}).is_poly_in_q()
    assert ZERO.has_nonneg_coeffs() and ZERO.is_poly_in_q()


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        p = rand_poly(rng)
        obj = p.to_json_obj()
        assert all(isinstance(k, str) for k in obj)
        assert list(obj) == [str(e) for e, _ in p.items()]  # ascending exponents
        assert LaurentPoly.from_json_obj(obj) == p
    assert LaurentPoly.from_json_obj({"2": "7", "-1": 1}) == LaurentPoly({2: 7, -1: 1})
    assert ZERO.to_json_obj() == {}


@pytest.mark.parametrize(
    "obj",
    [{"0": 1.5}, {"0": 1.0}, {"0": True}, {"0": False}, {"1": None}, {"1": [1]}, {None: 1}, {"+1": 1}, {"0": "01"}],
)
def test_json_refuses_what_is_not_an_int_or_a_canonical_decimal(obj):
    with pytest.raises(ValueError):
        LaurentPoly.from_json_obj(obj)


def test_module_doctests_pass():
    result = doctest.testmod(heckekl.laurent)
    assert result.attempted and result.failed == 0
