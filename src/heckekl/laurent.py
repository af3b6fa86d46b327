"""Exact sparse arithmetic in the ring Z[q, q^-1] of integer Laurent polynomials.

A polynomial is stored as a map exponent -> nonzero integer coefficient, so
all arithmetic is exact (Python bignums) and the zero polynomial is the empty
map.  The ring carries the bar operation q^k -> q^-k, which underlies the bar
involution of the Hecke algebra.

The module also owns the packed form used by the fast kernels: with a digit
width K and an offset off, p becomes the integer (q^off * p)(2^K), one
balanced signed digit in [-2^(K-1), 2^(K-1)) per exponent (Kronecker
substitution).  Sums and products of packed ints are the packed sums and
products while every coefficient stays inside a digit, and multiplying by
q^-1 is an exact ``>> K`` while the lowest digit is 0.  ``width`` is the one
rule that turns a bound on the coefficients' absolute values into K.

>>> p = Q + 1
>>> p * p
LaurentPoly('1*q^0 + 2*q^1 + 1*q^2')
>>> (Q + Q.bar()).bar() == Q + Q.bar()
True
>>> LaurentPoly({3: 1, 0: -2}).coeff(3)
1
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterator, Mapping


class LaurentPoly:
    """An element of Z[q, q^-1], canonical form (no zero coefficients stored)."""

    __slots__ = ("_c",)

    def __init__(self, data: Mapping[int, int] | int = 0):
        if isinstance(data, int):
            data = {0: data}
        self._c = {e: c for e, c in data.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(1)

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * q^e."""
        return cls({e: coeff})

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, int | str]) -> "LaurentPoly":
        """Inverse of to_json_obj; accepts int (not bool) or decimal-string coefficients, each string (key
        or coefficient) as str() writes its int ("1", not "+1", "01" or " 1"): no two keys name one exponent."""
        for text in (*obj, *(c for c in obj.values() if type(c) is not int)):
            if type(text) is not str or str(int(text)) != text:
                raise ValueError(f"polynomial key or coefficient {text!r} is not a canonical integer")
        return cls({int(e): int(c) for e, c in obj.items()})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, e: int) -> int:
        """Coefficient of q^e."""
        return self._c.get(e, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._c.items()))

    def min_exp(self) -> int | None:
        return min(self._c) if self._c else None

    def max_exp(self) -> int | None:
        return max(self._c) if self._c else None

    def l1(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(map(abs, self._c.values()))

    def has_nonneg_coeffs(self) -> bool:
        return all(c >= 0 for c in self._c.values())

    def is_poly_in_q(self) -> bool:
        """True when no negative power of q occurs (element of Z[q])."""
        return all(e >= 0 for e in self._c)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -c for e, c in self._c.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for general elements")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def bar(self) -> "LaurentPoly":
        """The ring involution q -> q^-1."""
        return _wrap({-e: c for e, c in self._c.items()})

    # -- comparison / serialization ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._c == other._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        # fixed grammar: "c*q^e" terms, ascending exponents, " + " separator,
        # sign carried by the coefficient; the zero polynomial is "0"
        if not self._c:
            return "0"
        return " + ".join(f"{c}*q^{e}" for e, c in sorted(self._c.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    def to_json_obj(self) -> dict[str, int | str]:
        """{"exponent": coefficient} with keys in ascending exponent order; a
        coefficient with |c| >= 2^53 (beyond exact doubles) is a decimal string."""
        return {str(e): c if -_JSON_EXACT < c < _JSON_EXACT else str(c) for e, c in sorted(self._c.items())}


_JSON_EXACT = 1 << 53


class ExactnessError(RuntimeError):
    """A packed computation could not be decoded exactly (a division by q
    left a remainder, or a coefficient could outgrow its digit)."""


def width(bound: int) -> int:
    """Digit width K for packed coefficients of absolute value at most bound:
    at least 64, and bound < 2^(K-2), so balanced digits decode uniquely."""
    return max(64, bound.bit_length() + 2)


def pack(p: LaurentPoly, K: int, off: int) -> int:
    """The integer (q^off * p)(2^K); every exponent e of p needs e + off >= 0
    and every coefficient -2^(K-1) <= c < 2^(K-1)."""
    return sum(c << K * (e + off) for e, c in p._c.items())


def unpack(P: int, K: int, off: int) -> LaurentPoly:
    """Inverse of pack: read P as balanced signed base-2^K digits."""
    if not P:
        return _wrap({})
    low = ((P & -P).bit_length() - 1) // K  # digits below this one are 0
    P >>= K * low
    off -= low
    # enough digits for any balanced expansion of P: a top digit of +-1 over
    # a digit of -+2^(K-1) is worth only about 2^(K(n-1)-1)
    n = abs(P).bit_length() // K + 2
    mask, half = (1 << K) - 1, 1 << K - 1
    P += half * (((1 << K * n) - 1) // mask)  # every digit d becomes d + 2^(K-1), in [0, 2^K)
    return _wrap({j - off: d for j in range(n) if (d := (P >> K * j & mask) - half)})


def decoder(K: int, off: int) -> Callable[[int], LaurentPoly]:
    """unpack at (K, off), each distinct packed value decoded once, to one object.
    A lambda: functools.cache wraps a partial at twice the set-up cost."""
    return cache(lambda P: unpack(P, K, off))


def _wrap(c: dict[int, int]) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._c = c
    return p


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly(x)
    return NotImplemented


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
QINV = LaurentPoly.q_power(-1)

