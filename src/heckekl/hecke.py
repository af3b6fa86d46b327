"""The Hecke algebra of a finite Coxeter system over Z[q, q^-1].

Elements are sparse combinations of the standard basis {T_w}, with the
quadratic relation T_s^2 = 1 + (q^-1 - q) T_s, so that

    T_s T_w = T_sw             if l(sw) > l(w),
    T_s T_w = T_sw + (q^-1 - q) T_w   otherwise,

and symmetrically on the right.  In this normalization no square root of q
is needed and C_s = T_s + q.

Besides the product the module provides the three (semi)involutions used
throughout:

* bar:   the bar involution, T_x -> (T_{x^-1})^-1, q -> q^-1;
* psi:   the linear anti-automorphism T_w -> T_{w^-1} fixing scalars;
* omega: their composition, a semilinear anti-automorphism with
         omega(T_x) = (T_x)^-1 and omega(q^k) = q^-k;

the standard bilinear form (bar-semilinear in the first slot, with
(bar T_x, T_y) = delta_{x,y}), and two-sided-linear restriction to a
parabolic subalgebra H_J, which keeps exactly the terms supported on W_J.
"""

from __future__ import annotations

from typing import Iterable, Mapping
from weakref import WeakKeyDictionary

from .coxeter import CoxeterSystem, Element
from .laurent import LaurentPoly, ONE, ZERO

_QINV_MINUS_Q = LaurentPoly({-1: 1, 1: -1})
_Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})


class MixedSystemError(ValueError):
    """Raised when combining Hecke elements over different Coxeter systems."""


class HeckeElement:
    """A finite Z[q,q^-1]-combination of standard basis elements T_w."""

    __slots__ = ("system", "terms")

    def __init__(self, system: CoxeterSystem, terms: Mapping[Element, LaurentPoly]):
        self.system = system
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    # -- inspection ----------------------------------------------------

    def coeff(self, w: Element) -> LaurentPoly:
        """Coefficient of T_w."""
        return self.terms.get(w, ZERO)

    def support(self) -> list[Element]:
        """Support in canonical element order."""
        return sorted(self.terms, key=self.system.sort_key)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.system is other.system and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "HeckeElement(0)"
        bits = [f"({c})*T[{','.join(map(str, self.system.word(w)))}]" for w, c in self._sorted()]
        return "HeckeElement(" + " + ".join(bits) + ")"

    def _sorted(self):
        return sorted(self.terms.items(), key=lambda wc: self.system.sort_key(wc[0]))

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"word": list(self.system.word(w)), "coeff": c.to_json_obj()} for w, c in self._sorted()
            ]
        }

    # -- module structure ------------------------------------------------

    def _check(self, other: "HeckeElement"):
        if self.system is not other.system:
            raise MixedSystemError("elements live over different Coxeter systems")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add(out, w, c)
        return _wrap(self.system, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add(out, w, -c)
        return _wrap(self.system, out)

    def __neg__(self) -> "HeckeElement":
        return _wrap(self.system, {w: -c for w, c in self.terms.items()})

    def scale(self, c: LaurentPoly | int) -> "HeckeElement":
        c = c if isinstance(c, LaurentPoly) else LaurentPoly(c)
        if c.is_zero():
            return _wrap(self.system, {})
        return _wrap(self.system, {w: c * cw for w, cw in self.terms.items()})

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        sys = self.system
        out: dict[Element, LaurentPoly] = {}
        for a, ca in self.terms.items():
            cur = other.terms
            for s in reversed(sys.word(a)):
                cur = _times_gen_left(sys, s, cur)
            for w, c in cur.items():
                _add(out, w, ca * c)
        return _wrap(sys, out)

    def __rmul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        return NotImplemented

    # -- involutions ---------------------------------------------------------

    def bar(self) -> "HeckeElement":
        """Bar involution: semilinear over q -> q^-1, T_x -> (T_{x^-1})^-1."""
        sys = self.system
        out: dict[Element, LaurentPoly] = {}
        for x, cx in self.terms.items():
            cbar = cx.bar()
            for w, c in _bar_t(sys, x).items():
                _add(out, w, cbar * c)
        return _wrap(sys, out)

    def psi(self) -> "HeckeElement":
        """Linear anti-automorphism T_w -> T_{w^-1}, scalars fixed."""
        sys = self.system
        return _wrap(sys, {sys.inverse(w): c for w, c in self.terms.items()})

    def omega(self) -> "HeckeElement":
        """Semilinear anti-automorphism: bar followed by psi (they commute)."""
        return self.bar().psi()

    # -- restriction ---------------------------------------------------------

    def restrict(self, J: Iterable[int]) -> "HeckeElement":
        """Projection to the parabolic subalgebra H_J: keep terms with w in W_J."""
        sys = self.system
        J = sys.subset(J)
        return _wrap(sys, {w: c for w, c in self.terms.items() if sys.in_parabolic(w, J)})


# ---------------------------------------------------------------------------
# constructors and helpers
# ---------------------------------------------------------------------------


def unit(system: CoxeterSystem) -> HeckeElement:
    return _wrap(system, {system.identity: ONE})


def t_basis(system: CoxeterSystem, w: Element) -> HeckeElement:
    return _wrap(system, {w: ONE})


def form(a: HeckeElement, b: HeckeElement) -> LaurentPoly:
    """The standard form with (bar T_x, T_y) = delta_{x,y}.

    Concretely: sum over x of the T_x-coefficient of bar(a) times the
    T_x-coefficient of b.  Z-bilinear, bar-semilinear in the first slot over
    Z[q,q^-1], and adjoint to multiplication via omega:
    form(a*h, h2) == form(h, a.omega()*h2).
    """
    a._check(b)
    abar = a.bar()
    out = ZERO
    for x, c in abar.terms.items():
        d = b.terms.get(x)
        if d is not None:
            out = out + c * d
    return out


def _wrap(system: CoxeterSystem, terms: dict[Element, LaurentPoly]) -> HeckeElement:
    h = HeckeElement.__new__(HeckeElement)
    h.system = system
    h.terms = {w: c for w, c in terms.items() if not c.is_zero()}
    return h


def _add(d: dict[Element, LaurentPoly], w: Element, c: LaurentPoly):
    s = d.get(w)
    s = c if s is None else s + c
    if s.is_zero():
        d.pop(w, None)
    else:
        d[w] = s


def _times_gen_left(system: CoxeterSystem, i: int, terms: Mapping[Element, LaurentPoly]):
    """T_{s_i} * (sum of terms), one application of the quadratic relation."""
    out: dict[Element, LaurentPoly] = {}
    for w, c in terms.items():
        sw = system.apply_left(i, w)
        _add(out, sw, c)
        if system.length(sw) < system.length(w):
            _add(out, w, c * _QINV_MINUS_Q)
    return out


_BAR_T_CACHE: "WeakKeyDictionary[CoxeterSystem, dict]" = WeakKeyDictionary()


def _bar_t(system: CoxeterSystem, x: Element) -> dict[Element, LaurentPoly]:
    """bar(T_x) as a term dict, folded along the canonical reduced word.

    bar(T_s) = T_s + (q - q^-1), and bar is multiplicative, so
    bar(T_x) = bar(T_{s_1}) ... bar(T_{s_l}) for any reduced word; the result
    is word-independent (tests compare a second reduced word).
    """
    memo = _BAR_T_CACHE.setdefault(system, {})
    got = memo.get(x)
    if got is not None:
        return got
    cur = {system.identity: ONE}
    for s in reversed(system.word(x)):
        nxt = _times_gen_left(system, s, cur)
        for w, c in cur.items():
            _add(nxt, w, c * _Q_MINUS_QINV)
        cur = nxt
    memo[x] = cur
    return cur
