"""Closed-form and alternative-construction cross-checks for the pipeline.

Everything here recomputes a quantity that hybrid/klbasis already produce,
by a different route: the sign-module construction of parabolic KL
polynomials, the dihedral and type-A closed forms for restriction
coefficients, translation identities for KL polynomials under the shift
y -> s_i...s_n y, and the interval-element restriction formula.  Tests and
the verify suite compare these against the main pipeline; the oracles keep
their own arithmetic and never call the solver they are checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .coxeter import CoxeterSystem, Element
from .hecke import HeckeElement, _add
from .klbasis import KLCache, bruhat_interval_element
from .laurent import LaurentPoly, ONE, Q, ZERO

_QINV_MINUS_Q = LaurentPoly({-1: 1, 1: -1})
_MINUS_Q = LaurentPoly({1: -1})


# ---------------------------------------------------------------------------
# the sign-induced module H * e_J
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class SignModuleElement:
    """Element of the module induced from the sign character of H_J,
    written on the basis {T_u e : u in W^J}; terms maps u to its coefficient."""

    system: CoxeterSystem
    J: frozenset[int]
    terms: dict

    def coeff(self, u: Element) -> LaurentPoly:
        return self.terms.get(u, ZERO)


def sign_project(h: HeckeElement, J: Iterable[int]) -> SignModuleElement:
    """Image of h under H -> H*e, e the sign idempotent direction of H_J.

    On the sign character T_s acts by -q for s in J, so T_{uv} e with
    u in W^J, v in W_J lands on (-q)^l(v) T_u e.
    """
    sys = h.system
    J = sys.subset(J)
    out: dict[Element, LaurentPoly] = {}
    for w, c in h.terms.items():
        u, v = sys.parabolic_factorize_left(w, J)
        lv = sys.length(v)
        _add(out, u, c * LaurentPoly.q_power(lv, (-1) ** lv))
    return SignModuleElement(sys, J, out)


def sign_action_gen(i: int, m: SignModuleElement) -> SignModuleElement:
    """T_{s_i} acting on the induced module.

    For u in W^J either s_i u is again in W^J (ordinary quadratic-relation
    cases) or s_i u = u t with t in J, in which case T_{s_i} T_u e =
    T_u T_t e = -q T_u e.
    """
    sys = m.system
    out: dict[Element, LaurentPoly] = {}
    for u, c in m.terms.items():
        su = sys.apply_left(i, u)
        if sys.length(su) < sys.length(u):
            _add(out, su, c)
            _add(out, u, c * _QINV_MINUS_Q)
        elif sys.right_descents(su) & m.J:
            _add(out, u, c * _MINUS_Q)
        else:
            _add(out, su, c)
    return SignModuleElement(sys, m.J, out)


def parabolic_kl_via_sign_module(
    cache: KLCache, J: Iterable[int]
) -> dict[tuple[Element, Element], LaurentPoly]:
    """Parabolic KL matrix over W^J x W^J obtained by sign-projecting each
    C_{u'}; entry (u,u') is sum over v in W_J of (-q)^l(v) h_{uv,u'}.
    Independent of the restriction/back-substitution pipeline."""
    sys = cache.system
    J = sys.subset(J)
    out: dict[tuple[Element, Element], LaurentPoly] = {}
    for up in sys.min_coset_reps(J, "left"):
        image = sign_project(cache.kl_element(up), J)
        for u, c in image.terms.items():
            out[(u, up)] = c
    return out


# ---------------------------------------------------------------------------
# dihedral closed form
# ---------------------------------------------------------------------------


def dihedral_restriction_formula(
    system: CoxeterSystem, u: Element, w: Element
) -> dict[Element, LaurentPoly]:
    """Closed form for the restriction coefficients of (T_{u^-1} C_w)|_{J},
    J = {1}, in a dihedral group; returns {v: coefficient of C_v}.

    With k = l(u) the three cases, evaluated in this order, are:
      w >= u*s1                   -> q^(l(w)-k-1) on C_{s1},
      u <= w <= swap(u*s1)        -> q^(l(w)-k)   on C_1,
      otherwise (w not >= u)      -> zero,
    where swap exchanges the two generators in the alternating word.
    """
    if system.family != "I2":
        raise ValueError("dihedral closed form needs an I2(m) system")
    if 1 in system.right_descents(u):
        raise ValueError("u is not a minimal coset representative: generator 1 is a right descent")
    k = system.length(u)
    us1 = system.apply_right(u, 1)
    swapped = system.element_from_word([3 - g for g in system.word(us1)])
    lw = system.length(w)
    if system.bruhat_leq(us1, w):
        return {system.generator(1): LaurentPoly.q_power(lw - k - 1)}
    if system.bruhat_leq(u, w) and system.bruhat_leq(w, swapped):
        return {system.identity: LaurentPoly.q_power(lw - k)}
    return {}


# ---------------------------------------------------------------------------
# type A closed forms and translation identities
# ---------------------------------------------------------------------------


def _tail_product(system: CoxeterSystem, i: int) -> Element:
    # s_i s_{i+1} ... s_n
    return system.element_from_word(range(i, system.rank + 1))


def _require_type_a(system: CoxeterSystem):
    if system.family != "A":
        raise ValueError("this formula is specific to type A")


def type_a_restriction_formula(cache: KLCache, i: int, w: Element) -> dict[Element, LaurentPoly]:
    """Closed form for the restriction coefficients of (T_{u^-1} C_w)|_J in
    type A(n) with J = {1..n-1} and u = s_i...s_n, for i in {1,2,3}.

    Writing w = wq * wp (quotient/parabolic parts): the answer is supported
    on the KL basis of W_J and depends only on which of s_1..s_n-tails wq
    equals; the deepest i = 3 case with s_1 wp > wp returns
    q * C_{s1} * C_{wp} re-expanded through the KL product rule.
    """
    sys = cache.system
    _require_type_a(sys)
    n = sys.rank
    if not 1 <= i <= 3 or n < i:
        raise ValueError(f"i must be in 1..3 and at most the rank, got i={i}, rank {n}")
    J = frozenset(range(1, n))
    wq, wp = sys.parabolic_factorize_left(w, J)

    if i == 1:
        return {wp: ONE} if wq == _tail_product(sys, 1) else {}
    if i == 2:
        if wq == _tail_product(sys, 2):
            return {wp: ONE}
        if wq == _tail_product(sys, 1):
            return {wp: Q}
        return {}
    if wq == _tail_product(sys, 3):
        return {wp: ONE}
    if wq == _tail_product(sys, 2):
        return {wp: Q}
    if wq != _tail_product(sys, 1):
        return {}
    if 1 in sys.left_descents(wp):
        return {wp: LaurentPoly.q_power(2)}
    # q * C_{s1} * C_{wp} = q C_{s1 wp} + q * sum of mu(z, wp) C_z over
    # z < wp with s1 z < z
    out = {sys.apply_left(1, wp): Q}
    for z in cache.kl_column(wp):
        if z == wp or 1 not in sys.left_descents(z):
            continue
        m = cache.mu(z, wp)
        if m:
            out[z] = LaurentPoly.q_power(1, m)
    return out


def translation_identity_holds(cache: KLCache, i: int, y: Element, x: Element) -> bool:
    """KL polynomials are unchanged by left translation with s_i...s_n:
    h_{y,x} = h_{ty,tx} for y, x in W_{[n-1]} and t = s_i...s_n."""
    sys = cache.system
    _require_type_a(sys)
    t = _tail_product(sys, i)
    ty = sys.multiply(t, y)
    tx = sys.multiply(t, x)
    return cache.kl_poly(y, x) == cache.kl_poly(ty, tx)


def shifted_translation_identity_holds(cache: KLCache, i: int, y: Element, x: Element) -> bool:
    """Mixed-shift identity plus the mu value it forces, for y, x in W_{[n-1]}.

    With t = s_i...s_n and t2 = s_{i+2}...s_n (so i <= n-2):

        h_{t2 y, t x} = q^2 h_{y,x}                  if s_i x < x
                      = q h_{s_i y,x} + h_{y,x}      if s_i y < y, s_i x > x
                      = q h_{s_i y,x} + q^2 h_{y,x}  otherwise,

    and mu(t2 y, t x) is delta_{s_i y, x} + mu(y,x) in the middle case and
    0 in the other two.  Returns True iff both hold for this (i, y, x).
    """
    sys = cache.system
    _require_type_a(sys)
    n = sys.rank
    if not 1 <= i <= n - 2:
        raise ValueError(f"i must be in 1..{n - 2}, got {i}")
    t = _tail_product(sys, i)
    t2 = _tail_product(sys, i + 2)
    lhs = cache.kl_poly(sys.multiply(t2, y), sys.multiply(t, x))

    sy = sys.apply_left(i, y)
    sx_descends = i in sys.left_descents(x)
    sy_descends = i in sys.left_descents(y)
    q2 = LaurentPoly.q_power(2)
    if sx_descends:
        rhs = q2 * cache.kl_poly(y, x)
        mu_expected = 0
    elif sy_descends:
        rhs = Q * cache.kl_poly(sy, x) + cache.kl_poly(y, x)
        mu_expected = (1 if sy == x else 0) + cache.mu(y, x)
    else:
        rhs = Q * cache.kl_poly(sy, x) + q2 * cache.kl_poly(y, x)
        mu_expected = 0
    return lhs == rhs and lhs.coeff(1) == mu_expected


# ---------------------------------------------------------------------------
# interval-element restriction
# ---------------------------------------------------------------------------


def interval_restriction_formula(
    system: CoxeterSystem, u: Element, w: Element, J: Iterable[int]
) -> HeckeElement:
    """(T_{u^-1} * interval element of w) restricted to W_J, by the
    maximal-element formula: q^(l(w)-l(u)) times the sum of q^(-l(g)) R_g
    over the Bruhat-maximal g among {v in W_J : u v <= w}."""
    J = system.subset(J)
    if system.right_descents(u) & J:
        raise ValueError("u is not a minimal coset representative for J")
    candidates = [v for v in system.subgroup_elements(J) if system.bruhat_leq(system.multiply(u, v), w)]
    maximal = [
        g
        for g in candidates
        if not any(g != v and system.bruhat_leq(g, v) for v in candidates)
    ]
    shift = system.length(w) - system.length(u)
    out: dict[Element, LaurentPoly] = {}
    for g in maximal:
        scale = LaurentPoly.q_power(shift - system.length(g))
        for y, c in bruhat_interval_element(system, g).terms.items():
            if system.in_parabolic(y, J):
                _add(out, y, scale * c)
    return HeckeElement(system, out)
