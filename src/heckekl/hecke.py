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

The product, bar and form run on packed coefficients (laurent.pack): elements
become maps index -> int, each coefficient p stored as (q^off p)(2^K), and
are decoded once on exit.  The digit width comes from an a-priori bound B
on the L1 norm of every coefficient the call can form, K = laurent.width(B)
= max(64, bit_length(B) + 2), so huge inputs take the same code with wider
digits:

* product a*b: B = |b|_1 * sum_x |a_x|_1 3^l(x), since each T_s step at
  most triples the L1 norm.  Horner over right descents: walk the indices
  downward and add T_t A_y into A_{yt} (t a right descent of y, T_y = T_{yt}
  T_t), where A_y starts as a_y b only once y is reached; the result is A_e.
* bar: B = sum_x |a_x|_1 |bar T_x|_1 <= sum_x |a_x|_1 3^l(x), against one
  packed table of bar(T_x) per system (started afresh when K changes),
  filled lazily from bar(T_x) = bar(T_s) bar(T_{sx}), s the first letter
  of x.

The offset is chosen so that no exponent of any intermediate drops below 0
(the product applies at most l(x) factors q^-1 to a_x b; bar(T_x) has
exponents >= -l(w0)), so each q^-1 step is an exact ``>> K``.  The low digit
of every operand of such a shift is checked (an OR of them, as in the KL
guard), and a step that was not exact raises ExactnessError.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping
from weakref import WeakKeyDictionary

from .coxeter import CoxeterSystem, Element
from .laurent import ExactnessError, LaurentPoly, ONE, ZERO, pack, unpack, width


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
        return HeckeElement(self.system, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add(out, w, -c)
        return HeckeElement(self.system, out)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.system, {w: -c for w, c in self.terms.items()})

    def scale(self, c: LaurentPoly | int) -> "HeckeElement":
        c = c if isinstance(c, LaurentPoly) else LaurentPoly(c)
        if c.is_zero():
            return HeckeElement(self.system, {})
        return HeckeElement(self.system, {w: c * cw for w, cw in self.terms.items()})

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        sys = self.system
        if not self.terms or not other.terms:
            return HeckeElement(sys, {})
        index, length, els = sys.index, sys.length, sys.elements()
        K = width(
            sum(c.l1() for c in other.terms.values())
            * sum(c.l1() * 3 ** length(a) for a, c in self.terms.items())
        )
        off_a = -min(c.min_exp() for c in self.terms.values())
        off_b = max(map(length, self.terms)) - min(c.min_exp() for c in other.terms.values())
        b = [(index(w), pack(c, K, off_b)) for w, c in other.terms.items()]
        seed = {index(a): pack(c, K, off_a) for a, c in self.terms.items()}

        def start(y: int) -> dict[int, int]:  # A_y when y is first reached: a_y b, or 0
            ca = seed.get(y)
            return {} if ca is None else {w: ca * bw for w, bw in b}

        acc: dict[int, dict[int, int]] = {}
        heap = [-y for y in seed]
        heapify(heap)
        low = 0  # OR of the operands of >> K: its low digit must be 0
        while True:
            y = -heappop(heap)
            row = acc.pop(y, None) or start(y)  # a row in acc is never empty
            if not y:
                break
            t = sys.word(els[y])[-1]
            yt = sys.right_index[t - 1][y]
            dest = acc.get(yt)
            if dest is None:
                dest = acc[yt] = start(yt)
                if yt not in seed:
                    heappush(heap, -yt)
            lt = sys.left_index[t - 1]
            for w, c in row.items():
                tw = lt[w]
                dest[tw] = dest.get(tw, 0) + c
                if tw < w:  # T_t T_w = T_tw + (q^-1 - q) T_w
                    low |= c
                    dest[w] = dest.get(w, 0) + (c >> K) - (c << K)
        _check_exact(low, K)
        return _unpack_terms(sys, row, K, off_a + off_b)

    def __rmul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        return NotImplemented

    # -- involutions ---------------------------------------------------------

    def bar(self) -> "HeckeElement":
        """Bar involution: semilinear over q -> q^-1, T_x -> (T_{x^-1})^-1."""
        sys = self.system
        if not self.terms:
            return HeckeElement(sys, {})
        index, length = sys.index, sys.length
        K = width(sum(c.l1() * 3 ** length(x) for x, c in self.terms.items()))
        off = max(c.max_exp() for c in self.terms.values())  # bar(c) has exponents >= -off
        row = _bar_rows(sys, K)
        out: dict[int, int] = {}
        for x, c in self.terms.items():
            cbar = pack(c.bar(), K, off)
            for y, t in row(index(x)).items():
                out[y] = out.get(y, 0) + cbar * t
        return _unpack_terms(sys, out, K, off + length(sys.longest_element()))

    def psi(self) -> "HeckeElement":
        """Linear anti-automorphism T_w -> T_{w^-1}, scalars fixed."""
        sys = self.system
        return HeckeElement(sys, {sys.inverse(w): c for w, c in self.terms.items()})

    def omega(self) -> "HeckeElement":
        """Semilinear anti-automorphism: bar followed by psi (they commute)."""
        return self.bar().psi()

    # -- restriction ---------------------------------------------------------

    def restrict(self, J: Iterable[int]) -> "HeckeElement":
        """Projection to the parabolic subalgebra H_J: keep terms with w in W_J."""
        sys = self.system
        split, index = sys.coset_index(J)[0], sys.index
        return HeckeElement(sys, {w: c for w, c in self.terms.items() if split[index(w)][0] == 0})


# ---------------------------------------------------------------------------
# constructors and helpers
# ---------------------------------------------------------------------------


def unit(system: CoxeterSystem) -> HeckeElement:
    return HeckeElement(system, {system.identity: ONE})


def t_basis(system: CoxeterSystem, w: Element) -> HeckeElement:
    return HeckeElement(system, {w: ONE})


def form(a: HeckeElement, b: HeckeElement) -> LaurentPoly:
    """The standard form with (bar T_x, T_y) = delta_{x,y}.

    Concretely: sum over x of the T_x-coefficient of bar(a) times the
    T_x-coefficient of b.  Z-bilinear, bar-semilinear in the first slot over
    Z[q,q^-1], and adjoint to multiplication via omega:
    form(a*h, h2) == form(h, a.omega()*h2).

    Only the terms of bar(a) on the support of b are formed, packed as in
    bar: sum over y in supp(a) of bar(a_y) * sum over x in supp(b) of
    bar(T_y)[x] b_x, with |result|_1 <= sum_y |a_y|_1 3^l(y) * max_x |b_x|_1.
    """
    a._check(b)
    sys = a.system
    if not a.terms or not b.terms:
        return ZERO
    index, length = sys.index, sys.length
    K = width(
        sum(c.l1() * 3 ** length(y) for y, c in a.terms.items()) * max(c.l1() for c in b.terms.values())
    )
    off_a = max(c.max_exp() for c in a.terms.values())  # bar(a_y) has exponents >= -off_a
    off_b = -min(c.min_exp() for c in b.terms.values())
    bd = {index(x): pack(c, K, off_b) for x, c in b.terms.items()}
    row = _bar_rows(sys, K)
    total = 0
    for y, c in a.terms.items():
        r = row(index(y))
        s = sum(r.get(x, 0) * d for x, d in bd.items())
        if s:
            total += pack(c.bar(), K, off_a) * s
    return unpack(total, K, off_a + off_b + length(sys.longest_element()))


_wrap = HeckeElement  # the constructor's former private name, still imported by tests


def _add(d: dict[Element, LaurentPoly], w: Element, c: LaurentPoly):
    s = d.get(w)
    s = c if s is None else s + c
    if s.is_zero():
        d.pop(w, None)
    else:
        d[w] = s


def _check_exact(low: int, K: int):
    if low & (1 << K) - 1:
        raise ExactnessError("packed Hecke arithmetic: a division by q was not exact")


def _unpack_terms(system: CoxeterSystem, packed: dict[int, int], K: int, off: int) -> HeckeElement:
    els = system.elements()
    poly = {P: unpack(P, K, off) for P in set(packed.values())}  # equal coefficients decode once
    return HeckeElement(system, {els[i]: poly[P] for i, P in packed.items() if P})


_BAR_ROWS: "WeakKeyDictionary[CoxeterSystem, tuple[int, list]]" = WeakKeyDictionary()


def _bar_rows(system: CoxeterSystem, K: int):
    """x -> bar(T_x) as {index: packed coefficient}, offset l(w0), width K.

    One lazily filled table per system, started afresh when K changes (a
    table per width would keep one for every width ever asked for).
    bar(T_s) = T_s + (q - q^-1), so with s the first letter of x,
    bar(T_x) = bar(T_s) bar(T_{sx}), and bar(T_s) T_w is
    T_sw + (q - q^-1) T_w if sw > w and T_sw otherwise.
    """
    have, rows = _BAR_ROWS.get(system, (None, None))
    if have != K:
        rows = [None] * system.order
        rows[0] = {0: 1 << K * system.length(system.longest_element())}
        _BAR_ROWS[system] = K, rows
    els = system.elements()

    def row(x: int) -> dict[int, int]:
        chain = []
        while rows[x] is None:
            chain.append(x)
            s = system.word(els[x])[0]
            x = system.left_index[s - 1][x]
        for x in reversed(chain):
            ls = system.left_index[system.word(els[x])[0] - 1]
            out: dict[int, int] = {}
            low = 0
            for w, h in rows[ls[x]].items():
                sw = ls[w]
                out[sw] = out.get(sw, 0) + h
                if sw > w:
                    low |= h
                    out[w] = out.get(w, 0) + (h << K) - (h >> K)
            _check_exact(low, K)
            rows[x] = {w: h for w, h in out.items() if h}
        return rows[x]

    return row
