"""The Hecke algebra of a finite Coxeter system over Z[q, q^-1].

Elements are sparse combinations of the standard basis {T_w}, with the
quadratic relation T_s^2 = 1 + (q^-1 - q) T_s, so that

    T_s T_w = T_sw             if l(sw) > l(w),
    T_s T_w = T_sw + (q^-1 - q) T_w   otherwise,

and symmetrically on the right; no square root of q is needed and C_s =
T_s + q.  Besides the product: bar (T_x -> (T_{x^-1})^-1, q -> q^-1), psi
(the linear anti-automorphism T_w -> T_{w^-1}), omega = bar psi (omega(T_x)
= (T_x)^-1, omega(q^k) = q^-k), the standard form (bar-semilinear in the
first slot, (bar T_x, T_y) = delta_{x,y}) and restriction to a parabolic
subalgebra H_J (the terms on W_J).

An element is stored packed (laurent.pack: p is (q^off p)(2^K)): one dict
{element index: int} at a digit width K, off minus its least exponent, and a
bound on its L1 norm.  ``.terms`` is its read-only element-keyed view
(_Column, as for KL columns and transition matrices); a KL element is its
column's view over the dict that view keeps, not a copy.  Product, bar, psi
and restrict read and give packed dicts: an operand at the call's K is used
as stored, an offset change is an exact shift, and only an operand at
another K is repacked, once per distinct value.  Equal elements at one K
have equal dicts.

The product is Horner over right descents (_walk): walking indices
downward, add T_t A_y into A_{yt} (t a right descent of y), A_y starting as
a_y b once y is reached (a pair of values that repeats is multiplied once);
the result is A_e.  bar(a) is the same walk with bar(T_t) = T_t + (q - q^-1)
for T_t, over the barred a_y and b = 1, kept on a but not on its result;
form(a, b) is bar(a) dotted with b, coefficient by coefficient over supp(b).
Offsets keep every exponent of every intermediate >= 0, so each q^-1 step
is an exact ``>> K``; an OR of the shifted operands checks their low digits
(ExactnessError if one was not 0).

K = laurent.width(B), B bounding the L1 norm of every coefficient a call
forms: each step at most triples a norm, so B = |a|_1 3^l |b|_1 for a*b
and |a|_1 3^l for bar(a), l the longest length in supp(a).  A
result carries its B; where carried bounds would widen the digits, the exact
norms are used.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from operator import or_
from typing import Iterable

from .coxeter import CoxeterSystem, Element
from .laurent import ExactnessError, LaurentPoly, ZERO, decoder, pack, unpack, width


class MixedSystemError(ValueError):
    """Raised when combining Hecke elements over different Coxeter systems."""


class _Column(Mapping):
    """Read-only view x -> polynomial of a packed column at width K and offset
    off: a dict {index: int}, or (KL columns) an array of rows and an array of
    ids, the entry at rows[k] being values[ids[k]]; a relabeled KL column is
    its partner's two arrays and a symmetry table g, its k-th row g[rows[k]].
    Over arrays, the dict is built on the first random access (get, [],
    _packed) and kept; iterating readers (_pairs, _ints, items) build none.
    Reads decode through polys, a laurent.decoder(K, off), so equal entries
    are one object.  KL columns are views at (64, 0) over KLCache._polys.
    Views over one element order compare packed (_same)."""

    __slots__ = ("_rows", "_ids", "_values", "_g", "_dict", "_polys", "_els", "_index", "K", "off")

    def __init__(self, system: CoxeterSystem, packed, polys, K: int = 64, off: int = 0, ids=None, values=None, g=None):
        # packed: the dict, whose keys are then the rows; or, with ids and values, the array of rows
        self._rows, self._ids, self._values, self._g = packed, ids, values, g
        self._dict = packed if ids is None else None
        self._polys, self.K, self.off = polys, K, off
        self._els, self._index = system.elements(), system._index

    @property
    def _packed(self) -> dict[int, int]:
        """The packed dict {index: int}."""
        if self._dict is None:
            self._dict = dict(self._pairs())
        return self._dict

    def _ints(self) -> Iterable[int]:
        """The packed entries, in row order (from the dict once there is one:
        it reads faster)."""
        d = self._dict
        return d.values() if d is not None else map(self._values.__getitem__, self._ids)

    def _indices(self) -> Iterable[int]:
        """The rows' element indices, in row order (through g if relabeled)."""
        return self._rows if self._g is None else map(self._g.__getitem__, self._rows)

    def _pairs(self) -> Iterable[tuple[int, int]]:
        """(index, packed entry) pairs, in row order."""
        d = self._dict
        return d.items() if d is not None else zip(self._indices(), self._ints())

    def __getitem__(self, x: Element) -> LaurentPoly:
        return self._polys(self._packed[self._index[x]])

    def get(self, x, default=None):
        h = self._packed.get(self._index.get(x))
        return default if h is None else self._polys(h)

    def __iter__(self):
        return map(self._els.__getitem__, self._indices())

    def __len__(self) -> int:
        return len(self._rows)

    def items(self):  # one C-level pass, not a __getitem__ per key
        return dict(zip(self, map(self._polys, self._ints()))).items()

    def __eq__(self, other):
        if isinstance(other, _Column) and self._els is other._els:
            return len(self) == len(other) and _same(self, other)
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return f"_Column({dict(self.items())!r})"


class HeckeElement:
    """A finite Z[q,q^-1]-combination of standard basis elements T_w."""

    __slots__ = ("system", "_packed", "K", "off", "_l1", "_view", "_bar")

    def __init__(self, system: CoxeterSystem, terms: Mapping[Element, LaurentPoly]):
        terms = {system.index(w): c for w, c in terms.items() if not c.is_zero()}
        norms = list(map(LaurentPoly.l1, terms.values()))
        K = width(max(norms, default=0))
        off = -min(map(LaurentPoly.min_exp, terms.values()), default=0)
        self.system, self.K, self.off, self._l1, self._view, self._bar = system, K, off, sum(norms), None, None
        self._packed = {x: pack(c, K, off) for x, c in terms.items()}

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> Mapping[Element, LaurentPoly]:
        """The read-only map w -> coefficient of T_w, zeros absent."""
        if self._view is None:
            self._view = _Column(self.system, self._packed, decoder(self.K, self.off), self.K, self.off)
        return self._view

    def coeff(self, w: Element) -> LaurentPoly:
        """Coefficient of T_w."""
        return self.terms.get(w, ZERO)

    def support(self) -> list[Element]:
        """Support in canonical element order (index order)."""
        return list(map(self.system.elements().__getitem__, sorted(self._packed)))

    def is_zero(self) -> bool:
        return not self._packed

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.system is other.system and len(self._packed) == len(other._packed) and _same(self, other)

    def __repr__(self) -> str:
        if not self._packed:
            return "HeckeElement(0)"
        bits = [f"({c})*T[{','.join(map(str, self.system.word(w)))}]" for w, c in self._sorted()]
        return "HeckeElement(" + " + ".join(bits) + ")"

    def _sorted(self):
        polys, els = self.terms._polys, self.system.elements()
        return [(els[x], polys(P)) for x, P in sorted(self._packed.items())]

    def to_json_obj(self) -> dict:
        return {"terms": [{"word": list(self.system.word(w)), "coeff": c.to_json_obj()} for w, c in self._sorted()]}

    def __reduce__(self):  # a view holds a decoder, which does not pickle
        return _element, (self.system, self._packed, self.K, self.off, self._l1)

    def _pairs(self):
        """(index, packed coefficient) pairs, as for a view (_Column._pairs)."""
        return self._packed.items()

    def _exact_l1(self) -> int:
        """|self|_1, each distinct value decoded once; it replaces the carried bound."""
        norms = {P: unpack(P, self.K, self.off).l1() for P in set(self._packed.values())}
        self._l1 = sum(map(norms.__getitem__, self._packed.values()))
        return self._l1

    # -- module structure ------------------------------------------------

    def _check(self, other: "HeckeElement"):
        if self.system is not other.system:
            raise MixedSystemError("elements live over different Coxeter systems")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms.items())
        for w, c in other.terms.items():
            _add(out, w, c)
        return HeckeElement(self.system, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + -other if isinstance(other, HeckeElement) else NotImplemented

    def __neg__(self) -> "HeckeElement":
        return _element(self.system, {x: -P for x, P in self._packed.items()}, self.K, self.off, self._l1)

    def scale(self, c: LaurentPoly | int) -> "HeckeElement":
        return HeckeElement(self.system, {w: cw * c for w, cw in self.terms.items()})

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        sys = self.system
        if not self._packed or not other._packed:
            return HeckeElement(sys, {})
        K, bound = _width(self, other)
        off_a = self.off + _depth(self)  # room for that many factors q^-1
        row = _walk(sys, _packed_at(self, K, off_a), _packed_at(other, K, other.off), K, _t_step)
        return _result(sys, row, K, off_a + other.off, bound)

    def __rmul__(self, other) -> "HeckeElement":
        return self.scale(other) if isinstance(other, (LaurentPoly, int)) else NotImplemented

    # -- involutions ---------------------------------------------------------

    def bar(self) -> "HeckeElement":
        """Bar involution: semilinear over q -> q^-1, T_x -> (T_{x^-1})^-1;
        the product's walk with bar(T_t) for T_t (module docstring)."""
        if self._bar is not None:
            return self._bar
        sys = self.system
        if not self._packed:
            return HeckeElement(sys, {})
        K, bound = _width(self)
        bars = {P: unpack(P, self.K, self.off).bar() for P in set(self._packed.values())}  # once per distinct value
        off = _depth(self) - min(p.min_exp() for p in bars.values())  # room for that many factors q^-1
        cbar = {P: pack(p, K, off) for P, p in bars.items()}
        seed = {x: cbar[P] for x, P in self._packed.items()}
        self._bar = h = _result(sys, _walk(sys, seed, {0: 1}, K, _bar_step), K, off, bound)
        return h

    def psi(self) -> "HeckeElement":
        """Linear anti-automorphism T_w -> T_{w^-1}, scalars fixed."""
        inv = self.system.inverse_index
        return _element(self.system, {inv[x]: P for x, P in self._packed.items()}, self.K, self.off, self._l1)

    def omega(self) -> "HeckeElement":
        """Semilinear anti-automorphism: bar followed by psi (they commute)."""
        return self.bar().psi()

    # -- restriction ---------------------------------------------------------

    def restrict(self, J: Iterable[int]) -> "HeckeElement":
        """Projection to the parabolic subalgebra H_J: keep terms with w in W_J."""
        split = self.system.coset_index(J)[0]
        kept = {x: P for x, P in self._packed.items() if split[x][0] == 0}
        return _result(self.system, kept, self.K, self.off, self._l1)


# ---------------------------------------------------------------------------
# constructors and helpers
# ---------------------------------------------------------------------------


def unit(system: CoxeterSystem) -> HeckeElement:
    return t_basis(system, system.identity)


def t_basis(system: CoxeterSystem, w: Element) -> HeckeElement:
    return _element(system, {system.index(w): 1}, 64, 0, 1)


def form(a: HeckeElement, b: HeckeElement) -> LaurentPoly:
    """The standard form with (bar T_x, T_y) = delta_{x,y}.

    Concretely: sum over x of the T_x-coefficient of bar(a) times the
    T_x-coefficient of b.  Z-bilinear, bar-semilinear in the first slot over
    Z[q,q^-1], and adjoint to multiplication via omega:
    form(a*h, h2) == form(h, a.omega()*h2).

    That is, bar(a) dotted with b on supp(b).
    """
    a._check(b)
    abar = a.bar()
    return sum((abar.coeff(x) * c for x, c in b.terms.items()), ZERO)


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


def _element(system, packed: dict[int, int], K: int, off: int, l1: int, view: _Column | None = None):
    """The element over packed values computed here (no zeros, no filter), l1 a
    bound on its L1 norm, view (if given) the view of packed."""
    h = HeckeElement.__new__(HeckeElement)
    h.system, h._packed, h.K, h.off, h._l1, h._view, h._bar = system, packed, K, off, l1, view, None
    return h


def _result(system, packed: dict[int, int], K: int, off: int, l1: int) -> HeckeElement:
    """_element with zeros dropped and off lowered to minus the least exponent
    (the lowest set bit of the OR of the values lies in that digit)."""
    if 0 in packed.values():
        packed = {x: P for x, P in packed.items() if P}
    low = reduce(or_, packed.values(), 0)
    drop = ((low & -low).bit_length() - 1) // K if low else 0
    if drop:
        packed = {x: P >> K * drop for x, P in packed.items()}
    return _element(system, packed, K, off - drop, l1)


def _same(a, b) -> bool:
    """a == b for packed forms (elements or views) of one length over one
    element order, compared at the wider K and the larger offset."""
    K, off = max(a.K, b.K), max(a.off, b.off)
    return _packed_at(a, K, off) == _packed_at(b, K, off)


def _packed_at(h, K: int, off: int) -> dict[int, int]:
    """h's packed dict (h an element or a view) at width K and offset off >=
    h.off: as kept, shifted, or at another K repacked once per distinct value.
    A view over arrays that keeps no dict gets one built from its pairs, not kept."""
    if h.K == K:
        shift, d = K * (off - h.off), h._packed if isinstance(h, HeckeElement) else h._dict
        return d if d is not None and not shift else {x: P << shift for x, P in h._pairs()}
    repack = cache(lambda P: pack(unpack(P, h.K, h.off), K, off))
    return {x: repack(P) for x, P in h._pairs()}


def _width(a: HeckeElement, b: HeckeElement | None = None) -> tuple[int, int]:
    """(K, B) for a*b, or for bar(a) without b (module docstring): from the
    carried norms, or the exact ones if those need a wider digit."""
    grow = 3 ** _depth(a)
    bound = grow * a._l1 * (b._l1 if b else 1)
    if width(bound) > max(a.K, b.K if b else 0):
        bound = grow * a._exact_l1() * (b._exact_l1() if b else 1)
    return width(bound), bound


def _depth(h: HeckeElement) -> int:
    """The longest length in supp(h): the most steps a walk from h takes."""
    return h.system.length(h.system.elements()[max(h._packed)])


def _walk(system: CoxeterSystem, seed: dict[int, int], b: dict[int, int], K: int, step) -> dict[int, int]:
    """A_e of the Horner walk over right descents (module docstring): walking
    indices downward, step adds the generator t times A_y into A_{yt} (t the
    last letter of y), A_y starting as seed[y] b once y is reached.  step
    returns the OR of its operands of >> K, whose low digit must be 0."""
    els, values, b, left = system.elements(), set(b.values()), list(b.items()), {}
    for ca in seed.values():  # left[ca]: the rows still to start from seed value ca
        left[ca] = left.get(ca, 0) + 1
    products: dict[int, dict[int, int]] = {}  # ca -> {bw: ca * bw} while left[ca]; exact at one (K, off)

    def start(y: int) -> dict[int, int]:  # A_y when y is first reached: seed[y] b, or 0
        ca = seed.get(y)
        if ca is None:
            return {}
        left[ca] -= 1
        if not (left[ca] or ca in products) and len(values) == len(b):  # no pair repeats
            return {w: ca * bw for w, bw in b}
        m = products.pop(ca, None) or {bw: ca * bw for bw in values}
        if left[ca]:
            products[ca] = m
        return {w: m[bw] for w, bw in b}

    acc: dict[int, dict[int, int]] = {}
    heap, low = [-y for y in seed], 0
    heapify(heap)
    while True:
        y = -heappop(heap)
        row = acc.pop(y, None) or start(y)  # a row in acc is never empty
        if not y:
            break
        t = system.word(els[y])[-1]
        yt = system.right_index[t - 1][y]
        dest = acc.get(yt)
        if dest is None:
            dest = acc[yt] = start(yt)
            if yt not in seed:
                heappush(heap, -yt)
        low |= step(row, dest, system.left_index[t - 1], K)
    _check_exact(low, K)
    return row


def _t_step(row: dict[int, int], dest: dict[int, int], lt: list[int], K: int) -> int:
    """dest += T_t row, lt = left multiplication by t: T_t T_w = T_tw + (q^-1 - q) T_w where tw < w."""
    low = 0
    for w, c in row.items():
        tw = lt[w]
        dest[tw] = dest.get(tw, 0) + c
        if tw < w:
            low |= c
            dest[w] = dest.get(w, 0) + (c >> K) - (c << K)
    return low


def _bar_step(row: dict[int, int], dest: dict[int, int], lt: list[int], K: int) -> int:
    """dest += bar(T_t) row: bar(T_t) T_w = T_tw + (q - q^-1) T_w where tw > w."""
    low = 0
    for w, c in row.items():
        tw = lt[w]
        dest[tw] = dest.get(tw, 0) + c
        if tw > w:
            low |= c
            dest[w] = dest.get(w, 0) + (c << K) - (c >> K)
    return low
