"""Kazhdan-Lusztig bases, mu-coefficients, and rational smoothness.

The KL basis element C_w is the unique bar-self-dual element of the form
C_w = sum_x h_{x,w}(q) T_x with h_{w,w} = 1, h_{x,w} = 0 unless x <= w, and
h_{x,w} in qZ[q] for x < w.  Two independent computations are provided:

* KLCache — the production path.  Columns are built bottom-up along the
  canonical reduced word by the product-and-correct recursion

      C_w = C_{ws} C_s - sum_{z < ws, zs < z} mu(z, ws) C_z

  (s the last letter of the ShortLex word of w) and memoized per column.

* KLOracle — a deliberately separate recursion that peels a left descent
  off the second index:

      h_{y,x} = h_{sy,sx} + q^c h_{y,sx} - sum_{y <= z < sx, sz < z} mu(z,sx) h_{y,z}

  with c = -1 if sy < y and c = +1 otherwise.  It never touches a KLCache,
  so agreement of the two paths is a genuine cross-check.

Inside KLCache elements are their positions in system.elements() and each
h_{x,w} in Z[q] is one Python int, its value at q = 2^64.  With v = ws, the
coefficient of C_v C_s at y is h_{ys,v} + (h_{y,v} >> 64 if ys < y, else
h_{y,v} << 64); mu is digit 1.  A guard raises ExactnessError naming the
column unless its diagonal is 1, each >> 64 was exact, (2 + sum of mu) *
(largest coefficient so far) < 2^62 (so decoding is unique) and all entries
are >= 0 with digits < 2^62; loaded columns pass it when first read.  Each
column is one packed dict {index: int}, its only copy: compute, read, load
and save all use it, and kl_column hands out a read-only Mapping view of it
that decodes through one intern table.  Equal entries are one int (one
setdefault table).

Also here: the Bruhat-interval element sum_{y <= w} q^{l(w)-l(y)} T_y, which
coincides with C_w exactly for rationally smooth w (in type A: for the
permutations avoiding the patterns 3412 and 4231), and the pattern test.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from collections.abc import Mapping
from functools import cache, reduce
from itertools import chain, combinations
from operator import or_
from typing import Iterable

from .coxeter import CoxeterSystem, Element, UnsupportedGroupError, format_word, parse_word
from .hecke import HeckeElement
from .laurent import ExactnessError, LaurentPoly, ONE, Q, QINV, ZERO, decoder, pack

_CACHE_FORMAT = 1

_DIGIT = 64  # bits per packed coefficient: h(q) is stored as h(2^64)
_MASK = (1 << _DIGIT) - 1
_LIMIT = 1 << 62  # every packed coefficient stays below this


class _Column(Mapping):
    """Read-only view x -> polynomial of a packed column {index: int} at digit
    width K and offset off (laurent.pack); each read decodes through polys, a
    laurent.decoder(K, off), so equal entries are one object.  KL columns are
    the views at (64, 0) over KLCache._polys; transition matrices keep their
    packed columns behind views too.  Two views at the same (K, off) over one
    element order compare by their packed dicts."""

    __slots__ = ("_packed", "_polys", "_els", "_index", "K", "off")

    def __init__(self, system: CoxeterSystem, packed: dict[int, int], polys, K: int = _DIGIT, off: int = 0):
        self._packed, self._polys, self.K, self.off = packed, polys, K, off
        self._els, self._index = system.elements(), system._index

    def __getitem__(self, x: Element) -> LaurentPoly:
        return self._polys(self._packed[self._index[x]])

    def get(self, x, default=None):
        h = self._packed.get(self._index.get(x))
        return default if h is None else self._polys(h)

    def __iter__(self):
        return map(self._els.__getitem__, self._packed)

    def __len__(self) -> int:
        return len(self._packed)

    def items(self):  # one C-level pass, not a __getitem__ per key
        return dict(zip(self, map(self._polys, self._packed.values()))).items()

    def __eq__(self, other):
        if isinstance(other, _Column) and (self._els, self.K, self.off) == (other._els, other.K, other.off):
            return self._packed == other._packed
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return f"_Column({dict(self.items())!r})"


class KLCache:
    """Per-system store of KL columns h_{.,w}, filled on demand: one packed dict
    per column, the only copy of it, behind its read-only view in ``_columns``."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._columns: dict[Element, _Column] = {}
        self.computed = 0  # columns computed here rather than loaded
        self._ints: dict[int, int] = {}  # intern table: equal packed entries share one int
        self._unguarded: set[int] = set()  # loaded, not read yet: guarded on first read
        self._top = 1  # largest coefficient in any packed column so far
        self._polys = decoder(_DIGIT, 0)  # intern table: h -> its one LaurentPoly
        self._l1: dict[int, int] = {}  # see _column_l1

    # -- core recursion ----------------------------------------------------

    def kl_column(self, w: Element) -> Mapping[Element, LaurentPoly]:
        """The read-only map x -> h_{x,w}; absent keys are zero."""
        col = self._columns.get(w)
        if col is None:
            col = self._columns[w] = _Column(self.system, self._compute(self.system.index(w)), self._polys)
            self.computed += 1
        elif self._unguarded and (i := self.system.index(w)) in self._unguarded:
            if None in col._packed.values():  # load could not pack an entry
                self._fail(i, "a loaded entry is not in Z[q] with coefficients in [0, 2^62)")
            self._guard(i, col._packed)
            self._unguarded.remove(i)
        return col

    def _packed_column(self, i: int) -> dict[int, int]:
        """Packed column i, read through kl_column, so a missing column shows
        up as extra kl_column calls."""
        return self.kl_column(self.system.elements()[i])._packed

    def _column_l1(self, i: int) -> int:
        """The largest L1 norm of an entry of column i (the hybrid layer's width bound)."""
        l1 = self._l1.get(i)
        if l1 is None:
            polys = self._polys
            l1 = self._l1[i] = max(polys(h).l1() for h in set(self._packed_column(i).values()))
        return l1

    def _compute(self, i: int) -> dict[int, int]:
        if i == 0:
            return {0: 1}
        right = self.system.right_index[self.system.word(self.system.elements()[i])[-1] - 1]
        colv = self._packed_column(right[i])

        # C_v C_s on pairs y < ys: h_y = h_{ys,v} + q h_{y,v} and
        # h_ys = h_{y,v} + q^-1 h_{ys,v}; ys <= v whenever ys < y <= v
        out: dict[int, int] = {}
        low = 0  # OR of the operands of >> 64: its low digit must be 0
        for y, h in colv.items():
            ys = right[y]
            if ys > y:
                hb = colv.get(ys, 0)
                low |= hb
                out[y] = hb + (h << _DIGIT)
                out[ys] = h + (hb >> _DIGIT)

        # corrections: - mu(z, v) C_z over z < v with zs < z
        mu_sum = 0
        for z, h in colv.items():
            m = right[z] < z and (h >> _DIGIT) & _MASK
            if m:
                mu_sum += m
                try:  # x lies in [e, z], inside out's support, unless a loaded column is damaged
                    for x, hz in self._packed_column(z).items():
                        out[x] -= m * hz
                except KeyError:
                    self._fail(i, "a loaded column has an entry outside the Bruhat interval")
        self._guard(i, out, low, mu_sum)
        intern = self._ints.setdefault
        for x, h in out.items():
            out[x] = intern(h, h)
        return out

    def _guard(self, i: int, col: dict[int, int], low: int = 0, mu_sum: int = 0):
        """Raise unless packed column i decodes exactly (module docstring)."""
        if col.get(i) != 1:
            self._fail(i, "the diagonal entry is not 1")
        if low & _MASK:
            self._fail(i, "a division by q was not exact")
        if (2 + mu_sum) * self._top >= _LIMIT:
            self._fail(i, "coefficients could reach 2^62")
        # digit k of the OR bounds digit k of every entry; it is < 0 iff one is
        top, acc = self._top, reduce(or_, col.values())
        while acc > 0:
            top, acc = max(top, acc & _MASK), acc >> _DIGIT
        if acc < 0 or top >= _LIMIT:
            self._fail(i, "an entry is negative or has a coefficient >= 2^62")
        self._top = top

    def _fail(self, i: int, why: str):
        word = format_word(self.system.word(self.system.elements()[i])) or "e"
        raise ExactnessError(f"KL column {word}: {why}")

    # -- public accessors ------------------------------------------------

    def kl_element(self, w: Element) -> HeckeElement:
        """C_w as a Hecke element."""
        return HeckeElement(self.system, self.kl_column(w))

    def kl_poly(self, x: Element, w: Element) -> LaurentPoly:
        """h_{x,w}; the zero polynomial iff x is not <= w."""
        return self.kl_column(w).get(x, ZERO)

    def mu(self, z: Element, w: Element) -> int:
        """Coefficient of q^1 in h_{z,w}."""
        return self.kl_poly(z, w).coeff(1)

    def fill(self, threads: int = 1):
        """Compute every column.  ``threads`` is accepted and ignored."""
        for w in self.system.elements():
            self.kl_column(w)

    # -- persistence -------------------------------------------------------

    def save(self, path):
        """Dump all cached columns as gzipped JSON keyed by canonical words,
        atomically (os.replace of a file written in the same directory).  A
        loaded column that did not pack is left out: the next run recomputes it."""
        sys, index = self.system, self.system._index
        words = [format_word(sys.word(w)) for w in sys.elements()]
        stored = sorted(  # index order is canonical order
            (index[w], col._packed)
            for w, col in self._columns.items()
            if index[w] not in self._unguarded or None not in col._packed.values()
        )
        entries = set(chain.from_iterable(c.values() for _, c in stored))
        encoded = {h: self._polys(h).to_json_obj() for h in entries}  # each distinct entry once
        obj = {
            "format": _CACHE_FORMAT,
            "group": sys.type_string,
            "columns": {words[i]: {words[x]: encoded[h] for x, h in sorted(c.items())} for i, c in stored},
        }
        # write a file beside path, then move it into place: a failed save
        # leaves any previous file as it was
        path = os.fspath(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            # the gzip header names path, as when writing it directly
            with open(tmp, "wb") as raw, gzip.GzipFile(path, "wb", fileobj=raw) as gz, io.TextIOWrapper(
                gz, encoding="utf-8"
            ) as fh:
                json.dump(obj, fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # the save failed
                os.unlink(tmp)

    @classmethod
    def load(cls, path, system: CoxeterSystem) -> "KLCache":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            obj = json.load(fh)
        if type(obj) is not dict:
            raise ValueError("cache file is not a JSON object")
        if obj.get("format") != _CACHE_FORMAT or type(obj["format"]) is not int:  # true == 1.0 == 1
            raise ValueError(f"unsupported cache format {obj.get('format')!r}")
        if obj.get("group") != system.type_string:
            raise ValueError(f"cache is for group {obj.get('group')!r}, not {system.type_string}")
        columns = obj.get("columns")
        if type(columns) is not dict or not {*map(type, columns.values())} <= {dict}:
            raise ValueError("cache columns are not an object of objects")
        out = cls(system)
        els = system.elements()
        index = cache(lambda text: system.index(system.element_from_word(parse_word(text))))
        packs: dict[tuple, int | None] = {}  # one pack per distinct JSON polynomial; None: not packable

        def packed(obj) -> int | None:
            key = tuple(obj.items())
            if key not in packs:
                p, h = LaurentPoly.from_json_obj(obj), None
                if all(e >= 0 and 0 <= c < _LIMIT for e, c in p.items()):  # in Z[q], digits < 2^62
                    h = pack(p, _DIGIT, 0)
                    h = out._ints.setdefault(h, h)
                packs[key] = h
            return packs[key]

        for wtext, col in columns.items():
            polys = col.values()  # int() would also take a float or a bool coefficient
            coeffs = chain.from_iterable(map(dict.values, polys))  # read once every entry is an object
            if not {*map(type, polys)} <= {dict} or not {*map(type, coeffs)} <= {int, str}:
                raise ValueError(f"cache column {wtext!r}: an entry is not an object of ints or decimal strings")
            i = index(wtext)
            out._columns[els[i]] = _Column(system, {index(xtext): packed(p) for xtext, p in col.items()}, out._polys)
            out._unguarded.add(i)
        return out


class KLOracle:
    """Independent KL polynomials via the left-descent recursion (see module
    docstring); shares nothing with KLCache beyond the group itself."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._memo: dict[tuple[Element, Element], LaurentPoly] = {}

    def kl_poly(self, y: Element, x: Element) -> LaurentPoly:
        sys = self.system
        if y == x:
            return ONE
        if not sys.bruhat_leq(y, x):
            return ZERO
        key = (y, x)
        got = self._memo.get(key)
        if got is not None:
            return got
        s = min(sys.left_descents(x))
        sx = sys.apply_left(s, x)
        sy = sys.apply_left(s, y)
        qc = QINV if sys.length(sy) < sys.length(y) else Q
        val = self.kl_poly(sy, sx) + qc * self.kl_poly(y, sx)
        for z in sys.elements():
            if z == sx or s not in sys.left_descents(z):
                continue
            if not (sys.bruhat_leq(y, z) and sys.bruhat_leq(z, sx)):
                continue
            m = self.mu(z, sx)
            if m:
                val = val - m * self.kl_poly(y, z)
        self._memo[key] = val
        return val

    def mu(self, z: Element, x: Element) -> int:
        return self.kl_poly(z, x).coeff(1)


# ---------------------------------------------------------------------------
# Bruhat-interval elements and smoothness
# ---------------------------------------------------------------------------


def bruhat_interval_element(system: CoxeterSystem, w: Element) -> HeckeElement:
    """sum over y <= w of q^(l(w)-l(y)) T_y.

    Equals C_w exactly when w is rationally smooth — always in dihedral
    groups, and in type A iff w avoids 3412 and 4231.
    """
    lw = system.length(w)
    terms = {y: LaurentPoly.q_power(lw - system.length(y)) for y in system.bruhat_interval(w)}
    return HeckeElement(system, terms)


def _contains_pattern(line: Iterable[int], pattern: tuple[int, ...]) -> bool:
    line = tuple(line)
    k = len(pattern)
    want = _ranks(pattern)
    return any(_ranks(sub) == want for sub in combinations(line, k))


def _ranks(vals) -> tuple[int, ...]:
    order = sorted(vals)
    return tuple(order.index(v) + 1 for v in vals)


def is_rationally_smooth(system: CoxeterSystem, w: Element) -> bool:
    """Type-A rational smoothness: one-line notation avoids 3412 and 4231."""
    if system.family != "A":
        raise UnsupportedGroupError("rational smoothness test is implemented for type A only")
    return not (_contains_pattern(w, (3, 4, 1, 2)) or _contains_pattern(w, (4, 2, 3, 1)))
