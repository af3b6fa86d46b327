"""Kazhdan-Lusztig bases, mu-coefficients, and rational smoothness.

The KL basis element C_w is the unique bar-self-dual element of the form
C_w = sum_x h_{x,w}(q) T_x with h_{w,w} = 1, h_{x,w} = 0 unless x <= w, and
h_{x,w} in qZ[q] for x < w.  Two independent computations are provided:

* KLCache — the production path.  Columns are built bottom-up along the
  canonical reduced word by the product-and-correct recursion

      C_w = C_{ws} C_s - sum_{z < ws, zs < z} mu(z, ws) C_z

  (s the last letter of the ShortLex word of w) and memoized per column.
  The recursion runs once per orbit of h_{x,w} = h_{x^-1,w^-1} =
  h_{w0 x w0, w0 w w0} (psi and the diagram automorphism s -> w0 s w0 both
  commute with bar): a column whose partner under one of the system's
  index_symmetries was already read is that column relabeled.

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
are >= 0 with digits < 2^62.  load decodes, guards and stores the file's
columns one at a time, so it never holds the whole decoded file (an entry of
degree above l(w0) does not pack, so its column fails); a column that fails
is not stored, and reading it raises the guard's error.  A relabeled column
reads its partner's ints, so it needs no guard.

Each column is stored as two arrays: its rows (element indices) and, per
row, an id into the cache's one list of distinct packed entries, so equal
entries are one int.  Compute, load and save all use this form; a relabeled
column is its partner's two arrays, not copies, and the symmetry table g that
maps its row r to g[r] (the tables are every symmetry but e, so an orbit's
first stored column is the partner of all the rest).  kl_column hands out a
read-only Mapping view over the arrays that decodes through one intern table.
Readers that iterate (the recursion, save, the hybrid layer) read the arrays,
the rows through g; the view builds a dict {index: int} on the first random
access and keeps it, and kl_element is a Hecke element over that dict.

Also here: the Bruhat-interval element sum_{y <= w} q^{l(w)-l(y)} T_y, which
coincides with C_w exactly for rationally smooth w (in type A: for the
permutations avoiding the patterns 3412 and 4231), and the pattern test.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
from array import array
from collections.abc import Mapping
from functools import reduce
from itertools import chain, combinations
from json.decoder import WHITESPACE, JSONDecodeError, scanstring
from operator import or_
from typing import Iterable

from .coxeter import CoxeterSystem, Element, UnsupportedGroupError, format_word
from .hecke import HeckeElement, _Column, _element
from .laurent import ExactnessError, LaurentPoly, ONE, Q, QINV, ZERO, decoder, pack

_CACHE_FORMAT = 1

_DIGIT = 64  # bits per packed coefficient: h(q) is stored as h(2^64)
_MASK = (1 << _DIGIT) - 1
_LIMIT = 1 << 62  # every packed coefficient stays below this

_decode, _WS = json.JSONDecoder().raw_decode, WHITESPACE.match  # load's JSON reader
_OPEN = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*(?:(")|\})').match  # "{" and a key's quote, or "{}"
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*").match
_NEXT = re.compile(r'[ \t\n\r]*(?:(,)[ \t\n\r]*"|\})').match  # "," and a key's quote, or "}"


class _Ids(dict):
    """The id table: packed entry -> its place in ``entries``, the one list of
    distinct entries.  Looking up an entry not seen yet appends it."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[int] = []

    def __missing__(self, h: int) -> int:
        self[h] = k = len(self.entries)
        self.entries.append(h)
        return k


def _code(n: int) -> str:
    """The array type code for the integers 0 .. n-1."""
    return "H" if n <= 1 << 16 else "L"


def _array(code: str, items: Iterable[int]) -> array:
    return array(code, list(items))  # from a list, array() fills "H" about twice as fast


class KLCache:
    """Per-system store of KL columns h_{.,w}, filled on demand.  Each column is
    two arrays behind its read-only view in ``_columns``: its rows and, per
    row, an id into ``_values``, the one list of distinct packed entries of
    the cache.  Every stored column has passed the guard: a column is computed
    by the recursion, relabeled from a stored partner (the partner's arrays
    read through a symmetry table) or loaded; a loaded column that fails the
    guard is not stored, and reading it raises its error (``_damaged``)."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._columns: dict[Element, _Column] = {}
        self.computed = 0  # columns computed (or relabeled) here rather than loaded
        self._ids = _Ids()  # packed entry -> id; _values[id] is that entry's one int
        self._values = self._ids.entries
        self._row_code = _code(system.order)
        self._damaged: dict[Element, str] = {}  # loaded column -> the guard's error on it
        self._top = 1  # largest coefficient in any packed column so far
        self._polys = decoder(_DIGIT, 0)  # intern table: h -> its one LaurentPoly
        self._l1: dict[int, int] = {}  # see _column_l1

    # -- core recursion ----------------------------------------------------

    def kl_column(self, w: Element) -> Mapping[Element, LaurentPoly]:
        """The read-only map x -> h_{x,w}; absent keys are zero."""
        col = self._columns.get(w)
        if col is None:
            if w in self._damaged:
                raise ExactnessError(self._damaged[w])
            col = self._columns[w] = self._compute(self.system.index(w))
            self.computed += 1
        return col

    def _column_l1(self, i: int) -> int:
        """The largest L1 norm of an entry of column i (the hybrid layer's width bound)."""
        l1 = self._l1.get(i)
        if l1 is None:
            polys, col = self._polys, self.kl_column(self.system.elements()[i])
            l1 = self._l1[i] = max(polys(h).l1() for h in set(col._ints()))
        return l1

    def _store(self, col: dict[int, int]) -> _Column:
        """A view over col as arrays: its rows, and the ids of its entries (the
        id table takes the ones it has not seen)."""
        code = _code(len(self._values) + len(col))  # room for every id the column may add
        return self._view(_array(self._row_code, col), _array(code, map(self._ids.__getitem__, col.values())))

    def _view(self, rows: array, ids: array, g: list[int] | None = None) -> _Column:
        return _Column(self.system, rows, self._polys, ids=ids, values=self._values, g=g)

    def _compute(self, i: int) -> _Column:
        if i == 0:
            return self._store({0: 1})
        els = self.system.elements()
        for g in self.system.index_symmetries:  # h_{x,w} = h_{g(x),g(w)}: view a stored column through g
            if (w := els[g[i]]) in self._columns and self._columns[w]._g is None:  # not itself relabeled
                col = self.kl_column(w)  # read through kl_column, which counts reads
                return self._view(col._rows, col._ids, g)
        right = self.system.right_index[self.system.word(els[i])[-1] - 1]
        colv = dict(self.kl_column(els[right[i]])._pairs())  # the one random-access read: colv.get(ys)

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

        # corrections: - mu(z, v) C_z over z < v with zs < z, read by id: mu is
        # most often 1, else each distinct entry of C_z is multiplied once
        mu_sum, values = 0, self._values
        for z, h in colv.items():
            m = right[z] < z and (h >> _DIGIT) & _MASK
            if m:
                mu_sum += m
                col = self.kl_column(els[z])
                by_id = values if m == 1 else {k: m * values[k] for k in set(col._ids)}
                try:  # x lies in [e, z], inside out's support, unless a loaded column is damaged
                    for x, k in zip(col._indices(), col._ids):
                        out[x] -= by_id[k]
                except KeyError:
                    self._fail(i, "a loaded column has an entry outside the Bruhat interval")
        self._guard(i, out.get(i), out.values(), low, mu_sum)
        return self._store(out)

    def _guard(self, i: int, diagonal: int | None, entries: Iterable[int], low: int = 0, mu_sum: int = 0):
        """Raise unless packed column i, with this diagonal entry and these
        entries (all, or the distinct ones), decodes exactly (module docstring)."""
        if diagonal != 1:
            self._fail(i, "the diagonal entry is not 1")
        if low & _MASK:
            self._fail(i, "a division by q was not exact")
        if (2 + mu_sum) * self._top >= _LIMIT:
            self._fail(i, "coefficients could reach 2^62")
        # digit k of the OR bounds digit k of every entry; it is < 0 iff one is
        top, acc = self._top, reduce(or_, entries)
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
        """C_w as a Hecke element over the column's own view and the dict that
        view keeps: no copy, and no new dict after the first call."""
        col = self.kl_column(w)
        l1 = len(col) * self._column_l1(self.system._index[w])  # bounds |C_w|_1
        return _element(self.system, col._packed, _DIGIT, 0, l1, col)

    def kl_poly(self, x: Element, w: Element) -> LaurentPoly:
        """h_{x,w}; the zero polynomial iff x is not <= w."""
        return self.kl_column(w).get(x, ZERO)

    def mu(self, z: Element, w: Element) -> int:
        """Coefficient of q^1 in h_{z,w}."""
        return self.kl_poly(z, w).coeff(1)

    def fill(self):
        """Compute every column."""
        for w in self.system.elements():
            self.kl_column(w)

    # -- persistence -------------------------------------------------------

    def save(self, path):
        """Dump all stored columns as gzipped JSON keyed by canonical words,
        atomically (os.replace of a file written in the same directory).  A
        loaded column that failed the guard is not stored, so it is not
        written: the next run recomputes it."""
        sys, index, values = self.system, self.system._index, self._values
        words = [format_word(sys.word(w)) for w in sys.elements()]
        stored = sorted((index[w], col) for w, col in self._columns.items())  # index order is canonical order
        used = set(chain.from_iterable(c._ids for _, c in stored))
        encoded = {k: self._polys(values[k]).to_json_obj() for k in used}  # each distinct entry once
        obj = {
            "format": _CACHE_FORMAT,
            "group": sys.type_string,
            "columns": {words[i]: {words[x]: encoded[k] for x, k in sorted(zip(c._indices(), c._ids))} for i, c in stored},
        }
        # write a file beside path, then move it into place: a failed save
        # leaves any previous file as it was
        path = os.fspath(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            # the gzip header names path, as when writing it directly; level 6
            # compresses about 8x faster than 9 for a file about 20% larger
            with open(tmp, "wb") as raw, gzip.GzipFile(path, "wb", compresslevel=6, fileobj=raw) as gz:
                with io.TextIOWrapper(gz, encoding="utf-8") as fh:
                    json.dump(obj, fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # the save failed
                os.unlink(tmp)

    @classmethod
    def load(cls, path, system: CoxeterSystem) -> "KLCache":
        """The cache saved at path.  Each column is decoded, guarded and stored
        before the next is decoded, so "format" and "group" must come before
        "columns" (save writes them first); two members must not name one column.
        Column and row keys are read through one word table, each element's
        canonical word -> its index: any other key is a ValueError naming it."""
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            text = fh.read()
        out = cls(system)
        els, values = system.elements(), out._values
        top = system.length(system.longest_element())  # no KL polynomial has a higher degree
        head: dict = {}  # the top-level members so far; "columns" maps to None once reached

        class Words(dict):  # the word table: canonical word -> index; only one word names an element
            def __missing__(self, text: str):
                raise ValueError(f"cache word {text!r} is not the canonical word of an element of {system.type_string}")

        index = Words((format_word(system.word(w)), i) for i, w in enumerate(els)).__getitem__

        class Packs(dict):  # a JSON entry's items -> the id of its pack (None: not packable), made once
            def __missing__(self, key: tuple) -> int | None:
                p = LaurentPoly.from_json_obj(dict(key))
                # in Z[q] with digits < 2^62 and degree <= l(w0), which also keeps
                # the guard quick: its digit loop is quadratic in the degree
                ok = all(0 <= e <= top and 0 <= c < _LIMIT for e, c in p.items())
                self[key] = k = out._ids[pack(p, _DIGIT, 0)] if ok else None
                return k

        def check_head():  # run when "columns" is reached
            if head.get("format") != _CACHE_FORMAT or type(head["format"]) is not int:  # true == 1.0 == 1
                raise ValueError(f"unsupported cache format {head.get('format')!r}")
            if head.get("group") != system.type_string:
                raise ValueError(f"cache is for group {head.get('group')!r}, not {system.type_string}")

        def member(key: str, pos: int) -> int:
            if key != "columns":
                head[key], end = _decode(text, pos)
                return end
            if "columns" in head:
                raise ValueError("cache file has two columns members")
            check_head()
            head["columns"] = None
            return _members(text, pos, column, "cache columns are not an object of objects")

        def column(wtext: str, pos: int) -> int:
            i = index(wtext)
            if els[i] in out._columns or els[i] in out._damaged:
                raise ValueError(f"cache column {wtext!r} appears twice")
            col, end = _decode(text, pos)
            if type(col) is not dict:
                raise ValueError("cache columns are not an object of objects")
            polys = col.values()  # int() would also take a float or a bool coefficient
            coeffs = chain.from_iterable(map(dict.values, polys))  # read once every entry is an object
            if not {*map(type, polys)} <= {dict} or not {*map(type, coeffs)} <= {int, str}:
                raise ValueError(f"cache column {wtext!r}: an entry is not an object of ints or decimal strings")
            ids = dict(zip(map(index, col), map(packs.__getitem__, map(tuple, map(dict.items, polys)))))
            try:  # the guard, on the diagonal and each distinct entry
                if None in ids.values():
                    out._fail(i, "a loaded entry is not in Z[q] with degree <= l(w0) and coefficients in [0, 2^62)")
                diagonal = values[ids[i]] if i in ids else None
                out._guard(i, diagonal, map(values.__getitem__, set(ids.values())))
            except ExactnessError as e:  # not stored: kl_column raises its message when the column is read
                out._damaged[els[i]] = str(e)
                return end
            out._columns[els[i]] = out._view(_array(out._row_code, ids), _array(_code(len(values)), ids.values()))
            return end

        packs = Packs()
        try:
            end = _WS(text, _members(text, 0, member, "cache file is not a JSON object")).end()
        except RecursionError:  # the parser's own limit, on deeply nested arrays or objects
            raise ValueError("cache file is not valid JSON") from None
        if end != len(text):
            raise JSONDecodeError("Extra data", text, end)
        if "columns" not in head:
            check_head()
            raise ValueError("cache columns are not an object of objects")
        return out


def _members(text: str, pos: int, member, what: str) -> int:
    """Walk the JSON object at text[pos:] and return its end; member(key, start)
    decodes each value and returns its end.  A non-object is refused as what."""
    if not (m := _OPEN(text, pos)):
        _decode(text, _WS(text, pos).end())  # invalid JSON is the parser's error
        raise ValueError(what)
    while m[1]:  # a key follows
        key, pos = scanstring(text, m.end())
        if not (m := _COLON(text, pos)):
            raise JSONDecodeError("Expecting ':' delimiter", text, pos)
        pos = member(key, m.end())
        if not (m := _NEXT(text, pos)):
            raise JSONDecodeError("Expecting ',' delimiter", text, pos)
    return m.end()


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
        for z in sys.bruhat_interval(sx):
            if z == sx or s not in sys.left_descents(z) or not sys.bruhat_leq(y, z):
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
    lw, ys = system.length(w), system.bruhat_interval(w)  # packed at (64, 0): q^k is 1 << 64k
    return _element(system, {system._index[y]: 1 << _DIGIT * (lw - system.length(y)) for y in ys}, _DIGIT, 0, len(ys))


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
