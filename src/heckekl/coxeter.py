"""Finite Coxeter groups of types A, B, D and I2(m) with combinatorial services.

A realization gives only the identity, the generators and the product: one
signed-permutation realization serves A, B and D (A is its all-positive
case), and I2(m) keeps (length, first letter) pairs whose product is read off
the Coxeter relation.  Everything else comes from one breadth-first
enumeration at construction, along right multiplication by the generators in
increasing order: it reaches the elements in canonical (length, ShortLex
word) order, the order used for every matrix and listing, the word that
first reaches w, its parent's word plus one letter, is w's ShortLex reduced
word, and the products it forms are the right multiplication table.  The
left table is read off the product, and from the two follow the descent sets
and the inverse (w^-1 = (s w)^-1 s for s the first letter of the word); the
w0-conjugation table is built on first use.  The multiplication tables are
kept on canonical indices only.

Generators are named 1..rank.  Conventions:

* A(n): W = S_{n+1} acting on {1..n+1}; generator i swaps i, i+1.
* B(n): signed permutations; generator 1 flips the sign in position 1,
  generator j >= 2 swaps positions j-1, j; m(1,2) = 4.
* D(n): even-signed permutations; generator 1 maps (a, b, ...) to
  (-b, -a, ...), generator j >= 2 as in B; m(1,2) = 2, m(1,3) = 3.
* I2(m): dihedral of order 2m; an element is the (length, first letter) of
  its alternating reduced word, w*s_g cancels or appends the letter g, and
  w0 = (m, 1) has both alternating words of length m.

Bruhat order is one bitset per element, the lower interval [e, w] over
canonical indices, built on first use by the lifting property
[e, w] = [e, sw] u s[e, sw] (s a left descent of w).  For a subset J, one
table on indices, built when J is first validated, holds the split w = u*v
(u in W^J, v in W_J) and its inverse; W_J membership (u = e), W^J, ^JW and
both parabolic factorizations are read off it.
Groups are capped at desk scale (A5/B4/D4/I2(24)) unless allow_large=True.
"""

from __future__ import annotations

import re
from functools import cached_property
from math import factorial
from typing import Iterable

Element = tuple
Word = tuple[int, ...]


class UnsupportedGroupError(ValueError):
    """Raised for group strings outside the supported types or size bounds."""


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------


class _SignedPermutations:
    """A(n), B(n) and D(n) as signed permutations in one-line form: a tuple of
    entries in ±1..±N, with (ab)(i) = a(b(i)) and a(-j) = -a(j).

    A(n) is the all-positive case on N = n+1 letters; B(n) and D(n) act on
    N = n.  Generators 2..rank are the last rank-1 adjacent transpositions;
    generator 1 is (2, 1, ...) in A, (-1, 2, ...) in B, (-2, -1, ...) in D.
    """

    _FIRST = {"A": (2, 1), "B": (-1,), "D": (-2, -1)}

    def __init__(self, family: str, n: int):
        self.rank = n
        size = n + 1 if family == "A" else n
        self.order_formula = factorial(n) * {"A": n + 1, "B": 2**n, "D": 2 ** (n - 1)}[family]
        self.identity = e = tuple(range(1, size + 1))
        first = self._FIRST[family]
        self.gens = [first + e[len(first) :]]
        for k in range(size - n + 1, size):  # swap the letters k, k+1
            self.gens.append(e[: k - 1] + (k + 1, k) + e[k + 1 :])

    def multiply(self, a: Element, b: Element) -> Element:
        return tuple([a[v - 1] if v > 0 else -a[-v - 1] for v in b])  # a list builds faster than a generator


class _Dihedral:
    """I2(m), order 2m: an element is (length, first letter) of its alternating
    reduced word, the identity (0, 0) and the longest element w0 (m, 1).

    The product is read off the Coxeter relation alone.  w*s_g cancels the
    last letter of w when that is g and appends g otherwise; w0 has both
    alternating words of length m, so w0*s_g is the alternating word of
    length m-1 that ends before g.  a*b walks b's word one letter at a time.
    """

    def __init__(self, m: int):
        self.rank = 2
        self.m = m
        self.order_formula = 2 * m
        self.identity = (0, 0)
        self.gens = [(1, 1), (1, 2)]

    def _times(self, w: Element, g: int) -> Element:
        """w * s_g."""
        ln, first = w
        if ln == self.m:  # w0 = the word of length m that ends in g
            return (ln - 1, g if ln % 2 else 3 - g)
        if ln == 0:
            return (1, g)
        if g == (first if ln % 2 else 3 - first):  # g is the last letter
            return (ln - 1, first) if ln > 1 else (0, 0)
        return (ln + 1, first) if ln + 1 < self.m else (self.m, 1)

    def multiply(self, a: Element, b: Element) -> Element:
        ln, g = b
        for _ in range(ln):
            a = self._times(a, g)
            g = 3 - g
        return a


def _bits(b: int):
    """The positions of the set bits of b >= 0, ascending."""
    while b:
        low = b & -b
        yield low.bit_length() - 1
        b ^= low


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------

# hard lower bounds guard degenerate/reducible cases; upper bounds keep
# eager enumeration at desk scale and can be lifted with allow_large
_BOUNDS = {"A": (1, 5), "B": (2, 4), "D": (3, 4), "I2": (3, 24)}


class CoxeterSystem:
    """A finite Coxeter group with eager enumeration and cached combinatorics."""

    def __init__(self, family: str, param: int, *, allow_large: bool = False):
        if family not in _BOUNDS:
            raise UnsupportedGroupError(f"unsupported family {family!r}")
        lo, hi = _BOUNDS[family]
        if param < lo:
            raise UnsupportedGroupError(f"{family}({param}) is below the supported range (min {lo})")
        if param > hi and not allow_large:
            raise UnsupportedGroupError(
                f"{family}({param}) exceeds the desk-scale bound {family}({hi}); "
                "pass allow_large=True (library) or --allow-large (CLI) to override"
            )
        self.family = family
        self.param = param
        real = _Dihedral(param) if family == "I2" else _SignedPermutations(family, param)
        self._real = real
        self.rank = real.rank
        self.generators = tuple(range(1, self.rank + 1))
        self._build()
        self._coset_indices: dict[frozenset, tuple[list, dict]] = {}  # see coset_index

    # -- construction --------------------------------------------------

    def _build(self):
        real = self._real
        ident, gens = real.identity, real.gens

        # Breadth-first along right multiplication, numbering elements as they
        # are first reached and giving each its parent's word plus the letter
        # that reached it (els grows as it is read).  The level at which w is
        # reached is l(w), and discovery order is canonical order, the first
        # word being the least reduced word: by induction on the level, the
        # level-L parents are read in canonical order and the letters in
        # increasing order, so the pairs (parent, letter) are met in
        # lexicographic order of the words parent's word + letter.  Each v of
        # length L+1 is reached first by its least reduced word, because that
        # word's prefix of length L is the least word of a level-L element (a
        # smaller word for the prefix would give a smaller word for v); so the
        # elements of level L+1 are numbered in the order of their least
        # words, after all of level L.
        found = {ident: 0}
        els, word, right = [ident], [()], [[] for _ in gens]
        for b, w in enumerate(els):
            for i, g in enumerate(gens, 1):
                v = real.multiply(w, g)
                j = found.get(v)
                if j is None:
                    j = found[v] = len(els)
                    els.append(v)
                    word.append(word[b] + (i,))
                right[i - 1].append(j)
        if len(els) != real.order_formula:
            raise RuntimeError(f"enumeration produced {len(els)} elements, expected {real.order_formula}")
        # right_index[i - 1][k] is the index of elements()[k] * s_i, below k iff s_i
        # is a right descent (indices follow length); left_index that of s_i * elements()[k]
        self.right_index = ri = tuple(right)
        self.left_index = li = tuple([found[real.multiply(g, w)] for w in els] for g in gens)
        self._elements = elements = tuple(els)
        self._index = found
        self._word = dict(zip(els, word))
        self._rdesc = {
            w: frozenset(i for i in self.generators if ri[i - 1][k] < k) for k, w in enumerate(elements)
        }
        self._ldesc = {
            w: frozenset(i for i in self.generators if li[i - 1][k] < k) for k, w in enumerate(elements)
        }
        # w^-1 = (s w)^-1 s for s the first letter of w's word; s w comes first
        inverse = [0]
        for k in range(1, len(elements)):
            s = word[k][0] - 1
            inverse.append(ri[s][inverse[li[s][k]]])
        self.inverse_index = inverse  # inverse_index[k] is the index of elements()[k]^-1
        self.identity = ident

    # -- basic queries ---------------------------------------------------

    @property
    def type_string(self) -> str:
        if self.family == "I2":
            return f"I2({self.param})"
        return f"{self.family}{self.param}"

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.type_string}, order {self.order})"

    @property
    def order(self) -> int:
        return len(self._elements)

    def elements(self) -> tuple[Element, ...]:
        """All elements in canonical (length, ShortLex word) order."""
        return self._elements

    def longest_element(self) -> Element:
        return self._elements[-1]

    def coxeter_matrix(self) -> tuple[tuple[int, ...], ...]:
        """m(s,t), half the order of W_{s,t}: dihedral for s != t, and {e, s} on the diagonal."""
        gens = self.generators
        return tuple(tuple(len(self.subgroup_elements({s, t})) // 2 for t in gens) for s in gens)

    def generator(self, i: int) -> Element:
        return self.apply_right(self.identity, i)

    def index(self, w: Element) -> int:
        return self._index[w]

    def length(self, w: Element) -> int:
        return len(self._word[w])

    def word(self, w: Element) -> Word:
        """The ShortLex canonical reduced word of w."""
        return self._word[w]

    def sort_key(self, w: Element) -> int:
        """The canonical index of w: sorting by it is sorting by (length, word)."""
        return self._index[w]

    def multiply(self, a: Element, b: Element) -> Element:
        return self._real.multiply(a, b)

    def inverse(self, w: Element) -> Element:
        return self._elements[self.inverse_index[self._index[w]]]

    def apply_right(self, w: Element, i: int) -> Element:
        """w * s_i."""
        if not isinstance(i, int) or not 1 <= i <= self.rank:
            raise ValueError(f"invalid generator index {i!r} (rank {self.rank})")
        return self._elements[self.right_index[i - 1][self._index[w]]]

    def apply_left(self, i: int, w: Element) -> Element:
        """s_i * w."""
        if not isinstance(i, int) or not 1 <= i <= self.rank:
            raise ValueError(f"invalid generator index {i!r} (rank {self.rank})")
        return self._elements[self.left_index[i - 1][self._index[w]]]

    def right_descents(self, w: Element) -> frozenset[int]:
        return self._rdesc[w]

    def left_descents(self, w: Element) -> frozenset[int]:
        return self._ldesc[w]

    def element_from_word(self, word: Iterable[int]) -> Element:
        """Product of generators; raises with the offending 1-based position."""
        k = 0
        for pos, g in enumerate(word, 1):
            if not isinstance(g, int) or not 1 <= g <= self.rank:
                raise ValueError(f"invalid generator index {g!r} at position {pos} (rank {self.rank})")
            k = self.right_index[g - 1][k]
        return self._elements[k]

    # -- symmetries --------------------------------------------------------

    @cached_property
    def conjugate_index(self) -> list[int]:
        """conjugate_index[k] is the index of w0 * elements()[k] * w0.  With
        s_i w0 = w0 s_sigma(i), the conjugate of w*s_i is the conjugate of w
        times s_sigma(i), so the table is built along the right table."""
        top, ri = self.order - 1, self.right_index
        w0_times = [r[top] for r in ri]  # w0 * s_j for each j
        sigma = [w0_times.index(li[top]) for li in self.left_index]
        conj = [0]
        for k in range(1, self.order):
            s = self._word[self._elements[k]][-1] - 1
            conj.append(ri[sigma[s]][conj[ri[s][k]]])
        return conj

    @cached_property
    def index_symmetries(self) -> tuple[list[int], ...]:
        """The index tables of w -> w^-1, w -> w0*w*w0 and their composite
        w -> w0*w^-1*w0, leaving out the identity and repeats (w0 is central
        in B, for example, so there only the inverse is left).  Each is an
        involution that preserves length and Bruhat order."""
        inv, conj = self.inverse_index, self.conjugate_index
        out: list[list[int]] = []
        for table in (inv, conj, [inv[k] for k in conj]):
            if table != list(range(self.order)) and table not in out:
                out.append(table)
        return tuple(out)

    # -- Bruhat order ------------------------------------------------------

    @cached_property
    def _below(self) -> list[int]:
        """_below[k] has bit j set iff elements()[j] <= elements()[k]: by lifting,
        [e, w] = [e, sw] u s[e, sw] for s the first letter of w's word."""
        below = [1]
        for k in range(1, self.order):
            s = self._word[self._elements[k]][0]
            left = self.left_index[s - 1]
            b = out = below[left[k]]
            for j in _bits(b):
                out |= 1 << left[j]
            below.append(out)
        return below

    def bruhat_leq(self, u: Element, w: Element) -> bool:
        """u <= w in Bruhat order."""
        return self._below[self._index[w]] >> self._index[u] & 1 == 1

    def bruhat_interval(self, w: Element) -> list[Element]:
        """[identity, w] in canonical order."""
        els = self._elements
        return [els[j] for j in _bits(self._below[self._index[w]])]

    # -- parabolic machinery -------------------------------------------------

    def subset(self, J: Iterable[int]) -> frozenset[int]:
        J = frozenset(J)
        bad = J - set(self.generators)
        if bad:
            raise ValueError(f"generator indices {sorted(bad)} outside 1..{self.rank}")
        return J

    def in_parabolic(self, w: Element, J: Iterable[int]) -> bool:
        """w in W_J, that is, the W^J part of w is the identity."""
        return self.coset_index(J)[0][self._index[w]][0] == 0

    def coset_index(self, J: Iterable[int]) -> tuple[list[tuple[int, int]], dict[int, dict[int, int]]]:
        """w = u*v (u in W^J, v in W_J, lengths adding) on indices: split[k] = (u, v)
        and join[u][v] = k.  join's keys come in canonical order: list(join) is W^J
        and list(join[0]) is W_J.  Read-only; J is validated unless it is a cached
        frozenset, and the table is built once per J."""
        got = self._coset_indices.get(J) if isinstance(J, frozenset) else None
        if got is None:
            J = self.subset(J)
            got = self._coset_indices.get(J)
        if got is None:
            # canonical order puts w*s (s a right descent) before w, and if
            # w*s = u*v' then w = u*(v's); u itself is first reached at k = u
            split: list[tuple[int, int]] = []
            join: dict[int, dict[int, int]] = {}
            right, rdesc = self.right_index, self._rdesc
            for k, w in enumerate(self._elements):
                u, v = k, 0
                if ds := rdesc[w] & J:
                    rs = right[min(ds) - 1]
                    u, v = split[rs[k]]
                    v = rs[v]
                split.append((u, v))
                join.setdefault(u, {})[v] = k
            got = self._coset_indices[J] = split, join
        return got

    def subgroup_elements(self, J: Iterable[int]) -> tuple[Element, ...]:
        """W_J in canonical order."""
        return tuple(map(self._elements.__getitem__, self.coset_index(J)[1][0]))

    def min_coset_reps(self, J: Iterable[int], side: str = "left") -> tuple[Element, ...]:
        """Minimal coset representatives in canonical order.  side="left": W^J,
        representatives of the left cosets uW_J (no right descent in J);
        side="right": ^JW (no left descent in J), the inverses of W^J."""
        join = self.coset_index(J)[1]
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        reps = join if side == "left" else sorted(map(self.inverse_index.__getitem__, join))
        return tuple(map(self._elements.__getitem__, reps))

    def parabolic_factorize_left(self, w: Element, J: Iterable[int]) -> tuple[Element, Element]:
        """The unique (u, v) with w = u*v, u in W^J, v in W_J, lengths adding."""
        u, v = self.coset_index(J)[0][self._index[w]]
        return self._elements[u], self._elements[v]

    def parabolic_factorize_right(self, w: Element, J: Iterable[int]) -> tuple[Element, Element]:
        """The unique (v, u) with w = v*u, v in W_J, u in ^JW, lengths adding:
        the inverses of the left split of w^-1."""
        u, v = self.parabolic_factorize_left(self.inverse(w), J)
        return self.inverse(v), self.inverse(u)


# ---------------------------------------------------------------------------
# parsing / formatting
# ---------------------------------------------------------------------------

_GROUP_RE = re.compile(r"^(A|B|D)([0-9]+)$|^I2\(([0-9]+)\)$")  # \d would take "٣" too
_EMPTY_TOKENS = frozenset({"", "e", "@", "∅"})  # the identity word, and the empty subset


def coxeter_system(group: str, *, allow_large: bool = False) -> CoxeterSystem:
    """Build a system from a type string: "A3", "B4", "D4", "I2(7)"."""
    m = _GROUP_RE.match(group.strip())
    if not m:
        raise UnsupportedGroupError(
            f"cannot parse group {group!r}; expected A<n>, B<n>, D<n> or I2(<m>)"
        )
    if m.group(3) is not None:
        return CoxeterSystem("I2", int(m.group(3)), allow_large=allow_large)
    return CoxeterSystem(m.group(1), int(m.group(2)), allow_large=allow_large)


def format_word(word: Iterable[int]) -> str:
    """Comma-joined generator indices; the identity is the empty string."""
    return ",".join(str(g) for g in word)


def parse_word(text: str) -> list[int]:
    """Inverse of format_word and the one reader of words, subsets and chain steps:
    comma-separated ASCII-digit letters; each of _EMPTY_TOKENS is the identity (the empty set)."""
    text = text.strip()
    if text in _EMPTY_TOKENS:
        return []
    out = []
    for pos, tok in enumerate(map(str.strip, text.split(",")), 1):
        if not (tok.isascii() and tok.isdigit()):  # int() would take "+1", "1_0" and "٢"
            raise ValueError(f"invalid generator index {tok!r} at position {pos} in {text!r}")
        out.append(int(tok))
    return out
