"""Finite Coxeter groups of types A, B, D and I2(m) with combinatorial services.

Each group is realized concretely (one-line permutations for A, signed
permutations for B and D, rotation/reflection pairs for I2); the realization
gives only the identity, the generators and the product.  Everything else
comes from one breadth-first enumeration at construction: the length of w is
the level at which w is first reached, the right and left multiplication
tables by generators are read off the product, and from those follow the
descent sets, the ShortLex canonical reduced word (greedy smallest left
descent) and the inverse (w^-1 = (s w)^-1 s for s the first letter of the
word).  Canonical element order is (length, word) and is the order used for
every matrix and listing; the multiplication tables are kept on its indices only.

Generators are named 1..rank.  Conventions:

* A(n): W = S_{n+1} acting on {1..n+1}; generator i swaps i, i+1.
* B(n): signed permutations; generator 1 flips the sign in position 1,
  generator j >= 2 swaps positions j-1, j; m(1,2) = 4.
* D(n): even-signed permutations; generator 1 maps (a, b, ...) to
  (-b, -a, ...), generator j >= 2 as in B; m(1,2) = 2, m(1,3) = 3.
* I2(m): dihedral of order 2m; elements are (length, first-letter) pairs.

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


class _TypeA:
    """S_{n+1} as one-line tuples of 1..n+1."""

    def __init__(self, n: int):
        self.rank = n
        self.order_formula = factorial(n + 1)

    def identity(self) -> Element:
        return tuple(range(1, self.rank + 2))

    def gen(self, i: int) -> Element:
        e = list(self.identity())
        e[i - 1], e[i] = e[i], e[i - 1]
        return tuple(e)

    def multiply(self, a: Element, b: Element) -> Element:
        return tuple(a[v - 1] for v in b)


class _TypeB:
    """Signed permutations as one-line tuples with entries ±1..±n."""

    def __init__(self, n: int):
        self.rank = n
        self.order_formula = 2**n * factorial(n)

    def identity(self) -> Element:
        return tuple(range(1, self.rank + 1))

    def gen(self, i: int) -> Element:
        e = list(self.identity())
        if i == 1:
            e[0] = -1
        else:
            e[i - 2], e[i - 1] = e[i - 1], e[i - 2]
        return tuple(e)

    def multiply(self, a: Element, b: Element) -> Element:
        return tuple(a[v - 1] if v > 0 else -a[-v - 1] for v in b)


class _TypeD(_TypeB):
    """Even-signed permutations."""

    def __init__(self, n: int):
        self.rank = n
        self.order_formula = 2 ** (n - 1) * factorial(n)

    def gen(self, i: int) -> Element:
        e = list(self.identity())
        if i == 1:
            e[0], e[1] = -2, -1
        else:
            e[i - 2], e[i - 1] = e[i - 1], e[i - 2]
        return tuple(e)


class _TypeI2:
    """Dihedral group of order 2m; element = (length, first letter of the
    unique reduced word), with the longest element stored as (m, 1).

    Multiplication goes through the rotation/reflection form: writing
    r = s1*s2, every element is r^a or r^a*s1, and r^b*s1 = s1*r^-b.
    """

    def __init__(self, m: int):
        self.rank = 2
        self.m = m
        self.order_formula = 2 * m

    def identity(self) -> Element:
        return (0, 0)

    def gen(self, i: int) -> Element:
        return (1, i)

    def _to_rot(self, w: Element) -> tuple[int, int]:
        ln, first = w
        if first == 0:
            return (0, 0)
        if first == 1:
            return (ln // 2 % self.m, ln % 2)
        if ln % 2 == 0:
            return (-(ln // 2) % self.m, 0)
        return (-((ln + 1) // 2) % self.m, 1)

    def _from_rot(self, a: int, refl: int) -> Element:
        m = self.m
        a %= m
        if refl == 0:
            if a == 0:
                return (0, 0)
            l1, l2 = 2 * a, 2 * (m - a)
        else:
            l1, l2 = 2 * a + 1, 2 * (m - a) - 1
        if l1 <= l2:
            return (l1, 1)
        return (l2, 2)

    def multiply(self, a: Element, b: Element) -> Element:
        ra, fa = self._to_rot(a)
        rb, fb = self._to_rot(b)
        if fa == 0:
            return self._from_rot(ra + rb, fb)
        return self._from_rot(ra - rb, 1 - fb)


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
                f"{family}({param}) exceeds the desk-scale bound {family}({hi}); pass allow_large=True to override"
            )
        self.family = family
        self.param = param
        real = {"A": _TypeA, "B": _TypeB, "D": _TypeD, "I2": _TypeI2}[family](param)
        self._real = real
        self.rank = real.rank
        self.generators = tuple(range(1, self.rank + 1))
        self._build()
        self._coset_indices: dict[frozenset, tuple[list, dict]] = {}  # see coset_index

    # -- construction --------------------------------------------------

    def _build(self):
        real = self._real
        ident = real.identity()
        gens = [real.gen(i) for i in self.generators]

        # breadth-first along right multiplication, numbering elements as they
        # are first reached: the level at which w is reached is l(w), and the
        # rows are the right table on those numbers (els grows as it is read)
        found = {ident: 0}
        els, length, right = [ident], [0], []
        for b, w in enumerate(els):
            row = []
            for g in gens:
                v = real.multiply(w, g)
                j = found.get(v)
                if j is None:
                    j = found[v] = len(els)
                    els.append(v)
                    length.append(length[b] + 1)
                row.append(j)
            right.append(row)
        if len(els) != real.order_formula:
            raise RuntimeError(f"enumeration produced {len(els)} elements, expected {real.order_formula}")
        left = [[found[real.multiply(g, w)] for g in gens] for w in els]

        word: list[Word] = [()]
        for b in range(1, len(els)):  # BFS order: shorter elements first
            for i, sb in enumerate(left[b], 1):
                if length[sb] < length[b]:
                    word.append((i,) + word[sb])
                    break

        order = sorted(range(len(els)), key=lambda b: (length[b], word[b]))
        pos = {b: k for k, b in enumerate(order)}
        # right_index[i - 1][k] is the index of elements()[k] * s_i, below k iff s_i
        # is a right descent (indices follow length); left_index that of s_i * elements()[k]
        self.right_index = ri = tuple([pos[right[b][i]] for b in order] for i in range(self.rank))
        self.left_index = li = tuple([pos[left[b][i]] for b in order] for i in range(self.rank))
        self._elements = elements = tuple(els[b] for b in order)
        self._index = {w: k for k, w in enumerate(elements)}
        self._length = {els[b]: length[b] for b in order}
        self._word = {els[b]: word[b] for b in order}
        self._rdesc = {
            w: frozenset(i for i in self.generators if ri[i - 1][k] < k) for k, w in enumerate(elements)
        }
        self._ldesc = {
            w: frozenset(i for i in self.generators if li[i - 1][k] < k) for k, w in enumerate(elements)
        }
        # w^-1 = (s w)^-1 s for s the first letter of w's word; s w comes first
        inverse = [0]
        for k in range(1, len(elements)):
            s = word[order[k]][0] - 1
            inverse.append(ri[s][inverse[li[s][k]]])
        self._inverse = {w: elements[inverse[k]] for k, w in enumerate(elements)}
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
        """m(s,t) read off from the realization (order of the product st)."""
        out = []
        for i in self.generators:
            row = []
            for j in self.generators:
                st = self.multiply(self.generator(i), self.generator(j))
                m, x = 1, st
                while x != self.identity:
                    x = self.multiply(x, st)
                    m += 1
                row.append(m)
            out.append(tuple(row))
        return tuple(out)

    def generator(self, i: int) -> Element:
        return self._real.gen(i)

    def index(self, w: Element) -> int:
        return self._index[w]

    def length(self, w: Element) -> int:
        return self._length[w]

    def word(self, w: Element) -> Word:
        """The ShortLex canonical reduced word of w."""
        return self._word[w]

    def sort_key(self, w: Element):
        return (self._length[w], self._word[w])

    def multiply(self, a: Element, b: Element) -> Element:
        return self._real.multiply(a, b)

    def inverse(self, w: Element) -> Element:
        return self._inverse[w]

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
        reps = tuple(map(self._elements.__getitem__, join))
        if side == "left":
            return reps
        return tuple(sorted(map(self._inverse.__getitem__, reps), key=self._index.__getitem__))

    def coset_table(self, J: Iterable[int]) -> dict[Element, tuple[Element, Element]]:
        """w -> (u, v), the split of parabolic_factorize_left, for every w; a new dict per call."""
        els = self._elements
        return {els[k]: (els[u], els[v]) for k, (u, v) in enumerate(self.coset_index(J)[0])}

    def parabolic_factorize_left(self, w: Element, J: Iterable[int]) -> tuple[Element, Element]:
        """The unique (u, v) with w = u*v, u in W^J, v in W_J, lengths adding."""
        u, v = self.coset_index(J)[0][self._index[w]]
        return self._elements[u], self._elements[v]

    def parabolic_factorize_right(self, w: Element, J: Iterable[int]) -> tuple[Element, Element]:
        """The unique (v, u) with w = v*u, v in W_J, u in ^JW, lengths adding:
        the inverses of the left split of w^-1."""
        u, v = self.parabolic_factorize_left(self._inverse[w], J)
        return self._inverse[v], self._inverse[u]


# ---------------------------------------------------------------------------
# parsing / formatting
# ---------------------------------------------------------------------------

_GROUP_RE = re.compile(r"^(A|B|D)(\d+)$|^I2\((\d+)\)$")


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
    """Inverse of format_word; "e" (or "") denotes the identity."""
    text = text.strip()
    if text in ("", "e"):
        return []
    out = []
    for pos, part in enumerate(text.split(","), 1):
        try:
            out.append(int(part.strip()))
        except ValueError:
            raise ValueError(f"invalid word {text!r}: token {part.strip()!r} at position {pos}") from None
    return out
