"""Hybrid bases interpolating between the standard and KL bases.

For J a subset of the generators, every w factors as w = u*v with u a
minimal coset representative (u in W^J) and v in W_J, and the two hybrid
bases are

    TC^J_w = T_u * C_v        (left quotient, KL part on the right)
    CT^J_w = C_v' * T_u'      (with w = v'*u', v' in W_J, u' in ^JW)

so TC with J = {} is the standard basis and with J = S the KL basis.  The
anti-automorphism psi maps TC^J_w to CT^J of the inverse element, which is
how the CT orientation is handled throughout.

Expanding an element in TC^J works coset by coset: the TC^J-coordinates of
h over the coset u*W_J are the KL-basis coordinates (inside W_J) of the
part of h supported on that coset, shifted back by u.   In particular the
restriction coefficients of a KL basis element — the KL coordinates of
(T_{u^-1} C_w) restricted to W_J — are read off from the column of C_w and
one unitriangular back-substitution.

Change-of-basis matrices between two hybrid bases TC^I <- TC^J (I inside J)
are block-diagonal across W^J-cosets with identical blocks, so only one
|W_J| x |W_J| block is computed and then replicated.  Chains of nested
subsets factor the KL matrix into such transition matrices, each with
entries in Z_{>=0}[q]; multiplying the factors back together is the main
end-to-end identity the test suite checks.

The arithmetic runs on packed ints (laurent.pack: a coefficient p becomes
(q^off p)(2^K)) keyed by element index.  Matrices stay packed: the columns of
transition_matrix and matmul are views (hecke._Column) that decode each
distinct value once, and matmul and same_entries read their packed dicts.
The digit width K always comes from laurent.width applied to a bound on the
L1 norms:

* back-substitution has one owner, _solve, which expand_in_hybrid,
  restriction_coeffs, parabolic_kl and the block of transition_matrix call
  with their jobs: the vectors to expand, each as (index, packed entry)
  pairs at the width K it is given, with a bound on their L1 norms.  It
  splits each vector by coset uW_J and solves each piece against the KL
  columns of W_J, read as the KL kernel packed them (through kl_column), in
  Z[q] at offset 0, in one pass down W_J in canonical order.  That needs
  each row x of column v to have an index no larger than v's (x <= v gives
  l(x) <= l(v)); a row above its column's index can only come from a damaged
  loaded column, and raises ExactnessError naming the column.  Next to each
  work value runs an integer bound on its L1 norm: the input's, plus
  |d_v|_1 times the largest |h_{x,v}|_1 of column v for every d_v whose
  column reaches it.  If a bound reaches 2^(K-2), all jobs run again at the
  width the bounds give, with the inputs repacked at that width;
  ExactnessError if that width is no wider.
* matmul takes K from the a-priori bound (largest |a_xy|_1) * (largest
  column sum of |b_yw|_1) on every entry of the product, and raises
  ExactnessError if the bound does not fit; the product is packed at K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .coxeter import CoxeterSystem, Element, format_word
from .hecke import HeckeElement, _Column, _packed_at, t_basis
from .klbasis import _DIGIT as _KL_WIDTH, KLCache
from .laurent import ExactnessError, LaurentPoly, ZERO, decoder, width


@dataclass(frozen=True)
class HybridBasisSpec:
    """Which hybrid basis: the subset J and the orientation (TC or CT)."""

    J: frozenset[int]
    orientation: str = "TC"

    def __post_init__(self):
        object.__setattr__(self, "J", frozenset(self.J))
        if self.orientation not in ("TC", "CT"):
            raise ValueError(f"orientation must be 'TC' or 'CT', got {self.orientation!r}")


def hybrid_element(cache: KLCache, spec: HybridBasisSpec, w: Element) -> HeckeElement:
    """The basis element TC^J_w (or CT^J_w) in the standard basis."""
    sys = cache.system
    if spec.orientation == "TC":
        u, v = sys.parabolic_factorize_left(w, spec.J)
        return t_basis(sys, u) * cache.kl_element(v)
    v, u = sys.parabolic_factorize_right(w, spec.J)
    return cache.kl_element(v) * t_basis(sys, u)


def expand_in_hybrid(
    cache: KLCache, h: HeckeElement, spec: HybridBasisSpec
) -> dict[Element, LaurentPoly]:
    """Coordinates of h in the hybrid basis: h = sum_x result[x] * TC^J_x.

    Zero coordinates are omitted.  The CT orientation is transported through
    psi: the CT^J-coordinate of h at x is the TC^J-coordinate of psi(h) at
    x^-1.
    """
    sys = cache.system
    if h.system is not sys:
        raise ValueError("element and cache belong to different systems")
    J = sys.subset(spec.J)
    if spec.orientation == "CT":
        inner = expand_in_hybrid(cache, h.psi(), HybridBasisSpec(J, "TC"))
        return {sys.inverse(x): c for x, c in inner.items()}
    els = sys.elements()
    # h._l1 bounds every |h_x|_1; h.off: every exponent + off >= 0
    K, solved = _solve(cache, J, h._l1, lambda K, column: [(0, _packed_at(h, K, h.off).items(), h._l1)])
    decode = decoder(K, h.off)
    return {els[x]: decode(d) for x, d in solved[0].items()}


def restriction_coeffs(
    cache: KLCache, u: Element, w: Element, J: Iterable[int]
) -> dict[Element, LaurentPoly]:
    """KL coordinates of (T_{u^-1} C_w) restricted to W_J.

    Returns {v: coefficient of C_v}, zeros omitted; u must be a minimal
    left-coset representative.  The T-coordinates over the coset u*W_J are
    the KL polynomials h_{uv,w}, so no Hecke product is needed.
    """
    sys = cache.system
    J = sys.subset(J)
    bad = sys.right_descents(u) & J
    if bad:
        raise ValueError(
            f"u is not a minimal coset representative: generator {min(bad)} is a right descent in J"
        )
    split = sys.coset_index(J)[0]
    ui, wi, els = sys.index(u), sys.index(w), sys.elements()

    def jobs(K, column):  # only the coset u*W_J of column w: solving every coset costs more
        return [(0, [(x, h) for x, h in column(wi) if split[x][0] == ui], cache._column_l1(wi))]

    K, solved = _solve(cache, J, 1, jobs)
    decode = decoder(K, 0)
    return {els[split[x][1]]: decode(d) for x, d in solved[0].items()}


# ---------------------------------------------------------------------------
# packed back-substitution
# ---------------------------------------------------------------------------


def _solve(cache: KLCache, J: frozenset[int], bound: int, jobs) -> tuple[int, dict]:
    """TC^J coordinates of packed vectors: (K, {key: {index of uv: d_v}}),
    zeros omitted, for each vector sum_x h_x T_x = sum_{u,v} d_v T_u C_v.

    jobs(K, column) gives (key, pairs, bound) triples: pairs are the (index,
    packed entry) pairs of one vector at digit width K, each |entry|_1 <=
    bound, and column(i) gives those of KL column i at K (at the KL kernel's
    width from the column's arrays, at a wider K repacked once per column).
    Each vector is split by coset uW_J and each piece solved in one pass over
    W_J from the top of canonical order: the rows of column v have indices no
    larger than v's, so a value is final when the pass reaches it; exact, no
    division.  A row with a larger index (only a damaged loaded column has one)
    raises ExactnessError through cache._fail.  Next to each work value runs a
    bound on its L1 norm: taking d_v adds |d_v|_1 * (largest |h_{x,v}|_1) at
    every x of column v.  If a bound reached 2^(K-2), all jobs run again at the
    width the bounds give.
    """
    split, join = cache.system.coset_index(J)
    els, l1 = cache.system.elements(), cache._column_l1
    K = width(bound)
    while True:
        if K == _KL_WIDTH:
            column = lambda i: cache.kl_column(els[i])._pairs()
        else:
            column = functools.cache(lambda i: _packed_at(cache.kl_column(els[i]), K, 0).items())
        worst, solved = 0, {}
        for key, pairs, b0 in jobs(K, column):
            pieces: dict[int, dict[int, int]] = {}  # u -> {v: entry at uv}
            for x, h in pairs:
                u, v = split[x]
                pieces.setdefault(u, {})[v] = h
            out = solved[key] = {}
            for u, work in pieces.items():
                row, bounds = join[u], dict.fromkeys(work, b0)
                for v in reversed(join[0]):  # W_J from the top: rows of column v lie below v
                    c = work.pop(v, None)
                    if c is None:
                        continue
                    b = bounds[v]
                    if b > worst:
                        worst = b
                    if not c:
                        continue
                    out[row[v]] = c
                    bl = b * l1(v)
                    for x, h in column(v):
                        if x < v:
                            work[x] = work.get(x, 0) - c * h
                            bounds[x] = bounds.get(x, 0) + bl
                        elif x > v:
                            cache._fail(v, "a loaded column has an entry outside the Bruhat interval")
        if worst < 1 << K - 2:
            return K, solved
        wider = width(worst)
        if wider <= K:
            raise ExactnessError(f"packed back-substitution: no digit width wider than {K} for bound {worst}")
        K = wider


# ---------------------------------------------------------------------------
# transition matrices and factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """Square change-of-basis matrix, column w = coordinates of TC^J_w in TC^I.

    columns maps w to a sparse read-only {x: poly} Mapping; entries are
    unitriangular in Bruhat order and vanish across distinct W^J-cosets.
    kl_matrix's columns are the KLCache's views, over one intern table;
    transition_matrix and matmul give views too, one decoder per matrix.
    """

    system: CoxeterSystem
    I: frozenset[int]
    J: frozenset[int]
    order: tuple[Element, ...]
    columns: dict[Element, Mapping[Element, LaurentPoly]] = field(repr=False)

    def entry(self, x: Element, w: Element) -> LaurentPoly:
        return self.columns[w].get(x, ZERO)

    def same_entries(self, other: "TransitionMatrix") -> bool:
        """Equal order and entries; two views at one (K, off) compare packed (_Column.__eq__)."""
        return self.order == other.order and self.columns == other.columns

    def is_nonneg_poly_matrix(self) -> bool:
        """True when every entry lies in Z_{>=0}[q]."""
        polys = (d(h) for d, hs in _entries(_views(self).values()).items() for h in hs)
        return all(p.has_nonneg_coeffs() and p.is_poly_in_q() for p in polys)

    def to_json_obj(self) -> dict:
        """Sparse [row, column, poly] entries by column.  Entries holding one
        polynomial object share one JSON dict, so treat the result as read-only."""
        sys = self.system
        return {
            "type": sys.type_string,
            "I": sorted(self.I),
            "J": sorted(self.J),
            "order": [list(sys.word(w)) for w in self.order],
            "entries": sparse_entries(self.order, self.columns.items()),
        }

    def to_csv(self) -> str:
        """Dense grid, header row/column of canonical words, textual cells."""
        sys = self.system
        labels = [format_word(sys.word(x)) for x in self.order]
        return csv_grid("x\\w", labels, self.order, (self.columns[w] for w in self.order))


def sparse_entries(order: Iterable, columns: Iterable[tuple]) -> list[list]:
    """[row, column, poly JSON] for each entry of columns, (column key, {row key:
    poly}) pairs, keys numbered by their place in order, sorted by column, then
    row; a view over order (_Column) is read by index, its packed rows being the
    row numbers.  Entries holding one polynomial object share one JSON dict, so treat
    the result as read-only; each object is encoded once."""
    idx = {w: k for k, w in enumerate(order)}
    encoded: dict[int, tuple] = {}  # id(p) -> (p, its JSON dict): holding p keeps its id unique

    def enc(p: LaurentPoly) -> dict:
        return (encoded.get(id(p)) or encoded.setdefault(id(p), (p, p.to_json_obj())))[1]

    out: list[list] = []
    for w, col in sorted(((idx[w], col) for w, col in columns), key=itemgetter(0)):
        if isinstance(col, _Column) and col._els is order:
            polys = col._polys
            out += [[x, w, enc(polys(P))] for x, P in sorted(col._pairs())]
        else:
            out += sorted([idx[x], w, enc(p)] for x, p in col.items())
    return out


def _csv_quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def csv_rows(header: str, rows: Iterable[Iterable[str]]) -> str:
    """CSV text: the header line as given, then one line per row, every cell quoted."""
    return "".join([header, "\n", *(",".join(map(_csv_quote, row)) + "\n" for row in rows)])


def csv_grid(corner: str, labels: list[str], order: list, columns: Iterable[Mapping]) -> str:
    """A square grid of polynomials: labels across after the corner and down the
    first column, one sparse {key: poly} column per label, keys in order; absent
    keys are "0".  Each distinct entry object is rendered and quoted once."""
    at = {x: k for k, x in enumerate(order)}
    quoted: dict[int, tuple] = {}  # id(poly) -> (poly, its cell): holding poly keeps its id unique
    grid, blank = [], [_csv_quote(str(ZERO))] * len(at)
    for col in columns:
        cells = blank.copy()
        for x, p in col.items():
            hit = quoted.get(id(p))
            if hit is None:
                hit = quoted[id(p)] = (p, _csv_quote(str(p)))
            cells[at[x]] = hit[1]
        grid.append(cells)
    labels = list(map(_csv_quote, labels))
    rows = (",".join(row) + "\n" for row in zip(labels, *grid))
    return "".join([corner, ",", ",".join(labels), "\n", *rows])


def kl_matrix(cache: KLCache) -> TransitionMatrix:
    """The full KL matrix (h_{x,w}) as the transition TC^S -> TC^(empty)."""
    sys = cache.system
    order = sys.elements()
    cols = {w: cache.kl_column(w) for w in order}
    return TransitionMatrix(sys, frozenset(), frozenset(sys.generators), order, cols)


def transition_matrix(cache: KLCache, I: Iterable[int], J: Iterable[int]) -> TransitionMatrix:
    """Matrix of TC^I-coordinates of the TC^J basis, for nested I inside J.

    The matrix is block-diagonal across W^J-cosets with one repeated block:
    the |W_J| x |W_J| block is computed once and copied to every coset.
    """
    sys = cache.system
    I = sys.subset(I)
    J = sys.subset(J)
    if not I <= J:
        raise ValueError(f"I must be contained in J, got I={sorted(I)}, J={sorted(J)}")
    order = sys.elements()
    # column vp of the block: C_vp (vp in W_J) expanded in TC^I
    split_j, join_j = sys.coset_index(J)
    K, block = _solve(cache, I, 1, lambda K, column: ((vp, column(vp), cache._column_l1(vp)) for vp in join_j[0]))
    decode = decoder(K, 0)
    cols: dict[Element, Mapping[Element, LaurentPoly]] = {}
    for w, (u, vp) in zip(order, split_j):
        row = join_j[u]
        try:  # the rows of C_vp lie in W_J unless a loaded column is damaged
            cols[w] = _Column(sys, {row[x]: d for x, d in block[vp].items()}, decode, K)
        except KeyError:
            cache._fail(vp, "a loaded column has an entry outside the Bruhat interval")
    return TransitionMatrix(sys, I, J, order, cols)


def matmul(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    """Composition: column w of the product is a applied to b's column w, a view
    at the bound's width.  Each operand's columns are read at that width and at
    the operand's largest view offset (hecke._packed_at); a plain-dict column
    is packed once into a view first."""
    if a.system is not b.system:
        raise ValueError("matrices over different systems")
    if a.J != b.I:
        raise ValueError(
            f"inner subsets do not match: left J={sorted(a.J)}, right I={sorted(b.I)}"
        )
    sys = a.system
    va, vb = _views(a), _views(b)
    # |(ab)_xw|_1 <= (largest |a_xy|_1) * (largest column sum of |b_yw|_1),
    # read from la, lb: decoder -> {packed int: L1 norm of its entry}
    la, lb = ({d: {h: d(h).l1() for h in hs} for d, hs in _entries(v.values()).items()} for v in (va, vb))
    bound = max((max(m.values(), default=0) for m in la.values()), default=0) * max(
        (sum(map(lb[col._polys].__getitem__, col._ints())) for col in vb.values()), default=0
    )
    K = width(bound)
    if bound >= 1 << K - 2:
        raise ExactnessError(f"matmul: digit width {K} is too narrow for bound {bound}")
    off_a = max((c.off for c in va.values()), default=0)
    off_b = max((c.off for c in vb.values()), default=0)
    rows = {sys.index(y): _packed_at(col, K, off_a) for y, col in va.items()}
    decode, intern = decoder(K, off_a + off_b), {}.setdefault  # equal product entries share one int
    cols: dict[Element, Mapping[Element, LaurentPoly]] = {}
    for w, colb in vb.items():
        acc: dict[int, int] = {}
        for y, c in _packed_at(colb, K, off_b).items():
            for x, ax in rows[y].items():
                acc[x] = acc.get(x, 0) + ax * c
        cols[w] = _Column(sys, {x: intern(P, P) for x, P in acc.items() if P}, decode, K, off_a + off_b)
    return TransitionMatrix(sys, a.I, b.J, a.order, cols)


def _views(m: TransitionMatrix) -> dict[Element, _Column]:
    """m's columns as views; a plain-dict column is packed once into one."""
    return {w: c if isinstance(c, _Column) else HeckeElement(m.system, c).terms for w, c in m.columns.items()}


def _entries(views: Iterable[_Column]) -> dict[Callable, set[int]]:
    """decoder -> the distinct packed ints of the views read through it:
    each distinct entry is one (decoder, int) pair, so it is decoded once."""
    out: dict[Callable, set[int]] = {}
    for c in views:
        out.setdefault(c._polys, set()).update(c._ints())
    return out


def default_chain(system: CoxeterSystem) -> list[frozenset[int]]:
    """The singleton-step chain {} < {1} < {1,2} < ... < S."""
    return [frozenset(range(1, k + 1)) for k in range(system.rank + 1)]


def factorize_chain(cache: KLCache, chain: Iterable[Iterable[int]] | None = None) -> list[TransitionMatrix]:
    """Transition factors M_i along a strictly increasing chain {} = J_0 < ... < J_k = S.

    The product M_1 * ... * M_k equals the KL matrix exactly; every factor
    has entries in Z_{>=0}[q].
    """
    sys = cache.system
    if chain is None:
        subsets = default_chain(sys)
    else:
        subsets = [sys.subset(J) for J in chain]
    if not subsets or subsets[0] != frozenset():
        raise ValueError("chain must start at the empty set")
    if subsets[-1] != frozenset(sys.generators):
        raise ValueError("chain must end at the full generator set")
    for a, b in zip(subsets, subsets[1:]):
        if not a < b:
            raise ValueError(f"chain is not strictly increasing at {sorted(a)} -> {sorted(b)}")
    return [transition_matrix(cache, a, b) for a, b in zip(subsets, subsets[1:])]


def parabolic_kl(cache: KLCache, J: Iterable[int]) -> dict[tuple[Element, Element], LaurentPoly]:
    """Parabolic KL polynomials for the sign-induced module, as a sparse
    matrix over W^J x W^J: entry (u, u') is the identity-component
    restriction coefficient of C_{u'} at u.  Zeros omitted."""
    sys = cache.system
    J = sys.subset(J)
    split, join = sys.coset_index(J)
    els = sys.elements()
    K, solved = _solve(cache, J, 1, lambda K, column: ((up, column(up), cache._column_l1(up)) for up in join))
    decode = decoder(K, 0)
    # the entries at u = u*e, whose W_J part is the identity (index 0)
    return {(els[x], els[up]): decode(d) for up, out in solved.items() for x, d in out.items() if split[x][1] == 0}
