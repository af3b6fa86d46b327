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
transition_matrix and matmul are views (klbasis._Column) that decode each
distinct value once, and matmul and same_entries read their packed dicts.
The digit width K always comes from laurent.width applied to a bound on the
L1 norms:

* back-substitution (expand_in_hybrid, restriction_coeffs, parabolic_kl,
  the block of transition_matrix) reads the KL columns the KL kernel
  packed (KLCache._packed_column, so every read goes through
  kl_column).  Inputs read from KL columns are in Z[q], offset 0;
  expand_in_hybrid packs the coefficients of a Hecke element with the
  offset that lifts its lowest exponent to 0.  Next to each work value runs
  an integer bound on its L1 norm: the input's, plus |d_v|_1 times the
  largest |h_{x,v}|_1 of column v for every d_v whose column reaches it.
  If a bound reaches 2^(K-2), the whole call runs again at the width the
  bounds give, with the KL columns repacked at that width for the call;
  ExactnessError if that width is no wider.
* matmul takes K from the a-priori bound (largest |a_xy|_1) * (largest
  column sum of |b_yw|_1) on every entry of the product, and raises
  ExactnessError if the bound does not fit; the product is packed at K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import repeat
from typing import Iterable, Mapping

from .coxeter import CoxeterSystem, Element, format_word
from .hecke import HeckeElement, t_basis
from .klbasis import _DIGIT as _KL_WIDTH, KLCache, _Column
from .laurent import ExactnessError, LaurentPoly, ZERO, decoder, pack, width


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
    if not h.terms:
        return {}
    split, join = sys.coset_index(J)
    index, els = sys.index, sys.elements()
    off = -min(c.min_exp() for c in h.terms.values())  # every exponent + off >= 0
    bound = max(c.l1() for c in h.terms.values())

    def run(solver: _Solver) -> dict[Element, LaurentPoly]:
        pieces = _pieces(split, {index(x): pack(c, solver.K, off) for x, c in h.terms.items()})
        decode = decoder(solver.K, off)
        return {els[x]: decode(d) for x, d in _solve_pieces(solver, pieces, join, bound).items()}

    return _at_safe_width(cache, bound, run)


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

    def run(solver: _Solver) -> dict[Element, LaurentPoly]:
        tvec = {split[x][1]: h for x, h in solver.column(wi).items() if split[x][0] == ui}
        decode = decoder(solver.K, 0)
        return {els[v]: decode(d) for v, d in solver.solve(tvec, cache._column_l1(wi)).items()}

    return _at_safe_width(cache, 1, run)


# ---------------------------------------------------------------------------
# packed back-substitution
# ---------------------------------------------------------------------------


class _Solver:
    """Back-substitution against the KL columns packed at digit width K.

    At the KL kernel's own width the columns are KLCache._packed_column
    (which reads every column through kl_column); at a wider K
    they are repacked for this call only.  worst is the largest L1 bound of
    any value popped so far.
    """

    def __init__(self, cache: KLCache, K: int):
        self.K = K
        self.worst = 0
        self._cache = cache
        if K == _KL_WIDTH:
            self.column = cache._packed_column
        else:
            self.column = functools.cache(self._repacked)

    def _repacked(self, i: int) -> dict[int, int]:
        polys, K = self._cache._polys, self.K
        return {x: pack(polys(h), K, 0) for x, h in self._cache._packed_column(i).items()}

    def solve(self, tvec: dict[int, int], bound: int) -> dict[int, int]:
        """Solve sum_v d_v C_v = sum_v tvec[v] T_v inside a parabolic subgroup,
        each |tvec[v]|_1 <= bound: {v: d_v}, zeros omitted.

        Decreasing index order, since a column of v only reaches lower
        indices; exact, no division.  Next to each work value runs a bound on
        its L1 norm: popping d_v adds |d_v|_1 * (largest |h_{x,v}|_1) to the
        bound at every x of column v.
        """
        column, l1 = self.column, self._cache._column_l1
        work = dict(tvec)
        bounds = dict.fromkeys(tvec, bound)
        heap = [-v for v in work]
        heapify(heap)
        out: dict[int, int] = {}
        worst = self.worst
        while heap:
            v = -heappop(heap)
            c = work.pop(v)
            b = bounds.pop(v)
            if b > worst:
                worst = b
            if not c:
                continue
            out[v] = c
            bl = b * l1(v)
            for x, h in column(v).items():
                if x == v:
                    continue
                r = work.get(x)
                if r is None:
                    work[x] = -c * h
                    bounds[x] = bl
                    heappush(heap, -x)
                else:
                    work[x] = r - c * h
                    bounds[x] += bl
        self.worst = worst
        return out


def _at_safe_width(cache: KLCache, bound: int, run):
    """run(solver) at the width for bound; if a value's L1 bound reached
    2^(K-2), run it again at the width the bounds give."""
    K = width(bound)
    while True:
        solver = _Solver(cache, K)
        out = run(solver)
        if solver.worst < 1 << K - 2:
            return out
        wider = width(solver.worst)
        if wider <= K:
            raise ExactnessError(
                f"packed back-substitution: no digit width wider than {K} for bound {solver.worst}"
            )
        K = wider


def _pieces(split: list[tuple[int, int]], col: dict[int, int]) -> dict[int, dict[int, int]]:
    """u -> {v: col[uv]}, the part of a packed column on each coset uW_J (split: coset_index(J)[0])."""
    pieces: dict[int, dict[int, int]] = {}
    for x, h in col.items():
        u, v = split[x]
        pieces.setdefault(u, {})[v] = h
    return pieces


def _solve_pieces(solver: _Solver, pieces, join, bound: int) -> dict[int, int]:
    """Back-substitute each coset's piece; {index of uv: d_v} over all cosets uW_J."""
    out: dict[int, int] = {}
    for u, tvec in pieces.items():
        row = join[u]
        for v, d in solver.solve(tvec, bound).items():
            out[row[v]] = d
    return out


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
        return all(p.has_nonneg_coeffs() and p.is_poly_in_q() for p in _distinct(self).values())

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
    row.  Entries holding one polynomial object share one JSON dict, so treat the
    result as read-only; each object is encoded once."""
    idx = {w: k for k, w in enumerate(order)}
    cols = sorted((idx[w], dict(col.items())) for w, col in columns)  # the dicts keep each id(p) alive
    encoded = {k: p.to_json_obj() for k, p in {id(p): p for _, col in cols for p in col.values()}.items()}
    out: list[list] = []
    for w, col in cols:
        out += sorted(map(list, zip(map(idx.__getitem__, col), repeat(w), map(encoded.__getitem__, map(id, col.values())))))
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
    quoted: dict[int, str] = {}  # id(poly) -> its cell
    grid, blank = [], [_csv_quote(str(ZERO))] * len(at)
    for col in columns:
        cells = blank.copy()
        for x, p in col.items():
            cell = quoted.get(id(p))
            if cell is None:
                cell = quoted[id(p)] = _csv_quote(str(p))
            cells[at[x]] = cell
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


def transition_matrix(
    cache: KLCache, I: Iterable[int], J: Iterable[int], *, replicate: bool = True, threads: int = 1
) -> TransitionMatrix:
    """Matrix of TC^I-coordinates of the TC^J basis, for nested I inside J.

    With replicate=True (default) one |W_J| x |W_J| block is computed and
    copied across cosets; replicate=False expands every column directly
    (slow path, kept for cross-checking the block structure).  threads: ignored.
    """
    sys = cache.system
    I = sys.subset(I)
    J = sys.subset(J)
    if not I <= J:
        raise ValueError(f"I must be contained in J, got I={sorted(I)}, J={sorted(J)}")
    order = sys.elements()
    spec_i = HybridBasisSpec(I, "TC")
    cols: dict[Element, Mapping[Element, LaurentPoly]] = {}
    if replicate:
        # column vp of the block: C_vp (vp in W_J) expanded in TC^I
        split_i, join_i = sys.coset_index(I)
        split_j, join_j = sys.coset_index(J)

        def run(solver: _Solver) -> tuple[int, dict[int, dict[int, int]]]:
            block = {}
            for vp in join_j[0]:  # W_J
                pieces = _pieces(split_i, solver.column(vp))
                block[vp] = _solve_pieces(solver, pieces, join_i, cache._column_l1(vp))
            return solver.K, block

        K, block = _at_safe_width(cache, 1, run)
        decode = decoder(K, 0)
        for w, (u, vp) in zip(order, split_j):
            row = join_j[u]
            cols[w] = _Column(sys, {row[x]: d for x, d in block[vp].items()}, decode, K)
    else:
        spec_j = HybridBasisSpec(J, "TC")
        cols = {w: expand_in_hybrid(cache, hybrid_element(cache, spec_j, w), spec_i) for w in order}
    return TransitionMatrix(sys, I, J, order, cols)


def matmul(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    """Composition: column w of the product is a applied to b's column w, a view
    at the bound's width.  Operand views at that width and offset are used as
    they are; any other column has each distinct entry object packed once."""
    if a.system is not b.system:
        raise ValueError("matrices over different systems")
    if a.J != b.I:
        raise ValueError(
            f"inner subsets do not match: left J={sorted(a.J)}, right I={sorted(b.I)}"
        )
    sys = a.system
    index = sys.index
    da, db = _distinct(a), _distinct(b)
    l1 = {k: p.l1() for k, p in (da | db).items()}
    # |(ab)_xw|_1 <= (largest |a_xy|_1) * (largest column sum of |b_yw|_1)
    bound = max(map(l1.__getitem__, da), default=0) * max(
        (sum(l1[id(p)] for _, p in col.items()) for col in b.columns.values()), default=0
    )
    K = width(bound)
    if bound >= 1 << K - 2:
        raise ExactnessError(f"matmul: digit width {K} is too narrow for bound {bound}")
    off_a = -min((p.min_exp() for p in da.values() if p), default=0)
    off_b = -min((p.min_exp() for p in db.values() if p), default=0)

    def packed(col: Mapping, off: int, ints: dict[int, int]) -> dict[int, int]:
        if isinstance(col, _Column) and (col.K, col.off) == (K, off):
            return col._packed
        return {index(x): ints[id(p)] for x, p in col.items()}

    pa = {k: pack(p, K, off_a) for k, p in da.items()}
    pb = {k: pack(p, K, off_b) for k, p in db.items()}
    rows = {index(y): packed(col, off_a, pa) for y, col in a.columns.items()}
    decode, intern = decoder(K, off_a + off_b), {}.setdefault  # equal product entries share one int
    cols: dict[Element, Mapping[Element, LaurentPoly]] = {}
    for w, colb in b.columns.items():
        acc: dict[int, int] = {}
        for y, c in packed(colb, off_b, pb).items():
            for x, ax in rows[y].items():
                acc[x] = acc.get(x, 0) + ax * c
        cols[w] = _Column(sys, {x: intern(P, P) for x, P in acc.items() if P}, decode, K, off_a + off_b)
    return TransitionMatrix(sys, a.I, b.J, a.order, cols)


def _distinct(m: TransitionMatrix) -> dict[int, LaurentPoly]:
    """id(entry) -> entry over the distinct entry objects of m; a view decodes
    each distinct packed int of a column once."""
    cols = m.columns.values()
    entries = (map(c._polys, {*c._packed.values()}) if isinstance(c, _Column) else c.values() for c in cols)
    return {id(p): p for col in entries for p in col}


def default_chain(system: CoxeterSystem) -> list[frozenset[int]]:
    """The singleton-step chain {} < {1} < {1,2} < ... < S."""
    return [frozenset(range(1, k + 1)) for k in range(system.rank + 1)]


def factorize_chain(
    cache: KLCache, chain: Iterable[Iterable[int]] | None = None, *, threads: int = 1
) -> list[TransitionMatrix]:
    """Transition factors M_i along a strictly increasing chain {} = J_0 < ... < J_k = S.

    The product M_1 * ... * M_k equals the KL matrix exactly; every factor
    has entries in Z_{>=0}[q].  threads: ignored.
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
    split, join = sys.coset_index(J)
    els = sys.elements()

    def run(solver: _Solver) -> dict[tuple[Element, Element], LaurentPoly]:
        decode = decoder(solver.K, 0)
        out = {}
        for up in join:  # W^J
            bound = cache._column_l1(up)
            for u, tvec in _pieces(split, solver.column(up)).items():
                c = solver.solve(tvec, bound).get(0)  # index 0: the identity
                if c:
                    out[(els[u], els[up])] = decode(c)
        return out

    return _at_safe_width(cache, 1, run)
