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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterable

from .coxeter import CoxeterSystem, Element, format_word
from .hecke import HeckeElement, t_basis
from .klbasis import KLCache
from .laurent import LaurentPoly, ZERO


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
    J = sys.subset(spec.J)
    if spec.orientation == "TC":
        u, v = sys.parabolic_factorize_left(w, J)
        return t_basis(sys, u) * cache.kl_element(v)
    v, u = sys.parabolic_factorize_right(w, J)
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

    by_coset = _split_by_coset(sys.coset_table(J), h.terms)
    out: dict[Element, LaurentPoly] = {}
    for u, tvec in by_coset.items():
        for v, c in _expand_in_kl_basis(cache, tvec).items():
            out[sys.multiply(u, v)] = c
    return out


def _split_by_coset(
    split: dict[Element, tuple[Element, Element]], terms: dict[Element, LaurentPoly]
) -> dict[Element, dict[Element, LaurentPoly]]:
    """u -> {v: terms[uv]}, the part of terms on each coset uW_J (split: coset_table(J))."""
    by_coset: dict[Element, dict[Element, LaurentPoly]] = {}
    for x, c in terms.items():
        u, v = split[x]
        by_coset.setdefault(u, {})[v] = c
    return by_coset


def _expand_in_kl_basis(
    cache: KLCache, tvec: dict[Element, LaurentPoly]
) -> dict[Element, LaurentPoly]:
    """Solve sum_v d_v C_v = sum_v tvec[v] T_v inside a parabolic subgroup.

    Back-substitution in decreasing canonical order against the
    unitriangular KL columns; exact, no division.
    """
    index = cache.system.index
    out: dict[Element, LaurentPoly] = {}
    work = {v: c for v, c in tvec.items() if not c.is_zero()}
    heap = [(-index(v), v) for v in work]  # a column of v only reaches lower indices
    heapify(heap)
    while heap:
        v = heappop(heap)[1]
        c = work.pop(v, None)
        if c is None:  # cancelled to zero, or a second heap entry
            continue
        out[v] = c
        for x, hpoly in cache.kl_column(v).items():
            if x == v:
                continue
            r = work.get(x)
            if r is None:
                work[x] = -(c * hpoly)
                heappush(heap, (-index(x), x))
                continue
            r = r - c * hpoly
            if r.is_zero():
                del work[x]
            else:
                work[x] = r
    return out


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
    tvec = _split_by_coset(sys.coset_table(J), cache.kl_column(w)).get(u, {})
    return _expand_in_kl_basis(cache, tvec)


# ---------------------------------------------------------------------------
# transition matrices and factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """Square change-of-basis matrix, column w = coordinates of TC^J_w in TC^I.

    columns maps w to a sparse {x: poly}; entries are unitriangular in
    Bruhat order and vanish across distinct W^J-cosets.  Columns are
    read-only: kl_matrix shares them with the KLCache.
    """

    system: CoxeterSystem
    I: frozenset[int]
    J: frozenset[int]
    order: tuple[Element, ...]
    columns: dict[Element, dict[Element, LaurentPoly]] = field(repr=False)

    def entry(self, x: Element, w: Element) -> LaurentPoly:
        return self.columns[w].get(x, ZERO)

    def same_entries(self, other: "TransitionMatrix") -> bool:
        return self.order == other.order and self.columns == other.columns

    def is_nonneg_poly_matrix(self) -> bool:
        """True when every entry lies in Z_{>=0}[q]."""
        return all(
            p.has_nonneg_coeffs() and p.is_poly_in_q()
            for col in self.columns.values()
            for p in col.values()
        )

    def to_json_obj(self) -> dict:
        sys = self.system
        idx = {w: k for k, w in enumerate(self.order)}
        triplets = []
        for w, col in self.columns.items():
            ci = idx[w]
            for x, p in col.items():
                triplets.append((idx[x], ci, p.to_json_obj()))
        triplets.sort(key=lambda t: (t[1], t[0]))
        return {
            "type": sys.type_string,
            "I": sorted(self.I),
            "J": sorted(self.J),
            "order": [list(sys.word(w)) for w in self.order],
            "entries": [list(t) for t in triplets],
        }

    def to_csv(self) -> str:
        """Dense grid, header row/column of canonical words, textual cells."""
        sys = self.system
        lines = ["x\\w," + ",".join(f'"{format_word(sys.word(w))}"' for w in self.order)]
        for x in self.order:
            cells = [str(self.columns[w].get(x, ZERO)) for w in self.order]
            lines.append(f'"{format_word(sys.word(x))}",' + ",".join(f'"{c}"' for c in cells))
        return "\n".join(lines) + "\n"


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
    cols: dict[Element, dict[Element, LaurentPoly]] = {}
    if replicate:
        wj = sys.subgroup_elements(J)
        block = {vp: expand_in_hybrid(cache, cache.kl_element(vp), spec_i) for vp in wj}
        split = sys.coset_table(J)
        for w in order:
            u, vp = split[w]
            cols[w] = {sys.multiply(u, x): c for x, c in block[vp].items()}
    else:
        spec_j = HybridBasisSpec(J, "TC")
        cols = {w: expand_in_hybrid(cache, hybrid_element(cache, spec_j, w), spec_i) for w in order}
    return TransitionMatrix(sys, I, J, order, cols)


def matmul(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    """Composition: column w of the product is a applied to b's column w."""
    if a.system is not b.system:
        raise ValueError("matrices over different systems")
    if a.J != b.I:
        raise ValueError(
            f"inner subsets do not match: left J={sorted(a.J)}, right I={sorted(b.I)}"
        )
    cols: dict[Element, dict[Element, LaurentPoly]] = {}
    for w, colb in b.columns.items():
        acc: dict[Element, LaurentPoly] = {}
        for y, c in colb.items():
            for x, cx in a.columns[y].items():
                s = acc.get(x, ZERO) + cx * c
                if s.is_zero():
                    acc.pop(x, None)
                else:
                    acc[x] = s
        cols[w] = acc
    return TransitionMatrix(a.system, a.I, b.J, a.order, cols)


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
    J = sys.subset(J)
    split = sys.coset_table(J)
    ident = sys.identity
    out: dict[tuple[Element, Element], LaurentPoly] = {}
    for up in sys.min_coset_reps(J, "left"):
        for u, tvec in _split_by_coset(split, cache.kl_column(up)).items():
            c = _expand_in_kl_basis(cache, tvec).get(ident)
            if c is not None:
                out[(u, up)] = c
    return out
