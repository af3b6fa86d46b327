"""The packed hybrid layer (back-substitution, transition matrices, matmul,
parabolic_kl, the form) and the interned cache load, each against the
LaurentPoly construction it replaced."""

import random
from heapq import heapify, heappop, heappush

import pytest

from heckekl import (
    HybridBasisSpec,
    KLCache,
    LaurentPoly,
    coxeter_system,
    expand_in_hybrid,
    matmul,
    parabolic_kl,
    restriction_coeffs,
    transition_matrix,
)
from heckekl import hybrid
from heckekl.cli import main
from heckekl.hecke import HeckeElement as _wrap
from heckekl.hecke import form, t_basis
from heckekl.hybrid import TransitionMatrix
from heckekl.laurent import ZERO, ExactnessError
from conftest import get_cache, subsets

GROUPS = ("A3", "B3", "D4", "I2(7)")


# ---------------------------------------------------------------------------
# reference: the LaurentPoly back-substitution and matmul
# ---------------------------------------------------------------------------


def ref_expand_in_kl_basis(cache, tvec):
    """Solve sum_v d_v C_v = sum_v tvec[v] T_v, largest index first."""
    index = cache.system.index
    out = {}
    work = {v: c for v, c in tvec.items() if not c.is_zero()}
    heap = [(-index(v), v) for v in work]
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


def ref_split(sys, J, terms):
    by_coset = {}
    for x, c in terms.items():
        u, v = sys.parabolic_factorize_left(x, J)
        by_coset.setdefault(u, {})[v] = c
    return by_coset


def ref_expand_in_hybrid(cache, h, spec):
    sys = cache.system
    if spec.orientation == "CT":
        inner = ref_expand_in_hybrid(cache, h.psi(), HybridBasisSpec(spec.J, "TC"))
        return {sys.inverse(x): c for x, c in inner.items()}
    out = {}
    for u, tvec in ref_split(sys, spec.J, h.terms).items():
        for v, c in ref_expand_in_kl_basis(cache, tvec).items():
            out[sys.multiply(u, v)] = c
    return out


def ref_transition_columns(cache, I, J, memo):
    """The replicated block; memo keeps C_vp in TC^I, which does not depend on J."""
    sys = cache.system
    spec = HybridBasisSpec(I)
    block = {}
    for vp in sys.subgroup_elements(J):
        if (I, vp) not in memo:
            memo[(I, vp)] = ref_expand_in_hybrid(cache, cache.kl_element(vp), spec)
        block[vp] = memo[(I, vp)]
    cols = {}
    for w in sys.elements():
        u, vp = sys.parabolic_factorize_left(w, J)
        cols[w] = {sys.multiply(u, x): c for x, c in block[vp].items()}
    return cols


def ref_matmul_columns(a, b):
    cols = {}
    for w, colb in b.columns.items():
        acc = {}
        for y, c in colb.items():
            for x, cx in a.columns[y].items():
                s = acc.get(x, ZERO) + cx * c
                if s:
                    acc[x] = s
                else:
                    acc.pop(x, None)
        cols[w] = acc
    return cols


def random_element(sys, rng, n, exps, coeff):
    els = sys.elements()
    return _wrap(
        sys,
        {
            rng.choice(els): LaurentPoly({rng.randint(*exps): rng.randint(-coeff, coeff) for _ in range(3)})
            for _ in range(n)
        },
    )


# ---------------------------------------------------------------------------
# packed paths against the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("group", GROUPS)
def test_transition_matmul_parabolic_match_reference(group):
    cache = get_cache(group)
    sys = cache.system
    full = frozenset(sys.generators)
    top = {J: transition_matrix(cache, J, full) for J in subsets(sys)}
    memo = {}
    for J in subsets(sys):
        for I in subsets(sys):
            if I <= J:
                m = transition_matrix(cache, I, J)
                assert m.columns == ref_transition_columns(cache, I, J, memo), (I, J)
                if not I:  # every right factor once: T(e, J) T(J, S)
                    assert matmul(m, top[J]).columns == ref_matmul_columns(m, top[J]), J
        ref = {}
        for up in sys.min_coset_reps(J, "left"):
            for u, tvec in ref_split(sys, J, cache.kl_column(up)).items():
                c = ref_expand_in_kl_basis(cache, tvec).get(sys.identity)
                if c is not None:
                    ref[(u, up)] = c
        assert parabolic_kl(cache, J) == ref, J


@pytest.mark.parametrize("group", GROUPS)
def test_restriction_coeffs_match_reference(group):
    cache = get_cache(group)
    sys = cache.system
    rng = random.Random(7)
    for J in subsets(sys):
        for w in rng.sample(sys.elements(), 12):
            tvec = ref_split(sys, J, cache.kl_column(w))
            for u in sys.min_coset_reps(J, "left"):
                want = ref_expand_in_kl_basis(cache, tvec.get(u, {}))
                assert restriction_coeffs(cache, u, w, J) == want


def spy_widths(monkeypatch):
    """The digit width of every run of the hybrid layer's back-substitution."""
    widths = []
    solve = hybrid._solve

    def spy(cache, J, bound, jobs):
        def spied(K, column):
            widths.append(K)
            return jobs(K, column)

        return solve(cache, J, bound, spied)

    monkeypatch.setattr(hybrid, "_solve", spy)
    return widths


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("coeff", [5, 2**80])
def test_expand_in_hybrid_laurent_and_wide_coefficients(group, coeff, monkeypatch):
    cache = get_cache(group)
    sys = cache.system
    widths = spy_widths(monkeypatch)
    rng = random.Random(coeff % 1000)
    for J in subsets(sys):
        for orientation in ("TC", "CT"):
            spec = HybridBasisSpec(J, orientation)
            h = random_element(sys, rng, 8, (-20, 20), coeff)
            assert expand_in_hybrid(cache, h, spec) == ref_expand_in_hybrid(cache, h, spec)
    assert set(widths) == {64} if coeff == 5 else min(widths) > 64


def test_bounds_past_the_width_redo_the_call_wider(monkeypatch):
    # 2^61 - 1 fits 64-bit digits, but the L1 bounds of the lower work
    # values add up past 2^62, so the call runs again at the width they give
    cache = get_cache("B3")
    sys = cache.system
    widths = spy_widths(monkeypatch)
    h = _wrap(sys, {sys.longest_element(): LaurentPoly({-3: 2**61 - 1})})
    spec = HybridBasisSpec(sys.generators)
    assert expand_in_hybrid(cache, h, spec) == ref_expand_in_hybrid(cache, h, spec)
    assert widths[0] == 64 and len(widths) == 2 and widths[1] > 64


@pytest.mark.parametrize("group", GROUPS)
def test_every_caller_agrees_at_a_forced_wider_width(group, monkeypatch):
    # at K = 128 the back-substitution reads each KL column repacked
    cache = get_cache(group)
    sys = cache.system
    ws = random.Random(11).sample(sys.elements(), 6)
    Js = list(subsets(sys))

    def results():
        restricted = [
            restriction_coeffs(cache, u, w, J) for J in Js for w in ws for u in sys.min_coset_reps(J, "left")
        ]
        matrices = [transition_matrix(cache, I, J).to_json_obj() for J in Js for I in Js if I <= J]
        return restricted, [parabolic_kl(cache, J) for J in Js], matrices

    narrow = results()
    widths = spy_widths(monkeypatch)
    monkeypatch.setattr(hybrid, "width", lambda b: max(128, b.bit_length() + 2))
    assert results() == narrow
    assert set(widths) == {128}


def test_expand_in_hybrid_of_zero_and_dense_elements():
    cache = get_cache("B3")
    sys = cache.system
    assert expand_in_hybrid(cache, _wrap(sys, {}), HybridBasisSpec({1})) == {}
    w0 = sys.longest_element()
    h = cache.kl_element(w0) * cache.kl_element(w0)
    for J in subsets(sys):
        for orientation in ("TC", "CT"):
            spec = HybridBasisSpec(J, orientation)
            assert expand_in_hybrid(cache, h, spec) == ref_expand_in_hybrid(cache, h, spec)
    # a zero that carries K, off and an L1 bound from a product goes through the solve too
    zero = (t_basis(sys, sys.generator(3)) * cache.kl_element(sys.generator(1))).restrict({1, 2})
    assert zero.is_zero() and zero._l1 > 0
    for orientation in ("TC", "CT"):
        assert expand_in_hybrid(cache, zero, HybridBasisSpec({1, 2}, orientation)) == {}


def test_matmul_of_laurent_matrices_matches_reference():
    # entries with negative exponents and coefficients, both digit widths
    sys = coxeter_system("A3")
    rng = random.Random(3)
    order = sys.elements()
    for coeff in (3, 2**80):

        def rand_matrix(I, J):
            cols = {w: {} for w in order}
            for w in order:
                for x in rng.sample(order, 5):
                    p = LaurentPoly({rng.randint(-20, 20): rng.randint(-coeff, coeff)})
                    if p:
                        cols[w][x] = p
            return TransitionMatrix(sys, I, J, order, cols)

        a, b = rand_matrix(frozenset(), frozenset({1})), rand_matrix(frozenset({1}), frozenset({1, 2}))
        assert matmul(a, b).columns == ref_matmul_columns(a, b)


def test_a_width_rule_that_cannot_widen_raises(monkeypatch):
    cache = get_cache("A3")
    sys = cache.system
    h = random_element(sys, random.Random(1), 6, (-3, 3), 2**80)
    monkeypatch.setattr(hybrid, "width", lambda bound: 64)
    with pytest.raises(ExactnessError, match="back-substitution"):
        expand_in_hybrid(cache, h, HybridBasisSpec({1, 2}))
    big = {w: {w: LaurentPoly(2**80)} for w in sys.elements()}
    m = TransitionMatrix(sys, frozenset(), frozenset(), sys.elements(), big)
    with pytest.raises(ExactnessError, match="matmul"):
        matmul(m, m)


@pytest.mark.parametrize("group", GROUPS)
def test_form_matches_the_whole_bar(group):
    sys = coxeter_system(group)
    rng = random.Random(11)
    for coeff in (3, 2**80):
        for _ in range(10):
            a = random_element(sys, rng, rng.randint(0, 10), (-20, 20), coeff)
            b = random_element(sys, rng, rng.randint(0, 40), (-20, 20), coeff)
            abar = a.bar()
            want = ZERO
            for x, c in abar.terms.items():
                want = want + c * b.coeff(x)
            assert form(a, b) == want


# ---------------------------------------------------------------------------
# interned load and the warm CLI
# ---------------------------------------------------------------------------


def test_equal_loaded_polynomials_are_one_object(tmp_path):
    s = coxeter_system("B3")
    path = tmp_path / "b3.klcache.gz"
    get_cache("B3").save(path)
    loaded = KLCache.load(path, s)
    seen = {}
    for col in loaded._columns.values():
        for p in col.values():
            assert seen.setdefault(str(p), p) is p
    assert len(seen) < sum(map(len, loaded._columns.values())) / 10
    for w in s.elements():
        assert loaded.kl_column(w)._packed == get_cache("B3").kl_column(w)._packed


def test_warm_and_cold_factorize_print_the_same_bytes(tmp_path, capsys):
    args = ["factorize", "--group", "B3", "--cache-dir", str(tmp_path), "--chain", "@<2<2,3<1,2,3"]
    outs = []
    for _ in range(2):  # cold: computes and saves the cache; warm: loads it
        assert main(args) == 0
        outs.append(capsys.readouterr().out)
    assert (tmp_path / "B3.klcache.gz").exists()
    assert outs[0] == outs[1]
