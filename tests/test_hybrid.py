import csv
import json
import random
from collections.abc import Mapping

import pytest

from heckekl import (
    HybridBasisSpec,
    LaurentPoly,
    ONE,
    Q,
    TransitionMatrix,
    ZERO,
    coxeter_system,
    default_chain,
    expand_in_hybrid,
    factorize_chain,
    hybrid_element,
    kl_matrix,
    matmul,
    parabolic_kl,
    restriction_coeffs,
    t_basis,
    transition_matrix,
)
from heckekl.hecke import HeckeElement as _wrap
from conftest import get_cache, subsets


def test_basis_spec_validation():
    HybridBasisSpec({1, 2})
    with pytest.raises(ValueError):
        HybridBasisSpec({1}, "XY")


def test_hybrid_endpoints():
    cache = get_cache("A2")
    s = cache.system
    for w in s.elements():
        assert hybrid_element(cache, HybridBasisSpec(()), w) == t_basis(s, w)
        assert hybrid_element(cache, HybridBasisSpec(s.generators), w) == cache.kl_element(w)


def test_hybrid_singleton_j():
    # for J = {1}: T_w if w s_1 > w, else T_w + q T_(w s_1)
    cache = get_cache("A3")
    s = cache.system
    spec = HybridBasisSpec({1})
    for w in s.elements():
        el = hybrid_element(cache, spec, w)
        ws = s.apply_right(w, 1)
        if s.length(ws) > s.length(w):
            assert el == t_basis(s, w)
        else:
            assert el == t_basis(s, w) + t_basis(s, ws).scale(Q)


def test_hybrid_factorizes_as_t_times_kl():
    cache = get_cache("B3")
    s = cache.system
    rng = random.Random(3)
    for J in subsets(s):
        spec = HybridBasisSpec(J)
        for w in rng.sample(s.elements(), 10):
            u, v = s.parabolic_factorize_left(w, J)
            assert hybrid_element(cache, spec, w) == t_basis(s, u) * cache.kl_element(v)


def test_ct_orientation():
    cache = get_cache("A3")
    s = cache.system
    for J in subsets(s):
        tc = HybridBasisSpec(J, "TC")
        ct = HybridBasisSpec(J, "CT")
        for w in s.elements():
            # psi transports TC at w to CT at w^-1
            assert hybrid_element(cache, tc, w).psi() == hybrid_element(cache, ct, s.inverse(w))
        # CT factorizes as C * T on the right-sided factorization
        for w in s.elements():
            v, u = s.parabolic_factorize_right(w, J)
            assert hybrid_element(cache, ct, w) == cache.kl_element(v) * t_basis(s, u)


def test_expand_is_inverse_of_hybrid_element():
    cache = get_cache("A3")
    s = cache.system
    for J in (frozenset({1}), frozenset({1, 2})):
        spec = HybridBasisSpec(J)
        for w in s.elements():
            assert expand_in_hybrid(cache, hybrid_element(cache, spec, w), spec) == {w: ONE}


def test_expand_round_trip_random():
    cache = get_cache("A3")
    s = cache.system
    rng = random.Random(8)
    for J in (frozenset({2}), frozenset({1, 3}), frozenset({1, 2, 3})):
        spec = HybridBasisSpec(J)
        for _ in range(10):
            terms = {
                w: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                for w in rng.sample(s.elements(), 5)
            }
            h = _wrap(s, {w: c for w, c in terms.items() if not c.is_zero()})
            coords = expand_in_hybrid(cache, h, spec)
            rebuilt = _wrap(s, {})
            for x, c in coords.items():
                rebuilt = rebuilt + hybrid_element(cache, spec, x).scale(c)
            assert rebuilt == h


def test_expand_t_generator_in_full_kl():
    cache = get_cache("A2")
    s = cache.system
    spec = HybridBasisSpec(s.generators)
    got = expand_in_hybrid(cache, t_basis(s, s.generator(1)), spec)
    assert got == {s.generator(1): ONE, s.identity: -Q}


def test_expand_ct_orientation_round_trip():
    cache = get_cache("A3")
    s = cache.system
    spec = HybridBasisSpec({1, 2}, "CT")
    rng = random.Random(13)
    for _ in range(10):
        terms = {
            w: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
            for w in rng.sample(s.elements(), 4)
        }
        h = _wrap(s, {w: c for w, c in terms.items() if not c.is_zero()})
        coords = expand_in_hybrid(cache, h, spec)
        rebuilt = _wrap(s, {})
        for x, c in coords.items():
            rebuilt = rebuilt + hybrid_element(cache, spec, x).scale(c)
        assert rebuilt == h


def test_restriction_coeffs_golden():
    cache = get_cache("A2")
    s = cache.system
    e, s1, s2 = s.identity, s.generator(1), s.generator(2)
    assert restriction_coeffs(cache, e, s1, {1}) == {s1: ONE}
    assert restriction_coeffs(cache, s2, s2, {1}) == {e: ONE}
    # u not below w^J: empty
    assert restriction_coeffs(cache, s2, s1, {1}) == {}


def test_restriction_coeffs_rejects_bad_rep():
    cache = get_cache("A2")
    s = cache.system
    with pytest.raises(ValueError, match="right descent"):
        restriction_coeffs(cache, s.generator(1), s.generator(1), {1})


def test_restriction_of_tail_representatives():
    # u = s_2 s_3, w with w^J = s_1 s_2 s_3 in A3: single coefficient q on C_(w_J)
    cache = get_cache("A3")
    s = cache.system
    J = frozenset({1, 2})
    u = s.element_from_word([2, 3])
    wq = s.element_from_word([1, 2, 3])
    for v in s.subgroup_elements(J):
        w = s.multiply(wq, v)
        assert restriction_coeffs(cache, u, w, J) == {v: Q}


def test_identity_rep_restriction_is_kl_within_subgroup():
    # u = e: (C_w)|_J for w in W_J is the full KL column of w
    cache = get_cache("B3")
    s = cache.system
    J = frozenset({1, 2})
    for w in s.subgroup_elements(J):
        got = restriction_coeffs(cache, s.identity, w, J)
        assert got == {w: ONE}


def test_transition_block_structure_a3():
    # inside each coset u W_(1,2): column of u s1 s2 has 1 at u s1 s2, q at u s1 and u s2
    cache = get_cache("A3")
    s = cache.system
    m = transition_matrix(cache, {1}, {1, 2})
    v12 = s.element_from_word([1, 2])
    v1, v2 = s.generator(1), s.generator(2)
    for u in s.min_coset_reps({1, 2}, "left"):
        w = s.multiply(u, v12)
        col = m.columns[w]
        assert col == {
            s.multiply(u, v12): ONE,
            s.multiply(u, v1): Q,
            s.multiply(u, v2): Q,
        }


def test_transition_endpoints():
    cache = get_cache("A2")
    s = cache.system
    full = transition_matrix(cache, (), s.generators)
    assert full.same_entries(kl_matrix(cache))
    for J in subsets(s):
        ident = transition_matrix(cache, J, J)
        assert all(ident.columns[w] == {w: ONE} for w in s.elements())


def _direct_transition(cache, I, J):
    """Every column expanded on its own: TC^J_w written in TC^I, for each w."""
    s = cache.system
    spec_i, spec_j = HybridBasisSpec(I), HybridBasisSpec(J)
    cols = {w: expand_in_hybrid(cache, hybrid_element(cache, spec_j, w), spec_i) for w in s.elements()}
    return TransitionMatrix(s, frozenset(I), frozenset(J), s.elements(), cols)


def test_transition_replicate_matches_direct():
    cache = get_cache("A2")
    s = cache.system
    for J in subsets(s):
        for I in subsets(s):
            if I <= J:
                a = transition_matrix(cache, I, J)
                assert a.same_entries(_direct_transition(cache, I, J))
    cache3 = get_cache("A3")
    a = transition_matrix(cache3, {1}, {1, 2})
    assert a.same_entries(_direct_transition(cache3, {1}, {1, 2}))


def test_transition_requires_nested_subsets():
    cache = get_cache("A2")
    with pytest.raises(ValueError, match="contained"):
        transition_matrix(cache, {1}, {2})


def test_matmul_composes_transitions():
    cache = get_cache("A2")
    s = cache.system
    a = transition_matrix(cache, (), {1})
    b = transition_matrix(cache, {1}, s.generators)
    assert matmul(a, b).same_entries(kl_matrix(cache))
    with pytest.raises(ValueError, match="inner"):
        matmul(b, a)


def test_factorize_chain_default():
    for group in ("A2", "B2"):
        cache = get_cache(group)
        factors = factorize_chain(cache)
        assert len(factors) == cache.system.rank
        prod = factors[0]
        for m in factors[1:]:
            prod = matmul(prod, m)
        assert prod.same_entries(kl_matrix(cache))
        assert all(m.is_nonneg_poly_matrix() for m in factors)


def test_factorize_chain_validation():
    cache = get_cache("A2")
    with pytest.raises(ValueError, match="empty set"):
        factorize_chain(cache, [{1}, {1, 2}])
    with pytest.raises(ValueError, match="full generator set"):
        factorize_chain(cache, [frozenset(), {1}])
    with pytest.raises(ValueError, match="strictly increasing"):
        factorize_chain(cache, [frozenset(), {1, 2}, {1, 2}])
    single = factorize_chain(cache, [frozenset(), {1, 2}])
    assert len(single) == 1
    assert single[0].same_entries(kl_matrix(cache))


def test_default_chain():
    s = coxeter_system("A3")
    assert default_chain(s) == [frozenset(), {1}, {1, 2}, {1, 2, 3}]


def test_parabolic_kl_golden_a2():
    cache = get_cache("A2")
    s = cache.system
    e = s.identity
    s2 = s.generator(2)
    s12 = s.element_from_word([1, 2])
    P = parabolic_kl(cache, {1})
    assert P == {
        (e, e): ONE,
        (s2, s2): ONE,
        (s12, s12): ONE,
        (e, s2): Q,
        (s2, s12): Q,
    }


def test_parabolic_kl_unitriangular():
    cache = get_cache("B3")
    s = cache.system
    for J in (frozenset({1}), frozenset({1, 2})):
        P = parabolic_kl(cache, J)
        reps = s.min_coset_reps(J, "left")
        for u in reps:
            assert P[(u, u)] == ONE
        for (u, u2), p in P.items():
            assert s.bruhat_leq(u, u2)
            if u != u2:
                assert p.has_nonneg_coeffs() and p.is_poly_in_q()
                assert not p.is_zero()


def test_kl_times_hybrid_shift():
    # T_u * TC^I_z = TC^I_(u z) for u in W^J, z in W_J, I inside J
    cache = get_cache("A3")
    s = cache.system
    rng = random.Random(19)
    for J in subsets(s):
        for I in subsets(s):
            if not I <= J:
                continue
            spec = HybridBasisSpec(I)
            us = rng.sample(s.min_coset_reps(J, "left"), min(4, len(s.min_coset_reps(J, "left"))))
            zs = rng.sample(s.subgroup_elements(J), min(4, len(s.subgroup_elements(J))))
            for u in us:
                for z in zs:
                    lhs = t_basis(s, u) * hybrid_element(cache, spec, z)
                    assert lhs == hybrid_element(cache, spec, s.multiply(u, z))


def test_matrix_json_shape():
    cache = get_cache("A2")
    m = transition_matrix(cache, {1}, {1, 2})
    obj = m.to_json_obj()
    assert obj["type"] == "A2"
    assert obj["I"] == [1] and obj["J"] == [1, 2]
    assert obj["order"][0] == [] and len(obj["order"]) == 6
    # entries sorted by (column, row), indices into order
    keys = [(c, r) for r, c, _ in obj["entries"]]
    assert keys == sorted(keys)
    json.dumps(obj)  # serializable


def test_matrix_csv_shape():
    cache = get_cache("A2")
    m = kl_matrix(cache)
    text = m.to_csv()
    lines = text.strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("x\\w,")
    assert lines[1].split(",")[0] == '""'
    # diagonal of the KL matrix is 1*q^0
    cells = lines[1].split(",")
    assert cells[1] == '"1*q^0"'


class _FreshEntries(Mapping):
    """A column whose every read builds a new polynomial, row k holding k + 1:
    each object is freed once read, so the next one may reuse its id."""

    def __init__(self, order):
        self._at = {x: k for k, x in enumerate(order)}

    def __getitem__(self, x):
        return LaurentPoly(self._at[x] + 1)

    def __iter__(self):
        return iter(self._at)

    def __len__(self):
        return len(self._at)


def test_csv_cells_of_short_lived_polynomials():
    s = coxeter_system("A2")
    order = tuple(s.elements())
    m = TransitionMatrix(s, frozenset(), frozenset(s.generators), order, {w: _FreshEntries(order) for w in order})
    rows = list(csv.reader(m.to_csv().splitlines()))[1:]
    assert [row[1:] for row in rows] == [[f"{k}*q^0"] * 6 for k in range(1, 7)]
