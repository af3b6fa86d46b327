import random

import pytest

from heckekl import (
    HybridBasisSpec,
    LaurentPoly,
    ONE,
    Q,
    bruhat_interval_element,
    coxeter_system,
    dihedral_restriction_formula,
    hybrid_element,
    interval_restriction_formula,
    parabolic_kl,
    parabolic_kl_via_sign_module,
    restriction_coeffs,
    shifted_translation_identity_holds,
    sign_action_gen,
    sign_project,
    t_basis,
    translation_identity_holds,
    type_a_restriction_formula,
)
from heckekl.hecke import HeckeElement as _wrap
from conftest import get_cache, subsets


# -- sign module -----------------------------------------------------------


def test_sign_project_of_t_basis():
    s = coxeter_system("A3")
    J = frozenset({1, 2})
    for w in s.elements():
        m = sign_project(t_basis(s, w), J)
        u, v = s.parabolic_factorize_left(w, J)
        lv = s.length(v)
        assert m.terms == {u: LaurentPoly.q_power(lv, (-1) ** lv)}


def test_sign_project_kills_kl_of_subgroup():
    cache = get_cache("A3")
    s = cache.system
    for J in subsets(s):
        for v in s.subgroup_elements(J):
            m = sign_project(cache.kl_element(v), J)
            if v == s.identity:
                assert m.terms == {s.identity: ONE}
            else:
                assert m.terms == {}


def test_sign_project_of_hybrid_basis():
    # TC^J_w projects to the basis vector at w^J when w is a minimal rep, else 0
    cache = get_cache("A3")
    s = cache.system
    J = frozenset({2, 3})
    spec = HybridBasisSpec(J)
    for w in s.elements():
        m = sign_project(hybrid_element(cache, spec, w), J)
        if w in s.min_coset_reps(J, "left"):
            assert m.terms == {w: ONE}
        else:
            assert m.terms == {}


def test_sign_action_is_module_map():
    rng = random.Random(37)
    for group in ("A2", "A3", "B2"):
        s = coxeter_system(group)
        for J in subsets(s):
            for _ in range(8):
                terms = {
                    w: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                    for w in rng.sample(s.elements(), min(3, s.order))
                }
                h = _wrap(s, {w: c for w, c in terms.items() if not c.is_zero()})
                i = rng.choice(s.generators)
                lhs = sign_project(t_basis(s, s.generator(i)) * h, J)
                rhs = sign_action_gen(i, sign_project(h, J))
                assert lhs.terms == rhs.terms


def test_parabolic_kl_construction_agree():
    for group in ("A2", "A3", "B2"):
        cache = get_cache(group)
        for J in subsets(cache.system):
            assert parabolic_kl(cache, J) == parabolic_kl_via_sign_module(cache, J)


# -- dihedral closed form ----------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_dihedral_formula_matches_pipeline(m):
    cache = get_cache(f"I2({m})")
    s = cache.system
    for u in s.min_coset_reps({1}, "left"):
        for w in s.elements():
            assert dihedral_restriction_formula(s, u, w) == restriction_coeffs(cache, u, w, {1})


def test_dihedral_formula_cases():
    s = coxeter_system("I2(5)")
    e = s.identity
    s1 = s.generator(1)
    u = s.generator(2)  # k = 1, u s1 = s2 s1
    us1 = s.element_from_word([2, 1])
    w_high = s.element_from_word([2, 1, 2, 1])  # length 4 >= u s1
    assert dihedral_restriction_formula(s, u, w_high) == {s1: LaurentPoly.q_power(4 - 2)}
    swapped = s.element_from_word([1, 2])  # (u s1) with generators 1 <-> 2
    assert dihedral_restriction_formula(s, u, swapped) == {e: LaurentPoly.q_power(1)}
    assert dihedral_restriction_formula(s, u, e) == {}
    assert dihedral_restriction_formula(s, u, us1) == {s1: ONE}


def test_dihedral_formula_boundary_case_first_rule_wins():
    # at w = w0 with u the longest representative, both case predicates hold
    for m in (4, 5, 6):
        s = coxeter_system(f"I2({m})")
        cache = get_cache(f"I2({m})")
        reps = s.min_coset_reps({1}, "left")
        u = max(reps, key=s.length)  # length m-1, u s1 = w0
        assert s.multiply(u, s.generator(1)) == s.longest_element()
        got = dihedral_restriction_formula(s, u, s.longest_element())
        assert got == {s.generator(1): ONE}
        assert got == restriction_coeffs(cache, u, s.longest_element(), {1})


def test_dihedral_formula_rejects_bad_input():
    s = coxeter_system("I2(5)")
    with pytest.raises(ValueError):
        dihedral_restriction_formula(s, s.generator(1), s.identity)
    with pytest.raises(ValueError):
        dihedral_restriction_formula(coxeter_system("A2"), coxeter_system("A2").identity,
                                     coxeter_system("A2").identity)


# -- type A closed forms ----------------------------------------------------


@pytest.mark.parametrize("i", [1, 2, 3])
def test_type_a_formula_matches_pipeline_a3(i):
    cache = get_cache("A3")
    s = cache.system
    u = s.element_from_word(range(i, 4))
    J = frozenset({1, 2})
    for w in s.elements():
        assert type_a_restriction_formula(cache, i, w) == restriction_coeffs(cache, u, w, J)


def test_type_a_formula_golden_cases():
    cache = get_cache("A3")
    s = cache.system
    J = frozenset({1, 2})
    t1 = s.element_from_word([1, 2, 3])
    # i = 1: nonzero only when w^J is the full tail word
    for v in s.subgroup_elements(J):
        w = s.multiply(t1, v)
        assert type_a_restriction_formula(cache, 1, w) == {v: ONE}
    assert type_a_restriction_formula(cache, 1, s.element_from_word([2, 3])) == {}
    # i = 2 at w^J = s2 s3: plain subgroup column
    t2 = s.element_from_word([2, 3])
    for v in s.subgroup_elements(J):
        w = s.multiply(t2, v)
        assert type_a_restriction_formula(cache, 2, w) == {v: ONE}
    # i = 3 with s1 w_J < w_J: q^2 C_(w_J)
    v = s.element_from_word([1, 2])  # s1 v < v
    w = s.multiply(t1, v)
    assert type_a_restriction_formula(cache, 3, w) == {v: LaurentPoly.q_power(2)}


def test_type_a_formula_deep_case_expands_kl_product():
    # i = 3, s1 w_J > w_J: coefficient map is q C_(s1) C_(w_J) in the subgroup
    cache = get_cache("A3")
    s = cache.system
    t1 = s.element_from_word([1, 2, 3])
    v = s.element_from_word([2])  # s1 v > v
    w = s.multiply(t1, v)
    got = type_a_restriction_formula(cache, 3, w)
    assert got == {s.element_from_word([1, 2]): Q}


def test_type_a_formula_requires_type_a():
    cache = get_cache("B3")
    with pytest.raises(ValueError):
        type_a_restriction_formula(cache, 1, cache.system.identity)


def test_tail_identity():
    # (T_(s_n...s_i) C_(s_i...s_n v))|_[n-1] = C_v
    cache = get_cache("A3")
    s = cache.system
    J = frozenset({1, 2})
    for i in (1, 2, 3):
        t = s.element_from_word(range(i, 4))
        for v in s.subgroup_elements(J):
            assert restriction_coeffs(cache, t, s.multiply(t, v), J) == {v: ONE}


@pytest.mark.parametrize("i", [1, 2, 3])
def test_translation_identity_a3(i):
    cache = get_cache("A3")
    wj = cache.system.subgroup_elements({1, 2})
    for y in wj:
        for x in wj:
            assert translation_identity_holds(cache, i, y, x)


def test_shifted_translation_identity_a3():
    cache = get_cache("A3")
    wj = cache.system.subgroup_elements({1, 2})
    for y in wj:
        for x in wj:
            assert shifted_translation_identity_holds(cache, 1, y, x)


def test_shifted_translation_index_bounds():
    cache = get_cache("A3")
    s = cache.system
    with pytest.raises(ValueError):
        shifted_translation_identity_holds(cache, 2, s.identity, s.identity)


# -- interval restriction ----------------------------------------------------


def test_interval_restriction_golden():
    s = coxeter_system("I2(6)")
    J = frozenset({1})
    for w in s.subgroup_elements(J):
        assert interval_restriction_formula(s, s.identity, w, J) == bruhat_interval_element(s, w)
    # u not below w^J: zero
    u = max(s.min_coset_reps(J, "left"), key=s.length)
    assert interval_restriction_formula(s, u, s.generator(2), J).is_zero()


@pytest.mark.parametrize("group,J", [("I2(6)", frozenset({1})), ("A3", frozenset({2}))])
def test_interval_restriction_matches_direct(group, J):
    s = coxeter_system(group)
    for u in s.min_coset_reps(J, "left"):
        for w in s.elements():
            direct = (t_basis(s, s.inverse(u)) * bruhat_interval_element(s, w)).restrict(J)
            assert interval_restriction_formula(s, u, w, J) == direct
