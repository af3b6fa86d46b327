"""Acceptance suite: the ten headline guarantees, one test each.

Each test prints a single PASS/FAIL line (capture is suspended for the
print, so the lines show up in plain pytest runs) and asserts exhaustively
at the stated scale.  All arithmetic is exact; there are no tolerances
anywhere.
"""

import random
import time
from contextlib import contextmanager

from heckekl import (
    HybridBasisSpec,
    KLOracle,
    ONE,
    Q,
    bruhat_interval_element,
    dihedral_restriction_formula,
    expand_in_hybrid,
    factorize_chain,
    hybrid_element,
    is_rationally_smooth,
    kl_matrix,
    matmul,
    parabolic_kl,
    parabolic_kl_via_sign_module,
    restriction_coeffs,
    shifted_translation_identity_holds,
    t_basis,
    translation_identity_holds,
    type_a_restriction_formula,
    unit,
)
from heckekl.coxeter import coxeter_system
from heckekl.hecke import HeckeElement as _wrap
from heckekl.klbasis import KLCache
from conftest import get_cache, subsets

_SEED = 20260817


@contextmanager
def announce(capsys, n, name):
    verdict = "PASS"
    try:
        yield
    except BaseException:
        verdict = "FAIL"
        raise
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} {name}: {verdict}", flush=True)


def _check_factorization(cache):
    factors = factorize_chain(cache)
    for m in factors:
        assert m.is_nonneg_poly_matrix()
    prod = factors[0]
    for m in factors[1:]:
        prod = matmul(prod, m)
    assert prod.same_entries(kl_matrix(cache))


def test_01_factorization_identity(capsys):
    with announce(capsys, 1, "chain factorization equals KL matrix"):
        for group in ["A2", "B3"] + [f"I2({m})" for m in range(3, 9)]:
            _check_factorization(get_cache(group))
        # A3 from a cold cache, timed
        t0 = time.monotonic()
        _check_factorization(KLCache(coxeter_system("A3")))
        assert time.monotonic() - t0 < 5.0


def _restriction_positive(cache, J, u, w):
    for p in restriction_coeffs(cache, u, w, J).values():
        assert p.has_nonneg_coeffs() and p.is_poly_in_q()


def test_02_restriction_positivity(capsys):
    with announce(capsys, 2, "restriction coefficients lie in Z>=0[q]"):
        for group in ("A3", "B3", "I2(12)"):
            cache = get_cache(group)
            s = cache.system
            for J in subsets(s):
                for u in s.min_coset_reps(J, "left"):
                    for w in s.elements():
                        _restriction_positive(cache, J, u, w)
        cache = get_cache("D4")
        s = cache.system
        rng = random.Random(_SEED)
        Js = subsets(s)
        for _ in range(500):
            J = rng.choice(Js)
            u = rng.choice(s.min_coset_reps(J, "left"))
            w = rng.choice(s.elements())
            _restriction_positive(cache, J, u, w)


def test_03_transition_matrix_positivity(capsys):
    with announce(capsys, 3, "all nested transition matrices are nonnegative"):
        from heckekl import transition_matrix

        for group in ("A3", "B3"):
            cache = get_cache(group)
            s = cache.system
            for J in subsets(s):
                for I in subsets(s):
                    if I <= J:
                        assert transition_matrix(cache, I, J).is_nonneg_poly_matrix()


def test_04_dual_path_kl_equivalence(capsys):
    with announce(capsys, 4, "production and oracle KL recursions agree on all pairs"):
        for group in ("A3", "B3", "I2(10)"):
            cache = get_cache(group)
            s = cache.system
            oracle = KLOracle(s)
            for y in s.elements():
                for x in s.elements():
                    assert cache.kl_poly(y, x) == oracle.kl_poly(y, x)


def test_05_dihedral_closed_form(capsys):
    with announce(capsys, 5, "dihedral closed form matches the pipeline"):
        for m in range(3, 13):
            cache = get_cache(f"I2({m})")
            s = cache.system
            for u in s.min_coset_reps({1}, "left"):
                for w in s.elements():
                    assert dihedral_restriction_formula(s, u, w) == restriction_coeffs(
                        cache, u, w, {1}
                    )


def test_06_parabolic_kl_consistency(capsys):
    with announce(capsys, 6, "parabolic KL agrees with the sign-module construction"):
        for group in ("A3", "B3"):
            cache = get_cache(group)
            for J in subsets(cache.system):
                assert parabolic_kl(cache, J) == parabolic_kl_via_sign_module(cache, J)
        # chain-quotient values in type A with J = [n-1]: 1 / q / 0 by length gap
        for n in (2, 3, 4):
            cache = get_cache(f"A{n}")
            s = cache.system
            J = frozenset(range(1, n))
            P = parabolic_kl(cache, J)
            reps = s.min_coset_reps(J, "left")
            for u in reps:
                for u2 in reps:
                    p = P.get((u, u2))
                    gap = s.length(u2) - s.length(u)
                    if gap == 0:
                        assert (p == ONE) == (u == u2)
                        if u != u2:
                            assert p is None
                    elif gap == 1 and s.bruhat_leq(u, u2):
                        assert p == Q
                    else:
                        assert p is None


def test_07_type_a_formulas_and_translation(capsys):
    with announce(capsys, 7, "type-A closed forms and translation identities hold"):
        for gname, n in (("A3", 3), ("A4", 4)):
            cache = get_cache(gname)
            s = cache.system
            J = frozenset(range(1, n))
            for i in (1, 2, 3):
                u = s.element_from_word(range(i, n + 1))
                for w in s.elements():
                    assert type_a_restriction_formula(cache, i, w) == restriction_coeffs(
                        cache, u, w, J
                    )
        cache3 = get_cache("A3")
        wj3 = cache3.system.subgroup_elements({1, 2})
        for i in (1, 2, 3):
            for y in wj3:
                for x in wj3:
                    assert translation_identity_holds(cache3, i, y, x)
        for y in wj3:
            for x in wj3:
                assert shifted_translation_identity_holds(cache3, 1, y, x)
        cache4 = get_cache("A4")
        wj4 = cache4.system.subgroup_elements({1, 2, 3})
        for i in (1, 2):
            for y in wj4:
                for x in wj4:
                    assert translation_identity_holds(cache4, i, y, x)
                    assert shifted_translation_identity_holds(cache4, i, y, x)


def _structural_invariants(cache):
    s = cache.system
    one = unit(s)
    zero = _wrap(s, {})
    Js = subsets(s)
    for w in s.elements():
        cw = cache.kl_element(w)
        # self-duality and unitriangularity of C_w
        assert cw.bar() == cw
        assert cw.coeff(w) == ONE
        for x, p in cw.terms.items():
            assert s.bruhat_leq(x, w)
            if x != w:
                assert p.is_poly_in_q() and p.min_exp() >= 1
    for J in Js:
        spec = HybridBasisSpec(J)
        reps = s.min_coset_reps(J, "left")
        wj = s.subgroup_elements(J)
        # Psi transport and unitriangularity of TC^J_w
        for w in s.elements():
            tc = hybrid_element(cache, spec, w)
            assert tc.psi() == hybrid_element(cache, HybridBasisSpec(J, "CT"), s.inverse(w))
            assert tc.coeff(w) == ONE
            u, v = s.parabolic_factorize_left(w, J)
            assert tc.terms == {s.multiply(u, x): p for x, p in cache.kl_column(v).items()}
        # coset orthogonality
        for u in reps:
            tu_inv = t_basis(s, s.inverse(u))
            for u2 in reps:
                got = (tu_inv * t_basis(s, u2)).restrict(J)
                assert got == (one if u == u2 else zero)
        # T_u shift of the hybrid basis, for every I inside J
        for I in Js:
            if not I <= J:
                continue
            ispec = HybridBasisSpec(I)
            for u in reps:
                tu = t_basis(s, u)
                for z in wj:
                    assert tu * hybrid_element(cache, ispec, z) == hybrid_element(
                        cache, ispec, s.multiply(u, z)
                    )
        # vanishing and support of restriction coefficients
        for u in reps:
            for w in s.elements():
                coeffs = restriction_coeffs(cache, u, w, J)
                wq = s.parabolic_factorize_left(w, J)[0]
                if not s.bruhat_leq(u, wq):
                    assert coeffs == {}
                for v in wj:
                    c = coeffs.get(v)
                    if c is None:
                        continue
                    assert not c.is_zero()
                    assert s.bruhat_leq(s.multiply(u, v), w)
                    for i in J:
                        if s.length(s.apply_right(v, i)) > s.length(v) and s.length(
                            s.apply_right(w, i)
                        ) < s.length(w):
                            raise AssertionError("vanishing criterion violated")


def test_08_structural_invariants(capsys):
    with announce(capsys, 8, "structural identities hold exhaustively"):
        _structural_invariants(get_cache("A3"))
        _structural_invariants(get_cache("I2(6)"))


def test_09_smoothness_boundary(capsys):
    with announce(capsys, 9, "interval element detects the rational-smoothness boundary"):
        cache = get_cache("A3")
        s = cache.system
        equal = {w for w in s.elements() if cache.kl_element(w) == bruhat_interval_element(s, w)}
        smooth = {w for w in s.elements() if is_rationally_smooth(s, w)}
        assert equal == smooth
        assert len(equal) == 22
        assert set(s.elements()) - equal == {(3, 4, 1, 2), (4, 2, 3, 1)}


def test_10_product_expansion_positivity(capsys):
    with announce(capsys, 10, "KL times hybrid expands nonnegatively (200 random triples)"):
        cache = get_cache("A3")
        s = cache.system
        rng = random.Random(_SEED)
        Js = subsets(s)
        for _ in range(200):
            J = rng.choice(Js)
            w = rng.choice(s.elements())
            u = rng.choice(s.elements())
            spec = HybridBasisSpec(J)
            prod = cache.kl_element(w) * hybrid_element(cache, spec, u)
            coords = expand_in_hybrid(cache, prod, spec)
            assert all(p.has_nonneg_coeffs() for p in coords.values())
