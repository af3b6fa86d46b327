"""Named property checks behind the `verify` CLI subcommand.

Each check recomputes one of the package's defining identities and returns
a CheckResult; suites group them (involutions / positivity / oracles, with
"all" adding the structural identities).  Checks are exhaustive for small
groups and fall back to seeded sampling above the caps noted in each
detail string, so a verify run is deterministic for a fixed group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .coxeter import CoxeterSystem
from .hecke import HeckeElement, form, t_basis, unit
from .klbasis import KLCache, KLOracle, bruhat_interval_element, is_rationally_smooth
from .hybrid import (
    HybridBasisSpec,
    expand_in_hybrid,
    factorize_chain,
    hybrid_element,
    kl_matrix,
    matmul,
    parabolic_kl,
    restriction_coeffs,
    transition_matrix,
)
from .laurent import LaurentPoly, ONE, ZERO
from . import oracles

_SEED = 20260817


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _verdict(name: str, bad: list[str], detail: str) -> CheckResult:
    """Passed with detail when nothing is bad, else failed with the first three failures."""
    return CheckResult(name, not bad, detail if not bad else "; ".join(bad[:3]))


def crystallographic_note(system: CoxeterSystem) -> str | None:
    """A caveat for dihedral groups outside the Weyl (crystallographic) class."""
    if system.family == "I2" and system.param not in (2, 3, 4, 6):
        return (
            f"I2({system.param}) is not crystallographic; positivity results "
            "reported here are computational facts for this group"
        )
    return None


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _sample(seq, rng, cap):
    seq = list(seq)
    if len(seq) <= cap:
        return seq
    return rng.sample(seq, cap)

def _random_poly(rng) -> LaurentPoly:
    return LaurentPoly({rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})


def _random_element(system, rng) -> HeckeElement:
    return HeckeElement(system, {w: _random_poly(rng) for w in rng.sample(system.elements(), min(3, system.order))})


def _subsets(system):
    """Every subset of the generators, by size, each size in combinations order."""
    gens = system.generators
    return [frozenset(c) for r in range(len(gens) + 1) for c in combinations(gens, r)]


# ---------------------------------------------------------------------------
# involution checks
# ---------------------------------------------------------------------------


def check_bar_involution(cache, rng) -> CheckResult:
    sys = cache.system
    ok = all((h := _random_element(sys, rng)).bar().bar() == h for _ in range(20))
    return CheckResult("bar_involution", ok, "bar(bar(h)) = h on 20 random elements")


def check_bar_multiplicative(cache, rng) -> CheckResult:
    sys = cache.system
    ok = True
    for _ in range(10):
        a, b = _random_element(sys, rng), _random_element(sys, rng)
        ok = ok and (a * b).bar() == a.bar() * b.bar()
    return CheckResult("bar_multiplicative", ok, "bar(ab) = bar(a)bar(b) on 10 random pairs")


def check_psi(cache, rng) -> CheckResult:
    sys = cache.system
    ok = True
    for _ in range(10):
        h = _random_element(sys, rng)
        ok = ok and h.psi().psi() == h and h.psi().bar() == h.bar().psi()
    return CheckResult("psi_involution_commutes_with_bar", ok, "10 random elements")


def check_omega(cache, rng) -> CheckResult:
    sys = cache.system
    one = unit(sys)
    ok = all(t_basis(sys, x) * t_basis(sys, x).omega() == one for x in _sample(sys.elements(), rng, 40))
    ok = ok and all((h := _random_element(sys, rng)).omega().omega() == h for _ in range(10))
    return CheckResult("omega_inverts_standard_basis", ok, "T_x * omega(T_x) = 1, omega^2 = id")


def check_form(cache, rng) -> CheckResult:
    sys = cache.system
    ok = True
    for x in _sample(sys.elements(), rng, 12):
        bar_x = t_basis(sys, x).bar()
        for y in _sample(sys.elements(), rng, 12):
            want = ONE if x == y else ZERO
            ok = ok and form(bar_x, t_basis(sys, y)) == want
    for _ in range(8):
        a, h, h2 = (_random_element(sys, rng) for _ in range(3))
        ok = ok and form(a * h, h2) == form(h, a.omega() * h2)
    return CheckResult("form_orthonormal_and_adjoint", ok, "delta pairs + omega adjointness")


def check_kl_self_dual(cache, rng) -> CheckResult:
    sys = cache.system
    ws = _sample(sys.elements(), rng, 60)
    bad = [w for w in ws if cache.kl_element(w).bar() != cache.kl_element(w)]
    return CheckResult(
        "kl_self_dual",
        not bad,
        f"bar(C_w) = C_w on {len(ws)}/{sys.order} elements",
    )


def check_psi_kl(cache, rng) -> CheckResult:
    sys = cache.system
    ws = _sample(sys.elements(), rng, 60)
    ok = all(cache.kl_element(w).psi() == cache.kl_element(sys.inverse(w)) for w in ws)
    return CheckResult("psi_maps_kl_to_inverse", ok, f"psi(C_w) = C_(w^-1) on {len(ws)} elements")


# ---------------------------------------------------------------------------
# positivity checks
# ---------------------------------------------------------------------------


def check_kl_positive(cache, rng) -> CheckResult:
    sys = cache.system
    ws = _sample(sys.elements(), rng, 200)
    bad = []
    for w in ws:
        lw = sys.length(w)
        for x, p in cache.kl_column(w).items():
            if x == w:
                if p != ONE:
                    bad.append("diagonal")
            elif not (
                p.has_nonneg_coeffs()
                and p.min_exp() >= 1
                and p.max_exp() <= lw - sys.length(x)
                and sys.bruhat_leq(x, w)
            ):
                bad.append(f"h at {sys.word(x)},{sys.word(w)}")
    return _verdict("kl_nonneg_in_degree_window", bad, f"{len(ws)} columns")


def check_restriction_positive(cache, rng) -> CheckResult:
    # coefficients of C_w in every TC^J lie in Z>=0[q]
    sys = cache.system
    ws = _sample(sys.elements(), rng, 48)
    bad = []
    for J in _subsets(sys):
        spec = HybridBasisSpec(J)
        for w in ws:
            for x, p in expand_in_hybrid(cache, cache.kl_element(w), spec).items():
                if not (p.has_nonneg_coeffs() and p.is_poly_in_q()):
                    bad.append(f"J={sorted(J)} w={sys.word(w)} x={sys.word(x)}")
    return _verdict("restriction_coeffs_nonneg", bad, f"{len(ws)} columns x {2 ** sys.rank} subsets")


def check_transition_positive(cache, rng) -> CheckResult:
    sys = cache.system
    pairs = [(I, J) for J in _subsets(sys) for I in _subsets(sys) if I <= J]
    pairs = _sample(pairs, rng, 12 if sys.order > 60 else len(pairs))
    bad = [
        (sorted(I), sorted(J))
        for I, J in pairs
        if not transition_matrix(cache, I, J).is_nonneg_poly_matrix()
    ]
    return CheckResult(
        "transition_matrix_nonneg",
        not bad,
        f"{len(pairs)} nested pairs" if not bad else f"failures: {bad[:3]}",
    )


def check_factorization(cache, rng) -> CheckResult:
    factors = factorize_chain(cache)
    exact = reduce(matmul, factors).same_entries(kl_matrix(cache))
    ok = exact and all(f.is_nonneg_poly_matrix() for f in factors)
    return CheckResult(
        "chain_factorization_exact", ok, f"{len(factors)} singleton-step factors multiply to the KL matrix"
    )


def check_product_expansion_positive(cache, rng) -> CheckResult:
    # C_w * TC^J_u expands in TC^J with nonnegative coefficients
    sys = cache.system
    bad = []
    for _ in range(30):
        J = rng.choice(_subsets(sys))
        w = rng.choice(sys.elements())
        u = rng.choice(sys.elements())
        spec = HybridBasisSpec(J)
        prod = cache.kl_element(w) * hybrid_element(cache, spec, u)
        if not all(p.has_nonneg_coeffs() for p in expand_in_hybrid(cache, prod, spec).values()):
            bad.append(f"J={sorted(J)} w={sys.word(w)} u={sys.word(u)}")
    return _verdict("kl_times_hybrid_nonneg", bad, "30 random triples")


# ---------------------------------------------------------------------------
# oracle checks
# ---------------------------------------------------------------------------


def check_dual_path(cache, rng) -> CheckResult:
    sys = cache.system
    oracle = KLOracle(sys)
    if sys.order <= 60:
        pairs = [(y, x) for y in sys.elements() for x in sys.elements()]
        scope = f"all {len(pairs)} pairs"
    else:
        els = sys.elements()
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(400)]
        scope = "400 sampled pairs"
    ok = all(cache.kl_poly(y, x) == oracle.kl_poly(y, x) for y, x in pairs)
    return CheckResult("kl_two_recursions_agree", ok, scope)


def check_parabolic_sign_module(cache, rng) -> CheckResult:
    sys = cache.system
    subsets = _subsets(sys) if sys.order <= 60 else _sample(_subsets(sys), rng, 4)
    ok = all(
        parabolic_kl(cache, J) == oracles.parabolic_kl_via_sign_module(cache, J) for J in subsets
    )
    return CheckResult(
        "parabolic_kl_two_constructions_agree", ok, f"{len(subsets)} subsets, full W^J x W^J matrices"
    )


def check_dihedral_formula(cache, rng) -> CheckResult:
    sys = cache.system
    if sys.family != "I2":
        return CheckResult("dihedral_closed_form", True, "skipped: not dihedral")
    bad = []
    for u in sys.min_coset_reps({1}, "left"):
        for w in sys.elements():
            if oracles.dihedral_restriction_formula(sys, u, w) != restriction_coeffs(cache, u, w, {1}):
                bad.append(f"u={sys.word(u)} w={sys.word(w)}")
    return _verdict("dihedral_closed_form", bad, "all (u, w), J={1}")


def check_type_a_formulas(cache, rng) -> CheckResult:
    sys = cache.system
    if sys.family != "A":
        return CheckResult("type_a_closed_forms", True, "skipped: not type A")
    n = sys.rank
    J = frozenset(range(1, n))
    ws = _sample(sys.elements(), rng, 150)
    bad = []
    for i in range(1, min(3, n) + 1):
        u = sys.element_from_word(range(i, n + 1))
        for w in ws:
            if oracles.type_a_restriction_formula(cache, i, w) != restriction_coeffs(cache, u, w, J):
                bad.append(f"i={i} w={sys.word(w)}")
    wj = sys.subgroup_elements(J)
    for i in range(1, n + 1):
        for y in _sample(wj, rng, 24):
            for x in _sample(wj, rng, 24):
                if not oracles.translation_identity_holds(cache, i, y, x):
                    bad.append(f"translation i={i}")
                if i <= n - 2 and not oracles.shifted_translation_identity_holds(cache, i, y, x):
                    bad.append(f"shifted i={i}")
    return _verdict("type_a_closed_forms", bad, "restriction + translation identities")


def check_interval_restriction(cache, rng) -> CheckResult:
    sys = cache.system
    bad = []
    for s in sys.generators:
        J = frozenset({s})
        reps = _sample(sys.min_coset_reps(J, "left"), rng, 12)
        ws = _sample(sys.elements(), rng, 12)
        for u in reps:
            for w in ws:
                direct = (t_basis(sys, sys.inverse(u)) * bruhat_interval_element(sys, w)).restrict(J)
                if oracles.interval_restriction_formula(sys, u, w, J) != direct:
                    bad.append(f"J={{{s}}} u={sys.word(u)} w={sys.word(w)}")
    return _verdict("interval_restriction_formula", bad, "singleton J, sampled (u,w)")


def check_interval_vs_kl(cache, rng) -> CheckResult:
    sys = cache.system
    if sys.family == "A":
        ws = _sample(sys.elements(), rng, 150)
        bad = [
            w
            for w in ws
            if (cache.kl_element(w) == bruhat_interval_element(sys, w)) != is_rationally_smooth(sys, w)
        ]
        detail = "C_w = interval element iff 3412/4231-avoiding"
    elif sys.family == "I2":
        bad = [w for w in sys.elements() if cache.kl_element(w) != bruhat_interval_element(sys, w)]
        detail = "C_w = interval element for every dihedral w"
    else:
        return CheckResult("interval_element_vs_kl", True, "skipped: no closed smoothness criterion wired")
    return CheckResult("interval_element_vs_kl", not bad, detail if not bad else f"{len(bad)} mismatches")


# ---------------------------------------------------------------------------
# structural checks (run under "all")
# ---------------------------------------------------------------------------


def check_coset_orthogonality(cache, rng) -> CheckResult:
    sys = cache.system
    one = unit(sys)
    bad = []
    for J in _subsets(sys):
        reps = _sample(sys.min_coset_reps(J, "left"), rng, 10)
        for u in reps:
            for u2 in reps:
                got = (t_basis(sys, sys.inverse(u)) * t_basis(sys, u2)).restrict(J)
                want = one if u == u2 else HeckeElement(sys, {})
                if got != want:
                    bad.append(f"J={sorted(J)}")
    return _verdict("coset_orthogonality", bad, "(T_u^-1 T_u')|_J = delta")


def check_t_shift_of_hybrid(cache, rng) -> CheckResult:
    # T_u * TC^I_z = TC^I_(uz) for u in W^J, z in W_J, I inside J
    sys = cache.system
    bad = []
    subsets = _subsets(sys)
    for J in subsets:
        for I in subsets:
            if not I <= J:
                continue
            us = _sample(sys.min_coset_reps(J, "left"), rng, 6)
            zs = _sample(sys.subgroup_elements(J), rng, 6)
            spec = HybridBasisSpec(I)
            for u in us:
                for z in zs:
                    lhs = t_basis(sys, u) * hybrid_element(cache, spec, z)
                    if lhs != hybrid_element(cache, spec, sys.multiply(u, z)):
                        bad.append(f"I={sorted(I)} J={sorted(J)}")
    return _verdict("t_shift_of_hybrid_basis", bad, "sampled (I,J,u,z)")


def check_vanishing_and_support(cache, rng) -> CheckResult:
    sys = cache.system
    bad = []
    for J in _subsets(sys):
        wj = sys.subgroup_elements(J)
        for w in _sample(sys.elements(), rng, 16):
            wq = sys.parabolic_factorize_left(w, J)[0]
            wd = J & sys.right_descents(w)
            for u in _sample(sys.min_coset_reps(J, "left"), rng, 8):
                coeffs = restriction_coeffs(cache, u, w, J)
                for v in wj:
                    if v not in coeffs:  # restriction_coeffs omits zeros
                        continue
                    # some s in J is a right descent of w but not of v
                    if wd - sys.right_descents(v):
                        bad.append(f"vanishing J={sorted(J)}")
                    if not sys.bruhat_leq(u, wq):
                        bad.append(f"support J={sorted(J)}")
                    if not sys.bruhat_leq(sys.multiply(u, v), w):
                        bad.append(f"support-uv J={sorted(J)}")
    return _verdict("restriction_vanishing_and_support", bad, "descent vanishing + Bruhat support")


def check_psi_transport(cache, rng) -> CheckResult:
    sys = cache.system
    bad = []
    for J in _subsets(sys):
        for w in _sample(sys.elements(), rng, 12):
            tc = hybrid_element(cache, HybridBasisSpec(J, "TC"), w)
            ct = hybrid_element(cache, HybridBasisSpec(J, "CT"), sys.inverse(w))
            if tc.psi() != ct:
                bad.append(f"J={sorted(J)} w={sys.word(w)}")
    return _verdict("psi_transport_tc_to_ct", bad, "psi(TC^J_w) = CT^J_(w^-1)")


def check_hybrid_unitriangular(cache, rng) -> CheckResult:
    sys = cache.system
    bad = []
    for J in _subsets(sys):
        spec = HybridBasisSpec(J)
        for w in _sample(sys.elements(), rng, 16):
            el = hybrid_element(cache, spec, w)
            u, v = sys.parabolic_factorize_left(w, J)
            expect = {sys.multiply(u, x): p for x, p in cache.kl_column(v).items()}
            if el.terms != expect or el.coeff(w) != ONE:
                bad.append(f"J={sorted(J)} w={sys.word(w)}")
    return _verdict("hybrid_unitriangular_support", bad, "TC^J_w = T_w + lower h-terms")


def check_sign_module_map(cache, rng) -> CheckResult:
    sys = cache.system
    bad = []
    for J in _subsets(sys):
        for _ in range(6):
            h = _random_element(sys, rng)
            s = rng.choice(sys.generators)
            lhs = oracles.sign_project(t_basis(sys, sys.generator(s)) * h, J)
            rhs = oracles.sign_action_gen(s, oracles.sign_project(h, J))
            if lhs != rhs:
                bad.append(f"J={sorted(J)} s={s}")
    return _verdict("sign_projection_is_module_map", bad, "T_s action commutes with projection")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

_INVOLUTIONS = [
    check_bar_involution,
    check_bar_multiplicative,
    check_psi,
    check_omega,
    check_form,
    check_kl_self_dual,
    check_psi_kl,
]
_POSITIVITY = [
    check_kl_positive,
    check_restriction_positive,
    check_transition_positive,
    check_factorization,
    check_product_expansion_positive,
]
_ORACLES = [
    check_dual_path,
    check_parabolic_sign_module,
    check_dihedral_formula,
    check_type_a_formulas,
    check_interval_restriction,
    check_interval_vs_kl,
]
_STRUCTURAL = [
    check_coset_orthogonality,
    check_t_shift_of_hybrid,
    check_vanishing_and_support,
    check_psi_transport,
    check_hybrid_unitriangular,
    check_sign_module_map,
]

SUITES = {
    "involutions": _INVOLUTIONS,
    "positivity": _POSITIVITY,
    "oracles": _ORACLES,
    "all": _INVOLUTIONS + _POSITIVITY + _ORACLES + _STRUCTURAL,
}


def run_suite(cache: KLCache, suite: str, seed: int = _SEED) -> list[CheckResult]:
    checks = SUITES.get(suite)
    if checks is None:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    out = []
    for fn in checks:
        out.append(fn(cache, random.Random(seed)))
    return out
