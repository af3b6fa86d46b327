"""Exact symbolic computation in Hecke algebras of finite Coxeter groups.

Everything is computed over Z[q, q^-1] with no floating point: canonical
(KL) bases, restriction of scaled basis elements to parabolic subalgebras,
the hybrid T/C bases attached to a parabolic subset, and factorizations of
the KL change-of-basis matrix into nonnegative steps along a chain of
parabolic subsets.  Supported groups: A(1..5), B(2..4), D(3..4), I2(3..24),
larger parameters behind an explicit allow_large flag.
"""

from .laurent import ExactnessError, LaurentPoly, ZERO, ONE, Q, QINV
from .coxeter import (
    CoxeterSystem,
    UnsupportedGroupError,
    coxeter_system,
    format_word,
    parse_word,
)
from .hecke import HeckeElement, MixedSystemError, form, t_basis, unit
from .klbasis import (
    KLCache,
    KLOracle,
    bruhat_interval_element,
    is_rationally_smooth,
)
from .hybrid import (
    HybridBasisSpec,
    TransitionMatrix,
    default_chain,
    expand_in_hybrid,
    factorize_chain,
    hybrid_element,
    kl_matrix,
    matmul,
    parabolic_kl,
    restriction_coeffs,
    transition_matrix,
)
from .oracles import (
    SignModuleElement,
    dihedral_restriction_formula,
    interval_restriction_formula,
    parabolic_kl_via_sign_module,
    shifted_translation_identity_holds,
    sign_action_gen,
    sign_project,
    translation_identity_holds,
    type_a_restriction_formula,
)
from .verification import CheckResult, SUITES, crystallographic_note, run_suite

__version__ = "0.1.0"

__all__ = [
    "ExactnessError",
    "LaurentPoly",
    "ZERO",
    "ONE",
    "Q",
    "QINV",
    "CoxeterSystem",
    "UnsupportedGroupError",
    "coxeter_system",
    "format_word",
    "parse_word",
    "HeckeElement",
    "MixedSystemError",
    "form",
    "t_basis",
    "unit",
    "KLCache",
    "KLOracle",
    "bruhat_interval_element",
    "is_rationally_smooth",
    "HybridBasisSpec",
    "TransitionMatrix",
    "default_chain",
    "expand_in_hybrid",
    "factorize_chain",
    "hybrid_element",
    "kl_matrix",
    "matmul",
    "parabolic_kl",
    "restriction_coeffs",
    "transition_matrix",
    "SignModuleElement",
    "dihedral_restriction_formula",
    "interval_restriction_formula",
    "parabolic_kl_via_sign_module",
    "shifted_translation_identity_holds",
    "sign_action_gen",
    "sign_project",
    "translation_identity_holds",
    "type_a_restriction_formula",
    "CheckResult",
    "SUITES",
    "crystallographic_note",
    "run_suite",
    "__version__",
]
