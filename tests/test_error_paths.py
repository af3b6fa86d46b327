"""Public error messages and reprs that no other test reaches, each pinned."""

import pytest

from heckekl import (
    CoxeterSystem,
    HeckeElement,
    HybridBasisSpec,
    KLCache,
    Q,
    coxeter_system,
    expand_in_hybrid,
    interval_restriction_formula,
    kl_matrix,
    matmul,
    run_suite,
    t_basis,
    type_a_restriction_formula,
    unit,
)

A1, A2, A3 = coxeter_system("A1"), coxeter_system("A2"), coxeter_system("A3")
S12 = A2.element_from_word([1, 2])


def _outcome(make) -> str:
    """repr of make(), or the type and message of what it raised."""
    try:
        return repr(make())
    except Exception as e:
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize(
    "make, expected",
    [
        (
            lambda: expand_in_hybrid(KLCache(A2), unit(A1), HybridBasisSpec(set())),
            "ValueError: element and cache belong to different systems",
        ),
        (
            lambda: matmul(kl_matrix(KLCache(A2)), kl_matrix(KLCache(A1))),
            "ValueError: matrices over different systems",
        ),
        (
            lambda: run_suite(KLCache(A1), "nope"),
            "ValueError: unknown suite 'nope'; choose from ['all', 'involutions', 'oracles', 'positivity']",
        ),
        (lambda: CoxeterSystem("X", 3), "UnsupportedGroupError: unsupported family 'X'"),
        (lambda: A2.min_coset_reps({1}, "middle"), "ValueError: side must be 'left' or 'right', got 'middle'"),
        (
            lambda: type_a_restriction_formula(KLCache(A3), 4, A3.identity),
            "ValueError: i must be in 1..3 and at most the rank, got i=4, rank 3",
        ),
        (
            lambda: interval_restriction_formula(A2, A2.generator(1), A2.longest_element(), {1}),
            "ValueError: u is not a minimal coset representative for J",
        ),
        (
            lambda: KLCache(A2).kl_column(S12),
            "_Column({(1, 2, 3): LaurentPoly('1*q^2'), (1, 3, 2): LaurentPoly('1*q^1'), "
            "(2, 1, 3): LaurentPoly('1*q^1'), (2, 3, 1): LaurentPoly('1*q^0')})",
        ),
        (
            lambda: KLCache(A2).kl_element(S12),
            "HeckeElement((1*q^2)*T[] + (1*q^1)*T[1] + (1*q^1)*T[2] + (1*q^0)*T[1,2])",
        ),
        (lambda: unit(A2) * Q - t_basis(A2, A2.generator(2)), "HeckeElement((1*q^1)*T[] + (-1*q^0)*T[2])"),
        (lambda: HeckeElement(A2, {}), "HeckeElement(0)"),
    ],
    ids=[
        "expand-other-system", "matmul-other-system", "unknown-suite", "unknown-family", "coset-side",
        "type-a-index", "interval-non-minimal-u", "column-repr", "element-repr", "element-repr-signs", "zero-repr",
    ],
)
def test_error_messages_and_reprs_are_pinned(make, expected):
    assert _outcome(make) == expected
