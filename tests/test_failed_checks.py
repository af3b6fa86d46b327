"""Exit code 1 means a checked property failed: with one library function
broken on purpose, ``verify`` and ``factorize`` still print their report,
mark the failed checks and exit 1."""

import json

from heckekl import cli
from heckekl.hecke import HeckeElement
from test_cli_contract import run


def test_verify_reports_failed_checks_with_exit_code_1(monkeypatch, capsys):
    # psi as the identity breaks every check that needs T_w -> T_{w^-1}
    monkeypatch.setattr(HeckeElement, "psi", lambda self: self)
    code, out, err = run(capsys, "verify", "--group", "A3", "--suite", "all")
    assert code == 1
    assert err == ""
    obj = json.loads(out)
    assert obj["all_passed"] is False
    failed = {r["name"]: r["detail"] for r in obj["results"] if not r["passed"]}
    assert failed == {
        "omega_inverts_standard_basis": "T_x * omega(T_x) = 1, omega^2 = id",
        "form_orthonormal_and_adjoint": "delta pairs + omega adjointness",
        "psi_maps_kl_to_inverse": "psi(C_w) = C_(w^-1) on 24 elements",
        # a check that collects its failures gives the first three
        "psi_transport_tc_to_ct": "J=[] w=(1, 2, 1, 3, 2); J=[] w=(1, 2, 3); J=[] w=(2, 1, 3, 2, 1)",
    }


def test_verify_csv_ends_with_all_passed_false(monkeypatch, capsys):
    monkeypatch.setattr(HeckeElement, "psi", lambda self: self)
    code, out, _ = run(capsys, "verify", "--group", "A2", "--suite", "involutions", "--format", "csv")
    assert code == 1
    assert out.splitlines()[-1] == '"all_passed","false",""'


def test_factorize_reports_a_wrong_product_with_exit_code_1(monkeypatch, capsys):
    # a product that keeps only its left factor: M_1 alone is not the KL matrix
    monkeypatch.setattr(cli, "matmul", lambda a, b: a)
    code, out, err = run(capsys, "factorize", "--group", "A3")
    assert code == 1
    assert err == ""
    obj = json.loads(out)
    assert obj["product_equals_kl"] is False
    assert obj["nonnegative"] is True
    assert len(obj["factors"]) == 3
