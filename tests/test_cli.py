import json
import os

import pytest

from heckekl.cli import main
from conftest import run


def test_kl_column_a1_golden(capsys):
    code, out, err = run(capsys, "kl", "--group", "A1", "--w", "1")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "group": "A1",
        "w": "1",
        "order": ["", "1"],
        "column": ["1*q^1", "1*q^0"],
    }


def test_kl_column_dihedral(capsys):
    code, out, _ = run(capsys, "kl", "--group", "I2(5)", "--w", "1,2,1")
    assert code == 0
    obj = json.loads(out)
    # entries q^(3 - length) on the lower interval, 0 outside it
    assert obj["column"][: obj["order"].index("1,2,1") + 1] == [
        "1*q^3",
        "1*q^2",
        "1*q^2",
        "1*q^1",
        "1*q^1",
        "1*q^0",
    ]
    assert set(obj["column"][obj["order"].index("1,2,1") + 1 :]) == {"0"}


def test_kl_full_matrix_a2(capsys):
    code, out, _ = run(capsys, "kl", "--group", "A2")
    assert code == 0
    obj = json.loads(out)
    assert obj["type"] == "A2"
    assert len(obj["order"]) == 6
    diag = [e for e in obj["entries"] if e[0] == e[1]]
    assert len(diag) == 6
    assert all(e[2] == {"0": 1} for e in diag)


def test_kl_csv_column(capsys):
    code, out, _ = run(capsys, "kl", "--group", "A1", "--w", "1", "--format", "csv")
    assert code == 0
    assert out == 'x,coeff\n"","1*q^1"\n"1","1*q^0"\n'


def test_restrict_golden_examples(capsys):
    code, out, _ = run(capsys, "restrict", "--group", "A2", "--J", "1", "--u", "e", "--w", "1")
    assert code == 0
    assert json.loads(out)["coeffs"] == [["1", "1*q^0"]]

    code, out, _ = run(capsys, "restrict", "--group", "A2", "--J", "1", "--u", "2", "--w", "2")
    assert code == 0
    assert json.loads(out)["coeffs"] == [["", "1*q^0"]]

    # u above w^J: empty coefficient list
    code, out, _ = run(capsys, "restrict", "--group", "A2", "--J", "1", "--u", "2", "--w", "1")
    assert code == 0
    assert json.loads(out)["coeffs"] == []


def test_restrict_rejects_non_minimal_rep(capsys):
    code, out, err = run(capsys, "restrict", "--group", "A2", "--J", "1", "--u", "1", "--w", "1")
    assert code == 2
    assert out == ""
    assert "minimal coset representative" in err and "generator 1" in err


def test_bad_word_is_usage_error(capsys):
    code, _, err = run(capsys, "kl", "--group", "A2", "--w", "1,5")
    assert code == 2
    assert "position 2" in err


def test_unknown_group_is_usage_error(capsys):
    code, _, err = run(capsys, "kl", "--group", "Z9", "--w", "1")
    assert code == 2
    assert "error:" in err


def test_group_bound_error_mentions_override(capsys):
    code, _, err = run(capsys, "kl", "--group", "I2(30)", "--w", "1")
    assert code == 2
    assert "allow_large" in err or "allow-large" in err
    code, out, _ = run(capsys, "kl", "--group", "I2(30)", "--allow-large", "--w", "1")
    assert code == 0
    assert len(json.loads(out)["order"]) == 60


def test_missing_subcommand_usage(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_hybrid_element_output(capsys):
    code, out, _ = run(capsys, "hybrid", "--group", "A2", "--J", "1", "--w", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["orientation"] == "TC"
    assert obj["terms"] == [["", "1*q^1"], ["1", "1*q^0"]]
    # w = 2,1 ends with the J-generator: T_21 + q T_2
    code, out, _ = run(capsys, "hybrid", "--group", "A2", "--J", "1", "--w", "2,1")
    assert json.loads(out)["terms"] == [["2", "1*q^1"], ["2,1", "1*q^0"]]


def test_hybrid_ct_orientation(capsys):
    code, out, _ = run(
        capsys, "hybrid", "--group", "A2", "--J", "1", "--w", "1,2", "--orientation", "CT"
    )
    assert code == 0
    # 1,2 = (1)(2) with the J-part on the left: C_1 T_2 = T_12 + q T_2
    assert json.loads(out)["terms"] == [["2", "1*q^1"], ["1,2", "1*q^0"]]


def test_factorize_default_and_explicit_chain(capsys):
    code, out, _ = run(capsys, "factorize", "--group", "A2")
    assert code == 0
    obj = json.loads(out)
    assert obj["product_equals_kl"] is True
    assert obj["nonnegative"] is True
    assert len(obj["factors"]) == 2
    assert obj["chain"] == [[], [1], [1, 2]]

    code, out, _ = run(capsys, "factorize", "--group", "A2", "--chain", "@<1,2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["factors"]) == 1
    assert obj["factors"][0]["I"] == [] and obj["factors"][0]["J"] == [1, 2]


def test_factorize_bad_chain_is_usage_error(capsys):
    code, _, err = run(capsys, "factorize", "--group", "A2", "--chain", "1<1,2")
    assert code == 2
    assert "empty set" in err


def test_factorize_csv(capsys):
    code, out, _ = run(capsys, "factorize", "--group", "A2", "--format", "csv")
    assert code == 0
    assert "# factor 1: I=[] J=[1]" in out
    assert out.rstrip().endswith("nonnegative,true")
    assert "product_equals_kl,true" in out


def test_parabolic_golden_a2(capsys):
    code, out, _ = run(capsys, "parabolic", "--group", "A2", "--J", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == ["", "2", "1,2"]
    assert obj["entries"] == [
        [0, 0, {"0": 1}],
        [0, 1, {"1": 1}],
        [1, 1, {"0": 1}],
        [1, 2, {"1": 1}],
        [2, 2, {"0": 1}],
    ]


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "--group", "A2", "--suite", "involutions")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True
    assert all(r["passed"] for r in obj["results"])
    assert "note" not in obj


def test_verify_noncrystallographic_note(capsys):
    code, out, _ = run(capsys, "verify", "--group", "I2(7)", "--suite", "oracles")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True
    assert "not crystallographic" in obj["note"]


def test_verify_crystallographic_dihedral_has_no_note(capsys):
    code, out, _ = run(capsys, "verify", "--group", "I2(4)", "--suite", "oracles")
    assert code == 0
    assert "note" not in json.loads(out)


def test_byte_determinism(capsys):
    a = run(capsys, "kl", "--group", "A3")
    b = run(capsys, "kl", "--group", "A3")
    assert a == b
    c = run(capsys, "verify", "--group", "A2", "--suite", "positivity")
    d = run(capsys, "verify", "--group", "A2", "--suite", "positivity")
    assert c == d


def test_threads_do_not_change_output(capsys):
    """--threads is no longer an option: argparse rejects it as a usage error."""
    code, out, err = run(capsys, "kl", "--group", "B2", "--threads", "4")
    assert code == 2 and out == ""
    assert "error: unrecognized arguments: --threads 4" in err


def test_size_bound_names_the_cli_flag(capsys):
    code, out, err = run(capsys, "kl", "--group", "A6")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "--allow-large" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "col.json"
    code, out, _ = run(capsys, "kl", "--group", "A1", "--w", "1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["column"] == ["1*q^1", "1*q^0"]


def test_cache_dir_round_trip(tmp_path, capsys):
    cache_dir = tmp_path / "caches"
    args = ("kl", "--group", "A2", "--cache-dir", str(cache_dir))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert (cache_dir / "A2.klcache.gz").exists()
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2


def test_cache_dir_rewritten_only_when_columns_were_added(tmp_path, capsys):
    cache_dir = tmp_path / "caches"
    path = cache_dir / "A2.klcache.gz"
    column = ("kl", "--group", "A2", "--w", "1,2", "--cache-dir", str(cache_dir))
    assert run(capsys, *column)[0] == 0
    os.utime(path, ns=(10**18, 10**18))  # a stamp no rewrite can reproduce
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    # a warm run that computes nothing leaves the file alone
    assert run(capsys, *column)[0] == 0
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    # the full matrix adds columns, so the file is written again
    assert run(capsys, "kl", "--group", "A2", "--cache-dir", str(cache_dir))[0] == 0
    assert path.read_bytes() != before[0]
    assert path.stat().st_mtime_ns != before[1]


def test_cache_dir_distinguishes_groups(tmp_path, capsys):
    cache_dir = tmp_path / "caches"
    run(capsys, "kl", "--group", "A2", "--cache-dir", str(cache_dir))
    run(capsys, "kl", "--group", "B2", "--cache-dir", str(cache_dir))
    assert (cache_dir / "A2.klcache.gz").exists()
    assert (cache_dir / "B2.klcache.gz").exists()


def test_csv_quoting_in_matrix(capsys):
    code, out, _ = run(capsys, "kl", "--group", "A2", "--format", "csv")
    assert code == 0
    lines = out.split("\n")
    assert lines[0].startswith('x\\w,"",')
    assert '"1,2,1"' in lines[0]
