"""Tests of the benchmark itself (not part of the heckekl test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import CHECKS, Tracer, per_layer_metrics, per_layer_units, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- metric-name schema -------------------------------------------------------


def test_benchmark_json_names_match_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()


def test_metric_names_units_and_bounds_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]


def test_check_names_match_the_verify_suite():
    sys.path.insert(0, str(run.SRC))
    from heckekl import KLCache, coxeter_system, run_suite

    got = [r.name for r in run_suite(KLCache(coxeter_system("A2")), "all")]
    assert tuple(got) == CHECKS


def test_per_layer_metrics_cover_every_name_with_no_spans():
    got = per_layer_metrics([], {})
    assert set(got) == set(per_layer_units()) - {"trace.overhead_ratio"}
    assert all(v == 0 for v in got.values())


# -- failed ops -------------------------------------------------------------------


class FakeCli(run.Workload):
    """A CLI-like op whose stdout and exit code the test chooses."""

    name = "fake"

    def __init__(self, run_dir, text, code):
        super().__init__(1, run_dir, {})
        self.text, self.code = text, code

    def argv(self, op_id, traced):
        script = f"import sys; sys.stdout.write({self.text!r}); sys.exit({self.code})"
        return [run.PY, "-c", script]

    def check(self, proc, op_id, deadline):
        digest = run.hashlib.sha256(b'{"all_passed": true}\n').hexdigest()
        return run.check_cli_output(proc, digest, ("all_passed",))


@pytest.mark.parametrize(
    "text, code, reason",
    [
        ('{"all_passed": true}\n', 0, None),
        ('{"all_passed": true}\n', 1, "exit code 1"),
        ('{"all_passed": false}\n', 0, "sha256"),
        ('{"all_passed": true}', 0, "sha256"),
    ],
)
def test_wrong_digest_or_nonzero_exit_fails_the_op(tmp_path, text, code, reason):
    op = run.run_op(FakeCli(tmp_path, text, code), 0, False, time.monotonic() + 60)
    if reason is None:
        assert op.failure is None
    else:
        assert reason in op.failure
    assert op.wall_s > 0 and op.maxrss_kb > 0


def test_false_flag_fails_even_with_matching_digest(tmp_path):
    out = tmp_path / "out"
    out.write_text('{"product_equals_kl": true, "nonnegative": false}\n')
    proc = run.Proc(0, 0.0, 1.0, 1.0, 1, out, tmp_path / "err")
    digest = run.sha256_file(out)
    assert "nonnegative" in run.check_cli_output(proc, digest, ("product_equals_kl", "nonnegative"))


def test_child_past_its_deadline_is_killed(tmp_path):
    proc = run.spawn([run.PY, "-c", "import time; time.sleep(30)"], tmp_path / "o", tmp_path / "e",
                     time.monotonic() + 0.5)
    assert proc.code != 0 and proc.wall_s < 10


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify_d4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0 and res.stdout == ""


# -- spans and self time ---------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["op", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: [1, 6] is covered once
        ["c", 2.0, 3.0, 1],
        ["d", 9.0, 12.0, 0],  # overhangs op: only [9, 10] is covered
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_layer_time_sums_self_times_and_checks_use_whole_spans():
    spans = [
        ["op", 0.0, 10.0, None],
        ["verification.bar_multiplicative", 0.0, 8.0, 0],
        ["klbasis.fill", 0.0, 3.0, 1],
        ["klbasis.kl_column", 1.0, 3.0, 2],
        ["hecke.mul", 4.0, 7.0, 1],
        ["klbasis.kl_column", 8.0, 9.0, 0],
    ]
    got = per_layer_metrics(spans, {"hecke.mul_calls": 5})
    assert got["klbasis.fill_s"] == pytest.approx(1 + 2 + 1)
    assert got["hecke.mul_s"] == pytest.approx(3)
    assert got["hecke.mul_calls"] == 5
    assert got["verification.bar_multiplicative_s"] == pytest.approx(8)
    assert got["trace.root_self_s"] == pytest.approx(1)


def test_tracer_spans_only_the_outermost_call_of_a_name():
    t = Tracer()
    root = t.enter("op")
    outer = t.enter("klbasis.kl_column")
    inner = t.enter("klbasis.kl_column")
    mul = t.enter("hecke.mul")
    t.exit("hecke.mul", mul)
    t.exit("klbasis.kl_column", inner)
    t.exit("klbasis.kl_column", outer)
    t.exit("op", root)
    assert inner is None
    assert [(s[0], s[3]) for s in t.spans] == [("op", None), ("klbasis.kl_column", 0), ("hecke.mul", 1)]
    assert all(s[2] >= s[1] for s in t.spans)


def test_chain_is_a_seeded_singleton_step_chain():
    key, chain = run.chain_for_seed(7)
    assert sorted(key) == list("12345") and run.chain_for_seed(7) == (key, chain)
    steps = chain.split("<")
    assert steps[0] == "@" and steps[-1] == ",".join(key)
    assert [len(s.split(",")) for s in steps[1:]] == [1, 2, 3, 4, 5]
