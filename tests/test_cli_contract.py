"""Exit code 2 with one line and no traceback on I/O and cache errors; atomic
cache writes; ``python -m heckekl``."""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckekl import KLCache, coxeter_system
from heckekl import cli, klbasis
from heckekl.cli import main
from heckekl.laurent import ExactnessError

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def assert_clean_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _overwrite(data, pos):
    """data with 8 bytes from pos on set to 0xff.  At the start of the deflate
    stream (after the NUL that ends the file name) that is a reserved block type."""
    return data[:pos] + b"\xff" * 8 + data[pos + 8 :]


def _filled_cache_file(tmp_path, capsys):
    cache_dir = tmp_path / "caches"
    assert run(capsys, "kl", "--group", "A2", "--cache-dir", str(cache_dir))[0] == 0
    return cache_dir, cache_dir / "A2.klcache.gz"


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda data: data[: len(data) // 2], "ended before the end-of-stream"),  # EOFError
        (lambda data: b"not a gzip file", "Not a gzipped file"),  # gzip.BadGzipFile, an OSError
        (lambda data: _overwrite(data, data.index(b"\0", 10) + 1), "invalid block type"),  # zlib.error
    ],
    ids=["truncated", "not-gzip", "bad-deflate"],
)
def test_unreadable_cache_file_is_a_clean_error(tmp_path, capsys, damage, message):
    cache_dir, path = _filled_cache_file(tmp_path, capsys)
    path.write_bytes(damage(path.read_bytes()))
    code, out, err = run(capsys, "kl", "--group", "A2", "--cache-dir", str(cache_dir))
    assert_clean_error(code, out, err)
    assert message in err


def test_output_into_a_missing_directory_is_a_clean_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "kl", "--group", "A1", "--output", str(target))
    assert_clean_error(code, out, err)
    assert "No such file or directory" in err


def test_damaged_loaded_column_is_a_clean_error(tmp_path, capsys):
    # a parseable A2 cache without C_{121}, whose column of C_{12} is damaged:
    # computing C_{121} = C_{12} C_1 - C_1 trips the KL guard
    s = coxeter_system("A2")
    cache = KLCache(s)
    cache.kl_column(s.element_from_word([1, 2]))
    cache_dir = tmp_path / "caches"
    cache_dir.mkdir()
    path = cache_dir / "A2.klcache.gz"
    cache.save(path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["columns"]["1,2"]["1"] = {"0": 1, "1": 1}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(obj, fh)
    code, out, err = run(capsys, "kl", "--group", "A2", "--cache-dir", str(cache_dir))
    assert_clean_error(code, out, err)
    assert "KL column 1,2" in err


def _with(obj, keys, value):
    """obj with obj[keys[0]]...[keys[-1]] set to value."""
    *outer, last = keys
    target = obj
    for k in outer:
        target = target[k]
    target[last] = value
    return obj


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: _with(obj, ["columns", "1", "1"], [1]),
        lambda obj: _with(obj, ["columns", "1"], [{"0": 1}]),
        lambda obj: [obj],
        lambda obj: {k: v for k, v in obj.items() if k != "columns"},
        lambda obj: _with(obj, ["columns"], [obj["columns"]]),
        lambda obj: _with(obj, ["columns", "1", ""], {"1": 1.0}),  # int() would truncate a float
        lambda obj: _with(obj, ["columns", "1", ""], {"1": 1.5}),
        lambda obj: _with(obj, ["columns", "1", ""], {"1": True}),
        lambda obj: _with(obj, ["columns", "1", ""], {"1": [1]}),
        lambda obj: _with(obj, ["columns", "1", ""], {"1": None}),
        lambda obj: _with(obj, ["format"], True),
        lambda obj: _with(obj, ["format"], 1.0),
    ],
    ids=[
        "list-entry", "list-column", "list-top-level", "no-columns", "columns-list",
        "float-coefficient", "fractional-coefficient", "bool-coefficient", "list-coefficient",
        "null-coefficient", "bool-format", "float-format",
    ],
)
def test_malformed_cache_file_is_a_clean_error(tmp_path, capsys, edit):
    cache_dir, path = _filled_cache_file(tmp_path, capsys)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        obj = json.load(fh)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(edit(obj), fh)
    code, out, err = run(capsys, "kl", "--group", "A2", "--cache-dir", str(cache_dir))
    assert_clean_error(code, out, err)


def test_exactness_error_without_a_message_names_its_type(capsys, monkeypatch):
    def fail(args):
        raise ExactnessError()

    monkeypatch.setattr(cli, "cmd_verify", fail)
    code, out, err = run(capsys, "verify", "--group", "A1")
    assert_clean_error(code, out, err)
    assert err == "error: ExactnessError\n"


def test_other_runtime_errors_are_not_swallowed(monkeypatch):
    def fail(args):
        raise RecursionError("an internal bug")

    monkeypatch.setattr(cli, "cmd_verify", fail)
    with pytest.raises(RecursionError):
        main(["verify", "--group", "A1"])


def test_failed_save_leaves_the_previous_file(tmp_path, monkeypatch):
    s = coxeter_system("A2")
    cache = KLCache(s)
    cache.kl_column(s.generator(1))
    path = tmp_path / "A2.klcache.gz"
    cache.save(path)
    before = path.read_bytes()

    def fail_midway(obj, fh):
        fh.write('{"format": 1, "columns": {')
        raise OSError("disk full")

    cache.fill()
    monkeypatch.setattr(klbasis.json, "dump", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        cache.save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "heckekl", "verify", "--group", "A2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, "verify", "--group", "A2")
    assert code == 0 and proc.stdout == out
