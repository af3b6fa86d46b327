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
from conftest import run

SRC = Path(__file__).resolve().parent.parent / "src"


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
        # json's parser raises RecursionError past its nesting limit
        (lambda data: gzip.compress(b"[" * 200000 + b"]" * 200000), "cache file is not valid JSON"),
    ],
    ids=["truncated", "not-gzip", "bad-deflate", "deeply-nested"],
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


@pytest.mark.parametrize("chain", ["", "@"], ids=["empty", "at-sign"])
def test_chain_of_only_the_empty_set_is_a_clean_error(capsys, chain):
    # an empty field is the empty set, so "" is the chain {} and not the default
    code, out, err = run(capsys, "factorize", "--group", "A2", "--chain", chain)
    assert_clean_error(code, out, err)
    assert "chain must end at the full generator set" in err


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


def test_loaded_row_above_its_column_is_a_clean_error(tmp_path, capsys):
    # row 1,2 in column 1 passes the load guard, but 1,2 comes after 1 in
    # canonical order: the back-substitution refuses the column; factorize
    # solves over W_{1} too, where the row has no place in the block
    cache_dir, path = _filled_cache_file(tmp_path, capsys)
    restrict = ["restrict", "--group", "A2", "--J", "1,2", "--u", "e", "--w", "1", "--cache-dir", str(cache_dir)]
    factorize = ["factorize", "--group", "A2", "--cache-dir", str(cache_dir)]
    code, out, err = run(capsys, *restrict)
    assert (code, err) == (0, "") and json.loads(out)["coeffs"] == [["1", "1*q^0"]]
    assert run(capsys, *factorize)[::2] == (0, "")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["columns"]["1"]["1,2"] = {"1": 1}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(obj, fh)
    for args in (restrict, factorize):
        code, out, err = run(capsys, *args)
        assert_clean_error(code, out, err)
        assert err == "error: KL column 1: a loaded column has an entry outside the Bruhat interval\n"


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
        lambda obj: _with(obj, ["columns", "1", ""], {"30000": 1}),  # above l(w0) = 3: not packed
        # column 1 renamed to 2,2,1 and its rows e and 1 to 2,2 and 1,1,1: words of the same elements
        lambda obj: _with(
            obj, ["columns", "2,2,1"], {"2,2": obj["columns"]["1"][""], "1,1,1": obj["columns"].pop("1")["1"]}
        ),
        # exponent keys and string coefficients only as str() writes them: "+1" and "1" name one exponent
        lambda obj: _with(obj, ["columns", "1", ""], {"1": 1, "+1": 5}),
        lambda obj: _with(obj, ["columns", "1", ""], {"01": 1}),
        lambda obj: _with(obj, ["columns", "1", ""], {"1": " 5"}),
    ],
    ids=[
        "list-entry", "list-column", "list-top-level", "no-columns", "columns-list",
        "float-coefficient", "fractional-coefficient", "bool-coefficient", "list-coefficient",
        "null-coefficient", "bool-format", "float-format", "huge-exponent", "non-canonical-word",
        "plus-exponent", "zero-padded-exponent", "spaced-coefficient",
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


def _column_twice(text):
    """text with column 1 written a second time, as the first member of "columns"."""
    member = json.dumps({"1": json.loads(text)["columns"]["1"]})[1:-1]
    return text.replace('"columns": {', '"columns": {' + member + ", ", 1)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_column_twice, "cache column '1' appears twice"),
        # load checks format and group when it reaches "columns"; save writes them first
        (lambda text: '{"columns": %s, "format": 1, "group": "A2"}' % json.dumps(json.loads(text)["columns"]),
         "unsupported cache format None"),
        (lambda text: text + " {}", "Extra data"),
        (lambda text: text[:-1] + ', "columns": {}}', "cache file has two columns members"),
        # a key that is no word of A2: the error names the cache word, not a generator
        (lambda text: text.replace('"1": {"": ', '"9": {"": ', 1), "cache word '9'"),
        (lambda text: text.replace('"1": {"0": 1}', '"9": {"0": 1}', 1), "cache word '9'"),
    ],
    ids=["repeated-column", "columns-first", "text-after-the-object", "second-columns", "bad-column-word", "bad-row-word"],
)
def test_malformed_cache_text_is_a_clean_error(tmp_path, capsys, edit, message):
    # edits that the decoded object cannot show: member order, repeated keys, trailing text
    cache_dir, path = _filled_cache_file(tmp_path, capsys)
    path.write_bytes(gzip.compress(edit(gzip.decompress(path.read_bytes()).decode()).encode()))
    code, out, err = run(capsys, "kl", "--group", "A2", "--cache-dir", str(cache_dir))
    assert_clean_error(code, out, err)
    assert message in err


@pytest.mark.parametrize("layout", [{"indent": 2}, {"separators": (",", ":")}], ids=["indent-2", "compact"])
def test_a_cache_file_laid_out_otherwise_is_loaded(tmp_path, capsys, layout):
    cache_dir = tmp_path / "caches"
    assert run(capsys, "kl", "--group", "A3", "--cache-dir", str(cache_dir))[0] == 0
    path = cache_dir / "A3.klcache.gz"
    saved = run(capsys, "kl", "--group", "A3", "--cache-dir", str(cache_dir))
    path.write_bytes(gzip.compress(json.dumps(json.loads(gzip.decompress(path.read_bytes())), **layout).encode()))
    relaid = path.read_bytes()
    cache = KLCache.load(path, coxeter_system("A3"))
    cache.fill()
    assert cache.computed == 0  # every column came from the file
    assert run(capsys, "kl", "--group", "A3", "--cache-dir", str(cache_dir)) == saved
    assert saved[0] == 0 and path.read_bytes() == relaid  # a warm run leaves the file as it was


def test_a_cache_file_without_columns_loads_as_an_empty_cache(tmp_path):
    path = tmp_path / "A2.klcache.gz"
    path.write_bytes(gzip.compress(b'{"format": 1, "group": "A2", "columns": {}}'))
    cache = KLCache.load(path, coxeter_system("A2"))
    cache.fill()
    assert cache.computed == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["kl", "--group", "A2", "--w", "٢,1"],  # int() reads the Arabic-Indic digit as 2
        ["kl", "--group", "A2", "--w", "+1"],
        ["restrict", "--group", "A2", "--J", "2", "--u", "+1", "--w", "1"],  # u = 1 is minimal for J = {2}
        ["factorize", "--group", "A2", "--chain", "@<٢"],
        ["kl", "--group", "A٣"],
        ["kl", "--group", "I2(٧)"],
        ["verify", "--group", "A2", "--suite", "nope"],
        ["kl", "--group", "A2", "--format", "xml"],
        ["kl"],
        [],
    ],
    ids=[
        "non-ascii-word", "plus-word", "plus-u", "non-ascii-chain", "non-ascii-rank", "non-ascii-dihedral",
        "unknown-suite", "unknown-format", "missing-group", "no-arguments",
    ],
)
def test_bad_input_is_a_clean_error(capsys, argv):
    assert_clean_error(*run(capsys, *argv))


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
    proc = subprocess.run([sys.executable, "-m", "heckekl", "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: heckekl") and proc.stderr == ""
