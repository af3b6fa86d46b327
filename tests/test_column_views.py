"""One packed, interned form per KL column: kl_column hands out read-only
views of it, loaded columns are views of the packed dicts load built, and a
damaged cache file gives a clean error or the undamaged output."""

import contextlib
import gzip
import io
import json
import tempfile
import time
from collections.abc import Mapping
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from heckekl import KLCache, coxeter_system
from heckekl.cli import main
from heckekl.laurent import ONE, ZERO
from conftest import get_cache


def _packed_entries(cache):
    for w in cache.system.elements():
        yield from cache.kl_column(w)._packed.values()


@pytest.mark.parametrize("group", ["B3", "A4"])
def test_equal_packed_entries_are_one_int(group):
    cache = get_cache(group)
    cache.fill()
    seen = {}
    for h in _packed_entries(cache):
        assert seen.setdefault(h, h) is h
    assert len(seen) < sum(map(len, cache._columns.values())) / 10


def test_loaded_and_computed_columns_share_one_intern_table(tmp_path):
    s = coxeter_system("B3")
    low = KLCache(s)
    for w in s.elements()[:20]:
        low.kl_column(w)
    path = tmp_path / "low.klcache.gz"
    low.save(path)
    loaded = KLCache.load(path, s)
    loaded.fill()
    assert loaded.computed == s.order - len(low._columns)
    seen = {}
    for h in _packed_entries(loaded):
        assert seen.setdefault(h, h) is h


def test_kl_column_is_a_read_only_mapping():
    cache = get_cache("A3")
    s = cache.system
    for w in s.elements():
        col = cache.kl_column(w)
        assert isinstance(col, Mapping) and not hasattr(col, "__setitem__")
        plain = dict(col.items())
        assert col == plain and plain == col
        assert not (col != plain or plain != col)
        assert len(col) == len(plain) and list(col) == list(plain)
        assert all(col[x] is p and x in col for x, p in plain.items())
        assert list(col.values()) == list(plain.values())
    s1, s2 = s.generator(1), s.generator(2)
    col = cache.kl_column(s1)  # s2 is not below s1
    assert col.get(s2, ZERO) is ZERO and col.get(s2) is None and s2 not in col
    assert col.get("not an element", ZERO) is ZERO
    assert col != {**dict(col.items()), s2: ONE} and {**dict(col.items()), s2: ONE} != col
    with pytest.raises(KeyError):
        col[s2]
    with pytest.raises(TypeError):
        col[s2] = ONE


def test_loaded_columns_are_views_of_the_packed_columns(tmp_path):
    s = coxeter_system("B3")
    path = tmp_path / "b3.klcache.gz"
    get_cache("B3").save(path)
    loaded = KLCache.load(path, s)
    for w in s.elements():
        col = loaded._columns[w]
        assert not isinstance(col, dict)  # no element-keyed copy
        assert loaded.kl_column(w) is col
        assert col._packed is loaded.kl_element(w)._packed
        assert col == get_cache("B3").kl_column(w)
    assert loaded.computed == 0
    assert all(loaded._values[loaded._ids.get(h)] is h for h in _packed_entries(loaded))


def test_kl_on_an_edited_diagonal_is_a_clean_error(tmp_path, capsys):
    # an edited and re-gzipped payload passes gzip's checks; load runs the KL
    # guard on each column and kl raises its error when it reads the column
    cache_dir = tmp_path / "caches"
    assert main(["kl", "--group", "A2", "--cache-dir", str(cache_dir)]) == 0
    path = cache_dir / "A2.klcache.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["columns"]["1,2"]["1,2"] = {"0": 2}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(obj, fh)
    capsys.readouterr()
    for extra in ([], ["--w", "1,2"], ["--format", "csv"]):
        assert main(["kl", "--group", "A2", "--cache-dir", str(cache_dir), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: KL column 1,2: the diagonal entry is not 1\n"


# ---------------------------------------------------------------------------
# damaged cache files
# ---------------------------------------------------------------------------


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _kl_a3(cache_dir) -> tuple[int, str, str]:
    return _run("kl", "--group", "A3", "--cache-dir", str(cache_dir))


@cache
def _saved_a3() -> tuple[bytes, str]:
    """A saved A3 cache file and the kl output read from it."""
    with tempfile.TemporaryDirectory() as d:
        assert _kl_a3(d)[0] == 0  # cold: computes and saves
        code, out, _ = _kl_a3(d)  # warm: reads the file
        assert code == 0
        return (Path(d) / "A3.klcache.gz").read_bytes(), out


@st.composite
def damaged(draw):
    data = _saved_a3()[0]
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    bit = draw(st.integers(0, 8 * len(data) - 1))
    return data[: bit // 8] + bytes([data[bit // 8] ^ 1 << bit % 8]) + data[bit // 8 + 1 :]


@settings(database=None, deadline=None, derandomize=True, max_examples=150)
@given(damaged())
def test_damaged_cache_file_is_an_error_or_the_same_output(data):
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "A3.klcache.gz").write_bytes(data)
        code, out, err = _kl_a3(d)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert (code, out, err) == (0, _saved_a3()[1], "")


# one edit of the decoded A3 file: the edited place holds _HOLE, which the
# edit's JSON text then replaces, so that it may nest deeper than json.dumps goes
_HOLE = "\0hole"
_words = st.sampled_from(["", "1", "2,1", "1,2,3", "3,2,1,2", "4", "1,1", "x", "1,,2", " 1"])
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_separators = st.sampled_from([(", ", ": "), (",", ":"), (" ,\n", "\t:\r ")])
_exponents = st.integers(-2, 8) | st.integers(40000, 70000)  # l(w0) = 6; unbounded, 60000 took seconds


@st.composite
def edited(draw):
    obj = json.loads(gzip.decompress(_saved_a3()[0]))
    columns = obj["columns"]
    cw = draw(st.sampled_from(sorted(columns)))
    col = columns[cw]
    x = draw(st.sampled_from(sorted(col)))
    kind = draw(st.sampled_from(["value", "coefficient", "exponent", "entry key", "column key", "nesting", "layout"]))
    text = json.dumps(draw(_json))
    if kind == "value":
        col[x] = _HOLE
    elif kind == "coefficient":
        col[x] = {**col[x], draw(st.sampled_from(sorted(col[x]))): _HOLE}
    elif kind == "exponent":
        col[x] = {**col[x], str(draw(_exponents)): _HOLE}
        text = json.dumps(draw(st.integers(0, 9) | st.just("1")))
    elif kind == "entry key":
        col[draw(_words)] = col.pop(x)
    elif kind == "column key":
        columns[draw(_words)] = columns.pop(cw)
    elif kind == "layout":  # the same members laid out otherwise, or column cw written twice
        if draw(st.booleans()):
            return json.dumps(obj, indent=draw(st.none() | st.integers(0, 3)), separators=draw(_separators))
        member = json.dumps({cw: col})[1:-1]
        return json.dumps(obj).replace('"columns": {', '"columns": {' + member + ", ", 1)
    else:  # wrap an entry, a column or the whole file in lists
        depth = draw(st.integers(1, 3000))
        where = draw(st.sampled_from(["entry", "column", "file"]))
        inner = json.dumps(col[x] if where == "entry" else col if where == "column" else obj)
        text = "[" * depth + inner + "]" * depth
        if where == "entry":
            col[x] = _HOLE
        elif where == "column":
            columns[cw] = _HOLE
        else:
            obj = _HOLE
    return json.dumps(obj).replace(json.dumps(_HOLE), text)


@settings(database=None, deadline=None, derandomize=True, max_examples=70)
@given(edited())
def test_edited_cache_file_is_an_error_or_an_output(text):
    # an edit may also give a file the guard cannot tell from a true one
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "A3.klcache.gz").write_bytes(gzip.compress(text.encode()))
        start = time.perf_counter()
        code, out, err = _kl_a3(d)
        assert time.perf_counter() - start < 2.0
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0 and err == "" and out


# every subcommand on a damaged or edited file: fixed valid arguments at A3
# (and at A2, for the example), which read the loaded columns as each
# subcommand does: kl directly, the others through the back-substitution, a
# relabel or a Hecke product
_COMMANDS = [
    ["kl"],
    ["kl", "--w", "1,2,1"],
    ["restrict", "--J", "1,2", "--u", "e", "--w", "1"],
    ["hybrid", "--J", "1", "--w", "2,1"],
    ["hybrid", "--J", "1", "--w", "2,1", "--orientation", "CT"],
    ["factorize"],
    ["parabolic", "--J", "1"],
    ["verify", "--suite", "positivity"],
]


def _a2_row_above_its_column() -> bytes:
    """A filled A2 file with the row 1,2 added to column 1: factorize ended in
    a KeyError traceback on it, and restrict printed negative coefficients."""
    s = coxeter_system("A2")
    cache = KLCache(s)
    cache.fill()
    with tempfile.TemporaryDirectory() as d:
        cache.save(Path(d) / "A2.klcache.gz")
        obj = json.loads(gzip.decompress((Path(d) / "A2.klcache.gz").read_bytes()))
    obj["columns"]["1"]["1,2"] = {"1": 1}
    return gzip.compress(json.dumps(obj).encode())


_A2_ROW_ABOVE = ("A2", _a2_row_above_its_column())


@settings(database=None, deadline=None, derandomize=True, max_examples=150)
@given(
    st.tuples(st.just("A3"), damaged() | edited().map(lambda text: gzip.compress(text.encode()))),
    st.sampled_from(_COMMANDS),
)
@example(_A2_ROW_ABOVE, ["factorize"])
@example(_A2_ROW_ABOVE, ["restrict", "--J", "1,2", "--u", "e", "--w", "1"])
def test_every_subcommand_on_a_damaged_or_edited_file_keeps_the_exit_contract(file, command):
    group, data = file
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / f"{group}.klcache.gz").write_bytes(data)
        code, out, err = _run(command[0], "--group", group, *command[1:], "--cache-dir", d)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    elif code == 1:
        assert command[0] in ("verify", "factorize") and err == "" and out
    else:
        assert code == 0 and err == "" and out
