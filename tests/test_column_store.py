"""One store per KL column: save writes the packed columns, byte for byte as
before, every stored column is a view, and a KL column is two arrays (rows
and value ids) until a reader needs random access."""

import gzip
import hashlib
import json
import tracemalloc
from functools import reduce

import pytest

from heckekl import KLCache, coxeter_system, factorize_chain, kl_matrix, matmul
from heckekl import klbasis
from heckekl.klbasis import _code, _Column
from heckekl.laurent import ExactnessError

# sha256 of the decompressed save output
SAVED = [
    ("A3", None, "e6835af4226c774ccdae4471b3509f5dec78af5432b37dcac4c38246fd3efaab"),
    ("B3", None, "8d62ebb01d817e07059d6203bf2b19c7f49f482ac0278ca10c811cb20f14b4ae"),
    ("I2(7)", None, "5c5ed9fd50699087199055b4430b116791268d27ff3024f677aa7a22521fd9c6"),
    ("B3", 10, "bfc8004b327aa9bf0a30f32544c121ce37c25b06e69041c501ab230f87324921"),
]


def _saved_bytes(cache, path) -> bytes:
    cache.save(path)
    with gzip.open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("group, columns, digest", SAVED)
def test_save_output_is_pinned(tmp_path, group, columns, digest):
    # columns: None for a full cache, else the first that many columns
    s = coxeter_system(group)
    cache = KLCache(s)
    for w in s.elements()[:columns]:
        cache.kl_column(w)
    assert hashlib.sha256(_saved_bytes(cache, tmp_path / "c.klcache.gz")).hexdigest() == digest


def _damaged_a2_file(tmp_path):
    """An A2 cache file whose column 1 holds h_{e,1} = q^-1, which does not pack."""
    s = coxeter_system("A2")
    cache = KLCache(s)
    cache.kl_column(s.generator(1))
    path = tmp_path / "a2.klcache.gz"
    cache.save(path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["columns"]["1"][""] = {"-1": 1}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def test_every_stored_column_is_a_view_of_its_packed_dict(tmp_path):
    s = coxeter_system("B3")
    full = KLCache(s)
    full.fill()
    path = tmp_path / "b3.klcache.gz"
    full.save(path)
    damaged = KLCache.load(_damaged_a2_file(tmp_path), coxeter_system("A2"))
    for cache in (full, KLCache.load(path, s), damaged):
        assert cache._columns and all(type(col) is _Column for col in cache._columns.values())


def test_load_peak_stays_near_the_text_of_the_file(tmp_path):
    # load decodes one column at a time, so it never holds the whole decoded
    # file: its peak is the text (read as bytes, then as str) and the columns
    s = coxeter_system("B4")
    cache = KLCache(s)
    cache.fill()
    path = tmp_path / "b4.klcache.gz"
    size = len(_saved_bytes(cache, path))
    tracemalloc.start()
    try:
        KLCache.load(path, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size


def test_a_column_that_did_not_pack_is_not_written_back(tmp_path):
    s = coxeter_system("A2")
    loaded = KLCache.load(_damaged_a2_file(tmp_path), s)
    with pytest.raises(ExactnessError, match=r"KL column 1: .*not in Z\[q\]"):
        loaded.kl_column(s.generator(1))
    loaded.kl_column(s.element_from_word([2, 1]))  # reads columns e and 2 only
    path = tmp_path / "resaved.klcache.gz"
    loaded.save(path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        assert sorted(json.load(fh)["columns"]) == ["", "2", "2,1"]
    reloaded = KLCache.load(path, s)
    assert reloaded.kl_column(s.generator(1)) == KLCache(s).kl_column(s.generator(1))
    assert reloaded.computed == 1


def _holds_a_dict(col) -> bool:
    """Whether a slot of the view other than the system's element -> index table holds a dict."""
    return any(isinstance(getattr(col, name), dict) for name in _Column.__slots__ if name != "_index")


@pytest.mark.parametrize("group", ["B3", "D4"])
def test_filled_columns_hold_no_dict(group):
    s = coxeter_system(group)
    cache = KLCache(s)
    cache.fill()
    m = kl_matrix(cache)
    assert len(cache._columns) == s.order
    assert all(m.columns[w] is col for w, col in cache._columns.items())
    assert not any(map(_holds_a_dict, cache._columns.values()))


def test_factorize_and_compare_leave_no_dict():
    s = coxeter_system("B3")
    cache, other = KLCache(s), KLCache(s)
    product, kl = reduce(matmul, factorize_chain(cache)), kl_matrix(cache)
    assert product.same_entries(kl) and kl.same_entries(product) and kl.same_entries(kl_matrix(other))
    assert not any(map(_holds_a_dict, [*cache._columns.values(), *other._columns.values()]))


def test_kl_elements_share_one_packed_dict():
    s = coxeter_system("D4")
    cache = KLCache(s)
    for w in (s.identity, s.generator(3), s.longest_element()):
        first, second = cache.kl_element(w), cache.kl_element(w)
        assert first._packed is second._packed is cache.kl_column(w)._packed
        assert first.terms is second.terms is cache.kl_column(w)


@pytest.mark.parametrize("group", ["A4", "B3", "D4"])
def test_relabeled_columns_share_their_partners_ids(group):
    s = coxeter_system(group)
    cache = KLCache(s)
    cache.fill()
    els, index = s.elements(), s._index
    assert s.index_symmetries
    for g in s.index_symmetries:
        for k, w in enumerate(els):
            col, partner = cache.kl_column(w), cache.kl_column(els[g[k]])
            # one orbit, one pair of arrays: a relabeled column copies neither
            assert col._rows is partner._rows and col._ids is partner._ids
            assert sorted(map(index.__getitem__, col)) == sorted(g[index[x]] for x in partner)


def test_array_code_is_L_above_2_16():
    assert _code(1 << 16) == "H" and _code((1 << 16) + 1) == "L"


def test_a_fill_in_L_arrays_gives_the_same_columns_and_save(tmp_path, monkeypatch):
    # no desk-scale group has more than 2^16 elements or distinct entries, so force "L"
    s = coxeter_system("D4")
    narrow = KLCache(s)
    narrow.fill()
    monkeypatch.setattr(klbasis, "_code", lambda n: "L")
    wide = KLCache(s)
    wide.fill()
    assert {(c._rows.typecode, c._ids.typecode) for c in wide._columns.values()} == {("L", "L")}
    assert all(wide.kl_column(w) == narrow.kl_column(w) for w in s.elements())
    assert _saved_bytes(wide, tmp_path / "wide.klcache.gz") == _saved_bytes(narrow, tmp_path / "narrow.klcache.gz")
