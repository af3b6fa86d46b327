"""One store per KL column: save writes the packed columns, byte for byte as
before, and every stored column is a view of its packed dict."""

import gzip
import hashlib
import json

import pytest

from heckekl import KLCache, coxeter_system
from heckekl.klbasis import _Column
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
