import gzip
import json

import pytest

from heckekl import (
    KLCache,
    KLOracle,
    LaurentPoly,
    ONE,
    Q,
    UnsupportedGroupError,
    ZERO,
    bruhat_interval_element,
    coxeter_system,
    is_rationally_smooth,
    kl_matrix,
    t_basis,
    unit,
)
from conftest import get_cache
from test_column_store import _saved_bytes


def test_kl_for_generators():
    for group in ("A3", "B3", "I2(6)"):
        cache = get_cache(group)
        s = cache.system
        for i in s.generators:
            si = s.generator(i)
            assert cache.kl_element(si) == t_basis(s, si) + unit(s).scale(Q)


def test_kl_identity_column():
    cache = get_cache("A2")
    assert cache.kl_element(cache.system.identity) == unit(cache.system)


def test_a2_longest_column():
    cache = get_cache("A2")
    s = cache.system
    col = cache.kl_column(s.longest_element())
    assert len(col) == 6
    for x, p in col.items():
        assert p == LaurentPoly.q_power(3 - s.length(x))


def test_dihedral_columns_are_pure_powers():
    # in a dihedral group every entry is q^(l(w) - l(x)) on the interval
    for m in (5, 6):
        cache = get_cache(f"I2({m})")
        s = cache.system
        for w in s.elements():
            col = cache.kl_column(w)
            assert set(col) == set(s.bruhat_interval(w))
            for x, p in col.items():
                assert p == LaurentPoly.q_power(s.length(w) - s.length(x))


def test_frozen_type_a_values():
    cache = get_cache("A3")
    s = cache.system
    w3412 = next(w for w in s.elements() if w == (3, 4, 1, 2))
    w4231 = next(w for w in s.elements() if w == (4, 2, 3, 1))
    assert cache.kl_poly(s.identity, w3412) == LaurentPoly({2: 1, 4: 1})
    assert cache.kl_poly(s.identity, w4231) == LaurentPoly({3: 1, 5: 1})
    assert cache.kl_poly(s.identity, s.longest_element()) == LaurentPoly.q_power(6)


def test_columns_unitriangular_positive_in_degree_window():
    for group in ("A3", "B3"):
        cache = get_cache(group)
        s = cache.system
        for w in s.elements():
            col = cache.kl_column(w)
            assert col[w] == ONE
            for x, p in col.items():
                assert s.bruhat_leq(x, w)
                if x != w:
                    assert p.has_nonneg_coeffs()
                    assert p.min_exp() >= 1
                    assert p.max_exp() <= s.length(w) - s.length(x)


def test_kl_elements_self_dual():
    for group in ("A3", "I2(7)"):
        cache = get_cache(group)
        for w in cache.system.elements():
            cw = cache.kl_element(w)
            assert cw.bar() == cw


def test_psi_sends_kl_to_inverse():
    cache = get_cache("A3")
    s = cache.system
    for w in s.elements():
        assert cache.kl_element(w).psi() == cache.kl_element(s.inverse(w))


def test_kl_poly_zero_off_interval():
    cache = get_cache("A3")
    s = cache.system
    for w in s.elements():
        for x in s.elements():
            if not s.bruhat_leq(x, w):
                assert cache.kl_poly(x, w) == ZERO


def test_mu_values():
    cache = get_cache("A2")
    s = cache.system
    w0 = s.longest_element()
    assert cache.mu(s.identity, s.generator(1)) == 1
    assert cache.mu(s.identity, w0) == 0
    assert cache.mu(s.generator(1), w0) == 0
    assert cache.mu(s.element_from_word([1, 2]), w0) == 1


def test_oracle_agrees_exhaustively():
    for group in ("A3", "I2(8)", "B2"):
        cache = get_cache(group)
        s = cache.system
        oracle = KLOracle(s)
        for y in s.elements():
            for x in s.elements():
                assert cache.kl_poly(y, x) == oracle.kl_poly(y, x)
                assert cache.mu(y, x) == oracle.mu(y, x)


def test_oracle_does_not_touch_cache():
    s = coxeter_system("A2")
    cache = KLCache(s)
    oracle = KLOracle(s)
    w0 = s.longest_element()
    oracle.kl_poly(s.identity, w0)
    assert not cache._columns
    cache.kl_column(w0)
    assert w0 in cache._columns


def test_interval_element():
    cache = get_cache("A3")
    s = cache.system
    assert bruhat_interval_element(s, s.identity) == unit(s)
    for i in s.generators:
        si = s.generator(i)
        assert bruhat_interval_element(s, si) == cache.kl_element(si)
    w0 = s.longest_element()
    r = bruhat_interval_element(s, w0)
    assert r == cache.kl_element(w0)
    assert all(r.coeff(x) == LaurentPoly.q_power(6 - s.length(x)) for x in s.elements())


def test_interval_element_matches_kl_on_dihedral():
    for m in (5, 6):
        cache = get_cache(f"I2({m})")
        s = cache.system
        for w in s.elements():
            assert cache.kl_element(w) == bruhat_interval_element(s, w)


def test_smoothness_classification_s4():
    cache = get_cache("A3")
    s = cache.system
    smooth = {w for w in s.elements() if is_rationally_smooth(s, w)}
    by_interval = {w for w in s.elements() if cache.kl_element(w) == bruhat_interval_element(s, w)}
    assert smooth == by_interval
    assert len(smooth) == 22
    assert set(s.elements()) - smooth == {(3, 4, 1, 2), (4, 2, 3, 1)}


def test_smoothness_only_for_type_a():
    s = coxeter_system("B2")
    with pytest.raises(UnsupportedGroupError):
        is_rationally_smooth(s, s.identity)


def test_fill_and_threads():
    s = coxeter_system("A2")
    seq = KLCache(s)
    seq.fill()
    par = KLCache(s)
    par.fill()
    for w in s.elements():
        assert seq.kl_column(w) == par.kl_column(w)
    assert len(seq._columns) == s.order


def test_cache_save_load_round_trip(tmp_path):
    s = coxeter_system("I2(5)")
    cache = KLCache(s)
    cache.fill()
    path = tmp_path / "i25.klcache.gz"
    cache.save(path)
    loaded = KLCache.load(path, s)
    for w in s.elements():
        assert loaded.kl_column(w) == cache.kl_column(w)


@pytest.mark.parametrize("group", ["A5", "B4", "D4", "I2(8)"])
def test_every_row_index_is_at_most_its_column_index(group, tmp_path):
    # hybrid._solve's top-down pass over W_J relies on it: x <= w gives l(x) <= l(w)
    filled = get_cache(group)
    filled.fill()
    s = filled.system
    path = tmp_path / "cache.gz"
    filled.save(path)
    loaded = KLCache.load(path, s)
    for cache in (filled, loaded):
        for w in s.elements():
            assert max(map(s.index, cache.kl_column(w))) == s.index(w)
    assert loaded.computed == 0


def test_cache_load_rejects_wrong_group(tmp_path):
    s = coxeter_system("A2")
    cache = KLCache(s)
    cache.fill()
    path = tmp_path / "a2.klcache.gz"
    cache.save(path)
    with pytest.raises(ValueError, match="group"):
        KLCache.load(path, coxeter_system("B2"))


def test_cache_partial_save(tmp_path):
    s = coxeter_system("A3")
    cache = KLCache(s)
    w0 = s.longest_element()
    cache.kl_column(w0)
    path = tmp_path / "partial.klcache.gz"
    cache.save(path)
    loaded = KLCache.load(path, s)
    assert loaded.kl_column(w0) == cache.kl_column(w0)
    # columns not saved are recomputed on demand
    si = s.generator(1)
    assert loaded.kl_element(si) == cache.kl_element(si)


def test_oracle_agrees_exhaustively_a4_d4():
    for group in ("A4", "D4"):
        cache = get_cache(group)
        s = cache.system
        oracle = KLOracle(s)
        for x in s.elements():
            col = cache.kl_column(x)
            for y in s.elements():
                assert col.get(y, ZERO) == oracle.kl_poly(y, x)


def test_partial_cache_recomputes_through_loaded_columns(tmp_path):
    for group in ("B3", "A4", "I2(7)"):  # A4 and I2(7) have three symmetry tables, B3 one
        s = coxeter_system(group)
        low = KLCache(s)
        for w in s.elements()[:10]:
            low.kl_column(w)
        path = tmp_path / f"{group}.low.klcache.gz"
        low.save(path)
        loaded = KLCache.load(path, s)
        loaded.kl_column(s.longest_element())
        # only the missing columns were computed; the loaded ones were read
        assert loaded.computed == len(loaded._columns) - 10
        fresh = get_cache(group)
        for w in loaded._columns:
            assert loaded.kl_column(w) == fresh.kl_column(w)
        # the rest is relabeled from loaded partners too, and save reads the relabeled rows
        loaded.fill()
        full = KLCache(s)
        full.fill()
        assert _saved_bytes(loaded, tmp_path / f"{group}.a") == _saved_bytes(full, tmp_path / f"{group}.b")


def _load_edited(tmp_path, system, words, edit):
    """Save the columns of ``words``, let ``edit`` change the file's columns, load it."""
    cache = KLCache(system)
    for word in words:
        cache.kl_column(system.element_from_word(word))
    path = tmp_path / "edited.klcache.gz"
    cache.save(path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj["columns"])
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return KLCache.load(path, system)


@pytest.mark.parametrize(
    "column, entry, poly, match",
    [
        ("1", "", {"-1": 1}, r"not in Z\[q\]"),  # negative exponent
        ("1", "", {"1": 2**62}, r"not in Z\[q\]"),  # coefficient >= 2^62
        ("1", "1", {"0": 2}, "diagonal entry is not 1"),
        ("1,2", "1", {"0": 1, "1": 1}, "division by q was not exact"),
        ("1,2", "", {"2": 2**61 - 1}, r"could reach 2\^62"),
        # the correction by C_1 overshoots: h_{e,121} = q - 4q^3, then q^3 - 4q
        ("1", "", {"3": 5}, "negative"),
        ("1", "", {"1": 5}, "negative"),
    ],
)
def test_guard_rejects_damaged_loaded_columns(tmp_path, column, entry, poly, match):
    # in A2, C_{121} = C_{12} C_1 - C_1 reads both loaded columns
    s = coxeter_system("A2")

    def edit(columns):
        columns[column][entry] = poly

    loaded = _load_edited(tmp_path, s, ([1], [1, 2]), edit)
    with pytest.raises(RuntimeError, match=match):
        loaded.kl_column(s.longest_element())


def test_guard_rejects_a_loaded_column_without_its_diagonal(tmp_path):
    s = coxeter_system("A2")

    def edit(columns):
        del columns["1,2"]["1,2"]

    loaded = _load_edited(tmp_path, s, ([1], [1, 2]), edit)
    with pytest.raises(RuntimeError, match="KL column 1,2: the diagonal entry is not 1"):
        loaded.kl_column(s.element_from_word([1, 2]))


def test_a_mu_above_1_is_subtracted_that_many_times(tmp_path):
    # every mu the supported groups reach is 1; with h_{1,12} edited to 2q,
    # mu(1, 12) = 2 and C_{121} = C_{12} C_1 - 2 C_1 is still the true C_{121}
    s = coxeter_system("A2")

    def edit(columns):
        columns["1,2"]["1"] = {"1": 2}

    loaded = _load_edited(tmp_path, s, ([1], [1, 2]), edit)
    assert loaded.mu(s.generator(1), s.element_from_word([1, 2])) == 2
    w0 = s.longest_element()
    assert loaded.kl_column(w0) == KLCache(s).kl_column(w0)


def test_guard_rejects_an_entry_outside_the_interval(tmp_path):
    # in A3, C_{121} = C_{12} C_1 - C_1 and s_3 is not below 1: load leaves
    # column 1 out, and computing 121 reads it
    s = coxeter_system("A3")

    def edit(columns):
        columns["1"]["3"] = {"1": 1}

    loaded = _load_edited(tmp_path, s, ([1], [1, 2]), edit)
    with pytest.raises(RuntimeError, match=r"KL column 1: the loaded rows are not the Bruhat interval \[e, w\]"):
        loaded.kl_column(s.element_from_word([1, 2, 1]))


def test_a_column_above_a_missing_one_is_checked_by_lifting_past_it(tmp_path):
    # 1,2,1 and 1,2,3 lift from 1,2 (v = ws): with 1,2 left out of the file,
    # load lifts [e, 1,2] from the stored column 1 instead
    s = coxeter_system("A3")
    words = list(map(s.word, s.elements()))
    w121, w123 = s.element_from_word([1, 2, 1]), s.element_from_word([1, 2, 3])
    loaded = _load_edited(tmp_path, s, words, lambda columns: columns.pop("1,2"))
    assert w121 in loaded._columns and w123 in loaded._columns and not loaded._damaged
    assert loaded.kl_column(w121) == KLCache(s).kl_column(w121)
    assert "_below" not in s.__dict__

    def edit(columns):
        del columns["1,2"], columns["1,2,1"]["1"]

    loaded = _load_edited(tmp_path, s, words, edit)
    assert w123 in loaded._columns
    with pytest.raises(RuntimeError, match=r"KL column 1,2,1: the loaded rows are not the Bruhat interval"):
        loaded.kl_column(w121)


def test_loading_a_complete_file_builds_no_bruhat_table(tmp_path):
    # every column lifts from its stored neighbour ws, so neither load nor the
    # reads build the Bruhat table (it costs more than the check: 0.22 s at D5)
    full = KLCache(coxeter_system("B3"))
    full.fill()
    full.save(tmp_path / "B3.klcache.gz")
    s = coxeter_system("B3")
    loaded = KLCache.load(tmp_path / "B3.klcache.gz", s)
    assert kl_matrix(loaded).same_entries(kl_matrix(full))
    assert loaded.computed == 0 and "_below" not in s.__dict__


def test_loading_a_partial_file_with_holes_builds_no_bruhat_table(tmp_path):
    # C_{2321} is relabeled from its inverse C_{1232}, so the saved file holds
    # 2,3,2,1 but not 2,3,2, 2,3 or 2: load lifts [e, 2,3,2] down that chain
    # to e, and never builds the Bruhat table
    s = coxeter_system("B3")
    w = s.element_from_word([1, 2, 3, 2])
    partial = KLCache(s)
    partial.kl_column(w)
    partial.kl_column(s.inverse(w))
    partial.save(tmp_path / "B3.klcache.gz")
    fresh = coxeter_system("B3")
    loaded = KLCache.load(tmp_path / "B3.klcache.gz", fresh)
    assert {fresh.word(x) for x in loaded._columns} == {(), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 2), (2, 3, 2, 1)}
    assert not loaded._damaged and "_below" not in fresh.__dict__
    w_inv = fresh.element_from_word([2, 3, 2, 1])
    assert loaded.kl_column(w_inv) == KLCache(fresh).kl_column(w_inv)


def test_a_column_left_out_at_load_does_not_raise_the_coefficient_bound(tmp_path):
    # column 1,2 passes the guard with a coefficient of 2^61, then fails the
    # interval check (row 1 deleted); had it raised the bound, every later
    # column would fail "coefficients could reach 2^62" in its place
    s = coxeter_system("A3")
    words = list(map(s.word, s.elements()))

    def edit(columns):
        del columns["1,2"]["1"]
        columns["1,2"][""] = {"1": 2**61}

    loaded = _load_edited(tmp_path, s, words, edit)
    assert loaded._damaged == {
        s.element_from_word([1, 2]): "KL column 1,2: the loaded rows are not the Bruhat interval [e, w]"
    }
    assert len(loaded._columns) == s.order - 1
    w0 = s.longest_element()
    assert loaded.kl_column(w0) == KLCache(s).kl_column(w0)


def _kl_matrix_calls(cache):
    """kl_column calls made by kl_matrix on ``cache``."""
    calls = 0
    lookup = cache.kl_column

    def counting(w):
        nonlocal calls
        calls += 1
        return lookup(w)

    cache.kl_column = counting
    kl_matrix(cache)
    return calls


def test_kl_matrix_calls_reveal_a_missing_column(tmp_path):
    # a complete cache answers with one call per element; a missing column
    # is recomputed through further calls, even when its inputs are loaded
    s = coxeter_system("A3")
    path = tmp_path / "a3.klcache.gz"
    get_cache("A3").save(path)
    assert _kl_matrix_calls(KLCache.load(path, s)) == s.order

    def edit(columns):
        del columns["1,2"]

    words = [s.word(w) for w in s.elements()]
    loaded = _load_edited(tmp_path, s, words, edit)
    assert _kl_matrix_calls(loaded) > s.order


def test_guard_rejects_a_digit_of_2_62():
    # the recursion cannot produce one (the a-priori bound trips first), so
    # the guard is called on a hand-made packed column: h_{e,1} = 2^62 q
    s = coxeter_system("A1")
    with pytest.raises(RuntimeError, match=r"KL column 1: .*coefficient >= 2\^62"):
        KLCache(s)._guard(1, 1, [1, 1 << 126])


@pytest.mark.parametrize("group", ["A5", "B4", "D4", "I2(8)"])
def test_relabeled_columns_equal_the_recursion(group, monkeypatch):
    # with the symmetry tables emptied every column comes from the recursion
    s = coxeter_system(group)
    plain_system = coxeter_system(group)
    monkeypatch.setattr(plain_system, "index_symmetries", ())
    guarded = []
    cache, plain = KLCache(s), KLCache(plain_system)
    monkeypatch.setattr(cache, "_guard", lambda i, *args: guarded.append(i) or KLCache._guard(cache, i, *args))
    cache.fill()
    plain.fill()
    els = s.elements()
    for w in els:
        assert cache.kl_column(w)._packed == plain.kl_column(w)._packed
    # a relabeled entry is its partner's int, and the recursion (with its
    # guard) runs once per orbit of the inverse and the w0-conjugation, the
    # identity's column aside
    for g in s.index_symmetries:
        for k, w in enumerate(els):
            col, partner = cache.kl_column(w)._packed, cache.kl_column(els[g[k]])._packed
            assert all(h is partner[g[x]] for x, h in col.items())
    orbits = {frozenset([k, *(g[k] for g in s.index_symmetries)]) for k in range(1, s.order)}
    assert sorted(guarded) == sorted(min(orbit) for orbit in orbits)
    assert cache.computed == plain.computed == s.order


@pytest.mark.parametrize("group, stored", [("A4", 11), ("B3", 10), ("D4", 15)])
def test_a_lazy_column_reads_no_more_columns(group, stored):
    # the counts are those of the recursion alone: a relabeling only ever
    # stands in for a column that would have been computed
    s = coxeter_system(group)
    cache = KLCache(s)
    cache.kl_column(s.longest_element())
    assert len(cache._columns) == cache.computed == stored
