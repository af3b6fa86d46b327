import pytest

from heckekl import UnsupportedGroupError, coxeter_system, format_word, parse_word
from conftest import subsets, subword_interval


def test_orders():
    assert coxeter_system("A1").order == 2
    assert coxeter_system("A2").order == 6
    assert coxeter_system("A3").order == 24
    assert coxeter_system("A4").order == 120
    assert coxeter_system("B2").order == 8
    assert coxeter_system("B3").order == 48
    assert coxeter_system("D3").order == 24
    assert coxeter_system("D4").order == 192
    for m in (3, 5, 7, 12):
        assert coxeter_system(f"I2({m})").order == 2 * m


def test_coxeter_matrices():
    assert coxeter_system("A3").coxeter_matrix() == ((1, 3, 2), (3, 1, 3), (2, 3, 1))
    assert coxeter_system("B3").coxeter_matrix() == ((1, 4, 2), (4, 1, 3), (2, 3, 1))
    assert coxeter_system("I2(5)").coxeter_matrix() == ((1, 5), (5, 1))
    # D4: the two fork nodes 1, 2 commute and both attach to node 3
    md = coxeter_system("D4").coxeter_matrix()
    assert md[0][1] == 2 and md[0][2] == 3 and md[1][2] == 3
    assert md[2][3] == 3 and md[0][3] == 2 and md[1][3] == 2


def test_longest_element_lengths():
    for g, l0 in (("A2", 3), ("A3", 6), ("A4", 10), ("B2", 4), ("B3", 9), ("D4", 12), ("I2(7)", 7)):
        s = coxeter_system(g)
        w0 = s.longest_element()
        assert s.length(w0) == l0
        assert s.right_descents(w0) == frozenset(s.generators)
        assert s.multiply(w0, s.inverse(w0)) == s.identity


def test_canonical_order_a2():
    s = coxeter_system("A2")
    assert [s.word(w) for w in s.elements()] == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]
    assert s.index(s.identity) == 0


@pytest.mark.parametrize("group", ["A3", "B3", "I2(6)", "D4", "A5", "B4", "I2(24)", "A6", "B5", "D5"])
def test_words_are_reduced_and_shortlex(group):
    s = coxeter_system(group, allow_large=True)
    els = s.elements()
    for w in els:
        word = s.word(w)
        assert len(word) == s.length(w)
        assert s.element_from_word(word) == w
        if word:
            # ShortLex: the first letter is the smallest left descent and the
            # rest is the word of s*w
            assert word[0] == min(s.left_descents(w))
            assert s.word(s.apply_left(word[0], w)) == word[1:]
    # the enumeration numbers the elements in canonical order, and sort_key agrees
    canonical = sorted(els, key=lambda w: (s.length(w), s.word(w)))
    assert list(els) == canonical
    assert sorted(els, key=s.sort_key) == canonical


def test_descents_and_apply():
    s = coxeter_system("A3")
    for w in s.elements():
        for i in s.generators:
            ws = s.apply_right(w, i)
            assert s.multiply(w, s.generator(i)) == ws
            assert (i in s.right_descents(w)) == (s.length(ws) < s.length(w))
            sw = s.apply_left(i, w)
            assert s.multiply(s.generator(i), w) == sw
            assert (i in s.left_descents(w)) == (s.length(sw) < s.length(w))
        assert s.right_descents(s.inverse(w)) == s.left_descents(w)


@pytest.mark.parametrize("group", ["A3", "I2(6)", "B2"])
def test_bruhat_matches_subword_oracle(group):
    s = coxeter_system(group)
    for w in s.elements():
        interval = subword_interval(s, w)
        for u in s.elements():
            assert s.bruhat_leq(u, w) == (u in interval)
        assert set(s.bruhat_interval(w)) == interval


def test_bruhat_extremes_and_incomparability():
    s = coxeter_system("A3")
    w0 = s.longest_element()
    for w in s.elements():
        assert s.bruhat_leq(s.identity, w)
        assert s.bruhat_leq(w, w0)
        assert s.bruhat_leq(w, w) and not s.bruhat_leq(w0, w) or w == w0
    # distinct elements of equal length are incomparable
    for u in s.elements():
        for w in s.elements():
            if u != w and s.length(u) == s.length(w):
                assert not s.bruhat_leq(u, w)


def test_parabolic_factorization_unique_and_length_additive():
    for g in ("A3", "B3"):
        s = coxeter_system(g)
        for J in subsets(s):
            reps = s.min_coset_reps(J, "left")
            wj = s.subgroup_elements(J)
            assert len(reps) * len(wj) == s.order
            seen = set()
            for w in s.elements():
                u, v = s.parabolic_factorize_left(w, J)
                assert u in reps and v in wj
                assert s.multiply(u, v) == w
                assert s.length(u) + s.length(v) == s.length(w)
                seen.add((u, v))
            assert len(seen) == s.order
            # right-sided version
            for w in s.elements():
                v, u = s.parabolic_factorize_right(w, J)
                assert v in wj and u in s.min_coset_reps(J, "right")
                assert s.multiply(v, u) == w
                assert s.length(u) + s.length(v) == s.length(w)


def test_min_reps_have_no_descents_in_j():
    s = coxeter_system("B3")
    for J in [frozenset({1}), frozenset({1, 2}), frozenset({2, 3})]:
        for u in s.min_coset_reps(J, "left"):
            assert not (s.right_descents(u) & J)
        for u in s.min_coset_reps(J, "right"):
            assert not (s.left_descents(u) & J)


def test_rep_times_subgroup_is_length_additive():
    # l(u v) = l(u) + l(v) and (u v)^J = u, for u in W^J, v in W_J
    for g in ("A3", "B3"):
        s = coxeter_system(g)
        for J in [frozenset({1}), frozenset({1, 2}), frozenset({1, 3} if g == "A3" else {2, 3})]:
            for u in s.min_coset_reps(J, "left"):
                for v in s.subgroup_elements(J):
                    uv = s.multiply(u, v)
                    assert s.length(uv) == s.length(u) + s.length(v)
                    assert s.parabolic_factorize_left(uv, J) == (u, v)


def test_projection_preserves_bruhat_order():
    s = coxeter_system("A3")
    J = frozenset({1, 2})
    for u in s.elements():
        for w in s.elements():
            if s.bruhat_leq(u, w):
                assert s.bruhat_leq(
                    s.parabolic_factorize_left(u, J)[0], s.parabolic_factorize_left(w, J)[0]
                )


def test_subgroup_elements():
    s = coxeter_system("A3")
    assert len(s.subgroup_elements({1, 2})) == 6
    assert len(s.subgroup_elements({1, 3})) == 4
    assert len(s.subgroup_elements(())) == 1
    assert s.subgroup_elements({2}) == (s.identity, s.generator(2))
    with pytest.raises(ValueError):
        s.subgroup_elements({4})


def test_group_string_parsing_and_bounds():
    with pytest.raises(UnsupportedGroupError):
        coxeter_system("A0")
    with pytest.raises(UnsupportedGroupError):
        coxeter_system("B1")
    with pytest.raises(UnsupportedGroupError):
        coxeter_system("I2(2)")
    with pytest.raises(UnsupportedGroupError):
        coxeter_system("A6")
    with pytest.raises(UnsupportedGroupError):
        coxeter_system("I2(30)")
    s = coxeter_system("I2(30)", allow_large=True)
    assert s.order == 60
    with pytest.raises(UnsupportedGroupError):
        coxeter_system("E8")
    with pytest.raises(UnsupportedGroupError):
        coxeter_system("nonsense")


def test_word_parsing():
    assert parse_word("1,2,1") == [1, 2, 1]
    assert parse_word("e") == []
    assert parse_word("") == []
    assert format_word((1, 2, 1)) == "1,2,1"
    assert format_word(()) == ""
    with pytest.raises(ValueError):
        parse_word("1,x,2")
    s = coxeter_system("A2")
    with pytest.raises(ValueError, match="position 2"):
        s.element_from_word([1, 7])


def test_i2_realization_arithmetic():
    for m in (3, 4, 5, 6, 8):
        s = coxeter_system(f"I2({m})")
        r = s.multiply(s.generator(1), s.generator(2))
        x = s.identity
        for k in range(1, m + 1):
            x = s.multiply(x, r)
        assert x == s.identity
        assert s.length(s.longest_element()) == m
        alternating = s.element_from_word([1 if i % 2 == 0 else 2 for i in range(m)])
        assert alternating == s.longest_element()


def test_i2_products_match_the_polygon_action():
    """Every product of I2(m) against an independent model: the action on the
    m-gon's vertices, s1: i -> -i and s2: i -> 1 - i (mod m).  A handle
    (length, first letter) stands for the alternating word it names."""
    for m in range(3, 25):
        s = coxeter_system(f"I2({m})")
        els = s.elements()

        def vertices(w):
            ln, g = w
            word = [g if k % 2 == 0 else 3 - g for k in range(ln)]
            out = []
            for i in range(m):
                for h in reversed(word):  # the rightmost letter acts first
                    i = -i % m if h == 1 else (1 - i) % m
                out.append(i)
            return tuple(out)

        act = {w: vertices(w) for w in els}
        assert len(set(act.values())) == 2 * m  # the handles name distinct elements
        assert act[s.longest_element()] == vertices((m, 2))  # w0 has both alternating words
        for a in els:
            for b in els:
                ab = s.multiply(a, b)
                assert ab in act, (m, a, b, ab)
                assert act[ab] == tuple(act[a][i] for i in act[b]), (m, a, b)


@pytest.mark.parametrize("group", ["A3", "B3", "D4", "I2(5)"])
def test_generator_rejects_an_index_outside_the_rank(group):
    s = coxeter_system(group)
    assert [s.generator(i) for i in s.generators] == [s.element_from_word([i]) for i in s.generators]
    for i in (0, -1, s.rank + 1):
        with pytest.raises(ValueError, match="invalid generator index"):
            s.generator(i)


# w0 is central in B(n), D(n) for even n and I2(m) for even m: there the
# conjugation is trivial, its composite with the inverse is the inverse, and
# only the inverse is left (in A1 not even that)
_SYMMETRY_GROUPS = {"A1": 0, "A2": 3, "A3": 3, "A4": 3, "A5": 3, "B2": 1, "B3": 1, "B4": 1, "D3": 3, "D4": 1, "D5": 3}
_SYMMETRY_GROUPS.update({f"I2({m})": 1 if m % 2 == 0 else 3 for m in range(3, 13)})


@pytest.mark.parametrize("group", sorted(_SYMMETRY_GROUPS))
def test_symmetry_tables(group):
    s = coxeter_system(group, allow_large=True)
    els, w0 = s.elements(), s.longest_element()
    inv, conj = s.inverse_index, s.conjugate_index
    assert [els[k] for k in conj] == [s.multiply(s.multiply(w0, x), w0) for x in els]
    assert {els[conj[s.index(s.generator(i))]] for i in s.generators} == {s.generator(i) for i in s.generators}
    composite = [inv[k] for k in conj]
    assert composite == [s.index(s.inverse(s.multiply(s.multiply(w0, x), w0))) for x in els]
    for table in (inv, conj, composite):
        assert [table[k] for k in table] == list(range(s.order))  # an involution
    want = {0: [], 1: [inv], 3: [inv, conj, composite]}[_SYMMETRY_GROUPS[group]]
    assert list(s.index_symmetries) == want
