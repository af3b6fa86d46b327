"""The CLI's JSON writer against json.dumps(obj, indent=2): the same bytes on
generated trees, shared polynomial dicts included, and the same errors."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from heckekl.cli import _json_text

# reproducible runs that leave no example database behind
checked = settings(database=None, deadline=None, derandomize=True, max_examples=200)

# coefficients of 2^53 and above are decimal strings, as in laurent.to_json_obj
coeffs = st.integers(-(2**70), 2**70).map(lambda c: c if -(2**53) < c < 2**53 else str(c))
polys = st.dictionaries(st.integers(-5, 40).map(str), coeffs, max_size=4)
texts = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=("Cs",)), max_size=6)
leaves = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | texts | st.floats(allow_nan=True)


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


@checked
@given(st.recursive(st.lists(st.integers()) | st.tuples(st.integers(), st.integers()), lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids), max_leaves=12))
def test_nested_int_lists_and_tuples(obj):
    assert _json_text(obj) == reference(obj)


@st.composite
def shared_entries(draw):
    """Lists of [row, column, poly] entries at several depths, drawing their
    polys from one pool, so one dict object sits at different depths."""
    pool = draw(st.lists(polys, min_size=1, max_size=4))
    entry = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, len(pool) - 1))
    entries = st.lists(entry.map(lambda t: [t[0], t[1], pool[t[2]]]), max_size=6)
    nest = lambda kids: st.lists(kids, max_size=3) | st.dictionaries(texts, kids, max_size=3)
    return draw(st.recursive(entries, nest, max_leaves=8))


@checked
@given(shared_entries())
def test_entries_with_shared_dicts(obj):
    assert _json_text(obj) == reference(obj)


@checked
@given(st.recursive(leaves | polys, lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple) | st.dictionaries(texts, kids, max_size=4), max_leaves=20))
def test_any_tree_of_json_values(obj):
    assert _json_text(obj) == reference(obj)


def test_empty_containers_and_other_key_types():
    for obj in ([], {}, (), [[]], {"": {}}, [[1, 2, {}]], {1: [1.5, None], True: "x", None: (), 2.5: []}):
        assert _json_text(obj) == reference(obj)


def test_the_same_errors_as_json_dumps():
    for obj in ({"a": {1, 2}}, [object()], [1, 2, {"0": 3.0j}]):
        with pytest.raises(TypeError) as got:
            _json_text(obj)
        with pytest.raises(TypeError) as want:
            reference(obj)
        assert str(got.value) == str(want.value)
