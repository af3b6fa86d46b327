"""Property tests of the text parsers: words, subsets and chains round-trip,
and any text gives either a value or a ValueError."""

from hypothesis import given, settings, strategies as st

from heckekl.cli import _parse_chain, _parse_subset
from heckekl.coxeter import _EMPTY_TOKENS, format_word, parse_word

# reproducible runs that leave no example database behind
checked = settings(database=None, deadline=None, derandomize=True, max_examples=150)

indices = st.integers(min_value=0, max_value=10**6)
subsets = st.frozensets(indices, max_size=8)


def format_subset(J, empty="@"):
    return ",".join(map(str, sorted(J))) or empty


@checked
@given(st.lists(indices, max_size=20))
def test_word_round_trip(word):
    assert parse_word(format_word(word)) == word


@checked
@given(st.lists(indices, max_size=20), st.sampled_from(["", " ", "  "]))
def test_word_parse_ignores_surrounding_spaces(word, pad):
    text = format_word(word)
    assert format_word(parse_word(pad + text + pad)) == text


@checked
@given(subsets, st.sampled_from(sorted(_EMPTY_TOKENS)))
def test_subset_round_trip(J, empty):
    assert _parse_subset(format_subset(J, empty)) == J


@checked
@given(st.lists(subsets, min_size=1, max_size=6))
def test_chain_round_trip(chain):
    assert _parse_chain("<".join(map(format_subset, chain))) == chain


@checked
@given(st.text())
def test_any_text_parses_or_raises_value_error(text):
    for parse in (parse_word, _parse_subset, _parse_chain):
        try:
            parse(text)
        except ValueError:
            pass


@checked
@given(st.text(alphabet=st.characters(categories=["Nd", "No"]), min_size=1).filter(lambda t: not t.isascii()))
def test_non_ascii_digits_are_not_generator_indices(tok):
    for parse in (parse_word, _parse_subset, _parse_chain):
        try:
            parse(tok)
        except ValueError as exc:
            assert "invalid generator index" in str(exc)
        else:
            raise AssertionError(f"{parse.__name__} accepted {tok!r}")
