"""transition_matrix builds its block by the left KL recursion in TC^I
coordinates: it never back-substitutes, it agrees with the back-substitution
of expand_in_hybrid, its q^-1 steps and coefficient bound are guarded, and a
cache file edited inside the degree window now fails factorize."""

import contextlib
import gzip
import io
import json
from pathlib import Path

import pytest

from heckekl import HybridBasisSpec, KLCache, coxeter_system, expand_in_hybrid, factorize_chain, transition_matrix
from heckekl import hybrid
from heckekl.cli import main
from heckekl.laurent import ExactnessError
from conftest import get_cache, subsets


@pytest.mark.parametrize("group", ["A3", "B3", "D4", "I2(7)"])
def test_transition_matrices_do_not_back_substitute(group, monkeypatch):
    def refuse(*args):
        raise AssertionError("the back-substitution ran")

    cache = get_cache(group)
    monkeypatch.setattr(hybrid, "_solve", refuse)
    for J in subsets(cache.system):
        for I in subsets(cache.system):
            if I <= J:
                transition_matrix(cache, I, J)
    factorize_chain(cache)


def test_last_factors_match_the_back_substitution_at_a5():
    cache = get_cache("A5")
    sys = cache.system
    S = frozenset(sys.generators)
    for k in S:
        m, spec = transition_matrix(cache, S - {k}, S), HybridBasisSpec(S - {k})
        for w in sys.elements():
            assert dict(m.columns[w].items()) == expand_in_hybrid(cache, cache.kl_element(w), spec), (k, w)


def test_a_forced_coefficient_limit_names_the_column(monkeypatch):
    cache = get_cache("B3")
    monkeypatch.setattr(hybrid, "_LIMIT", 8)
    with pytest.raises(ExactnessError, match=r"transition column 2,3,2,1, I = \[\]: coefficients could reach 2\^62"):
        transition_matrix(cache, (), (1, 2, 3))


def _a3_file(tmp_path: Path, column: str, row: str, poly: dict) -> Path:
    """A filled A3 cache file, in its own directory, with one entry replaced."""
    cache = KLCache(coxeter_system("A3"))
    cache.fill()
    path = tmp_path / "A3.klcache.gz"
    cache.save(path)
    obj = json.loads(gzip.decompress(path.read_bytes()))
    obj["columns"][column][row] = poly
    path.write_bytes(gzip.compress(json.dumps(obj).encode()))
    return path


def test_an_inexact_division_by_q_names_the_column(tmp_path):
    # h_{121,1321} = q edited to 2q passes the load checks, but C_{121321}'s
    # TC^{1,2} coordinates then need q^-1 times a constant term
    path = _a3_file(tmp_path, "1,3,2,1", "1,2,1", {"1": 2})
    cache = KLCache.load(path, coxeter_system("A3"))
    with pytest.raises(ExactnessError, match=r"transition column 1,2,1,3,2,1, I = \[1, 2\]: a division by q was not exact"):
        transition_matrix(cache, (1, 2), (1, 2, 3))


def test_a_negative_coordinate_is_kept_for_the_positivity_check(tmp_path):
    # mu(1, 21) edited to 2 makes C_121 = C_1 C_21 - 2 C_1, negative at T_1
    path = _a3_file(tmp_path, "2,1", "1", {"1": 2})
    m = transition_matrix(KLCache.load(path, coxeter_system("A3")), (), (1, 2))
    assert not m.is_nonneg_poly_matrix()


def test_factorize_fails_on_an_entry_edited_inside_its_degree_window(tmp_path):
    # h_{e,3} = q edited to 2q: the back-substitution built every factor from
    # the loaded columns, so the product telescoped to them and this exited 0
    path = _a3_file(tmp_path, "3", "", {"1": 2})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["factorize", "--group", "A3", "--cache-dir", str(path.parent)])
    obj = json.loads(out.getvalue())
    assert (code, err.getvalue()) == (1, "")
    assert obj["product_equals_kl"] is False
