"""Shared helpers: one KL cache per group string, reused across test modules,
the generator subsets of a system, the subword interval of an element and an
in-process CLI run."""

import itertools

from heckekl import KLCache, coxeter_system
from heckekl.cli import main

_CACHES: dict[str, KLCache] = {}


def get_cache(group: str) -> KLCache:
    if group not in _CACHES:
        _CACHES[group] = KLCache(coxeter_system(group))
    return _CACHES[group]


def subsets(s) -> list[frozenset[int]]:
    """Every subset of s's generators, by size, each size in itertools.combinations order."""
    return [frozenset(c) for r in range(s.rank + 1) for c in itertools.combinations(s.generators, r)]


def subword_interval(s, w) -> set:
    """Elements reachable as products of subwords of a reduced word of w."""
    word = s.word(w)
    return {s.element_from_word(sub) for k in range(len(word) + 1) for sub in itertools.combinations(word, k)}


def run(capsys, *argv) -> tuple[int, str, str]:
    """main(argv) in-process: (exit code, stdout, stderr)."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err
