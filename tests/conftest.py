"""Shared fixtures: one KL cache per group string, reused across test modules,
and the generator subsets of a system."""

import itertools

from heckekl import KLCache, coxeter_system

_CACHES: dict[str, KLCache] = {}


def get_cache(group: str) -> KLCache:
    if group not in _CACHES:
        _CACHES[group] = KLCache(coxeter_system(group))
    return _CACHES[group]


def subsets(s) -> list[frozenset[int]]:
    """Every subset of s's generators, by size, each size in itertools.combinations order."""
    return [frozenset(c) for r in range(s.rank + 1) for c in itertools.combinations(s.generators, r)]
