"""Child-process side of the benchmark: one op (or check) per process.

    opchild.py fill --group D5 --seed N --report FILE [--spans FILE --op-id K]
    opchild.py cli --report FILE --spans FILE --op-id K -- <heckekl arguments>
    opchild.py cachecheck --cache-dir DIR --group A5 --report FILE

``fill`` is the library op of the kl_fill workload: build the group, fill
a KLCache, take the KL matrix.  ``cli`` runs the heckekl command line
in-process with tracing on (the untraced CLI op is ``python -m heckekl.cli``
itself).  ``cachecheck`` loads the cache a CLI op left behind.

Every op writes a marker to its report when the op is done: the monotonic
clock (comparable with the parent's on Linux), the CPU time and the peak
RSS so far.  The work after the marker (digests, oracle spot-checks,
tracing statistics, writing spans) is outside the timed region.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import os
import random
import resource
import sys
import time

from spans import Tracer, per_layer_metrics

# kl_fill spot-check: pairs (x, w) with x a subword of w's canonical reduced
# word (so x <= w and h_{x,w} != 0); the oracle's cost grows steeply with
# l(w), so w is drawn from a middle band of lengths
SPOT_PAIRS = 4
SPOT_LENGTHS = range(6, 11)


def marker() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"t": time.monotonic(), "cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def matrix_digest(m) -> str:
    """sha256 of a TransitionMatrix in canonical text form.

    One line "x|w|h" per stored entry, with x and w as canonical words;
    columns in the matrix order, entries in the group's canonical order,
    polynomials in their fixed textual grammar.
    """
    from heckekl import format_word

    system = m.system
    pos = {w: k for k, w in enumerate(system.elements())}
    words = [format_word(system.word(w)) for w in system.elements()]
    h = hashlib.sha256()
    for w in m.order:
        col = m.columns[w]
        wt = words[pos[w]]
        lines = (f"{words[pos[x]]}|{wt}|{col[x]}\n" for x in sorted(col, key=pos.__getitem__))
        h.update("".join(lines).encode())
    return h.hexdigest()


def instrument(tracer: Tracer) -> dict:
    """Wrap heckekl's layer entry points so that calls record spans and counts.

    Returns the dict into which every KL column handed out by
    KLCache.kl_column is collected, for the size statistics.  Names bound
    by ``from ... import`` in other heckekl modules are rebound too.
    """
    import heckekl
    from heckekl import cli, coxeter, hecke, hybrid, klbasis, oracles, verification

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "heckekl"]
    columns: dict = {}

    def wrap(fn, span=None, count=None, after=None, rename=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count:
                tracer.count(count)
            idx = tracer.enter(span) if span else None
            name = None
            try:
                out = fn(*args, **kwargs)
                if rename:
                    name = rename(out)
            finally:
                if span:
                    tracer.exit(span, idx, name)
            if after:
                after(args, out)
            return out

        return wrapper

    def patch_function(fn, **kw):
        wrapped = wrap(fn, **kw)
        for m in modules:
            for attr in [a for a, v in vars(m).items() if v is fn]:
                setattr(m, attr, wrapped)

    def patch_method(cls, attr, **kw):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrap(raw.__func__, **kw)))
        else:
            setattr(cls, attr, wrap(raw, **kw))

    patch_method(
        coxeter.CoxeterSystem, "__init__", span="coxeter.build",
        after=lambda a, _: tracer.count("coxeter.elements", a[0].order),
    )
    patch_method(
        klbasis.KLCache, "kl_column", span="klbasis.kl_column", count="klbasis.kl_column_calls",
        after=lambda a, out: columns.__setitem__((id(a[0]), a[1]), out),
    )
    patch_method(klbasis.KLCache, "fill", span="klbasis.fill")
    patch_method(klbasis.KLCache, "load", span="klbasis.load")
    patch_method(
        klbasis.KLCache, "save", span="klbasis.save",
        after=lambda a, _: tracer.count("klbasis.cache_file_bytes", os.path.getsize(a[1])),
    )
    patch_method(klbasis.KLOracle, "kl_poly", span="klbasis.oracle")

    patch_function(hybrid.transition_matrix, span="hybrid.transition")
    patch_function(hybrid.matmul, span="hybrid.matmul")
    patch_method(hybrid.TransitionMatrix, "same_entries", span="hybrid.compare")
    patch_function(hybrid.parabolic_kl, span="hybrid.parabolic_kl")
    patch_function(hybrid.expand_in_hybrid, span="hybrid.expand")
    patch_function(hybrid.restriction_coeffs, count="hybrid.restriction_calls")
    patch_function(
        hybrid.factorize_chain,
        after=lambda _, out: tracer.count(
            "hybrid.factor_entries", sum(len(c) for m in out for c in m.columns.values())
        ),
    )

    patch_method(hecke.HeckeElement, "__mul__", span="hecke.mul", count="hecke.mul_calls")
    patch_method(hecke.HeckeElement, "bar", span="hecke.bar", count="hecke.bar_calls")
    patch_function(hecke.form, span="hecke.form")

    for name, fn in list(vars(oracles).items()):
        if name in heckekl.__all__ and inspect.isfunction(fn):
            patch_function(fn, span="oracles")

    checks = {}
    for suite in verification.SUITES.values():
        for k, fn in enumerate(suite):
            if fn not in checks:
                checks[fn] = wrap(fn, span="verification", rename=lambda r: f"verification.{r.name}")
            suite[k] = checks[fn]

    patch_method(hybrid.TransitionMatrix, "to_json_obj", span="cli.serialize")
    patch_function(cli._json_text, span="cli.serialize")
    patch_function(
        cli._emit, span="cli.serialize",
        after=lambda a, _: tracer.count("cli.output_bytes", len(a[1].encode("utf-8"))),
    )
    return columns


def column_stats(columns) -> dict:
    """Stored entries, widest coefficient and highest degree over the columns."""
    entries = bits = degree = 0
    for col in columns.values():
        entries += len(col)
        for p in col.values():
            for e, c in p.items():
                bits = max(bits, abs(c).bit_length())
                degree = max(degree, e)
    return {"klbasis.entries": entries, "klbasis.max_coeff_bits": bits, "klbasis.max_degree": degree}


def run_op(op, spans_path, op_id):
    """Run ``op()``, traced when ``spans_path`` is given; returns (result, report)."""
    if spans_path is None:
        out = op()
        return out, {"marker": marker()}
    tracer = Tracer()
    columns = instrument(tracer)
    tracer.active = True
    root = tracer.enter("op")
    try:
        out = op()
    finally:
        tracer.exit("op", root)
        tracer.active = False
    report = {"marker": marker()}
    layers = per_layer_metrics(tracer.spans, tracer.counts)
    layers.update(column_stats(columns))
    report["per_layer"] = layers
    with open(spans_path, "a", encoding="utf-8") as fh:
        tracer.write_jsonl(fh, op_id)
    # the parent subtracts this post-op work from a traced CLI op's time
    report["done"] = marker()
    return out, report


def cmd_fill(args) -> int:
    import heckekl

    def op():
        system = heckekl.coxeter_system(args.group, allow_large=True)
        cache = heckekl.KLCache(system)
        cache.fill()
        return heckekl.kl_matrix(cache)

    m, report = run_op(op, args.spans, args.op_id)
    system = m.system
    rng = random.Random(args.seed)
    band = [w for w in system.elements() if system.length(w) in SPOT_LENGTHS]
    oracle = heckekl.KLOracle(system)
    spot = []
    for _ in range(SPOT_PAIRS):
        w = rng.choice(band)
        x = system.element_from_word([g for g in system.word(w) if rng.random() < 0.5])
        spot.append([
            heckekl.format_word(system.word(x)),
            heckekl.format_word(system.word(w)),
            str(m.entry(x, w)),
            str(oracle.kl_poly(x, w)),
        ])
    report["digest"] = matrix_digest(m)
    report["spot"] = spot
    _write_json(args.report, report)
    # skip freeing the matrix at exit: nothing is left to flush
    os._exit(0)


def cmd_cli(args) -> int:
    from heckekl import cli

    code, report = run_op(lambda: cli.main(args.argv), args.spans, args.op_id)
    sys.stdout.flush()
    _write_json(args.report, report)
    return code


def cmd_cachecheck(args) -> int:
    """Load the single cache file in --cache-dir and digest its KL matrix.

    Every kl_column call is counted: a complete cache answers the matrix
    with one call per element, while a missing column is recomputed through
    further (recursive) calls.
    """
    import heckekl

    (path,) = [os.path.join(args.cache_dir, f) for f in os.listdir(args.cache_dir)]
    system = heckekl.coxeter_system(args.group)
    cache = heckekl.KLCache.load(path, system)
    calls = 0
    lookup = cache.kl_column

    def counting(w):
        nonlocal calls
        calls += 1
        return lookup(w)

    cache.kl_column = counting
    m = heckekl.kl_matrix(cache)
    _write_json(args.report, {"digest": matrix_digest(m), "complete": calls == system.order})
    return 0


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("fill")
    sp.add_argument("--group", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(fn=cmd_fill)

    sp = sub.add_parser("cli")
    sp.add_argument("argv", nargs=argparse.REMAINDER)
    sp.set_defaults(fn=cmd_cli)

    sp = sub.add_parser("cachecheck")
    sp.add_argument("--cache-dir", required=True)
    sp.add_argument("--group", required=True)
    sp.set_defaults(fn=cmd_cachecheck)

    for sp in sub.choices.values():
        sp.add_argument("--report", required=True)
        sp.add_argument("--spans", help="trace the op; append its spans to this file")
        sp.add_argument("--op-id", type=int, default=0)

    args = p.parse_args(argv)
    if args.cmd == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
