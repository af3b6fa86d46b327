"""Command-line front end: compute, export, and verify.

Subcommands: kl | restrict | hybrid | factorize | parabolic | verify.
Words are comma-separated generator indices ("1,2,1"); "e" is the identity.
Chains are "<"-separated subsets ("@<1<1,2"), where "@", "e", or an empty
field denote the empty set (the symbol U+2205 is also accepted).

main is the one run loop, in this order: parse the arguments; build the
group and its KLCache, loaded from --cache-dir when that holds a file for
the group; call the subcommand; write the cache back (only when the run
computed a column or the file is missing); emit the text to stdout or
--output.  A subcommand cmd_*(args) takes the one argparse namespace, with
the cache as args.cache, only computes, and returns (exit code, text); it
never touches the cache file or stdout.  An error in any step skips the
steps after it.

Exit codes: 0 success, 1 a checked property failed, 2 usage/parse/domain
error, an I/O error, or an unreadable or damaged cache file (one line on
stderr, no traceback).  Output is byte-deterministic for a fixed
invocation: elements appear in canonical (length, word) order and
polynomials use the fixed textual grammar from laurent.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from functools import reduce
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .coxeter import coxeter_system, format_word, parse_word
from .klbasis import KLCache
from .hybrid import (
    HybridBasisSpec,
    csv_grid,
    csv_rows,
    factorize_chain,
    hybrid_element,
    kl_matrix,
    matmul,
    parabolic_kl,
    restriction_coeffs,
    sparse_entries,
)
from .laurent import ExactnessError, ZERO
from .verification import crystallographic_note, run_suite

_EMPTY_TOKENS = {"", "e", "@", "∅"}


def _parse_subset(text: str) -> frozenset[int]:
    text = text.strip()
    if text in _EMPTY_TOKENS:
        return frozenset()
    out = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not (tok.isascii() and tok.isdigit()):  # "²".isdigit() too, but int() rejects it
            raise ValueError(f"invalid generator index {tok!r} in subset {text!r}")
        out.add(int(tok))
    return frozenset(out)


def _parse_chain(text: str) -> list[frozenset[int]]:
    return [_parse_subset(part) for part in text.split("<")]


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2) + newline, byte for byte, for a tree (no
    cycles), with C-level passes for int lists and lists of [int, int, x]
    entries.  Each str-keyed dict is rendered once per depth, so a polynomial
    dict shared by many entries costs one rendering; other values go through
    json.dumps itself."""
    memo: dict[tuple[int, int], str] = {}  # (id, depth) -> text; obj keeps every id alive

    def enc(o, depth: int) -> str:
        t = type(o)
        if t is str:
            return encode_basestring_ascii(o)
        if t is int:
            return int.__repr__(o)
        if (t is not list and t is not tuple and (t is not dict or not {*map(type, o)} <= {str})) or not o:
            return json.dumps(o, indent=2).replace("\n", "\n" + "  " * depth)
        if t is not dict:  # only the polynomial dicts are shared
            return container(o, depth)
        key = (id(o), depth)
        if key not in memo:
            memo[key] = container(o, depth)
        return memo[key]

    def container(o, depth: int) -> str:
        ind, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        if type(o) is dict:
            return "{" + ind + ("," + ind).join(f"{enc(k, 0)}: {enc(v, depth + 1)}" for k, v in o.items()) + close + "}"
        types = {*map(type, o)}
        if types == {int}:
            return "[" + ind + ("," + ind).join(map(int.__repr__, o)) + close + "]"
        if types == {list} and {*map(len, o)} == {3}:
            r, c, x = ([*map(itemgetter(k), o)] for k in range(3))
            if {*map(type, r + c)} == {int}:  # [int, int, x] entries, each x object rendered once
                sub = "\n" + "  " * (depth + 2)
                text = {k: enc(p, depth + 2) for k, p in dict(zip(map(id, x), x)).items()}
                cells = zip(map(int.__repr__, r), map(int.__repr__, c), map(text.__getitem__, map(id, x)))
                head, tail = "[" + sub, ind + "]"
                return "[" + ind + head + (tail + "," + ind + head).join(map(("," + sub).join, cells)) + tail + close + "]"
        return "[" + ind + ("," + ind).join(enc(x, depth + 1) for x in o) + close + "]"

    return enc(obj, 0) + "\n"


def _cache_path(args, system) -> Path | None:
    return Path(args.cache_dir) / f"{system.type_string}.klcache.gz" if args.cache_dir else None


def _make_cache(args) -> KLCache:
    system = coxeter_system(args.group, allow_large=args.allow_large)
    path = _cache_path(args, system)
    return KLCache.load(path, system) if path and path.exists() else KLCache(system)


def _save_cache(args) -> None:
    """Write the cache back, unless it was loaded from that file and gained no column."""
    cache = args.cache
    path = _cache_path(args, cache.system)
    if path and (cache.computed or not path.exists()):
        path.parent.mkdir(parents=True, exist_ok=True)
        cache.save(path)


def _word(sys_, w) -> str:
    return format_word(sys_.word(w))


def _pairs(sys_, terms) -> list[tuple[str, str]]:
    """(word, poly) text pairs of a sparse {element: poly} map, in canonical order."""
    return [(_word(sys_, x), str(terms[x])) for x in sorted(terms, key=sys_.sort_key)]


def _table(args, obj: dict, header: str, rows) -> str:
    """obj as JSON, or rows as CSV under the header line."""
    return _json_text(obj) if args.format == "json" else csv_rows(header, rows)


# ---------------------------------------------------------------------------
# subcommands: compute from args (args.cache included), return (exit code, text)
# ---------------------------------------------------------------------------


def cmd_kl(args) -> tuple[int, str]:
    sys_ = args.cache.system
    if args.w is None:
        m = kl_matrix(args.cache)
        return 0, _json_text(m.to_json_obj()) if args.format == "json" else m.to_csv()
    w = sys_.element_from_word(parse_word(args.w))
    col = args.cache.kl_column(w)
    rows = [(_word(sys_, x), str(col.get(x, ZERO))) for x in sys_.elements()]
    obj = {
        "group": sys_.type_string,
        "w": _word(sys_, w),
        "order": [x for x, _ in rows],
        "column": [c for _, c in rows],
    }
    return 0, _table(args, obj, "x,coeff", rows)


def cmd_restrict(args) -> tuple[int, str]:
    sys_ = args.cache.system
    J = _parse_subset(args.J)
    u = sys_.element_from_word(parse_word(args.u))
    w = sys_.element_from_word(parse_word(args.w))
    rows = _pairs(sys_, restriction_coeffs(args.cache, u, w, J))
    obj = {
        "group": sys_.type_string,
        "J": sorted(J),
        "u": _word(sys_, u),
        "w": _word(sys_, w),
        "coeffs": rows,
    }
    return 0, _table(args, obj, "v,coeff", rows)


def cmd_hybrid(args) -> tuple[int, str]:
    sys_ = args.cache.system
    spec = HybridBasisSpec(_parse_subset(args.J), args.orientation)
    w = sys_.element_from_word(parse_word(args.w))
    rows = _pairs(sys_, hybrid_element(args.cache, spec, w).terms)
    obj = {
        "group": sys_.type_string,
        "J": sorted(spec.J),
        "orientation": spec.orientation,
        "w": _word(sys_, w),
        "terms": rows,
    }
    return 0, _table(args, obj, "x,coeff", rows)


def cmd_factorize(args) -> tuple[int, str]:
    factors = factorize_chain(args.cache, _parse_chain(args.chain) if args.chain else None)
    # the product is dropped once compared, so it is not held through serialization
    equal = reduce(matmul, factors).same_entries(kl_matrix(args.cache))
    nonneg = all(m.is_nonneg_poly_matrix() for m in factors)
    code = 0 if (equal and nonneg) else 1
    if args.format == "json":
        obj = {
            "group": args.cache.system.type_string,
            "chain": [sorted(m.I) for m in factors] + [sorted(factors[-1].J)],
            "factors": [m.to_json_obj() for m in factors],
            "product_equals_kl": equal,
            "nonnegative": nonneg,
        }
        return code, _json_text(obj)
    text = "".join(
        f"# factor {k}: I={sorted(m.I)} J={sorted(m.J)}\n" + m.to_csv()
        for k, m in enumerate(factors, 1)
    )
    return code, text + f"product_equals_kl,{equal}\nnonnegative,{nonneg}\n".lower()


def cmd_parabolic(args) -> tuple[int, str]:
    sys_ = args.cache.system
    J = _parse_subset(args.J)
    P = parabolic_kl(args.cache, J)
    reps = sys_.min_coset_reps(J, "left")
    order = [_word(sys_, u) for u in reps]
    cols = {u2: {} for u2 in reps}
    for (u, u2), p in P.items():
        cols[u2][u] = p
    if args.format == "csv":
        return 0, csv_grid("u\\u'", order, reps, cols.values())
    obj = {"group": sys_.type_string, "J": sorted(J), "order": order, "entries": sparse_entries(reps, cols.items())}
    return 0, _json_text(obj)


def cmd_verify(args) -> tuple[int, str]:
    sys_ = args.cache.system
    results = run_suite(args.cache, args.suite)
    note = crystallographic_note(sys_)
    all_passed = all(r.passed for r in results)
    obj = {
        "group": sys_.type_string,
        "suite": args.suite,
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all_passed,
    }
    if note:
        obj["note"] = note
    rows = [(r.name, str(r.passed).lower(), r.detail) for r in results]
    rows.append(("all_passed", str(all_passed).lower(), note or ""))
    return (0 if all_passed else 1), _table(args, obj, "name,passed,detail", rows)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", required=True, help="group type string, e.g. A3, B3, I2(7)")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--output", help="write output to this path instead of stdout")
    common.add_argument("--cache-dir", help="directory for persistent KL caches (opt-in)")
    common.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    common.add_argument(
        "--allow-large", action="store_true", help="lift the desk-scale group size bound"
    )

    p = argparse.ArgumentParser(
        prog="heckekl",
        description="Exact Hecke-algebra computations: KL bases, parabolic restriction, "
        "hybrid bases, and transition-matrix factorizations.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("kl", parents=[common], help="KL basis column or full matrix")
    sp.add_argument("--w", help="reduced word; omit for the full matrix")
    sp.set_defaults(fn=cmd_kl)

    sp = sub.add_parser("restrict", parents=[common], help="restriction coefficients over W_J")
    sp.add_argument("--J", required=True, help="parabolic subset, e.g. 1,2")
    sp.add_argument("--u", default="e", help="minimal coset representative word")
    sp.add_argument("--w", required=True, help="word for the KL element")
    sp.set_defaults(fn=cmd_restrict)

    sp = sub.add_parser("hybrid", parents=[common], help="hybrid basis element in T-coordinates")
    sp.add_argument("--J", required=True)
    sp.add_argument("--w", required=True)
    sp.add_argument("--orientation", choices=["TC", "CT"], default="TC")
    sp.set_defaults(fn=cmd_hybrid)

    sp = sub.add_parser("factorize", parents=[common], help="chain factorization of the KL matrix")
    sp.add_argument("--chain", help='increasing subsets, e.g. "@<1<1,2" (default singleton steps)')
    sp.set_defaults(fn=cmd_factorize)

    sp = sub.add_parser("parabolic", parents=[common], help="parabolic KL matrix over W^J")
    sp.add_argument("--J", required=True)
    sp.set_defaults(fn=cmd_parabolic)

    sp = sub.add_parser("verify", parents=[common], help="run named property checks")
    sp.add_argument(
        "--suite", choices=["all", "positivity", "oracles", "involutions"], default="all"
    )
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        args.cache = _make_cache(args)
        code, text = args.fn(args)
        _save_cache(args)
        _emit(args, text)
    # OSError covers gzip.BadGzipFile; ExactnessError is the KL guard on a damaged loaded column
    except (ValueError, OSError, EOFError, zlib.error, ExactnessError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
