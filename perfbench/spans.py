"""Span recording and self-time arithmetic for traced benchmark runs.

Standard library only, and no import of heckekl, so the parent process and
the tests can use it without loading the program under test.

A span is one call across a layer boundary: a name, a start and end time
(``time.perf_counter`` seconds in the recording process) and the index of
the span that was open when it started.  Spans are kept in memory while an
op runs and written out when it ends.  A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
import time


class Tracer:
    """In-memory span and counter store for one op.

    Spans are nested by call order.  A name that is already open (a
    recursive call, or one layer function calling another of the same
    layer) records no new span: only the outermost call gets one, so the
    inner calls' time stays in its self time.  Counters are kept apart from
    spans, so every call can be counted even where it gets no span.
    """

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def enter(self, name: str) -> int | None:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        if depth:
            return None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), None, parent])
        return idx

    def exit(self, name: str, idx: int | None, rename: str | None = None) -> None:
        self._depth[name] -= 1
        if idx is None:
            return
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if rename is not None:
            span[0] = rename
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def write_jsonl(self, fh, op_id: int) -> None:
        """Append the spans as JSON lines: name, start, end, parent, op id."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            rec = {"op": op_id, "id": i, "name": name, "start": start, "end": end, "parent": parent}
            fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Self time of every span in ``spans`` (rows of name, start, end, parent).

    The covered part is the union of the children's intervals clipped to
    the parent's, so overlapping or overhanging children are not counted
    twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        clipped = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        )
        covered = 0.0
        run_start = run_end = None
        for s, e in clipped:
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def sum_by_name(spans, values) -> dict[str, float]:
    """Total of ``values`` (one per span) per span name."""
    out: dict[str, float] = {}
    for span, v in zip(spans, values):
        out[span[0]] = out.get(span[0], 0.0) + v
    return out


# Per-layer metrics.  Layers are the heckekl modules; the span names are
# the ones opchild.instrument records.  A layer's time is the self time of
# its spans, so time spent in a callee that has its own span is not counted
# twice; the laurent arithmetic has no span and sits in its callers' self
# time.  The KL recursion has two entry points (KLCache.fill and an
# on-demand KLCache.kl_column), both counted as fill time.
SELF_TIME_METRICS = {
    "coxeter.build_s": ("coxeter.build",),
    "klbasis.fill_s": ("klbasis.fill", "klbasis.kl_column"),
    "klbasis.load_s": ("klbasis.load",),
    "klbasis.save_s": ("klbasis.save",),
    "klbasis.oracle_s": ("klbasis.oracle",),
    "hybrid.transition_s": ("hybrid.transition",),
    "hybrid.matmul_s": ("hybrid.matmul",),
    "hybrid.compare_s": ("hybrid.compare",),
    "hybrid.parabolic_kl_s": ("hybrid.parabolic_kl",),
    "hybrid.expand_s": ("hybrid.expand",),
    "hecke.mul_s": ("hecke.mul",),
    "hecke.bar_s": ("hecke.bar",),
    "hecke.form_s": ("hecke.form",),
    "oracles.self_s": ("oracles",),
    "cli.serialize_s": ("cli.serialize",),
    # time inside the op not covered by any layer span
    "trace.root_self_s": ("op",),
}

# counters recorded by the instrumentation, with their units
COUNT_METRICS = {
    "coxeter.elements": "count",
    "klbasis.entries": "count",
    "klbasis.max_coeff_bits": "bits",
    "klbasis.max_degree": "count",
    "klbasis.cache_file_bytes": "bytes",
    "klbasis.kl_column_calls": "count",
    "hybrid.factor_entries": "count",
    "hybrid.restriction_calls": "count",
    "hecke.mul_calls": "count",
    "hecke.bar_calls": "count",
    "cli.output_bytes": "bytes",
}

# names of the verify checks; each check's metric is the whole duration of
# its span (the time `verify` spends on it), not its self time
CHECKS = (
    "bar_involution",
    "bar_multiplicative",
    "psi_involution_commutes_with_bar",
    "omega_inverts_standard_basis",
    "form_orthonormal_and_adjoint",
    "kl_self_dual",
    "psi_maps_kl_to_inverse",
    "kl_nonneg_in_degree_window",
    "restriction_coeffs_nonneg",
    "transition_matrix_nonneg",
    "chain_factorization_exact",
    "kl_times_hybrid_nonneg",
    "kl_two_recursions_agree",
    "parabolic_kl_two_constructions_agree",
    "dihedral_closed_form",
    "type_a_closed_forms",
    "interval_restriction_formula",
    "interval_element_vs_kl",
    "coset_orthogonality",
    "t_shift_of_hybrid_basis",
    "restriction_vanishing_and_support",
    "psi_transport_tc_to_ct",
    "hybrid_unitriangular_support",
    "sign_projection_is_module_map",
)

# traced op time over the untraced op_s, computed by the parent
OVERHEAD_METRIC = "trace.overhead_ratio"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in SELF_TIME_METRICS}
    units.update(COUNT_METRICS)
    units.update({f"verification.{c}_s": "s" for c in CHECKS})
    units[OVERHEAD_METRIC] = "ratio"
    return units


def per_layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer metrics of one traced op, except the overhead ratio.

    Layers that did no work in the op read 0.
    """
    selfs = sum_by_name(spans, self_times(spans))
    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(selfs.get(n, 0.0) for n in names)
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    totals = sum_by_name(spans, [end - start for _, start, end, _ in spans])
    for c in CHECKS:
        out[f"verification.{c}_s"] = totals.get(f"verification.{c}", 0.0)
    return out
