"""Per-layer metrics: which package functions are traced and what each
traced span contributes to the report.

Every ``*_s`` metric of a span is its self time per pass, so the time
metrics of one traced run partition its traced wall time. README.md maps
each metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics

# (module, public function, span name)
TARGETS = (
    ("iharazeta.cli", "run", "cli.run"),
    ("iharazeta.smallgraphs", "connected_multigraphs", "smallgraphs.connected_multigraphs"),
    ("iharazeta.smallgraphs", "canonical_key", "smallgraphs.canonical_key"),
    ("iharazeta.zeta", "zeta_enum", "zeta.zeta_enum"),
    ("iharazeta.zeta", "zeta_bass", "zeta.zeta_bass"),
    ("iharazeta.zeta", "zeta_line_det", "zeta.zeta_line_det"),
    ("iharazeta.zeta", "oriented_line_graph", "zeta.oriented_line_graph"),
    ("iharazeta.zeta", "poly_invariants", "zeta.poly_invariants"),
    ("iharazeta.polydet", "det_poly_matrix", "polydet.det_poly_matrix"),
    ("iharazeta.polydet", "bareiss_int_det", "polydet.bareiss_int_det"),
    ("iharazeta.intpoly", "lagrange_interpolate", "intpoly.lagrange_interpolate"),
    ("iharazeta.multigraph", "parse_edge_list_text", "multigraph.parse_edge_list_text"),
    ("iharazeta.multigraph", "validate_zeta_input", "multigraph.validate_zeta_input"),
    ("iharazeta.multigraph", "kirchhoff_tree_count", "multigraph.kirchhoff_tree_count"),
    ("iharazeta.families", "gen_family", "families.gen_family"),
    ("iharazeta.ranktwo", "enumerate_rank2", "ranktwo.enumerate_rank2"),
    ("iharazeta.ranktwo", "completeness_check", "ranktwo.completeness_check"),
    ("iharazeta.trees", "tree_count_from_zeta", "trees.tree_count_from_zeta"),
)

# (metric, unit, span, kind). Kinds: "self" seconds of self time per pass;
# "calls" per pass; "p90_ms" 90th percentile of per-call self time;
# "items" summed len() of the span's results per pass; "coeff_bits" the
# largest coefficient, in bits, of any polynomial the span returned.
METRICS = (
    ("cli.self_s", "s", "cli.run", "self"),
    ("smallgraphs.generate_self_s", "s", "smallgraphs.connected_multigraphs", "self"),
    ("smallgraphs.classes", "count", "smallgraphs.connected_multigraphs", "items"),
    ("smallgraphs.canonical_key_s", "s", "smallgraphs.canonical_key", "self"),
    ("smallgraphs.canonical_key_calls", "count", "smallgraphs.canonical_key", "calls"),
    ("zeta.enum_s", "s", "zeta.zeta_enum", "self"),
    ("zeta.enum_calls", "count", "zeta.zeta_enum", "calls"),
    ("zeta.enum_p90_ms", "ms", "zeta.zeta_enum", "p90_ms"),
    ("zeta.bass_self_s", "s", "zeta.zeta_bass", "self"),
    ("zeta.bass_calls", "count", "zeta.zeta_bass", "calls"),
    ("zeta.linedet_self_s", "s", "zeta.zeta_line_det", "self"),
    ("zeta.linedet_calls", "count", "zeta.zeta_line_det", "calls"),
    ("zeta.oriented_line_graph_s", "s", "zeta.oriented_line_graph", "self"),
    ("zeta.oriented_line_graph_calls", "count", "zeta.oriented_line_graph", "calls"),
    ("zeta.invariants_s", "s", "zeta.poly_invariants", "self"),
    ("zeta.invariants_calls", "count", "zeta.poly_invariants", "calls"),
    ("polydet.det_poly_matrix_self_s", "s", "polydet.det_poly_matrix", "self"),
    ("polydet.det_calls", "count", "polydet.det_poly_matrix", "calls"),
    ("polydet.bareiss_s", "s", "polydet.bareiss_int_det", "self"),
    ("polydet.bareiss_calls", "count", "polydet.bareiss_int_det", "calls"),
    ("intpoly.lagrange_s", "s", "intpoly.lagrange_interpolate", "self"),
    ("intpoly.lagrange_calls", "count", "intpoly.lagrange_interpolate", "calls"),
    ("intpoly.max_coeff_bits", "bits", "polydet.det_poly_matrix", "coeff_bits"),
    ("multigraph.parse_s", "s", "multigraph.parse_edge_list_text", "self"),
    ("multigraph.validate_s", "s", "multigraph.validate_zeta_input", "self"),
    ("multigraph.validate_calls", "count", "multigraph.validate_zeta_input", "calls"),
    ("multigraph.kirchhoff_s", "s", "multigraph.kirchhoff_tree_count", "self"),
    ("families.gen_family_s", "s", "families.gen_family", "self"),
    ("ranktwo.enumerate_s", "s", "ranktwo.enumerate_rank2", "self"),
    ("ranktwo.specs", "count", "ranktwo.enumerate_rank2", "items"),
    ("ranktwo.check_self_s", "s", "ranktwo.completeness_check", "self"),
    ("trees.from_zeta_s", "s", "trees.tree_count_from_zeta", "self"),
)

# Computed by the worker from the traced and untraced passes.
TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

_ITEM_SPANS = {span for _, _, span, kind in METRICS if kind == "items"}
_BITS_SPANS = {span for _, _, span, kind in METRICS if kind == "coeff_bits"}


class ResultCounter:
    """on_result hook: counts returned items and the widest coefficient."""

    def __init__(self):
        self.items: dict[str, int] = {}
        self.bits: dict[str, int] = {}

    def __call__(self, span, result):
        if span in _ITEM_SPANS:
            self.items[span] = self.items.get(span, 0) + len(result)
        elif span in _BITS_SPANS:
            widest = max(
                (abs(result.coeff(k)).bit_length() for k in range(result.degree + 1)),
                default=0,
            )
            self.bits[span] = max(self.bits.get(span, 0), widest)


def layer_metrics(tracer, counter: ResultCounter, passes: int, absent_spans, speed):
    """Per-pass values of every METRICS entry, times multiplied by
    ``speed``, and the metrics that are absent because their function no
    longer exists (reported as 0)."""
    values, absent = {}, []
    for name, unit, span, kind in METRICS:
        if span in absent_spans:
            absent.append(name)
        times = tracer.self_times.get(span, [])
        if kind == "self":
            v = speed * sum(times) / passes
        elif kind == "calls":
            v = len(times) / passes
        elif kind == "p90_ms":
            v = 1000 * speed * _p90(times)
        elif kind == "items":
            v = counter.items.get(span, 0) / passes
        else:
            v = counter.bits.get(span, 0)
        values[name] = {"value": v, "unit": unit}
    return values, absent


def _p90(samples):
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=10)[-1]
