"""Command-line frontend.

Subcommands map one-to-one onto the library surface: zeta (engines on a
graph file), family (closed forms), trees (spanning-tree counts), rank2
(distinctness table), verify (zeta --engine all on every connected
multigraph up to --max-edges). zeta and verify run, compare and check the
engines in one place, _run_engines; each failed check is one line naming
it. Output is deterministic: no timestamps, fixed orderings, and json
mode re-serializes byte-identically.

Exit codes: 0 success, else the exit_code of the package error raised:
1 disagreement or violated cross-check (VerificationError), 2 bad input
(InputError), 3 size cap exceeded (SizeCapError). The sizes --max-edges
and --enum-cap are read as graph files and family specs are, by
multigraph._decimal, so a size such as "1_0" or one in non-ASCII digits
exits 2 from argparse before anything is generated.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import signal
import sys

from .errors import InputError, SizeCapError, VerificationError, ZetaError
from .families import (
    FAMILIES,
    closed_form,
    gen_family,
    parse_family_spec,
    tree_count_closed_form,
    verify_family,
)
from .intpoly import IntPoly
from .multigraph import (
    _decimal,
    format_edge_list,
    kirchhoff_tree_count,
    parse_edge_list_text,
    validate_zeta_input,
)
from .ranktwo import completeness_check
from .smallgraphs import connected_multigraphs
from .trees import tree_count_from_zeta
from .zeta import (
    DEFAULT_ENUM_CAP,
    poly_invariants,
    zeta_bass,
    zeta_enum,
    zeta_line_det,
)

_ENGINES = {"bass": zeta_bass, "linedet": zeta_line_det, "enum": zeta_enum}


def _load_graph(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_edge_list_text(text)


def _graph_json(g):
    return {
        "vertices": g.n,
        "edges": [[u, v] for u, v in g.edge_list()],
    }


def _coeff_strings(poly: IntPoly):
    return [str(c) for c in poly.coeffs]


def _poly_hash(poly: IntPoly) -> str:
    blob = ",".join(_coeff_strings(poly)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _emit_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_csv(header, rows):
    # the csv module quotes the fields that need it (rank2's spec strings)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _run_engines(g, names, enum_cap):
    """(polys, reasons): the named engines run on g, compared and checked.

    Order: enum runs first, so its SizeCapError (not caught) rejects g
    before any other engine runs. Fault: an engine's VerificationError
    (its output check, zeta._checked) becomes a reason and that engine
    gives no polynomial; the others still run. Comparison: polys holds
    the polynomials in names order, and each differing from the first
    gives "{name} != {first}".
    Invariants: poly_invariants checks that first polynomial once; a
    VerificationError becomes a reason. g passes iff reasons is empty.
    """
    polys, reasons = {}, []
    for name in sorted(names, key=lambda name: name != "enum"):
        kwargs = {"cap": enum_cap} if name == "enum" else {}
        try:
            polys[name] = _ENGINES[name](g, **kwargs)
        except VerificationError as exc:
            reasons.append(str(exc))
    polys = {name: polys[name] for name in names if name in polys}
    if polys:
        first, poly = next(iter(polys.items()))
        reasons += [f"{name} != {first}"
                    for name, p in polys.items() if p != poly]
        try:
            poly_invariants(poly, g)
        except VerificationError as exc:
            reasons.append(str(exc))
    return polys, reasons


def _cmd_zeta(args) -> int:
    g = _load_graph(args.graph)
    names = list(_ENGINES) if args.engine == "all" else [args.engine]
    try:
        polys, reasons = _run_engines(g, names, args.enum_cap)
    except SizeCapError as exc:  # only enum has a cap
        raise SizeCapError(
            f"{exc}; --enum-cap {2 * g.edge_count} allows it"
        ) from exc
    for reason in reasons:
        print(f"error: {reason}", file=sys.stderr)
    if reasons:
        return 1
    poly = polys[names[0]]
    if args.format == "json":
        _emit_json({
            "graph": _graph_json(g),
            "engine": args.engine,
            "coeffs": _coeff_strings(poly),
            "invariants": {
                "degree": poly.degree,
                "leading_coeff": str(poly.leading_coeff),
                "girth_readout": poly.first_nonzero_power(start=1),
                "even": poly.is_even(),
                "bipartite": poly.is_even(),  # poly_invariants checked the two agree
                "rank": g.rank,
            },
        })
    elif args.format == "csv":
        _emit_csv(("engine", "power", "coeff"),
                  ((name, k, c) for name, p in polys.items()
                   for k, c in enumerate(p.coeffs)))
    else:
        print(poly)
        if len(names) > 1:
            print(f"agreement: {' '.join(names)}")
    return 0


def _cmd_family(args) -> int:
    spec = parse_family_spec(args.spec)
    # a mismatch raises (exit 1) before any output
    form = verify_family(spec) if args.verify else closed_form(spec)
    if args.format == "json":
        body = {"type": "polynomial", "coeffs": _coeff_strings(form)}
        obj = {"spec": str(spec), "closed_form": body}
        if args.verify:
            obj["verify"] = "match"
        _emit_json(obj)
        return 0
    if args.format == "csv":
        _emit_csv(("power", "coeff"), enumerate(form.coeffs))
        return 0
    print(form)
    if args.verify:
        print("verify: MATCH (exact match)")
    return 0


def _cmd_trees(args) -> int:
    spec = None
    if args.spec is not None:
        spec = parse_family_spec(args.spec)
        g = gen_family(spec)
    else:
        g = _load_graph(args.graph)
    methods = []
    if spec is not None and FAMILIES[spec.tag].tree_count is not None:
        methods.append(("closed-form", tree_count_closed_form(spec)))
    # the standing hypotheses, before Kirchhoff: it alone would count the
    # trees of a graph with a degree-1 vertex. zeta_bass checks them
    # first, so a graph of rank >= 2 is checked once
    if g.rank >= 2:
        methods.append(("zeta-derivative",
                        tree_count_from_zeta(zeta_bass(g), g.rank)))
    else:
        validate_zeta_input(g)
    methods.append(("kirchhoff", kirchhoff_tree_count(g)))
    first, kappa = methods[0]
    differing = [name for name, v in methods if v != kappa]
    if args.format == "json":
        _emit_json({
            "graph": _graph_json(g),
            "methods": {name: str(v) for name, v in methods},
            "agree": not differing,
            "kappa": None if differing else str(kappa),
        })
    elif args.format == "csv":
        _emit_csv(("method", "kappa"), methods)
    else:
        for name, v in methods:
            print(f"{name}: {v}")
    for name in differing:
        print(f"error: {name} != {first}", file=sys.stderr)
    return 1 if differing else 0


def _cmd_rank2(args) -> int:
    # a bad decode or an inexact tree-count division raises: exit 1
    columns = ("spec", "edges", "leading_coeff", "girth_readout",
               "tree_count", "poly_hash")
    rows = [
        (str(spec), poly.degree // 2, str(poly.leading_coeff),
         poly.first_nonzero_power(start=1),
         str(tree_count_from_zeta(poly, 2)), _poly_hash(poly))
        for spec, poly in completeness_check(args.max_edges)
    ]
    if args.format == "json":
        _emit_json({
            "max_edges": args.max_edges,
            "count": len(rows),
            "rows": [dict(zip(columns, row)) for row in rows],
        })
    elif args.format == "csv":
        _emit_csv(columns, rows)
    else:
        print(f"{len(rows)} canonical rank-two graphs with at most "
              f"{args.max_edges} edges; all zeta polynomials distinct")
        print(f"{'spec':<14}{'|E|':>4}{'lead':>6}{'girth':>6}{'trees':>8}  hash")
        for row in rows:
            print("{:<14}{:>4}{:>6}{:>6}{:>8}  {}".format(*row))
    return 0


def _cmd_verify(args) -> int:
    # the sweep holds C(max_edges), whose line graph is its largest
    if 2 * args.max_edges > DEFAULT_ENUM_CAP:
        raise SizeCapError(
            f"enumeration engine capped at {DEFAULT_ENUM_CAP} line-graph "
            f"vertices, verify --max-edges {args.max_edges} reaches "
            f"{2 * args.max_edges}; --max-edges {DEFAULT_ENUM_CAP // 2} "
            "stays under it"
        )
    graphs = connected_multigraphs(args.max_edges)
    failures = []
    for g in graphs:
        _, reasons = _run_engines(g, list(_ENGINES), DEFAULT_ENUM_CAP)
        if reasons:
            # The label is the graph's edge-list text, so a failure replays
            # with `zeta --graph`; it has no ": ", the separator before the
            # reason in json output.
            label = format_edge_list(g).rstrip("\n")
            failures.extend((label, reason) for reason in reasons)
    if args.format == "json":
        _emit_json({
            "max_edges": args.max_edges,
            "graphs": len(graphs),
            "enum_checked": len(graphs),
            "failures": [f"{label}: {reason}" for label, reason in failures],
        })
    else:
        print(f"checked {len(graphs)} multigraphs with at most "
              f"{args.max_edges} edges ({len(graphs)} also via enum)")
        for label, reason in failures:
            print(f"FAIL {reason}")
            print(label)
        if not failures:
            print("all engines agree")
    return 1 if failures else 0


def _int_at_least(low):
    """argparse type for an int >= low: bad sizes exit 2 before any work.

    The text is read by multigraph._decimal, as graph files and family
    specs are, so "1_0" and non-ASCII digits are refused too."""
    def parse(text):
        value = _decimal(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="iharazeta",
        description="Reciprocal Ihara zeta polynomials of multigraphs, "
                    "computed exactly.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "json", "csv"),
                       default="human")

    z = sub.add_parser("zeta", help="zeta polynomial of a graph file")
    z.add_argument("--graph", required=True, metavar="FILE",
                   help="edge-list file ('n <count>' header, 'u v' lines)")
    z.add_argument("--engine", choices=(*_ENGINES, "all"),
                   default="bass")
    z.add_argument("--enum-cap", type=_int_at_least(0),
                   default=DEFAULT_ENUM_CAP,
                   help="largest directed-edge count the enum engine accepts")
    add_format(z)
    z.set_defaults(fn=_cmd_zeta)

    f = sub.add_parser("family", help="closed form for a family spec")
    f.add_argument("--spec", required=True, metavar="STR",
                   help="family string such as 'G(3,4)' or 'Kb(2,3)'")
    f.add_argument("--verify", action="store_true",
                   help="cross-check the closed form against an engine")
    add_format(f)
    f.set_defaults(fn=_cmd_family)

    t = sub.add_parser("trees", help="spanning-tree count by all methods")
    src = t.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", metavar="FILE")
    src.add_argument("--spec", metavar="STR")
    add_format(t)
    t.set_defaults(fn=_cmd_trees)

    r = sub.add_parser("rank2", help="rank-two distinctness table")
    r.add_argument("--max-edges", type=_int_at_least(1), required=True)
    add_format(r)
    r.set_defaults(fn=_cmd_rank2)

    v = sub.add_parser("verify", help="engine-agreement sweep")
    v.add_argument("--max-edges", type=_int_at_least(1), required=True)
    v.add_argument("--format", choices=("human", "json"), default="human")
    v.set_defaults(fn=_cmd_verify)
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main():
    # A reader that stops early (`| head`) ends the process quietly, as
    # for any Unix filter, instead of a BrokenPipeError read as exit 1.
    # Only the console entry point does this; run() leaves signals alone.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
