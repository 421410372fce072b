"""Command-line frontend.

Subcommands map one-to-one onto the library surface: zeta (engines on a
graph file), family (closed forms), trees (spanning-tree counts), rank2
(distinctness table), verify (engine-agreement sweep). Output is
deterministic: no timestamps, fixed orderings, and json mode re-serializes
byte-identically.

Exit codes: 0 success, 1 disagreement or violated cross-check, 2 bad
input, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import signal
import sys

from .errors import (
    ConsistencyError,
    GraphValidationError,
    InputError,
    SizeCapError,
    VerificationError,
)
from .families import (
    FAMILIES,
    closed_form,
    gen_family,
    parse_family_spec,
    tree_count_closed_form,
    verify_family,
)
from .intpoly import IntPoly, format_poly
from .multigraph import (
    build_multigraph,
    format_edge_list,
    kirchhoff_tree_count,
    parse_edge_list,
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
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    n_vertices, edges = parse_edge_list(text)
    # min degree 2 implies |V| <= |E|; checked before any |V| x |V| table
    if n_vertices > len(edges):
        raise GraphValidationError(
            f"graph has {n_vertices} vertices but {len(edges)} edges; a "
            "connected graph of min degree 2 needs |V| <= |E|"
        )
    g = build_multigraph(edges, n_vertices)
    validate_zeta_input(g)
    return g


def _graph_json(g):
    return {
        "vertices": g.n,
        "edges": [[u, v] for u, v in g.edge_list()],
    }


def _coeff_strings(poly: IntPoly):
    return [str(poly.coeff(k)) for k in range(poly.degree + 1)]


def _poly_hash(poly: IntPoly) -> str:
    blob = ",".join(_coeff_strings(poly)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _emit_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_zeta(args) -> int:
    g = _load_graph(args.graph)
    names = list(_ENGINES) if args.engine == "all" else [args.engine]
    polys = {}
    # enum first, so that its size cap rejects a graph before any other
    # engine has run
    for name in sorted(names, key=lambda name: name != "enum"):
        fn = _ENGINES[name]
        try:
            polys[name] = fn(g) if name != "enum" else fn(g, cap=args.enum_cap)
        except SizeCapError as exc:  # only enum has a cap
            raise SizeCapError(
                f"{exc}; --enum-cap {2 * g.edge_count} allows it"
            ) from exc
    polys = [polys[name] for name in names]
    poly = polys[0]
    if any(p != poly for p in polys):
        for name, p in zip(names, polys):
            print(f"{name}: {format_poly(p)}", file=sys.stderr)
        print("engines disagree", file=sys.stderr)
        return 1
    poly_invariants(poly, g)  # raises on violation -> exit 1
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
        print("engine,power,coeff")
        for name, p in zip(names, polys):
            for k in range(p.degree + 1):
                print(f"{name},{k},{p.coeff(k)}")
    else:
        print(format_poly(poly))
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
        print("power,coeff")
        for k in range(form.degree + 1):
            print(f"{k},{form.coeff(k)}")
        return 0
    print(format_poly(form))
    if args.verify:
        print("verify: MATCH (exact match)")
    return 0


def _cmd_trees(args) -> int:
    spec = None
    if args.spec is not None:
        spec = parse_family_spec(args.spec)
        g = gen_family(spec)
        validate_zeta_input(g)
    else:
        g = _load_graph(args.graph)
    methods = []
    if spec is not None and FAMILIES[spec.tag].tree_count is not None:
        methods.append(("closed-form", tree_count_closed_form(spec)))
    if g.rank >= 2:
        kappa = tree_count_from_zeta(zeta_bass(g), g.rank)
        methods.append(("zeta-derivative", kappa))
    methods.append(("kirchhoff", kirchhoff_tree_count(g)))
    values = {v for _, v in methods}
    agree = len(values) == 1
    if args.format == "json":
        _emit_json({
            "graph": _graph_json(g),
            "methods": {name: str(v) for name, v in methods},
            "agree": agree,
            "kappa": str(methods[-1][1]) if agree else None,
        })
    elif args.format == "csv":
        print("method,kappa")
        for name, v in methods:
            print(f"{name},{v}")
    else:
        for name, v in methods:
            print(f"{name}: {v}")
        if not agree:
            print("DISAGREEMENT", file=sys.stderr)
    return 0 if agree else 1


def _cmd_rank2(args) -> int:
    checked = completeness_check(args.max_edges)  # bad decode raises: exit 1
    rows = [
        {
            "spec": str(r.spec),
            "edges": r.edge_count,
            "leading_coeff": str(r.poly.leading_coeff),
            "girth_readout": r.poly.first_nonzero_power(start=1),
            "tree_count": str(r.tree_count),
            "poly_hash": _poly_hash(r.poly),
        }
        for r in checked
    ]
    if args.format == "json":
        _emit_json({
            "max_edges": args.max_edges,
            "count": len(rows),
            "rows": rows,
        })
    elif args.format == "csv":
        # spec strings contain commas, so let the csv module quote them
        columns = ("spec", "edges", "leading_coeff", "girth_readout",
                   "tree_count", "poly_hash")
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([r[k] for k in columns])
    else:
        print(f"{len(rows)} canonical rank-two graphs with at most "
              f"{args.max_edges} edges; all zeta polynomials distinct")
        header = f"{'spec':<14}{'|E|':>4}{'lead':>6}{'girth':>6}{'trees':>8}  hash"
        print(header)
        for r in rows:
            print(f"{r['spec']:<14}{r['edges']:>4}{r['leading_coeff']:>6}"
                  f"{r['girth_readout']:>6}{r['tree_count']:>8}  {r['poly_hash']}")
    return 0


def _engine_or_fault(reasons, engine, g, **kwargs):
    """engine(g, **kwargs), or None with its failed output check in reasons."""
    try:
        return engine(g, **kwargs)
    except ConsistencyError as exc:
        reasons.append(str(exc))
        return None


def _cmd_verify(args) -> int:
    graphs = connected_multigraphs(args.max_edges)
    failures = []
    enum_checked = 0
    for g in graphs:
        reasons = []
        bass = _engine_or_fault(reasons, zeta_bass, g)
        line = _engine_or_fault(reasons, zeta_line_det, g)
        if None not in (bass, line) and bass != line:
            reasons.append("bass != linedet")
        if 2 * g.edge_count <= args.enum_cap:
            enum = _engine_or_fault(reasons, zeta_enum, g, cap=args.enum_cap)
            enum_checked += 1
            if None not in (enum, bass) and enum != bass:
                reasons.append("enum != bass")
        if bass is not None:
            try:
                poly_invariants(bass, g)
            except VerificationError as exc:
                reasons.append(str(exc))
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
            "enum_checked": enum_checked,
            "failures": [f"{label}: {reason}" for label, reason in failures],
        })
    else:
        print(f"checked {len(graphs)} multigraphs with at most "
              f"{args.max_edges} edges ({enum_checked} also via enum)")
        for label, reason in failures:
            print(f"FAIL {reason}")
            print(label)
        if not failures:
            print("all engines agree")
    return 1 if failures else 0


def _int_at_least(low):
    """argparse type for an int >= low: bad sizes exit 2 before any work."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
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
    z.add_argument("--engine", choices=("bass", "linedet", "enum", "all"),
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
    r.add_argument("--max-edges", type=int, required=True)
    add_format(r)
    r.set_defaults(fn=_cmd_rank2)

    v = sub.add_parser("verify", help="engine-agreement sweep")
    v.add_argument("--max-edges", type=_int_at_least(1), required=True)
    v.add_argument("--enum-cap", type=_int_at_least(0),
                   default=DEFAULT_ENUM_CAP)
    v.add_argument("--format", choices=("human", "json"), default="human")
    v.set_defaults(fn=_cmd_verify)
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, GraphValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    # A reader that stops early (`| head`) ends the process quietly, as
    # for any Unix filter, instead of a BrokenPipeError read as exit 1.
    # Only the console entry point does this; run() leaves signals alone.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
