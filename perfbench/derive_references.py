"""Derive the frozen references in references.json from the package code.

Run once, from the root of a checkout of the commit the references are
taken from, and name that commit:

    python3 perfbench/derive_references.py --source <commit> > perfbench/references.json

- classes: count, per-|E| counts and label-invariant fingerprints of
  connected_multigraphs(7);
- rank2:   sha256 of the stdout of ``rank2 --max-edges 16 --format json``;
- large:   coefficient digests of closed_form(Complete(n)) for n = 40 and 9,
           asserted equal to the CLI's Bass and linedet output.

The sweep reference (156 graphs, all enum-checked, no failures) is a
constant in workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--source", required=True, help="commit the references are taken from")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from iharazeta.families import closed_form, family_spec
    from iharazeta.smallgraphs import connected_multigraphs

    from workloads import (
        WORKLOADS,
        call_cli,
        class_fingerprint,
        coeff_digest,
        complete_graph_text,
        sha256,
    )

    graphs = connected_multigraphs(WORKLOADS["classes"].max_edges)
    fingerprints = sorted(class_fingerprint(g) for g in graphs)
    classes = {
        "count": len(graphs),
        "per_edges": dict(sorted(Counter(str(len(g.edge_list())) for g in graphs).items())),
        "distinct_fingerprints": len(set(fingerprints)),
        "digest": sha256(",".join(fingerprints)),
        "fingerprints": fingerprints,
    }

    rank2 = call_cli(WORKLOADS["rank2"].argv)
    if rank2.rc != 0:
        raise SystemExit(f"rank2 failed: {rank2.stderr}")

    large = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for key, n, engine in (("k40", 40, "bass"), ("k9", 9, "linedet")):
            form = closed_form(family_spec("Complete", n))
            large[key] = coeff_digest(form.coeff(k) for k in range(form.degree + 1))
            path = os.path.join(tmp, f"{key}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(complete_graph_text(n))
            res = call_cli(["zeta", "--engine", engine, "--graph", path, "--format", "json"])
            if res.rc != 0 or coeff_digest(json.loads(res.stdout)["coeffs"]) != large[key]:
                raise SystemExit(f"{key}: CLI output differs from closed_form: {res.stderr}")

    print(json.dumps({
        "derivation": {
            "source": args.source,
            "python": sys.version.split()[0],
            "command": "python3 perfbench/derive_references.py --source " + args.source,
        },
        "classes": classes,
        "rank2": {"stdout_sha256": sha256(rank2.stdout), "bytes": len(rank2.stdout)},
        "large": large,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
