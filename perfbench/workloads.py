"""The four benchmark workloads: inputs, one timed pass, and the check.

Each workload drives the package only through public entry points
(``iharazeta.cli.run`` with stdout captured, or
``smallgraphs.connected_multigraphs``) and looks them up at call time, so
the tracer's wrappers are the ones called. Checks compare against frozen
references in references.json, derived from the seed code by
derive_references.py.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class CliResult:
    rc: int | None  # None when cli.run raised
    stdout: str
    stderr: str


def call_cli(argv) -> CliResult:
    """``iharazeta.cli.run(argv)`` with stdout and stderr captured."""
    from iharazeta import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    except Exception:  # a crash counts as a failed item, not a harness error
        return CliResult(None, out.getvalue(), traceback.format_exc())
    return CliResult(rc, out.getvalue(), err.getvalue())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def coeff_digest(coeffs) -> str:
    return sha256(",".join(str(c) for c in coeffs))


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


# --- seeded inputs ---

def complete_graph_text(n: int) -> str:
    return f"n {n}\n" + "".join(
        f"{i} {j}\n" for i in range(n) for j in range(i + 1, n)
    )


def random_multigraph_text(rng: random.Random, n: int, e: int) -> str:
    """Edge-list text of a connected multigraph of minimum degree 2 with
    n vertices and e >= n + 2 edges, at least one loop and one parallel
    pair: a Hamiltonian cycle in random order, one loop, one repeated
    cycle edge, then uniformly random pairs (loops allowed)."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    v = rng.randrange(n)
    edges.append((v, v))
    edges.append(edges[rng.randrange(n)])
    while len(edges) < e:
        edges.append((rng.randrange(n), rng.randrange(n)))
    rng.shuffle(edges)
    return f"n {n}\n" + "".join(f"{u} {w}\n" for u, w in edges)


# --- label-invariant fingerprint of a multigraph class ---

def class_fingerprint(g) -> str:
    """A hash that is equal for isomorphic multigraphs, built only from
    ``g.n`` and ``g.edge_list()``: colour refinement on (degree, loops)
    with edge multiplicities, plus closed-walk counts tr(A^k). It does not
    depend on the package's canonical form or internal tables, so a new
    canonical labelling or graph representation keeps the fingerprints."""
    n, edges = g.n, g.edge_list()
    a = [[0] * n for _ in range(n)]  # adjacency, 2 per loop on the diagonal
    for u, v in edges:
        a[u][v] += 1
        a[v][u] += 1
    colour = [(sum(a[v]), a[v][v]) for v in range(n)]
    rounds = []
    for _ in range(n):
        sig = [
            (colour[v], tuple(sorted((a[v][w], colour[w]) for w in range(n) if w != v and a[v][w])))
            for v in range(n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        rounds.append(tuple(sorted(sig)))
        colour = [ranks[s] for s in sig]
    power, traces = a, []
    for _ in range(2 * len(edges)):
        traces.append(sum(power[i][i] for i in range(n)))
        power = [[sum(power[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return sha256(repr((n, len(edges), rounds, traces)))[:16]


# --- workloads ---

class Sweep:
    """verify --max-edges 6: all three engines and the invariants per graph."""

    name = "sweep"
    items = 156  # graphs
    argv = ["verify", "--max-edges", "6", "--format", "json"]

    def setup(self, seed, workdir):
        return self.argv

    def reference(self, inputs):
        return None

    def run_pass(self, inputs):
        return call_cli(inputs)

    def check(self, result: CliResult, reference):
        out = _json_or_none(result.stdout) if result.rc is not None else None
        if (
            not isinstance(out, dict)
            or out.get("graphs") != self.items
            or out.get("enum_checked") != self.items
            or not isinstance(out.get("failures"), list)
        ):
            return self.items, [f"sweep: unexpected output rc={result.rc} {result.stderr[-300:]!r}"]
        failures = out["failures"]
        failed_graphs = len({str(f).split(": ", 1)[0] for f in failures})
        if result.rc != 0 and not failed_graphs:
            failed_graphs = 1
        notes = [f"sweep: {f}" for f in failures[:5]]
        if result.rc != 0:
            notes.append(f"sweep: exit code {result.rc}")
        return min(failed_graphs, self.items), notes


class Classes:
    """connected_multigraphs(7): canonical labelling does most of the work."""

    name = "classes"
    items = 489  # isomorphism classes
    max_edges = 7

    def setup(self, seed, workdir):
        return self.max_edges

    def reference(self, inputs):
        return load_references()["classes"]

    def run_pass(self, inputs):
        from iharazeta import smallgraphs

        try:
            return smallgraphs.connected_multigraphs(inputs)
        except Exception:
            return traceback.format_exc()

    def check(self, graphs, reference):
        if isinstance(graphs, str):
            return self.items, [f"classes: raised {graphs[-300:]!r}"]
        notes = []
        per_edges = Counter(str(len(g.edge_list())) for g in graphs)
        if dict(per_edges) != reference["per_edges"]:
            notes.append(f"classes: per-|E| counts {dict(per_edges)}")
        got = Counter(class_fingerprint(g) for g in graphs)
        want = Counter(reference["fingerprints"])
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        if missing or extra:
            notes.append(f"classes: {missing} missing, {extra} unexpected, {len(graphs)} returned")
        failed = max(missing, extra, 1 if notes else 0)
        return min(failed, self.items), notes


class Rank2:
    """rank2 --max-edges 16: 495 medium sparse Bass determinants."""

    name = "rank2"
    items = 495  # specs
    argv = ["rank2", "--max-edges", "16", "--format", "json"]

    def setup(self, seed, workdir):
        return self.argv

    def reference(self, inputs):
        return load_references()["rank2"]

    def run_pass(self, inputs):
        return call_cli(inputs)

    def check(self, result: CliResult, reference):
        if result.rc == 0 and sha256(result.stdout) == reference["stdout_sha256"]:
            return 0, []
        return self.items, [f"rank2: rc={result.rc}, stdout digest differs {result.stderr[-300:]!r}"]


class Large:
    """Four CLI calls on large inputs: the determinant layer "few and huge"."""

    name = "large"
    items = 4  # CLI calls

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        texts = {
            "k40": complete_graph_text(40),
            "k9": complete_graph_text(9),
            "random40": random_multigraph_text(rng, 40, 780),
            "random10": random_multigraph_text(rng, 10, 36),
        }
        paths = {}
        for key, text in texts.items():
            paths[key] = os.path.join(workdir, f"{key}.txt")
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        return [
            ("k40", ["zeta", "--engine", "bass", "--graph", paths["k40"], "--format", "json"]),
            ("k9", ["zeta", "--engine", "linedet", "--graph", paths["k9"], "--format", "json"]),
            ("trees", ["trees", "--graph", paths["random40"], "--format", "json"]),
            ("random10", ["zeta", "--engine", "linedet", "--graph", paths["random10"], "--format", "json"]),
        ]

    def reference(self, inputs):
        """Frozen K(n) digests, plus Bass on the seeded 10-vertex graph."""
        ref = dict(load_references()["large"])
        argv = dict(inputs)["random10"]
        bass = call_cli([a if a != "linedet" else "bass" for a in argv])
        out = _json_or_none(bass.stdout) if bass.rc == 0 else None
        ref["random10"] = coeff_digest(out["coeffs"]) if out else None
        return ref

    def run_pass(self, inputs):
        return [(key, call_cli(argv)) for key, argv in inputs]

    def check(self, results, reference):
        notes = []
        for key, result in results:
            out = _json_or_none(result.stdout) if result.rc == 0 else None
            if key == "trees":
                ok = (
                    isinstance(out, dict)
                    and out.get("agree") is True
                    and {"zeta-derivative", "kirchhoff"} <= set(out.get("methods", {}))
                )
            else:
                ok = (
                    isinstance(out, dict)
                    and reference[key] is not None
                    and coeff_digest(out.get("coeffs", ())) == reference[key]
                )
            if not ok:
                notes.append(f"large/{key}: rc={result.rc} {result.stderr[-300:]!r}")
        return len(notes), notes


WORKLOADS = {w.name: w for w in (Sweep(), Classes(), Rank2(), Large())}
