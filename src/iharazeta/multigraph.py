"""Undirected multigraphs with loops, and their structural invariants.

The central input object of the package. Vertices are dense 0-indexed
integers; parallel edges live in a symmetric multiplicity table and loops in
a per-vertex counter. Degree follows the convention that a loop adds 2 (so
the adjacency matrix gets 2 on the diagonal per loop), which is load-bearing
for engine agreement on bouquets and dumbbells.

Everything here is immutable; a Multigraph can be hashed and used as a
dictionary key.
"""

from __future__ import annotations

from collections import deque

from .errors import GraphValidationError, InputError
from .polydet import bareiss_int_det


class Multigraph:
    """Immutable multigraph: loop counts plus a symmetric multiplicity table."""

    __slots__ = ("n", "loops", "mult")

    def __init__(self, n: int, loops, mult):
        if n < 1:
            raise InputError("a multigraph needs at least one vertex")
        loops = tuple(int(x) for x in loops)
        mult = tuple(tuple(int(x) for x in row) for row in mult)
        if len(loops) != n or len(mult) != n or any(len(r) != n for r in mult):
            raise InputError("table dimensions do not match vertex count")
        if any(x < 0 for x in loops):
            raise InputError("negative loop count")
        for i in range(n):
            if mult[i][i] != 0:
                raise InputError("diagonal of the multiplicity table must be 0")
            for j in range(n):
                if mult[i][j] < 0:
                    raise InputError("negative edge multiplicity")
                if mult[i][j] != mult[j][i]:
                    raise InputError("multiplicity table must be symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "mult", mult)

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (self.n, self.loops, self.mult) == (other.n, other.loops, other.mult)

    def __hash__(self):
        return hash((self.n, self.loops, self.mult))

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={self.edge_list()})"

    # --- counts and degrees ---

    @property
    def edge_count(self) -> int:
        e = sum(self.loops)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                e += self.mult[i][j]
        return e

    def degree(self, v: int) -> int:
        return 2 * self.loops[v] + sum(self.mult[v])

    def degrees(self):
        return tuple(self.degree(v) for v in range(self.n))

    @property
    def rank(self) -> int:
        """Cycle rank |E| - |V| + 1 (meaningful for connected graphs)."""
        return self.edge_count - self.n + 1

    def edge_list(self):
        """Labelled expansion: one (u, v) pair per edge, u <= v, loops as (v, v)."""
        out = []
        for v in range(self.n):
            out.extend([(v, v)] * self.loops[v])
        for i in range(self.n):
            for j in range(i + 1, self.n):
                out.extend([(i, j)] * self.mult[i][j])
        return out

    def neighbors(self, v: int):
        """Distinct non-loop neighbours of v in the simple support."""
        return [u for u in range(self.n) if self.mult[v][u] > 0]


def build_multigraph(edge_list, n_vertices: int) -> Multigraph:
    """Accumulate an edge list into a Multigraph; (v, v) pairs are loops."""
    if n_vertices < 1:
        raise InputError("n_vertices must be >= 1")
    loops = [0] * n_vertices
    mult = [[0] * n_vertices for _ in range(n_vertices)]
    for pair in edge_list:
        try:
            u, v = pair
        except (TypeError, ValueError) as exc:
            raise InputError(f"edge {pair!r} is not a vertex pair") from exc
        u, v = int(u), int(v)
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise InputError(
                f"edge ({u}, {v}) out of range for {n_vertices} vertices"
            )
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] += 1
            mult[v][u] += 1
    return Multigraph(n_vertices, loops, mult)


def subdivide(n: int, slots, lengths) -> Multigraph:
    """Anchor vertices 0..n-1 joined by paths, one per entry of lengths.

    slots[i] = (v, w) is a pair of anchors (v == w closes a cycle at v) and
    lengths[i] the lengths of the paths between them, each >= 1; a path of
    length k adds k - 1 inner vertices, numbered after the anchors in slot
    order.
    """
    edges = []
    for (v, w), slot in zip(slots, lengths):
        for length in slot:
            path = [v, *range(n, n + length - 1), w]
            n += length - 1
            edges.extend(zip(path, path[1:]))
    return build_multigraph(edges, n)


# --- edge-list text format (the CLI's graph input) ---

def parse_edge_list_text(text: str) -> Multigraph:
    """Parse the text format: header ``n <count>``, then ``u v`` lines.

    ``u u`` denotes a loop, repeated lines accumulate multiplicity, ``#``
    starts a comment (whole-line or trailing).
    """
    n_vertices, edges = parse_edge_list(text)
    return build_multigraph(edges, n_vertices)


def parse_edge_list(text: str):
    """(n_vertices, [(u, v), ...]) from the text format; builds nothing."""
    n_vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n_vertices is None:
            if len(fields) != 2 or fields[0] != "n":
                raise InputError(
                    f"line {lineno}: expected header 'n <vertex_count>', got {raw!r}"
                )
            try:
                n_vertices = int(fields[1])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad vertex count") from exc
            continue
        if len(fields) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad vertex index") from exc
    if n_vertices is None:
        raise InputError("empty graph file (missing 'n <vertex_count>' header)")
    return n_vertices, edges


def format_edge_list(g: Multigraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"


# --- structural invariants ---

def validate_zeta_input(g: Multigraph) -> None:
    """Enforce the standing hypotheses: connected with min degree >= 2."""
    if not table_is_connected(g.mult):
        raise GraphValidationError("graph is not connected")
    mindeg = min(g.degrees())
    if mindeg < 2:
        raise GraphValidationError(
            f"graph has a vertex of degree {mindeg}; min degree 2 required"
        )


def table_is_connected(mult) -> bool:
    """Whether a multiplicity table's support graph is connected."""
    n = len(mult)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        row = mult[queue.popleft()]
        for w in range(n):
            if not seen[w] and row[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == n


def girth(g: Multigraph) -> int | None:
    """Generalized girth: 1 iff some loop exists, 2 iff loop-free with a
    parallel pair, else the shortest simple cycle length; None if acyclic.
    """
    if any(g.loops):
        return 1
    if any(g.mult[i][j] >= 2 for i in range(g.n) for j in range(i + 1, g.n)):
        return 2
    # Simple graph now. A BFS from root s meets each non-tree edge {v, w}
    # once from each side; with the tree paths from s it closes a walk of
    # length dist[v] + dist[w] + 1 that contains a cycle no longer, and a
    # root on a shortest cycle meets an edge where that walk is the cycle.
    adj = [g.neighbors(v) for v in range(g.n)]
    best = None
    for s in range(g.n):
        dist, parent = [-1] * g.n, [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w], parent[w] = dist[v] + 1, v
                    queue.append(w)
                elif w != parent[v]:
                    length = dist[v] + dist[w] + 1
                    if best is None or length < best:
                        best = length
    return best


def is_bipartite(g: Multigraph) -> bool:
    """No odd closed walk: any loop rules it out, parallel edges do not."""
    if any(g.loops):
        return False
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


# --- spanning trees ---

def kirchhoff_tree_count(g: Multigraph) -> int:
    """Spanning trees by the matrix-tree theorem (Laplacian cofactor).

    Loops are ignored (a tree cannot contain one); parallel edges count
    with multiplicity. Exact integer arithmetic throughout.
    """
    if not table_is_connected(g.mult):
        raise GraphValidationError("spanning trees need a connected graph")
    n = g.n
    if n == 1:
        return 1
    lap = [[-g.mult[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        lap[i][i] = sum(g.mult[i])
    minor = [row[1:] for row in lap[1:]]
    return bareiss_int_det(minor)
