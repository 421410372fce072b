"""Undirected multigraphs with loops, and their structural invariants.

The central input object of the package. Vertices are dense 0-indexed
integers; parallel edges live in a symmetric multiplicity table and loops in
a per-vertex counter. Degree follows the convention that a loop adds 2 (so
the adjacency matrix gets 2 on the diagonal per loop), which is load-bearing
for engine agreement on bouquets and dumbbells.

A Multigraph is built from an edge list, in one pass over its edges, and is
immutable; it can be hashed and used as a dictionary key. Its vertex count
and vertex ids must be of type int (float, str and bool are refused, not
converted), and the text reader takes ASCII decimals only. Its degrees,
edge count and connectivity are stored at construction, and its zeta value
at u = 2 is computed on first use and kept. Bass's vertex matrix
I - uA + u^2 Q at an integer u is built in vertex_matrix: at u = 2 for
that value, at u = 1 (the Laplacian) for the spanning-tree count.
"""

from __future__ import annotations

from collections import deque
from itertools import compress

from .errors import InputError
from .polydet import bareiss_int_det


class Multigraph:
    """Immutable multigraph on vertices 0..n_vertices-1, built from an edge
    list in which (v, v) pairs are loops.

    One pass over the edges checks each one and adds it up into the loop
    counts, the symmetric multiplicity table, the degrees and the edge
    count; union-find over the non-loop edges (Tarjan, J. ACM 1975) finds
    whether the support is connected, kept as ``connected``.
    """

    __slots__ = ("n", "loops", "mult", "_degrees", "edge_count", "connected",
                 "_at_two")

    def __init__(self, edge_list, n_vertices: int):
        if type(n_vertices) is not int:
            raise InputError(f"n_vertices must be an int, got {n_vertices!r}")
        if n_vertices < 1:
            raise InputError("n_vertices must be >= 1")
        loops = [0] * n_vertices
        mult = [[0] * n_vertices for _ in range(n_vertices)]
        degrees = [0] * n_vertices
        parent = list(range(n_vertices))
        components = n_vertices
        for pair in edge_list:
            try:
                u, v = pair
            except (TypeError, ValueError) as exc:
                raise InputError(f"edge {pair!r} is not a vertex pair") from exc
            if type(u) is not int or type(v) is not int:
                raise InputError(
                    f"edge {pair!r} has a vertex id that is not an int")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise InputError(
                    f"edge ({u}, {v}) out of range for {n_vertices} vertices"
                )
            degrees[u] += 1
            degrees[v] += 1
            if u == v:
                loops[u] += 1
                continue
            mult[u][v] += 1
            mult[v][u] += 1
            # path halving: each step links a vertex to its grandparent
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                components -= 1
        for name, value in (("n", n_vertices), ("loops", tuple(loops)),
                            ("mult", tuple(map(tuple, mult))),
                            ("_degrees", tuple(degrees)),
                            ("edge_count", sum(degrees) // 2),
                            ("connected", components == 1),
                            ("_at_two", None)):
            object.__setattr__(self, name, value)

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

    # --- counts and degrees, stored at construction ---

    def degrees(self):
        return self._degrees

    @property
    def rank(self) -> int:
        """Cycle rank |E| - |V| + 1 (meaningful for connected graphs)."""
        return self.edge_count - self.n + 1

    def edge_list(self):
        """Labelled expansion: one (u, v) pair per edge, u <= v, loops as (v, v)."""
        n, loops = self.n, self.loops
        out = []
        for v in compress(range(n), loops):
            out += [(v, v)] * loops[v]
        for i, row in enumerate(self.mult):
            for j in compress(range(i + 1, n), row[i + 1:]):
                out += [(i, j)] * row[j]
        return out

    def neighbors(self, v: int):
        """Distinct non-loop neighbours of v in the simple support."""
        return [u for u in range(self.n) if self.mult[v][u] > 0]

    def zeta_at_two(self) -> int:
        """(-3)^(r-1) det(I - 2A + 4Q), the zeta reciprocal at u = 2:
        computed on first use and kept, so every engine's check on this
        object shares one determinant; an equal graph built anew computes
        its own. Equality and hashing ignore it. A graph with |E| < |V| is
        refused before any determinant."""
        if self.rank < 1:
            raise InputError(f"graph has {self.n} vertices but "
                             f"{self.edge_count} edges; zeta at u = 2 needs "
                             "|V| <= |E|")
        if self._at_two is None:
            det = bareiss_int_det(vertex_matrix(self, 2))
            object.__setattr__(self, "_at_two", (-3) ** (self.rank - 1) * det)
        return self._at_two


def vertex_matrix(g: Multigraph, u: int):
    """Bass's I - uA + u^2 Q at an integer u, as rows of ints: A has 2 per
    loop on its diagonal (a loop adds 2 to a degree), Q = D - I."""
    rows = [[-u * x for x in row] for row in g.mult]
    degrees = g.degrees()
    for v, row in enumerate(rows):
        row[v] = 1 - 2 * u * g.loops[v] + u * u * (degrees[v] - 1)
    return rows


# the constructor under a second name, for callers that import it
build_multigraph = Multigraph


def subdivide(n: int, slots, lengths) -> Multigraph:
    """Anchor vertices 0..n-1 joined by paths, one per entry of lengths.

    slots[i] = (v, w) is a pair of anchors (v == w closes a cycle at v) and
    lengths[i] the lengths of the paths between them, each an int >= 1
    (else InputError; unequal list lengths raise ValueError); a path of
    length k adds k - 1 inner vertices, numbered after the anchors in slot
    order.
    """
    edges = []
    for (v, w), slot in zip(slots, lengths, strict=True):
        for length in slot:
            if type(length) is not int or length < 1:
                raise InputError(
                    f"slot {(v, w)!r} has a path of length {length!r}; "
                    "each must be an int >= 1"
                )
            path = [v, *range(n, n + length - 1), w]
            n += length - 1
            edges.extend(zip(path, path[1:]))
    return Multigraph(edges, n)


# --- edge-list text format (the one reader, shared by the CLI and library) ---

def _decimal(field: str) -> int:
    """int(field), refusing with ValueError the "1_0" and the non-ASCII
    digits that int() would read."""
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return int(field)


def parse_edge_list_text(text: str) -> Multigraph:
    """Parse the text format: header ``n <count>``, then ``u v`` lines.

    ``u u`` denotes a loop, repeated lines accumulate multiplicity, ``#``
    starts a comment (whole-line or trailing). A header count above the
    number of edge lines is refused before the |V| x |V| table is built:
    min degree 2 forces |V| <= |E|.
    """
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
                n_vertices = _decimal(fields[1])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad vertex count") from exc
            continue
        if len(fields) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            edges.append((_decimal(fields[0]), _decimal(fields[1])))
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad vertex index") from exc
    if n_vertices is None:
        raise InputError("empty graph file (missing 'n <vertex_count>' header)")
    if n_vertices > len(edges):
        raise InputError(
            f"graph has {n_vertices} vertices but {len(edges)} edges; a "
            "connected graph of min degree 2 needs |V| <= |E|"
        )
    return Multigraph(edges, n_vertices)


def format_edge_list(g: Multigraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"


# --- structural invariants ---

def validate_zeta_input(g: Multigraph) -> None:
    """Enforce the standing hypotheses: connected with min degree >= 2.

    Reads what construction stored (``g.connected`` and the degrees), so
    it costs O(|V|) and builds nothing."""
    if not g.connected:
        raise InputError("graph is not connected")
    mindeg = min(g.degrees())
    if mindeg < 2:
        raise InputError(
            f"graph has a vertex of degree {mindeg}; min degree 2 required"
        )


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
    # No simple cycle is shorter than 3, so the first triangle ends it.
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
                    if length == 3:
                        return 3
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
    with multiplicity. Exact integer arithmetic throughout; the cofactor
    is 0 exactly when the graph is disconnected, and that 0 is refused.
    """
    # the Laplacian D - A is the vertex matrix at u = 1 (a loop's 2 in D
    # and in A cancel); its minor drops vertex 0's row and column
    count = bareiss_int_det([row[1:] for row in vertex_matrix(g, 1)[1:]])
    if count == 0:
        raise InputError("spanning trees need a connected graph")
    return count
