"""Exhaustive generation of small multigraphs, one per isomorphism class.

The engine-agreement sweep and the rank-two exhaustiveness audit both need
every connected multigraph of minimum degree two with a bounded edge count.
Every class is a subdivision of its kernel, the multigraph left when each
degree-2 vertex is suppressed. At rank one the kernel is a single loop, and
its subdivisions are the cycles; at rank r >= 2 it is connected, with
minimum degree >= 3, at most 2(r - 1) vertices and 3(r - 1) edges. So the
generator takes the single loop and one table per kernel class of higher
rank, gives each loop set and each parallel class a multiset of path
lengths in every way the edge budget allows (length_assignments, which
ranktwo shares to enumerate the rank-two catalogue on its three kernels),
and keeps the first graph met per canonical key: a kernel automorphism can
carry one assignment onto another, and the key is what finds those
repeats. The kernels of rank >= 2 are few and small, so brute force over
their multiplicity tables finds them; the sweep is practical to 9 edges
(6,114 classes).

Isomorphism reduction, of the kernels and of their subdivisions alike,
and the order of the output use one canonical key per class, found by
individualization-refinement (McKay and Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014): colour refinement from the
(degree, loop count) partition, branching only on the cells refinement
cannot split, and the least table encoding over the discrete colourings
at the leaves of that search. The key is (|E|, n, loops, upper
triangle), so the order of the sorted keys is the class order: by edge
count, then vertex count, then table.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .multigraph import Multigraph, subdivide


def _ranks(labels):
    """Replace each label by the rank of its value among the sorted values."""
    rank = {s: i for i, s in enumerate(sorted(set(labels)))}
    return [rank[s] for s in labels]


def _refine(colour, nbrs):
    """Coarsest equitable refinement of a vertex colouring.

    A vertex's signature is its colour plus the sorted multiset of (edge
    multiplicity, neighbour colour); the new colours are the ranks of the
    signatures, so they depend on the graph and never on vertex labels, and
    they keep the order of the cells they split.
    """
    cells = len(set(colour))
    while True:
        colour = _ranks([
            (colour[v], tuple(sorted((m, colour[w]) for m, w in nbrs[v])))
            for v in range(len(colour))
        ])
        if max(colour) + 1 == cells:
            return colour
        cells = max(colour) + 1


def canonical_key(g: Multigraph) -> tuple:
    """(|E|, n, loops, upper triangle): the edge count followed by the
    least table encoding over the leaves of an individualization-
    refinement search. Keys are equal exactly for isomorphic multigraphs,
    and the order of the keys is the class order.

    The search starts from the (degree, loop count) colouring and refines
    it to an equitable partition. While some cell has more than one vertex,
    it branches on every vertex of the first such cell in colour order:
    that vertex gets a colour of its own and the colouring is refined
    again. At a leaf every colour is a single vertex; listing the vertices
    by colour gives the table (n, loops, upper triangle of multiplicities),
    and the key puts |E| in front of the least table over all leaves. Every
    step depends only on colours, so relabelled copies reach the same set
    of leaves.

    There is no automorphism pruning. Where refinement splits off nothing
    but the chosen vertices, every ordering of a cell is a leaf: K(n) costs
    n! leaves and is practical only to n = 7. Cycles, ladders and the
    sweep's graphs need only a few choices.
    """
    n = g.n
    nbrs = [
        [(g.mult[v][w], w) for w in range(n) if g.mult[v][w]]
        for v in range(n)
    ]
    return (g.edge_count,
            *_search(g, nbrs, _ranks(list(zip(g.degrees(), g.loops)))))


def _search(g, nbrs, colour):
    """The least leaf table below colour in canonical_key's search. It is
    module-level because a closure that calls itself is a reference cycle,
    which would keep nbrs and g alive after every key until the cyclic
    collector runs."""
    n = g.n
    colour = _refine(colour, nbrs)
    if max(colour) + 1 == n:  # discrete: a leaf
        order = sorted(range(n), key=colour.__getitem__)
        return (
            n,
            tuple(g.loops[v] for v in order),
            tuple(
                g.mult[order[i]][order[j]]
                for i in range(n)
                for j in range(i + 1, n)
            ),
        )
    split = min(c for c in colour if colour.count(c) > 1)
    # doubling keeps the cell order; v alone gets 2c + 1, after the rest of
    # its cell
    return min(
        _search(g, nbrs, [2 * c + (w == v) for w, c in enumerate(colour)])
        for v in range(n)
        if colour[v] == split
    )


def _labeled_tables(n, max_edges, min_degree):
    """Yield connected labeled Multigraphs on n vertices within the budget.

    The cells of the table are filled in order, vertex v's loop cell (v, v)
    and then its pair cells (v, w), w > v, each with a count of edges
    appended to one edge list. Symmetry break: degrees must come out
    non-increasing along the vertex order, which every isomorphism class
    can satisfy. Once row v closes, deg(v) is final, so both the
    min-degree bound and the ordering prune whole subtrees. Each complete
    table's graph is built from its edge list and yielded if connected.
    """
    edges = []
    deg = [0] * n

    def close_row(v, budget):
        if deg[v] < min_degree:
            return False
        if v > 0 and deg[v] > deg[v - 1]:
            return False
        # Every remaining edge supplies at most 2 to the later vertices.
        need = sum(max(0, min_degree - deg[w]) for w in range(v + 1, n))
        return 2 * budget >= need

    def fill_cell(v, w, budget):
        # w == n closes row v; a loop (w == v) adds 2 to deg(v)
        if w == n:
            if close_row(v, budget):
                if v + 1 == n:
                    g = Multigraph(edges, n)
                    if g.connected:
                        yield g
                else:
                    yield from fill_cell(v + 1, v + 1, budget)
            return
        for c in range(budget + 1):  # c copies of (v, w) in edges
            yield from fill_cell(v, w + 1, budget - c)
            edges.append((v, w))
            deg[v] += 1
            deg[w] += 1
        del edges[-(budget + 1):]
        deg[v] -= budget + 1
        deg[w] -= budget + 1

    yield from fill_cell(0, 0, max_edges)


def _classes(graphs):
    """The first graph met per canonical key, in class order, which is
    the order of the keys (|E|, n, loops, upper triangle)."""
    reps = {}
    for g in graphs:
        reps.setdefault(canonical_key(g), g)
    return [reps[key] for key in sorted(reps)]


def _table_classes(max_edges, min_degree):
    """One labelled table per class of connected multigraphs with minimum
    degree >= min_degree and at most max_edges edges, in class order: the
    order of their keys (|E|, n, loops, upper triangle).

    Brute force: every labelled table the recursion yields gets a
    canonical key. Cheap at the kernels' minimum degree 3; at minimum
    degree 2 it is the independent oracle for connected_multigraphs.
    """
    # min degree d forces 2|E| >= d*n, no point building wider tables
    widest = min(max_edges, 2 * max_edges // min_degree)
    return _classes(g for n in range(1, widest + 1)
                    for g in _labeled_tables(n, max_edges, min_degree))


def length_assignments(counts, budget):
    """One non-decreasing tuple of counts[i] lengths >= 1 per slot i, all
    lengths summing to at most budget, in lexicographic order."""
    if not counts:
        yield ()
        return
    reserve = sum(counts[1:])  # every later edge is at least 1 long
    for first in combinations_with_replacement(
            range(1, budget - reserve + 1), counts[0]):
        if sum(first) + reserve <= budget:
            for rest in length_assignments(counts[1:], budget - sum(first)):
                yield (first,) + rest


def _subdivisions(max_edges):
    """Every subdivision with at most max_edges edges of every kernel, the
    single loop (whose subdivisions are the cycles) first; isomorphic
    graphs repeat."""
    for kernel in [Multigraph([(0, 0)], 1), *_table_classes(max_edges, 3)]:
        n = kernel.n
        slots, counts = [], []
        for v in range(n):
            for w in range(v, n):
                count = kernel.loops[v] if v == w else kernel.mult[v][w]
                if count:
                    slots.append((v, w))
                    counts.append(count)
        for lengths in length_assignments(counts, max_edges):
            yield subdivide(n, slots, lengths)


def connected_multigraphs(max_edges: int):
    """All connected multigraphs with minimum degree >= 2 and at most
    max_edges edges, one representative per isomorphism class.

    Every class is built as a subdivision of a kernel (see the module
    docstring), with the kernel's vertices first; rank one's kernel is a
    single loop, whose subdivisions are the cycles.
    The first graph met per canonical key is kept; length assignments come
    in lexicographic order, so that is the least assignment of its class.
    Order is deterministic: the order of the canonical keys (|E|, n,
    loops, upper triangle), by edge count, then vertex count, then table.
    8 edges (1,672 classes) take under a second, 9 edges (6,114) a few
    seconds.
    """
    return _classes(_subdivisions(max_edges))
