"""Exhaustive generation of small multigraphs, one per isomorphism class.

The engine-agreement sweep and the rank-two exhaustiveness audit both need
every connected multigraph of minimum degree two with a bounded edge count.
Rank one gives the cycles. Every class of rank r >= 2 is a subdivision of
its kernel, the multigraph left when each degree-2 vertex is suppressed:
connected, minimum degree >= 3, at most 2(r - 1) vertices and 3(r - 1)
edges. So the generator takes one table per kernel class, gives each loop
set and each parallel class a multiset of path lengths in every way the
edge budget allows, and keeps the first graph met per canonical key: a
kernel automorphism can carry one assignment onto another, and the key
is what finds those repeats. The kernels are few and small, so brute
force over their multiplicity tables finds them; the sweep is practical
to 9 edges (6,114 classes).

Isomorphism reduction, of the kernels and of their subdivisions alike,
and the order of the output use one canonical key per class, found by
individualization-refinement (McKay and Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014): colour refinement from the
(degree, loop count) partition, branching only on the cells refinement
cannot split, and the least table encoding over the discrete colourings
at the leaves of that search.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .multigraph import Multigraph, subdivide, table_is_connected


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
    """Least table encoding over the leaves of an individualization-
    refinement search; equal keys exactly for isomorphic multigraphs.

    The search starts from the (degree, loop count) colouring and refines
    it to an equitable partition. While some cell has more than one vertex,
    it branches on every vertex of the first such cell in colour order:
    that vertex gets a colour of its own and the colouring is refined
    again. At a leaf every colour is a single vertex; listing the vertices
    by colour gives the table (n, loops, upper triangle of multiplicities),
    and the key is the least table over all leaves. Every step depends only
    on colours, so relabelled copies reach the same set of leaves.

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

    def search(colour):
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
        # doubling keeps the cell order; v alone gets 2c + 1, after the
        # rest of its cell
        return min(
            search([2 * c + (w == v) for w, c in enumerate(colour)])
            for v in range(n)
            if colour[v] == split
        )

    return search(_ranks([(g.degree(v), g.loops[v]) for v in range(n)]))


def _labeled_tables(n, max_edges, min_degree):
    """Yield connected labeled Multigraphs on n vertices within the budget.

    Symmetry break: degrees must come out non-increasing along the vertex
    order, which every isomorphism class can satisfy. Rows are filled
    vertex by vertex; once row v closes, deg(v) is final, so both the
    min-degree bound and the ordering prune whole subtrees.
    """
    loops = [0] * n
    mult = [[0] * n for _ in range(n)]
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
        # w == v means the loop cell; w > v the pair cell; w == n closes.
        if w == n:
            if close_row(v, budget):
                if v + 1 == n:
                    if table_is_connected(mult):
                        yield Multigraph(
                            n,
                            tuple(loops),
                            tuple(tuple(row) for row in mult),
                        )
                else:
                    yield from fill_cell(v + 1, v + 1, budget)
            return
        if w == v:
            for c in range(budget + 1):
                loops[v] = c
                deg[v] += 2 * c
                yield from fill_cell(v, w + 1, budget - c)
                deg[v] -= 2 * c
            loops[v] = 0
            return
        for c in range(budget + 1):
            mult[v][w] = mult[w][v] = c
            deg[v] += c
            deg[w] += c
            yield from fill_cell(v, w + 1, budget - c)
            deg[v] -= c
            deg[w] -= c
        mult[v][w] = mult[w][v] = 0

    yield from fill_cell(0, 0, max_edges)


def _class_order(key):
    """(edge count, key): the order of every class list in this module."""
    return (sum(key[1]) + sum(key[2]), key)


def _classes(graphs):
    """The first graph met per canonical key, in class order."""
    reps = {}
    for g in graphs:
        reps.setdefault(canonical_key(g), g)
    return [reps[key] for key in sorted(reps, key=_class_order)]


def _table_classes(max_edges, min_degree):
    """One labelled table per class of connected multigraphs with minimum
    degree >= min_degree and at most max_edges edges, in class order.

    Brute force: every labelled table the recursion yields gets a
    canonical key. Cheap at the kernels' minimum degree 3; at minimum
    degree 2 it is the independent oracle for connected_multigraphs.
    """
    # min degree d forces 2|E| >= d*n, no point building wider tables
    widest = min(max_edges, 2 * max_edges // min_degree)
    return _classes(g for n in range(1, widest + 1)
                    for g in _labeled_tables(n, max_edges, min_degree))


def _length_assignments(counts, budget):
    """One non-decreasing tuple of counts[i] lengths >= 1 per slot i, all
    lengths summing to at most budget."""
    if not counts:
        yield ()
        return
    reserve = sum(counts[1:])  # every later edge is at least 1 long
    for first in combinations_with_replacement(
            range(1, budget - reserve + 1), counts[0]):
        if sum(first) + reserve <= budget:
            for rest in _length_assignments(counts[1:], budget - sum(first)):
                yield (first,) + rest


def _subdivisions(max_edges):
    """Every subdivision with at most max_edges edges of every kernel, and
    the cycles; isomorphic graphs repeat."""
    # rank one: a loop at one vertex, subdivided into each cycle length
    for length in range(1, max_edges + 1):
        yield subdivide(1, [(0, 0)], [(length,)])
    for kernel in _table_classes(max_edges, 3):
        n = kernel.n
        slots, counts = [], []
        for v in range(n):
            for w in range(v, n):
                count = kernel.loops[v] if v == w else kernel.mult[v][w]
                if count:
                    slots.append((v, w))
                    counts.append(count)
        for lengths in _length_assignments(counts, max_edges):
            yield subdivide(n, slots, lengths)


def connected_multigraphs(max_edges: int):
    """All connected multigraphs with minimum degree >= 2 and at most
    max_edges edges, one representative per isomorphism class.

    Rank one is the cycles; every other class is built as a subdivision of
    a kernel (see the module docstring), with the kernel's vertices first.
    The first graph met per canonical key is kept; length assignments come
    in lexicographic order, so that is the least assignment of its class.
    Order is deterministic: by edge count, then vertex count, then the
    canonical table key. 8 edges (1,672 classes) take under a second, 9
    edges (6,114) a few seconds.
    """
    return _classes(_subdivisions(max_edges))
