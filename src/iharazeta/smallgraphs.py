"""Exhaustive generation of small multigraphs, one per isomorphism class.

The engine-agreement sweep and the rank-two exhaustiveness audit both need
every connected multigraph of minimum degree two with a bounded edge count.
At that size (|E| <= 7, so |V| <= 7) brute force over multiplicity tables
is fine as long as the recursion prunes early. Isomorphism reduction keeps
one table per canonical key, found by individualization-refinement (McKay
and Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 2014):
colour refinement from the (degree, loop count) partition, branching only
on the cells refinement cannot split, and the least table encoding over
the discrete colourings at the leaves of that search.
"""

from __future__ import annotations

from .multigraph import Multigraph, table_is_connected


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


def is_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    if sorted(g.loops) != sorted(h.loops):
        return False
    return canonical_key(g) == canonical_key(h)


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


def connected_multigraphs(max_edges: int, min_degree: int = 2):
    """All connected multigraphs with minimum degree >= min_degree and at
    most max_edges edges, one representative per isomorphism class.

    Order is deterministic: by edge count, then vertex count, then the
    canonical table key. Intended scale is max_edges <= 8; the table
    recursion gets expensive beyond that.
    """
    reps = {}
    for n in range(1, max_edges + 1):
        # min degree d forces 2|E| >= d*n, no point building wider tables
        if min_degree * n > 2 * max_edges:
            break
        for g in _labeled_tables(n, max_edges, min_degree):
            key = canonical_key(g)
            if key not in reps:
                reps[key] = g
    return [
        reps[key]
        for key in sorted(reps, key=lambda k: (sum(k[1]) + sum(k[2]), k))
    ]
