"""The three zeta-reciprocal engines and the oriented line graph they share.

For a connected multigraph with min degree 2, the reciprocal of the Ihara
zeta function is a polynomial of degree exactly 2|E|. Three independent
computations of it live here:

* zeta_bass:     (1 - u^2)^(r-1) * det(I - Au + Qu^2), r = |E| - |V| + 1;
* zeta_line_det: det(I - uT) with T the arc matrix of the oriented line
                 graph on the 2|E| directed edges;
* zeta_enum:     the signed count of linear subgraphs of the oriented
                 line graph, summed as clow sequences (Mahajan and
                 Vinay 1997): det(I - uT) = prod_h (1 - W_h(u)), W_h
                 counting the closed walks from directed edge h back
                 to h through directed edges > h only, each up to
                 length n - h (n = 2|E|), the degree of det(I - uT)
                 restricted to the directed edges >= h: the sum over
                 h of (n - h)^2 walk steps, about (2|E|)^3 / 3
                 integer operations.

The oriented line graph is kept as two columns, (origin, terminus), over
the 2|E| directed edges; its arcs follow from them by one rule (see
oriented_line_graph).

The first two run in polynomial time through one exact det(I - uM)
kernel (one pass modulo a Proth prime above twice the Euclidean Hadamard
bound); their independence lies in the matrices they pass it. Each
passes its matrix in an order the kernel's Hessenberg reduction fills in
less (Bass interleaves its two blocks vertex by vertex, linedet sorts the
directed edges by origin): a permutation similarity P M P^T, which
changes neither det(I - uM) nor the bound, hence not the prime. The
enumeration engine shares no arithmetic with them in computing its
polynomial; it counts walks with integer additions and multiplications
only, and is capped by the number of directed edges. All three return
through one output check, _checked, whose value at u = 2 is the graph's
Multigraph.zeta_at_two: one |V| x |V| Bareiss determinant per graph
object, shared by every engine run on it.
The exact agreement of all three on every small multigraph is the
package's core acceptance test.
"""

from __future__ import annotations

from math import prod

from .errors import SizeCapError, VerificationError
from .intpoly import IntPoly
from .multigraph import (
    Multigraph,
    girth,
    is_bipartite,
    validate_zeta_input,
)
from .polydet import reversed_charpoly

DEFAULT_ENUM_CAP = 64


# --- oriented line graph ---

def oriented_line_graph(g: Multigraph) -> tuple[tuple, tuple]:
    """(origin, terminus): the 2|E| directed edges of g, as two columns.

    Directed edge i runs from origin[i] to terminus[i]. Edge e of
    g.edge_list() yields i = 2e and i = 2e + 1, so i >> 1 is the parent
    edge, i & 1 says which orientation i is, and i ^ 1 is its inverse.
    The oriented line graph has an arc i -> j exactly when j != i ^ 1 and
    terminus[j] == origin[i]: the consecutive non-backtracking pairs, with
    arcs recorded backward relative to walk order; the determinant
    downstream is transpose-invariant, so the recording direction carries
    no content.

    This extends the line graph to loops and parallel edges. Each loop
    yields two directed self-edges at its vertex, declared mutual
    inverses: a loop may be traversed repeatedly in the same rotational
    sense (self-arc) but cannot immediately reverse. Parallel edges give
    distinct directed edges with edge-matched inverses, so leaving by one
    copy and returning by another is not a backtrack.
    """
    origin, terminus = [], []
    for u, v in g.edge_list():
        origin += (u, v)
        terminus += (v, u)
    return tuple(origin), tuple(terminus)


# --- output checks ---

def _checked(poly: IntPoly, engine: str, g: Multigraph) -> IntPoly:
    """poly, after checking that its degree is 2|E|, its constant term 1
    and its value at u = 2 g.zeta_at_two(), (-3)^(r-1) det(I - 2A + 4Q)
    as for Bass's (1 - u^2)^(r-1) det(I - Au + Qu^2); by Ihara-Bass that
    value is also det(I - 2T). A failure is an engine fault.
    """
    e = g.edge_count
    if poly.degree != 2 * e:
        raise VerificationError(
            f"{engine}: degree {poly.degree} != 2|E| = {2 * e}"
        )
    if poly.coeff(0) != 1:
        raise VerificationError(
            f"{engine}: constant term {poly.coeff(0)} != 1"
        )
    if (got := poly.eval_at(2)) != (want := g.zeta_at_two()):
        raise VerificationError(
            f"{engine}: polynomial at u = 2 is {got}, "
            f"(-3)^(r-1) det(I - 2A + 4Q) gives {want}"
        )
    return poly


# --- engine A: three-term determinant ---

def zeta_bass(g: Multigraph) -> IntPoly:
    """(1 - u^2)^(r-1) * det(I - Au + Qu^2), all exact.

    The determinant is det(I - uB) for the 2|V| x 2|V| linearisation
    B = [[A, -Q], [I, 0]] (the reduced non-backtracking matrix of
    Krzakala et al., PNAS 2013): eliminating the lower block by a Schur
    complement leaves det(I - Au + Qu^2), A with 2 loops_v on its
    diagonal, Q = D - I. The kernel gets B with rows and columns
    interleaved as (y_0, x_0, y_1, x_1, ...), x_v from the upper block and
    y_v from the lower: row y_v has its 1 at x_v, and row x_v has -q_v at
    y_v and a_vw at x_w. This is P B P^T for a permutation P, so
    det(I - uB) and the kernel's Hadamard bound (hence its prime) are
    those of the block order, and the Hessenberg reduction meets less
    fill. At u = 2 the output is the kernel's value times (-3)^(r-1),
    never 0, so the output check checks the kernel.
    """
    validate_zeta_input(g)
    n = g.n
    degrees = g.degrees()
    b = []
    for v, row in enumerate(g.mult):
        y_row, x_row = [0] * (2 * n), [0] * (2 * n)
        y_row[2 * v + 1] = 1
        x_row[1::2] = row
        x_row[2 * v + 1] = 2 * g.loops[v]
        x_row[2 * v] = 1 - degrees[v]
        b += (y_row, x_row)
    poly = reversed_charpoly(b).times_one_minus_u2_pow(g.rank - 1)
    return _checked(poly, "bass", g)


# --- engine B: line-graph determinant ---

def zeta_line_det(g: Multigraph) -> IntPoly:
    """det(I - uT) over the oriented line graph.

    The kernel gets T with the directed edges sorted by origin (stably),
    so the rows of the edges leaving one vertex are consecutive, each
    marking the edges into that vertex less the row's own inverse. This
    is P T P^T for a permutation P: det(I - uT) and the kernel's
    Hadamard bound are those of the edge order, and the Hessenberg
    reduction meets less fill. By Ihara-Bass, det(I - 2T) is the output
    check's (-3)^(r-1) det(I - 2A + 4Q), so it catches a fault in the
    kernel or in T with no second 2|E| x 2|E| matrix.

    The rows are built from per-vertex in-lists, the sorted positions of
    the directed edges into each vertex v: the edges leaving v share one
    row marking v's in-list, and each copies it and clears the position
    of its own inverse i ^ 1, which always ends at v. That is
    O(sum_v deg(v)) Python steps plus one C-level copy of a 2|E| row per
    row; comparing every pair of directed edges took (2|E|)^2. A vertex
    of degree d gives rows of d - 1 ones, so T has
    sum_v deg(v) (deg(v) - 1) nonzeros: on a graph of mostly degree-2
    vertices it is nearly a permutation matrix, sparser than Bass's B.
    """
    validate_zeta_input(g)
    origin, terminus = oriented_line_graph(g)
    size = len(origin)
    order = sorted(range(size), key=origin.__getitem__)
    position = [0] * size
    into = [[] for _ in range(g.n)]  # into[v]: positions of edges into v
    for k, j in enumerate(order):
        position[j] = k
        into[terminus[j]].append(k)
    t, v = [], None
    for i in order:
        if origin[i] != v:
            v = origin[i]
            marks = [0] * size
            for k in into[v]:
                marks[k] = 1
        row = marks[:]
        row[position[i ^ 1]] = 0
        t.append(row)
    return _checked(reversed_charpoly(t), "linedet", g)


# --- engine C: linear-subgraph enumeration ---

def zeta_enum(g: Multigraph, cap: int = DEFAULT_ENUM_CAP) -> IntPoly:
    """Coefficients as signed counts of directed-cycle packings.

    c_k sums (-1)^(number of cycles) over all vertex-disjoint unions of
    directed cycles covering exactly k line-graph vertices; c_0 = 1.
    They are summed as clow sequences, det(I - uT) = prod_h (1 - W_h(u)),
    with head h's walks and its factor stopped at u^(n - h), n = 2|E|,
    the degree the trailing minor on the directed edges >= h can reach:
    the sum over h of (n - h)^2 walk steps, about (2|E|)^3 / 3 integer
    operations (_clow_coefficients). The cap
    bounds the number of line-graph vertices (2|E|) and is checked
    before the line graph is built; exceeding it is a SizeCapError, an
    intentional scale limit rather than a failure.
    """
    validate_zeta_input(g)
    if 2 * g.edge_count > cap:
        raise SizeCapError(
            f"enumeration engine capped at {cap} line-graph vertices, "
            f"this graph has {2 * g.edge_count}"
        )
    coeffs = _clow_coefficients(*oriented_line_graph(g))
    return _checked(IntPoly(coeffs), "enum", g)


def _clow_coefficients(origin, terminus):
    """[c_0 .. c_n] of det(I - uT) as prod_h (1 - W_h(u)), each head's
    factor truncated at the degree its trailing minor can reach.

    W_h(u) counts the closed walks from directed edge h back to h whose
    other directed edges are all > h, by length (Mahajan and Vinay's
    clow sequences, summed head by head). Proof: write M_S for I - uT
    restricted to the directed edges in S. By Cramer's rule the [h, h]
    entry of the inverse of M_{>=h} is det(M_{>h}) / det(M_{>=h}). As a
    power series, that inverse is the sum of u^k T_{>=h}^k, so the entry
    counts the walks from h to h inside {h, ...}; each splits uniquely
    at its returns to h into first-return walks, giving 1 / (1 - W_h).
    So det(M_{>=h}) = det(M_{>h}) (1 - W_h), and the factors telescope
    from det(M_{>n-1}) = 1 to det(I - uT).

    Truncation: M_{>=h} is (n - h) x (n - h) with entries of degree
    <= 1, so det(M_{>=h}) has degree <= top = n - h. Head h therefore
    counts walks of length <= top only, and updates the product only up
    to u^top. By induction, before head h the product is det(M_{>h}),
    exact, of degree <= top - 1. The terms up to u^top of
    det(M_{>h}) (1 - W_h) need only the terms of W_h up to u^top, and
    they are all of det(M_{>=h}); so after head h the product is
    det(M_{>=h}), exact.

    A walk ending at w extends to x exactly when origin[w] = terminus[x]
    and w != x ^ 1. So each step sums the counts of a {edge: count} row
    by the graph vertex origin[w], and the count entering x is that
    vertex's sum minus the backtrack w = x ^ 1; closing at h uses the
    same formula. The row holds only h and the directed edges > h, so a
    step costs O(n - h) whatever the arc density, and the DP takes the
    sum over h of (n - h)^2 walk steps, about n^3 / 3 integer additions
    and multiplications.
    """
    n = len(origin)
    into: dict[int, list[int]] = {}  # into[v]: the x > h ending at v
    c = [1] + [0] * n
    for h in reversed(range(n)):
        top = n - h
        walks = []  # (k, u^k coefficient of W_h), nonzero only
        row = {h: 1}  # walks from h by their last directed edge
        for k in range(1, top + 1):
            at: dict[int, int] = {}
            for w, cnt in row.items():
                at[origin[w]] = at.get(origin[w], 0) + cnt
            if closed := at.get(terminus[h], 0) - row.get(h ^ 1, 0):
                walks.append((k, closed))
            if k == top:
                break
            row = {x: cnt for v, total in at.items() for x in into.get(v, ())
                   if (cnt := total - row.get(x ^ 1, 0))}
            if not row:
                break
        prev = c[:top]  # det(M_{>h}): c[top:] is still 0
        for j, cw in walks:  # c = prev * (1 - W_h) up to u^top
            c[j:top + 1] = [a - cw * b for a, b in zip(c[j:top + 1], prev)]
        into.setdefault(terminus[h], []).append(h)
    return c


# --- polynomial-level invariant checks ---

def poly_invariants(poly: IntPoly, g: Multigraph) -> None:
    """Check the four polynomial-level readouts against graph structure.

    The degree must be 2|E|; the leading coefficient must be
    (-1)^(|E|-|V|) * prod(d(v) - 1); the first nonzero coefficient after
    c_0 must sit at the (generalized) girth; the polynomial is even iff the
    graph is bipartite. Any mismatch raises VerificationError naming the
    failed check.
    """
    e = g.edge_count
    expected_leading = (-1) ** (e - g.n) * prod(d - 1 for d in g.degrees())
    if poly.degree != 2 * e:
        raise VerificationError(
            f"degree check failed: {poly.degree} != 2|E| = {2 * e}"
        )
    if poly.leading_coeff != expected_leading:
        raise VerificationError(
            "leading-coefficient check failed: "
            f"{poly.leading_coeff} != {expected_leading}"
        )
    readout, structural = poly.first_nonzero_power(start=1), girth(g)
    if structural is None or readout != structural:
        raise VerificationError(
            f"girth readout check failed: first nonzero power {readout}, "
            f"structural girth {structural}"
        )
    bipartite = is_bipartite(g)
    if poly.is_even() != bipartite:
        raise VerificationError(
            f"evenness check failed: even={poly.is_even()}, "
            f"bipartite={bipartite}"
        )
