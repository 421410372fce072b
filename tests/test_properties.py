"""Property-based checks: engine agreement beyond the frozen 7-edge sweep,
the graph constructor, and the (1 - u^2)^k product.

Seeded random connected multigraphs of minimum degree 2 with 8 to 25
edges: a random spanning tree, one extra edge at every vertex of degree
below 2, then random pairs (loops and parallel edges allowed) up to the
drawn edge count.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from iharazeta.intpoly import IntPoly  # noqa: E402

from iharazeta.multigraph import Multigraph, kirchhoff_tree_count  # noqa: E402
from iharazeta.trees import tree_count_from_zeta  # noqa: E402
from iharazeta.zeta import (  # noqa: E402
    poly_invariants,
    zeta_bass,
    zeta_enum,
    zeta_line_det,
)


@st.composite
def multigraphs(draw):
    e = draw(st.integers(8, 25))
    n = draw(st.integers(1, e // 2 + 1))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for v in range(n):
        if degree[v] < 2:
            w = draw(st.integers(0, n - 1))
            edges.append((v, w))
            degree[v] += 1
            degree[w] += 1
    while len(edges) < e:
        edges.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    perm = draw(st.permutations(range(n)))
    return edges, n, perm


@settings(max_examples=40, derandomize=True, deadline=None)
@given(multigraphs())
def test_engines_agree_on_random_multigraphs(case):
    edges, n, perm = case
    g = Multigraph(edges, n)
    poly = zeta_bass(g)
    assert zeta_line_det(g) == poly
    assert zeta_enum(g) == poly
    relabelled = Multigraph([(perm[u], perm[v]) for u, v in edges], n)
    assert zeta_bass(relabelled) == poly
    poly_invariants(poly, g)
    if g.rank >= 2:
        assert tree_count_from_zeta(poly, g.rank) == kirchhoff_tree_count(g)


@st.composite
def edge_lists(draw):
    """Any edge list on 1 to 7 vertices: loops, parallel edges and isolated
    vertices all come up; plus the same list in another order."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    return edges, n, draw(st.permutations(edges))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edge_lists())
def test_constructor_connectivity_and_edge_order(case):
    nx = pytest.importorskip("networkx")
    edges, n, shuffled = case
    g = Multigraph(edges, n)
    support = nx.MultiGraph(edges)
    support.add_nodes_from(range(n))
    assert g.connected == nx.is_connected(support)
    assert g.edge_count == len(edges)
    h = Multigraph(shuffled, n)
    assert h == g and hash(h) == hash(g)
    assert (h.connected, h.degrees()) == (g.connected, g.degrees())


@st.composite
def polys_and_powers(draw):
    """h with zero low ends and even-only or odd-only cases, so that either
    part of h in u^2 can be zero or start or end with zeros, and a power
    k from 0 to well above 4 deg h."""
    low = draw(st.integers(0, 5))
    body = draw(st.lists(st.integers(-10 ** 40, 10 ** 40), max_size=24))
    cs = [0] * low + body
    parity = draw(st.sampled_from(["both", "even", "odd"]))
    if parity != "both":
        cs[parity == "even"::2] = [0] * len(cs[parity == "even"::2])
    h = IntPoly(cs)
    return h, draw(st.integers(0, 4 * max(h.degree, 1) + 8))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(polys_and_powers())
@example((IntPoly(), 5))
@example((IntPoly((-3,)), 7))
@example((IntPoly((0, 0, 0, 2)), 4))
def test_times_one_minus_u2_pow_is_the_product(case):
    h, k = case
    assert h.times_one_minus_u2_pow(k) == IntPoly((1, 0, -1)) ** k * h
