"""Property-based engine agreement beyond the frozen 7-edge sweep.

Seeded random connected multigraphs of minimum degree 2 with 8 to 25
edges: a random spanning tree, one extra edge at every vertex of degree
below 2, then random pairs (loops and parallel edges allowed) up to the
drawn edge count.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from iharazeta.multigraph import build_multigraph, kirchhoff_tree_count  # noqa: E402
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
    g = build_multigraph(edges, n)
    poly = zeta_bass(g)
    assert zeta_line_det(g) == poly
    if 2 * g.edge_count <= 16:
        assert zeta_enum(g) == poly
    relabelled = build_multigraph([(perm[u], perm[v]) for u, v in edges], n)
    assert zeta_bass(relabelled) == poly
    poly_invariants(poly, g)
    if g.rank >= 2:
        assert tree_count_from_zeta(poly, g.rank) == kirchhoff_tree_count(g)
