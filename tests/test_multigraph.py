"""Tests for the multigraph container, its text format, and its invariants."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from iharazeta.errors import GraphValidationError, InputError
from iharazeta.multigraph import (
    Multigraph,
    build_multigraph,
    format_edge_list,
    girth,
    is_bipartite,
    kirchhoff_tree_count,
    parse_edge_list,
    parse_edge_list_text,
    table_is_connected,
    validate_zeta_input,
)


def cycle(n):
    return build_multigraph([(i, (i + 1) % n) for i in range(n)], n)


def complete(n):
    return build_multigraph(
        [(i, j) for i in range(n) for j in range(i + 1, n)], n
    )


TRIPLE_EDGE = build_multigraph([(0, 1), (0, 1), (0, 1)], 2)


# --- construction and validation ---

def test_rejects_empty_vertex_set():
    with pytest.raises(InputError):
        Multigraph(0, (), ())


def test_rejects_mismatched_tables():
    with pytest.raises(InputError):
        Multigraph(2, (0,), ((0, 1), (1, 0)))
    with pytest.raises(InputError):
        Multigraph(2, (0, 0), ((0, 1),))


def test_rejects_bad_entries():
    with pytest.raises(InputError):
        Multigraph(1, (-1,), ((0,),))
    with pytest.raises(InputError):
        Multigraph(1, (0,), ((1,),))
    with pytest.raises(InputError):
        Multigraph(2, (0, 0), ((0, -1), (-1, 0)))
    with pytest.raises(InputError):
        Multigraph(2, (0, 0), ((0, 1), (2, 0)))


def test_immutable_and_hashable():
    g = cycle(3)
    with pytest.raises(AttributeError):
        g.n = 4
    h = build_multigraph([(1, 2), (0, 1), (0, 2)], 3)
    assert g == h
    assert hash(g) == hash(h)
    assert g != cycle(4)


def test_build_rejects_bad_edges():
    with pytest.raises(InputError):
        build_multigraph([(0, 2)], 2)
    with pytest.raises(InputError):
        build_multigraph([(0, -1)], 2)
    with pytest.raises(InputError):
        build_multigraph([(0, 1, 2)], 3)
    with pytest.raises(InputError):
        build_multigraph([], 0)


# --- degrees and counts ---

def test_loop_adds_two_to_degree():
    g = build_multigraph([(0, 0), (0, 1)], 2)
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert g.degrees() == (3, 1)
    assert g.edge_count == 2


def test_rank_and_edge_count():
    assert TRIPLE_EDGE.edge_count == 3
    assert TRIPLE_EDGE.rank == 2
    assert cycle(5).rank == 1
    assert complete(4).rank == 3


def test_edge_list_order_and_round_trip():
    g = build_multigraph([(2, 1), (0, 0), (1, 2), (0, 2), (1, 1)], 3)
    assert g.edge_list() == [(0, 0), (1, 1), (0, 2), (1, 2), (1, 2)]
    assert build_multigraph(g.edge_list(), g.n) == g


def test_neighbors_skip_loops():
    g = build_multigraph([(0, 0), (0, 1), (1, 2)], 3)
    assert g.neighbors(0) == [1]
    assert g.neighbors(1) == [0, 2]


# --- text format ---

def test_parse_basic():
    assert parse_edge_list_text("n 3\n0 1\n1 2\n2 0\n") == cycle(3)


def test_parse_edge_list_gives_counts_before_building():
    # a header count no edge can support is returned as is, not allocated
    assert parse_edge_list("n 3000\n") == (3000, [])
    assert parse_edge_list("n 2\n0 1\n1 1 # loop\n") == (2, [(0, 1), (1, 1)])


def test_parse_comments_and_blank_lines():
    text = """
# a triangle
n 3

0 1  # first edge
1 2
2 0
"""
    assert parse_edge_list_text(text) == cycle(3)


def test_parse_accumulates_multiplicity_and_loops():
    g = parse_edge_list_text("n 2\n0 1\n0 1\n1 1\n")
    assert g.mult[0][1] == 2
    assert g.loops == (0, 1)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 1"):
        parse_edge_list_text("vertices 3\n0 1\n")
    with pytest.raises(InputError, match="line 2"):
        parse_edge_list_text("n 3\n0 1 2\n")
    with pytest.raises(InputError, match="line 3"):
        parse_edge_list_text("n 3\n0 1\n0 x\n")
    with pytest.raises(InputError, match="bad vertex count"):
        parse_edge_list_text("n three\n")
    with pytest.raises(InputError, match="header"):
        parse_edge_list_text("# nothing but comments\n")


def test_format_round_trip():
    g = build_multigraph([(0, 0), (0, 1), (0, 1), (1, 2), (0, 2)], 3)
    assert parse_edge_list_text(format_edge_list(g)) == g


# --- structural invariants ---

def test_report_on_a_cycle():
    g = cycle(4)
    assert table_is_connected(g.mult)
    assert min(g.degrees()) == 2
    assert g.rank == 1
    assert girth(g) == 4
    assert is_bipartite(g)


def test_girth_rules():
    assert girth(build_multigraph([(0, 0)], 1)) == 1
    assert girth(build_multigraph([(0, 1), (0, 1)], 2)) == 2
    assert girth(cycle(3)) == 3
    # a loop wins over any longer cycle
    g = build_multigraph([(0, 0), (0, 1), (1, 2), (2, 0)], 3)
    assert girth(g) == 1
    # trees are acyclic
    path = build_multigraph([(0, 1), (1, 2)], 3)
    assert girth(path) is None


def test_girth_finds_shortest_cycle_not_first():
    # six-cycle with a chord creating a four-cycle
    g = build_multigraph(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)], 6
    )
    assert girth(g) == 4


def test_girth_matches_networkx_on_random_simple_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(2, 14)
        p = rng.choice((0.15, 0.25, 0.4, 0.7))
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        want = nx.girth(h)
        got = girth(build_multigraph(edges, n))
        assert got == (None if want == float("inf") else want), edges


def test_bipartite_rules():
    assert is_bipartite(cycle(4))
    assert not is_bipartite(cycle(5))
    # parallel edges keep bipartiteness, loops kill it
    assert is_bipartite(build_multigraph([(0, 1), (0, 1)], 2))
    g = build_multigraph([(0, 0), (0, 1), (0, 1)], 2)
    assert not is_bipartite(g)


def test_disconnected_is_reported():
    g = build_multigraph([(0, 1), (2, 3)], 4)
    assert not table_is_connected(g.mult)


def test_validate_zeta_input():
    validate_zeta_input(TRIPLE_EDGE)
    with pytest.raises(GraphValidationError, match="not connected"):
        validate_zeta_input(
            build_multigraph([(0, 1), (0, 1), (2, 3), (2, 3)], 4)
        )
    with pytest.raises(GraphValidationError, match="degree 1"):
        validate_zeta_input(build_multigraph([(0, 1), (1, 2), (2, 0), (2, 3)], 4))


# --- spanning trees ---

def brute_force_tree_count(g):
    """Count spanning trees directly: try every (n-1)-subset of the edges."""
    edges = g.edge_list()
    n = g.n
    count = 0
    for subset in combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for idx in subset:
            ru, rv = find(edges[idx][0]), find(edges[idx][1])
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


def test_kirchhoff_known_values():
    for n in range(2, 7):
        assert kirchhoff_tree_count(complete(n)) == n ** (n - 2)
        assert kirchhoff_tree_count(cycle(n)) == n
    assert kirchhoff_tree_count(TRIPLE_EDGE) == 3
    assert kirchhoff_tree_count(build_multigraph([(0, 0)], 1)) == 1


def test_kirchhoff_ignores_loops():
    noisy = build_multigraph(cycle(4).edge_list() + [(0, 0), (2, 2)], 4)
    assert kirchhoff_tree_count(noisy) == 4


def test_kirchhoff_rejects_disconnected():
    with pytest.raises(GraphValidationError):
        kirchhoff_tree_count(build_multigraph([(0, 1), (2, 3)], 4))


def test_kirchhoff_matches_brute_force_on_sweep(sweep7):
    for g in sweep7:
        assert kirchhoff_tree_count(g) == brute_force_tree_count(g)


def test_kirchhoff_matches_brute_force_with_leaves():
    # kirchhoff_tree_count does not need min degree 2, so also try graphs
    # with pendant vertices: a spanning path plus random extra edges
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [(i, i + 1) for i in range(n - 1)]
        for _ in range(rng.randint(0, 5)):
            edges.append((rng.randrange(n), rng.randrange(n)))
        g = build_multigraph(edges, n)
        assert kirchhoff_tree_count(g) == brute_force_tree_count(g)
