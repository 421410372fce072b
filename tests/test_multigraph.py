"""Tests for the multigraph container, its text format, and its invariants."""

from __future__ import annotations

import random
import re
from collections import deque
from itertools import combinations

import pytest

from iharazeta import multigraph
from iharazeta.errors import InputError
from iharazeta.families import (
    FAMILIES,
    NAMED_SMALL,
    gen_family,
    parse_family_spec,
)
from iharazeta.multigraph import (
    Multigraph,
    format_edge_list,
    girth,
    is_bipartite,
    kirchhoff_tree_count,
    parse_edge_list_text,
    subdivide,
    validate_zeta_input,
    vertex_matrix,
)


def cycle(n):
    return Multigraph([(i, (i + 1) % n) for i in range(n)], n)


def complete(n):
    return Multigraph(
        [(i, j) for i in range(n) for j in range(i + 1, n)], n
    )


TRIPLE_EDGE = Multigraph([(0, 1), (0, 1), (0, 1)], 2)


# --- construction and validation ---

def test_rejects_empty_vertex_set():
    with pytest.raises(InputError, match="^n_vertices must be >= 1$"):
        Multigraph([], 0)


@pytest.mark.parametrize("edge", [(0, 1.9), (0, "1"), (True, False)],
                         ids=["float", "str", "bool"])
def test_build_refuses_vertex_ids_that_are_not_ints(edge):
    # refused, not converted: int() would read 1.9 and "1" as 1, True as 1
    with pytest.raises(InputError, match=re.escape(f"edge {edge!r} ")):
        Multigraph([(0, 1), edge], 2)


@pytest.mark.parametrize("count", [True, 1.0, "1"],
                         ids=["bool", "float", "str"])
def test_build_refuses_a_vertex_count_that_is_not_an_int(count):
    # True would build a graph that format_edge_list writes as "n True"
    with pytest.raises(InputError, match=re.escape(
            f"n_vertices must be an int, got {count!r}")):
        Multigraph([(0, 0), (0, 0)], count)


def test_zeta_at_two_refuses_fewer_edges_than_vertices(monkeypatch):
    def no_determinant(matrix):
        raise AssertionError("determinant computed")

    monkeypatch.setattr(multigraph, "bareiss_int_det", no_determinant)
    with pytest.raises(InputError, match="2 vertices but 1 edges"):
        Multigraph([(0, 1)], 2).zeta_at_two()


def test_immutable_and_hashable():
    g = cycle(3)
    with pytest.raises(AttributeError):
        g.n = 4
    h = Multigraph([(1, 2), (0, 1), (0, 2)], 3)
    assert g == h
    assert hash(g) == hash(h)
    assert g != cycle(4)
    assert g != g.edge_list() and g != "n 3"


def test_stored_reference_leaves_equality_and_hash_alone():
    g = complete(4)
    assert g.zeta_at_two() == g.zeta_at_two()
    fresh = complete(4)
    assert g == fresh and hash(g) == hash(fresh)
    assert {g: "k4"}[fresh] == "k4"
    assert fresh.zeta_at_two() == g.zeta_at_two()


def test_build_rejects_bad_edges():
    with pytest.raises(InputError):
        Multigraph([(0, 2)], 2)
    with pytest.raises(InputError):
        Multigraph([(0, -1)], 2)
    with pytest.raises(InputError):
        Multigraph([(0, 1, 2)], 3)
    with pytest.raises(InputError):
        Multigraph([], 0)


# --- subdivide ---

def test_subdivide_refuses_a_zero_length_path_between_two_anchors():
    with pytest.raises(InputError,
                       match=r"slot \(0, 1\) has a path of length 0;"):
        subdivide(2, [(0, 1)], [(0, 2)])


def test_subdivide_refuses_a_negative_length():
    with pytest.raises(InputError,
                       match=r"slot \(0, 1\) has a path of length -1;"):
        subdivide(2, [(0, 1)], [(-1, 3)])


def test_subdivide_refuses_more_slots_than_length_tuples():
    with pytest.raises(ValueError, match="zip"):
        subdivide(2, [(0, 1), (1, 1)], [(1, 2)])


def test_subdivide_names_a_zero_length_cycle():
    with pytest.raises(InputError,
                       match=r"slot \(0, 0\) has a path of length 0;"):
        subdivide(1, [(0, 0)], [(0,)])


@pytest.mark.parametrize("length", [True, 2.0], ids=["bool", "float"])
def test_subdivide_refuses_a_length_that_is_not_an_int(length):
    # True would be read as a path of length 1
    with pytest.raises(InputError, match=re.escape(
            f"slot (0, 0) has a path of length {length!r}; each must be an "
            "int >= 1")):
        subdivide(1, [(0, 0)], [(length, 2)])


# --- degrees and counts ---

def test_loop_adds_two_to_degree():
    g = Multigraph([(0, 0), (0, 1)], 2)
    assert g.degrees() == (3, 1)
    assert g.edge_count == 2


# one small instance per family
SMALL_FAMILY_SPECS = [
    "C(3)", "K(4)", "Kl(3,1)", "Kb(2,3)", "O(6)", "B(6)", "M(6)", "G(2,3)",
    "Gp(3,4,1)", "H(2,3,2)", "BQ(2)", "D(1,1,1)", "T(1,0,0,2,2,0)",
    sorted(NAMED_SMALL)[0],
]


def test_stored_counts_match_the_table(sweep7):
    specs = [parse_family_spec(text) for text in SMALL_FAMILY_SPECS]
    assert {spec.tag for spec in specs} == set(FAMILIES)
    for g in [*sweep7, *map(gen_family, specs)]:
        n = g.n
        degrees = tuple(2 * g.loops[v] + sum(g.mult[v]) for v in range(n))
        edges = sum(g.loops) + sum(
            g.mult[i][j] for i in range(n) for j in range(i + 1, n))
        assert g.degrees() == degrees
        assert g.edge_count == edges == len(g.edge_list())


def test_vertex_matrix_from_the_edge_list():
    # I - uA + u^2 Q, rebuilt edge by edge: a loop puts 2 on A's diagonal
    # and adds 2 to its vertex's degree, Q = D - I
    g = Multigraph([(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 2)], 3)
    for u in (-1, 0, 1, 2, 3):
        a = [[0] * g.n for _ in range(g.n)]
        for v, w in g.edge_list():
            a[v][w] += 1
            a[w][v] += 1
        want = [[(v == w) - u * a[v][w]
                 + u * u * (v == w) * (sum(a[v]) - 1) for w in range(g.n)]
                for v in range(g.n)]
        assert vertex_matrix(g, u) == want


def test_rank_and_edge_count():
    assert TRIPLE_EDGE.edge_count == 3
    assert TRIPLE_EDGE.rank == 2
    assert cycle(5).rank == 1
    assert complete(4).rank == 3


def test_edge_list_order_and_round_trip():
    g = Multigraph([(2, 1), (0, 0), (1, 2), (0, 2), (1, 1)], 3)
    assert g.edge_list() == [(0, 0), (1, 1), (0, 2), (1, 2), (1, 2)]
    assert Multigraph(g.edge_list(), g.n) == g


def edge_list_oracle(g):
    """The labelled expansion by a double loop over every cell of the
    table: loops first, then the pairs i < j in row order."""
    out = []
    for v in range(g.n):
        out.extend([(v, v)] * g.loops[v])
    for i in range(g.n):
        for j in range(i + 1, g.n):
            out.extend([(i, j)] * g.mult[i][j])
    return out


def test_edge_list_matches_the_double_loop(sweep7):
    # edge_list visits only the nonzero loop counts and table cells; the
    # sweep, D, T and BQ with loops and parallel edges, and a disconnected
    # graph with an isolated vertex must expand as every cell read in turn
    specs = ["D(0,0,2)", "D(2,1,3)", "D(1,2,1)", "T(1,0,0,2,2,0)",
             "T(0,1,2,2,0,1)", "T(2,1,0,1,1,2)", "BQ(1)", "BQ(4)"]
    graphs = list(sweep7) + [gen_family(parse_family_spec(s)) for s in specs]
    graphs.append(Multigraph([(0, 1), (0, 1), (3, 3), (3, 4), (4, 4)], 6))
    for g in graphs:
        assert g.edge_list() == edge_list_oracle(g)
    assert not graphs[-1].connected


def test_neighbors_skip_loops():
    g = Multigraph([(0, 0), (0, 1), (1, 2)], 3)
    assert g.neighbors(0) == [1]
    assert g.neighbors(1) == [0, 2]


# --- text format ---

def test_parse_basic():
    assert parse_edge_list_text("n 3\n0 1\n1 2\n2 0\n") == cycle(3)


def test_parse_refuses_more_vertices_than_edges_before_building(monkeypatch):
    g = parse_edge_list_text("n 2\n0 1\n1 1 # loop\n")
    assert g == Multigraph([(0, 1), (1, 1)], 2)

    def no_table(*args):
        raise AssertionError("built a table")

    # min degree 2 forces |V| <= |E|; no 3000 x 3000 table is allocated
    monkeypatch.setattr(multigraph, "Multigraph", no_table)
    with pytest.raises(InputError, match="^graph has 3000 vertices but 0 edges; "):
        parse_edge_list_text("n 3000\n")


def test_parse_comments_and_blank_lines():
    text = """
# a triangle
n 3

0 1  # first edge, not the 1_0th or the \u0661st
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


@pytest.mark.parametrize("text, message", [
    ("n 1_0\n0 0\n", "line 1: bad vertex count"),
    ("n \u0661\n0 0\n", "line 1: bad vertex count"),
    ("n 1\n0 0_0\n", "line 2: bad vertex index"),
    ("n 2\n0 \u0661\n1 1\n", "line 2: bad vertex index"),
], ids=["underscore-count", "arabic-count", "underscore-id", "arabic-id"])
def test_parse_refuses_what_int_reads_beyond_ascii_decimals(text, message):
    # int() reads "1_0" as 10 and the Arabic-Indic digit one as 1
    with pytest.raises(InputError, match=message):
        parse_edge_list_text(text)


def test_format_round_trip():
    g = Multigraph([(0, 0), (0, 1), (0, 1), (1, 2), (0, 2)], 3)
    assert parse_edge_list_text(format_edge_list(g)) == g


# --- structural invariants ---

def test_report_on_a_cycle(support_is_connected):
    g = cycle(4)
    assert g.connected and support_is_connected(g)
    assert min(g.degrees()) == 2
    assert g.rank == 1
    assert girth(g) == 4
    assert is_bipartite(g)


def test_girth_rules():
    assert girth(Multigraph([(0, 0)], 1)) == 1
    assert girth(Multigraph([(0, 1), (0, 1)], 2)) == 2
    assert girth(cycle(3)) == 3
    # a loop wins over any longer cycle
    g = Multigraph([(0, 0), (0, 1), (1, 2), (2, 0)], 3)
    assert girth(g) == 1
    # trees are acyclic
    path = Multigraph([(0, 1), (1, 2)], 3)
    assert girth(path) is None


def test_girth_finds_shortest_cycle_not_first():
    # six-cycle with a chord creating a four-cycle
    g = Multigraph(
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
        got = girth(Multigraph(edges, n))
        assert got == (None if want == float("inf") else want), edges


def every_root_girth(g):
    """girth's rules, with a BFS from every root and no early stop."""
    if any(g.loops):
        return 1
    if any(x >= 2 for row in g.mult for x in row):
        return 2
    best = None
    for s in range(g.n):
        dist, parent = {s: 0}, {s: None}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w], parent[w] = dist[v] + 1, v
                    queue.append(w)
                elif w != parent[v]:
                    length = dist[v] + dist[w] + 1
                    best = length if best is None else min(best, length)
    return best


def test_girth_stops_at_a_triangle_without_changing_the_answer(sweep7):
    specs = [f"K({n})" for n in range(3, 10)]
    specs += [f"C({n})" for n in range(1, 13)]
    specs += [f"M({n})" for n in range(4, 15, 2)]
    specs += [f"Kb({m},{n})" for m in range(2, 5) for n in range(m, 7)]
    graphs = [*sweep7, *(gen_family(parse_family_spec(s)) for s in specs)]
    for g in graphs:
        assert girth(g) == every_root_girth(g), g
    # a 12-cycle through vertex 0 whose chord 9-11 makes the one triangle:
    # BFS from the early roots sees only longer cycles first
    g = Multigraph([(i, (i + 1) % 12) for i in range(12)] + [(9, 11)], 12)
    assert girth(g) == every_root_girth(g) == 3


def test_bipartite_rules():
    assert is_bipartite(cycle(4))
    assert not is_bipartite(cycle(5))
    # parallel edges keep bipartiteness, loops kill it
    assert is_bipartite(Multigraph([(0, 1), (0, 1)], 2))
    g = Multigraph([(0, 0), (0, 1), (0, 1)], 2)
    assert not is_bipartite(g)


def test_disconnected_is_reported(support_is_connected):
    g = Multigraph([(0, 1), (2, 3)], 4)
    assert not g.connected and not support_is_connected(g)
    # loops join nothing; an isolated vertex is a component of its own
    assert not Multigraph([(0, 0), (1, 1)], 2).connected
    assert not Multigraph([(0, 1), (1, 0)], 3).connected
    assert Multigraph([(0, 0)], 1).connected


def test_validate_zeta_input():
    validate_zeta_input(TRIPLE_EDGE)
    with pytest.raises(InputError, match="^graph is not connected$"):
        validate_zeta_input(
            Multigraph([(0, 1), (0, 1), (2, 3), (2, 3)], 4)
        )
    with pytest.raises(InputError, match="vertex of degree 1"):
        validate_zeta_input(Multigraph([(0, 1), (1, 2), (2, 0), (2, 3)], 4))


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
    assert kirchhoff_tree_count(Multigraph([(0, 0)], 1)) == 1


def test_kirchhoff_ignores_loops():
    noisy = Multigraph(cycle(4).edge_list() + [(0, 0), (2, 2)], 4)
    assert kirchhoff_tree_count(noisy) == 4


def test_kirchhoff_rejects_disconnected():
    with pytest.raises(InputError, match="spanning trees need a connected"):
        kirchhoff_tree_count(Multigraph([(0, 1), (2, 3)], 4))


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
        g = Multigraph(edges, n)
        assert kirchhoff_tree_count(g) == brute_force_tree_count(g)
