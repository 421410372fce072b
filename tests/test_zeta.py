"""Tests for the oriented line graph and the three zeta-reciprocal engines."""

from __future__ import annotations

import random

import pytest

from iharazeta.errors import (
    InputError,
    SizeCapError,
    VerificationError,
)
from iharazeta.families import (
    closed_form,
    family_spec,
    gen_family,
    parse_family_spec,
)
from iharazeta.intpoly import IntPoly
from iharazeta.multigraph import Multigraph, is_bipartite
from iharazeta import multigraph, zeta
from iharazeta.polydet import bareiss_int_det, reversed_charpoly
from iharazeta.smallgraphs import connected_multigraphs
from iharazeta.zeta import (
    oriented_line_graph,
    poly_invariants,
    zeta_bass,
    zeta_enum,
    zeta_line_det,
)

from census import (
    census_coefficient,
    enumerate_directed_cycles,
    linear_subgraph_census,
)


def cycle(n):
    return Multigraph([(i, (i + 1) % n) for i in range(n)], n)


def complete(n):
    return Multigraph(
        [(i, j) for i in range(n) for j in range(i + 1, n)], n
    )


def two_cycles_joined(m, n):
    """Cycles of lengths m and n sharing the single vertex 0."""
    edges = []
    verts = list(range(m))
    edges += [(verts[i], verts[(i + 1) % m]) for i in range(m)]
    verts = [0] + list(range(m, m + n - 1))
    edges += [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Multigraph(edges, m + n - 1)


TRIPLE_EDGE = Multigraph([(0, 1), (0, 1), (0, 1)], 2)


# --- oriented line graph ---

def arcs(origin, terminus):
    """out[i]: the j with an arc i -> j, ascending, by the arc rule
    j != i ^ 1 and terminus[j] == origin[i]."""
    return [
        [j for j in range(len(origin)) if j != i ^ 1 and terminus[j] == v]
        for i, v in enumerate(origin)
    ]


def in_degrees(out):
    into = [0] * len(out)
    for row in out:
        for j in row:
            into[j] += 1
    return into


def test_line_graph_size_and_inverse_involution():
    for g in (cycle(3), TRIPLE_EDGE, two_cycles_joined(1, 3), complete(4)):
        origin, terminus = oriented_line_graph(g)
        n = 2 * g.edge_count
        assert len(origin) == len(terminus) == n
        out = arcs(origin, terminus)
        edges = g.edge_list()
        for i in range(n):
            j = i ^ 1
            assert j != i
            assert j ^ 1 == i
            # parent edge i >> 1, orientation i & 1, inverse i ^ 1
            assert (origin[i], terminus[i]) == (
                edges[i >> 1] if i & 1 == 0 else edges[i >> 1][::-1]
            )
            assert origin[j] == terminus[i]
            assert terminus[j] == origin[i]
            # no backtracking in either recording direction
            assert j not in out[i] and i not in out[j]


def test_line_graph_degrees_follow_endpoint_degrees():
    # on every class of the 6-edge sweep (loops and parallel edges
    # included), and on two cycles sharing a vertex of degree 4
    for g in (*connected_multigraphs(6), two_cycles_joined(3, 4)):
        origin, terminus = oriented_line_graph(g)
        out = arcs(origin, terminus)
        into = in_degrees(out)
        degrees = g.degrees()
        for i in range(len(origin)):
            assert len(out[i]) == degrees[origin[i]] - 1
            assert into[i] == degrees[terminus[i]] - 1


def test_line_graph_degree_signature_of_joined_cycles():
    # cycles of lengths 3 and 4 sharing one vertex of degree 4
    out = arcs(*oriented_line_graph(two_cycles_joined(3, 4)))
    assert len(out) == 14
    sig = {}
    for row, d_in in zip(out, in_degrees(out)):
        key = (len(row), d_in)
        sig[key] = sig.get(key, 0) + 1
    assert sig == {(3, 1): 4, (1, 3): 4, (1, 1): 6}


def test_line_graph_out_lists_match_the_definition():
    # the arc rule on the two columns gives, on every class of the 6-edge
    # sweep (loops and parallel edges included), the out lists read off the
    # edge list: i runs along edge i >> 1 in orientation i & 1, and i -> j
    # when j is not i reversed and j ends where i starts
    for g in connected_multigraphs(6):
        ends = [d for e in g.edge_list() for d in (e, e[::-1])]
        expected = [
            [j for j, (_, w) in enumerate(ends) if j != i ^ 1 and w == u]
            for i, (u, _) in enumerate(ends)
        ]
        assert arcs(*oriented_line_graph(g)) == expected


def test_loop_gives_two_self_arcs():
    origin, terminus = oriented_line_graph(Multigraph([(0, 0)], 1))
    assert (origin, terminus) == ((0, 0), (0, 0))
    assert arcs(origin, terminus) == [[0], [1]]


def test_bigon_line_graph_cycles():
    # two parallel edges: leaving by one copy and returning by the other is
    # a legal closed walk, so the line digraph has two disjoint 2-cycles
    olg = oriented_line_graph(Multigraph([(0, 1), (0, 1)], 2))
    cycles = sorted(enumerate_directed_cycles(*olg))
    assert cycles == [(0b0110, 2), (0b1001, 2)]
    assert linear_subgraph_census(*olg) == {(2, 1): 2, (4, 2): 1}


def test_arc_matrix_transpose_gives_same_determinant():
    g = two_cycles_joined(3, 4)
    out = arcs(*oriented_line_graph(g))
    transpose = [[int(i in out[j]) for j in range(len(out))]
                 for i in range(len(out))]
    assert reversed_charpoly(transpose) == zeta_line_det(g)


def adjacency(g):
    """A from the edge list; a loop counts 2 on the diagonal."""
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edge_list():
        a[u][v] += 1
        a[v][u] += 1
    return a


def block_linearisation(g):
    """B = [[A, -Q], [I, 0]] in block order, from the edge list."""
    n = g.n
    upper = [
        row + [-(sum(row) - 1) * int(i == j) for j in range(n)]
        for i, row in enumerate(adjacency(g))
    ]
    lower = [[int(i == j) for j in range(n)] + [0] * n for i in range(n)]
    return upper + lower


def test_engines_hand_the_kernel_permutation_similar_matrices():
    # zeta_bass interleaves the rows and columns of B and zeta_line_det
    # sorts the directed edges by origin; each is P M P^T, so the kernel
    # gives the polynomial of B in block order and of T in edge order
    graphs = connected_multigraphs(5) + [
        gen_family(family_spec(*spec))
        for spec in (("Complete", 6), ("Bouquet", 3),
                     ("CompleteBipartite", 3, 3))
    ]
    for g in graphs:
        assert zeta_bass(g) == IntPoly((1, 0, -1)) ** (g.rank - 1) * (
            reversed_charpoly(block_linearisation(g))
        )
        out = arcs(*oriented_line_graph(g))
        t = [[int(j in row) for j in range(len(out))] for row in out]
        assert reversed_charpoly(t) == zeta_line_det(g)


def test_line_det_builds_t_by_the_arc_rule(monkeypatch):
    # the in-list build hands the kernel exactly the origin-sorted T of the
    # arc rule, on every class of the 6-edge sweep (loops, their self-arcs,
    # parallel edges) and on K(9)
    seen = []

    def capture(matrix):
        seen.append(matrix)
        return reversed_charpoly(matrix)

    monkeypatch.setattr(zeta, "reversed_charpoly", capture)
    for g in connected_multigraphs(6) + [complete(9)]:
        seen.clear()
        zeta_line_det(g)
        origin, terminus = oriented_line_graph(g)
        order = sorted(range(len(origin)), key=origin.__getitem__)
        assert seen == [[
            [int(j != i ^ 1 and terminus[j] == origin[i]) for j in order]
            for i in order
        ]]


def test_ihara_bass_at_two_on_the_sweep_and_families():
    # the identity the output check rests on: (-3)^(r-1) det(I - 2A + 4Q)
    # = det(I - 2T), with A and Q = D - I from the edge list and T in edge
    # order from the arc rule, over loops, parallel edges and dense graphs
    graphs = connected_multigraphs(6) + [
        gen_family(parse_family_spec(spec))
        for spec in ("K(9)", "Kl(3,2)", "BQ(3)", "D(2,1,3)", "Kb(3,3)")
    ]
    for g in graphs:
        a = adjacency(g)
        vertex_side = [
            [int(i == j) - 2 * x + 4 * (sum(row) - 1) * int(i == j)
             for j, x in enumerate(row)]
            for i, row in enumerate(a)
        ]
        out = arcs(*oriented_line_graph(g))
        edge_side = [
            [int(i == j) - 2 * int(j in row) for j in range(len(out))]
            for i, row in enumerate(out)
        ]
        assert (-3) ** (g.rank - 1) * bareiss_int_det(vertex_side) == (
            bareiss_int_det(edge_side)
        )


# --- frozen values ---

def test_cycle_fixtures():
    for n in range(1, 6):
        expected = IntPoly.from_terms([(0, 1), (n, -1)]) ** 2
        for engine in (zeta_bass, zeta_line_det, zeta_enum):
            assert engine(cycle(n)) == expected


def test_triangle_literal():
    assert zeta_bass(cycle(3)) == IntPoly((1, 0, 0, -2, 0, 0, 1))


def test_figure_eight_literal():
    g = Multigraph([(0, 0), (0, 0)], 1)
    expected = IntPoly((1, -4, 2, 4, -3))
    for engine in (zeta_bass, zeta_line_det, zeta_enum):
        assert engine(g) == expected


def test_triple_edge_literal():
    expected = IntPoly((1, 0, -6, 0, 9, 0, -4))
    for engine in (zeta_bass, zeta_line_det, zeta_enum):
        assert engine(TRIPLE_EDGE) == expected


def test_report_metadata():
    poly = zeta_bass(cycle(4))
    assert poly.degree == 8
    assert poly.leading_coeff == 1
    assert poly.first_nonzero_power(start=1) == 4
    assert poly.is_even()


# --- engine agreement ---

def test_engines_agree_on_small_sweep(sweep7):
    for g in sweep7:
        if g.edge_count > 4:
            continue
        a = zeta_bass(g)
        assert zeta_line_det(g) == a
        assert zeta_enum(g) == a


def middle_off_by_one(coeffs):
    cs = list(coeffs)
    cs[len(cs) // 2] += 1  # neither the constant nor the leading term
    return cs


# the name each engine's output check puts before its message
ENGINE_NAMES = {zeta_bass: "bass", zeta_line_det: "linedet",
                zeta_enum: "enum"}


@pytest.mark.parametrize("engine", [zeta_bass, zeta_line_det, zeta_enum])
def test_wrong_kernel_coefficient_fails_the_check_point(monkeypatch, engine):
    # the determinant kernel for bass and linedet, the clow DP for enum
    clow = zeta._clow_coefficients
    monkeypatch.setattr(zeta, "reversed_charpoly", lambda matrix: IntPoly(
        middle_off_by_one(reversed_charpoly(matrix).coeffs)))
    monkeypatch.setattr(zeta, "_clow_coefficients", lambda *olg: (
        middle_off_by_one(clow(*olg))))
    with pytest.raises(VerificationError,
                       match=rf"^{ENGINE_NAMES[engine]}: .* at u = 2"):
        engine(two_cycles_joined(3, 4))


@pytest.mark.parametrize("engine", [zeta_bass, zeta_line_det, zeta_enum])
def test_every_engine_runs_the_check_at_two(monkeypatch, engine):
    # a wrong reference value rejects a correct polynomial, so each engine
    # must have compared its output with it
    monkeypatch.setattr(multigraph, "bareiss_int_det",
                        lambda matrix: bareiss_int_det(matrix) + 1)
    with pytest.raises(VerificationError,
                       match=rf"^{ENGINE_NAMES[engine]}: .* at u = 2"):
        engine(two_cycles_joined(3, 4))


def test_engines_on_one_graph_object_compute_one_reference(monkeypatch):
    # the value at u = 2 is kept on the graph object: the three engines'
    # checks on it share one determinant, and an equal graph built anew
    # computes its own
    calls = []

    def counting(matrix):
        calls.append(len(matrix))
        return bareiss_int_det(matrix)

    monkeypatch.setattr(multigraph, "bareiss_int_det", counting)
    g = two_cycles_joined(3, 4)
    for engine in (zeta_bass, zeta_line_det, zeta_enum):
        engine(g)
    assert calls == [g.n]
    fresh = two_cycles_joined(3, 4)
    assert fresh == g and fresh is not g
    zeta_bass(fresh)
    zeta_enum(fresh)
    assert calls == [g.n, g.n]


@pytest.mark.parametrize("engine", [zeta_bass, zeta_line_det])
def test_wrong_degree_fails_the_output_check(monkeypatch, engine):
    def two_terms_too_long(matrix):
        # p + (u - 2) u^(deg p + 1) has the value of p at u = 2, so only
        # the degree check can catch it
        p = reversed_charpoly(matrix)
        return p + IntPoly((-2, 1)) * IntPoly.from_terms([(p.degree + 1, 1)])

    monkeypatch.setattr(zeta, "reversed_charpoly", two_terms_too_long)
    with pytest.raises(VerificationError,
                       match=rf"^{ENGINE_NAMES[engine]}: degree "):
        engine(two_cycles_joined(3, 4))


def test_wrong_constant_term_fails_the_output_check(monkeypatch):
    real = zeta._clow_coefficients

    def constant_two(origin, terminus):
        return [2] + real(origin, terminus)[1:]

    monkeypatch.setattr(zeta, "_clow_coefficients", constant_two)
    with pytest.raises(VerificationError, match="^enum: constant term 2 "):
        zeta_enum(cycle(3))


def test_engines_validate_input():
    path = Multigraph([(0, 1), (1, 2)], 3)
    split = Multigraph([(0, 1), (0, 1), (2, 3), (2, 3)], 4)
    for engine in (zeta_bass, zeta_line_det, zeta_enum):
        with pytest.raises(InputError, match="vertex of degree 1"):
            engine(path)
        with pytest.raises(InputError, match="not connected"):
            engine(split)


# --- enumeration engine internals ---

def test_triangle_line_graph_census():
    census = linear_subgraph_census(*oriented_line_graph(cycle(3)))
    assert census == {(3, 1): 2, (6, 2): 1}
    assert census_coefficient(census, 3) == -2
    assert census_coefficient(census, 6) == 1
    assert census_coefficient(census, 4) == 0


def test_census_reproduces_enum_coefficients(sweep7):
    for g in sweep7:
        if g.edge_count > 4:
            continue
        census = linear_subgraph_census(*oriented_line_graph(g))
        poly = zeta_enum(g)
        for k in range(1, 2 * g.edge_count + 1):
            assert census_coefficient(census, k) == poly.coeff(k)


def test_enum_matches_bass_on_sparse_graphs():
    # 18 and 100 directed edges: sparse line graphs with long cycles
    for g in (two_cycles_joined(4, 5), two_cycles_joined(20, 30)):
        assert zeta_enum(g, cap=2 * g.edge_count) == zeta_bass(g)


def test_size_cap():
    with pytest.raises(SizeCapError, match="72"):
        zeta_enum(complete(9))
    with pytest.raises(SizeCapError):
        zeta_enum(cycle(3), cap=5)
    assert zeta_enum(cycle(3), cap=6) == zeta_bass(cycle(3))


def test_size_cap_is_checked_before_the_line_graph_is_built(monkeypatch):
    def refuse(g):
        raise AssertionError("line graph built before the cap check")

    monkeypatch.setattr(zeta, "oriented_line_graph", refuse)
    with pytest.raises(SizeCapError, match="200"):
        zeta_enum(Multigraph([(0, 0)] * 100, 1))


@pytest.mark.parametrize("spec", [
    *(family_spec("Bouquet", a) for a in range(1, 10)),
    family_spec("Bouquet", 32),
    family_spec("Dumbbell", 4, 4, 1),
    family_spec("ThreeVertex", 1, 1, 1, 2, 2, 2),
    family_spec("Complete", 9),
], ids=str)
def test_enum_on_dense_line_graphs(spec):
    # all 2|E| directed edges start at one to nine graph vertices, so the
    # per-vertex sums are dense; Bouquet(32) has as many directed edges as
    # the default cap allows, Complete(9) needs the cap raised to 72
    g = gen_family(spec)
    assert zeta_enum(g, cap=2 * g.edge_count) == closed_form(spec)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engines_agree_on_dense_seeded_multigraphs(seed):
    # 5 vertices and 32 edges (a Hamiltonian cycle in random order plus
    # random pairs, loops allowed): k = r - 1 = 27 against deg h = 10, so
    # Bass takes nearly every row of its (1 - u^2)^k product from the
    # differences, and linedet and enum share none of that code. 64
    # directed edges are exactly enum's default cap
    rng = random.Random(seed)
    order = rng.sample(range(5), 5)
    edges = [(order[i], order[i - 1]) for i in range(5)]
    edges += [(rng.randrange(5), rng.randrange(5)) for _ in range(27)]
    g = Multigraph(edges, 5)
    poly = zeta_bass(g)
    assert zeta_line_det(g) == poly
    assert zeta_enum(g) == poly


@pytest.mark.parametrize(
    "text", ["BQ(32)", "K(9)", "C(200)", "M(20)", "Kb(5,6)", "D(2,1,3)"])
def test_clow_truncation_keeps_every_coefficient(text):
    # head h walks and multiplies only up to u^(n - h); these inputs have
    # long cycles, one dense vertex or many heads, where that stops most
    # of the DP. Called directly, so no cap applies (K(9): 72 > 64)
    origin, terminus = oriented_line_graph(gen_family(parse_family_spec(text)))
    out = arcs(origin, terminus)
    t = [[int(j in row) for j in range(len(out))] for row in out]
    coeffs = zeta._clow_coefficients(origin, terminus)
    assert tuple(coeffs) == reversed_charpoly(t).coeffs


# --- polynomial-level invariants ---

def test_poly_invariants_pass_on_engine_output():
    poly = zeta_bass(TRIPLE_EDGE)
    poly_invariants(poly, TRIPLE_EDGE)  # raises on any mismatch
    assert poly.leading_coeff == -4
    assert poly.first_nonzero_power(start=1) == 2
    assert poly.is_even() and is_bipartite(TRIPLE_EDGE)


def test_poly_invariants_name_the_failed_check():
    g = cycle(4)
    poly_invariants(zeta_bass(g), g)  # 1 - 2u^4 + u^8 passes
    with pytest.raises(VerificationError, match="degree"):
        poly_invariants(IntPoly((1, 0, 0, 0, -1)), g)
    with pytest.raises(VerificationError, match="leading-coefficient"):
        poly_invariants(IntPoly((1, 0, 0, 0, -2, 0, 0, 0, 2)), g)
    with pytest.raises(VerificationError, match="girth"):
        poly_invariants(IntPoly((1, 0, -2, 0, 0, 0, 0, 0, 1)), g)
    with pytest.raises(VerificationError, match="evenness"):
        poly_invariants(IntPoly((1, 0, 0, 0, -2, 1, 0, 0, 1)), g)
