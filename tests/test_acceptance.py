"""Acceptance gate: one test per numbered criterion.

Every expected value here is frozen independently of the engines under
test: reference polynomials are restated as literal term lists, closed
forms come from the family catalogue, and the cycle-packing censuses
were tallied by hand over the oriented line graphs. The terminal
summary hook in conftest.py condenses the outcome into one PASS/FAIL
line per criterion.
"""

from iharazeta.families import (
    closed_form,
    family_spec,
    gen_family,
    tree_count_closed_form,
)
from iharazeta.intpoly import IntPoly
from iharazeta.multigraph import (
    build_multigraph,
    kirchhoff_tree_count,
    structural_report,
)
from iharazeta.ranktwo import completeness_check, enumerate_rank2
from iharazeta.smallgraphs import _table_classes, canonical_key
from iharazeta.trees import tree_count_from_zeta
from iharazeta.zeta import (
    census_coefficient,
    linear_subgraph_census,
    oriented_line_graph,
    poly_invariants,
    zeta_bass,
    zeta_enum,
    zeta_line_det,
)


# --- criterion 1: engine agreement on the exhaustive sweep ---


def test_criterion_1_engine_agreement_sweep(sweep7, sweep7_bass):
    # 489 isomorphism classes of connected min-degree-2 multigraphs
    # with at most 7 edges; the count is frozen in test_smallgraphs.
    assert len(sweep7) == 489
    enum_checked = 0
    for g, ref in zip(sweep7, sweep7_bass):
        assert zeta_line_det(g) == ref, g
        if 2 * g.edge_count <= 14:
            assert zeta_enum(g) == ref, g
            enum_checked += 1
    assert enum_checked == len(sweep7)


# --- criterion 2: reference polynomials, coefficient for coefficient ---


def _complement_of_k5(missing):
    """K_5 with the given vertex pairs removed."""
    gone = {frozenset(e) for e in missing}
    edges = [
        (i, j)
        for i in range(5)
        for j in range(i + 1, 5)
        if frozenset((i, j)) not in gone
    ]
    return build_multigraph(edges, 5)


# (graph, descending term list); the term lists are frozen reference
# data, restated here rather than imported from the family catalogue so
# the two transcriptions check each other.
REFERENCE_FIXTURES = [
    (
        "two loops on one vertex",
        build_multigraph([(0, 0), (0, 0)], 1),
        [(4, -3), (3, 4), (2, 2), (1, -4), (0, 1)],
    ),
    (
        "bigon plus loop",
        build_multigraph([(0, 1), (0, 1), (1, 1)], 2),
        [(6, -3), (5, 2), (4, 3), (2, -1), (1, -2), (0, 1)],
    ),
    (
        "two bigons sharing a vertex",
        build_multigraph([(0, 1), (0, 1), (1, 2), (1, 2)], 3),
        [(8, -3), (6, 4), (4, 2), (2, -4), (0, 1)],
    ),
    (
        "triple edge",
        build_multigraph([(0, 1), (0, 1), (0, 1)], 2),
        [(6, -4), (4, 9), (2, -6), (0, 1)],
    ),
    (
        "K4 minus an edge",
        build_multigraph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 4),
        [(10, -4), (8, 1), (7, 4), (6, 4), (4, -2), (3, -4), (0, 1)],
    ),
    (
        "K5 minus an edge",
        _complement_of_k5([(3, 4)]),
        [(18, 108), (16, -360), (15, -80), (14, 345), (13, 252),
         (12, 52), (11, -222), (10, -234), (9, -32), (8, 69), (7, 108),
         (6, 37), (5, -12), (4, -18), (3, -14), (0, 1)],
    ),
    (
        "K5 minus two disjoint edges",
        _complement_of_k5([(0, 1), (2, 3)]),
        [(16, -48), (14, 112), (13, 32), (12, -40), (11, -64),
         (10, -68), (9, 8), (8, 41), (7, 40), (6, 12), (5, -8),
         (4, -10), (3, -8), (0, 1)],
    ),
    (
        "K5 minus a two-edge path",
        _complement_of_k5([(0, 1), (1, 2)]),
        [(16, -36), (14, 73), (13, 28), (12, -4), (11, -50), (10, -62),
         (9, -8), (8, 17), (7, 44), (6, 21), (5, -4), (4, -10),
         (3, -10), (0, 1)],
    ),
    (
        "K5 minus a triangle",
        _complement_of_k5([(0, 1), (0, 2), (1, 2)]),
        [(14, 9), (12, -4), (11, -6), (10, -18), (8, 9), (7, 12),
         (6, 9), (4, -6), (3, -6), (0, 1)],
    ),
    (
        "K5 minus a three-edge path",
        _complement_of_k5([(0, 1), (1, 2), (2, 3)]),
        [(14, 12), (12, -11), (11, -10), (10, -11), (9, 6), (8, 6),
         (7, 12), (6, 7), (5, -2), (4, -4), (3, -6), (0, 1)],
    ),
    (
        "K5 minus a two-edge path and a disjoint edge",
        _complement_of_k5([(0, 1), (1, 2), (3, 4)]),
        [(14, 16), (12, -20), (11, -8), (10, -12), (9, 4), (8, 17),
         (7, 12), (6, 4), (5, -4), (4, -6), (3, -4), (0, 1)],
    ),
    (
        "K5 minus a four-edge path",
        _complement_of_k5([(0, 1), (1, 2), (2, 3), (3, 4)]),
        [(12, -4), (10, 1), (9, 2), (8, 3), (7, 2), (6, 1), (5, -2),
         (4, -2), (3, -2), (0, 1)],
    ),
    (
        "K5 minus a four-cycle",
        _complement_of_k5([(0, 1), (1, 2), (2, 3), (0, 3)]),
        [(12, -3), (9, 4), (6, 2), (3, -4), (0, 1)],
    ),
]


def test_criterion_2_reference_polynomials_exact():
    for label, g, terms in REFERENCE_FIXTURES:
        expected = IntPoly.from_terms(terms)
        assert zeta_bass(g) == expected, label
        assert zeta_line_det(g) == expected, label


# --- criterion 3: closed forms equal engine output on the full grids ---


def _assert_family_exact(spec):
    assert closed_form(spec) == zeta_bass(gen_family(spec)), str(spec)


# Degenerate small cases of the rank-two families print as fixed
# polynomials; the parametric displays below cover the general shapes.
SMALL_RANK_TWO = [
    ("DoubleCycle", (1, 1), [(4, -3), (3, 4), (2, 2), (1, -4), (0, 1)]),
    ("DoubleCycle", (1, 2), [(6, -3), (5, 2), (4, 3), (2, -1), (1, -2), (0, 1)]),
    ("DoubleCycle", (2, 2), [(8, -3), (6, 4), (4, 2), (2, -4), (0, 1)]),
    ("SharedPath", (2, 2, 1), [(6, -4), (4, 9), (2, -6), (0, 1)]),
]


def _loop_and_cycle_terms(n):
    # double cycle with the first cycle shrunk to a loop
    return [(2 * (1 + n), -3), (1 + 2 * n, 2), (2 + n, 2), (2 * n, 1),
            (2, 1), (n, -2), (1, -2), (0, 1)]


def _bigon_and_cycle_terms(n):
    # double cycle with the first cycle shrunk to a bigon
    return [(2 * (2 + n), -3), (2 + 2 * n, 2), (4 + n, 2), (2 * n, 1),
            (4, 1), (n, -2), (2, -2), (0, 1)]


def _bigon_theta_terms(n):
    # shared-path graph with m = 2, p = 1: a doubled edge inside a cycle
    return [(2 * n + 2, -4), (2 * n, 4), (n + 2, 4), (4, 1), (n, -4),
            (2, -2), (0, 1)]


def _handcuff_bigon_terms(n, l):
    # handcuff with the first cycle shrunk to a bigon
    return [(2 * (2 + n + l), -4), (2 * (2 + n), 1), (2 + 2 * n + 2 * l, 4),
            (4 + n + 2 * l, 4), (4 + n, -2), (2 + 2 * n, -2),
            (2 + n + 2 * l, -4), (2 * n, 1), (2 + n, 4), (4, 1), (n, -2),
            (2, -2), (0, 1)]


def _handcuff_loop_terms(n, l):
    # handcuff with the first cycle shrunk to a loop
    return [(2 * (1 + n + l), -4), (2 * (1 + n), 1), (1 + 2 * n + 2 * l, 4),
            (2 + n + 2 * l, 4), (2 + n, -2), (1 + 2 * n, -2),
            (1 + n + 2 * l, -4), (2 * n, 1), (1 + n, 4), (2, 1), (n, -2),
            (1, -2), (0, 1)]


def _handcuff_two_bigons_terms(l):
    return [(2 * (4 + l), -4), (8, 1), (6 + 2 * l, 8), (4 + 2 * l, -4),
            (6, -4), (4, 6), (2, -4), (0, 1)]


def _handcuff_loop_bigon_terms(l):
    return [(2 * (3 + l), -4), (6, 1), (5 + 2 * l, 4), (4 + 2 * l, 4),
            (5, -2), (4, -1), (3 + 2 * l, -4), (3, 4), (2, -1), (1, -2),
            (0, 1)]


def _handcuff_two_loops_terms(l):
    return [(2 * (2 + l), -4), (4, 1), (3 + 2 * l, 8), (3, -4),
            (2 + 2 * l, -4), (2, 6), (1, -4), (0, 1)]


def test_criterion_3_closed_form_grids_exact():
    # rank-two families over the full parameter grids
    for m in range(3, 8):
        for n in range(m, 8):
            _assert_family_exact(family_spec("DoubleCycle", m, n))
            for p in range(1, m):
                _assert_family_exact(family_spec("SharedPath", m, n, p))
            for l in range(1, 5):
                _assert_family_exact(family_spec("Handcuff", m, n, l))

    # degenerate rank-two multigraphs with frozen literal polynomials
    for tag, params, terms in SMALL_RANK_TWO:
        spec = family_spec(tag, *params)
        expected = IntPoly.from_terms(terms)
        assert closed_form(spec) == expected, str(spec)
        assert zeta_bass(gen_family(spec)) == expected, str(spec)

    # parametric multigraph degenerations, restated as term lists
    for n in range(3, 8):
        for spec, terms in [
            (family_spec("DoubleCycle", 1, n), _loop_and_cycle_terms(n)),
            (family_spec("DoubleCycle", 2, n), _bigon_and_cycle_terms(n)),
            (family_spec("SharedPath", 2, n, 1), _bigon_theta_terms(n)),
        ]:
            expected = IntPoly.from_terms(terms)
            assert closed_form(spec) == expected, str(spec)
            assert zeta_bass(gen_family(spec)) == expected, str(spec)
        for l in range(1, 5):
            for spec, terms in [
                (family_spec("Handcuff", 2, n, l), _handcuff_bigon_terms(n, l)),
                (family_spec("Handcuff", 1, n, l), _handcuff_loop_terms(n, l)),
            ]:
                expected = IntPoly.from_terms(terms)
                assert closed_form(spec) == expected, str(spec)
                assert zeta_bass(gen_family(spec)) == expected, str(spec)
    for l in range(1, 5):
        for spec, terms in [
            (family_spec("Handcuff", 2, 2, l), _handcuff_two_bigons_terms(l)),
            (family_spec("Handcuff", 1, 2, l), _handcuff_loop_bigon_terms(l)),
            (family_spec("Handcuff", 1, 1, l), _handcuff_two_loops_terms(l)),
        ]:
            expected = IntPoly.from_terms(terms)
            assert closed_form(spec) == expected, str(spec)
            assert zeta_bass(gen_family(spec)) == expected, str(spec)

    # dense families
    for n in range(3, 9):
        _assert_family_exact(family_spec("Complete", n))
    for n in range(2, 6):
        for k in range(3):
            if n == 2 and k == 0:
                continue
            _assert_family_exact(family_spec("CompleteWithLoops", n, k))
    for m in range(2, 7):
        for n in range(m, 7):
            _assert_family_exact(family_spec("CompleteBipartite", m, n))
    for order in (4, 6, 8, 10):
        _assert_family_exact(family_spec("CocktailParty", order))
    for order in (6, 8, 10, 12):
        _assert_family_exact(family_spec("MatchingDeleted", order))


# --- criterion 4: exact closed form for the Moebius ladder ---


def test_criterion_4_mobius_ladder_exact():
    for n in range(4, 31, 2):
        _assert_family_exact(family_spec("MobiusLadder", n))
    # the 4-rung ladder is the complete graph on four vertices
    assert closed_form(family_spec("MobiusLadder", 4)) \
        == closed_form(family_spec("Complete", 4))


# --- criterion 5: even polynomial exactly for bipartite graphs ---


def test_criterion_5_even_iff_bipartite(sweep7, sweep7_bass):
    n_bipartite = n_other = 0
    for g, poly in zip(sweep7, sweep7_bass):
        if structural_report(g).bipartite:
            assert poly.is_even(), g
            n_bipartite += 1
        else:
            odd = [k for k in range(1, poly.degree + 1, 2)
                   if poly.coeff(k)]
            assert odd, g
            n_other += 1
    assert n_bipartite > 0 and n_other > 0


# --- criterion 6: leading coefficient and girth readout ---


def test_criterion_6_leading_and_girth_identities(sweep7, sweep7_bass):
    for g, poly in zip(sweep7, sweep7_bass):
        poly_invariants(poly, g)  # raises on any mismatch


# --- criterion 7: rank-two catalogue distinct and exhaustive ---


def test_criterion_7_rank_two_distinct_and_exhaustive(sweep7):
    rows = completeness_check(12)  # raises on a polynomial collision
    assert len(rows) == 214
    polys = [row.poly for row in rows]
    assert len(set(polys)) == len(polys)

    # certify the catalogue against brute-force generation at <= 6 edges:
    # the sweep builds rank two from the same three kernels that
    # enumerate_rank2 walks, so the table recursion is the independent check
    specs6 = enumerate_rank2(6)
    catalogued = {canonical_key(gen_family(s)) for s in specs6}
    assert len(catalogued) == len(specs6)
    swept = {canonical_key(g) for g in sweep7
             if g.edge_count <= 6 and g.rank == 2}
    assert catalogued == swept
    tabled = {canonical_key(g) for g in _table_classes(6, 2) if g.rank == 2}
    assert catalogued == tabled


# --- criterion 8: spanning-tree counts ---


def test_criterion_8_tree_count_agreement(sweep7, sweep7_bass):
    checked = 0
    for g, poly in zip(sweep7, sweep7_bass):
        if g.rank < 2:
            continue
        assert tree_count_from_zeta(poly, g.rank) == kirchhoff_tree_count(g), g
        checked += 1
    assert checked > 400

    for n in range(3, 9):
        spec = family_spec("Complete", n)
        assert tree_count_closed_form(spec) == n ** (n - 2)
    for m in range(2, 7):
        for n in range(2, 7):
            spec = family_spec("CompleteBipartite", m, n)
            assert tree_count_closed_form(spec) \
                == m ** (n - 1) * n ** (m - 1)
    for n in range(2, 6):
        spec = family_spec("CocktailParty", 2 * n)
        assert tree_count_closed_form(spec) \
            == 4 ** (n - 1) * n ** (n - 2) * (n - 1) ** n
    for n in range(3, 7):
        spec = family_spec("MatchingDeleted", 2 * n)
        assert tree_count_closed_form(spec) \
            == n ** (n - 2) * (n - 2) ** (n - 1) * (n - 1)
    assert tree_count_closed_form(family_spec("MobiusLadder", 4)) == 16
    for n in range(4, 31, 2):
        spec = family_spec("MobiusLadder", n)
        assert tree_count_closed_form(spec) \
            == kirchhoff_tree_count(gen_family(spec)), n

    # rank-two grid: m*n for joined cycles, m*n - p^2 with a shared path
    for spec in enumerate_rank2(10):
        m, n = spec.params[0], spec.params[1]
        expected = m * n
        if spec.tag == "SharedPath":
            expected -= spec.params[2] ** 2
        kappa = tree_count_closed_form(spec)
        assert kappa == expected, str(spec)
        assert kappa == kirchhoff_tree_count(gen_family(spec)), str(spec)


# --- criterion 9: cycle-packing census against the coefficient tables ---


def _census_slice(census, k):
    return {r: cnt for (kk, r), cnt in census.items() if kk == k}


def test_criterion_9_cycle_packing_census():
    # two cycles of lengths 3 and 4 sharing a vertex
    g = gen_family(family_spec("DoubleCycle", 3, 4))
    census = linear_subgraph_census(*oriented_line_graph(g))
    poly = zeta_enum(g)
    assert poly == zeta_bass(g)
    # per-coefficient packing counts, keyed by cycle count r
    expected_slices = {
        14: {1: 2, 2: 2, 3: 4, 4: 1},  # c_14 = -3
        11: {2: 4, 3: 2},              # c_11 = 2
        10: {2: 4, 3: 2},              # c_10 = 2
        8: {2: 1},
        6: {2: 1},
        4: {1: 2},
        3: {1: 2},
    }
    expected_coeffs = {14: -3, 11: 2, 10: 2, 8: 1, 6: 1, 4: -2, 3: -2}
    for k, by_rank in expected_slices.items():
        assert _census_slice(census, k) == by_rank, k
        assert poly.coeff(k) == expected_coeffs[k], k
    # at k = 7 single 7-cycles cancel against 3+4 packings exactly
    seven = _census_slice(census, 7)
    assert set(seven) == {1, 2} and seven[1] == seven[2]
    for k in range(1, poly.degree + 1):
        assert census_coefficient(census, k) == poly.coeff(k), k

    # cycles of lengths 5 and 6 sharing a path of 2 edges
    g = gen_family(family_spec("SharedPath", 5, 6, 2))
    census = linear_subgraph_census(*oriented_line_graph(g))
    assert census == {
        (18, 1): 2, (18, 3): 2, (14, 2): 1, (13, 2): 2, (12, 2): 3,
        (11, 2): 2, (10, 2): 1, (7, 1): 2, (6, 1): 2, (5, 1): 2,
    }
    poly = zeta_enum(g, cap=18)
    assert poly == zeta_bass(g)
    for k in range(1, poly.degree + 1):
        assert census_coefficient(census, k) == poly.coeff(k), k

    # cycles of lengths 4 and 3 joined by a path of 2 edges
    g = gen_family(family_spec("Handcuff", 4, 3, 2))
    census = linear_subgraph_census(*oriented_line_graph(g))
    assert census == {
        (3, 1): 2, (4, 1): 2, (6, 2): 1, (7, 2): 4, (8, 2): 1,
        (10, 3): 2, (11, 1): 4, (11, 3): 2, (14, 2): 4, (14, 4): 1,
        (15, 2): 4, (18, 3): 4,
    }
    poly = zeta_enum(g, cap=18)
    assert poly == zeta_bass(g)
    for k in range(1, poly.degree + 1):
        assert census_coefficient(census, k) == poly.coeff(k), k
