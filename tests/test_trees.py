"""Tests for the three spanning-tree counters and their agreement."""

from __future__ import annotations

from math import comb

import pytest

from iharazeta.errors import ParameterError, VerificationError
from iharazeta.families import (
    family_spec,
    gen_family,
    parse_family_spec,
    tree_count_closed_form,
)
from iharazeta.multigraph import kirchhoff_tree_count, parse_edge_list_text
from iharazeta.trees import tree_count_from_zeta
from iharazeta.zeta import zeta_bass


# --- the zeta route: the r-th Taylor coefficient at u = 1 ---

def test_zeta_route_known_counts():
    cases = [
        ("Gp(2,2,1)", 3),   # triple edge
        ("G(3,4)", 12),
        ("Gp(4,4,2)", 12),
        ("Kb(2,3)", 12),
        ("K(5)", 125),
        ("O(6)", 384),
        ("B(8)", 384),
        # far above the sweep's ranks: Cayley's n^(n-2) at rank 406 and
        # Scoins' m^(n-1) n^(m-1) at rank 121
        ("K(30)", 30 ** 28),
        ("Kb(12,12)", 12 ** 11 * 12 ** 11),
    ]
    for text, kappa in cases:
        g = gen_family(parse_family_spec(text))
        assert tree_count_from_zeta(zeta_bass(g), g.rank) == kappa, text
        assert kirchhoff_tree_count(g) == kappa, text


def test_low_order_derivatives_vanish_at_one(sweep7, sweep7_bass):
    # (1 - u)^r divides the zeta reciprocal of a rank-r graph, and for
    # r >= 2 the r-th Taylor coefficient at 1, p^(r)(1) / r!, is the
    # first nonvanishing one
    def taylor_at_one(poly, j):
        return sum(comb(k, j) * c for k, c in enumerate(poly.coeffs))

    for g, poly in zip(sweep7, sweep7_bass):
        r = g.rank
        for order in range(r):
            assert taylor_at_one(poly, order) == 0
        if r >= 2:
            assert taylor_at_one(poly, r) != 0


def test_zeta_route_agrees_with_kirchhoff_on_sweep(sweep7, sweep7_bass):
    for g, poly in zip(sweep7, sweep7_bass):
        if g.rank < 2:
            continue
        assert tree_count_from_zeta(poly, g.rank) == kirchhoff_tree_count(g)


def test_wrong_rank_makes_the_division_inexact():
    poly = zeta_bass(gen_family(parse_family_spec("Gp(2,2,1)")))
    with pytest.raises(VerificationError, match="not divisible"):
        tree_count_from_zeta(poly, 3)


@pytest.mark.parametrize("text, r, kappa", [
    # below the true rank the coefficient vanishes
    ("K(4)", 2, 0),
    ("K(5)", 2, 0),
    ("K(5)", 3, 0),
    ("K(5)", 4, 0),
    ("K(5)", 5, 0),
    # one above it the division can be exact and negative
    ("K(4)", 4, -36),
    ("K(5)", 7, -500),
])
def test_wrong_rank_below_one_tree_is_refused(text, r, kappa):
    poly = zeta_bass(gen_family(parse_family_spec(text)))
    with pytest.raises(VerificationError,
                       match=rf" gives {kappa} spanning trees; "):
        tree_count_from_zeta(poly, r)


@pytest.mark.parametrize("text, r", [
    # the theta with a loop, rank 3 with 3 trees: at r = 5 the division
    # gives 2
    ("n 2\n0 0\n0 1\n0 1\n0 1\n", 5),
    # rank 2 with 2 trees: at r = 4 the division gives 4
    ("n 4\n0 0\n0 2\n1 2\n1 3\n1 3\n", 4),
], ids=["theta-with-loop", "rank-two"])
def test_wrong_rank_with_an_exact_positive_division_is_refused(text, r):
    poly = zeta_bass(parse_edge_list_text(text))
    with pytest.raises(VerificationError,
                       match=rf"coefficient of order {r - 1} at u = 1 is "):
        tree_count_from_zeta(poly, r)


def test_every_wrong_rank_above_is_refused_on_sweep(sweep7, sweep7_bass):
    for g, poly in zip(sweep7, sweep7_bass):
        for r in range(max(g.rank + 1, 2), g.rank + 6):
            with pytest.raises(VerificationError):
                tree_count_from_zeta(poly, r)


def test_rank_below_two_is_degenerate():
    poly = zeta_bass(gen_family(parse_family_spec("C(4)")))
    for r in (1, 0):
        with pytest.raises(ParameterError,
                           match=rf"^rank {r} graphs determine no tree count"):
            tree_count_from_zeta(poly, r)


# --- closed forms ---

def test_closed_form_values():
    cases = [
        (("Complete", 5), 125),
        (("CompleteBipartite", 2, 3), 12),
        (("CocktailParty", 6), 384),
        (("MatchingDeleted", 8), 384),
        (("MobiusLadder", 4), 16),     # K(4)
        (("MobiusLadder", 6), 81),     # Kb(3,3)
        (("DoubleCycle", 3, 4), 12),
        (("SharedPath", 4, 4, 2), 12),
        (("Handcuff", 3, 4, 2), 12),
    ]
    for args, kappa in cases:
        assert tree_count_closed_form(family_spec(*args)) == kappa, args


def test_closed_forms_agree_with_kirchhoff():
    specs = (
        [family_spec("Complete", n) for n in range(3, 8)]
        + [family_spec("CompleteBipartite", m, n)
           for m in range(2, 5) for n in range(2, 5)]
        + [family_spec("CocktailParty", order) for order in (4, 6, 8)]
        + [family_spec("MatchingDeleted", order) for order in (6, 8, 10)]
        + [family_spec("DoubleCycle", m, n)
           for m in range(1, 5) for n in range(m, 5)]
        + [family_spec("SharedPath", m, n, p)
           for m in range(2, 6) for n in range(m, 6) for p in range(1, m)]
        + [family_spec("Handcuff", m, n, l)
           for m in range(1, 4) for n in range(m, 4) for l in (1, 2, 3)]
    )
    for spec in specs:
        g = gen_family(spec)
        assert tree_count_closed_form(spec) == kirchhoff_tree_count(g)


def test_bridge_length_does_not_change_the_count():
    for l in range(1, 5):
        spec = family_spec("Handcuff", 3, 4, l)
        assert tree_count_closed_form(spec) == 12


def test_closed_form_unsupported_families():
    for spec in (
        family_spec("Cycle", 5),
        family_spec("Bouquet", 3),
        family_spec("NamedSmall", "triple-edge"),
    ):
        with pytest.raises(ParameterError, match="no closed-form"):
            tree_count_closed_form(spec)
    # the domain check still runs first
    with pytest.raises(ParameterError, match="Complete needs"):
        tree_count_closed_form(family_spec("Complete", 2))


def test_kirchhoff_result_shape():
    result = kirchhoff_tree_count(gen_family(parse_family_spec("C(5)")))
    assert type(result) is int and result == 5
