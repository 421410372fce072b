"""Tests for the three spanning-tree counters and their agreement."""

from __future__ import annotations

import pytest

from iharazeta.errors import (
    DegenerateRankError,
    ParameterError,
    VerificationError,
)
from iharazeta.families import (
    family_spec,
    gen_family,
    parse_family_spec,
    tree_count_closed_form,
)
from iharazeta.multigraph import kirchhoff_tree_count
from iharazeta.trees import tree_count_from_zeta
from iharazeta.zeta import zeta_bass


def kappa_from_zeta(text):
    g = gen_family(parse_family_spec(text))
    return tree_count_from_zeta(zeta_bass(g), g.rank)


# --- the zeta-derivative route ---

def test_zeta_route_known_counts():
    cases = [
        ("Gp(2,2,1)", 3),   # triple edge
        ("G(3,4)", 12),
        ("Gp(4,4,2)", 12),
        ("Kb(2,3)", 12),
        ("K(5)", 125),
        ("O(6)", 384),
        ("B(8)", 384),
    ]
    for text, kappa in cases:
        assert kappa_from_zeta(text) == kappa, text


def test_low_order_derivatives_vanish_at_one(sweep7, sweep7_bass):
    # (1 - u)^r divides the zeta reciprocal of a rank-r graph, and for
    # r >= 2 the r-th derivative at 1 is the first nonvanishing one
    for g, poly in zip(sweep7, sweep7_bass):
        r = g.rank
        for order in range(r):
            assert poly.derivative(order).eval_at(1) == 0
        if r >= 2:
            assert poly.derivative(r).eval_at(1) != 0


def test_zeta_route_agrees_with_kirchhoff_on_sweep(sweep7, sweep7_bass):
    for g, poly in zip(sweep7, sweep7_bass):
        if g.rank < 2:
            continue
        assert tree_count_from_zeta(poly, g.rank) == kirchhoff_tree_count(g)


def test_wrong_rank_makes_the_division_inexact():
    poly = zeta_bass(gen_family(parse_family_spec("Gp(2,2,1)")))
    with pytest.raises(VerificationError, match="not divisible"):
        tree_count_from_zeta(poly, 3)


def test_rank_below_two_is_degenerate():
    poly = zeta_bass(gen_family(parse_family_spec("C(4)")))
    for r in (1, 0):
        with pytest.raises(DegenerateRankError):
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
