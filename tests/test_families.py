"""Tests for family generators, closed forms, and the family verifier."""

from __future__ import annotations

from collections import Counter

import pytest

from iharazeta import families
from iharazeta.errors import (
    InputError,
    ParameterError,
    VerificationError,
)
from iharazeta.families import (
    FAMILIES,
    FAMILY_TAGS,
    NAMED_SMALL,
    FamilySpec,
    check_domain,
    closed_form,
    family_spec,
    gen_family,
    parse_family_spec,
    verify_family,
)
from iharazeta.intpoly import IntPoly
from iharazeta.multigraph import structural_report, validate_zeta_input
from iharazeta.smallgraphs import canonical_key
from iharazeta.zeta import zeta_bass


# --- spec parsing and printing ---

def test_parse_shorthand_and_long_names():
    assert parse_family_spec("G(3,4)") == family_spec("DoubleCycle", 3, 4)
    assert parse_family_spec("DoubleCycle(3,4)") == family_spec("DoubleCycle", 3, 4)
    assert parse_family_spec("Kb(2, 3)") == family_spec("CompleteBipartite", 2, 3)
    assert str(family_spec("DoubleCycle", 3, 4)) == "G(3,4)"
    assert str(family_spec("SharedPath", 4, 4, 2)) == "Gp(4,4,2)"


def test_parse_named_small_ids():
    spec = parse_family_spec("triple-edge")
    assert spec == FamilySpec("NamedSmall", ("triple-edge",))
    assert str(spec) == "triple-edge"


def test_parse_rejects_malformed_specs():
    for text in ("G(3,4", "Nope(3)", "G(a,b)", "not-a-graph", "()"):
        with pytest.raises(InputError):
            parse_family_spec(text)
    with pytest.raises(InputError):
        family_spec("Nope", 1)


# --- parameter domains ---

def test_domain_rejections():
    bad = [
        ("Cycle", (0,)),
        ("Complete", (2,)),
        ("CompleteWithLoops", (2, 0)),
        ("CompleteWithLoops", (1, 3)),
        ("CompleteBipartite", (1, 5)),
        ("CocktailParty", (5,)),
        ("CocktailParty", (2,)),
        ("MatchingDeleted", (4,)),
        ("MobiusLadder", (3,)),
        ("DoubleCycle", (0, 3)),
        ("SharedPath", (3, 3, 3)),
        ("SharedPath", (2, 3, 0)),
        ("Handcuff", (1, 1, 0)),
        ("Bouquet", (0,)),
        ("Dumbbell", (0, 0, 1)),
        ("Dumbbell", (1, 1, 0)),
        ("ThreeVertex", (1, 1, 1, 1, 0, 0)),
        ("ThreeVertex", (0, 0, 0, 2, 1, 0)),
        ("NamedSmall", ("no-such-id",)),
    ]
    for tag, params in bad:
        with pytest.raises(ParameterError):
            check_domain(FamilySpec(tag, params))


def test_domain_arity_and_types():
    with pytest.raises(ParameterError, match="parameter"):
        check_domain(family_spec("Complete"))
    for tag, family in FAMILIES.items():
        n = family.arity
        with pytest.raises(ParameterError,
                           match=rf"^{tag} takes {n} parameter\(s\), got {n + 1}$"):
            check_domain(FamilySpec(tag, (3,) * (n + 1)))
    with pytest.raises(ParameterError, match="integer"):
        check_domain(family_spec("Cycle", "5"))
    with pytest.raises(InputError, match="unknown family tag 'Nope'"):
        check_domain(FamilySpec("Nope", (1,)))


# --- generated structure ---

def test_generated_shapes():
    cases = [
        ("C(5)", 5, 5, {2: 5}),
        ("K(5)", 5, 10, {4: 5}),
        ("Kl(3,2)", 3, 9, {6: 3}),
        ("Kb(2,3)", 5, 6, {3: 2, 2: 3}),
        ("O(6)", 6, 12, {4: 6}),
        ("B(8)", 8, 12, {3: 8}),
        ("M(6)", 6, 9, {3: 6}),
        ("G(3,4)", 6, 7, {4: 1, 2: 5}),
        ("Gp(3,4,2)", 4, 5, {3: 2, 2: 2}),
        ("H(3,4,2)", 8, 9, {3: 2, 2: 6}),
        ("BQ(3)", 1, 3, {6: 1}),
        ("D(2,1,3)", 2, 6, {7: 1, 5: 1}),
        ("T(1,0,0,2,2,0)", 3, 5, {6: 1, 2: 2}),
    ]
    for text, nv, ne, degs in cases:
        g = gen_family(parse_family_spec(text))
        assert g.n == nv, text
        assert g.edge_count == ne, text
        assert dict(Counter(g.degrees())) == degs, text
        validate_zeta_input(g)


def test_degenerate_small_parameters():
    # length-1 cycles are loops, length-2 cycles doubled edges
    assert gen_family(parse_family_spec("G(1,1)")).loops == (2,)
    g = gen_family(parse_family_spec("G(1,2)"))
    assert g.loops == (1, 0) and g.mult[0][1] == 2
    h = gen_family(parse_family_spec("H(1,1,1)"))
    assert h.n == 2 and h.loops == (1, 1) and h.mult[0][1] == 1
    assert gen_family(parse_family_spec("Gp(2,2,1)")).edge_count == 3


def test_named_small_entries_are_well_formed():
    for name in NAMED_SMALL:
        g = gen_family(family_spec("NamedSmall", name))
        assert g.n == NAMED_SMALL[name][0]
        assert NAMED_SMALL[name][2].degree == 2 * g.edge_count
        validate_zeta_input(g)


# --- closed forms against the engine ---

SPOT_SPECS = [
    "C(1)", "C(4)", "C(7)",
    "K(3)", "K(4)", "K(6)",
    "Kl(2,1)", "Kl(3,2)",
    "Kb(2,3)", "Kb(3,3)",
    "O(6)", "O(8)",
    "B(6)", "B(8)",
    "M(4)", "M(6)", "M(10)",
    "G(1,1)", "G(1,2)", "G(2,2)", "G(3,4)",
    "Gp(2,2,1)", "Gp(3,4,1)", "Gp(4,4,2)", "Gp(5,5,2)",
    "H(1,1,1)", "H(2,2,1)", "H(3,4,2)",
    "BQ(1)", "BQ(2)", "BQ(4)",
    "D(0,0,2)", "D(1,1,1)", "D(2,1,3)",
    "T(0,0,0,1,1,1)", "T(1,0,0,2,2,0)", "T(2,1,0,1,1,2)",
] + sorted(NAMED_SMALL)


def test_every_tag_is_spot_checked():
    covered = {parse_family_spec(t).tag for t in SPOT_SPECS}
    assert covered == set(FAMILY_TAGS)


def test_spec_strings_round_trip():
    for text in SPOT_SPECS:
        spec = parse_family_spec(text)
        check_domain(spec)
        assert str(spec) == text
        assert parse_family_spec(str(spec)) == spec
    # a tag outside the registry still prints as written
    assert str(FamilySpec("Nope", (1,))) == "Nope(1)"


def test_closed_forms_match_engine():
    for text in SPOT_SPECS:
        verify_family(parse_family_spec(text))  # raises on a mismatch


def test_moebius_ladder_numeric_form():
    spec = parse_family_spec("M(6)")
    verify_family(spec)  # raises on mismatch
    assert zeta_bass(gen_family(spec)) == closed_form(spec)


def test_moebius_ladder_on_four_vertices_is_complete():
    poly = zeta_bass(gen_family(parse_family_spec("M(4)")))
    assert poly == closed_form(parse_family_spec("K(4)"))


def test_closed_form_coincidences():
    # same graph reachable under several family tags
    pairs = [
        ("K(3)", "C(3)"),
        ("G(1,1)", "BQ(2)"),
        ("G(1,1)", "two-loops"),
        ("G(1,2)", "D(1,0,2)"),
        ("G(1,2)", "loop-bigon"),
        ("G(2,2)", "two-bigons"),
        ("G(2,2)", "T(0,0,0,2,2,0)"),
        ("Gp(2,2,1)", "triple-edge"),
        ("Gp(2,2,1)", "D(0,0,3)"),
        ("H(1,1,1)", "D(1,1,1)"),
        ("Kl(2,2)", "D(2,2,1)"),
        ("T(0,0,0,1,1,1)", "C(3)"),
    ]
    for a, b in pairs:
        assert closed_form(parse_family_spec(a)) == closed_form(
            parse_family_spec(b)
        ), (a, b)


def test_theta_with_equal_paths_is_complete_bipartite():
    ga = gen_family(parse_family_spec("Gp(4,4,2)"))
    gb = gen_family(parse_family_spec("Kb(2,3)"))
    assert canonical_key(ga) == canonical_key(gb)
    assert closed_form(parse_family_spec("Gp(4,4,2)")) == closed_form(
        parse_family_spec("Kb(2,3)")
    )


def test_even_closed_form_tracks_bipartiteness():
    for m in range(1, 5):
        for n in range(m, 5):
            spec = family_spec("DoubleCycle", m, n)
            even = closed_form(spec).is_even()
            assert even == (m % 2 == 0 and n % 2 == 0)
            assert even == structural_report(gen_family(spec)).bipartite
    for l in (1, 2, 3):
        for m in range(1, 4):
            for n in range(m, 4):
                spec = family_spec("Handcuff", m, n, l)
                even = closed_form(spec).is_even()
                assert even == (m % 2 == 0 and n % 2 == 0)
                assert even == structural_report(gen_family(spec)).bipartite
    for m in range(2, 6):
        for n in range(m, 6):
            for p in range(1, m):
                spec = family_spec("SharedPath", m, n, p)
                even = closed_form(spec).is_even()
                assert even == structural_report(gen_family(spec)).bipartite


# --- verifier failure paths ---

def test_verify_family_names_first_mismatching_power(monkeypatch):
    n, edges, poly = families.NAMED_SMALL["triple-edge"]
    bad = poly + IntPoly.monomial(2)
    monkeypatch.setitem(families.NAMED_SMALL, "triple-edge", (n, edges, bad))
    with pytest.raises(VerificationError, match=r"u\^2"):
        verify_family(family_spec("NamedSmall", "triple-edge"))
