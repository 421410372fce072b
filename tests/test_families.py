"""Tests for family generators, closed forms, and the family verifier."""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product

import pytest

from iharazeta import families
from iharazeta.errors import (
    InputError,
    ParameterError,
    VerificationError,
)
from iharazeta.families import (
    FAMILIES,
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
from iharazeta.multigraph import Multigraph, is_bipartite, validate_zeta_input
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
    # int() would read these as K(10), K(3) and G(3,4)
    for text in ("K(1_0)", "K(\u0663)", "G(3,\u00a04)"):
        with pytest.raises(InputError, match="non-integer parameter"):
            parse_family_spec(text)


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
        # an unhashable id must not reach the dict lookup (TypeError)
        ("NamedSmall", (["x"],)),
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


def test_domain_rejects_bool_parameters():
    # bool is an int subclass: C(True) used to pass and give 1 - 2u + u^2
    for tag, params in (("Cycle", (True,)), ("Handcuff", (1, True, 1)),
                        ("ThreeVertex", (0, 0, 0, 1, 1, True))):
        spec = FamilySpec(tag, params)
        for call in (check_domain, gen_family, closed_form):
            with pytest.raises(ParameterError, match="integer"):
                call(spec)


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
        assert closed_form(family_spec("NamedSmall", name)).degree == (
            2 * g.edge_count)
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
    assert covered == set(FAMILIES)


def test_spec_strings_round_trip():
    for text in SPOT_SPECS:
        spec = parse_family_spec(text)
        check_domain(spec)
        assert str(spec) == text
        assert parse_family_spec(str(spec)) == spec
    # a tag outside the registry still prints as written
    assert str(FamilySpec("Nope", (1,))) == "Nope(1)"


def test_wrong_arity_specs_print_and_are_rejected():
    for tag, family in FAMILIES.items():
        n = family.arity
        for params in ((), (3,) * (n + 1)):
            spec = FamilySpec(tag, params)
            body = ",".join(str(p) for p in params)
            assert str(spec) == f"{family.short or tag}({body})"
            with pytest.raises(ParameterError, match=rf"^{tag} takes {n} "
                               rf"parameter\(s\), got {len(params)}$"):
                check_domain(spec)


def test_closed_forms_match_engine():
    for text in SPOT_SPECS:
        verify_family(parse_family_spec(text))  # raises on a mismatch


def _in_domain(tag, *ranges):
    specs = []
    for params in product(*ranges):
        try:
            check_domain(FamilySpec(tag, params))
        except ParameterError:
            continue
        specs.append(FamilySpec(tag, params))
    return specs


@pytest.mark.parametrize("tag, ranges, count", [
    ("Dumbbell", (range(5), range(5), range(6)), 116),
    ("ThreeVertex", (range(3),) * 6, 441),
    ("CompleteBipartite", (range(11), range(11)), 81),
], ids=("D", "T", "Kb"))
def test_closed_forms_match_engine_on_grids(tag, ranges, count):
    # every in-domain spec of the grid, against Bass on the built graph
    specs = _in_domain(tag, *ranges)
    assert len(specs) == count
    for spec in specs:
        verify_family(spec)  # raises on a mismatch


@pytest.mark.parametrize("text", ["H(1,3,9)", "Gp(4,10,1)", "G(1,3)", "C(1)"])
def test_rank_two_forms_hold_at_every_length(text):
    """Bass at path lengths 1, 3, 9 fixes each rank <= 2 form everywhere.

    A subdivided kernel K has 1/zeta = Z_K(u^l_1, ..., u^l_k), one integer
    polynomial Z_K of degree at most 2 in each path variable (Stark and
    Terras, Adv. Math. 121, 1996), and each closed form is written as such
    a polynomial in the path monomials. At lengths (1, 3, 9) the monomial
    x^a y^b z^c becomes u^(a + 3b + 9c), one power per (a, b, c) with
    a, b, c <= 2, so equal polynomials in u here are equal polynomials in
    x, y, z, and the form equals Bass at every length. H(1,3,9) has loops
    1, 3 and bridge 9, Gp(4,10,1) paths 1, 3, 9, G(1,3) loops 1, 3 and
    C(1) the one loop.
    """
    verify_family(parse_family_spec(text))  # raises on a mismatch


def test_theta_form_is_symmetric_in_its_three_paths():
    # paths (x, y, z) are Gp(x + y, x + z, x); the form must not depend on
    # which path is the shared one, nor on the order of the other two
    def theta(x, y, z):
        return closed_form(family_spec("SharedPath", x + y, x + z, x))

    for paths in product(range(1, 9), repeat=3):
        form = theta(*paths)
        for order in permutations(paths):
            assert theta(*order) == form, order
    for paths in product(range(1, 4), repeat=3):
        form = theta(*paths)
        for x, y, z in permutations(paths):
            graph = gen_family(family_spec("SharedPath", x + y, x + z, x))
            assert zeta_bass(graph) == form, (x, y, z)


def test_handcuff_form_is_symmetric_in_its_loops():
    for m, n in product(range(1, 13), repeat=2):
        assert closed_form(family_spec("DoubleCycle", m, n)) == closed_form(
            family_spec("DoubleCycle", n, m)), (m, n)
        for l in range(1, 8):
            assert closed_form(family_spec("Handcuff", m, n, l)) == (
                closed_form(family_spec("Handcuff", n, m, l))), (m, n, l)


def test_one_vertex_determinant_is_the_bouquets_spectral_product():
    # ties the vertex determinant to _regular_form with no engine involved
    for a in range(1, 15):
        assert families._vertex_form(Multigraph([(0, 0)] * a, 1)) == (
            closed_form(family_spec("Bouquet", a))), a


def test_complete_form_is_the_papers_product_beyond_the_grids():
    # (1 - u^2)^(n(n-3)/2) (1 + u + (n-2)u^2)^(n-1) (1 - (n-1)u + (n-2)u^2)
    for n in range(3, 31):
        printed = (IntPoly((1, 0, -1)) ** (n * (n - 3) // 2)
                   * IntPoly((1, 1, n - 2)) ** (n - 1)
                   * IntPoly((1, -(n - 1), n - 2)))
        assert closed_form(family_spec("Complete", n)) == printed, n


def test_cocktail_party_form_is_the_quartic_product_beyond_the_grids():
    # the eigenvalue-0 and eigenvalue-(-2) factors of O(2h), paired into
    # (1 + 2u + (4h-6)u^2 + (4h-6)u^3 + (2h-3)^2 u^4)^(h-1)
    for h in range(2, 16):
        quartic = IntPoly((1, 2, 4 * h - 6, 4 * h - 6, (2 * h - 3) ** 2))
        written = (IntPoly((1, 0, -1)) ** (2 * h * h - 4 * h)
                   * quartic ** (h - 1)
                   * IntPoly((1, 0, 2 * h - 3))
                   * IntPoly((1, 2 - 2 * h, 2 * h - 3)))
        assert closed_form(family_spec("CocktailParty", 2 * h)) == written, h


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
        ("G(1,2)", "D(1,0,2)"),
        ("G(2,2)", "T(0,0,0,2,2,0)"),
        ("Gp(2,2,1)", "D(0,0,3)"),
        ("H(1,1,1)", "D(1,1,1)"),
        ("Kl(2,2)", "D(2,2,1)"),
        ("T(0,0,0,1,1,1)", "C(3)"),
    ]
    for a, b in pairs:
        assert closed_form(parse_family_spec(a)) == closed_form(
            parse_family_spec(b)
        ), (a, b)


def test_small_ids_agree_with_the_other_routes():
    # the ids on at most 4 vertices are specs of other families, so the
    # vertex determinant must meet the spectral and kernel-polynomial forms
    routes = {
        "two-loops": ["BQ(2)"],
        "loop-bigon": ["D(1,0,2)"],
        "two-bigons": ["G(2,2)"],
        "triple-edge": ["Gp(2,2,1)", "D(0,0,3)"],
        "k4-minus": ["Gp(3,3,1)"],
    }
    assert set(routes) == {
        name for name, (n, _) in NAMED_SMALL.items() if n <= 4}
    for name, others in routes.items():
        spec = family_spec("NamedSmall", name)
        for text in others:
            other = parse_family_spec(text)
            assert canonical_key(gen_family(spec)) == canonical_key(
                gen_family(other)), (name, text)
            assert closed_form(spec) == closed_form(other), (name, text)


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
            assert even == is_bipartite(gen_family(spec))
    for l in (1, 2, 3):
        for m in range(1, 4):
            for n in range(m, 4):
                spec = family_spec("Handcuff", m, n, l)
                even = closed_form(spec).is_even()
                assert even == (m % 2 == 0 and n % 2 == 0)
                assert even == is_bipartite(gen_family(spec))
    for m in range(2, 6):
        for n in range(m, 6):
            for p in range(1, m):
                spec = family_spec("SharedPath", m, n, p)
                even = closed_form(spec).is_even()
                assert even == is_bipartite(gen_family(spec))


# --- verifier failure paths ---

def test_verify_family_names_first_mismatching_power(monkeypatch):
    vertex_form = families._vertex_form
    monkeypatch.setattr(
        families, "_vertex_form",
        lambda g: vertex_form(g) + IntPoly((0, 0, 1)))
    with pytest.raises(VerificationError, match=r"u\^2"):
        verify_family(family_spec("NamedSmall", "triple-edge"))
