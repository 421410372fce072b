"""Tests for rank-two enumeration, decoding, and distinctness."""

from __future__ import annotations

import pytest

from iharazeta import families, multigraph, ranktwo, zeta
from iharazeta.errors import ParameterError, VerificationError
from iharazeta.families import FamilySpec, closed_form, family_spec, gen_family
from iharazeta.intpoly import IntPoly
from iharazeta.multigraph import kirchhoff_tree_count, parse_edge_list_text
from iharazeta.ranktwo import (
    RANK_TWO_TAGS,
    completeness_check,
    decode_rank2,
    enumerate_rank2,
)
from iharazeta.smallgraphs import canonical_key
from iharazeta.trees import tree_count_from_zeta
from iharazeta.zeta import zeta_bass, zeta_line_det


def canonicalize(tag, *params):
    """The canonical spec of a rank-two shape, read off its closed form."""
    return decode_rank2(closed_form(family_spec(tag, *params)))


# --- canonical forms ---

def test_canonical_parameter_normalization():
    assert canonicalize("DoubleCycle", 4, 3).params == (3, 4)
    assert canonicalize("Handcuff", 5, 2, 3).params == (2, 5, 3)
    # three internal paths of lengths 3, 2, 1 sort to (1, 2, 3)
    assert canonicalize("SharedPath", 5, 4, 3).params == (3, 4, 1)
    spec = canonicalize("Handcuff", 5, 2, 3)
    assert str(spec) == "H(2,5,3)"
    assert gen_family(spec).edge_count == 10


def test_canonicalize_is_idempotent():
    for shape, params in [
        ("DoubleCycle", (4, 3)),
        ("SharedPath", (6, 4, 2)),
        ("Handcuff", (2, 2, 4)),
    ]:
        once = canonicalize(shape, *params)
        again = canonicalize(once.tag, *once.params)
        assert once == again


def test_canonical_form_is_isomorphic_to_the_original():
    cases = [
        ("DoubleCycle", (4, 3)),
        ("DoubleCycle", (1, 5)),
        ("SharedPath", (5, 4, 3)),
        ("SharedPath", (6, 4, 2)),
        ("SharedPath", (7, 5, 4)),
        ("Handcuff", (5, 2, 3)),
        ("Handcuff", (2, 2, 4)),
    ]
    for shape, params in cases:
        spec = canonicalize(shape, *params)
        assert spec == canonicalize(spec.tag, *spec.params)
        original = gen_family(FamilySpec(shape, params))
        canonical = gen_family(spec)
        assert canonical_key(original) == canonical_key(canonical)
        assert zeta_bass(original) == zeta_bass(canonical)


def test_canonicalize_rejections():
    # bad parameters fail in closed_form, before any decoding
    with pytest.raises(ParameterError):
        canonicalize("DoubleCycle", 0, 3)
    with pytest.raises(ParameterError):
        enumerate_rank2(1)


# --- decoding ---

def test_decode_inverts_the_closed_forms():
    specs = enumerate_rank2(60)
    assert len(specs) == 24590
    for spec in specs:
        assert decode_rank2(closed_form(spec)) == spec


def test_decode_rejects_other_ranks():
    for spec in (family_spec("Cycle", 3), family_spec("Cycle", 5),
                 family_spec("Complete", 4), family_spec("Bouquet", 3)):
        assert decode_rank2(closed_form(spec)) is None
        assert decode_rank2(zeta_bass(gen_family(spec))) is None
    # leading coefficient -4, but no negative power follows u^1
    assert decode_rank2(IntPoly((1, -2, 0, -4))) is None


def test_decoder_with_swapped_branches_is_caught(monkeypatch):
    swap = {"Handcuff": "SharedPath", "SharedPath": "Handcuff"}

    def swapped(poly):
        spec = decode_rank2(poly)
        return FamilySpec(swap.get(spec.tag, spec.tag), spec.params)

    monkeypatch.setattr(ranktwo, "decode_rank2", swapped)
    with pytest.raises(VerificationError,
                       match=r"Gp\(2,2,1\) decodes to H\(2,2,1\)"):
        completeness_check(6)


# The smallest known zeta collisions above rank two: a rank-3 pair with 12
# edges and a rank-4 pair with 9 edges. Completeness stops at rank two.
COLLISIONS = [
    ("n 10\n2 2\n0 1\n0 3\n0 4\n0 5\n1 6\n1 9\n2 5\n3 4\n6 7\n7 8\n8 9\n",
     "n 10\n1 1\n0 1\n0 3\n0 6\n0 7\n2 7\n2 8\n2 9\n3 4\n4 5\n5 6\n8 9\n"),
    ("n 6\n0 0\n2 2\n0 3\n0 4\n1 3\n1 4\n1 5\n2 5\n3 4\n",
     "n 6\n0 0\n3 3\n0 3\n0 4\n1 2\n1 4\n1 5\n2 4\n2 5\n"),
]


def test_known_collisions_above_rank_two():
    for (a, b), rank in zip(COLLISIONS, (3, 4)):
        ga, gb = parse_edge_list_text(a), parse_edge_list_text(b)
        assert ga.rank == gb.rank == rank
        assert zeta_bass(ga) == zeta_bass(gb)
        assert canonical_key(ga) != canonical_key(gb)
        assert decode_rank2(zeta_bass(ga)) is None


# --- enumeration ---

def test_enumerate_smallest_budgets():
    assert [str(s) for s in enumerate_rank2(2)] == ["G(1,1)"]
    assert [str(s) for s in enumerate_rank2(3)] == [
        "G(1,1)",
        "G(1,2)",
        "Gp(2,2,1)",
        "H(1,1,1)",
    ]


def loop_nest_rank2(max_edges):
    """The canonical specs by one loop nest per shape, each with its own
    bounds, sorted as enumerate_rank2 sorts: the independent oracle for
    its length assignments on the three kernels."""
    keyed = []  # (edge count, shape, params)
    for m in range(1, max_edges + 1):
        for n in range(m, max_edges - m + 1):
            keyed.append((m + n, 0, (m, n)))
    # SharedPath by internal path lengths p <= s2 <= s3, |E| = p+s2+s3
    for p in range(1, max_edges + 1):
        for s2 in range(p, max_edges + 1):
            for s3 in range(s2, max_edges - p - s2 + 1):
                keyed.append((p + s2 + s3, 1, (p + s2, p + s3, p)))
    for l in range(1, max_edges + 1):
        for m in range(1, max_edges + 1):
            for n in range(m, max_edges - l - m + 1):
                keyed.append((m + n + l, 2, (m, n, l)))
    keyed.sort()
    return [FamilySpec(RANK_TWO_TAGS[shape], params)
            for _, shape, params in keyed]


def test_enumeration_matches_the_loop_nests():
    # spec for spec and in order, well past the sweep's 7 edges
    for max_edges in range(2, 41):
        assert enumerate_rank2(max_edges) == loop_nest_rank2(max_edges)


def test_enumerated_specs_are_canonical_and_in_budget():
    specs = enumerate_rank2(8)
    assert len(specs) == len(set(specs))
    for spec in specs:
        assert spec.tag in RANK_TWO_TAGS
        assert decode_rank2(closed_form(spec)) == spec
        g = gen_family(spec)
        assert 2 <= g.edge_count <= 8
        assert g.rank == 2
    counts = [gen_family(s).edge_count for s in specs]
    assert counts == sorted(counts)


def test_enumeration_matches_the_brute_force_sweep(sweep7):
    # every rank-two isomorphism class from the exhaustive sweep appears
    # exactly once among the enumerated canonical specs, and vice versa
    sweep_keys = {canonical_key(g) for g in sweep7 if g.rank == 2}
    specs = enumerate_rank2(7)
    spec_keys = {canonical_key(gen_family(s)) for s in specs}
    assert len(spec_keys) == len(specs)
    assert spec_keys == sweep_keys


# --- distinctness ---

def test_completeness_check_rows_are_reproducible():
    pairs = completeness_check(8)
    assert [spec for spec, _ in pairs] == enumerate_rank2(8)
    for spec, poly in pairs:
        g = gen_family(spec)
        assert poly.degree // 2 == g.edge_count
        assert poly == zeta_bass(g)
        assert tree_count_from_zeta(poly, 2) == kirchhoff_tree_count(g)
    polys = {poly for _, poly in pairs}
    assert len(polys) == len(pairs)


def test_completeness_check_makes_one_determinant_per_spec(monkeypatch):
    # the check at u = 2 inside zeta_line_det is the only Bareiss call;
    # the tree counts are read off the polynomials
    calls = []
    real = multigraph.bareiss_int_det

    def counting(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(multigraph, "bareiss_int_det", counting)
    pairs = completeness_check(8)
    assert len(pairs) == 66
    assert calls == [gen_family(spec).n for spec, _ in pairs]


def test_completeness_check_runs_linedet_once_per_spec(monkeypatch):
    # each spec's polynomial is det(I - uT) on the oriented line graph;
    # Bass runs nowhere in the package
    calls = {"linedet": 0, "bass": 0}

    def counting(name, engine):
        def counted(g):
            calls[name] += 1
            return engine(g)
        return counted

    for module in (ranktwo, families, zeta):
        for name, engine in (("linedet", zeta_line_det), ("bass", zeta_bass)):
            if getattr(module, engine.__name__, None) is engine:
                monkeypatch.setattr(module, engine.__name__,
                                    counting(name, engine))
    assert len(completeness_check(8)) == 66
    assert calls == {"linedet": 66, "bass": 0}


def test_collision_is_reported(monkeypatch):
    fixed = zeta_bass(gen_family(FamilySpec("DoubleCycle", (1, 1))))
    monkeypatch.setattr(ranktwo, "zeta_line_det", lambda g: fixed)
    with pytest.raises(VerificationError, match=r"G\(1,2\) decodes to G\(1,1\)"):
        completeness_check(3)


def test_equal_length_specs_with_different_shapes_stay_distinct():
    # same edge count and girth, different shapes
    a = zeta_bass(gen_family(family_spec("DoubleCycle", 3, 5)))
    b = zeta_bass(gen_family(family_spec("Handcuff", 3, 3, 2)))
    assert a.degree == b.degree == 2 * 8
    assert a.first_nonzero_power(start=1) == b.first_nonzero_power(start=1) == 3
    assert a != b
    assert str(decode_rank2(a)) == "G(3,5)" and str(decode_rank2(b)) == "H(3,3,2)"
