"""Tests for rank-two canonical forms, enumeration, and distinctness."""

from __future__ import annotations

import pytest

from iharazeta import ranktwo
from iharazeta.errors import ParameterError, VerificationError
from iharazeta.families import FamilySpec, gen_family
from iharazeta.multigraph import kirchhoff_tree_count
from iharazeta.ranktwo import (
    RANK_TWO_TAGS,
    canonicalize,
    completeness_check,
    enumerate_rank2,
    rank_two_spec,
)
from iharazeta.smallgraphs import canonical_key, is_isomorphic
from iharazeta.zeta import zeta_bass


# --- canonical forms ---

def test_canonical_parameter_normalization():
    assert rank_two_spec("DoubleCycle", 4, 3).params == (3, 4)
    assert rank_two_spec("Handcuff", 5, 2, 3).params == (2, 5, 3)
    # three internal paths of lengths 3, 2, 1 sort to (1, 2, 3)
    assert rank_two_spec("SharedPath", 5, 4, 3).params == (3, 4, 1)
    spec = rank_two_spec("Handcuff", 5, 2, 3)
    assert str(spec) == "H(2,5,3)"
    assert gen_family(spec).edge_count == 10


def test_canonicalize_is_idempotent():
    for shape, params in [
        ("DoubleCycle", (4, 3)),
        ("SharedPath", (6, 4, 2)),
        ("Handcuff", (2, 2, 4)),
    ]:
        once = rank_two_spec(shape, *params)
        again = canonicalize(once)
        assert once == again
        assert again == canonicalize(again)


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
        spec = rank_two_spec(shape, *params)
        assert spec == canonicalize(spec)
        original = gen_family(FamilySpec(shape, params))
        canonical = gen_family(spec)
        assert is_isomorphic(original, canonical)
        assert zeta_bass(original) == zeta_bass(canonical)


def test_rank_two_spec_rejections():
    with pytest.raises(ParameterError):
        rank_two_spec("Cycle", 5)
    for spec in (FamilySpec("Cycle", (3,)), FamilySpec("Complete", (4,))):
        with pytest.raises(ParameterError, match="not a rank-two shape"):
            canonicalize(spec)
    with pytest.raises(ParameterError):
        rank_two_spec("DoubleCycle", 0, 3)
    with pytest.raises(ParameterError):
        enumerate_rank2(1)


# --- enumeration ---

def test_enumerate_smallest_budgets():
    assert [str(s) for s in enumerate_rank2(2)] == ["G(1,1)"]
    assert [str(s) for s in enumerate_rank2(3)] == [
        "G(1,1)",
        "G(1,2)",
        "Gp(2,2,1)",
        "H(1,1,1)",
    ]


def test_enumerated_specs_are_canonical_and_in_budget():
    specs = enumerate_rank2(8)
    assert len(specs) == len(set(specs))
    for spec in specs:
        assert spec.tag in RANK_TWO_TAGS
        assert spec == canonicalize(spec)
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
    rows = completeness_check(8)
    assert [row.spec for row in rows] == enumerate_rank2(8)
    for row in rows:
        g = gen_family(row.spec)
        assert row.edge_count == g.edge_count
        assert row.poly == zeta_bass(g)
        assert row.tree_count == kirchhoff_tree_count(g)
    polys = {row.poly for row in rows}
    assert len(polys) == len(rows)


def test_collision_is_reported(monkeypatch):
    fixed = zeta_bass(gen_family(FamilySpec("DoubleCycle", (1, 1))))
    monkeypatch.setattr(ranktwo, "zeta_bass", lambda g: fixed)
    with pytest.raises(VerificationError, match="collision"):
        completeness_check(3)


def test_equal_length_specs_with_different_shapes_stay_distinct():
    # same edge count and girth, different shapes
    a = zeta_bass(gen_family(rank_two_spec("DoubleCycle", 3, 5)))
    b = zeta_bass(gen_family(rank_two_spec("Handcuff", 3, 3, 2)))
    assert a.degree == b.degree == 2 * 8
    assert a.first_nonzero_power(start=1) == b.first_nonzero_power(start=1) == 3
    assert a != b
