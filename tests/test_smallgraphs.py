"""Tests for the isomorphism-reduced sweep of small multigraphs."""

from __future__ import annotations

import gc
import hashlib
import random
from collections import Counter, defaultdict
from itertools import combinations, product

import pytest

from iharazeta.families import gen_family, parse_family_spec
from iharazeta.multigraph import Multigraph, format_edge_list
from iharazeta.smallgraphs import (
    _table_classes,
    canonical_key,
    connected_multigraphs,
    length_assignments,
)


def relabel(g, perm):
    return Multigraph(
        [(perm[u], perm[v]) for u, v in g.edge_list()], g.n
    )


def test_class_counts_small():
    # hand-checked by listing the classes for each budget up to three edges
    assert len(connected_multigraphs(1)) == 1
    assert len(connected_multigraphs(2)) == 3
    assert len(connected_multigraphs(3)) == 8
    assert len(connected_multigraphs(4)) == 20
    assert len(connected_multigraphs(5)) == 53


def test_class_counts_beyond_the_sweep():
    assert len(connected_multigraphs(8)) == 1672
    assert len(connected_multigraphs(9)) == 6114


def test_kernel_generator_matches_the_table_recursion():
    # brute force over min-degree-2 tables is the independent oracle: the
    # same classes, in the same order, that of the sorted keys, which
    # start with the edge count
    for max_edges in range(1, 7):
        reps = _table_classes(max_edges, 2)
        oracle = [canonical_key(g) for g in reps]
        assert [canonical_key(g)
                for g in connected_multigraphs(max_edges)] == oracle
        assert oracle == sorted(oracle)
        assert all(key[0] == g.edge_count for key, g in zip(oracle, reps))


def test_length_assignments_match_brute_force():
    # one non-decreasing tuple per slot, every length >= 1, the total
    # within budget, in the lexicographic order of product's output,
    # which the frozen sweep representatives rely on
    for counts, budget in [([1], 4), ([2], 7), ([3], 8), ([1, 1, 1], 6),
                           ([2, 1], 7), ([1, 2, 1], 8), ([3, 2], 9)]:
        flat = [
            lengths for lengths in product(range(1, budget + 1),
                                           repeat=sum(counts))
            if sum(lengths) <= budget
        ]
        want = []
        for lengths in flat:
            slots, start = [], 0
            for count in counts:
                slots.append(lengths[start:start + count])
                start += count
            if all(list(slot) == sorted(slot) for slot in slots):
                want.append(tuple(slots))
        assert list(length_assignments(counts, budget)) == want


def test_class_counts_from_sweep(sweep7):
    by_edges = Counter(g.edge_count for g in sweep7)
    assert sum(v for k, v in by_edges.items() if k <= 6) == 156
    assert sum(by_edges.values()) == 489


def test_sweep_representatives_are_frozen(sweep7):
    # the edge lists themselves, not only their count: a change to the
    # generator must keep the same representative of every class
    text = "".join(format_edge_list(g) for g in sweep7)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "878c3ccfa0882ec93c34939121df0d50469613d29a6fde5a23f58ebed8873ff4")


def test_all_classes_up_to_three_edges_are_the_expected_ones():
    reps = connected_multigraphs(3)
    expected = [
        "C(1)",       # single loop
        "G(1,1)",     # two loops on one vertex
        "C(2)",       # doubled edge
        "BQ(3)",      # three loops
        "G(1,2)",     # loop plus doubled edge
        "Gp(2,2,1)",  # triple edge
        "C(3)",       # triangle
        "H(1,1,1)",   # two looped vertices joined by an edge
    ]
    models = [gen_family(parse_family_spec(t)) for t in expected]
    keys = [canonical_key(g) for g in reps]
    for model in models:
        assert keys.count(canonical_key(model)) == 1
    assert len(reps) == len(models)


def test_emitted_graphs_satisfy_the_constraints(sweep7, support_is_connected):
    keys = set()
    for g in sweep7:
        assert g.edge_count <= 7
        assert g.connected and support_is_connected(g)
        assert min(g.degrees()) >= 2
        keys.add(canonical_key(g))
    assert len(keys) == len(sweep7)


def test_order_is_deterministic():
    a = connected_multigraphs(4)
    assert a == connected_multigraphs(4)
    counts = [g.edge_count for g in a]
    assert counts == sorted(counts)


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(55)
    # the last five exceed the sweep's size; all but G(5,6) are
    # vertex-transitive, so refinement alone splits nothing, and C(12) has
    # 12! orderings of its one (degree, loops) cell
    samples = [
        gen_family(parse_family_spec(t))
        for t in ("G(3,4)", "k4-minus", "loop-bigon", "D(2,1,3)", "Kb(2,3)",
                  "C(12)", "C(20)", "M(8)", "O(8)", "G(5,6)")
    ]
    for g in samples:
        key = canonical_key(g)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert canonical_key(h) == key


def test_canonical_key_is_invariant_on_every_sweep_class(sweep7):
    rng = random.Random(7)
    for g in sweep7:
        if g.edge_count > 6:
            continue
        key = canonical_key(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == key


def test_canonical_key_leaves_no_cyclic_garbage(sweep7):
    # keying must free everything by reference counting alone: a search
    # that kept a reference cycle per call would leave garbage for the
    # cyclic collector on every key
    assert len(sweep7) == 489
    gc.collect()
    gc.disable()
    try:
        for g in sweep7:
            canonical_key(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sweep_classes_are_pairwise_non_isomorphic_by_networkx(sweep7):
    nx = pytest.importorskip("networkx")
    buckets = defaultdict(list)
    for g in sweep7:
        h = nx.MultiGraph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edge_list())
        buckets[(g.n, g.edge_count, tuple(sorted(g.degrees())))].append(h)
    assert sum(len(b) for b in buckets.values()) == 489
    for bucket in buckets.values():
        for a, b in combinations(bucket, 2):
            assert not nx.is_isomorphic(a, b)


def family_key(text):
    return canonical_key(gen_family(parse_family_spec(text)))


def test_is_isomorphic_separates_equal_degree_sequences():
    # both are two cycles sharing a vertex: same degree sequence and size,
    # but the cycle lengths differ, so the canonical keys differ
    a = gen_family(parse_family_spec("G(2,4)"))
    b = gen_family(parse_family_spec("G(3,3)"))
    assert sorted(a.degrees()) == sorted(b.degrees())
    assert a.edge_count == b.edge_count
    assert canonical_key(a) != canonical_key(b)


def test_is_isomorphic_quick_rejects():
    # different sizes
    assert family_key("C(3)") != family_key("C(4)")
    # same size and degree sequence, different loop multiset
    assert family_key("H(1,1,1)") != family_key("Gp(2,2,1)")


def test_min_degree_one_widens_the_sweep(support_is_connected):
    keys2 = {canonical_key(g) for g in connected_multigraphs(3)}
    all1 = _table_classes(3, 1)
    keys1 = {canonical_key(g) for g in all1}
    assert keys2 < keys1
    for g in all1:
        assert g.connected and support_is_connected(g)
        assert min(g.degrees()) >= 1
    assert any(
        g.edge_count == 1 and sorted(g.degrees()) == [1, 1] for g in all1
    )
