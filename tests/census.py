"""Explicit cycle-packing census for the contribution-table audits.

A second, structurally different route to the coefficients of
det(I - uT): list every simple directed cycle of the oriented line graph,
then pack them into disjoint families and count those by size and number
of cycles. It is exponential in general, so the package does not use it;
the coefficient-table tests in test_zeta.py and acceptance criterion 9
check the engines against it on small, sparse line graphs.
"""

from __future__ import annotations


def enumerate_directed_cycles(origin, terminus):
    """All simple directed cycles as (vertex mask, length), anchored at
    their smallest vertex. Exponential in general; meant for the sparse
    line graphs of the contribution-table checks."""
    n = len(origin)
    out = [
        [j for j in range(n) if j != i ^ 1 and terminus[j] == v]
        for i, v in enumerate(origin)
    ]
    cycles = []

    def walk(anchor, w, mask, length):
        for x in out[w]:
            if x == anchor:
                cycles.append((mask, length))
            elif x > anchor and not (mask >> x) & 1:
                walk(anchor, x, mask | (1 << x), length + 1)

    for a in range(n):
        walk(a, a, 1 << a, 1)
    return cycles


def linear_subgraph_census(origin, terminus):
    """Occurrence counts {(k, r): count} over all linear subgraphs.

    k is the number of line-graph vertices covered and r the number of
    cycles; c_k = sum_r (-1)^r * count[(k, r)]. This is a second,
    structurally different enumeration (explicit cycles, then disjoint
    packing) used to audit the coefficient tables.
    """
    census: dict[tuple[int, int], int] = {}

    def pack(cycles, k, r):
        # cycles: the later cycles disjoint from every one packed so far
        for i, (mask, length) in enumerate(cycles):
            key = (k + length, r + 1)
            census[key] = census.get(key, 0) + 1
            pack([c for c in cycles[i + 1:] if not c[0] & mask],
                 k + length, r + 1)

    pack(enumerate_directed_cycles(origin, terminus), 0, 0)
    return census


def census_coefficient(census, k: int) -> int:
    """c_k recovered from a census table (k >= 1)."""
    return sum(
        (-1 if r % 2 else 1) * cnt
        for (kk, r), cnt in census.items()
        if kk == k
    )
