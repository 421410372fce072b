"""Exact reciprocal Ihara zeta polynomials for connected multigraphs.

Three independent engines compute the same integer polynomial: a
determinant on the vertex matrices, a determinant on the oriented line
graph, and the signed cycle-packing count summed as clow sequences,
det(I - uT) = prod_h (1 - W_h(u)) with W_h counting the closed walks from
directed edge h back to h through edges > h only, each walked only to
length 2|E| - h: about (2|E|)^3 / 3 integer operations. Family
generators with published closed forms, a rank-two classification, and
spanning-tree counts round out the library.
Everything is exact integer arithmetic.

The API lives in the submodules, imported by name: ``zeta`` (the
engines), ``families``, ``multigraph``, ``smallgraphs``, ``ranktwo``,
``trees``, ``intpoly``, ``polydet``, ``errors`` and ``cli``; importing
the package itself loads none of them.
"""

__version__ = "0.1.0"
