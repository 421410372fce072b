"""Exact reciprocal Ihara zeta polynomials for connected multigraphs.

Three independent engines (determinant on the vertex matrices,
determinant on the oriented line graph, signed cycle-packing
enumeration) compute the same integer polynomial; family generators with
published closed forms, a rank-two classification, and spanning-tree
counts round out the library. Everything is exact integer arithmetic.

The API lives in the submodules, imported by name: ``zeta`` (the
engines), ``families``, ``multigraph``, ``smallgraphs``, ``ranktwo``,
``trees``, ``intpoly``, ``polydet``, ``errors`` and ``cli``; importing
the package itself loads none of them.
"""

__version__ = "0.1.0"
