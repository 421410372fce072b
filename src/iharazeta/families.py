"""Named graph families: generators, closed forms, tree counts, verifier.

Each family is declared once, in FAMILIES: CLI shorthand, arity and
domain, a Multigraph builder, a closed-form zeta reciprocal built by
direct IntPoly arithmetic (never by calling the engines), and the
closed-form spanning-tree count where one is published. verify_family
pits the builder against the closed form, which is the package's main
formula-level test surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InputError, ParameterError, VerificationError
from .intpoly import IntPoly
from .multigraph import Multigraph, build_multigraph, subdivide
from .zeta import zeta_bass


@dataclass(frozen=True)
class Family:
    """One family: shorthand, arity, domain rules, builder and formulas.

    ``domain`` holds (predicate, message) rules, checked in order on the
    parameters; ``tree_count`` is None where no count is published.
    """

    short: str | None
    arity: int
    domain: tuple
    build: Callable[..., Multigraph]
    closed_form: Callable[..., IntPoly]
    tree_count: Callable[..., int] | None = None


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus its parameter tuple (a string id for NamedSmall)."""

    tag: str
    params: tuple

    def __str__(self):
        if self.tag == "NamedSmall":
            return str(self.params[0])
        family = FAMILIES.get(self.tag)
        short = family.short if family else self.tag
        return f"{short}({','.join(str(p) for p in self.params)})"


def family_spec(tag: str, *params) -> FamilySpec:
    if tag not in FAMILIES:
        raise InputError(f"unknown family tag {tag!r}")
    return FamilySpec(tag, tuple(params))


def parse_family_spec(text: str) -> FamilySpec:
    """Parse CLI strings like ``G(3,4)``, ``Kb(2,3)``, or a bare small-graph id."""
    s = text.strip()
    if "(" in s:
        name, _, rest = s.partition("(")
        name = name.strip()
        if not rest.endswith(")"):
            raise InputError(f"malformed family spec {text!r}")
        body = rest[:-1].strip()
        tag = _TAG_BY_SHORT.get(name, name)
        if tag not in FAMILIES or tag == "NamedSmall":
            raise InputError(f"unknown family name {name!r} in {text!r}")
        try:
            params = tuple(int(p) for p in body.split(",")) if body else ()
        except ValueError as exc:
            raise InputError(f"non-integer parameter in {text!r}") from exc
        return FamilySpec(tag, params)
    if s in NAMED_SMALL:
        return FamilySpec("NamedSmall", (s,))
    raise InputError(f"unknown family spec {text!r}")


def check_domain(spec: FamilySpec) -> Family:
    """The spec's Family; ParameterError unless the spec is in its domain."""
    family = FAMILIES.get(spec.tag)
    if family is None:
        raise InputError(f"unknown family tag {spec.tag!r}")
    p = spec.params
    if len(p) != family.arity:
        raise ParameterError(
            f"{spec.tag} takes {family.arity} parameter(s), got {len(p)}"
        )
    if spec.tag != "NamedSmall" and any(not isinstance(x, int) for x in p):
        raise ParameterError(f"{spec.tag} parameters must be integers")
    for holds, message in family.domain:
        if not holds(*p):
            raise ParameterError(message.format(*p))
    return family


def gen_family(spec: FamilySpec) -> Multigraph:
    """Concrete Multigraph for an in-domain family spec."""
    return check_domain(spec).build(*spec.params)


def closed_form(spec: FamilySpec) -> IntPoly:
    """Closed-form zeta reciprocal as an exact IntPoly."""
    return check_domain(spec).closed_form(*spec.params)


def tree_count_closed_form(spec: FamilySpec) -> int:
    """Closed-form spanning-tree count for the families that have one."""
    formula = check_domain(spec).tree_count
    if formula is None:
        raise ParameterError(
            f"no closed-form tree count for family {spec.tag}"
        )
    return formula(*spec.params)


# --- generators ---

def _complete_with_loops_graph(n, k):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges += [(v, v) for v in range(n) for _ in range(k)]
    return build_multigraph(edges, n)


def _cocktail_party_graph(order):
    edges = [
        (i, j)
        for i in range(order)
        for j in range(i + 1, order)
        if not (i // 2 == j // 2)  # drop the matched pairs (2t, 2t+1)
    ]
    return build_multigraph(edges, order)


def _matching_deleted_graph(order):
    h = order // 2
    edges = [
        (i, h + j) for i in range(h) for j in range(h) if i != j
    ]
    return build_multigraph(edges, 2 * h)


def _mobius_ladder_graph(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + n // 2) for i in range(n // 2)]
    return build_multigraph(edges, n)


def _dumbbell_graph(a, b, c):
    edges = [(0, 0)] * a + [(1, 1)] * b + [(0, 1)] * c
    return build_multigraph(edges, 2)


def _three_vertex_graph(a1, a2, a3, b12, b13, b23):
    edges = [(0, 0)] * a1 + [(1, 1)] * a2 + [(2, 2)] * a3
    edges += [(0, 1)] * b12 + [(0, 2)] * b13 + [(1, 2)] * b23
    return build_multigraph(edges, 3)


# --- closed forms ---

def _complete_form(n):
    return (
        IntPoly.one_minus_u2_pow(n * (n - 3) // 2)
        * IntPoly((1, 1, n - 2)) ** (n - 1)
        * IntPoly((1, 1 - n, n - 2))
    )


def _complete_with_loops_form(n, k):
    # Middle factor carries + (2k+n-2)u^2; the k = 0 case must reduce
    # to the plain complete-graph formula, which pins the sign.
    return (
        IntPoly.one_minus_u2_pow(n * (n - 3) // 2 + n * k)
        * IntPoly((1, 1 - 2 * k, 2 * k + n - 2)) ** (n - 1)
        * IntPoly((1, -(n + 2 * k - 1), 2 * k + n - 2))
    )


def _complete_bipartite_form(m, n):
    f = IntPoly((1, 0, m - 1))
    g = IntPoly((1, 0, n - 1))
    bracket = f ** n * g ** m - m * n * IntPoly((0, 0, 1)) * f ** (n - 1) * g ** (m - 1)
    return IntPoly.one_minus_u2_pow(m * n - m - n) * bracket


def _cocktail_party_form(order):
    h = order // 2
    quartic = IntPoly((1, 2, 4 * h - 6, 4 * h - 6, (2 * h - 3) ** 2))
    return (
        IntPoly.one_minus_u2_pow(2 * h * h - 4 * h)
        * quartic ** (h - 1)
        * IntPoly((1, 0, 2 * h - 3))
        * IntPoly((1, 2 - 2 * h, 2 * h - 3))
    )


def _matching_deleted_form(order):
    h = order // 2
    sq = IntPoly((1, 0, h - 2)) ** 2
    return (
        IntPoly.one_minus_u2_pow(h * (h - 3))
        * (sq - IntPoly((0, 0, 1))) ** (h - 1)
        * (sq - IntPoly((0, 0, (1 - h) ** 2)))
    )


def _mobius_ladder_form(n):
    # Cubic and circulant on n = 2m vertices, so Q = 2I and r - 1 = m.
    # Splitting the adjacency eigenvalues 2cos(2 pi k/n) + (-1)^k by
    # the parity of k gives two Dickson products:
    # (1 - u^2)^m (E_m(c-) - 2u^m)(E_m(c+) + 2u^m), c-+ = 1 -+ u + 2u^2,
    # with E_0 = 2, E_1 = c and E_k = c E_(k-1) - u^2 E_(k-2).
    m = n // 2
    u2 = IntPoly((0, 0, 1))
    e = []
    for c in (IntPoly((1, -1, 2)), IntPoly((1, 1, 2))):
        prev, cur = IntPoly((2,)), c
        for _ in range(m - 1):
            prev, cur = cur, c * cur - u2 * prev
        e.append(cur)
    two_um = IntPoly.monomial(m, 2)
    return (IntPoly.one_minus_u2_pow(m)
            * (e[0] - two_um) * (e[1] + two_um))


def _double_cycle_form(m, n):
    return IntPoly.from_terms([
        (2 * (m + n), -3),
        (m + 2 * n, 2),
        (2 * m + n, 2),
        (2 * n, 1),
        (2 * m, 1),
        (n, -2),
        (m, -2),
        (0, 1),
    ])


def _shared_path_form(m, n, pp):
    return IntPoly.from_terms([
        (2 * m + 2 * n - 2 * pp, -4),
        (2 * m + 2 * n - 4 * pp, 1),
        (m + 2 * n - 2 * pp, 2),
        (2 * m + n - 2 * pp, 2),
        (2 * n, 1),
        (2 * m, 1),
        (m + n, 2),
        (m + n - 2 * pp, -2),
        (n, -2),
        (m, -2),
        (0, 1),
    ])


def _handcuff_form(m, n, l):
    return IntPoly.from_terms([
        (2 * (m + n + l), -4),
        (2 * (m + n), 1),
        (2 * m + n + 2 * l, 4),
        (m + 2 * n + 2 * l, 4),
        (2 * m + n, -2),
        (m + 2 * n, -2),
        (m + n + 2 * l, -4),
        (m + n, 4),
        (2 * n, 1),
        (2 * m, 1),
        (n, -2),
        (m, -2),
        (0, 1),
    ])


def _dumbbell_form(a, b, c):
    f1 = IntPoly((1, -2 * a, 2 * a + c - 1))
    f2 = IntPoly((1, -2 * b, 2 * b + c - 1))
    return (IntPoly.one_minus_u2_pow(a + b + c - 2)
            * (f1 * f2 - IntPoly((0, 0, c * c))))


def _three_vertex_form(a1, a2, a3, b12, b13, b23):
    # Cofactor expansion of I - Au + Qu^2 done by hand, so this stays
    # independent of the determinant engines.
    d1 = IntPoly((1, -2 * a1, 2 * a1 + b12 + b13 - 1))
    d2 = IntPoly((1, -2 * a2, 2 * a2 + b12 + b23 - 1))
    d3 = IntPoly((1, -2 * a3, 2 * a3 + b13 + b23 - 1))
    m12 = IntPoly((0, -b12))
    m13 = IntPoly((0, -b13))
    m23 = IntPoly((0, -b23))
    det = (
        d1 * (d2 * d3 - m23 * m23)
        - m12 * (m12 * d3 - m23 * m13)
        + m13 * (m12 * m23 - d2 * m13)
    )
    rank_less_1 = a1 + a2 + a3 + b12 + b13 + b23 - 3
    return IntPoly.one_minus_u2_pow(rank_less_1) * det


# --- closed-form tree counts ---
# CocktailParty/MatchingDeleted params are the order 2n; the formulas
# below are written in n.

def _kappa_cocktail_party(order):
    n = order // 2
    return 4 ** (n - 1) * n ** (n - 2) * (n - 1) ** n


def _kappa_matching_deleted(order):
    n = order // 2
    return n ** (n - 2) * (n - 2) ** (n - 1) * (n - 1)


def _kappa_mobius_ladder(n):
    # (m/2)(L_m + 2) with m = n/2, L_0 = 2, L_1 = 4, L_k = 4L_(k-1) - L_(k-2);
    # every L_k is even, so the halving is exact
    m = n // 2
    prev, cur = 2, 4
    for _ in range(m - 1):
        prev, cur = cur, 4 * cur - prev
    return m * ((cur + 2) // 2)


# --- fixed small graphs (ids name the graph or its complement in K_5) ---

NAMED_SMALL = {
    # one vertex, two loops
    "two-loops": (1, [(0, 0), (0, 0)], IntPoly.from_terms([
        (4, -3), (3, 4), (2, 2), (1, -4), (0, 1)])),
    # doubled edge with a loop at one end
    "loop-bigon": (2, [(0, 0), (0, 1), (0, 1)], IntPoly.from_terms([
        (6, -3), (5, 2), (4, 3), (2, -1), (1, -2), (0, 1)])),
    # two doubled edges sharing a vertex
    "two-bigons": (3, [(0, 1), (0, 1), (0, 2), (0, 2)], IntPoly.from_terms([
        (8, -3), (6, 4), (4, 2), (2, -4), (0, 1)])),
    # three parallel edges (the smallest theta graph)
    "triple-edge": (2, [(0, 1), (0, 1), (0, 1)], IntPoly.from_terms([
        (6, -4), (4, 9), (2, -6), (0, 1)])),
    # complete graph on 4 vertices minus one edge
    "k4-minus": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                 IntPoly.from_terms([
        (10, -4), (8, 1), (7, 4), (6, 4), (4, -2), (3, -4), (0, 1)])),
    # complete graph on 5 vertices minus one edge
    "k5-minus": (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                     (2, 3), (2, 4)],
                 IntPoly.from_terms([
        (18, 108), (16, -360), (15, -80), (14, 345), (13, 252), (12, 52),
        (11, -222), (10, -234), (9, -32), (8, 69), (7, 108), (6, 37),
        (5, -12), (4, -18), (3, -14), (0, 1)])),
}

# The order-5 entries are named by their complement in K_5; build the
# edge lists in one place.

def _k5_minus(complement_pairs):
    comp = set(frozenset(e) for e in complement_pairs)
    return [
        (i, j)
        for i in range(5)
        for j in range(i + 1, 5)
        if frozenset((i, j)) not in comp
    ]

NAMED_SMALL.update({
    "order5-co-2k2": (5, _k5_minus([(0, 1), (2, 3)]), IntPoly.from_terms([
        (16, -48), (14, 112), (13, 32), (12, -40), (11, -64), (10, -68),
        (9, 8), (8, 41), (7, 40), (6, 12), (5, -8), (4, -10), (3, -8),
        (0, 1)])),
    # complement = a path on three vertices (size 8)
    "order5-co-p3": (5, _k5_minus([(0, 1), (1, 2)]), IntPoly.from_terms([
        (16, -36), (14, 73), (13, 28), (12, -4), (11, -50), (10, -62),
        (9, -8), (8, 17), (7, 44), (6, 21), (5, -4), (4, -10), (3, -10),
        (0, 1)])),
    # complement = a triangle (size 7)
    "order5-co-k3": (5, _k5_minus([(0, 1), (0, 2), (1, 2)]),
                     IntPoly.from_terms([
        (14, 9), (12, -4), (11, -6), (10, -18), (8, 9), (7, 12), (6, 9),
        (4, -6), (3, -6), (0, 1)])),
    # complement = a path on four vertices (size 7)
    "order5-co-p4": (5, _k5_minus([(0, 1), (1, 2), (2, 3)]),
                     IntPoly.from_terms([
        (14, 12), (12, -11), (11, -10), (10, -11), (9, 6), (8, 6), (7, 12),
        (6, 7), (5, -2), (4, -4), (3, -6), (0, 1)])),
    # complement = a path on three vertices plus a disjoint edge (size 7)
    "order5-co-p3k2": (5, _k5_minus([(0, 1), (1, 2), (3, 4)]),
                       IntPoly.from_terms([
        (14, 16), (12, -20), (11, -8), (10, -12), (9, 4), (8, 17), (7, 12),
        (6, 4), (5, -4), (4, -6), (3, -4), (0, 1)])),
    # complement = a path on five vertices (size 6)
    "order5-co-p5": (5, _k5_minus([(0, 1), (1, 2), (2, 3), (3, 4)]),
                     IntPoly.from_terms([
        (12, -4), (10, 1), (9, 2), (8, 3), (7, 2), (6, 1), (5, -2), (4, -2),
        (3, -2), (0, 1)])),
    # complement = a 4-cycle plus an isolated vertex (size 6)
    "order5-co-c4k1": (5, _k5_minus([(0, 1), (1, 2), (2, 3), (3, 0)]),
                       IntPoly.from_terms([
        (12, -3), (9, 4), (6, 2), (3, -4), (0, 1)])),
})


# --- the registry: one entry per family ---

FAMILIES = {
    "Cycle": Family(
        "C", 1, ((lambda n: n >= 1, "Cycle needs n >= 1"),),
        build=lambda n: subdivide(1, [(0, 0)], [(n,)]),
        closed_form=lambda n: IntPoly.from_terms([(2 * n, 1), (n, -2), (0, 1)])),
    "Complete": Family(
        "K", 1, ((lambda n: n >= 3, "Complete needs n >= 3"),),
        build=lambda n: build_multigraph(
            [(i, j) for i in range(n) for j in range(i + 1, n)], n
        ),
        closed_form=_complete_form,
        tree_count=lambda n: n ** (n - 2)),
    "CompleteWithLoops": Family(
        "Kl", 2,
        ((lambda n, k: k >= 0 and n >= 2 and (n, k) != (2, 0),
          "CompleteWithLoops needs n >= 2 and k >= 0, with k >= 1 when n = 2"),),
        build=_complete_with_loops_graph,
        closed_form=_complete_with_loops_form),
    "CompleteBipartite": Family(
        "Kb", 2,
        ((lambda m, n: min(m, n) >= 2, "CompleteBipartite needs m, n >= 2"),),
        build=lambda m, n: build_multigraph(
            [(i, m + j) for i in range(m) for j in range(n)], m + n
        ),
        closed_form=_complete_bipartite_form,
        tree_count=lambda m, n: m ** (n - 1) * n ** (m - 1)),
    "CocktailParty": Family(
        "O", 1,
        ((lambda order: order >= 4 and order % 2 == 0,
          "CocktailParty needs an even order >= 4"),),
        build=_cocktail_party_graph,
        closed_form=_cocktail_party_form,
        tree_count=_kappa_cocktail_party),
    "MatchingDeleted": Family(
        "B", 1,
        ((lambda order: order >= 6 and order % 2 == 0,
          "MatchingDeleted needs an even order >= 6 "
          "(order 4 would be disconnected)"),),
        build=_matching_deleted_graph,
        closed_form=_matching_deleted_form,
        tree_count=_kappa_matching_deleted),
    "MobiusLadder": Family(
        "M", 1,
        ((lambda n: n >= 4 and n % 2 == 0, "MobiusLadder needs an even n >= 4"),),
        build=_mobius_ladder_graph,
        closed_form=_mobius_ladder_form,
        tree_count=_kappa_mobius_ladder),
    "DoubleCycle": Family(
        "G", 2, ((lambda m, n: min(m, n) >= 1, "DoubleCycle needs m, n >= 1"),),
        # both cycles through vertex 0
        build=lambda m, n: subdivide(1, [(0, 0)], [(m, n)]),
        closed_form=_double_cycle_form,
        tree_count=lambda m, n: m * n),
    "SharedPath": Family(
        "Gp", 3,
        ((lambda m, n, p: 1 <= p < min(m, n),
          "SharedPath needs p >= 1 and m, n > p"),),
        # the shared path, then the rest of the m-cycle and of the n-cycle
        build=lambda m, n, p: subdivide(2, [(0, 1)], [(p, m - p, n - p)]),
        closed_form=_shared_path_form,
        tree_count=lambda m, n, p: m * n - p * p),
    "Handcuff": Family(
        "H", 3,
        ((lambda m, n, l: min(m, n, l) >= 1,
          "Handcuff needs m, n >= 1 and l >= 1"),),
        build=lambda m, n, l: subdivide(
            2, [(0, 0), (0, 1), (1, 1)], [(m,), (l,), (n,)]
        ),
        closed_form=_handcuff_form,
        tree_count=lambda m, n, l: m * n),
    "Bouquet": Family(
        "BQ", 1, ((lambda a: a >= 1, "Bouquet needs a >= 1"),),
        build=lambda a: build_multigraph([(0, 0)] * a, 1),
        closed_form=lambda a: (IntPoly.one_minus_u2_pow(a - 1)
                               * IntPoly((1, -2 * a, 2 * a - 1)))),
    "Dumbbell": Family(
        "D", 3,
        ((lambda a, b, c: min(a, b) >= 0 and c >= 1,
          "Dumbbell needs a, b >= 0 and c >= 1"),
         (lambda a, b, c: min(2 * a + c, 2 * b + c) >= 2,
          "Dumbbell has a vertex of degree < 2")),
        build=_dumbbell_graph,
        closed_form=_dumbbell_form),
    "ThreeVertex": Family(
        "T", 6,
        ((lambda *p: min(p) >= 0, "ThreeVertex parameters must be >= 0"),
         (lambda *p: sum(1 for b in p[3:] if b > 0) >= 2,
          "ThreeVertex support must be connected"),
         (lambda a1, a2, a3, b12, b13, b23: min(
             2 * a1 + b12 + b13, 2 * a2 + b12 + b23, 2 * a3 + b13 + b23) >= 2,
          "ThreeVertex has a vertex of degree < 2")),
        build=_three_vertex_graph,
        closed_form=_three_vertex_form),
    "NamedSmall": Family(
        None, 1,
        ((lambda name: name in NAMED_SMALL, "unknown small-graph id {0!r}"),),
        build=lambda name: build_multigraph(
            NAMED_SMALL[name][1], NAMED_SMALL[name][0]
        ),
        closed_form=lambda name: NAMED_SMALL[name][2]),
}

FAMILY_TAGS = tuple(FAMILIES)
# CLI shorthand; the long tag names are accepted everywhere too.
_TAG_BY_SHORT = {f.short: tag for tag, f in FAMILIES.items() if f.short}


# --- cross verification ---

def verify_family(spec: FamilySpec) -> IntPoly:
    """The closed form, after comparing it against the determinant engine.

    Exact coefficient equality for every family. A mismatch raises
    VerificationError carrying the first differing coefficient.
    """
    engine = zeta_bass(gen_family(spec))
    form = closed_form(spec)
    if form != engine:
        k = next(k for k in range(max(form.degree, engine.degree) + 1)
                 if form.coeff(k) != engine.coeff(k))
        raise VerificationError(
            f"{spec}: closed form disagrees with engine at "
            f"u^{k}: {form.coeff(k)} != {engine.coeff(k)}"
        )
    return form
