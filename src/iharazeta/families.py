"""Named graph families: generators, closed-form zeta reciprocals, verifier.

Every family carries two independent artifacts: a concrete Multigraph
builder and a closed-form polynomial built by direct IntPoly arithmetic
(never by calling the engines). verify_family pits the two against each
other, which is the package's main formula-level test surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ParameterError, VerificationError
from .intpoly import IntPoly
from .multigraph import Multigraph, build_multigraph, subdivide
from .zeta import zeta_bass

FAMILY_TAGS = (
    "Cycle",
    "Complete",
    "CompleteWithLoops",
    "CompleteBipartite",
    "CocktailParty",
    "MatchingDeleted",
    "MobiusLadder",
    "DoubleCycle",
    "SharedPath",
    "Handcuff",
    "Bouquet",
    "Dumbbell",
    "ThreeVertex",
    "NamedSmall",
)

# CLI shorthand; the long tag names are accepted everywhere too.
SHORTHAND = {
    "C": "Cycle",
    "K": "Complete",
    "Kl": "CompleteWithLoops",
    "Kb": "CompleteBipartite",
    "O": "CocktailParty",
    "B": "MatchingDeleted",
    "M": "MobiusLadder",
    "G": "DoubleCycle",
    "Gp": "SharedPath",
    "H": "Handcuff",
    "BQ": "Bouquet",
    "D": "Dumbbell",
    "T": "ThreeVertex",
}
_TAG_TO_SHORT = {tag: short for short, tag in SHORTHAND.items()}


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus its parameter tuple (a string id for NamedSmall)."""

    tag: str
    params: tuple

    def __str__(self):
        if self.tag == "NamedSmall":
            return str(self.params[0])
        short = _TAG_TO_SHORT.get(self.tag, self.tag)
        return f"{short}({','.join(str(p) for p in self.params)})"


def family_spec(tag: str, *params) -> FamilySpec:
    if tag not in FAMILY_TAGS:
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
        tag = SHORTHAND.get(name, name)
        if tag not in FAMILY_TAGS or tag == "NamedSmall":
            raise InputError(f"unknown family name {name!r} in {text!r}")
        try:
            params = tuple(int(p) for p in body.split(",")) if body else ()
        except ValueError as exc:
            raise InputError(f"non-integer parameter in {text!r}") from exc
        return FamilySpec(tag, params)
    if s in NAMED_SMALL:
        return FamilySpec("NamedSmall", (s,))
    raise InputError(f"unknown family spec {text!r}")


# --- parameter domains ---

def _arity(spec: FamilySpec, n: int):
    if len(spec.params) != n:
        raise ParameterError(
            f"{spec.tag} takes {n} parameter(s), got {len(spec.params)}"
        )


def check_domain(spec: FamilySpec) -> None:
    """Raise ParameterError unless the spec is inside its legal domain."""
    tag, p = spec.tag, spec.params
    if tag == "NamedSmall":
        _arity(spec, 1)
        if p[0] not in NAMED_SMALL:
            raise ParameterError(f"unknown small-graph id {p[0]!r}")
        return
    if any(not isinstance(x, int) for x in p):
        raise ParameterError(f"{tag} parameters must be integers")
    if tag == "Cycle":
        _arity(spec, 1)
        if p[0] < 1:
            raise ParameterError("Cycle needs n >= 1")
    elif tag == "Complete":
        _arity(spec, 1)
        if p[0] < 3:
            raise ParameterError("Complete needs n >= 3")
    elif tag == "CompleteWithLoops":
        _arity(spec, 2)
        n, k = p
        if k < 0 or n < 2 or (n == 2 and k == 0):
            raise ParameterError("CompleteWithLoops needs n >= 2 and k >= 0, "
                                 "with k >= 1 when n = 2")
    elif tag == "CompleteBipartite":
        _arity(spec, 2)
        if min(p) < 2:
            raise ParameterError("CompleteBipartite needs m, n >= 2")
    elif tag == "CocktailParty":
        _arity(spec, 1)
        if p[0] < 4 or p[0] % 2:
            raise ParameterError("CocktailParty needs an even order >= 4")
    elif tag == "MatchingDeleted":
        _arity(spec, 1)
        if p[0] < 6 or p[0] % 2:
            raise ParameterError(
                "MatchingDeleted needs an even order >= 6 "
                "(order 4 would be disconnected)"
            )
    elif tag == "MobiusLadder":
        _arity(spec, 1)
        if p[0] < 4 or p[0] % 2:
            raise ParameterError("MobiusLadder needs an even n >= 4")
    elif tag == "DoubleCycle":
        _arity(spec, 2)
        if min(p) < 1:
            raise ParameterError("DoubleCycle needs m, n >= 1")
    elif tag == "SharedPath":
        _arity(spec, 3)
        m, n, pp = p
        if pp < 1 or m <= pp or n <= pp:
            raise ParameterError("SharedPath needs p >= 1 and m, n > p")
    elif tag == "Handcuff":
        _arity(spec, 3)
        m, n, l = p
        if m < 1 or n < 1 or l < 1:
            raise ParameterError("Handcuff needs m, n >= 1 and l >= 1")
    elif tag == "Bouquet":
        _arity(spec, 1)
        if p[0] < 1:
            raise ParameterError("Bouquet needs a >= 1")
    elif tag == "Dumbbell":
        _arity(spec, 3)
        a, b, c = p
        if a < 0 or b < 0 or c < 1:
            raise ParameterError("Dumbbell needs a, b >= 0 and c >= 1")
        if 2 * a + c < 2 or 2 * b + c < 2:
            raise ParameterError("Dumbbell has a vertex of degree < 2")
    elif tag == "ThreeVertex":
        _arity(spec, 6)
        a1, a2, a3, b12, b13, b23 = p
        if min(p) < 0:
            raise ParameterError("ThreeVertex parameters must be >= 0")
        if sum(1 for b in (b12, b13, b23) if b > 0) < 2:
            raise ParameterError("ThreeVertex support must be connected")
        degrees = (
            2 * a1 + b12 + b13,
            2 * a2 + b12 + b23,
            2 * a3 + b13 + b23,
        )
        if min(degrees) < 2:
            raise ParameterError("ThreeVertex has a vertex of degree < 2")
    else:
        raise InputError(f"unknown family tag {tag!r}")


# --- generators ---

def gen_family(spec: FamilySpec) -> Multigraph:
    """Concrete Multigraph for an in-domain family spec."""
    check_domain(spec)
    tag, p = spec.tag, spec.params
    if tag == "NamedSmall":
        n, edges, _ = NAMED_SMALL[p[0]]
        return build_multigraph(edges, n)
    if tag == "Cycle":
        return subdivide(1, [(0, 0)], [p])
    if tag == "Complete":
        n = p[0]
        return build_multigraph(
            [(i, j) for i in range(n) for j in range(i + 1, n)], n
        )
    if tag == "CompleteWithLoops":
        n, k = p
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges += [(v, v) for v in range(n) for _ in range(k)]
        return build_multigraph(edges, n)
    if tag == "CompleteBipartite":
        m, n = p
        return build_multigraph(
            [(i, m + j) for i in range(m) for j in range(n)], m + n
        )
    if tag == "CocktailParty":
        order = p[0]
        edges = [
            (i, j)
            for i in range(order)
            for j in range(i + 1, order)
            if not (i // 2 == j // 2)  # drop the matched pairs (2t, 2t+1)
        ]
        return build_multigraph(edges, order)
    if tag == "MatchingDeleted":
        h = p[0] // 2
        edges = [
            (i, h + j) for i in range(h) for j in range(h) if i != j
        ]
        return build_multigraph(edges, 2 * h)
    if tag == "MobiusLadder":
        n = p[0]
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(i, i + n // 2) for i in range(n // 2)]
        return build_multigraph(edges, n)
    if tag == "DoubleCycle":
        return subdivide(1, [(0, 0)], [p])  # both cycles through vertex 0
    if tag == "SharedPath":
        m, n, pp = p
        # the shared path, then the rest of the m-cycle and of the n-cycle
        return subdivide(2, [(0, 1)], [(pp, m - pp, n - pp)])
    if tag == "Handcuff":
        m, n, l = p
        return subdivide(2, [(0, 0), (0, 1), (1, 1)], [(m,), (l,), (n,)])
    if tag == "Bouquet":
        return build_multigraph([(0, 0)] * p[0], 1)
    if tag == "Dumbbell":
        a, b, c = p
        edges = [(0, 0)] * a + [(1, 1)] * b + [(0, 1)] * c
        return build_multigraph(edges, 2)
    if tag == "ThreeVertex":
        a1, a2, a3, b12, b13, b23 = p
        edges = [(0, 0)] * a1 + [(1, 1)] * a2 + [(2, 2)] * a3
        edges += [(0, 1)] * b12 + [(0, 2)] * b13 + [(1, 2)] * b23
        return build_multigraph(edges, 3)
    raise InputError(f"unknown family tag {tag!r}")


# --- closed forms ---

def closed_form(spec: FamilySpec) -> IntPoly:
    """Closed-form zeta reciprocal as an exact IntPoly."""
    check_domain(spec)
    tag, p = spec.tag, spec.params
    if tag == "NamedSmall":
        return NAMED_SMALL[p[0]][2]
    if tag == "Cycle":
        n = p[0]
        return IntPoly.from_terms([(2 * n, 1), (n, -2), (0, 1)])
    if tag == "Complete":
        n = p[0]
        return (
            IntPoly.one_minus_u2_pow(n * (n - 3) // 2)
            * IntPoly((1, 1, n - 2)) ** (n - 1)
            * IntPoly((1, 1 - n, n - 2))
        )
    if tag == "CompleteWithLoops":
        # Middle factor carries + (2k+n-2)u^2; the k = 0 case must reduce
        # to the plain complete-graph formula, which pins the sign.
        n, k = p
        return (
            IntPoly.one_minus_u2_pow(n * (n - 3) // 2 + n * k)
            * IntPoly((1, 1 - 2 * k, 2 * k + n - 2)) ** (n - 1)
            * IntPoly((1, -(n + 2 * k - 1), 2 * k + n - 2))
        )
    if tag == "CompleteBipartite":
        m, n = p
        f = IntPoly((1, 0, m - 1))
        g = IntPoly((1, 0, n - 1))
        bracket = f ** n * g ** m - m * n * IntPoly((0, 0, 1)) * f ** (n - 1) * g ** (m - 1)
        return IntPoly.one_minus_u2_pow(m * n - m - n) * bracket
    if tag == "CocktailParty":
        h = p[0] // 2
        quartic = IntPoly((1, 2, 4 * h - 6, 4 * h - 6, (2 * h - 3) ** 2))
        return (
            IntPoly.one_minus_u2_pow(2 * h * h - 4 * h)
            * quartic ** (h - 1)
            * IntPoly((1, 0, 2 * h - 3))
            * IntPoly((1, 2 - 2 * h, 2 * h - 3))
        )
    if tag == "MatchingDeleted":
        h = p[0] // 2
        sq = IntPoly((1, 0, h - 2)) ** 2
        return (
            IntPoly.one_minus_u2_pow(h * (h - 3))
            * (sq - IntPoly((0, 0, 1))) ** (h - 1)
            * (sq - IntPoly((0, 0, (1 - h) ** 2)))
        )
    if tag == "MobiusLadder":
        # Cubic and circulant on n = 2m vertices, so Q = 2I and r - 1 = m.
        # Splitting the adjacency eigenvalues 2cos(2 pi k/n) + (-1)^k by
        # the parity of k gives two Dickson products:
        # (1 - u^2)^m (E_m(c-) - 2u^m)(E_m(c+) + 2u^m), c-+ = 1 -+ u + 2u^2,
        # with E_0 = 2, E_1 = c and E_k = c E_(k-1) - u^2 E_(k-2).
        m = p[0] // 2
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
    if tag == "DoubleCycle":
        m, n = p
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
    if tag == "SharedPath":
        m, n, pp = p
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
    if tag == "Handcuff":
        m, n, l = p
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
    if tag == "Bouquet":
        a = p[0]
        return IntPoly.one_minus_u2_pow(a - 1) * IntPoly((1, -2 * a, 2 * a - 1))
    if tag == "Dumbbell":
        a, b, c = p
        f1 = IntPoly((1, -2 * a, 2 * a + c - 1))
        f2 = IntPoly((1, -2 * b, 2 * b + c - 1))
        return (IntPoly.one_minus_u2_pow(a + b + c - 2)
                * (f1 * f2 - IntPoly((0, 0, c * c))))
    if tag == "ThreeVertex":
        # Cofactor expansion of I - Au + Qu^2 done by hand, so this stays
        # independent of the determinant engines.
        a1, a2, a3, b12, b13, b23 = p
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
    raise InputError(f"unknown family tag {tag!r}")


# --- fixed small graphs (ids name the graph or its complement in K_5) ---

def _poly(terms) -> IntPoly:
    return IntPoly.from_terms(terms)

NAMED_SMALL = {
    # one vertex, two loops
    "two-loops": (1, [(0, 0), (0, 0)],
                  _poly([(4, -3), (3, 4), (2, 2), (1, -4), (0, 1)])),
    # doubled edge with a loop at one end
    "loop-bigon": (2, [(0, 0), (0, 1), (0, 1)],
                   _poly([(6, -3), (5, 2), (4, 3), (2, -1), (1, -2), (0, 1)])),
    # two doubled edges sharing a vertex
    "two-bigons": (3, [(0, 1), (0, 1), (0, 2), (0, 2)],
                   _poly([(8, -3), (6, 4), (4, 2), (2, -4), (0, 1)])),
    # three parallel edges (the smallest theta graph)
    "triple-edge": (2, [(0, 1), (0, 1), (0, 1)],
                    _poly([(6, -4), (4, 9), (2, -6), (0, 1)])),
    # complete graph on 4 vertices minus one edge
    "k4-minus": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                 _poly([(10, -4), (8, 1), (7, 4), (6, 4), (4, -2), (3, -4),
                        (0, 1)])),
    # complete graph on 5 vertices minus one edge
    "k5-minus": (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                     (2, 3), (2, 4)],
                 _poly([(18, 108), (16, -360), (15, -80), (14, 345),
                        (13, 252), (12, 52), (11, -222), (10, -234),
                        (9, -32), (8, 69), (7, 108), (6, 37), (5, -12),
                        (4, -18), (3, -14), (0, 1)])),
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
    "order5-co-2k2": (5, _k5_minus([(0, 1), (2, 3)]),
                      _poly([(16, -48), (14, 112), (13, 32), (12, -40),
                             (11, -64), (10, -68), (9, 8), (8, 41), (7, 40),
                             (6, 12), (5, -8), (4, -10), (3, -8), (0, 1)])),
    # complement = a path on three vertices (size 8)
    "order5-co-p3": (5, _k5_minus([(0, 1), (1, 2)]),
                     _poly([(16, -36), (14, 73), (13, 28), (12, -4),
                            (11, -50), (10, -62), (9, -8), (8, 17), (7, 44),
                            (6, 21), (5, -4), (4, -10), (3, -10), (0, 1)])),
    # complement = a triangle (size 7)
    "order5-co-k3": (5, _k5_minus([(0, 1), (0, 2), (1, 2)]),
                     _poly([(14, 9), (12, -4), (11, -6), (10, -18), (8, 9),
                            (7, 12), (6, 9), (4, -6), (3, -6), (0, 1)])),
    # complement = a path on four vertices (size 7)
    "order5-co-p4": (5, _k5_minus([(0, 1), (1, 2), (2, 3)]),
                     _poly([(14, 12), (12, -11), (11, -10), (10, -11),
                            (9, 6), (8, 6), (7, 12), (6, 7), (5, -2),
                            (4, -4), (3, -6), (0, 1)])),
    # complement = a path on three vertices plus a disjoint edge (size 7)
    "order5-co-p3k2": (5, _k5_minus([(0, 1), (1, 2), (3, 4)]),
                       _poly([(14, 16), (12, -20), (11, -8), (10, -12),
                              (9, 4), (8, 17), (7, 12), (6, 4), (5, -4),
                              (4, -6), (3, -4), (0, 1)])),
    # complement = a path on five vertices (size 6)
    "order5-co-p5": (5, _k5_minus([(0, 1), (1, 2), (2, 3), (3, 4)]),
                     _poly([(12, -4), (10, 1), (9, 2), (8, 3), (7, 2),
                            (6, 1), (5, -2), (4, -2), (3, -2), (0, 1)])),
    # complement = a 4-cycle plus an isolated vertex (size 6)
    "order5-co-c4k1": (5, _k5_minus([(0, 1), (1, 2), (2, 3), (3, 0)]),
                       _poly([(12, -3), (9, 4), (6, 2), (3, -4), (0, 1)])),
})


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
