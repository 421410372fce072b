"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Every zeta reciprocal in this package is an IntPoly. Coefficients are plain
Python ints, index = power of u, so all arithmetic is exact by construction.
The class is immutable and hashable; polynomials can be dict keys, which the
rank-two collision check relies on.
"""

from __future__ import annotations

from math import factorial


class IntPoly:
    """Immutable dense integer polynomial in one variable (called u)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # --- constructors ---

    @staticmethod
    def monomial(power: int, coeff: int = 1) -> "IntPoly":
        """coeff * u^power."""
        if power < 0:
            raise ValueError("power must be >= 0")
        return IntPoly((0,) * power + (coeff,))

    @staticmethod
    def one_minus_u2_pow(k: int) -> "IntPoly":
        """(1 - u^2)^k from its binomial coefficients, with no products."""
        if k < 0:
            raise ValueError("negative power")
        cs, binom = [], 1
        for i in range(k + 1):
            cs += (-binom if i & 1 else binom, 0)
            binom = binom * (k - i) // (i + 1)
        return IntPoly(cs)

    @staticmethod
    def from_terms(terms) -> "IntPoly":
        """Sum of (power, coeff) pairs; repeated powers accumulate."""
        acc: dict[int, int] = {}
        for power, coeff in terms:
            acc[power] = acc.get(power, 0) + coeff
        if not acc:
            return IntPoly()
        cs = [0] * (max(acc) + 1)
        for power, coeff in acc.items():
            cs[power] = coeff
        return IntPoly(cs)

    # --- basic queries ---

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coeff(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_even(self) -> bool:
        """True when every odd-power coefficient vanishes."""
        return all(c == 0 for c in self.coeffs[1::2])

    def first_nonzero_power(self, start: int = 0):
        """Smallest k >= start with coeff(k) != 0, or None."""
        for k in range(start, len(self.coeffs)):
            if self.coeffs[k]:
                return k
        return None

    # --- arithmetic ---

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return IntPoly(cs)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                cs[i + j] += ai * bj
        return IntPoly(cs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # --- calculus and evaluation ---

    def derivative(self, order: int = 1) -> "IntPoly":
        """Exact iterated formal derivative, in one pass.

        The coefficient of u^k moves to u^(k - order), multiplied by the
        falling factorial k!/(k - order)!, updated from k to k + 1.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = self.coeffs
        out = []
        falling = factorial(order)
        for k in range(order, len(cs)):
            out.append(falling * cs[k])
            falling = falling * (k + 1) // (k + 1 - order)
        return IntPoly(out)

    def eval_at(self, x):
        """Horner evaluation in x's arithmetic: exact for int or rational x."""
        acc = 0 * x  # keep the result in x's arithmetic type
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.eval_at(x)

    # --- comparison, hashing, display ---

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def _coerce(x):
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly((x,))
    return NotImplemented


def format_poly(p: IntPoly, var: str = "u", ascending: bool = True) -> str:
    """Human form, e.g. ``1 - 2u^3 + u^6`` (constant term first).

    ascending=False flips to descending powers.
    """
    if p.is_zero():
        return "0"
    powers = range(p.degree + 1) if ascending else range(p.degree, -1, -1)
    parts = []
    for k in powers:
        c = p.coeff(k)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)

