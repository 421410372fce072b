"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Every zeta reciprocal in this package is an IntPoly. Coefficients are plain
Python ints (any other type is refused, not converted), index = power of u,
so all arithmetic is exact by construction. A polynomial is written
densely, IntPoly((c_0, c_1, ...)), or sparsely, IntPoly.from_terms of
(power, coeff) pairs. Every power, there and in ** and one_minus_u2_pow,
is an int >= 0. Arithmetic and equality take IntPoly operands only: an
int constant c is written IntPoly((c,)). The class is immutable and
hashable, so polynomials can be set members and dict keys.
"""

from __future__ import annotations


class IntPoly:
    """Immutable dense integer polynomial in one variable (called u)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if not {int}.issuperset(map(type, cs)):
            raise TypeError("IntPoly coefficients must be ints")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # --- constructors ---

    @staticmethod
    def one_minus_u2_pow(k: int) -> "IntPoly":
        """(1 - u^2)^k from its binomial coefficients, with no products."""
        _check_power(k)
        cs, binom = [], 1
        for i in range(k + 1):
            cs += (-binom if i & 1 else binom, 0)
            binom = binom * (k - i) // (i + 1)
        return IntPoly(cs)

    @staticmethod
    def from_terms(terms) -> "IntPoly":
        """Sum of (power, coeff) pairs; repeated powers accumulate. Powers
        and coefficients must be of type int (a bool or any other type
        raises TypeError), and a power must be >= 0 (else ValueError)."""
        acc: dict[int, int] = {}
        for power, coeff in terms:
            _check_power(power)
            if type(coeff) is not int:
                raise TypeError("IntPoly coefficients must be ints")
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
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return IntPoly(cs)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
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

    def __pow__(self, n: int):
        # left-to-right binary powering: each product is used, and every
        # multiplication by the base is by self, not by a square of it
        _check_power(n)
        result = IntPoly((1,))
        for bit in f"{n:b}":
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # --- evaluation ---

    def eval_at(self, x):
        """Horner evaluation in x's arithmetic: exact for int or rational x."""
        acc = 0 * x  # keep the result in x's arithmetic type
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # --- comparison, hashing, display ---

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self):
        """Human form, e.g. ``1 - 2u^3 + u^6`` (constant term first)."""
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}u" if k == 1 else f"{head}u^{k}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def _check_power(k):
    """Refuse a power that is not of type int (a bool included) with
    TypeError, and a negative one with ValueError."""
    if type(k) is not int:
        raise TypeError("IntPoly powers must be ints")
    if k < 0:
        raise ValueError("power must be >= 0")
