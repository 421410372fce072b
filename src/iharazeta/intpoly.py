"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Every zeta reciprocal in this package is an IntPoly. Coefficients are plain
Python ints (any other type is refused, not converted), index = power of u,
so all arithmetic is exact by construction. A polynomial is written
densely, IntPoly((c_0, c_1, ...)), or sparsely, IntPoly.from_terms of
(power, coeff) pairs. Every power, there and in ** and
times_one_minus_u2_pow, is an int >= 0. Arithmetic and equality take
IntPoly operands only: an int constant c is written IntPoly((c,)). The
class is immutable and hashable, so polynomials can be set members and
dict keys.

Products are schoolbook, with no product by a zero coefficient of either
operand, except the factor (1 - u^2)^k that turns a Bass determinant (or a
closed form's small factor) into a zeta reciprocal: k = r - 1 reaches the
thousands on dense graphs, and times_one_minus_u2_pow multiplies by it
through the binomials' term ratios, with one big product per row instead
of one per coefficient of the other factor.
"""

from __future__ import annotations

from itertools import accumulate
from math import prod
from operator import sub


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
        terms = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in terms:
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

    def times_one_minus_u2_pow(self, k: int) -> "IntPoly":
        """self * (1 - u^2)^k, through the term ratios of the binomials.

        With v = u^2, split self into its even and odd parts F(v). For a
        part F = f_0 + f_1 v + ... + f_d v^d, coefficient j of (1 - v)^k F is
        sum_t (-1)^(j-t) C(k, j-t) f_t = (-1)^j C(k+d, j) N(j) / M for
        0 <= j <= k + d, where M = (k+1)(k+2)...(k+d) and
        N(j) = sum_t (-1)^t f_t j(j-1)...(j-t+1) (k-j+t+1)...(k-j+d),
        an integer polynomial in j of degree <= d: the ratio
        C(k, j-t) M / C(k+d, j) is j!/(j-t)! (k+d-j)!/(k-j+t)!
        (hypergeometric term ratios: Petkovsek, Wilf and Zeilberger,
        A = B, 1996).

        The rows (powers of u) below len(self) are direct sums over the
        nonzero (even) coefficients of (1 - u^2)^k. If 2k <= len(self),
        so is every later row: the plain convolution. Otherwise the direct
        rows give N(0..d) of each part, and each later row j of a part
        advances the d + 1 backward differences of N by one C-level
        accumulate (tabulation by differences: Knuth, TAOCP vol. 2,
        4.6.4), updates C(k+d, j) by one exact ratio, and costs one big
        product and one exact division by M, where the convolution costs
        d + 1 big products.
        """
        _check_power(k)
        h = self.coeffs
        n = len(h)
        plain = 2 * k <= n
        direct = n + 2 * k if plain else n  # the rows made by direct sums
        cs = [0] * (n + 2 * k)
        binom = 1  # (-1)^m C(k, m)
        for m in range(min(k, (direct - 1) // 2) + 1):
            for i, hi in enumerate(h[:direct - 2 * m], 2 * m):
                cs[i] += binom * hi
            binom = -binom * (k - m) // (m + 1)
        if plain:
            return IntPoly(cs)
        for p in (0, 1):
            f = h[p::2]
            if not any(f):
                continue
            d = len(f) - 1
            big_m = prod(range(k + 1, k + d + 1))
            binom, values = 1, []  # binom is (-1)^j C(k+d, j)
            for j in range(d + 1):
                values.append(cs[p + 2 * j] * big_m // binom)
                binom = -binom * (k + d - j) // (j + 1)
            diffs = []  # N's backward differences at d, highest first
            while values:
                diffs.append(values[-1])
                values = list(map(sub, values[1:], values))
            diffs.reverse()
            rows = []
            for j in range(d + 1, k + d + 1):
                diffs = list(accumulate(diffs))
                rows.append(binom * diffs[-1] // big_m)
                binom = -binom * (k + d - j) // (j + 1)
            cs[p + 2 * d + 2::2] = rows
        return IntPoly(cs)

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
