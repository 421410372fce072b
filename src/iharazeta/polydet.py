"""Exact determinants: bareiss_int_det over the integers, for the engines'
output check at u = 2 and for Kirchhoff's tree count, and
reversed_charpoly, the det(I - uM) kernel of both determinant engines (one
pass modulo a Proth prime above twice a Euclidean Hadamard bound, whose row
step delays its reduction: entries stay below (n + 1) p^2, and every zero
test that decides something reads a residue)."""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt, prod
from operator import mul

from .intpoly import IntPoly


def bareiss_int_det(matrix) -> int:
    """Exact determinant of a square matrix (a sequence of rows) of Python
    ints. The caller's matrix is left unmodified: the elimination runs on
    one copy, list(row) per row.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) with lazy
    row scaling. Step k divides by div[k], the pivot of step k - 1
    (div[0] = 1), and maps row i > k to (row_i * pivot - m_ik * row_k) /
    div[k]. A row whose multiplier m_ik is 0 would only be scaled by
    pivot / div[k] = div[k + 1] / div[k]; it is left as it is and keeps
    its stamp, the step s at which it was last exact. Those factors
    telescope, so the row is brought up to step k by one scaling
    x * div[k] // div[s] when it is next used: when it becomes the pivot
    row, gets a nonzero multiplier, or is the last row. The division is
    exact because the up-to-date entries are minors of the matrix
    (Sylvester's identity), hence integers. A stale entry is 0 exactly
    when its up-to-date value is, since no divisor is 0, so the pivot
    search and the multiplier test may read stale rows; a row swap swaps
    the stamps with the rows.
    """
    m = [list(row) for row in _square(matrix)]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    div = [1]
    stamp = [0] * n

    def catch_up(i, k):
        s = stamp[i]
        if s != k:
            r, q = div[k], div[s]
            m[i][k:] = [x * r // q for x in m[i][k:]]
            stamp[i] = k

    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    stamp[k], stamp[i] = stamp[i], stamp[k]
                    sign = -sign
                    break
            else:
                return 0  # whole pivot column zero: singular
        catch_up(k, k)
        pivot_row = m[k][k + 1:]
        pivot, prev = m[k][k], div[k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                catch_up(i, k)
                row = m[i]
                t = row[k]
                row[k + 1:] = [
                    (x * pivot - t * y) // prev
                    for x, y in zip(row[k + 1:], pivot_row)
                ]
                row[k] = 0
                stamp[i] = k + 1
        div.append(pivot)
    catch_up(n - 1, n - 1)
    return sign * m[n - 1][n - 1]


def reversed_charpoly(matrix) -> IntPoly:
    """det(I - uM) for a square matrix M (a sequence of rows) of Python
    ints, exactly. The caller's matrix is left unmodified: the bound is read
    from its rows, and the reduction modulo P is the only copy.

    This is the characteristic polynomial det(xI - M) with its coefficient
    list reversed, computed in one pass modulo a single prime P > 2B,
    B^2 = prod_i sum_j (|m_ij| + [i = j])^2, as residues of least absolute
    value. P is the least Proth prime above 2^b, where 2^(2b) > 4B^2 is
    checked in integers, so no square root is taken; the search tries
    each candidate by trial division (one gcd with the odd primes below
    2000) before Proth's test. The pass delays its reduction in the row
    step (see _charpoly_mod): stored entries stay below (n + 1) P^2, the
    multipliers, the pivot row's support, the column-step sums and the
    recurrence's reads are reduced, and the residues returned are those
    of a reduction after every update.

    B bounds every |c_k| of f(u) = det(I - uM) = sum_k c_k u^k. Proof:
    Cauchy's estimate on the unit circle gives |c_k| <= max_{|u|=1} |f(u)|.
    For |u| = 1, Hadamard's inequality bounds |det(I - uM)| by the product
    of the Euclidean norms of the rows of I - uM, and entry (i, j) of
    I - uM has modulus at most |m_ij| + [i = j].
    """
    m = _square(matrix)
    need = 4 * prod(
        sum(map(mul, row, row)) + 2 * abs(row[i]) + 1
        for i, row in enumerate(m)
    )  # (2B)^2 < 2^(2b); each factor is sum_j (|m_ij| + [i = j])^2
    p = _proth_prime((need.bit_length() + 1) // 2)
    return IntPoly(
        c - p if 2 * c > p else c for c in reversed(_charpoly_mod(m, p))
    )


def _square(matrix):
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    return matrix


def _charpoly_mod(m, p: int):
    """Coefficients [a_0 .. a_n] of det(xI - M) modulo p (a_n = 1).

    Hessenberg reduction by elementary similarity transforms, then the
    three-term recurrence on the leading principal minors of the
    Hessenberg matrix (Cohen, Alg. 2.2.9). O(n^3) word operations.

    The row step delays its reduction (Dumas, Giorgi and Pernet, ACM TOMS
    35, 2008): a row below the pivot takes h_ij -= t x with no % p, and the
    eliminated entry is set to 0. The multiplier t and the pivot row's
    values x are reduced, so each update adds less than p^2 in absolute
    value; a row takes at most one update per step, so every stored entry
    stays below (n + 1) p^2. Every zero test that decides something reads a
    residue: the pivot search, the pivot row's support and the multiplier.
    The column step reduces each row's sum, and the recurrence reduces what
    it reads of H (the diagonal, the subdiagonal products and the products
    with the upper entries), so H itself is never reduced again.
    """
    n = len(m)
    h = [[x % p for x in row] for row in m]
    for k in range(1, n - 1):
        col = k - 1
        piv = next((i for i in range(k, n) if h[i][col] % p), None)
        if piv is None:
            continue  # column already reduced below the subdiagonal
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        hk = h[k]
        inv = pow(hk[col], -1, p)
        support = [(j, x) for j in range(k, n) if (x := hk[j] % p)]
        mults = []
        # rows: R_i -= t_i R_k for i > k, zeroing column col below k; a
        # row whose entry is a nonzero multiple of p gets t = 0 and is left
        for i in range(k + 1, n):
            hi = h[i]
            if hi[col] and (t := hi[col] * inv % p):
                mults.append((i, t))
                hi[col] = 0
                for j, x in support:
                    hi[j] -= t * x
        # columns: C_k += t_i C_i, completing the similarity transform
        if mults:
            for row in h:
                acc = row[k]
                for i, t in mults:
                    if row[i]:
                        acc += t * row[i]
                row[k] = acc % p
    # chars[j] = det(xI - H_j) for the leading j x j block of H
    chars = [[1]]
    for j in range(n):
        # (x - h_jj) chars[j]
        prev = chars[j]
        d = h[j][j] % p
        nxt = [a - d * c for a, c in zip([0] + prev, prev)] + [1]
        # - sum_i h_{j-i, j} (prod of subdiagonal h_{t, t-1}, j-i < t <= j)
        #   chars[j - i]
        sub = 1
        for i in range(1, j + 1):
            sub = sub * h[j - i + 1][j - i] % p
            if not sub:
                break
            t = h[j - i][j] * sub % p
            if t:
                lower = chars[j - i]
                nxt[:len(lower)] = [a - t * c for a, c in zip(nxt, lower)]
        chars.append([c % p for c in nxt])
    return chars[n]


# the odd primes below 2000 multiplied together, for trial division by gcd
_ODD_PRIMORIAL = prod(q for q in range(3, 2000, 2)
                      if all(q % d for d in range(3, isqrt(q) + 1, 2)))


@cache
def _proth_prime(bits: int) -> int:
    """The least Proth prime above 2^bits (bits >= 2) that Proth's theorem
    proves, found on first use. The Proth numbers k 2^m + 1 (k odd,
    k < 2^m) in (2^bits, 2^(bits+1)] are the j 2^h + 1 below, h > bits/2.
    Trial division first: a candidate above 2000 with an odd prime factor
    below 2000 (one gcd with their product) is composite and skips the
    Proth test's powers.
    """
    h = bits // 2 + 1
    for j in range(1 << (bits - h), 1 << (bits + 1 - h)):
        n = (j << h) + 1
        if ((n < 2000 or gcd(n, _ODD_PRIMORIAL) == 1)
                and _proth_proves_prime(n)):
            return n
    return _proth_prime(bits + 1)


def _proth_proves_prime(n: int) -> bool:
    """Proth's theorem: a Proth number n is prime iff a^((n-1)/2) = -1
    (mod n) for some a. If every base gives +1, n stays unproven (False).
    Base 2 is left out, a square modulo every prime n = 1 (mod 8)."""
    for a in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        x = pow(a, n >> 1, n)
        if x != 1:
            return x == n - 1  # neither +1 nor -1: n is composite
    return False
