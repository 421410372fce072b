"""Exact determinants: bareiss_int_det over the integers, for the engines'
output check at u = 2 and for Kirchhoff's tree count, and
reversed_charpoly, the det(I - uM) kernel of both determinant engines (one
pass modulo a Proth prime above twice a Euclidean Hadamard bound, on a
plain copy of the caller's integers; its row step delays its reduction, and
a column step that eliminates one row changes only the rows with a stored
nonzero in that row's column: entries stay below (n + 1) p^2, and every
zero test that decides something reads a residue; one residue scan per
pivot column finds the pivot and the rows to eliminate, and the recurrence
that follows visits only the nonzero entries of the reduced matrix)."""

from __future__ import annotations

from functools import cache
from itertools import compress
from math import gcd, isqrt, prod
from operator import itemgetter, mul

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
    from its rows, and the kernel works on one copy, list(row) per row, of
    its integers.

    This is the characteristic polynomial det(xI - M) with its coefficient
    list reversed, computed in one pass modulo a single prime P > 2B,
    B^2 = prod_i sum_j (|m_ij| + [i = j])^2, as residues of least absolute
    value. P is the least Proth prime above 2^b, where 2^(2b) > 4B^2 is
    checked in integers, so no square root is taken; the search tries
    each candidate by trial division (one gcd with the odd primes below
    2000) before Proth's test. The pass delays its reduction (see
    _charpoly_mod): the copy starts from the caller's entries, below P/2 in
    absolute value, and stored entries stay below (n + 1) P^2; the
    multipliers, the pivot row's support and the column-step sums of the
    rows a column step changes are reduced, the recurrence reduces the
    diagonal, the subdiagonal and each term it takes from above the
    diagonal, and the residues returned are those of a reduction after
    every update.

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
    if any(map(len(matrix).__ne__, map(len, matrix))):
        raise ValueError("matrix must be square")
    return matrix


def _charpoly_mod(m, p: int):
    """Coefficients [a_0 .. a_n] of det(xI - M) modulo p (a_n = 1).

    Hessenberg reduction by elementary similarity transforms, then the
    three-term recurrence on the leading principal minors of the
    Hessenberg matrix H (Cohen, Alg. 2.2.9). O(n^3) operations on
    integers below (n + 1) p^2, which span several machine words once p
    passes 62 bits.

    Step k reads column k - 1 at and below row k once, as residues: the
    first row with a nonzero residue is the pivot, swapped into row k,
    and the others are exactly the rows with a nonzero multiplier, since p
    is prime. A column with one such row has nothing to eliminate and
    takes no column step. The row step delays its reduction (Dumas,
    Giorgi and Pernet, ACM TOMS 35, 2008): a row below the pivot takes
    h_ij -= t x with no % p, and the eliminated entry is set to 0. The
    multiplier t and the pivot row's values x are reduced, so each update
    adds less than p^2 in absolute value; a row takes at most one update
    per step, so every stored entry stays below (n + 1) p^2 when M's
    entries are below p in absolute value, as reversed_charpoly's are.

    The working copy is M's integers as they are, so an entry may be a
    nonzero multiple of p before any step touches it. The column step
    C_k += t_i C_i reduces each row's sum when it eliminates several rows.
    When it eliminates one row i, a row whose stored entry in column i is
    0 gains nothing: the step adds into column k and reduces only in the
    other rows, and an entry it leaves keeps its stored value. No pass
    reduces H as a whole.

    The recurrence for column j keeps the block start b, the last row at
    or above j whose subdiagonal residue h_{b, b-1} is 0 (b = 0 if none),
    and sub[r - b], the residue of h_{r+1, r} .. h_{j, j-1} for b <= r < j:
    the terms with r < b have a zero factor. A subdiagonal residue of 1
    leaves the products as they are. Only the rows r whose stored h_rj is
    nonzero are visited, and a stored entry may be an unreduced nonzero
    multiple of p, so the residue of h_rj sub[r - b] decides whether the
    term is taken. Every zero test that decides something reads a residue:
    the pivot and the rows to eliminate, the pivot row's support, the
    diagonal, the subdiagonal and each term of the recurrence.
    """
    n = len(m)
    h = [list(row) for row in m]
    for k in range(1, n - 1):
        col = k - 1
        # the rows at or below k whose entry in col is nonzero modulo p:
        # the first is the pivot, the others are eliminated
        nz = [(i, x) for i in range(k, n) if (x := h[i][col] % p)]
        if not nz:
            continue  # column already reduced below the subdiagonal
        piv, x = nz[0]
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        if len(nz) == 1:
            continue  # nothing below the pivot to eliminate
        hk = h[k]
        inv = pow(x, -1, p)
        support = [(j, y) for j in range(k, n) if (y := hk[j] % p)]
        mults = []
        # rows: R_i -= t_i R_k for the rows i > piv of nz, zeroing column
        # col below k; t_i is nonzero as p is prime. A row whose entry is a
        # nonzero multiple of p is not in nz and is left
        for i, y in nz[1:]:
            hi = h[i]
            t = y * inv % p
            mults.append((i, t))
            hi[col] = 0
            for j, v in support:
                hi[j] -= t * v
        # columns: C_k += t_i C_i, completing the similarity transform
        if len(mults) == 1:
            # one row i eliminated: only the rows with a stored nonzero in
            # column i change, and only their sums are reduced
            (i, t), = mults
            for row in compress(h, map(itemgetter(i), h)):
                row[k] = (row[k] + t * row[i]) % p
        else:
            for row in h:
                acc = row[k]
                for i, t in mults:
                    if row[i]:
                        acc += t * row[i]
                row[k] = acc % p
    # chars[j] = det(xI - H_j) for the leading j x j block of H; b and
    # sub are the block start and the subdiagonal products for column j
    cols = list(zip(*h))
    chars = [[1]]
    b, sub = 0, []
    for j in range(n):
        col = cols[j]
        if j:
            s = cols[j - 1][j] % p
            if not s:
                b, sub = j, []
            elif s == 1:
                sub.append(1)
            else:
                sub = [x * s % p for x in sub]
                sub.append(s)
        # (x - h_jj) chars[j]
        prev = chars[j]
        d = col[j] % p
        if d:
            nxt = [a - d * c for a, c in zip([0] + prev, prev)] + [1]
        else:
            nxt = [0] + prev
        changed = d
        # - sum_r h_rj sub[r - b] chars[r] over b <= r < j: compress
        # proposes the r whose stored h_rj is nonzero, and the residue of
        # the product decides, as h_rj may be a nonzero multiple of p
        for r in compress(range(b, j), col[b:j]):
            if t := col[r] * sub[r - b] % p:
                lower = chars[r]
                nxt[:len(lower)] = [a - t * c for a, c in zip(nxt, lower)]
                changed = True
        chars.append([c % p for c in nxt] if changed else nxt)
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
