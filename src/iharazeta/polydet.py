"""Exact determinants: bareiss_int_det over the integers, and
reversed_charpoly, the det(I - uM) kernel both determinant engines share
(Hessenberg reduction modulo 62-bit primes plus CRT)."""

from __future__ import annotations

from math import prod

from .intpoly import IntPoly


def bareiss_int_det(matrix) -> int:
    """Exact determinant of a square matrix of Python ints."""
    m = _square(matrix)
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0  # whole pivot column zero: singular
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def reversed_charpoly(matrix) -> IntPoly:
    """det(I - uM) for a square matrix M of Python ints, exactly.

    This is the characteristic polynomial det(xI - M) with its coefficient
    list reversed. It is computed modulo successive 62-bit primes and
    combined by CRT until the modulus exceeds 2B, B = prod_i (1 +
    ||row_i(M)||_1), so each coefficient is the residue of least absolute
    value.

    B bounds every |c_k| of f(u) = det(I - uM) = sum_k c_k u^k. Proof:
    Cauchy's estimate on the unit circle gives |c_k| <= max_{|u|=1} |f(u)|.
    For |u| = 1, Hadamard's inequality bounds |det(I - uM)| by the product
    of the Euclidean norms of the rows of I - uM, each at most its 1-norm,
    and row i of I - uM has 1-norm at most 1 + ||row_i(M)||_1.
    """
    m = _square(matrix)
    need = 2 * prod(1 + sum(map(abs, row)) for row in m)
    coeffs = [0] * (len(m) + 1)
    modulus, index = 1, 0
    while modulus <= need:
        p = _prime(index)
        index += 1
        # CRT: keep coeffs mod modulus, match the residues mod p
        lift = pow(modulus, -1, p)
        coeffs = [
            c + modulus * ((r - c) * lift % p)
            for c, r in zip(coeffs, _charpoly_mod(m, p))
        ]
        modulus *= p
    return IntPoly(c - modulus if 2 * c > modulus else c for c in reversed(coeffs))


def _square(matrix):
    m = [list(map(int, row)) for row in matrix]
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    return m


def _charpoly_mod(m, p: int):
    """Coefficients [a_0 .. a_n] of det(xI - M) modulo p (a_n = 1).

    Hessenberg reduction by elementary similarity transforms, then the
    three-term recurrence on the leading principal minors of the
    Hessenberg matrix (Cohen, Alg. 2.2.9). O(n^3) word operations.
    """
    n = len(m)
    h = [[x % p for x in row] for row in m]
    for k in range(1, n - 1):
        col = k - 1
        piv = next((i for i in range(k, n) if h[i][col]), None)
        if piv is None:
            continue  # column already reduced below the subdiagonal
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        hk = h[k]
        inv = pow(hk[col], -1, p)
        support = [(j, x) for j in range(col, n) if (x := hk[j])]
        mults = []
        # rows: R_i -= t_i R_k for i > k, zeroing column col below k
        for i in range(k + 1, n):
            hi = h[i]
            if hi[col]:
                t = hi[col] * inv % p
                mults.append((i, t))
                for j, x in support:
                    hi[j] = (hi[j] - t * x) % p
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
        d = h[j][j]
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


def _prime(index: int) -> int:
    """The index-th prime below 2^62, descending; found on first use."""
    while len(_PRIMES) <= index:
        candidate = _PRIMES[-1] - 2 if _PRIMES else (1 << 62) - 1
        while not _is_prime(candidate):
            candidate -= 2
        _PRIMES.append(candidate)
    return _PRIMES[index]


_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 37; these witnesses make it deterministic
    below 3.1 * 10^23."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True
