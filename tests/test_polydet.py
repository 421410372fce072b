"""Exact determinants: integer Bareiss and the reversed characteristic
polynomial kernel det(I - uM)."""

import random
from fractions import Fraction
from itertools import permutations
from math import isqrt, prod

import pytest

from iharazeta import polydet, zeta
from iharazeta.families import gen_family, parse_family_spec
from iharazeta.intpoly import IntPoly
from iharazeta.polydet import bareiss_int_det, reversed_charpoly
from iharazeta.ranktwo import enumerate_rank2


def leibniz_det(m):
    """Reference determinant by the permutation sum; fine for n <= 6."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        sign = -1 if inv % 2 else 1
        prod = sign
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod
    return total


def test_bareiss_known_values():
    assert bareiss_int_det([]) == 1
    assert bareiss_int_det([[7]]) == 7
    assert bareiss_int_det([[1, 2], [3, 4]]) == -2
    assert bareiss_int_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert bareiss_int_det([[1, 2], [2, 4]]) == 0


def test_bareiss_needs_row_swap():
    # zero leading pivot forces the swap path; det = -(1*1) under one swap
    assert bareiss_int_det([[0, 1], [1, 0]]) == -1
    assert bareiss_int_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_bareiss_vs_leibniz_random():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_int_det(m) == leibniz_det(m)


def test_bareiss_lazy_rows_vs_leibniz():
    # a row whose multiplier is 0 is left stale and scaled up to date when
    # next used; a first pivot of 2 makes that scaling nontrivial.
    # Row 2 is stale from step 0 and swapped in as the pivot of step 1:
    assert bareiss_int_det([[2, 2, 0], [2, 2, 1], [0, 3, 5]]) == -6
    # row 2 is stale from step 0 to the end, as the last row:
    assert bareiss_int_det([[2, 1, 1], [1, 3, 1], [0, 0, 4]]) == 20
    # sparse matrices (about 2/3 zeros) meet both cases often; every other
    # one gets a random transversal so that about half are nonsingular
    rng = random.Random(21)
    entries = (-4, -3, -2, -1, 1, 2, 3, 4)
    singular = 0
    for trial in range(400):
        n = rng.randint(2, 6)
        m = [[rng.choice(entries) if rng.random() < 0.25 else 0
              for _ in range(n)] for _ in range(n)]
        if trial % 2:
            for i, j in enumerate(rng.sample(range(n), n)):
                m[i][j] = rng.choice(entries)
        want = leibniz_det(m)
        assert bareiss_int_det(m) == want
        singular += want == 0
    assert 100 <= singular <= 300


def test_bareiss_row_swap_sign():
    rng = random.Random(12)
    for _ in range(50):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        swapped = [m[1], m[0], m[2]]
        assert bareiss_int_det(swapped) == -bareiss_int_det(m)


@pytest.mark.parametrize("row_type", [list, tuple])
def test_caller_matrix_is_left_unmodified(row_type):
    # both work on their own copy: Bareiss swaps and rescales rows, the
    # kernel reduces and permutes them modulo its prime
    rng = random.Random(16)
    for _ in range(60):
        n = rng.randint(1, 7)
        cells = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(n)]
                 for _ in range(n)]
        cells[0][0] = 0  # a pivot search at the first step
        matrix = [row_type(row) for row in cells]
        rows = list(matrix)
        bareiss_int_det(matrix)
        reversed_charpoly(matrix)
        assert matrix == [row_type(row) for row in cells]
        assert all(a is b for a, b in zip(matrix, rows))


def kernel_inputs(monkeypatch, engine, graphs):
    """The matrices the engine hands the kernel, one per graph, each with
    its row objects and a copy of its values taken before the call."""
    seen = []

    def capture(matrix):
        seen.append((matrix, list(matrix), [list(row) for row in matrix]))
        return reversed_charpoly(matrix)

    with monkeypatch.context() as patch:
        patch.setattr(zeta, "reversed_charpoly", capture)
        for g in graphs:
            engine(g)
    return seen


def test_kernel_leaves_engine_matrices_unmodified(monkeypatch):
    # the kernel's working copy is list(row) of the caller's rows, stored
    # as they are: a rank-two T, whose every step eliminates one row, and
    # a Bass B with its negative -q_v keep their values and row objects
    line = kernel_inputs(monkeypatch, zeta.zeta_line_det,
                         [gen_family(enumerate_rank2(14)[-1])])
    bass = kernel_inputs(monkeypatch, zeta.zeta_bass,
                         [gen_family(parse_family_spec("D(2,1,3)"))])
    for matrix, rows, values in line + bass:
        assert matrix == values
        assert all(a is b for a, b in zip(matrix, rows))


def at_point(m, x):
    """det(I - xM) by Bareiss: the reference the kernel is checked against."""
    n = len(m)
    return bareiss_int_det(
        [[int(i == j) - x * m[i][j] for j in range(n)] for i in range(n)]
    )


def assert_matches_bareiss(m):
    f = reversed_charpoly(m)
    assert f.degree <= len(m)
    for x in (-3, -1, 0, 1, 2, 3, 7):
        assert f.eval_at(x) == at_point(m, x)
    return f


def test_reversed_charpoly_known_values():
    assert reversed_charpoly([]) == IntPoly((1,))
    assert reversed_charpoly([[5]]) == IntPoly((1, -5))
    # det(I - uM) = 1 - tr(M) u + det(M) u^2 for 2 x 2
    assert reversed_charpoly([[1, 2], [3, 4]]) == IntPoly((1, -5, -2))
    with pytest.raises(ValueError):
        reversed_charpoly([[1, 2]])


@pytest.mark.parametrize("det", [reversed_charpoly, bareiss_int_det])
def test_ragged_matrix_with_the_right_row_count_is_refused(det):
    # two rows, as a 2 x 2 matrix has, but the second holds one entry
    with pytest.raises(ValueError, match="square"):
        det([[1, 2], [3]])


def test_reversed_charpoly_vs_bareiss_random():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 1.0))
        m = [
            [rng.randint(-9, 9) if rng.random() < density else 0
             for _ in range(n)]
            for _ in range(n)
        ]
        assert_matches_bareiss(m)


def test_reversed_charpoly_singular_nilpotent_permutation():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(2, 8)
        # singular: a repeated row
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        m[-1] = list(m[0])
        assert_matches_bareiss(m)
        # nilpotent: strictly upper triangular, conjugated by a unimodular
        # lower-triangular L so that the reduction has work to do
        upper = [[rng.randint(-5, 5) if j > i else 0 for j in range(n)]
                 for i in range(n)]
        low = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0)
                for j in range(n)] for i in range(n)]
        low_inv = [[int(i == j) for j in range(n)] for i in range(n)]
        for c in range(n):  # forward substitution, exact over the integers
            for i in range(c + 1, n):
                low_inv[i][c] = -sum(low[i][k] * low_inv[k][c]
                                     for k in range(c, i))
        nil = matmul(matmul(low, upper), low_inv)
        assert assert_matches_bareiss(nil) == IntPoly((1,))
        # permutation: det(I - uP) = prod over cycles of (1 - u^length)
        perm = list(range(n))
        rng.shuffle(perm)
        p = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
        expected = IntPoly((1,))
        seen = set()
        for start in range(n):
            length = 0
            v = start
            while v not in seen:
                seen.add(v)
                v = perm[v]
                length += 1
            if length:
                expected *= IntPoly.from_terms([(0, 1), (length, -1)])
        assert assert_matches_bareiss(p) == expected


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_reversed_charpoly_zero_subdiagonal_during_reduction():
    # block upper-triangular: the first column is zero below row 1, so the
    # reduction skips a step and the characteristic polynomial splits
    rng = random.Random(16)
    for _ in range(40):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        n = a + b
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        for i in range(a, n):
            for j in range(a):
                m[i][j] = 0
        top = [row[:a] for row in m[:a]]
        bottom = [row[a:] for row in m[a:]]
        f = assert_matches_bareiss(m)
        assert f == reversed_charpoly(top) * reversed_charpoly(bottom)


def test_det_triangular_is_diagonal_product():
    # det(I - uM) of a triangular M is prod_i (1 - m_ii u); the reduction
    # has nothing to do on an upper one and everything on a lower one
    upper = [[2, 7, 1], [0, -3, 4], [0, 0, 5]]
    expected = IntPoly((1, -2)) * IntPoly((1, 3)) * IntPoly((1, -5))
    assert assert_matches_bareiss(upper) == expected
    lower = [list(col) for col in zip(*upper)]
    assert assert_matches_bareiss(lower) == expected
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 7)
        m = [[rng.randint(-9, 9) if j >= i else 0 for j in range(n)]
             for i in range(n)]
        expected = IntPoly((1,))
        for i in range(n):
            expected = expected * IntPoly((1, -m[i][i]))
        assert assert_matches_bareiss(m) == expected
        assert assert_matches_bareiss([list(c) for c in zip(*m)]) == expected


def test_det_with_zero_pivot_polynomial():
    # the subdiagonal entry the reduction would divide by is zero, so it
    # must swap in a lower row (and the matching column) first
    m = [[1, 2, 3], [0, 4, 5], [6, 7, 8]]
    f = assert_matches_bareiss(m)
    # det(I - uM) = 1 - tr(M) u + (sum of principal 2 x 2 minors) u^2 - det(M) u^3
    assert f == IntPoly((1, -13, -9, 15))
    # entries nonzero over the integers but zero modulo the prime: the
    # pivot search must see the residue, not the integer
    for m in ([[1, 2, 3], [101, 4, 5], [6, 7, 8]],
              [[1, 2, 3], [101, 4, 5], [-202, 7, 8]]):  # column zero mod 101
        f = assert_matches_bareiss(m)
        assert polydet._charpoly_mod(m, 101) == [
            f.coeff(3 - k) % 101 for k in range(4)
        ]


def capture_primes(monkeypatch):
    """Record the modulus of every _charpoly_mod call."""
    primes = []
    inner = polydet._charpoly_mod

    def counting(matrix, p):
        primes.append(p)
        return inner(matrix, p)

    monkeypatch.setattr(polydet, "_charpoly_mod", counting)
    return primes


def test_reversed_charpoly_makes_one_modular_pass(monkeypatch):
    rng = random.Random(17)
    n = 4
    m = [[rng.randint(-(2 ** 100), 2 ** 100) for _ in range(n)]
         for _ in range(n)]
    primes = capture_primes(monkeypatch)
    f = assert_matches_bareiss(m)
    assert len(primes) == 1
    assert primes[0] > 2 * max(abs(c) for c in f.coeffs)
    assert max(abs(c) for c in f.coeffs).bit_length() > 300


def euclidean_bound_squared(m):
    """B^2 = prod_i sum_j (|m_ij| + [i = j])^2: Hadamard on I - uM, |u| = 1."""
    return prod(
        sum((abs(x) + (i == j)) ** 2 for j, x in enumerate(row))
        for i, row in enumerate(m)
    )


def sylvester_hadamard(order):
    """The +-1 Hadamard matrix of a power-of-two order, [[H, H], [H, -H]]."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_coefficient_bound_holds(monkeypatch):
    # c_k^2 <= B^2, and the kernel's prime satisfies 4B^2 < P^2 <= 64B^2
    primes = capture_primes(monkeypatch)

    def check(m):
        b2 = euclidean_bound_squared(m)
        f = reversed_charpoly(m)
        assert all(c * c <= b2 for c in f.coeffs)
        assert 4 * b2 < primes[-1] ** 2 <= 64 * b2
        return f, b2

    rng = random.Random(18)
    for _ in range(100):
        n = rng.randint(1, 7)
        check([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    # -I: the coefficients are the binomials C(n, k), the bound is 2^n
    n = 6
    f, b2 = check([[-int(i == j) for j in range(n)] for i in range(n)])
    assert f == IntPoly((1, 1)) ** n
    assert b2 == 4 ** n
    # a scaled Hadamard matrix makes Hadamard's inequality nearly tight:
    # the top coefficient det(M) is within sqrt(2) of B
    m = [[2 ** 64 * x for x in row] for row in sylvester_hadamard(8)]
    f, b2 = check(m)
    assert f.coeff(8) == 2 ** 512 * 8 ** 4
    assert 2 * f.coeff(8) ** 2 > b2


def test_kernel_matches_bareiss_at_scale():
    # entries up to 2^64 and n <= 8, where a wrong bound would show as a
    # wrapped coefficient; scaled Hadamard matrices sit at the bound
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def big_matrices(draw):
        if draw(st.booleans()):
            order = draw(st.sampled_from((1, 2, 4, 8)))
            scale = draw(st.integers(1, 2 ** 64))
            signs = draw(st.lists(st.sampled_from((-1, 1)),
                                  min_size=order, max_size=order))
            return [[scale * s * x for x in row]
                    for s, row in zip(signs, sylvester_hadamard(order))]
        n = draw(st.integers(1, 8))
        entry = st.integers(-(2 ** 64), 2 ** 64)
        row = st.lists(entry, min_size=n, max_size=n)
        return draw(st.lists(row, min_size=n, max_size=n))

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
    @hypothesis.given(big_matrices())
    def check(m):
        assert_matches_bareiss(m)

    check()


def charpoly_mod_oracle(m, p):
    """[a_0 .. a_n] of det(xI - M) mod p without the kernel: Bareiss at
    x = 0 .. n, interpolated exactly over the rationals."""
    n = len(m)
    xs = range(n + 1)
    ys = [bareiss_int_det([[x * (i == j) - m[i][j] for j in range(n)]
                           for i in range(n)]) for x in xs]
    coeffs = [Fraction(0)] * (n + 1)
    for xi, yi in zip(xs, ys):
        basis, denom = [1], 1  # prod over xj != xi of (x - xj)
        for xj in xs:
            if xj != xi:
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += Fraction(yi * b, denom)
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) % p for c in coeffs]


def test_kernel_at_small_primes_against_interpolation():
    # entries 0, +-1, +-2, +-p and 3p + 1 make nonzero multiples of p
    # appear mid-reduction, where the row step leaves entries unreduced
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices_mod_p(draw):
        p = draw(st.sampled_from((2, 3, 5, 7, 11)))
        n = draw(st.integers(1, 7))
        entry = st.sampled_from((0, 1, -1, 2, -2, p, -p, 3 * p + 1))
        row = st.lists(entry, min_size=n, max_size=n)
        return draw(st.lists(row, min_size=n, max_size=n)), p

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
    @hypothesis.given(matrices_mod_p())
    def check(case):
        m, p = case
        assert polydet._charpoly_mod(m, p) == charpoly_mod_oracle(m, p)

    check()


def test_kernel_pivot_search_reads_residues():
    # modulo 5, step 1 takes row 3 -= 2 row 1 and leaves h[3][2] = 1 - 2 * 3
    # = -5 unreduced; step 2 has a pivot but no multiplier, so no column
    # step reduces column 2. At step 3 the only candidate in column 2 is
    # -5: zero modulo 5, so the column is already reduced. A pivot search
    # that read the integer would try to invert it.
    m = [
        [0, 0, 0, 0, 0],
        [1, 0, 3, 0, 0],
        [0, 1, 0, 0, 0],
        [2, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
    ]
    assert polydet._charpoly_mod(m, 5) == charpoly_mod_oracle(m, 5)


def upper_hessenberg(subdiagonal):
    """An upper Hessenberg matrix with the given subdiagonal and every
    entry on and above the diagonal in 1 .. 5. Every reduction step finds
    its column already reduced, so the recurrence reads it as it is."""
    n = len(subdiagonal) + 1
    m = [[(i + 2 * j) % 5 + 1 if j >= i else 0 for j in range(n)]
         for i in range(n)]
    for i, s in enumerate(subdiagonal, 1):
        m[i][i - 1] = s
    return m


def test_kernel_recurrence_resets_at_zero_subdiagonal():
    # modulo 7, h_21 = 0 and h_54 = 0 make blocks of rows 0-1, 2-4 and
    # 5-6, so the block start moves twice. The entries above the diagonal
    # that cross a block (h_06, h_25 and more) are nonzero, and the
    # recurrence must leave them out. (In the pivot-search test above the
    # stored h_32 = -5 is a zero subdiagonal residue that is not 0.)
    m = upper_hessenberg([2, 0, 1, 3, 0, 1])
    assert polydet._charpoly_mod(m, 7) == charpoly_mod_oracle(m, 7)


def test_kernel_recurrence_products_of_nonunit_subdiagonals():
    # modulo 7, no subdiagonal residue is 1 or -1, so every row multiplies
    # the running subdiagonal products; over 101 the entries 100 are -1
    m = upper_hessenberg([2, 3, 4, 5, 2, 3])
    assert polydet._charpoly_mod(m, 7) == charpoly_mod_oracle(m, 7)
    m = upper_hessenberg([100, 3, 100, 100, 2, 50, 100])
    assert polydet._charpoly_mod(m, 101) == charpoly_mod_oracle(m, 101)


def test_kernel_recurrence_reads_residues_of_last_column():
    # modulo 5, step 1 takes row 2 -= 2 row 1 and leaves h_23 = 1 - 2 * 3
    # = -5. Column 3 is the last, which no column step reduces, and step
    # 2's pivot row 2 takes no row step, so the stored h_23 stays -5 above
    # the diagonal: the recurrence sees a nonzero entry whose term is 0
    m = [
        [0, 0, 0, 0],
        [1, 0, 0, 3],
        [2, 1, 0, 1],
        [0, 0, 1, 0],
    ]
    assert polydet._charpoly_mod(m, 5) == charpoly_mod_oracle(m, 5)


def test_kernel_one_row_step_adds_a_stored_multiple_of_p():
    # modulo 5, step 1 eliminates row 2 alone (t = 2), so its column step
    # C_1 += 2 C_2 visits only the rows with a stored nonzero in column 2.
    # Row 3 stores 5 there, a nonzero multiple of p taken as it is into
    # the working copy: it is visited and adds 2 * 5, a zero residue, so
    # h_31 stays 0 and step 2 has nothing to eliminate. Row 0 stores 0 in
    # column 2 and is skipped, so h_01 keeps its stored 7 until the
    # recurrence reads it as 2
    m = [
        [0, 7, 0, 1],
        [1, 0, 1, 0],
        [2, 1, 0, 0],
        [0, 0, 5, 1],
    ]
    assert polydet._charpoly_mod(m, 5) == charpoly_mod_oracle(m, 5)


def test_kernel_on_rank_two_line_graphs_with_unreduced_entries(monkeypatch):
    # T of rank-two specs with 8 to 20 edges: at the kernel's own prime
    # every elimination step removes one row. With 1 to 3 entries set to
    # p, -p, 3p + 1 or -2 the working copy holds integers outside 0 .. p - 1
    # and the one-row steps leave unreduced entries in the rows they skip,
    # which the pivot search and the recurrence must read as residues
    rng = random.Random(40)
    graphs = [g for g in map(gen_family, enumerate_rank2(20))
              if g.edge_count >= 8]
    sample = rng.sample(graphs, 10)
    for matrix, _, _ in kernel_inputs(monkeypatch, zeta.zeta_line_det, sample):
        for p in (3, 5, 7, 101):
            m = [list(row) for row in matrix]
            n = len(m)
            for _ in range(rng.randint(1, 3)):
                m[rng.randrange(n)][rng.randrange(n)] = rng.choice(
                    (p, -p, 3 * p + 1, -2))
            assert polydet._charpoly_mod(m, p) == charpoly_mod_oracle(m, p)


def test_kernel_sparse_and_near_permutation_against_interpolation():
    # sizes 8 to 32, beyond the Hypothesis tests' 7: a permutation matrix,
    # as T nearly is on rank-two graphs, with up to 3 entries set to 1, -1,
    # 2 or p, and sparse matrices with entries 0, +-1 and 2. Their reduced
    # H has long runs of subdiagonal products and many blocks
    rng = random.Random(37)
    for n in range(8, 33):
        for p in (2, 3, 5, 7, 101):
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                m = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
                for _ in range(rng.randint(0, 3)):
                    m[rng.randrange(n)][rng.randrange(n)] = rng.choice(
                        (1, -1, 2, p))
            else:
                density = rng.choice((1.5, 3.0)) / n
                m = [[rng.choice((1, -1, 2)) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(n)]
            assert polydet._charpoly_mod(m, p) == charpoly_mod_oracle(m, p)


def is_proth(n):
    """n = k 2^m + 1 with k odd and k < 2^m."""
    m = ((n - 1) & -(n - 1)).bit_length() - 1
    return (n - 1) >> m < 1 << m


def unsieved_proth_prime(bits):
    """The prime search without trial division: Proth's test on every
    candidate, in the same order."""
    h = bits // 2 + 1
    for j in range(1 << (bits - h), 1 << (bits + 1 - h)):
        if polydet._proth_proves_prime((j << h) + 1):
            return (j << h) + 1
    return unsieved_proth_prime(bits + 1)


def test_prime_search():
    limit = 2 ** 17 + 2
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, 363):
        sieve[i * i::i] = [False] * len(sieve[i * i::i])
    for bits in range(8, 17):
        p = polydet._proth_prime(bits)
        assert p > 2 ** bits and is_proth(p) and sieve[p]
        # the least such prime: none is skipped as unproven here
        assert not any(is_proth(n) and sieve[n]
                       for n in range(2 ** bits + 1, p))
    assert polydet._proth_prime(16) == 2 ** 16 + 1  # the Fermat prime F_4
    # trial division skips no prime: 257 at 8 bits is itself a small
    # prime, and the sizes above 300 bits are those of K(80) and M(200)
    assert polydet._proth_prime(8) == 257
    for bits in [*range(2, 301), 402, 545]:
        assert polydet._proth_prime(bits) == unsieved_proth_prime(bits)
    # composite Proth numbers, 2^32 + 1 = 641 * 6700417 among them
    for n, factor in ((57, 3), (209, 11), (2 ** 32 + 1, 641),
                      (2 ** 64 + 1, 274177)):
        assert is_proth(n) and n % factor == 0
        assert not polydet._proth_proves_prime(n)
    # a Proth prime that every base from 3 to 47 sends to +1 stays unproven
    n = 18975 * 2 ** 16 + 1
    assert is_proth(n) and all(n % d for d in range(3, isqrt(n) + 1, 2))
    assert not polydet._proth_proves_prime(n)
