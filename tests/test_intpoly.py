"""Integer polynomial arithmetic: identities, calculus, evaluation, display."""

import random
from fractions import Fraction

import pytest

from iharazeta.intpoly import IntPoly


def rand_poly(rng, max_degree=8, bound=50):
    return IntPoly([rng.randint(-bound, bound)
                    for _ in range(rng.randint(0, max_degree + 1))])


def test_normalization_strips_trailing_zeros():
    p = IntPoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPoly((0, 0)) == IntPoly()
    assert IntPoly().degree == -1


@pytest.mark.parametrize("bad", [0.5, 2.9, True, "1"])
def test_refuses_coefficients_that_are_not_ints(bad):
    # refused, not converted: int() would read 0.5 as 0 and 2.9 as 2
    with pytest.raises(TypeError, match="must be ints"):
        IntPoly((bad,))
    with pytest.raises(TypeError, match="must be ints"):
        IntPoly((1, bad))


def test_constructors():
    assert IntPoly().coeffs == ()
    assert IntPoly([-7]) == IntPoly((-7,))
    assert IntPoly.from_terms([(3, 1)]) == IntPoly((0, 0, 0, 1))
    assert IntPoly.from_terms([(2, -5)]) == IntPoly((0, 0, -5))
    assert IntPoly.from_terms([(0, 0)]) == IntPoly()


def test_from_terms_refuses_a_negative_power():
    with pytest.raises(ValueError, match="power must be >= 0"):
        IntPoly.from_terms([(3, 1), (-1, 5)])


@pytest.mark.parametrize("bad", [True, 1.0, "1"],
                         ids=["bool", "float", "str"])
def test_from_terms_refuses_powers_and_coefficients_that_are_not_ints(bad):
    # refused, not converted: a bool power or coefficient would be read as 1
    with pytest.raises(TypeError, match="powers must be ints"):
        IntPoly.from_terms([(bad, 1)])
    with pytest.raises(TypeError, match="coefficients must be ints"):
        IntPoly.from_terms([(1, bad)])


def test_from_terms_accumulates_and_cancels():
    p = IntPoly.from_terms([(3, 2), (0, 5), (3, -2)])
    assert p == IntPoly([5])
    assert IntPoly.from_terms([]) == IntPoly()
    # the closed-form use case: colliding exponents must sum
    q = IntPoly.from_terms([(4, 1), (4, 1), (2, -2)])
    assert q.coeff(4) == 2 and q.coeff(2) == -2


def test_ring_identities_random():
    rng = random.Random(101)
    for _ in range(200):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - g == -(g - f)
        assert f + IntPoly() == f
        assert f * IntPoly((1,)) == f


def test_products_of_sparse_operands():
    # __mul__ skips the zero coefficients of both operands
    rng = random.Random(7)
    for _ in range(200):
        f, g = (IntPoly([rng.choice((0, 0, 0, rng.randint(-9, 9)))
                         for _ in range(rng.randint(0, 12))])
                for _ in range(2))
        assert f * g == IntPoly.from_terms(
            (i + j, a * b) for i, a in enumerate(f.coeffs)
            for j, b in enumerate(g.coeffs))


def test_pow():
    f = IntPoly((1, 1))
    assert f ** 0 == IntPoly((1,))
    assert f ** 3 == f * f * f
    assert f ** 5 == IntPoly((1, 5, 10, 10, 5, 1))
    with pytest.raises(ValueError):
        f ** -1
    for f in (IntPoly((1, 1, 78)), IntPoly((1, -3, 2)), IntPoly((0, 2, -1)),
              IntPoly((1, 0, 0, 0, -5))):
        product = IntPoly((1,))
        for k in range(41):
            assert f ** k == product, (f, k)
            product = product * f


@pytest.mark.parametrize("bad", [True, 2.0, "2"],
                         ids=["bool", "float", "str"])
def test_exponents_that_are_not_ints_are_refused(bad):
    # a bool exponent would be read as 1, and a float or str would fail
    # inside the powering loop with an unrelated message
    with pytest.raises(TypeError, match="powers must be ints"):
        IntPoly((1, 1)) ** bad
    with pytest.raises(TypeError, match="powers must be ints"):
        IntPoly((1, 1)).times_one_minus_u2_pow(bad)


def test_one_minus_u2_pow_matches_repeated_products():
    base = IntPoly((1, 0, -1))
    for k in range(13):
        assert IntPoly((1,)).times_one_minus_u2_pow(k) == base ** k
    with pytest.raises(ValueError):
        IntPoly((1,)).times_one_minus_u2_pow(-1)


@pytest.mark.parametrize("k, degree", [(740, 80), (3080, 160)],
                         ids=["K40-shape", "K80-shape"])
def test_times_one_minus_u2_pow_at_the_dense_shapes(k, degree):
    # Bass's shapes on K(40) and K(80): k = r - 1 far above deg h, so
    # nearly every row comes from the differences. The reference row is
    # built by the binomial recurrence: (1 - u^2)^3080 by ** takes seconds
    rng = random.Random(k)
    h = IntPoly([rng.randrange(-2 ** 210, 2 ** 210) for _ in range(degree + 1)])
    row, binom = [], 1
    for m in range(k + 1):
        row += (-binom if m & 1 else binom, 0)
        binom = binom * (k - m) // (m + 1)
    assert h.times_one_minus_u2_pow(k) == IntPoly(row) * h
    if k == 740:
        assert IntPoly(row) == IntPoly((1, 0, -1)) ** k


def test_bool_is_not_an_int_operand():
    # operands are IntPolys only: neither an int nor a bool compares equal
    # to a constant polynomial or coerces into one
    f = IntPoly((2, 3))
    assert (IntPoly((1,)) == 1) is False
    assert (IntPoly() == 0) is False
    assert (IntPoly((1,)) == True) is False  # noqa: E712
    assert (IntPoly() == False) is False  # noqa: E712
    for op in (lambda x: f + x, lambda x: x + f, lambda x: f - x,
               lambda x: x - f, lambda x: f * x, lambda x: x * f):
        for x in (2, True):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(x)


def test_eval_types():
    p = IntPoly((1, -2, 0, 3))
    assert p.eval_at(2) == 1 - 4 + 24
    assert p.eval_at(0) == 1
    assert p.eval_at(Fraction(1, 2)) == Fraction(3, 8)
    assert p.eval_at(-1.0) == pytest.approx(0.0)


def test_queries():
    p = IntPoly((1, 0, 0, -2, 0, 0, 1))
    assert p.leading_coeff == 1
    assert p.coeff(3) == -2 and p.coeff(99) == 0
    assert p.first_nonzero_power() == 0
    assert p.first_nonzero_power(start=1) == 3
    assert p.first_nonzero_power(start=7) is None
    assert not p.is_even()
    assert IntPoly((1, 0, -4, 0, 2)).is_even()
    assert IntPoly().is_even()


def test_format_poly():
    p = IntPoly((1, 0, 0, -2, 0, 0, 1))
    assert str(p) == "1 - 2u^3 + u^6"
    assert str(IntPoly()) == "0"
    assert str(IntPoly((0, -1, 3))) == "-u + 3u^2"


def test_hash_and_eq():
    assert hash(IntPoly((1, 2))) == hash(IntPoly((1, 2, 0)))
    assert IntPoly((1, 2)) != IntPoly((1, 2, 3))
    d = {IntPoly((1, 2)): "a"}
    assert d[IntPoly((1, 2, 0))] == "a"
    with pytest.raises(AttributeError):
        IntPoly((1, 2)).coeffs = (3,)

