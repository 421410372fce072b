"""Integer polynomial arithmetic: identities, calculus, evaluation, display."""

import random
from fractions import Fraction

import pytest

from iharazeta.intpoly import IntPoly, format_poly


def rand_poly(rng, max_degree=8, bound=50):
    return IntPoly([rng.randint(-bound, bound)
                    for _ in range(rng.randint(0, max_degree + 1))])


def test_normalization_strips_trailing_zeros():
    p = IntPoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPoly((0, 0)).is_zero()
    assert IntPoly().degree == -1


def test_constructors():
    assert IntPoly().is_zero()
    assert IntPoly([-7]) == IntPoly((-7,))
    assert IntPoly.monomial(3) == IntPoly((0, 0, 0, 1))
    assert IntPoly.monomial(2, -5) == IntPoly((0, 0, -5))
    assert IntPoly.monomial(0, 0).is_zero()


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


def test_pow():
    f = IntPoly((1, 1))
    assert f ** 0 == IntPoly((1,))
    assert f ** 3 == f * f * f
    assert f ** 5 == IntPoly((1, 5, 10, 10, 5, 1))
    with pytest.raises(ValueError):
        f ** -1


def test_one_minus_u2_pow_matches_repeated_products():
    base = IntPoly((1, 0, -1))
    for k in range(13):
        assert IntPoly.one_minus_u2_pow(k) == base ** k
    with pytest.raises(ValueError):
        IntPoly.one_minus_u2_pow(-1)


def test_int_coercion():
    f = IntPoly((2, 3))
    assert f + 1 == IntPoly((3, 3))
    assert 1 + f == IntPoly((3, 3))
    assert 2 * f == IntPoly((4, 6))
    assert f - 2 == IntPoly((0, 3))
    assert 2 - f == IntPoly((0, -3))


def test_derivative():
    p = IntPoly((1, 0, -6, 0, 9, 0, -4))  # the triple-edge fixture
    assert p.derivative() == IntPoly((0, -12, 0, 36, 0, -24))
    assert p.derivative(2).eval_at(1) == -24
    assert p.derivative(0) == p
    rng = random.Random(303)
    for _ in range(50):
        f, g = rand_poly(rng), rand_poly(rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        order = rng.randint(0, 10)
        stepwise = f
        for _ in range(order):
            stepwise = stepwise.derivative()
        assert f.derivative(order) == stepwise
    with pytest.raises(ValueError):
        p.derivative(-1)


def test_eval_types():
    p = IntPoly((1, -2, 0, 3))
    assert p.eval_at(2) == 1 - 4 + 24
    assert p(0) == 1
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
    assert format_poly(p) == "1 - 2u^3 + u^6"
    assert format_poly(p, ascending=False) == "u^6 - 2u^3 + 1"
    q = IntPoly((1, -4, 2, 4, -3))
    assert format_poly(q, ascending=False) == "-3u^4 + 4u^3 + 2u^2 - 4u + 1"
    assert format_poly(IntPoly()) == "0"
    assert format_poly(IntPoly((0, 1)), var="x") == "x"


def test_hash_and_eq():
    assert hash(IntPoly((1, 2))) == hash(IntPoly((1, 2, 0)))
    assert IntPoly((1, 2)) != IntPoly((1, 2, 3))
    d = {IntPoly((1, 2)): "a"}
    assert d[IntPoly((1, 2, 0))] == "a"

