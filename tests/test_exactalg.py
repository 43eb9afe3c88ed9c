"""Exact polynomial and truncated-series arithmetic."""

import math
import random

import pytest

from hnbetti.exactalg import ExactPolynomial, InexactDivisionError, TruncatedSeries, _convolve


def _brute_convolution(a, b):
    # Independent reference for polynomial multiplication.
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _random_poly(rng, max_degree=8, span=9):
    return ExactPolynomial(
        tuple(rng.randrange(-span, span + 1) for _ in range(rng.randrange(max_degree + 1)))
    )


def test_mul_identity():
    p = ExactPolynomial((1, 1))
    assert (p * ExactPolynomial.one()).coefficients == (1, 1)


def test_mul_difference_of_squares():
    p = ExactPolynomial((1, 1)) * ExactPolynomial((1, -1))
    assert p.coefficients == (1, 0, -1)


def test_mul_moduli_factorization():
    a = ExactPolynomial((1, 4, 6, 4, 1))
    b = ExactPolynomial((1, 0, 1, 4, 1, 0, 1))
    expected = (1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1)
    assert (a * b).coefficients == expected
    assert _brute_convolution(a.coefficients, b.coefficients) == expected


def test_mul_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    assert ExactPolynomial.zero() * _random_poly(rng) == ExactPolynomial.zero()


def test_pow_binomial_exactness():
    p = ExactPolynomial((1, 1)) ** 100
    assert p.coefficient(50) == math.comb(100, 50)
    assert p.coefficient(0) == p.coefficient(100) == 1
    assert (ExactPolynomial((1, 1)) ** 0) == ExactPolynomial.one()
    with pytest.raises(ValueError):
        ExactPolynomial((1, 1)) ** -1


def test_normalization_and_degree():
    assert ExactPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
    assert ExactPolynomial((0, 0)).degree is None
    assert ExactPolynomial((0, 0)).is_zero()
    assert ExactPolynomial((3,)).degree == 0
    assert ExactPolynomial((1, 2)).coefficient(17) == 0
    with pytest.raises(ValueError):
        ExactPolynomial((1,)).coefficient(-1)


def test_from_terms_and_monomial():
    assert ExactPolynomial.from_terms({0: 1, 2: -1}).coefficients == (1, 0, -1)
    assert ExactPolynomial.from_terms({}).is_zero()
    assert ExactPolynomial.monomial(3, 5).coefficients == (0, 0, 0, 5)
    with pytest.raises(ValueError):
        ExactPolynomial.monomial(-1)


def test_inverse_series_geometric():
    inv = ExactPolynomial((1, -1)).inverse_series(4)
    assert inv.coefficients == (1, 1, 1, 1, 1)


def test_inverse_series_of_one():
    assert ExactPolynomial.one().inverse_series(3).coefficients == (1, 0, 0, 0)


def test_inverse_series_squared_denominator():
    den = ExactPolynomial((1, 0, -1)) ** 2
    assert den.inverse_series(4).coefficients == (1, 0, 2, 0, 3)


def test_inverse_series_needs_unit_constant():
    with pytest.raises(ValueError):
        ExactPolynomial((2, 1)).inverse_series(3)
    with pytest.raises(ValueError):
        ExactPolynomial.zero().inverse_series(3)


def test_inverse_series_random_roundtrip():
    rng = random.Random(97)
    for _ in range(60):
        body = tuple(rng.randrange(-5, 6) for _ in range(rng.randrange(6)))
        p = ExactPolynomial((rng.choice((1, -1)),) + body)
        order = rng.randrange(1, 20)
        product = p.inverse_series(order) * p
        assert product.coefficients == (1,) + (0,) * order


def test_divide_exact_examples():
    num = ExactPolynomial((1, 0, -1))
    assert num.divide_exact(ExactPolynomial((1, -1))).coefficients == (1, 1)
    quartic = ExactPolynomial((1, 1)) ** 4
    assert quartic.divide_exact(ExactPolynomial((1, 1))) == ExactPolynomial((1, 1)) ** 3


def test_divide_exact_moduli_numerator():
    # (1+t^3)^4 - t^4 (1+t)^4 factors through (1 - t^2 - t^4 + t^6).
    num = (ExactPolynomial.from_terms({0: 1, 3: 1}) ** 4) - (
        ExactPolynomial.monomial(4) * ExactPolynomial((1, 1)) ** 4
    )
    den = ExactPolynomial((1, 0, -1, 0, -1, 0, 1))
    quotient = num.divide_exact(den)
    assert quotient.coefficients == (1, 0, 1, 4, 1, 0, 1)
    assert quotient * den == num


def test_divide_exact_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        ExactPolynomial((1, 1, 1)).divide_exact(ExactPolynomial((1, 1)))
    with pytest.raises(InexactDivisionError):
        ExactPolynomial((1, 1)).divide_exact(ExactPolynomial((2,)))
    with pytest.raises(ZeroDivisionError):
        ExactPolynomial((1, 1)).divide_exact(ExactPolynomial.zero())


def test_divide_exact_random_roundtrip():
    rng = random.Random(4242)
    for _ in range(120):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).divide_exact(b) == a


def test_palindromic():
    assert ExactPolynomial((1, 4, 1)).is_palindromic()
    assert not ExactPolynomial((1, 2)).is_palindromic()
    assert ExactPolynomial((1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1)).is_palindromic()
    assert ExactPolynomial((5,)).is_palindromic()
    with pytest.raises(ValueError):
        ExactPolynomial.zero().is_palindromic()


def test_series_prefix_equality():
    # Series compare as values: a prefix is another series.
    s3 = TruncatedSeries((1, 2, 3, 4), 3)
    s5 = TruncatedSeries((1, 2, 3, 4, 9, 9), 5)
    assert s3 != s5
    copy = TruncatedSeries((1, 2, 3, 4), 3)
    assert s3 == copy and hash(s3) == hash(copy)
    assert len({s3, s5, copy}) == 2


def test_series_shape_is_checked():
    with pytest.raises(ValueError):
        TruncatedSeries((1, 2), 3)
    with pytest.raises(ValueError):
        TruncatedSeries((1,), -1)


def test_series_truncate_and_shift():
    s = TruncatedSeries((1, 2, 3, 4), 3)
    assert s.truncate(1).coefficients == (1, 2)
    with pytest.raises(ValueError):
        s.truncate(9)
    shifted = s.times_t_power(2)
    assert shifted.truncation_order == 5
    assert shifted.coefficients == (0, 0, 1, 2, 3, 4)


def test_series_products_truncate_to_min_order():
    a = TruncatedSeries((1, 1, 0, 0, 0, 0), 5)
    b = ExactPolynomial((1, -1)).inverse_series(3)
    assert (a * b).truncation_order == 3
    assert (a * b).coefficients == (1, 2, 2, 2)
    # Polynomial factors keep the full series order.
    assert (b * ExactPolynomial((1, 1))).truncation_order == 3
    assert (ExactPolynomial((3,)) * b).coefficients == (3, 3, 3, 3)
    # * takes two coefficient vectors, never a bare int.
    p = ExactPolynomial((1, 2))
    for product in (lambda: 3 * b, lambda: b * 3, lambda: 2 * p, lambda: p * 2):
        with pytest.raises(TypeError):
            product()


def test_series_polynomial_prefix():
    s = TruncatedSeries((5, 0, -2, 0, 0, 0, 0), 6)
    assert s.polynomial_prefix(4).coefficients == (5, 0, -2)
    with pytest.raises(ValueError):
        s.polynomial_prefix(7)


def test_negative_orders_are_rejected():
    # truncate(-1) returned no coefficients under truncation_order -1, and
    # polynomial_prefix(-1) returned the zero polynomial.
    s = TruncatedSeries((1, 2, 3, 4, 5), 4)
    with pytest.raises(ValueError, match="truncation order must be an integer >= 0"):
        s.truncate(-1)
    with pytest.raises(ValueError, match="prefix degree must be an integer >= 0"):
        s.polynomial_prefix(-1)


def test_series_addition_mixed_orders():
    a = TruncatedSeries((1, 1, 1), 2)
    b = TruncatedSeries((1, 0, 0, 7), 3)
    assert (a + b).coefficients == (2, 1, 1)
    assert (a - b).coefficients == (0, 1, 1)


def _schoolbook(a, b, order):
    # Independent reference for the kernel: coefficients 0..order of a * b.
    out = [0] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        for j, cb in enumerate(b[: order + 1 - i]):
            out[i + j] += ca * cb
    return tuple(out)


def _signed(rng, length, bits):
    return [rng.randrange(-(1 << bits) + 1, 1 << bits) for _ in range(length)]


def test_convolve_matches_schoolbook_random():
    rng = random.Random(9203004)
    for _ in range(400):
        a = _signed(rng, rng.randrange(41), rng.randint(1, 200))
        b = _signed(rng, rng.randrange(41), rng.randint(1, 200))
        order = rng.randrange(len(a) + len(b) + 3)
        assert _convolve(a, b, order) == _schoolbook(a, b, order), (a, b, order)


def test_convolve_edge_operands():
    top = (1 << 200) - 1
    cases = [
        ([], [1, 2], 3),
        ([0, 0, 0], [5, -7], 4),
        ([0], [0], 0),
        ([3], [-4], 0),
        ([-1], [1, 1, 1, 1], 6),
        ([top] * 30, [top] * 30, 58),  # every slot at its largest magnitude
        ([top] * 30, [-top] * 30, 58),
        ([-top, top] * 15, [top, -top] * 15, 70),
        ([1] * 20, [1] * 30, 4),  # order shorter than either operand
        ([-1] * 20, [2] * 30, 0),
    ]
    for a, b, order in cases:
        assert _convolve(a, b, order) == _schoolbook(a, b, order), (a, b, order)
        assert _convolve(tuple(b), tuple(a), order) == _schoolbook(a, b, order)


def test_convolve_largest_coefficients_fill_their_slots():
    # All-maximal operands of one sign make the middle coefficient as large as
    # the slot-width bound allows; sweeping the widths hits every byte rounding.
    for bits_a in range(1, 12):
        for bits_b in range(1, 12):
            for terms in (1, 2, 3, 4, 7, 8, 15, 16, 31):
                a = [(1 << bits_a) - 1] * terms
                for b in ([(1 << bits_b) - 1] * terms, [-(1 << bits_b) + 1] * terms):
                    assert _convolve(a, b, 2 * terms - 2) == _schoolbook(a, b, 2 * terms - 2)


def test_polynomial_products_match_schoolbook():
    rng = random.Random(7)
    for _ in range(200):
        p = _random_poly(rng, max_degree=15, span=1 << rng.randint(1, 120))
        q = _random_poly(rng, max_degree=15, span=1 << rng.randint(1, 120))
        assert (p * q).coefficients == _brute_convolution(p.coefficients, q.coefficients)


def test_series_products_match_schoolbook():
    rng = random.Random(11)
    for _ in range(200):
        order = rng.randrange(25)
        s = TruncatedSeries(tuple(_signed(rng, order + 1, rng.randint(1, 150))), order)
        p = _random_poly(rng, max_degree=35, span=1 << rng.randint(1, 150))
        expected = _schoolbook(s.coefficients, p.coefficients, order)
        assert (s * p).coefficients == expected
        assert (p * s).coefficients == expected
        other_order = rng.randrange(25)
        u = TruncatedSeries(tuple(_signed(rng, other_order + 1, 64)), other_order)
        low = min(order, other_order)
        assert (s * u).truncation_order == low
        assert (s * u).coefficients == _schoolbook(s.coefficients, u.coefficients, low)
