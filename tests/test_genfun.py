"""Generating functions: symmetric products, divisor varieties, residue route."""

import random

import pytest

from hnbetti.exactalg import ExactPolynomial
from hnbetti.genfun import (
    div_finite_poly,
    div_stable_ranks,
    div_stable_series,
    residue_series,
    sym_product_poly,
)
from hnbetti.hnrec import dim_moduli, rank2_oracle, ss_series
from hnbetti.strata import stratum_codim, type_rows


def _bivariate_sym_coefficients(genus, max_power):
    """Expand (1 + u t)^(2g) / ((1 - u)(1 - u t^2)) in u, exactly.

    Returns the list of t-polynomials c_0(t), ..., c_max(t); an independent
    route to the symmetric-product polynomials that never touches the
    coefficient formula used by the implementation.
    """
    from math import comb

    # (1 + u t)^(2g): u^k carries t-polynomial comb(2g, k) t^k.
    numerator = [
        ExactPolynomial.monomial(k, comb(2 * genus, k))
        for k in range(min(2 * genus, max_power) + 1)
    ]
    # 1 / (1 - u): u^a carries 1.  1 / (1 - u t^2): u^b carries t^(2b).
    out = []
    for m in range(max_power + 1):
        acc = ExactPolynomial.zero()
        for k in range(min(len(numerator) - 1, m) + 1):
            for b in range(m - k + 1):
                acc = acc + numerator[k] * ExactPolynomial.monomial(2 * b)
        out.append(acc)
    return out


def test_sym_product_examples():
    assert sym_product_poly(2, 0) == ExactPolynomial.one()
    assert sym_product_poly(2, 1).coefficients == (1, 4, 1)
    assert sym_product_poly(2, 2).coefficients == (1, 4, 7, 4, 1)


def test_sym_product_structure():
    for genus in range(5):
        for m in range(9):
            poly = sym_product_poly(genus, m)
            assert poly.degree == 2 * m
            assert poly.is_palindromic()
            assert poly.coefficient(0) == 1
            assert poly.coefficient(2 * m) == 1


def test_sym_product_matches_generating_function():
    for genus in (0, 1, 2, 3):
        expected = _bivariate_sym_coefficients(genus, 8)
        for m, poly in enumerate(expected):
            assert sym_product_poly(genus, m) == poly


def test_sym_product_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_product_poly(2, -1)
    with pytest.raises(ValueError):
        sym_product_poly(-1, 0)


def test_div_finite_examples():
    # Rank 1: a single symmetric product.
    assert div_finite_poly(2, 1, 0, 2).coefficients == (1, 4, 7, 4, 1)
    # Zero total: the point.
    assert div_finite_poly(2, 1, 2, 2) == ExactPolynomial.one()
    assert div_finite_poly(2, 2, 1, 1).coefficients == (1, 4, 2, 4, 1)


def test_div_finite_rejects_empty_range():
    with pytest.raises(ValueError):
        div_finite_poly(2, 2, 5, 1)
    with pytest.raises(ValueError):
        div_finite_poly(2, 0, 0, 1)
    with pytest.raises(ValueError):
        div_finite_poly(2, 2, 0, -1)


def _compositions(total, parts):
    # Ordered tuples of nonnegative integers, lexicographically ascending.
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _div_finite_by_tuples(genus, rank, degree, twist):
    """The finite-level polynomial as the sum over r-tuples, one tuple at a time."""
    total = rank * twist - degree
    sym = [sym_product_poly(genus, m) for m in range(total + 1)]
    result = ExactPolynomial.zero()
    for tup in _compositions(total, rank):
        term = ExactPolynomial.monomial(2 * sum(i * m for i, m in enumerate(tup)))
        for m in tup:
            term = term * sym[m]
        result = result + term
    return result


def test_div_finite_matches_the_sum_over_tuples():
    cases = [
        (genus, rank, degree, twist)
        for genus in range(4)
        for rank in range(1, 4)
        for degree in range(-2, 4)
        for twist in range(5)
        if rank * twist - degree >= 0
    ]
    cases += [(2, 4, 1, 3), (0, 4, -2, 2), (3, 4, 3, 2)]
    for case in cases:
        assert div_finite_poly(*case) == _div_finite_by_tuples(*case), case


def test_div_stable_examples():
    assert div_stable_series(2, 1, 5).coefficients == (1, 4, 7, 8, 8, 8)
    assert div_stable_series(2, 2, 3).coefficients == (1, 4, 8, 16)
    for rank in (1, 2, 3):
        assert div_stable_series(2, rank, 0).coefficients == (1,)


def _closed_form(genus, rank, order):
    """The product formula multiplied out, times one inverted denominator."""
    numerator = ExactPolynomial.one()
    for j in range(1, rank + 1):
        numerator = numerator * ExactPolynomial.from_terms({0: 1, 2 * j - 1: 1}) ** (2 * genus)
    denominator = ExactPolynomial.from_terms({0: 1, 2 * rank: -1})
    for j in range(1, rank):
        denominator = denominator * ExactPolynomial.from_terms({0: 1, 2 * j: -1}) ** 2
    return denominator.inverse_series(order) * numerator


def test_div_stable_ratio_recurrence_matches_closed_form():
    for genus in range(5):
        for order in (0, 1, 5, 40, 97):
            ranks = div_stable_ranks(genus, 8, order)
            assert len(ranks) == 8
            for rank, series in enumerate(ranks, start=1):
                want = _closed_form(genus, rank, order).coefficients
                assert series.truncation_order == order
                assert series.coefficients == want, (genus, rank, order)
                assert div_stable_series(genus, rank, order).coefficients == want
    with pytest.raises(ValueError):
        div_stable_ranks(2, 0, 5)
    with pytest.raises(ValueError):
        div_stable_ranks(2, 2, -1)


def test_div_finite_stabilizes_to_stable_series():
    # Finite and stable coefficients agree strictly below rank*twist - degree.
    for genus, rank, degree in ((2, 2, 1), (2, 3, 1), (3, 2, 1)):
        deviated = False
        for twist in range(2, 9):
            total = rank * twist - degree
            finite = div_finite_poly(genus, rank, degree, twist)
            stable = div_stable_series(genus, rank, 2 * total)
            for i in range(total):
                assert finite.coefficient(i) == stable.coefficient(i)
            if any(
                finite.coefficient(i) != stable.coefficient(i)
                for i in range(total, 2 * total + 1)
            ):
                deviated = True
        assert deviated, "stabilization bound should be active somewhere"


@pytest.mark.parametrize("rank", (4, 5))
def test_div_finite_stabilizes_at_higher_rank(rank):
    # As above, at ranks where the sum over r-tuples has thousands of terms.
    deviated = False
    for twist in range(2, 7):
        total = rank * twist - 1
        finite = div_finite_poly(2, rank, 1, twist)
        stable = div_stable_series(2, rank, 2 * total)
        for i in range(total):
            assert finite.coefficient(i) == stable.coefficient(i)
        deviated |= any(
            finite.coefficient(i) != stable.coefficient(i)
            for i in range(total, 2 * total + 1)
        )
    assert deviated, "stabilization bound should be active somewhere"


def test_div_finite_coefficients_grow_with_twist():
    rng = random.Random(7)
    for _ in range(20):
        rank = rng.randrange(1, 4)
        degree = rng.randrange(-3, 4)
        twist = rng.randrange(max(1, degree), 6)
        if rank * twist - degree < 0:
            continue
        small = div_finite_poly(2, rank, degree, twist)
        large = div_finite_poly(2, rank, degree, twist + 1)
        top = small.degree if small.degree is not None else 0
        assert all(
            small.coefficient(i) <= large.coefficient(i) for i in range(top + 1)
        )


def test_residue_examples():
    assert residue_series(2, 1, 5).coefficients == (1, 4, 7, 8, 8, 8)
    assert residue_series(0, 1, 4).coefficients == (1, 0, 1, 0, 1)
    assert residue_series(2, 2, 3).coefficients == (1, 4, 8, 16)


def test_residue_agrees_with_closed_form():
    # Two genuinely different computations of the same series.
    for genus in range(4):
        for rank in range(1, 5):
            lhs = residue_series(genus, rank, 25)
            rhs = div_stable_series(genus, rank, 25)
            assert lhs.coefficients == rhs.coefficients



# Each genus-taking function, called with a given genus, and the least genus it accepts.
GENUS_CHECKED = {
    "sym_product_poly": (0, lambda g: sym_product_poly(g, 1)),
    "div_finite_poly": (0, lambda g: div_finite_poly(g, 2, 1, 1)),
    "div_stable_series": (0, lambda g: div_stable_series(g, 2, 4)),
    "residue_series": (0, lambda g: residue_series(g, 2, 4)),
    "stratum_codim": (1, lambda g: stratum_codim((1, 1, 1, 0), g)),
    "type_rows": (1, lambda g: type_rows(2, 1, g, 4)),
    "ss_series": (1, lambda g: ss_series(g, 2, 1, 10)),
    "dim_moduli": (1, lambda g: dim_moduli(g, 2)),
    "rank2_oracle": (1, lambda g: rank2_oracle(g, 1, 10)),
}


@pytest.mark.parametrize("name", GENUS_CHECKED)
def test_genus_is_checked_against_its_bound(name):
    least, call = GENUS_CHECKED[name]
    call(least)
    for bad in (least - 1, float(least + 2), str(least + 2), True):
        with pytest.raises(ValueError, match="genus must be an integer >= "):
            call(bad)
