"""Closed-form generating functions for divisor varieties on a smooth curve.

Everything here is classical generating-function bookkeeping for a smooth
projective curve C of genus g over an algebraically closed field.  The genus
is the only curve invariant the formulas use, and it is passed as a plain int.

* Macdonald's formula for the symmetric products C^(m):
      sum_m P(C^(m); t) u^m = (1 + u t)^(2g) / ((1 - u)(1 - u t^2)),
  so P(C^(m); t) = sum over k + a + b = m of binom(2g, k) t^(k + 2b).

* The finite-level variety of rank-r matrix divisors bounded by a divisor D of
  degree degD, with degree n: a disjoint union of iterated symmetric-product
  bundles indexed by r-tuples (m_1, ..., m_r) of nonnegative integers summing
  to m = r*degD - n, giving the Poincare polynomial
      sum over tuples of t^(2 * sum_i (i-1) m_i) * prod_i P(C^(m_i); t).

* The stable (ind-variety) series, independent of n:
      P(Div^(r); t) = prod_{j=1..r} (1 + t^(2j-1))^(2g)
                      / ((1 - t^(2r)) * prod_{j=1..r-1} (1 - t^(2j))^2).

* The same series obtained as minus the residue at u = 1 of
      E(t, u) = prod_{j=0..r-1} (1 + u t^(2j+1))^(2g)
                / ((1 - u t^(2j)) (1 - u t^(2j+2))).
  Factor j contributes the numerator (1 + u t^(2j+1))^(2g) and the
  denominators (1 - u t^(2j)) and (1 - u t^(2j+2)); the only one with
  t-exponent 0 is (1 - u) at j = 0, the simple pole.  Minus the residue drops
  that factor and sets u = 1 in the rest.  residue_series keeps this factored
  form and never multiplies the closed-form product out, so it is an
  independent route to the same numbers.

All of these hold for every genus g >= 0; the Harder-Narasimhan recursion
built on them needs g >= 1 (see the strata module).  _check_genus is the one
place a genus is checked against such a bound.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Iterator

from .exactalg import ExactPolynomial, TruncatedSeries


def _check_genus(genus: int, least: int) -> None:
    """Reject a genus that is not an int or is below least."""
    if not isinstance(genus, int) or genus < least:
        raise ValueError(f"genus must be an integer >= {least}, got {genus!r}")


def _one_plus_tpow(exponent: int) -> ExactPolynomial:
    return ExactPolynomial.from_terms({0: 1, exponent: 1})


def _one_minus_tpow(exponent: int) -> ExactPolynomial:
    return ExactPolynomial.from_terms({0: 1, exponent: -1})


# typed: a float genus equal to a cached int must still be rejected.
@functools.lru_cache(maxsize=None, typed=True)
def sym_product_poly(genus: int, points: int) -> ExactPolynomial:
    """Poincare polynomial of the m-fold symmetric product C^(m).

    Degree 2m, palindromic, constant and leading coefficients 1.
    """
    _check_genus(genus, 0)
    if points < 0:
        raise ValueError("number of points must be nonnegative")
    coeffs = [0] * (2 * points + 1)
    for k in range(min(2 * genus, points) + 1):
        c = comb(2 * genus, k)
        for b in range(points - k + 1):
            coeffs[k + 2 * b] += c
    return ExactPolynomial(tuple(coeffs))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Ordered tuples of nonnegative integers, lexicographically ascending.
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def div_finite_poly(
    genus: int, rank: int, degree: int, twist_degree: int
) -> ExactPolynomial:
    """Poincare polynomial of the bounded matrix-divisor variety Div(r, n; D).

    twist_degree is deg D.  The variety is nonempty exactly when
    m = rank * twist_degree - degree >= 0; an empty range is rejected so the
    caller can tell the difference from the zero polynomial.
    """
    _check_genus(genus, 0)
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if twist_degree < 0:
        raise ValueError("twist degree must be nonnegative")
    total = rank * twist_degree - degree
    if total < 0:
        raise ValueError(
            f"empty variety: rank*twist - degree = {total} is negative"
        )
    result = ExactPolynomial.zero()
    for tup in _compositions(total, rank):
        weight = sum(i * m for i, m in enumerate(tup))
        term = ExactPolynomial.one()
        for m in tup:
            term = term * sym_product_poly(genus, m)
        result = result + term * ExactPolynomial.monomial(2 * weight)
    return result


def div_stable_series(genus: int, rank: int, order: int) -> TruncatedSeries:
    """Poincare series of the rank-r matrix-divisor ind-variety, to the given order.

    Independent of the degree n.  Computed from the closed product formula by
    one series inversion of the multiplied-out denominator.
    """
    _check_genus(genus, 0)
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    g2 = 2 * genus
    numerator = ExactPolynomial.one()
    for j in range(1, rank + 1):
        numerator = numerator * _one_plus_tpow(2 * j - 1) ** g2
    denominator = _one_minus_tpow(2 * rank)
    for j in range(1, rank):
        denominator = denominator * _one_minus_tpow(2 * j) ** 2
    return denominator.inverse_series(order) * numerator


def residue_series(genus: int, rank: int, order: int) -> TruncatedSeries:
    """Minus the residue of E(t, u) at u = 1, as a t-series to the given order.

    Works factor by factor: substitute u = 1 everywhere, skip the single
    (1 - u) denominator factor, and invert each remaining (1 - t^e) one at a
    time.  No multiplied-out closed form is used, so this is an independent
    cross-check of div_stable_series.
    """
    _check_genus(genus, 0)
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    g2 = 2 * genus
    out = TruncatedSeries.one(order)
    for j in range(rank):
        out = out * _one_plus_tpow(2 * j + 1) ** g2
        for exp in (2 * j, 2 * j + 2):
            if exp == 0:
                continue  # the removed pole
            out = out * _one_minus_tpow(exp).inverse_series(order)
    return out
