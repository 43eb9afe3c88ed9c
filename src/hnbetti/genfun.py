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
      sum over tuples of t^(2 * sum_i (i-1) m_i) * prod_i P(C^(m_i); t),
  which is [u^m] E(t, u) for E(t, u) = prod_{j=0..r-1} M(u t^(2j)), M the
  Macdonald series above.  div_finite_poly reads [u^m] off E(t, t^W): with
  W = 2rm + 1 each [u^k], k <= m, of t-degree at most 2rk < W, fills its own
  window of W coefficients, so no tuple is enumerated and no polynomial is
  multiplied.

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
  form and never multiplies the closed-form product out.

* _walk evaluates E(t, t^W) one factor at a time, by shifted adds and running
  sums.  div_finite_poly takes its last state; div_stable_ranks takes every
  state at W = 0, that is E(t, 1) without its pole, as P(Div^(1)), ...,
  P(Div^(r)).  residue_series multiplies and inverts series instead: the walk
  at u = 1 and residue_series are two routes to the same numbers that share no
  arithmetic.

All of these hold for every genus g >= 0; the Harder-Narasimhan recursion
built on them needs g >= 1 (see the strata module).
"""

from __future__ import annotations

from math import comb

from ._base import _check_int
from .exactalg import ExactPolynomial, TruncatedSeries


def sym_product_poly(genus: int, points: int) -> ExactPolynomial:
    """Poincare polynomial of the m-fold symmetric product C^(m).

    Degree 2m, palindromic, constant and leading coefficients 1.
    """
    _check_int("genus", genus, 0)
    _check_int("points", points, 0)
    coeffs = [0] * (2 * points + 1)
    for k in range(min(2 * genus, points) + 1):
        c = comb(2 * genus, k)
        for b in range(points - k + 1):
            coeffs[k + 2 * b] += c
    return ExactPolynomial(tuple(coeffs))


def _walk(genus: int, rank: int, width: int, size: int):
    """E(t, t^width) to t^(size - 1), one factor j at a time; yields the list after each.

    Factor j is (1 + t^(2j+1+width))^(2g) / ((1 - t^(2j+width)) (1 - t^(2j+2+width))):
    one shifted add per numerator power, one running sum per denominator.  At
    width 0 the exponent-0 denominator is the removed pole.  Every yield is
    the same list, updated in place.
    """
    coeffs = [1] + [0] * (size - 1)
    for j in range(rank):
        odd = 2 * j + 1 + width
        for _ in range(2 * genus):
            coeffs[odd:] = [a + b for a, b in zip(coeffs[odd:], coeffs)]
        for exp in (2 * j + width, 2 * j + 2 + width):
            if exp == 0:
                continue  # the removed pole
            for i in range(exp, size):
                coeffs[i] += coeffs[i - exp]
        yield coeffs


def div_finite_poly(
    genus: int, rank: int, degree: int, twist_degree: int
) -> ExactPolynomial:
    """Poincare polynomial of the bounded matrix-divisor variety Div(r, n; D).

    twist_degree is deg D.  The variety is nonempty exactly when
    m = rank * twist_degree - degree >= 0; an empty range is rejected so the
    caller can tell the difference from the zero polynomial.
    """
    _check_int("genus", genus, 0)
    _check_int("rank", rank, 1)
    _check_int("degree", degree)
    _check_int("twist degree", twist_degree, 0)
    total = rank * twist_degree - degree
    if total < 0:
        raise ValueError(
            f"empty variety: rank*twist - degree = {total} is negative"
        )
    # [u^k] has t-degree at most 2 rank k < width for k <= total, so in
    # E(t, t^width) it fills window k, t^(k width) .. t^(k width + width - 1).
    width = 2 * rank * total + 1
    *_, last = _walk(genus, rank, width, (total + 1) * width)
    return ExactPolynomial(tuple(last[total * width :]))


def div_stable_ranks(genus: int, rank: int, order: int) -> list[TruncatedSeries]:
    """P(Div^(1); t), ..., P(Div^(rank); t), each to the given order.

    The quotient of consecutive closed forms gives
        P(Div^(1)) = (1 + t)^(2g) / (1 - t^2),
        P(Div^(m+1)) = P(Div^(m)) (1 + t^(2m+1))^(2g) / ((1 - t^(2m)) (1 - t^(2m+2))),
    which is factor j = m of E(t, 1) in the residue form: the states of _walk
    at width 0.  Multiplying by (1 + t^a) is one shifted add, dividing by
    (1 - t^a) one running sum, so no series is multiplied or inverted.
    """
    _check_int("genus", genus, 0)
    _check_int("rank", rank, 1)
    _check_int("truncation order", order, 0)
    return [TruncatedSeries._trusted(tuple(c), order) for c in _walk(genus, rank, 0, order + 1)]


def div_stable_series(genus: int, rank: int, order: int) -> TruncatedSeries:
    """Poincare series of the rank-r matrix-divisor ind-variety, to the given order.

    Independent of the degree n.  The last series of div_stable_ranks.
    """
    return div_stable_ranks(genus, rank, order)[-1]


def residue_series(genus: int, rank: int, order: int) -> TruncatedSeries:
    """Minus the residue of E(t, u) at u = 1, as a t-series to the given order.

    Works factor by factor: substitute u = 1 everywhere, skip the single
    (1 - u) denominator factor, and invert each remaining (1 - t^e) one at a
    time.  No multiplied-out closed form is used, so this is an independent
    cross-check of div_stable_series.
    """
    _check_int("genus", genus, 0)
    _check_int("rank", rank, 1)
    _check_int("truncation order", order, 0)
    g2 = 2 * genus
    out = TruncatedSeries.one(order)
    for j in range(rank):
        out = out * ExactPolynomial.from_terms({0: 1, 2 * j + 1: 1}) ** g2
        for exp in (2 * j, 2 * j + 2):
            if exp == 0:
                continue  # the removed pole
            out = out * ExactPolynomial.from_terms({0: 1, exp: -1}).inverse_series(order)
    return out
