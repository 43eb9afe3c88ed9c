"""Exact polynomial and truncated power-series arithmetic over the integers.

Both types store dense coefficient vectors of Python ints (arbitrary precision),
lowest degree first.  ExactPolynomial is normalized: trailing zero coefficients
are stripped, the zero polynomial is the empty tuple and has degree None.
TruncatedSeries keeps exactly ``truncation_order + 1`` coefficients, trailing
zeros included, and represents a power series modulo t^(truncation_order + 1).

Series are values, compared and hashed like every record.

The operators are few.  ExactPolynomial has ``*`` by a polynomial and ``**``
by an int >= 0.  TruncatedSeries has ``*`` by a polynomial or a series, the
series always on the left, and ``+`` and ``-`` with another series, to the
lower of the two orders.  Nothing adds, subtracts or negates a polynomial, and
no operator takes a bare int: to scale by an integer c, multiply by
ExactPolynomial((c,)).  Every product goes through one kernel, _convolve.
Every quotient, inverse_series and divide_exact alike, goes through one
recurrence, _quotient: the series num / den term by term, each term an exact
division by den[0].

Both types are _Record subclasses, and every integer argument passes
_check_int; the two helpers live in _base, which every layer imports.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Union

from ._base import _Record, _check_int


class InexactDivisionError(ValueError):
    """Polynomial division left a remainder where exactness was required."""


def _ints(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple; any that is not an int (a bool included) is a ValueError.

    For coefficient vectors; a single argument goes through _check_int, which
    also names it.
    """
    values = tuple(values)
    for value in values:
        if type(value) is not int:
            raise ValueError(f"expected an integer, got {value!r}")
    return values


def _trimmed(coefficients: Iterable[int]) -> tuple[int, ...]:
    coeffs = _ints(coefficients)
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _pack(coefficients: Sequence[int], width: int) -> int:
    """The integer sum of c_i * 256^(width * i): one width-byte slot per coefficient."""
    if min(coefficients) < 0:
        return _pack([max(c, 0) for c in coefficients], width) - _pack(
            [max(-c, 0) for c in coefficients], width
        )
    return int.from_bytes(
        b"".join([c.to_bytes(width, "little") for c in coefficients]), "little"
    )


def _convolve(a: Sequence[int], b: Sequence[int], order: int) -> tuple[int, ...]:
    """Coefficients 0..order of the product of two coefficient vectors.

    Kronecker substitution (D. Harvey, "Faster polynomial multiplication via
    multipoint Kronecker substitution", JSC 2009): evaluate both operands at
    t = 2^(8 w) by packing them into one integer each, multiply the two
    integers once, and read the product's coefficients back from its w-byte
    slots.  Coefficient k of the product is a sum of at most m = min(len a,
    len b) terms, each below 2^(bits a + bits b) in size, so it lies strictly
    inside +-2^(8w - 1) when 8w >= bits a + bits b + bits m + 1.  Adding
    2^(8w - 1) to every slot then makes each one a digit in [0, 2^(8w)), with
    no borrow between slots, and the digits of the low order + 1 slots do not
    depend on anything above them.
    """
    a, b = a[: order + 1], b[: order + 1]
    if not a or not b:
        return (0,) * (order + 1)
    bits = (
        max(max(a), -min(a)).bit_length()
        + max(max(b), -min(b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = (bits + 7) // 8
    count = min(order + 1, len(a) + len(b) - 1)
    size = width * count
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    digits = ((_pack(a, width) * _pack(b, width) + bias) & ((1 << 8 * size) - 1)).to_bytes(
        size, "little"
    )
    half = 1 << (8 * width - 1)
    out = [
        int.from_bytes(digits[i : i + width], "little") - half for i in range(0, size, width)
    ]
    return tuple(out) + (0,) * (order + 1 - count)


def _quotient(num: Sequence[int], den: Sequence[int], count: int) -> list[int]:
    """Coefficients 0..count-1 of the power series num / den.

    Each is an exact division by den[0]; the first that does not divide raises
    InexactDivisionError.
    """
    out: list[int] = []
    for n in range(count):
        acc = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * out[n - k]
        if acc % den[0]:
            raise InexactDivisionError(f"coefficient {acc} not divisible by {den[0]} at step {n}")
        out.append(acc // den[0])
    return out


class ExactPolynomial(_Record):
    """Univariate polynomial in t with exact integer coefficients.

    _trusted takes a tuple of ints with a nonzero last entry.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]) -> None:
        self._fill(_trimmed(coefficients))

    @classmethod
    def zero(cls) -> "ExactPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "ExactPolynomial":
        return cls((1,))

    @classmethod
    def from_terms(cls, terms: Mapping[int, int]) -> "ExactPolynomial":
        """Build a polynomial from an {exponent: coefficient} mapping."""
        for exponent in terms:
            _check_int("exponent", exponent, 0)
        coeffs = [0] * (max(terms, default=-1) + 1)
        for exponent, coefficient in terms.items():
            coeffs[exponent] += coefficient
        return cls(tuple(coeffs))

    @property
    def degree(self) -> Union[int, None]:
        """Degree of the polynomial; None for the zero polynomial."""
        if not self.coefficients:
            return None
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, exponent: int) -> int:
        if _check_int("exponent", exponent, 0) >= len(self.coefficients):
            return 0
        return self.coefficients[exponent]

    def __mul__(self, other: "ExactPolynomial"):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return ExactPolynomial.zero()
        # Leading coefficients are nonzero, so their product is: nothing to trim.
        return ExactPolynomial._trusted(_convolve(a, b, len(a) + len(b) - 2))

    def __pow__(self, exponent: int) -> "ExactPolynomial":
        _check_int("exponent", exponent, 0)
        result = ExactPolynomial.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divide_exact(self, divisor: "ExactPolynomial") -> "ExactPolynomial":
        """Exact quotient self / divisor over the integers.

        _quotient runs on the reversed vectors, so each step divides by the
        divisor's leading coefficient.  Raises InexactDivisionError when a step
        fails to divide or a nonzero remainder is left; such a failure signals
        an internal inconsistency in callers that expect exactness.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ExactPolynomial.zero()
        num, den = self.coefficients, divisor.coefficients
        head = len(num) - len(den) + 1
        if head < 1:
            raise InexactDivisionError(
                f"degree {len(num) - 1} numerator is not divisible by degree {len(den) - 1} divisor"
            )
        # Reversed, num / den is a power series whose first head terms are the
        # reversed quotient; the division is exact when the terms after them vanish.
        series = _quotient(num[::-1], den[::-1], len(num))
        if any(series[head:]):
            raise InexactDivisionError(f"nonzero remainder: reversed terms {series[head:]}")
        return ExactPolynomial(tuple(series[head - 1 :: -1]))

    def is_palindromic(self) -> bool:
        """Whether coefficients read the same from both ends (Poincare duality shape)."""
        if self.is_zero():
            raise ValueError("palindromicity is undefined for the zero polynomial")
        cs = self.coefficients
        return all(cs[i] == cs[-1 - i] for i in range(len(cs) // 2 + 1))

    def inverse_series(self, order: int) -> "TruncatedSeries":
        """Multiplicative inverse as a power series modulo t^(order+1).

        The constant term must be a unit of the integers (+1 or -1); anything
        else cannot be inverted without leaving the integer coefficient ring.
        """
        _check_int("truncation order", order, 0)
        unit = self.coefficient(0)
        if unit not in (1, -1):
            raise ValueError(f"constant term {unit} is not invertible over the integers")
        return TruncatedSeries._trusted(tuple(_quotient((1,), self.coefficients, order + 1)), order)


class TruncatedSeries(_Record):
    """Integer power series known modulo t^(truncation_order + 1).

    _trusted takes a tuple of exactly truncation_order + 1 ints and the order.
    """

    __slots__ = ("coefficients", "truncation_order")

    def __init__(self, coefficients: Iterable[int], truncation_order: int) -> None:
        coefficients = _ints(coefficients)
        _check_int("truncation order", truncation_order, 0)
        if len(coefficients) != truncation_order + 1:
            raise ValueError(
                f"expected {truncation_order + 1} coefficients, got {len(coefficients)}"
            )
        self._fill(coefficients, truncation_order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * order, order)

    def coefficient(self, exponent: int) -> int:
        if _check_int("exponent", exponent, 0) > self.truncation_order:
            raise ValueError(
                f"coefficient {exponent} is outside the known range 0..{self.truncation_order}"
            )
        return self.coefficients[exponent]

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above the given (not larger) order."""
        if _check_int("truncation order", order, 0) > self.truncation_order:
            raise ValueError(
                f"cannot extend truncation order {self.truncation_order} to {order}"
            )
        if order == self.truncation_order:
            return self
        return TruncatedSeries._trusted(self.coefficients[: order + 1], order)

    def times_t_power(self, exponent: int) -> "TruncatedSeries":
        """Multiply by t^exponent; the known order grows by the same amount."""
        _check_int("exponent", exponent, 0)
        return TruncatedSeries._trusted(
            (0,) * exponent + self.coefficients, self.truncation_order + exponent
        )

    def polynomial_prefix(self, max_degree: int) -> ExactPolynomial:
        """The polynomial formed by coefficients 0..max_degree."""
        if _check_int("prefix degree", max_degree, 0) > self.truncation_order:
            raise ValueError(
                f"prefix degree {max_degree} exceeds truncation order {self.truncation_order}"
            )
        return ExactPolynomial(self.coefficients[: max_degree + 1])

    def _binary(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        order = min(self.truncation_order, other.truncation_order)
        a, b = self.coefficients, other.coefficients
        return TruncatedSeries._trusted(
            tuple(a[i] + sign * b[i] for i in range(order + 1)), order
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._binary(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._binary(other, -1)

    def __mul__(self, other: Union["TruncatedSeries", ExactPolynomial]):
        if isinstance(other, ExactPolynomial):
            # A polynomial is exact, so the product stays known to the same order.
            order = self.truncation_order
        elif isinstance(other, TruncatedSeries):
            order = min(self.truncation_order, other.truncation_order)
        else:
            return NotImplemented
        return TruncatedSeries._trusted(
            _convolve(self.coefficients, other.coefficients, order), order
        )
