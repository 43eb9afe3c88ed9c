"""Exact polynomial and truncated power-series arithmetic over the integers.

Both types store dense coefficient vectors of Python ints (arbitrary precision),
lowest degree first.  ExactPolynomial is normalized: trailing zero coefficients
are stripped, the zero polynomial is the empty tuple and has degree None.
TruncatedSeries keeps exactly ``truncation_order + 1`` coefficients, trailing
zeros included, and represents a power series modulo t^(truncation_order + 1).

Series are values, compared and hashed like every record.

``*`` takes two coefficient vectors (polynomial by polynomial, series by
polynomial, series by series), and every such product goes through one kernel,
_convolve.  To scale by an integer c, multiply by ExactPolynomial((c,)).

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

    For coefficient vectors and type pieces; a single argument goes through
    _check_int, which also names it.
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
    def monomial(cls, exponent: int, coefficient: int = 1) -> "ExactPolynomial":
        return cls((0,) * _check_int("exponent", exponent, 0) + (coefficient,))

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

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPolynomial(tuple(out))

    def __neg__(self) -> "ExactPolynomial":
        return ExactPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self + (-other)

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

        Raises InexactDivisionError when any long-division step fails to divide
        or a nonzero remainder is left; such a failure signals an internal
        inconsistency in callers that expect exactness.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ExactPolynomial.zero()
        num_deg, den_deg = len(self.coefficients) - 1, len(divisor.coefficients) - 1
        if num_deg < den_deg:
            raise InexactDivisionError(
                f"degree {num_deg} numerator is not divisible by degree {den_deg} divisor"
            )
        rem = list(self.coefficients)
        den = divisor.coefficients
        lead = den[-1]
        quot = [0] * (num_deg - den_deg + 1)
        for k in range(num_deg - den_deg, -1, -1):
            head = rem[k + den_deg]
            if head % lead != 0:
                raise InexactDivisionError(
                    f"leading coefficient {head} not divisible by {lead} at step {k}"
                )
            c = head // lead
            quot[k] = c
            if c:
                for j, d in enumerate(den):
                    rem[k + j] -= c * d
        if any(rem):
            raise InexactDivisionError(f"nonzero remainder {_trimmed(rem)}")
        return ExactPolynomial(tuple(quot))

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
        p = self.coefficients
        out = [0] * (order + 1)
        out[0] = unit
        for n in range(1, order + 1):
            acc = 0
            for k in range(1, min(n, len(p) - 1) + 1):
                if p[k]:
                    acc += p[k] * out[n - k]
            out[n] = -unit * acc
        return TruncatedSeries._trusted(tuple(out), order)


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

    def __rmul__(self, other: ExactPolynomial):
        # polynomial * series: ExactPolynomial.__mul__ returns NotImplemented for a series.
        if isinstance(other, ExactPolynomial):
            return self * other
        return NotImplemented
