"""Output checks made from outside the package, after the timed region.

Every request's stdout must match the sha256 digest committed in
``digests.json``.  Betti reports (requested with ``--format json``) are also
checked with arithmetic written here, independently of ``hnbetti.exactalg``:

* b_1 = 2g;
* the polynomial is exactly divisible by (1 + t)^(2g), the Jacobian factor;
* the quotient is palindromic, nonnegative and of degree 2 (r^2 - 1)(g - 1);
* for rank 2, it equals the (1 - t^2) collapse of ``hnbetti.rank2_oracle``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from math import comb
from typing import Optional


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def divide_exact(num: list[int], den: list[int]) -> Optional[list[int]]:
    """Quotient num / den of integer polynomials (lowest degree first), or None."""
    if len(num) < len(den):
        return None
    rem = list(num)
    lead = den[-1]
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        head = rem[k + len(den) - 1]
        if head % lead:
            return None
        c = quot[k] = head // lead
        for j, d in enumerate(den):
            rem[k + j] -= c * d
    return None if any(rem) else quot


@functools.lru_cache(maxsize=None)
def rank2_collapse(genus: int, degree: int) -> tuple[int, ...]:
    """(1 - t^2) times the rank-2 oracle series, to degree 2 dim."""
    from hnbetti.hnrec import rank2_oracle

    top = 2 * (1 + 4 * (genus - 1))
    s = rank2_oracle(genus, degree, top).coefficients
    return tuple(s[i] - (s[i - 2] if i >= 2 else 0) for i in range(top + 1))


def betti_failures(stdout: bytes, genus: int, rank: int, degree: int) -> list[str]:
    """Names of the checks a ``betti --format json`` stdout fails; empty if none."""
    try:
        doc = json.loads(stdout)
        coeffs = [int(c) for c in doc["coefficients"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable betti report: {exc}"]
    failures = []
    dim = 1 + rank * rank * (genus - 1)
    if (doc.get("genus"), doc.get("rank"), doc.get("degree")) != (genus, rank, degree):
        failures.append("metadata")
    if doc.get("dimension") != dim or len(coeffs) != 2 * dim + 1:
        failures.append("dimension")
    if coeffs[1:2] != [2 * genus]:
        failures.append("b1 != 2g")
    jacobian = [comb(2 * genus, k) for k in range(2 * genus + 1)]
    quotient = divide_exact(coeffs, jacobian)
    if quotient is None:
        failures.append("not divisible by (1+t)^(2g)")
    else:
        if len(quotient) - 1 != 2 * (rank * rank - 1) * (genus - 1):
            failures.append("quotient degree")
        if quotient != quotient[::-1]:
            failures.append("quotient not palindromic")
        if any(c < 0 for c in quotient):
            failures.append("quotient negative")
    if rank == 2 and tuple(coeffs) != rank2_collapse(genus, degree):
        failures.append("rank-2 oracle mismatch")
    return failures


def output_failures(args: tuple[str, ...], stdout: bytes) -> list[str]:
    """The arithmetic checks one request's stdout fails; empty if none."""
    if args[0] != "betti":
        return []

    def opt(flag: str) -> int:
        return int(args[args.index(flag) + 1])

    return betti_failures(stdout, opt("--genus"), opt("--rank"), opt("--deg"))


def request_failures(
    key: str, args: tuple[str, ...], stdout: bytes, digests: dict[str, str]
) -> list[str]:
    """Every check one request's stdout fails, digest included; empty if none."""
    failures = [] if digests.get(key) == digest(stdout) else ["stdout digest mismatch"]
    return failures + output_failures(args, stdout)
