"""Semistable-locus series and Betti numbers of the stable-bundle moduli space.

The Poincare series of the whole rank-r degree-n matrix-divisor ind-variety
splits over the Harder-Narasimhan stratification:

    P(Div; t) = P(Div^ss; t) + sum over proper types P of  P(S_P; t) t^(2 codim_P),

and each stratum series is the product of the semistable series of its pieces:

    P(S_P; t) = prod_j P(Div^(r'_j, d'_j)^ss; t).

Here codim_P = sum over pairs i < j of (r'_j d'_i - r'_i d'_j) + r'_i r'_j (g - 1),
pieces in slope order (strata module), and P(Div) does not depend on the
degree.  Write P_Div(r) = P(Div^(r)) and P_ss(r, d) = P(Div^(r, d)^ss).
stratum_series computes P(S_P; t) for a type P given, as everywhere in the
package, by its flat tuple (r'_1, d'_1, ..., r'_l, d'_l), the tail of a
strata.type_rows row; ss_series itself never enumerates types.

Inversion (D. Zagier, "Elementary aspects of the Verlinde formula and of the
Harder-Narasimhan-Atiyah-Bott formula", 1996; G. Laumon and M. Rapoport,
"The Langlands lemma and the Betti numbers of stacks of G-bundles on a
curve", 1996).  Call a sequence of pieces (n_1, d_1), ..., (n_k, d_k) with
ranks summing to r and degrees to d admissible when every partial sum
(N_i, S_i) = (n_1 + ... + n_i, d_1 + ... + d_i) with i < k lies strictly above
the line of slope d/r: S_i > N_i d / r.  Then

    P_ss(r, d) = sum over admissible sequences of
                 (-1)^(k-1) t^(2 codim) prod_i P_Div(n_i),

with codim the formula above, taken over the sequence in its order.  Proof:
expand each P_Div(n_i) by the stratification of its own piece.  codim is
bilinear in the pieces, so the codimension of a sequence of blocks plus the
codimensions of the types in the blocks is the codimension of the
concatenated sequence of semistable pieces.  So the right side sums
t^(2 codim) prod P_ss over sequences of semistable pieces cut into blocks,
where every ascent (a gap where the slope does not fall) must be a cut, as
the pieces of one type have falling slopes, and every cut must be admissible.
For a sequence with ascent set A and admissible gaps B, the signs
(-1)^(cuts) sum to 0 over the cut sets between A and B unless A = B.  A
single piece is the term P_ss(r, d).  Two or more pieces never have A = B.
If no gap is admissible, A = B would leave no ascent, and slopes that fall
throughout put the first vertex strictly above the line.  Otherwise take the
first vertex j of greatest height above the line: it is admissible, piece j
has slope above d/r and piece j + 1 at most d/r, so j is no ascent.

Sum over degrees.  In the partial sums, with S_0 = 0 and S_k = d,

    sum over i < j of (n_j d_i - n_i d_j)
        = sum over i < k of (n_i + n_(i+1)) S_i  -  d N_(k-1):

the left side is sum_i d_i (r - N_i) - n_i (d - S_i), with d_i = S_i - S_(i-1),
in which S_i for 0 < i < k has coefficient (r - N_i) + n_i - (r - N_(i+1)) =
n_i + n_(i+1), and the rest adds up to -d N_(k-1).

Each S_i with i < k runs independently over S_i >= floor(N_i d / r) + 1,
a geometric series, so for 0 <= d < r

    P_ss(r, d) = sum over compositions (n_1, ..., n_k) of r of
                 (-1)^(k-1) t^e prod_i P_Div(n_i)
                 prod_(i<k) 1 / (1 - t^(2 (n_i + n_(i+1)))),
    e = 2 (g - 1) sum_(i<j) n_i n_j
        + sum_(i<k) 2 (n_i + n_(i+1)) (floor(N_i d / r) + 1)  -  2 d N_(k-1).

It needs no lower-rank P_ss and no enumeration of types.  P_ss(r, d) =
P_ss(r, d + r) (tensoring by a line bundle of degree 1 moves every slope by
1 and keeps every codimension), so d is reduced mod r first.

Duality: P_ss(r, d) = P_ss(r, -d).  Reverse an admissible sequence and negate
its degrees: (n_k, -d_k), ..., (n_1, -d_1) has total (r, -d) and partial sums
(r - N_(k-i), S_(k-i) - d), and S_(k-i) - d > -(r - N_(k-i)) d / r says
S_(k-i) > N_(k-i) d / r, so the new sequence is admissible.  Pieces i < j
of the old sequence come as j, i in the new one and contribute
n_i (-d_j) - n_j (-d_i) + n_j n_i (g - 1) = n_j d_i - n_i d_j + n_i n_j (g - 1),
their old term, so codim is kept, and so are k and the ranks.  The two sums
agree term by term.  So ss_series reduces d to min(d mod r, -d mod r) <= r / 2,
the duality class (genus, r, d) is the cache key, and the DP's extra order
2 d (r - 1) below is at most r (r - 1).

e >= 1 when k >= 2.  The first term is >= 0 for g >= 1.  The middle sum
telescopes: with n_i = N_i - N_(i-1), sum_(i<k) (n_i + n_(i+1)) N_i =
sum_(i<k) (N_(i+1) N_i - N_i N_(i-1)) = N_k N_(k-1) = r N_(k-1).  As
floor(x) + 1 > x, the middle sum exceeds 2 (d / r) r N_(k-1) = 2 d N_(k-1), the
last term, and both are integers.

The DP.  The factors and the exponent depend on the composition only through
consecutive pairs: appending a part m' to a composition of N with last part
m multiplies it by t^(2 (m + m') (floor(N d / r) + 1)) / (1 - t^(2 (m + m'))),
by P_Div(m') and by t^(2 (g - 1) m' N), and flips its sign; only the last
term of e, -2 d (r - m) for a final part m, looks at the end.  So ss_series
keeps one series per state (N, m), the signed sum over compositions of N
ending in m without that last term, to order L = T + 2 d (r - 1):

* (m, m) starts as P_Div(m);
* for N = 1 .. r - 1 and each part m' <= r - N, every state (N, m) is
  shifted and divided by (1 - t^(2 (m + m'))), a running sum in place, the
  results are added, multiplied once by P_Div(m'), shifted by
  2 (g - 1) m' N and negated into (N + m', m'), which no other N reaches;
* P_ss(r, d) is the sum over m of state (r, m) shifted down by 2 d (r - m).

That is at most r (r - 1) / 2 series products.  Every term of state (r, m)
with k >= 2 carries t^(e + 2 d (r - m)) with e >= 1, and state (r, r) is
P_Div(r) with no shift, so the shift down drops only zero coefficients, and
L - 2 d (r - m) >= T known ones remain.

When gcd(r, n) = 1 semistable equals stable and the moduli space N(r, n) of
stable bundles has Poincare polynomial

    P(N(r, n); t) = (1 - t^2) * P(Div^ss; t),

a polynomial of degree 2 dim with dim = 1 + r^2 (g - 1).  betti_poly performs
that multiplication on the series to order 2 dim + TRUNCATION_SLACK, checks
that the series really does collapse (vanishing tail, exact degree,
palindromic, nonnegative), and refuses to emit anything when a check fails.

rank2_oracle is a deliberately separate route for rank 2 and odd degree: there
the strata are indexed by a single integer and the shifted sum is a geometric
series, so the semistable series has the closed form

    P(Div^(2)) - P(Div^(1))^2 * t^(2g) / (1 - t^4),

with P(Div^(2)) and P(Div^(1)) taken from genfun.residue_series, the route
that multiplies and inverts series, and one more inversion, of (1 - t^4).  It
enumerates no stratum, runs no recursion and shares no code with the DP or
with div_stable_ranks, which makes it an independent witness for the main
path.
"""

from __future__ import annotations

import contextlib
import math
import os
from pathlib import Path
from typing import Optional, Union

from ._base import _Record, _check_int
from .exactalg import ExactPolynomial, TruncatedSeries
from .genfun import div_stable_ranks, residue_series

# Every Betti polynomial is computed to order 2*dim + TRUNCATION_SLACK, so
# tail_vanishes always checks this many coefficients past t^(2*dim).
TRUNCATION_SLACK = 10


class StructuralCheckError(RuntimeError):
    """A mathematical invariant that must hold was violated; output is withheld."""

    def __init__(self, message: str, diagnostic: Optional[dict] = None):
        super().__init__(message)
        self.diagnostic = dict(diagnostic or {})


# The structural checks on a Betti polynomial, in the order _failed_checks
# and the exit-3 diagnostic list them, and the keys of a Betti report's JSON
# "checks" object, each true.
CHECK_NAMES = ("tail_vanishes", "degree_matches_2dim", "palindromic", "nonnegative")


def _failed_checks(poly: ExactPolynomial, dim: int, tail: tuple[int, ...] = ()) -> list[str]:
    """Names of the checks of CHECK_NAMES that poly fails, in that order.

    tail holds the collapsed series' coefficients past t^(2 dim).
    """
    passed = (
        not any(tail),
        poly.degree == 2 * dim,
        (not poly.is_zero()) and poly.is_palindromic(),
        all(c >= 0 for c in poly.coefficients),
    )
    return [name for name, ok in zip(CHECK_NAMES, passed) if not ok]


class BettiReport(_Record):
    """A Betti polynomial that passed the structural checks, with its context.

    The fields are checked against each other: dimension >= 1, and the
    polynomial passes every check its fields can show (degree exactly 2*dim,
    palindromic, nonnegative), or ValueError names the checks it fails.
    tail_vanishes is the one check a report cannot re-run: it needs the
    series past t^(2*dim), which betti_poly checks before it builds the
    report.  A report a library caller builds is held to the same rule.  The
    order its series was computed to, 2*dim + TRUNCATION_SLACK, follows from
    the dimension.
    """

    __slots__ = ("polynomial", "moduli_dimension")

    def __init__(self, polynomial: ExactPolynomial, moduli_dimension: int) -> None:
        if not isinstance(polynomial, ExactPolynomial):
            raise ValueError(f"Betti polynomial must be an ExactPolynomial, got {polynomial!r}")
        dim = _check_int("dimension", moduli_dimension, 1)
        failed = _failed_checks(polynomial, dim)
        if failed:
            raise ValueError(f"Betti polynomial fails the checks {', '.join(failed)}")
        self._fill(polynomial, moduli_dimension)


class MemoStore:
    """The cache directory of semistable series, keyed by (genus, rank, duality class).

    The semistable series of degree n equals that of n + rank (twist by a line
    bundle of degree 1) and that of -n (duality, see the module docstring), so
    one key serves every degree congruent to n or -n mod rank.  ss_series
    reduces the degree before it calls lookup or store; the degree passed here
    is min(n mod rank, -n mod rank), so 0 <= 2 degree <= rank.

    Each key is one file, ``ss_g{genus}_r{rank}_n{degree}.json`` (_file_name),
    whose order is the document's own "truncation" field.  lookup reads that
    one file and serves any order up to its own by truncation; a missing file,
    or one whose order is below the request, is a silent miss.  Unreadable or
    inconsistent files are misses too; a note is appended to ``warnings`` for
    each.  store writes the series through a temp file of its own in the same
    directory and an atomic rename, so concurrent writers never share a temp
    file, and the new series replaces the file.  When concurrent writers store
    different orders for one key, the last rename wins and a later, longer
    request recomputes; the answers never differ, since every writer stores a
    prefix of the same exact series.  Nothing is kept in memory: ss_series
    calls store only after a miss, and with no MemoStore nothing is cached.
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)
        self.warnings: list[str] = []

    def lookup(
        self, genus: int, rank: int, degree: int, order: int
    ) -> Optional[TruncatedSeries]:
        loaded = self._load_file(genus, rank, degree, order)
        return None if loaded is None else loaded.truncate(order)

    def store(self, genus: int, rank: int, degree: int, series: TruncatedSeries) -> None:
        self._write_file(genus, rank, degree, series)

    def _file_name(self, genus: int, rank: int, degree: int) -> str:
        return f"ss_g{genus}_r{rank}_n{degree}.json"

    def _load_file(
        self, genus: int, rank: int, degree: int, order: int
    ) -> Optional[TruncatedSeries]:
        from .render import parse_json  # deferred: only the disk cache needs render

        name = self._file_name(genus, rank, degree)
        try:
            doc = parse_json((self.cache_dir / name).read_text(encoding="utf-8"))
            if (doc.genus, doc.rank, doc.degree) != (genus, rank, degree):
                raise ValueError("document metadata does not match its file name")
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self.warnings.append(f"cache file {name}: {exc}")
            return None
        series = doc.payload
        return series if series.truncation_order >= order else None

    def _write_file(
        self, genus: int, rank: int, degree: int, series: TruncatedSeries
    ) -> None:
        from .render import OutputDocument, render_json

        doc = OutputDocument(series, genus=genus, rank=rank, degree=degree)
        name = self._file_name(genus, rank, degree)
        # A random name per writer; O_EXCL never opens another writer's file,
        # and mode 0o666 less the umask is what a plain open would give.
        tmp = self.cache_dir / f".{name}.{os.urandom(8).hex()}.tmp"
        try:
            # Rendered before the temp file exists, so a coefficient longer
            # than sys.int_max_str_digits (a ValueError) leaves no file behind.
            text = render_json(doc) + "\n"
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except (OSError, ValueError) as exc:
            self.warnings.append(f"cache file {name}: write failed: {exc}")
            return
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self.cache_dir / name)
        except OSError as exc:
            self.warnings.append(f"cache file {name}: write failed: {exc}")
            with contextlib.suppress(OSError):
                tmp.unlink()


def dim_moduli(genus: int, rank: int) -> int:
    """Dimension of the moduli space of stable bundles: 1 + rank^2 (genus - 1)."""
    _check_int("genus", genus, 1)
    _check_int("rank", rank, 1)
    return 1 + rank * rank * (genus - 1)


def ss_series(
    genus: int, rank: int, degree: int, order: int, memo: Optional[MemoStore] = None
) -> TruncatedSeries:
    """Poincare series of the semistable locus, to the given order.

    The composition sum of the module docstring, computed by its DP.  The
    series depends on the degree n only through min(n mod rank, -n mod rank),
    which is what it is computed and cached under.  memo is the cache
    directory: the series is read from it, or computed and written to it.
    With memo None nothing is cached, and every call runs the DP.
    """
    _check_int("genus", genus, 1)
    _check_int("rank", rank, 1)
    _check_int("degree", degree)
    _check_int("truncation order", order, 0)
    degree = min(degree % rank, -degree % rank)
    if memo is None:
        return _composition_sum(genus, rank, degree, order)
    series = memo.lookup(genus, rank, degree, order)
    if series is None:
        series = _composition_sum(genus, rank, degree, order)
        memo.store(genus, rank, degree, series)
    return series


def _composition_sum(genus: int, rank: int, degree: int, order: int) -> TruncatedSeries:
    """P_ss(rank, degree) for 0 <= degree < rank, by the DP of the module docstring."""
    top = order + 2 * degree * (rank - 1)
    div = dict(enumerate(div_stable_ranks(genus, rank, top), start=1))
    # states[total, last]: compositions of total ending in last, as in the docstring.
    states = {(part, part): list(div[part].coefficients) for part in range(1, rank + 1)}
    for total in range(1, rank):
        level = total * degree // rank + 1
        for part in range(1, rank - total + 1):
            # Only compositions of total reach (total + part, part).
            shift = 2 * (genus - 1) * part * total
            if shift > top:
                states[total + part, part] = [0] * (top + 1)
                continue
            reach = top - shift
            acc = [0] * (reach + 1)
            for last in range(1, total + 1):
                step = 2 * (last + part)
                lift = step * level
                term = ([0] * lift + states[total, last])[: reach + 1]
                for i in range(lift + step, reach + 1):
                    term[i] += term[i - step]
                acc = [a + b for a, b in zip(acc, term)]
            product = TruncatedSeries._trusted(tuple(acc), reach) * div[part]
            states[total + part, part] = [0] * shift + [-c for c in product.coefficients]
    out = [0] * (order + 1)
    for last in range(1, rank + 1):
        drop = 2 * degree * (rank - last)
        out = [a + b for a, b in zip(out, states[rank, last][drop:])]
    return TruncatedSeries._trusted(tuple(out), order)


def stratum_series(
    genus: int, pieces: tuple[int, ...], order: int, memo: Optional[MemoStore] = None
) -> TruncatedSeries:
    """Poincare series of one stratum: the product over its pieces' semistable series.

    pieces is the type's flat tuple (r1, d1, ..., rk, dk), the tail row[1:] of
    a strata.type_rows row, and is checked as stratum_codim checks it.
    ss_series does not call this.  Summed over the rows of type_rows, it is
    the Harder-Narasimhan recursion type by type, the reference that the
    composition sum of ss_series is tested against, an identity independent
    of the inversion that ss_series computes.  memo is passed on to
    ss_series for each piece.
    """
    from .strata import _pairs  # deferred: betti and ssseries never load strata

    out = TruncatedSeries.one(order)
    for piece_rank, piece_degree in _pairs(pieces):
        out = out * ss_series(genus, piece_rank, piece_degree, order, memo)
    return out


def betti_poly(
    genus: int, rank: int, degree: int, *, memo: Optional[MemoStore] = None
) -> BettiReport:
    """Betti polynomial of the moduli space of stable bundles, fully checked.

    Requires gcd(rank, degree) = 1, so that stability and semistability agree.
    The semistable series is always computed to order 2*dim + TRUNCATION_SLACK,
    so every answer has its tail checked over the same TRUNCATION_SLACK
    coefficients past t^(2*dim); no argument sets the order.  Every check of
    CHECK_NAMES must pass, or StructuralCheckError is raised with a diagnostic
    dump: the failed checks, in that order, and every coefficient of the
    collapsed series.
    """
    dim = dim_moduli(genus, rank)  # checks genus, then rank
    _check_int("degree", degree)
    if math.gcd(rank, degree) != 1:
        raise ValueError(
            "rank and degree must be coprime "
            f"(gcd({rank}, {degree}) = {math.gcd(rank, degree)}); "
            "otherwise stable and semistable bundles differ"
        )
    order = 2 * dim + TRUNCATION_SLACK
    semistable = ss_series(genus, rank, degree, order, memo)
    collapsed = semistable * ExactPolynomial.from_terms({0: 1, 2: -1})
    poly = collapsed.polynomial_prefix(2 * dim)
    tail = collapsed.coefficients[2 * dim + 1 :]
    failed = _failed_checks(poly, dim, tail)
    if failed:
        diagnostic = {
            "genus": genus,
            "rank": rank,
            "degree": degree,
            "truncation": order,
            "dimension": dim,
            "failed_checks": failed,
            "coefficients": list(collapsed.coefficients),
        }
        if any(tail):
            diagnostic["first_nonzero_tail_index"] = 2 * dim + 1 + next(
                i for i, c in enumerate(tail) if c
            )
        raise StructuralCheckError(
            "Betti polynomial failed structural checks: " + ", ".join(failed),
            diagnostic,
        )
    # Every check has just passed: the constructor would run them again.
    return BettiReport._trusted(poly, dim)


def rank2_oracle(genus: int, degree: int, order: int) -> TruncatedSeries:
    """Closed-form rank-2 semistable series for odd degree; no recursion involved.

    For odd degree the strata are the line-bundle splittings (1, d)(1, n - d)
    with 2d > n, with codimensions g, g + 2, g + 4, ...; their shifted sum is
    P(Div^(1))^2 times a geometric series in t^4 starting at t^(2g).  The
    degree only enters through its parity, which is why a single closed form
    covers every odd n.
    """
    _check_int("genus", genus, 1)
    _check_int("truncation order", order, 0)
    if _check_int("degree", degree) % 2 == 0:
        raise ValueError(f"the rank-2 closed form needs odd degree, got {degree}")
    g2 = 2 * genus
    whole = residue_series(genus, 2, order)
    if order < g2:
        return whole
    line = residue_series(genus, 1, order - g2)
    strata_sum = line * line * ExactPolynomial.from_terms({0: 1, 4: -1}).inverse_series(order - g2)
    return whole - strata_sum.times_t_power(g2)
