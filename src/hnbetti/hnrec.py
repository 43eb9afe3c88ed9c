"""Semistable-locus recursion and Betti numbers of the stable-bundle moduli space.

The Poincare series of the whole rank-r degree-n matrix-divisor ind-variety
splits over the Harder-Narasimhan stratification:

    P(Div; t) = P(Div^ss; t) + sum over proper types P of  P(S_P; t) t^(2 codim_P),

and each stratum series is the product of the semistable series of its pieces:

    P(S_P; t) = prod_j P(Div^(r'_j, d'_j)^ss; t).

Solving for the semistable part gives the recursion implemented by ss_series:
subtract the proper-strata sum, to the truncation order, from the closed-form
series of the ind-variety.

The proper-strata sum is not built type by type.  Write a type of total rank
R and degree D as its first piece (r1, d1) followed by a type of the rest,
(R', D') = (R - r1, D - d1), whose pieces all have slope below d1/r1.  In the
codimension formula of the strata module, the pairs that pair the first piece
with a later piece (r'_i, d'_i) add up to

    c1 = sum over i of (r'_i d1 - r1 d'_i) + r'_i r1 (g - 1)
       = R' d1 - r1 D' + r1 R' (g - 1)
       = R d1 - r1 D + r1 (R - r1)(g - 1),

which sees the rest only through its totals; the remaining pairs give the
codimension of the rest as a type of its own.  The stratum series splits the
same way, as the first piece's semistable series times the rest's product, so

    sum over proper types of (R, D) of t^(2 codim) P(S_P)
        = sum over first pieces of t^(2 c1) P_ss(r1, d1) F(R - r1, D - d1, d1/r1),

where P_ss(r, d) = P(Div^(r, d)^ss) and F(R, D, cap) is t^(2 codim) P(S_P)
summed over every type P of (R, D) whose top slope is below cap, the
semistable type (codimension 0) included.  A first piece has r1 < R and
d1/r1 > D/R, because the top slope of a proper type exceeds the average
slope.  Splitting off the first piece of the types counted by F in the same
way gives F's own recursion,

    F(R, D, cap) = P_ss(R, D) + sum over first pieces with d1/r1 < cap
                   of t^(2 c1) P_ss(r1, d1) F(R - r1, D - d1, d1/r1).

The semistable term is always there: the rest of a type has average slope
(D - d1)/(R - r1) < D/R < d1/r1, so every F the recursion asks for has
D/R < cap.  _strata_sum is the sum over first pieces, with cap None for the
proper-strata sum itself; _below_cap is F.

Twist shift.  Tensoring with a line bundle of degree k sends each piece (r, d)
to (r, d + k r).  Every slope moves by k, every cross term r_i d_j - r_j d_i
and so every codimension is unchanged, and P_ss(r, d) = P_ss(r, d + r).  So
P_ss depends on the degree only through d mod r, and

    F(R, D, cap) = F(R, D + k R, cap + k)  for every integer k.

Both are memoized on the twist class: P_ss on (genus, R, D mod R) in
MemoStore, F on (genus, R, D mod R, cap - floor(D/R)) in memory, each entry
keeping the longest order computed so far.

Termination bound (genus >= 1).  To order T only first pieces with
2 c1 <= T contribute.  Here r1 (R - r1)(g - 1) >= 0, and R d1 - r1 D >= 1
because d1/r1 > D/R, so c1 >= 1 and, for each r1 < R,

    r1 D / R < d1 <= (T // 2 + r1 D - r1 (R - r1)(g - 1)) / R,

a finite range (a cap only lowers its top).  Each term asks for P_ss and F at
the order T - 2 c1 < T.  Give P_ss at rank R the weight 2R and F at rank R the
weight 2R + 1: P_ss(R) asks for P_ss and F at ranks r1, R - r1 < R, and F(R)
asks for P_ss(R) and for P_ss and F at ranks below R, so every call has a
smaller weight than its caller.  Every call makes finitely many calls, and
the weight cannot fall below 2, so the recursion ends.  At rank 1 there is no
first piece at all: P_ss(1, d) is the ind-variety series and F(1, d, cap) is
P_ss(1, d).

When gcd(r, n) = 1 semistable equals stable and the moduli space N(r, n) of
stable bundles has Poincare polynomial

    P(N(r, n); t) = (1 - t^2) * P(Div^ss; t),

a polynomial of degree 2 dim with dim = 1 + r^2 (g - 1).  betti_poly performs
that multiplication, checks that the series really does collapse (vanishing
tail, exact degree, palindromic, nonnegative), and refuses to emit anything
when a check fails.

rank2_oracle is a deliberately separate route for rank 2 and odd degree: there
the strata are indexed by a single integer and the shifted sum is a geometric
series, so the semistable series has the closed form

    P(Div^(2)) - P(Div^(1))^2 * t^(2g) / (1 - t^4),

built here from raw polynomial arithmetic with no stratum enumeration and no
recursion, which makes it an independent witness for the main path.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Union

from .exactalg import ExactPolynomial, TruncatedSeries
from .genfun import _check_genus, div_stable_series
from .strata import HNType

TRUNCATION_SLACK = 10


class StructuralCheckError(RuntimeError):
    """A mathematical invariant that must hold was violated; output is withheld."""

    def __init__(self, message: str, diagnostic: Optional[dict] = None):
        super().__init__(message)
        self.diagnostic = dict(diagnostic or {})


@dataclass(frozen=True)
class ModuliQuery:
    """Parameters of one semistable-series or Betti request."""

    genus: int
    rank: int
    degree: int
    truncation: Optional[int] = None

    def __post_init__(self) -> None:
        _check_genus(self.genus, 1)
        if self.rank < 1:
            raise ValueError(f"rank must be at least 1, got {self.rank}")
        if self.truncation is not None and self.truncation < 0:
            raise ValueError(f"truncation order must be nonnegative, got {self.truncation}")


@dataclass(frozen=True)
class BettiChecks:
    """Outcome of the four structural checks on a Betti polynomial."""

    tail_vanishes: bool
    degree_matches_2dim: bool
    palindromic: bool
    nonnegative: bool

    def failed(self) -> list[str]:
        """Names of the failed checks, in field order."""
        return [f.name for f in fields(self) if not getattr(self, f.name)]

    def all_pass(self) -> bool:
        return not self.failed()


@dataclass(frozen=True)
class BettiReport:
    """A verified Betti polynomial with its context.  checks is None when skipped."""

    polynomial: ExactPolynomial
    moduli_dimension: int
    truncation_used: int
    checks: Optional[BettiChecks]


class MemoStore:
    """Memoized semistable series, keyed by (genus, rank, degree mod rank).

    The semistable series of degree n equals that of n + rank (twist by a line
    bundle of degree 1), so one key serves a whole twist class.  ss_series
    reduces the degree before it calls lookup or store; the degree passed here
    is that class, 0 <= degree < rank.  One entry per key holds the longest
    series computed so far; shorter requests are served by truncation.  Writes
    are serialized and idempotent: re-storing a value that agrees on the
    common prefix is a no-op (the longer one is kept), while a disagreeing
    value raises StructuralCheckError, since two runs of an exact computation
    can never legitimately differ.

    With a cache directory set, every newly computed series is also written to
    ``ss_g{genus}_r{rank}_n{degree mod rank}_T{order}.json``, through a temp
    file of its own in the same directory and an atomic rename, so concurrent
    writers never share a temp file.  Lookups fall back to any on-disk file
    with the same key and a truncation order at least as large.  Unreadable or
    inconsistent files are treated as misses; a note is appended to
    ``warnings`` for each.

    The partial sums F of the first-piece recursion (see _below_cap) are kept
    here too, in memory only.
    """

    def __init__(self, cache_dir: Union[str, Path, None] = None):
        self._lock = threading.Lock()
        self._entries: dict[tuple[int, int, int], TruncatedSeries] = {}
        self._capped: dict[tuple[int, int, int, int, int], TruncatedSeries] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.warnings: list[str] = []

    def lookup(
        self, genus: int, rank: int, degree: int, order: int
    ) -> Optional[TruncatedSeries]:
        with self._lock:
            entry = self._entries.get((genus, rank, degree))
        if entry is not None and entry.truncation_order >= order:
            return entry.truncate(order)
        if self.cache_dir is not None:
            loaded = self._load_file(genus, rank, degree, order)
            if loaded is not None:
                self._merge((genus, rank, degree), loaded)
                return loaded.truncate(order)
        return None

    def store(self, genus: int, rank: int, degree: int, series: TruncatedSeries) -> None:
        grew = self._merge((genus, rank, degree), series)
        if grew and self.cache_dir is not None:
            self._write_file(genus, rank, degree, series)

    def _merge(self, key: tuple[int, int, int], series: TruncatedSeries) -> bool:
        """Install series under key; returns whether it added new coefficients."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if not existing.agrees_with(series):
                    order = min(existing.truncation_order, series.truncation_order)
                    bad = next(
                        i
                        for i in range(order + 1)
                        if existing.coefficients[i] != series.coefficients[i]
                    )
                    raise StructuralCheckError(
                        "conflicting series stored for one key; exact results "
                        "must never differ",
                        {
                            "genus": key[0],
                            "rank": key[1],
                            "degree": key[2],
                            "first_mismatch_index": bad,
                            "existing_coefficient": existing.coefficients[bad],
                            "new_coefficient": series.coefficients[bad],
                        },
                    )
                if existing.truncation_order >= series.truncation_order:
                    return False
            self._entries[key] = series
            return True

    def _file_name(self, genus: int, rank: int, degree: int, order: int) -> str:
        return f"ss_g{genus}_r{rank}_n{degree}_T{order}.json"

    def _load_file(
        self, genus: int, rank: int, degree: int, order: int
    ) -> Optional[TruncatedSeries]:
        from .render import parse_json  # deferred: render depends on this module

        prefix = f"ss_g{genus}_r{rank}_n{degree}_T"
        candidates = []
        try:
            names = [p.name for p in self.cache_dir.glob(prefix + "*.json")]
        except OSError as exc:
            self.warnings.append(f"cache directory unreadable: {exc}")
            return None
        for name in names:
            stem = name[len(prefix) : -len(".json")]
            try:
                candidates.append((int(stem), name))
            except ValueError:
                self.warnings.append(f"cache file {name}: unparsable truncation order")
        for file_order, name in sorted(candidates, reverse=True):
            if file_order < order:
                break
            path = self.cache_dir / name
            try:
                doc = parse_json(path.read_text(encoding="utf-8"))
                if doc.kind != "series":
                    raise ValueError(f"unexpected document kind {doc.kind!r}")
                if (doc.genus, doc.rank, doc.degree) != (genus, rank, degree):
                    raise ValueError("document metadata does not match its file name")
                series = doc.payload
                if series.truncation_order != file_order:
                    raise ValueError("truncation order does not match the file name")
                return series
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.warnings.append(f"cache file {name}: {exc}")
        return None

    def _write_file(
        self, genus: int, rank: int, degree: int, series: TruncatedSeries
    ) -> None:
        from .render import OutputDocument, render_json

        doc = OutputDocument(
            kind="series", payload=series, genus=genus, rank=rank, degree=degree
        )
        name = self._file_name(genus, rank, degree, series.truncation_order)
        # A random name per writer; O_EXCL never opens another writer's file,
        # and mode 0o666 less the umask is what a plain open would give.
        tmp = self.cache_dir / f".{name}.{os.urandom(8).hex()}.tmp"
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            self.warnings.append(f"cache file {name}: write failed: {exc}")
            return
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(render_json(doc) + "\n")
            os.replace(tmp, self.cache_dir / name)
        except OSError as exc:
            self.warnings.append(f"cache file {name}: write failed: {exc}")
            with contextlib.suppress(OSError):
                tmp.unlink()


def dim_moduli(genus: int, rank: int) -> int:
    """Dimension of the moduli space of stable bundles: 1 + rank^2 (genus - 1)."""
    _check_genus(genus, 1)
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return 1 + rank * rank * (genus - 1)


def ss_series(query: ModuliQuery, memo: Optional[MemoStore] = None) -> TruncatedSeries:
    """Poincare series of the semistable locus, to the query's truncation order.

    Closed-form ind-variety series minus the proper-strata sum, computed by
    the first-piece recursion described in the module docstring.  The series
    depends on the degree only through its twist class, degree mod rank, which
    is what it is computed and memoized under.
    """
    if query.truncation is None:
        raise ValueError("ss_series needs an explicit truncation order")
    if memo is None:
        memo = MemoStore()
    genus, rank, order = query.genus, query.rank, query.truncation
    degree = query.degree % rank
    hit = memo.lookup(genus, rank, degree, order)
    if hit is not None:
        return hit
    series = div_stable_series(genus, rank, order) - _strata_sum(
        genus, rank, degree, None, order, memo
    )
    memo.store(genus, rank, degree, series)
    return series


def _strata_sum(
    genus: int,
    rank: int,
    degree: int,
    cap: Optional[tuple[int, int]],
    order: int,
    memo: MemoStore,
) -> TruncatedSeries:
    """Sum of t^(2 codim) P(S_P) over proper types P whose top slope is below cap.

    cap is a slope (numerator, positive denominator), or None for no bound.
    Each term is the first piece's semistable series times F of the rest.
    """
    budget = order // 2
    pieces = []
    for r1 in range(1, rank):
        # codim_1 = rank * d1 - r1 * degree + r1 (rank - r1)(g - 1) = rank * d1 + base.
        base = r1 * (rank - r1) * (genus - 1) - r1 * degree
        d_hi = (budget - base) // rank
        if cap is not None:
            d_hi = min(d_hi, (cap[0] * r1 - 1) // cap[1])  # d1 / r1 < cap
        for d1 in range((r1 * degree) // rank + 1, d_hi + 1):  # d1 / r1 > degree / rank
            pieces.append((2 * (rank * d1 + base), r1, d1))
    # Ascending shift: each key is first asked for at its largest order.
    pieces.sort()
    total = [0] * (order + 1)
    for shift, r1, d1 in pieces:
        sub_order = order - shift
        head = ss_series(ModuliQuery(genus, r1, d1, sub_order), memo)
        rest = _below_cap(genus, rank - r1, degree - d1, (d1, r1), sub_order, memo)
        # The product has exactly the order + 1 - shift coefficients total[shift:] holds.
        total[shift:] = map(operator.add, total[shift:], (head * rest).coefficients)
    return TruncatedSeries._trusted(tuple(total), order)


def _below_cap(
    genus: int,
    rank: int,
    degree: int,
    cap: tuple[int, int],
    order: int,
    memo: MemoStore,
) -> TruncatedSeries:
    """F(rank, degree, cap): like _strata_sum, semistable type included.

    The sum of t^(2 codim) P(S_P) over every type P of (rank, degree) whose
    top slope is below cap.  Callers guarantee degree / rank < cap.  Twisting
    moves degree to its class mod rank and cap by the same whole number of
    slopes; the result, memoized in memory under that key, is the same.
    """
    twist = degree // rank
    num, den = cap[0] - twist * cap[1], cap[1]
    common = math.gcd(num, den)
    key = (genus, rank, degree - twist * rank, num // common, den // common)
    with memo._lock:
        hit = memo._capped.get(key)
    if hit is not None and hit.truncation_order >= order:
        return hit.truncate(order)
    series = ss_series(ModuliQuery(genus, rank, key[2], order), memo) + _strata_sum(
        genus, rank, key[2], key[3:], order, memo
    )
    with memo._lock:
        kept = memo._capped.get(key)
        if kept is None or kept.truncation_order < order:
            memo._capped[key] = series
    return series


def stratum_series(
    genus: int,
    hn_type: HNType,
    order: int,
    memo: Optional[MemoStore] = None,
) -> TruncatedSeries:
    """Poincare series of one stratum: the product over its pieces' semistable series.

    ss_series does not call this; summed over strata.enumerate_types, it is the
    type-by-type reference that the first-piece recursion is tested against.
    """
    if memo is None:
        memo = MemoStore()
    out = TruncatedSeries.one(order)
    for piece_rank, piece_degree in hn_type.pieces:
        piece = ss_series(
            ModuliQuery(genus, piece_rank, piece_degree, order), memo
        )
        out = out * piece
    return out


def betti_poly(
    query: ModuliQuery,
    memo: Optional[MemoStore] = None,
    verify: bool = True,
) -> BettiReport:
    """Betti polynomial of the moduli space of stable bundles, fully checked.

    Requires gcd(rank, degree) = 1, so that stability and semistability agree.
    The truncation order defaults to 2*dim + TRUNCATION_SLACK and may not be
    smaller than 2*dim, the degree of the answer.  With verify=True (the
    default) the four structural checks must pass or StructuralCheckError is
    raised with a diagnostic dump; verify=False skips the checks entirely and
    the report carries checks=None.
    """
    if math.gcd(query.rank, query.degree) != 1:
        raise ValueError(
            "rank and degree must be coprime "
            f"(gcd({query.rank}, {query.degree}) = {math.gcd(query.rank, query.degree)}); "
            "otherwise stable and semistable bundles differ"
        )
    dim = dim_moduli(query.genus, query.rank)
    order = query.truncation if query.truncation is not None else 2 * dim + TRUNCATION_SLACK
    if order < 2 * dim:
        raise ValueError(
            f"truncation order {order} cannot hold the degree-{2 * dim} Betti polynomial"
        )
    semistable = ss_series(
        ModuliQuery(query.genus, query.rank, query.degree, order), memo
    )
    collapsed = semistable * ExactPolynomial.from_terms({0: 1, 2: -1})
    poly = collapsed.polynomial_prefix(2 * dim)
    if not verify:
        return BettiReport(poly, dim, order, None)

    tail = collapsed.coefficients[2 * dim + 1 :]
    checks = BettiChecks(
        tail_vanishes=not any(tail),
        degree_matches_2dim=poly.degree == 2 * dim,
        palindromic=(not poly.is_zero()) and poly.is_palindromic(),
        nonnegative=all(c >= 0 for c in poly.coefficients),
    )
    failed = checks.failed()
    if failed:
        diagnostic = {
            "genus": query.genus,
            "rank": query.rank,
            "degree": query.degree,
            "truncation": order,
            "dimension": dim,
            "failed_checks": failed,
            "coefficients": list(collapsed.coefficients),
        }
        if not checks.tail_vanishes:
            diagnostic["first_nonzero_tail_index"] = 2 * dim + 1 + next(
                i for i, c in enumerate(tail) if c
            )
        raise StructuralCheckError(
            "Betti polynomial failed structural checks: " + ", ".join(failed),
            diagnostic,
        )
    return BettiReport(poly, dim, order, checks)


def rank2_oracle(genus: int, degree: int, order: int) -> TruncatedSeries:
    """Closed-form rank-2 semistable series for odd degree; no recursion involved.

    For odd degree the strata are the line-bundle splittings (1, d)(1, n - d)
    with 2d > n, with codimensions g, g + 2, g + 4, ...; their shifted sum is
    P(Div^(1))^2 times a geometric series in t^4 starting at t^(2g).  The
    degree only enters through its parity, which is why a single closed form
    covers every odd n.
    """
    _check_genus(genus, 1)
    if degree % 2 == 0:
        raise ValueError(f"the rank-2 closed form needs odd degree, got {degree}")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    g2 = 2 * genus
    one_plus_t = ExactPolynomial.from_terms({0: 1, 1: 1})
    one_plus_t3 = ExactPolynomial.from_terms({0: 1, 3: 1})
    one_minus_t2 = ExactPolynomial.from_terms({0: 1, 2: -1})
    one_minus_t4 = ExactPolynomial.from_terms({0: 1, 4: -1})

    inv_t2 = one_minus_t2.inverse_series(order)
    whole = (
        one_minus_t4.inverse_series(order)
        * inv_t2
        * inv_t2
        * (one_plus_t ** g2 * one_plus_t3 ** g2)
    )
    if order < g2:
        return whole
    sub_order = order - g2
    line = one_minus_t2.inverse_series(sub_order) * one_plus_t ** g2
    strata_sum = line * line * one_minus_t4.inverse_series(sub_order)
    return whole - strata_sum.times_t_power(g2)
