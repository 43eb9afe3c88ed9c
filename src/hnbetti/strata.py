"""Harder-Narasimhan types, their codimensions, and bounded stratum enumeration.

A Harder-Narasimhan type of total rank r and degree n is a sequence of pieces
(r'_1, d'_1), ..., (r'_l, d'_l) with positive ranks summing to r, degrees
summing to n, and strictly decreasing slopes d'_i / r'_i.  Slope comparisons
are done by cross-multiplication only; no rational arithmetic ever enters.
A type is the same data as its Shatz polygon, whose vertices are the partial
sums from (0, 0) to (r, n).

The codimension of the stratum labelled by a type, inside the degree-n rank-r
matrix-divisor ind-variety over a genus-g curve, is the integer

    codim = sum over pairs i > j of  (r'_i d'_j - r'_j d'_i) + r'_i r'_j (g - 1).

First-piece recursion (Atiyah-Bott 1983).  Write a type of total rank R and
degree D as its first piece (r1, d1) followed by a type of the rest,
(R - r1, D - d1), whose pieces all have slope below d1/r1.  The pairs that
pair the first piece with a later piece (r'_i, d'_i) add up to

    c1 = sum over i of (r'_i d1 - r1 d'_i) + r'_i r1 (g - 1)
       = (R - r1) d1 - r1 (D - d1) + r1 (R - r1)(g - 1)
       = R d1 - r1 D + r1 (R - r1)(g - 1),

which sees the rest only through its totals; the remaining pairs give the
codimension of the rest as a type of its own.  So codim = c1 + codim(rest),
and when D/R is below a cap, the types of (R, D) with top slope below the cap
and codimension <= C are the semistable type (R, D), of codimension 0, and
for each first piece with slope below the cap and c1 <= C, that piece
followed by each type of the rest with top slope below d1/r1 and
codimension <= C - c1.  type_rows walks this recursion depth first,
passing down the pieces chosen so far and their codimension, and writes each
type as one flat row of ints (codim, r'_1, d'_1, ..., r'_l, d'_l): no pair
is built.  A row's tail, the flat tuple (r'_1, d'_1, ..., r'_l, d'_l), is how
the package holds a type everywhere: stratum_codim and hnrec.stratum_series
take it, and check it first (_pairs).

Range of the first pieces (genus >= 1).  The top slope of a proper type
exceeds its average slope, so d1/r1 > D/R, and r1 < R.  Then R d1 - r1 D >= 1
and r1 (R - r1)(g - 1) >= 0, so c1 >= 1, and for each r1 < R the budget
c1 <= C leaves the finite range

    r1 D / R < d1 <= (C + r1 D - r1 (R - r1)(g - 1)) / R,

whose top a cap can only lower.  The rest has a smaller rank and a smaller
budget, so the recursion ends.  Its semistable type is always below its cap:
the rest's slope (D - d1)/(R - r1) lies below D/R, hence below d1/r1.  At
genus 0 the term r1 (R - r1)(g - 1) is negative, c1 can be 0 or less, and
the budget no longer shrinks down the recursion; genus 0 is rejected.

Emission order.  The walk appends each finished row to a bucket per
codimension, and the buckets concatenated in codimension order are sorted by
(codimension, pieces), which is also the order of the flat rows: only the
distinct codimensions are sorted, not the types.  At every node the walk
visits the first pieces in ascending (r1, d1) order, each subtree whole, and
then the semistable tail (R, D).  Take two types in one bucket and the node
where their pieces first differ.  Neither type's pieces are a proper prefix
of the other's, since both sum to (r, n) and every rank is positive, so both
go on from that node.  Each piece there is a first piece or the tail, and
every first piece has r1 < R, so it sorts before the tail (in fact a type
ending in the tail has the node's codimension, while one through a first
piece adds c1 >= 1, so they never share a bucket).  Hence the type whose
piece there is smaller was appended first, and each bucket is in
lexicographic order of pieces.
"""

from __future__ import annotations

from collections import defaultdict

from ._base import _check_int


def _pairs(pieces: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (rank, degree) pairs of a type's flat tuple (r1, d1, ..., rk, dk), checked.

    pieces must be a nonempty tuple of even length whose entries are ints (a
    bool is not one), with every rank >= 1 and slopes d / r that strictly
    decrease, or a ValueError says what is wrong.
    """
    if type(pieces) is not tuple or not pieces or len(pieces) % 2:
        raise ValueError(f"a type is a nonempty tuple (r1, d1, ..., rk, dk), got {pieces!r}")
    pairs = list(zip(pieces[::2], pieces[1::2]))
    for i, (r, d) in enumerate(pairs):
        if type(r) is not int or type(d) is not int:
            raise ValueError(
                f"piece {i} must be a pair of ints: expected an integer, got {(r, d)!r}"
            )
        if r < 1:
            raise ValueError(f"piece {i} has nonpositive rank {r}")
        # The previous piece's slope exceeds d / r, by cross-multiplication.
        if i and pairs[i - 1][1] * r <= d * pairs[i - 1][0]:
            raise ValueError(f"slopes must strictly decrease: violated at piece {i}")
    return pairs


def stratum_codim(pieces: tuple[int, ...], genus: int) -> int:
    """Codimension of the stratum of type pieces = (r1, d1, ..., rk, dk), over a genus-g curve.

    pieces is the tail row[1:] of a type_rows row, checked by _pairs.  The
    pairs of piece (r, d) with the earlier pieces add up to
    r D - d R + (g - 1) r R, with (R, D) the sum of the earlier pieces, so one
    pass over running sums gives the sum over pairs.
    """
    _check_int("genus", genus, 1)
    total = rank_sum = degree_sum = 0
    for r, d in _pairs(pieces):
        total += r * degree_sum - d * rank_sum + (genus - 1) * r * rank_sum
        rank_sum += r
        degree_sum += d
    return total


def type_rows(rank: int, degree: int, genus: int, max_codim: int) -> list[tuple[int, ...]]:
    """All proper types of the given rank and degree with codimension <= max_codim.

    Each type comes as one flat row of ints (codim, r1, d1, ..., rk, dk): its
    codimension, stratum_codim(row[1:], genus), then the rank and degree of each
    piece.  Proper means at least two pieces (the semistable stratum itself is
    not listed).  Rows are sorted by (codimension, pieces), so the list for a
    smaller budget is a prefix of the list for a larger one; the walk emits
    them in that order, bucketed by codimension (see the module docstring).
    Genus 0 is rejected: see the module docstring for why the recursion needs
    genus >= 1.
    """
    _check_int("genus", genus, 1)
    _check_int("rank", rank, 1)
    _check_int("degree", degree)
    _check_int("codimension budget", max_codim, 0)
    g1 = genus - 1
    # Keyed by codimension, not a list of max_codim + 1 buckets: the budget
    # can be far larger than any codimension reached.
    buckets: dict[int, list[tuple[int, ...]]] = defaultdict(list)

    def walk(R: int, D: int, cap_d: int, cap_r: int, budget: int, codim: int, prefix: tuple):
        # Put (c,) + prefix + t into buckets[c], c = codim + codim(t), for every
        # type t of (R, D) with top slope below cap_d / cap_r and codim(t) <=
        # budget: first pieces by rank, then degree, ascending; the semistable
        # t last.  prefix and t are flat (r1, d1, r2, d2, ...) tuples, prefix
        # holding the pieces above this node.
        for r1 in range(1, R):
            base = r1 * (R - r1) * g1 - r1 * D  # c1 = R * d1 + base
            d_hi = min((budget - base) // R, (cap_d * r1 - 1) // cap_r)
            d1s = range(r1 * D // R + 1, d_hi + 1)  # D / R < d1 / r1 < cap
            if r1 == R - 1:
                # A rest of rank 1 has one type, the semistable (1, D - d1),
                # always below its cap: emit it here, where its own walk call
                # would, and make no call that loops over nothing.
                for d1 in d1s:
                    c = codim + R * d1 + base
                    buckets[c].append((c,) + prefix + (r1, d1, 1, D - d1))
            else:
                for d1 in d1s:
                    c1 = R * d1 + base
                    walk(R - r1, D - d1, d1, r1, budget - c1, codim + c1, prefix + (r1, d1))
        buckets[codim].append((codim,) + prefix + (R, D))

    # A first piece with c1 <= max_codim has slope at most D/R + max_codim, so
    # this cap never binds at the top.
    walk(rank, degree, abs(degree) + max_codim + 1, 1, max_codim, 0, ())
    # walk holds itself through its closure cell: clear the cell, or walk,
    # buckets and every row in them live on as cyclic garbage until a GC pass.
    del walk
    # Codimension 0 holds only the semistable type.
    rows: list[tuple[int, ...]] = []
    for codim in sorted(buckets)[1:]:
        rows += buckets[codim]
    return rows
