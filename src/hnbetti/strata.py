"""Harder-Narasimhan types, Shatz polygons, and bounded stratum enumeration.

A Harder-Narasimhan type of total rank r and degree n is a sequence of pieces
(r'_1, d'_1), ..., (r'_l, d'_l) with positive ranks summing to r, degrees
summing to n, and strictly decreasing slopes d'_i / r'_i.  Slope comparisons
are done by cross-multiplication only; no rational arithmetic ever enters.
The equivalent Shatz polygon records the partial sums as vertices from (0, 0)
to (r, n); strictly decreasing slopes of the type are exactly strict convexity
(from above) of the polygon.

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
codimension <= C - c1.  enumerate_types walks this recursion depth first,
passing down the pieces chosen so far and their codimension.

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

Emission order.  The walk appends each finished type to a bucket per
codimension, and the buckets concatenated in codimension order are sorted by
(codimension, pieces): only the distinct codimensions are sorted, not the
types.  At every node it visits the first pieces in ascending (r1, d1) order,
each subtree whole, and then the semistable tail (R, D).  Take two types in
one bucket and the node where their pieces first differ.  Neither type's
pieces are a proper prefix of the other's, since both sum to (r, n) and every
rank is positive, so both go on from that node.  Each piece there is a first
piece or the tail, and every first piece has r1 < R, so it sorts before the
tail (in fact a type ending in the tail has the node's codimension, while one
through a first piece adds c1 >= 1, so they never share a bucket).  Hence the
type whose piece there is smaller was appended first, and each bucket is in
lexicographic order of pieces.
"""

from __future__ import annotations

from typing import Iterable

from .exactalg import _Record, _check_int, _ints


def _as_pairs(items: Iterable) -> tuple[tuple[int, int], ...]:
    out = []
    for item in items:
        a, b = _ints(item)
        out.append((a, b))
    return tuple(out)


class HNType(_Record):
    """A Harder-Narasimhan type: pieces (rank, degree) with strictly dropping slopes.

    _trusted takes a tuple of int pairs already known to form a valid type.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable) -> None:
        pieces = _as_pairs(pieces)
        if not pieces:
            raise ValueError("a type needs at least one piece")
        for i, (r, _) in enumerate(pieces):
            if r < 1:
                raise ValueError(f"piece {i} has nonpositive rank {r}")
        for i in range(len(pieces) - 1):
            r_hi, d_hi = pieces[i]
            r_lo, d_lo = pieces[i + 1]
            # d_hi / r_hi > d_lo / r_lo, by cross-multiplication.
            if d_hi * r_lo <= d_lo * r_hi:
                raise ValueError(
                    f"slopes must strictly decrease: violated at piece {i + 1}"
                )
        self._fill(pieces)

    @property
    def length(self) -> int:
        return len(self.pieces)

    @property
    def total_rank(self) -> int:
        return sum(r for r, _ in self.pieces)

    @property
    def total_degree(self) -> int:
        return sum(d for _, d in self.pieces)

    def to_polygon(self) -> "ShatzPolygon":
        vertices = [(0, 0)]
        r_acc = d_acc = 0
        for r, d in self.pieces:
            r_acc += r
            d_acc += d
            vertices.append((r_acc, d_acc))
        return ShatzPolygon(tuple(vertices))


class ShatzPolygon(_Record):
    """Vertex form of a type: partial-sum points from (0, 0), strictly convex."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable) -> None:
        vertices = _as_pairs(vertices)
        if len(vertices) < 2:
            raise ValueError("a polygon needs at least two vertices")
        if vertices[0] != (0, 0):
            raise ValueError(f"polygon must start at (0, 0), got {vertices[0]}")
        for i in range(len(vertices) - 1):
            if vertices[i + 1][0] <= vertices[i][0]:
                raise ValueError(
                    f"vertex ranks must strictly increase: violated at vertex {i + 1}"
                )
        for i in range(len(vertices) - 2):
            r0, d0 = vertices[i]
            r1, d1 = vertices[i + 1]
            r2, d2 = vertices[i + 2]
            # Edge slopes must strictly decrease (strict convexity from above).
            if (d1 - d0) * (r2 - r1) <= (d2 - d1) * (r1 - r0):
                raise ValueError(
                    f"polygon must be strictly convex: violated at vertex {i + 1}"
                )
        self._fill(vertices)

    def to_type(self) -> HNType:
        pieces = []
        for i in range(len(self.vertices) - 1):
            r0, d0 = self.vertices[i]
            r1, d1 = self.vertices[i + 1]
            pieces.append((r1 - r0, d1 - d0))
        return HNType(tuple(pieces))


def stratum_codim(hn_type: HNType, genus: int) -> int:
    """Codimension of the stratum with the given type, over a genus-g curve.

    The pairs of piece (r, d) with the earlier pieces add up to
    r D - d R + (g - 1) r R, with (R, D) the sum of the earlier pieces, so one
    pass over running sums gives the sum over pairs.
    """
    _check_int("genus", genus, 1)
    total = rank_sum = degree_sum = 0
    for r, d in hn_type.pieces:
        total += r * degree_sum - d * rank_sum + (genus - 1) * r * rank_sum
        rank_sum += r
        degree_sum += d
    return total


def enumerate_types(
    rank: int, degree: int, genus: int, max_codim: int
) -> list[tuple[int, HNType]]:
    """All proper types of the given rank and degree with codimension <= max_codim.

    Each comes as a row (codimension, type), the codimension being the one
    stratum_codim gives.  Proper means at least two pieces (the semistable
    stratum itself is not listed).  Rows are sorted by (codimension, pieces),
    so the list for a smaller budget is a prefix of the list for a larger one;
    the walk emits them in that order, bucketed by codimension (see the module
    docstring).  Genus 0 is rejected: see the module docstring for why the
    recursion needs genus >= 1.
    """
    _check_int("genus", genus, 1)
    _check_int("rank", rank, 1)
    _check_int("degree", degree)
    _check_int("codimension budget", max_codim, 0)
    g1 = genus - 1
    # Keyed by codimension, not a list of max_codim + 1 buckets: the budget
    # can be far larger than any codimension reached.
    buckets: dict[int, list[HNType]] = {}
    # HNType._trusted inlined, through the slot's own setter, which
    # _Record.__setattr__ does not block: the walk builds int pieces with
    # positive ranks and dropping slopes, and its cost is per type.
    new, fill = object.__new__, HNType.pieces.__set__

    def walk(R: int, D: int, cap_d: int, cap_r: int, budget: int, codim: int, prefix: tuple):
        # Put prefix + t into buckets[codim + codim(t)] for every type t of
        # (R, D) with top slope below cap_d / cap_r and codim(t) <= budget:
        # first pieces by rank, then degree, ascending; the semistable t last.
        for r1 in range(1, R):
            base = r1 * (R - r1) * g1 - r1 * D  # c1 = R * d1 + base
            d_hi = min((budget - base) // R, (cap_d * r1 - 1) // cap_r)
            for d1 in range(r1 * D // R + 1, d_hi + 1):  # D / R < d1 / r1 < cap
                c1 = R * d1 + base
                walk(R - r1, D - d1, d1, r1, budget - c1, codim + c1, prefix + ((r1, d1),))
        hn_type = new(HNType)
        fill(hn_type, prefix + ((R, D),))
        buckets.setdefault(codim, []).append(hn_type)

    # A first piece with c1 <= max_codim has slope at most D/R + max_codim, so
    # this cap never binds at the top.
    walk(rank, degree, abs(degree) + max_codim + 1, 1, max_codim, 0, ())
    # Codimension 0 holds only the semistable type.
    return [(codim, hn_type) for codim in sorted(buckets)[1:] for hn_type in buckets[codim]]
