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

Termination bound for enumerate_types (genus >= 1).  Each pairwise cross term
r'_i d'_j - r'_j d'_i is a positive integer (it is r'_i r'_j times the slope
gap, which is strictly positive), and r'_i r'_j (g - 1) >= 0, so every pair
contributes at least 1 to the codimension.  Summing only the pairs (i, 1) over
i = 2..l telescopes to

    codim >= r * d'_1 - r'_1 * n,

so under a budget codim <= C the first piece satisfies
d'_1 <= (r'_1 n + C) / r, while d'_1 > r'_1 n / r because the first slope
strictly exceeds the total slope.  That is a finite range.  Once a prefix with
aggregate rank R and degree D is fixed, appending a piece (rho, delta) adds
exactly rho*D - R*delta + rho*R*(g - 1) to the codimension; this is strictly
decreasing in delta, so the remaining budget bounds delta from below, and the
slope ceiling of the previous piece bounds it from above.  Every branch of the
search therefore ranges over finitely many integers, and each partial sum of
codimension contributions is monotone, which justifies pruning.  For genus 0
the per-pair lower bound fails (cross term 1 minus r'_i r'_j can be negative)
and no finite bound exists; genus 0 is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .genfun import _check_genus


def _as_pairs(items: Iterable) -> tuple[tuple[int, int], ...]:
    out = []
    for item in items:
        a, b = item
        out.append((int(a), int(b)))
    return tuple(out)


@dataclass(frozen=True)
class HNType:
    """A Harder-Narasimhan type: pieces (rank, degree) with strictly dropping slopes."""

    pieces: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", _as_pairs(self.pieces))
        if not self.pieces:
            raise ValueError("a type needs at least one piece")
        for i, (r, _) in enumerate(self.pieces):
            if r < 1:
                raise ValueError(f"piece {i} has nonpositive rank {r}")
        for i in range(len(self.pieces) - 1):
            r_hi, d_hi = self.pieces[i]
            r_lo, d_lo = self.pieces[i + 1]
            # d_hi / r_hi > d_lo / r_lo, by cross-multiplication.
            if d_hi * r_lo <= d_lo * r_hi:
                raise ValueError(
                    f"slopes must strictly decrease: violated at piece {i + 1}"
                )

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


@dataclass(frozen=True)
class ShatzPolygon:
    """Vertex form of a type: partial-sum points from (0, 0), strictly convex."""

    vertices: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _as_pairs(self.vertices))
        if len(self.vertices) < 2:
            raise ValueError("a polygon needs at least two vertices")
        if self.vertices[0] != (0, 0):
            raise ValueError(f"polygon must start at (0, 0), got {self.vertices[0]}")
        for i in range(len(self.vertices) - 1):
            if self.vertices[i + 1][0] <= self.vertices[i][0]:
                raise ValueError(
                    f"vertex ranks must strictly increase: violated at vertex {i + 1}"
                )
        for i in range(len(self.vertices) - 2):
            r0, d0 = self.vertices[i]
            r1, d1 = self.vertices[i + 1]
            r2, d2 = self.vertices[i + 2]
            # Edge slopes must strictly decrease (strict convexity from above).
            if (d1 - d0) * (r2 - r1) <= (d2 - d1) * (r1 - r0):
                raise ValueError(
                    f"polygon must be strictly convex: violated at vertex {i + 1}"
                )

    def to_type(self) -> HNType:
        pieces = []
        for i in range(len(self.vertices) - 1):
            r0, d0 = self.vertices[i]
            r1, d1 = self.vertices[i + 1]
            pieces.append((r1 - r0, d1 - d0))
        return HNType(tuple(pieces))


def stratum_codim(hn_type: HNType, genus: int) -> int:
    """Codimension of the stratum with the given type, over a genus-g curve."""
    _check_genus(genus, 1)
    pieces = hn_type.pieces
    total = 0
    for i in range(len(pieces)):
        r_i, d_i = pieces[i]
        for j in range(i):
            r_j, d_j = pieces[j]
            total += (r_i * d_j - r_j * d_i) + r_i * r_j * (genus - 1)
    return total


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def enumerate_types(
    rank: int, degree: int, genus: int, max_codim: int
) -> list[HNType]:
    """All proper types of the given rank and degree with codimension <= max_codim.

    Proper means at least two pieces (the semistable stratum itself is not
    listed).  Results are sorted by (codimension, pieces), so the list for a
    smaller budget is a prefix of the list for a larger one.  Genus 0 is
    rejected: see the module docstring for why no finite bound exists there.
    """
    _check_genus(genus, 1)  # no finite bound at genus 0
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if max_codim < 0:
        raise ValueError("codimension budget must be nonnegative")

    found: list[tuple[int, tuple[tuple[int, int], ...]]] = []

    def extend(
        pieces: tuple[tuple[int, int], ...],
        used_rank: int,
        used_deg: int,
        codim: int,
    ) -> None:
        rem_rank = rank - used_rank
        rem_deg = degree - used_deg
        last_rank, last_deg = pieces[-1]
        # Close with one final piece carrying everything that remains.
        if rem_deg * last_rank < last_deg * rem_rank:
            extra = rem_rank * used_deg - used_rank * rem_deg
            extra += rem_rank * used_rank * (genus - 1)
            if codim + extra <= max_codim:
                found.append((codim + extra, pieces + ((rem_rank, rem_deg),)))
        # Or append an intermediate piece and recurse.
        budget = max_codim - codim
        for rho in range(1, rem_rank):
            base = rho * (used_deg + used_rank * (genus - 1))
            delta_lo = _ceil_div(base - budget, used_rank)
            delta_hi = (last_deg * rho - 1) // last_rank  # strict slope ceiling
            for delta in range(delta_lo, delta_hi + 1):
                # The tail must fit strictly under slope delta/rho.
                if rho * (rem_deg - delta) >= delta * (rem_rank - rho):
                    continue
                extend(
                    pieces + ((rho, delta),),
                    used_rank + rho,
                    used_deg + delta,
                    codim + base - used_rank * delta,
                )

    for first_rank in range(1, rank):
        # rank * d > first_rank * degree and rank * d - first_rank * degree <= budget.
        d_lo = (first_rank * degree) // rank + 1
        d_hi = (first_rank * degree + max_codim) // rank
        for d in range(d_lo, d_hi + 1):
            extend(((first_rank, d),), first_rank, d, 0)

    found.sort()
    return [HNType(pieces) for _, pieces in found]
