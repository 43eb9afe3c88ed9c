"""Harder-Narasimhan types, polygons, codimension, bounded enumeration."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from hnbetti.strata import HNType, ShatzPolygon, enumerate_types, stratum_codim


def brute_force_types(rank, degree, genus, max_codim):
    """Independent exhaustive scan over a box that provably contains everything.

    At genus >= 1 every pair of pieces adds a nonnegative amount to the
    codimension.  The pairs of the first piece with the others add up to
    rank * d'_1 - r'_1 * degree, and those of the last piece with the others
    to r'_l * degree - rank * d'_l.  So a type with codimension <= C has
    first slope at most degree/rank + C/rank and last slope at least
    degree/rank - C/rank, every slope lies in between, and each piece degree
    d' = r' * slope has |d'| <= |degree| + C.  The box
    |d| <= C + |degree| + rank^2 covers that with room to spare, for every
    genus >= 1, rank and degree.

    For each sequence of ranks, the degrees are chosen one piece at a time,
    each in ascending order over the box.  Once a piece's slope reaches the
    slope before it, every larger degree does too, and so does every way of
    going on from there, so that degree loop stops.
    """
    bound = max_codim + abs(degree) + rank * rank

    def degrees(ranks, prefix):
        # Degree sequences over the box with strictly dropping slopes.
        i = len(prefix)
        if i == len(ranks) - 1:
            last = degree - sum(prefix)
            if abs(last) <= bound and prefix[-1] * ranks[i] > last * ranks[i - 1]:
                yield prefix + (last,)
            return
        for d in range(-bound, bound + 1):
            if prefix and prefix[-1] * ranks[i] <= d * ranks[i - 1]:
                break
            yield from degrees(ranks, prefix + (d,))

    found = set()
    for length in range(2, rank + 1):
        for ranks in itertools.product(range(1, rank + 1), repeat=length):
            if sum(ranks) != rank:
                continue
            for degs in degrees(ranks, ()):
                pieces = tuple(zip(ranks, degs))
                if stratum_codim(HNType(pieces), genus) <= max_codim:
                    found.add(pieces)
    return found


def _random_type(rng, max_length=4):
    # Build a valid type from strictly decreasing random slopes.
    length = rng.randrange(1, max_length + 1)
    pool = sorted({Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3)})
    slopes = sorted(rng.sample(pool, length), reverse=True)
    pieces = []
    for slope in slopes:
        scale = rng.randrange(1, 3)
        pieces.append((slope.denominator * scale, slope.numerator * scale))
    return HNType(tuple(pieces))


def test_type_validation():
    HNType(((1, 1), (1, 0)))
    with pytest.raises(ValueError):
        HNType(())
    with pytest.raises(ValueError):
        HNType(((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="piece 1"):
        HNType(((1, 0), (1, 1)))
    with pytest.raises(ValueError, match="piece 2"):
        HNType(((1, 2), (1, 1), (2, 2)))  # equal slopes 1/1 and 2/2
    # Equal slopes with different ranks are still a violation.
    with pytest.raises(ValueError):
        HNType(((2, 2), (1, 1)))


def test_type_totals():
    t = HNType(((2, 3), (1, 0), (1, -2)))
    assert t.total_rank == 4
    assert t.total_degree == 1
    assert t.length == 3


def test_polygon_roundtrip():
    t = HNType(((1, 2), (2, 1), (1, -1)))
    polygon = t.to_polygon()
    assert polygon.vertices == ((0, 0), (1, 2), (3, 3), (4, 2))
    assert polygon.to_type() == t


def test_polygon_validation():
    with pytest.raises(ValueError, match="start"):
        ShatzPolygon(((1, 0), (2, 1)))
    with pytest.raises(ValueError, match="vertex 1"):
        ShatzPolygon(((0, 0), (0, 1)))
    with pytest.raises(ValueError, match="convex"):
        ShatzPolygon(((0, 0), (1, 1), (2, 2)))
    with pytest.raises(ValueError):
        ShatzPolygon(((0, 0),))


def test_roundtrip_random():
    rng = random.Random(11)
    for _ in range(100):
        t = _random_type(rng)
        assert t.to_polygon().to_type() == t


def test_codim_examples():
    assert stratum_codim(HNType(((1, 1), (1, 0))), 2) == 2
    assert stratum_codim(HNType(((1, 2), (1, -1))), 2) == 4
    assert stratum_codim(HNType(((2, 3), (1, 0))), 3) == 7
    assert stratum_codim(HNType(((1, 1),)), 5) == 0
    with pytest.raises(ValueError):
        stratum_codim(HNType(((1, 1), (1, 0))), 0)


def test_codim_agrees_with_slope_form():
    # Same number through rational arithmetic: codim is a sum over pairs of
    # r_i r_j ((slope_j - slope_i) + g - 1) for j < i.
    rng = random.Random(23)
    for _ in range(150):
        t = _random_type(rng)
        for genus in (1, 2, 3):
            expected = Fraction(0)
            pieces = t.pieces
            for i in range(len(pieces)):
                for j in range(i):
                    r_i, d_i = pieces[i]
                    r_j, d_j = pieces[j]
                    gap = Fraction(d_j, r_j) - Fraction(d_i, r_i)
                    expected += r_i * r_j * (gap + genus - 1)
            assert expected.denominator == 1
            assert stratum_codim(t, genus) == int(expected)
            if len(pieces) > 1 and genus >= 1:
                assert stratum_codim(t, genus) >= len(pieces) - 1


def test_codim_running_sums_match_the_sum_over_pairs():
    for genus in (1, 2, 3):
        for rank in range(1, 8):
            for degree in range(-rank, rank + 1):
                for codim, t in enumerate_types(rank, degree, genus, 20):
                    pieces = t.pieces
                    pairwise = sum(
                        pieces[i][0] * pieces[j][1]
                        - pieces[j][0] * pieces[i][1]
                        + pieces[i][0] * pieces[j][0] * (genus - 1)
                        for i in range(len(pieces))
                        for j in range(i)
                    )
                    assert stratum_codim(t, genus) == pairwise == codim, (genus, pieces)


def test_enumerate_examples():
    assert enumerate_types(1, 5, 2, 40) == []
    two = enumerate_types(2, 1, 2, 4)
    assert [t.pieces for _, t in two] == [((1, 1), (1, 0)), ((1, 2), (1, -1))]
    assert [codim for codim, _ in two] == [2, 4]
    assert [t.pieces for _, t in enumerate_types(2, 0, 2, 3)] == [((1, 1), (1, -1))]


def test_enumerate_memory_does_not_grow_with_the_budget():
    # The walk keeps a bucket per codimension reached, not one per unit of
    # budget: a million-unit budget with nothing to list stays small.
    tracemalloc.start()
    try:
        assert enumerate_types(1, 5, 2, 10**6) == []
        assert len(enumerate_types(2, 1, 2, 10**3)) == 500
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_enumerate_rejects_genus_zero():
    with pytest.raises(ValueError):
        enumerate_types(2, 1, 0, 5)
    with pytest.raises(ValueError):
        enumerate_types(0, 1, 2, 5)
    with pytest.raises(ValueError):
        enumerate_types(2, 1, 2, -1)
    # range() would raise TypeError deep in the walk, and True would pass as 1.
    for args in ((2.0, 1, 2, 5), (2, 1.5, 2, 5), (2, 1, 2, 5.0), (2, True, 2, 5)):
        with pytest.raises(ValueError, match="expected an integer"):
            enumerate_types(*args)


def test_enumerate_entries_are_valid():
    for rank, degree in ((2, 1), (3, -2), (4, 3)):
        for codim, t in enumerate_types(rank, degree, 2, 10):
            assert t.total_rank == rank
            assert t.total_degree == degree
            assert t.length >= 2
            assert stratum_codim(t, 2) == codim <= 10


def test_enumerate_is_sorted_and_prefix_monotone():
    # enumerate_types emits (codim, pieces) order from its walk, sorting no types.
    for genus in (1, 2, 3):
        for rank in range(1, 8):
            for degree in range(-rank, rank + 1):
                big = enumerate_types(rank, degree, genus, 20)
                keyed = [(stratum_codim(t, genus), t.pieces) for _, t in big]
                assert [codim for codim, _ in keyed] == [codim for codim, _ in big]
                assert keyed == sorted(keyed), (genus, rank, degree)
                for budget in range(20):
                    within = sum(codim <= budget for codim, _ in keyed)
                    small = enumerate_types(rank, degree, genus, budget)
                    assert small == big[:within], (genus, rank, degree, budget)


def test_enumerate_matches_brute_force():
    # One scan per (genus, rank, degree) at the largest budget, cut down to
    # each budget by codimension.  The degrees cover every class mod 2 and 4.
    for genus in (1, 2, 3):
        for rank, budgets in ((2, (0, 4, 9)), (3, (0, 4, 9)), (4, (0, 4, 9, 12))):
            for degree in (-2, 0, 1, 3):
                scanned = {
                    pieces: stratum_codim(HNType(pieces), genus)
                    for pieces in brute_force_types(rank, degree, genus, budgets[-1])
                }
                for budget in budgets:
                    got = {t.pieces for _, t in enumerate_types(rank, degree, genus, budget)}
                    want = {pieces for pieces, c in scanned.items() if c <= budget}
                    assert got == want, (genus, rank, degree, budget)


def test_enumerated_types_are_valid_through_the_public_constructor():
    # enumerate_types skips HNType validation; every type it lists must still
    # pass it, with int entries.
    for genus in (1, 2, 3):
        for rank in range(1, 7):
            for degree in range(rank):
                for _, t in enumerate_types(rank, degree, genus, 20):
                    assert HNType(t.pieces) == t
                    assert all(type(x) is int for piece in t.pieces for x in piece)


def test_enumerate_twist_bijection():
    # Tensoring by a degree-1 line bundle shifts each piece degree by its rank.
    for rank, degree, budget in ((2, 1, 8), (3, 2, 9), (4, -1, 10)):
        base = enumerate_types(rank, degree, 3, budget)
        shifted = enumerate_types(rank, degree + rank, 3, budget)
        mapped = [
            tuple((r, d + r) for r, d in t.pieces) for _, t in base
        ]
        assert mapped == [t.pieces for _, t in shifted]
        assert [stratum_codim(t, 3) for _, t in base] == [
            stratum_codim(t, 3) for _, t in shifted
        ] == [codim for codim, _ in base] == [codim for codim, _ in shifted]
