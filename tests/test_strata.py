"""Harder-Narasimhan types, codimension, bounded enumeration."""

import gc
import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from hnbetti.hnrec import stratum_series
from hnbetti.strata import stratum_codim, type_rows


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
    going on from there, so that degree loop stops.  Each type found is a flat
    tuple (r1, d1, ..., rk, dk), the tail of a type_rows row.
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
                pieces = tuple(x for pair in zip(ranks, degs) for x in pair)
                if stratum_codim(pieces, genus) <= max_codim:
                    found.add(pieces)
    return found


def _random_type(rng, max_length=4):
    # Build a valid flat type from strictly decreasing random slopes.
    length = rng.randrange(1, max_length + 1)
    pool = sorted({Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3)})
    slopes = sorted(rng.sample(pool, length), reverse=True)
    pieces = ()
    for slope in slopes:
        scale = rng.randrange(1, 3)
        pieces += (slope.denominator * scale, slope.numerator * scale)
    return pieces


def _pairs(pieces):
    return list(zip(pieces[::2], pieces[1::2]))


def test_type_validation():
    # A type is the flat tuple (r1, d1, ..., rk, dk) of a type_rows row's
    # tail; stratum_codim and stratum_series check it before they use it.
    assert stratum_codim((1, 1, 1, 0), 2) == 2
    assert stratum_codim((1, 1), 2) == 0
    # Equal slopes with different ranks are still a violation.
    with pytest.raises(ValueError, match="^slopes must strictly decrease: violated at piece 1$"):
        stratum_codim((2, 2, 1, 1), 2)
    # A non-int entry names its piece, wherever it sits.
    for pieces, index in (((1, 1, 1, 0.0), 1), ((2, 1, None, 0), 1), ((3, 2, 1, 0, "1", -2), 2)):
        with pytest.raises(ValueError, match=f"^piece {index} must be a pair of ints: expected"):
            stratum_codim(pieces, 2)


_NOT_A_TUPLE = "a type is a nonempty tuple (r1, d1, ..., rk, dk), got "

# Each malformed type and the whole message that refuses it.
MALFORMED = {
    "float": ((1.9, 2.7, 1, 0),
              "piece 0 must be a pair of ints: expected an integer, got (1.9, 2.7)"),
    "bool": ((2, 1, 1, True),
             "piece 1 must be a pair of ints: expected an integer, got (1, True)"),
    "list": ([1, 1, 1, 0], _NOT_A_TUPLE + "[1, 1, 1, 0]"),
    "odd-length": ((1, 1, 1), _NOT_A_TUPLE + "(1, 1, 1)"),
    "empty": ((), _NOT_A_TUPLE + "()"),
    "rank-0": ((0, 1, 1, 0), "piece 0 has nonpositive rank 0"),
    "equal-slopes": ((1, 2, 1, 1, 2, 2), "slopes must strictly decrease: violated at piece 2"),
    "rising-slopes": ((1, 0, 1, 1), "slopes must strictly decrease: violated at piece 1"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_types_are_refused(name):
    pieces, message = MALFORMED[name]
    for call in (lambda: stratum_codim(pieces, 2), lambda: stratum_series(2, pieces, 4)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_codim_examples():
    assert stratum_codim((1, 1, 1, 0), 2) == 2
    assert stratum_codim((1, 2, 1, -1), 2) == 4
    assert stratum_codim((2, 3, 1, 0), 3) == 7
    assert stratum_codim((1, 1), 5) == 0
    with pytest.raises(ValueError):
        stratum_codim((1, 1, 1, 0), 0)


def test_codim_agrees_with_slope_form():
    # Same number through rational arithmetic: codim is a sum over pairs of
    # r_i r_j ((slope_j - slope_i) + g - 1) for j < i.
    rng = random.Random(23)
    for _ in range(150):
        t = _random_type(rng)
        for genus in (1, 2, 3):
            expected = Fraction(0)
            pieces = _pairs(t)
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
                for row in type_rows(rank, degree, genus, 20):
                    codim, t = row[0], row[1:]
                    pieces = _pairs(t)
                    pairwise = sum(
                        pieces[i][0] * pieces[j][1]
                        - pieces[j][0] * pieces[i][1]
                        + pieces[i][0] * pieces[j][0] * (genus - 1)
                        for i in range(len(pieces))
                        for j in range(i)
                    )
                    assert stratum_codim(t, genus) == pairwise == codim, (genus, pieces)


def test_enumerate_examples():
    assert type_rows(1, 5, 2, 40) == []
    assert type_rows(2, 1, 2, 4) == [(2, 1, 1, 1, 0), (4, 1, 2, 1, -1)]
    assert type_rows(2, 0, 2, 3) == [(3, 1, 1, 1, -1)]


def test_enumerate_memory_does_not_grow_with_the_budget():
    # The walk keeps a bucket per codimension reached, not one per unit of
    # budget: a million-unit budget with nothing to list stays small.
    tracemalloc.start()
    try:
        assert type_rows(1, 5, 2, 10**6) == []
        assert len(type_rows(2, 1, 2, 10**3)) == 500
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_enumerate_leaves_no_cyclic_garbage():
    # The recursive walk must not keep its buckets of rows alive in a
    # reference cycle once the list is returned and dropped.
    gc.collect()
    gc.disable()
    try:
        rows = type_rows(4, 1, 2, 12)
        assert len(rows) == 9
        del rows
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_rejects_genus_zero():
    with pytest.raises(ValueError):
        type_rows(2, 1, 0, 5)
    with pytest.raises(ValueError):
        type_rows(0, 1, 2, 5)
    with pytest.raises(ValueError):
        type_rows(2, 1, 2, -1)
    # range() would raise TypeError deep in the walk, and True would pass as 1.
    for args in ((2.0, 1, 2, 5), (2, 1.5, 2, 5), (2, 1, 2, 5.0), (2, True, 2, 5)):
        with pytest.raises(ValueError, match="expected an integer"):
            type_rows(*args)


def test_enumerate_entries_are_valid():
    for rank, degree in ((2, 1), (3, -2), (4, 3)):
        for row in type_rows(rank, degree, 2, 10):
            codim, t = row[0], row[1:]
            assert sum(t[::2]) == rank
            assert sum(t[1::2]) == degree
            assert len(t) >= 4  # two pieces or more
            assert stratum_codim(t, 2) == codim <= 10


def test_enumerate_is_sorted_and_prefix_monotone():
    # type_rows emits (codim, pieces) order from its walk, sorting no types.
    for genus in (1, 2, 3):
        for rank in range(1, 8):
            for degree in range(-rank, rank + 1):
                big = type_rows(rank, degree, genus, 20)
                keyed = [(stratum_codim(row[1:], genus), row[1:]) for row in big]
                assert [codim for codim, _ in keyed] == [row[0] for row in big]
                assert keyed == sorted(keyed), (genus, rank, degree)
                for budget in range(20):
                    within = sum(codim <= budget for codim, _ in keyed)
                    small = type_rows(rank, degree, genus, budget)
                    assert small == big[:within], (genus, rank, degree, budget)


def test_enumerate_matches_brute_force():
    # One scan per (genus, rank, degree) at the largest budget, cut down to
    # each budget by codimension.  The degrees cover every class mod 2 and 4.
    for genus in (1, 2, 3):
        for rank, budgets in ((2, (0, 4, 9)), (3, (0, 4, 9)), (4, (0, 4, 9, 12))):
            for degree in (-2, 0, 1, 3):
                scanned = {
                    pieces: stratum_codim(pieces, genus)
                    for pieces in brute_force_types(rank, degree, genus, budgets[-1])
                }
                for budget in budgets:
                    got = {row[1:] for row in type_rows(rank, degree, genus, budget)}
                    want = {pieces for pieces, c in scanned.items() if c <= budget}
                    assert got == want, (genus, rank, degree, budget)


def _one_call_per_node(rank, degree, genus, max_codim):
    """The rows (codim, r1, d1, ..., rk, dk) from the walk with one call per node.

    The walk as type_rows ran it before it emitted the type of a rank-1 rest
    in the parent, rank-1 rests included; kept as the reference for emission
    order.
    """
    buckets = {}

    def walk(R, D, cap_d, cap_r, budget, codim, prefix):
        for r1 in range(1, R):
            base = r1 * (R - r1) * (genus - 1) - r1 * D
            d_hi = min((budget - base) // R, (cap_d * r1 - 1) // cap_r)
            for d1 in range(r1 * D // R + 1, d_hi + 1):
                c1 = R * d1 + base
                walk(R - r1, D - d1, d1, r1, budget - c1, codim + c1, prefix + (r1, d1))
        buckets.setdefault(codim, []).append(prefix + (R, D))

    walk(rank, degree, abs(degree) + max_codim + 1, 1, max_codim, 0, ())
    return [(codim,) + pieces for codim in sorted(buckets)[1:] for pieces in buckets[codim]]


def test_enumerate_matches_the_walk_with_one_call_per_node():
    # The same rows in the same order: emitting a rank-1 rest's type in the
    # parent changes neither what is listed nor where.
    for genus in (1, 2, 3):
        for rank in range(1, 9):
            for degree in range(-3, 4):
                got = type_rows(rank, degree, genus, 40)
                assert got == _one_call_per_node(rank, degree, genus, 40), (genus, rank, degree)


def test_enumerated_types_are_valid_through_the_public_constructor():
    # type_rows builds its rows without the check that stratum_codim and
    # stratum_series make on a type.  Every row's tail must still pass that
    # check, with int entries, and give the row's codimension.
    for genus in (1, 2, 3):
        for rank in range(1, 8):
            for degree in range(-3, 7):
                for budget in (0, 5, 20, 40):
                    for row in type_rows(rank, degree, genus, budget):
                        assert all(type(x) is int for x in row)
                        assert stratum_codim(row[1:], genus) == row[0]


def test_enumerate_types_is_the_hntype_view_of_type_rows():
    # Each flat row (codim, r1, d1, ..., rk, dk) of type_rows is an int tuple
    # of odd length whose pairs ((r1, d1), ..., (rk, dk)) are a Harder-Narasimhan
    # type of (rank, degree): two pieces or more, positive ranks, strictly
    # decreasing slopes, ranks and degrees summing to rank and degree.
    for genus in (1, 2, 3):
        for rank in range(1, 8):
            for degree in range(-3, 4):
                for budget in (0, 5, 40):
                    for row in type_rows(rank, degree, genus, budget):
                        assert type(row) is tuple and len(row) % 2 == 1
                        assert all(type(x) is int for x in row)
                        pieces = _pairs(row[1:])
                        assert len(pieces) >= 2
                        assert all(r > 0 for r, _ in pieces)
                        assert all(d0 * r1 > d1 * r0
                                   for (r0, d0), (r1, d1) in zip(pieces, pieces[1:]))
                        assert sum(r for r, _ in pieces) == rank
                        assert sum(d for _, d in pieces) == degree, (genus, rank, degree, budget)


def test_enumerate_twist_bijection():
    # Tensoring by a degree-1 line bundle shifts each piece degree by its rank.
    for rank, degree, budget in ((2, 1, 8), (3, 2, 9), (4, -1, 10)):
        base = type_rows(rank, degree, 3, budget)
        shifted = type_rows(rank, degree + rank, 3, budget)
        mapped = [
            tuple(x for r, d in _pairs(row[1:]) for x in (r, d + r)) for row in base
        ]
        assert mapped == [row[1:] for row in shifted]
        assert [stratum_codim(row[1:], 3) for row in base] == [
            stratum_codim(row[1:], 3) for row in shifted
        ] == [row[0] for row in base] == [row[0] for row in shifted]
