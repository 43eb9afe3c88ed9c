"""Semistable recursion, Betti polynomials, rank-2 oracle, memo store."""

import itertools
import json
import math

import pytest

from hnbetti import hnrec
from hnbetti.exactalg import ExactPolynomial, TruncatedSeries
from hnbetti.genfun import div_stable_ranks, div_stable_series
from hnbetti.hnrec import (
    MemoStore,
    StructuralCheckError,
    betti_poly,
    dim_moduli,
    rank2_oracle,
    ss_series,
    stratum_series,
)
from hnbetti.strata import HNType, enumerate_types, stratum_codim

ONE_MINUS_T2 = ExactPolynomial.from_terms({0: 1, 2: -1})


def test_query_validation():
    # Genus, then rank, then degree, then (ss_series only) order, each named
    # in its error; betti_poly checks all three before coprimality.
    for call, order in ((ss_series, (-1,)), (betti_poly, ())):
        with pytest.raises(ValueError, match="genus must be an integer >= 1"):
            call(0, 0, 1.5, *order)
        with pytest.raises(ValueError, match="rank must be an integer >= 1"):
            call(2, 0, 1.5, *order)
        with pytest.raises(ValueError, match="degree must be an integer"):
            call(2, 2, 1.5, *order)
    with pytest.raises(ValueError, match="truncation order must be an integer >= 0"):
        ss_series(2, 2, 2, -1)
    # betti_poly takes no order: one passed where it stood is refused, not
    # taken for the memo.
    with pytest.raises(TypeError):
        betti_poly(2, 2, 1, 20)
    with pytest.raises(TypeError):
        betti_poly(2, 2, 1, order=20)


def test_dim_moduli():
    assert dim_moduli(2, 1) == 2
    assert dim_moduli(2, 2) == 5
    assert dim_moduli(3, 2) == 9
    assert dim_moduli(1, 4) == 1
    with pytest.raises(ValueError):
        dim_moduli(0, 2)


def test_ss_series_examples():
    assert ss_series(2, 1, 0, 3).coefficients == (1, 4, 7, 8)
    assert ss_series(2, 2, 1, 3).coefficients == (1, 4, 8, 16)
    for genus, rank, degree in ((1, 1, 0), (2, 2, 1), (3, 3, 2)):
        assert ss_series(genus, rank, degree, 6).coefficient(0) == 1


def test_ss_series_rank_one_is_divisor_series():
    for genus in (1, 2, 3):
        for degree in (-2, 0, 5):
            got = ss_series(genus, 1, degree, 12)
            assert got.coefficients == div_stable_series(genus, 1, 12).coefficients


def test_ss_series_agrees_with_divisor_series_below_first_stratum():
    for genus, rank, degree in ((2, 2, 1), (2, 3, 1), (3, 2, 0)):
        order = 14
        ss = ss_series(genus, rank, degree, order)
        div = div_stable_series(genus, rank, order)
        types = enumerate_types(rank, degree, genus, order)
        assert all(stratum_codim(t, genus) == codim for codim, t in types)
        first = min(2 * stratum_codim(t, genus) for _, t in types)
        assert ss.coefficients[:first] == div.coefficients[:first]
        assert ss.coefficients[first] != div.coefficients[first]


def test_ss_series_prefix_stability():
    long = ss_series(2, 3, 1, 24)
    for order in (0, 5, 11, 24):
        short = ss_series(2, 3, 1, order)
        assert short.coefficients == long.coefficients[: order + 1]


def test_ss_series_twist_invariance():
    for genus, rank, degree in ((2, 2, 1), (2, 3, 2), (3, 2, -1)):
        # No cache on either side, so a stored series cannot mask a gap.
        lhs = ss_series(genus, rank, degree, 16)
        rhs = ss_series(genus, rank, degree + rank, 16)
        assert lhs.coefficients == rhs.coefficients


def test_ss_series_nonnegative_coefficients():
    for genus, rank, degree in ((1, 2, 1), (2, 2, 1), (2, 3, -1), (3, 2, 1)):
        series = ss_series(genus, rank, degree, 20)
        assert all(c >= 0 for c in series.coefficients)


def composition_reference(genus, rank, degree, order):
    """P_ss(rank, degree) term by term over the 2^(rank-1) compositions of rank.

    The plain form of the sum the hnrec module docstring derives: e from its
    formula, each 1/(1 - t^a) by inverse_series, no DP and no running sums.
    """
    d = degree % rank
    div = {part: div_stable_series(genus, part, order) for part in range(1, rank + 1)}
    total = TruncatedSeries((0,) * (order + 1), order)
    for cuts in itertools.product((False, True), repeat=rank - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        k = len(parts)
        partial = list(itertools.accumulate(parts))
        e = 2 * (genus - 1) * sum(a * b for a, b in itertools.combinations(parts, 2))
        for i in range(k - 1):
            e += 2 * (parts[i] + parts[i + 1]) * (partial[i] * d // rank + 1)
        if k > 1:
            e -= 2 * d * partial[k - 2]
            assert e >= 1, (genus, rank, degree, parts)
        if e > order:
            continue
        term = TruncatedSeries.one(order - e)
        for part in parts:
            term = term * div[part].truncate(order - e)
        for i in range(k - 1):
            step = 2 * (parts[i] + parts[i + 1])
            term = term * ExactPolynomial.from_terms({0: 1, step: -1}).inverse_series(order - e)
        total = total + (term * ExactPolynomial(((-1) ** (k - 1),))).times_t_power(e)
    return total


def test_ss_series_matches_composition_reference():
    for genus in range(1, 5):
        for rank in range(1, 8):
            for order in (0, 1, 17, 36):
                want = {d: composition_reference(genus, rank, d, order) for d in range(rank)}
                for degree in range(-rank, rank + 1):
                    got = ss_series(genus, rank, degree, order)
                    assert got.coefficients == want[degree % rank].coefficients, (
                        genus, rank, degree, order)


def test_ss_series_duality():
    # Dualizing sends degree n to -n, so both twist classes d and rank - d
    # give one series through different floors and final shifts.  ss_series
    # computes only the smaller class, so the DP is called on both directly.
    for genus in range(1, 4):
        for rank in range(1, 7):
            for degree in range(rank):
                lhs = hnrec._composition_sum(genus, rank, degree, 30)
                rhs = hnrec._composition_sum(genus, rank, -degree % rank, 30)
                assert lhs.coefficients == rhs.coefficients, (genus, rank, degree)


def test_stratum_series_examples():
    assert stratum_series(2, HNType(((1, 1), (1, 0))), 2).coefficients == (1, 8, 30)
    assert stratum_series(2, HNType(((2, 1),)), 1).coefficients == (1, 4)


def test_betti_examples(tmp_path):
    report = betti_poly(2, 1, 0)
    assert report.polynomial.coefficients == (1, 4, 6, 4, 1)
    assert report.moduli_dimension == 2
    # The structural checks, re-run on the answer: degree exactly 2*dim,
    # palindromic, nonnegative, and b_1 = 2g.
    betti = report.polynomial.coefficients
    assert report.polynomial.degree == 2 * report.moduli_dimension
    assert betti == betti[::-1]
    assert min(betti) >= 0
    assert betti[1] == 2 * 2

    report = betti_poly(3, 1, 0)
    assert report.polynomial.coefficients == tuple(math.comb(6, k) for k in range(7))

    memo = MemoStore(tmp_path)
    report = betti_poly(2, 2, 1, memo=memo)
    assert report.polynomial.coefficients == (1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1)
    assert report.moduli_dimension == 5
    # The series was computed to 2*dim + TRUNCATION_SLACK, and no further.
    order = 2 * report.moduli_dimension + hnrec.TRUNCATION_SLACK
    assert memo.lookup(2, 2, 1, order) is not None
    assert memo.lookup(2, 2, 1, order + 1) is None


def test_betti_rejects_common_factor():
    with pytest.raises(ValueError, match="coprime"):
        betti_poly(2, 2, 2)
    with pytest.raises(ValueError, match="coprime"):
        betti_poly(2, 3, 0)


def _hard_lefschetz(betti, dim):
    return all(betti[i] <= betti[i + 2] for i in range(dim - 1))


@pytest.mark.parametrize(
    "genus, rank, degree",
    [(g, r, d) for g in (2, 3) for r in range(2, 6) for d in range(1, r) if math.gcd(r, d) == 1],
)
def test_betti_fixed_determinant_quotient_and_hard_lefschetz(genus, rank, degree):
    # P(N) = (1+t)^(2g) P(N_0), N_0 the smooth projective fixed-determinant
    # moduli space (Atiyah-Bott 1983, section 9); hard Lefschetz holds on both.
    report = betti_poly(genus, rank, degree)
    dim = report.moduli_dimension
    betti = report.polynomial.coefficients
    fixed = report.polynomial.divide_exact(ExactPolynomial.from_terms({0: 1, 1: 1}) ** (2 * genus))
    quotient = fixed.coefficients
    assert fixed.degree == 2 * (dim - genus)
    assert fixed.is_palindromic()
    assert all(c >= 0 for c in quotient)
    assert quotient[:4] == (1, 0, 1, 2 * genus)
    assert _hard_lefschetz(betti, dim)
    assert _hard_lefschetz(quotient, dim - genus)


def test_betti_structural_failure_carries_diagnostic(tmp_path):
    # Poison the cache file with a well-formed but wrong series: the checks
    # must catch it and the diagnostic must name what failed.
    good = ss_series(2, 2, 1, 20)
    bad = list(good.coefficients)
    bad[3] += 1
    MemoStore(tmp_path).store(2, 2, 1, TruncatedSeries(tuple(bad), 20))
    assert [p.name for p in tmp_path.iterdir()] == ["ss_g2_r2_n1.json"]
    with pytest.raises(StructuralCheckError) as err:
        betti_poly(2, 2, 1, memo=MemoStore(tmp_path))
    assert "palindromic" in err.value.diagnostic["failed_checks"]
    assert err.value.diagnostic["rank"] == 2


def test_rank2_oracle_examples():
    collapsed = rank2_oracle(2, 1, 10) * ONE_MINUS_T2
    assert collapsed.coefficients == (1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1)
    assert (rank2_oracle(2, 3, 10) * ONE_MINUS_T2).coefficients == collapsed.coefficients
    assert (rank2_oracle(1, 1, 4) * ONE_MINUS_T2).coefficients == (1, 2, 1, 0, 0)


def test_rank2_oracle_validation():
    with pytest.raises(ValueError, match="odd"):
        rank2_oracle(2, 2, 10)
    with pytest.raises(ValueError):
        rank2_oracle(0, 1, 10)


def test_rank2_oracle_matches_recursion():
    # Orders below 2*genus, where no stratum is subtracted, included.
    for genus in (1, 2, 3):
        for order in (0, 2 * genus - 1, 2 * dim_moduli(genus, 2) + 10):
            for degree in (1, 3, -1):
                main = ss_series(genus, 2, degree, order)
                oracle = rank2_oracle(genus, degree, order)
                assert main.coefficients == oracle.coefficients


def test_memo_store_is_a_directory():
    # The store is the cache directory and nothing else: with no directory
    # there is no store, and ss_series(..., memo=None) caches nothing.
    with pytest.raises(TypeError):
        MemoStore()


def test_memo_disk_roundtrip(tmp_path):
    warm = MemoStore(tmp_path)
    computed = ss_series(2, 2, 1, 10, warm)
    assert (tmp_path / "ss_g2_r2_n1.json").exists()
    assert not warm.warnings

    cold = MemoStore(tmp_path)
    served = cold.lookup(2, 2, 1, 10)
    assert served.coefficients == computed.coefficients
    # Shorter requests reuse the same file; longer ones miss.
    assert cold.lookup(2, 2, 1, 4).coefficients == computed.coefficients[:5]
    assert MemoStore(tmp_path).lookup(2, 2, 1, 11) is None


def test_memo_survives_corrupt_cache_file(tmp_path):
    seed = MemoStore(tmp_path)
    good = ss_series(2, 1, 0, 9, seed)
    path = tmp_path / "ss_g2_r1_n0.json"
    path.write_text("{ not json", encoding="utf-8")

    store = MemoStore(tmp_path)
    assert store.lookup(2, 1, 0, 9) is None
    assert len(store.warnings) == 1
    assert "ss_g2_r1_n0.json" in store.warnings[0]
    # Recomputing through the store heals the file.
    again = ss_series(2, 1, 0, 9, store)
    assert again.coefficients == good.coefficients
    assert MemoStore(tmp_path).lookup(2, 1, 0, 9).coefficients == good.coefficients


def test_memo_rejects_mismatched_file_metadata(tmp_path):
    store = MemoStore(tmp_path)
    ss_series(2, 1, 0, 6, store)
    path = tmp_path / "ss_g2_r1_n0.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["degree"] = 5  # metadata no longer matches the file name
    path.write_text(json.dumps(data), encoding="utf-8")

    fresh = MemoStore(tmp_path)
    assert fresh.lookup(2, 1, 0, 6) is None
    assert any("does not match" in w for w in fresh.warnings)


def test_strata_recursion_matches_type_enumeration(tmp_path):
    # The Harder-Narasimhan recursion, type by type: P_Div minus the
    # composition sum must be the sum over enumerated types, each stratum a
    # product of semistable series.  One memo store serves all degrees, so
    # twist-shifted keys get exercised.  The types come from
    # strata.enumerate_types, which test_enumerate_matches_brute_force checks.
    for genus in (1, 2, 3):
        memo = MemoStore(tmp_path)
        for rank in range(1, 6):
            for degree in (-4, -1, 0, 1, 2, 5):
                for order in (6, 17, 40, 61):
                    got = div_stable_series(genus, rank, order) - ss_series(
                        genus, rank, degree, order, memo
                    )
                    want = TruncatedSeries((0,) * (order + 1), order)
                    for codim, hn_type in enumerate_types(rank, degree, genus, order // 2):
                        shift = 2 * stratum_codim(hn_type, genus)
                        assert shift == 2 * codim
                        piece = stratum_series(genus, hn_type, order - shift, memo)
                        want = want + piece.times_t_power(shift)
                    assert got.coefficients == want.coefficients, (genus, rank, degree, order)
        assert not memo.warnings


class _RecordingMemo(MemoStore):
    def __init__(self, cache_dir):
        super().__init__(cache_dir)
        self.written = []

    def _write_file(self, genus, rank, degree, series):
        self.written.append((rank, degree))
        super()._write_file(genus, rank, degree, series)


def test_warm_cache_classes_are_loaded_not_rebuilt_or_rewritten(tmp_path, monkeypatch):
    # A cold run writes the requested class only; a warm run loads it, with
    # no ind-variety series computed and nothing written.
    cold = _RecordingMemo(tmp_path)
    want = ss_series(2, 5, 1, 40, cold)
    assert cold.written == [(5, 1)]
    builds = []

    def counted(genus, rank, order):
        builds.append(rank)
        return div_stable_ranks(genus, rank, order)

    monkeypatch.setattr(hnrec, "div_stable_ranks", counted)
    warm = _RecordingMemo(tmp_path)
    assert ss_series(2, 5, 1, 40, warm).coefficients == want.coefficients
    assert builds == []
    assert warm.written == []
    assert not warm.warnings
