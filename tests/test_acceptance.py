"""Acceptance suite: one test per external criterion, exact equality throughout.

Every comparison is exact integer equality (tolerance zero).  Each test prints
one PASS line on success; a failure shows up as an ordinary pytest failure for
that criterion.  Run with ``pytest -v tests/test_acceptance.py`` (add -s to see
the PASS lines while running).
"""

import json
import math
import subprocess
import sys
import time

from hnbetti.exactalg import ExactPolynomial
from hnbetti.genfun import div_finite_poly, div_stable_series, residue_series
from hnbetti.hnrec import (
    MemoStore,
    ModuliQuery,
    betti_poly,
    dim_moduli,
    rank2_oracle,
    ss_series,
    stratum_series,
)
from hnbetti.strata import enumerate_types, stratum_codim

from test_strata import brute_force_types

ONE_MINUS_T2 = ExactPolynomial.from_terms({0: 1, 2: -1})

MODULI_G2_R2_N1 = (1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hnbetti", *args],
        capture_output=True,
        timeout=120,
    )


def test_criterion_1_rank_one_closed_loop():
    budget = 1.0
    for genus in (1, 2, 3, 5):
        start = time.monotonic()
        proc = _cli(
            "betti", "--genus", str(genus), "--rank", "1", "--deg", "0",
            "--format", "json",
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        expected = [str(math.comb(2 * genus, i)) for i in range(2 * genus + 1)]
        assert data["coefficients"] == expected
        assert data["dimension"] == genus
        assert elapsed < budget, f"genus {genus} took {elapsed:.2f}s"
    print("[criterion 1] PASS rank-1 moduli are the Jacobians, (1+t)^(2g) exactly")


def test_criterion_2_rank_two_oracle():
    start = time.monotonic()
    for genus in (2, 3):
        dim = dim_moduli(genus, 2)
        order = 2 * dim + 10
        for degree in (1, 3, -1):
            main = ss_series(ModuliQuery(genus, 2, degree, order), MemoStore())
            oracle = rank2_oracle(genus, degree, order)
            assert main.coefficients == oracle.coefficients
            collapsed = oracle * ONE_MINUS_T2
            assert not any(collapsed.coefficients[2 * dim + 1 :])
            poly = betti_poly(ModuliQuery(genus, 2, degree)).polynomial
            assert poly.coefficients == collapsed.coefficients[: 2 * dim + 1]
            if genus == 2:
                assert poly.coefficients == MODULI_G2_R2_N1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    print("[criterion 2] PASS recursion equals the closed-form rank-2 oracle, g=2,3")


def test_criterion_3_residue_equals_closed_form():
    start = time.monotonic()
    for genus in (1, 2, 3):
        for rank in (1, 2, 3, 4):
            lhs = residue_series(genus, rank, 40)
            rhs = div_stable_series(genus, rank, 40)
            assert lhs.coefficients == rhs.coefficients
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    print("[criterion 3] PASS residue route equals the closed form to order 40")


def test_criterion_4_finite_level_stabilization():
    start = time.monotonic()
    for genus, rank, degree in ((2, 2, 1), (2, 3, 1), (3, 2, 1)):
        deviated = False
        for twist in range(2, 9):
            bound = rank * twist - degree
            finite = div_finite_poly(genus, rank, degree, twist)
            stable = div_stable_series(genus, rank, 2 * bound)
            assert all(
                finite.coefficient(i) == stable.coefficient(i) for i in range(bound)
            )
            if any(
                finite.coefficient(i) != stable.coefficient(i)
                for i in range(bound, 2 * bound + 1)
            ):
                deviated = True
        assert deviated, f"bound never active for {(genus, rank, degree)}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    print("[criterion 4] PASS finite levels stabilize exactly below rank*degD - n")


def test_criterion_5_stratification_additivity():
    start = time.monotonic()
    for genus, rank, degree in ((2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1)):
        order = 2 * dim_moduli(genus, rank) + 10
        memo = MemoStore()
        total = ss_series(ModuliQuery(genus, rank, degree, order), memo)
        for codim, hn_type in enumerate_types(rank, degree, genus, order // 2):
            shift = 2 * stratum_codim(hn_type, genus)
            assert shift == 2 * codim
            piece = stratum_series(genus, hn_type, order - shift, memo)
            total = total + piece.times_t_power(shift)
        closed = div_stable_series(genus, rank, order)
        assert total.coefficients == closed.coefficients
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"{elapsed:.2f}s"
    print("[criterion 5] PASS semistable plus shifted strata rebuilds the closed form")


def test_criterion_6_enumeration_completeness():
    start = time.monotonic()
    checked = 0
    for rank in (1, 2, 3):
        for degree in range(-3, 4):
            for budget in range(13):
                got = {
                    t.pieces for _, t in enumerate_types(rank, degree, 2, budget)
                }
                assert got == brute_force_types(rank, degree, 2, budget)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    print(f"[criterion 6] PASS enumeration matches brute force on {checked} domains")


def test_criterion_7_structural_checks_across_grid():
    degrees_by_rank = {1: (0, 1), 2: (1, 3, -1), 3: (1, 2, -1), 4: (1, 3, -1)}
    for genus in (1, 2, 3):
        memo = MemoStore()
        for rank in (1, 2, 3, 4):
            for degree in degrees_by_rank[rank]:
                start = time.monotonic()
                report = betti_poly(ModuliQuery(genus, rank, degree), memo)
                elapsed = time.monotonic() - start
                assert report.checks.all_pass()
                assert report.polynomial.degree == 2 * dim_moduli(genus, rank)
                if rank == 4:
                    assert elapsed < 60.0, f"{(genus, rank, degree)}: {elapsed:.2f}s"
    print("[criterion 7] PASS all structural checks hold for r <= 4, g <= 3")


def test_criterion_8_byte_deterministic_cli(tmp_path):
    args = (
        "betti", "--genus", "2", "--rank", "3", "--deg", "1",
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    cold = _cli(*args)
    warm = _cli(*args)
    assert cold.returncode == warm.returncode == 0, cold.stderr + warm.stderr
    assert cold.stdout == warm.stdout
    assert any(tmp_path.iterdir()), "warm run should have had a populated cache"
    print("[criterion 8] PASS cold and warm cache runs are byte-identical")
