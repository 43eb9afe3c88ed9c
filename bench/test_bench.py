"""Tests of the benchmark's own checks, tracer and statistics.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

DIGESTS = json.loads(run.DIGESTS.read_text())


def _stdout(args):
    _, results = layers.run_pass([[(run.key_of(args), list(args))]])
    key, code, out = results[0]
    assert code == 0
    return out


def _flip(stdout: bytes, index: int) -> bytes:
    doc = json.loads(stdout)
    doc["coefficients"][index] = str(int(doc["coefficients"][index]) + 1)
    return json.dumps(doc).encode()


def test_committed_outputs_pass_every_check():
    for args in (run._betti(2, 2, 1, "--strict-cache"), run._betti(3, 3, -2, "--strict-cache")):
        assert checks.request_failures(run.key_of(args), args, _stdout(args), DIGESTS) == []


def test_one_flipped_coefficient_is_caught():
    args = run._betti(2, 2, 1, "--strict-cache")
    bad = _flip(_stdout(args), 3)
    failures = checks.request_failures(run.key_of(args), args, bad, DIGESTS)
    assert "stdout digest mismatch" in failures
    assert "not divisible by (1+t)^(2g)" in failures
    assert "rank-2 oracle mismatch" in failures


def test_every_flip_is_caught_by_arithmetic_alone():
    # Rank 3 has no oracle; the Jacobian-factor division still catches any flip.
    args = run._betti(2, 3, 1, "--strict-cache")
    good = _stdout(args)
    assert checks.output_failures(args, good) == []
    for i in range(len(json.loads(good)["coefficients"])):
        assert checks.output_failures(args, _flip(good, i)), i


def test_palindromic_flip_is_caught():
    args = run._betti(2, 3, 1, "--strict-cache")
    good = _stdout(args)
    top = len(json.loads(good)["coefficients"]) - 1
    bad = _flip(_flip(good, 4), top - 4)
    assert "not divisible by (1+t)^(2g)" in checks.output_failures(args, bad)


def test_non_betti_output_is_checked_by_digest():
    args = run.WORKLOADS["polygons-deep"].requests[0]
    assert checks.request_failures(run.key_of(args), args, b"codim 1: (1;1)(1;0)\n", DIGESTS) == [
        "stdout digest mismatch"
    ]


def test_self_time_subtracts_children_and_hooks():
    spans = [
        ["outer", 0.0, 10.0, -1, "r", 0.0],
        ["inner", 1.0, 4.0, 0, "r", 0.5],
        ["inner", 5.0, 6.0, 0, "r", 0.0],
        ["leaf", 2.0, 3.0, 1, "r", 0.0],
    ]
    assert layers.span_self_times(spans) == {"outer": 6.0, "inner": 2.5, "leaf": 1.0}


def test_traced_counts_repeat_and_originals_are_restored():
    import hnbetti.hnrec

    original = hnbetti.hnrec.ss_series
    clients = [[("k", ["betti", "--genus", "2", "--rank", "3", "--deg", "1"])]]
    first, second = layers.Tracer(), layers.Tracer()
    layers.run_pass(clients, first)
    layers.run_pass(clients, second)
    assert hnbetti.hnrec.ss_series is original
    assert first.counts() == second.counts()
    metrics = first.metrics()
    assert metrics["exactalg.series_mul.calls"][0] > 0
    assert metrics["strata.types_enumerated"][0] > 0
    assert metrics["render.render.calls"][0] == 1
    assert metrics["cache.write.files"][0] == 0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    for n in (20, 21, 320, 400):
        p = run.tail_percentile(n)
        samples = list(range(n))
        assert sum(s > run.tail_value(samples, p) for s in samples) >= 10
    assert run.tail_value([3.0, 1.0, 2.0], None) == 3.0
