"""hnbetti benchmark: three workloads, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload betti-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload betti-cold --seed 1 --seconds 30 --trace 1

With ``--trace 0`` every request is a ``python -m hnbetti`` subprocess, timed
from outside; the run prints the end-to-end metrics.  With ``--trace 1`` the
same requests go through ``hnbetti.cli.run`` in this process, once untraced
and twice traced (see layers.py); the run prints the per-layer metrics and the
tracing overhead.  Either way every output is checked after the timed region
(see checks.py), and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1 if
an output check failed, 2 if the package cannot be set up, else 0.

``--write-digests`` records the stdout digest of every request in
digests.json, after checking the outputs arithmetically; ``--out FILE`` adds
the full record of the run to FILE (see BENCH_seed.json).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402

DIGESTS = BENCH / "digests.json"
SETUPS_PER_ROUND = 3
STARTUPS = 5
REQUEST_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    clients: int
    min_passes: int  # also fixes the tail percentile, from the fewest samples a run can have
    uses_cache: bool
    requests: tuple[tuple[str, ...], ...]


def _betti(genus: int, rank: int, deg: int, *extra: str) -> tuple[str, ...]:
    return ("betti", "--genus", str(genus), "--rank", str(rank), "--deg", str(deg),
            "--format", "json", *extra)


def _polygons(rank: int, deg: int, genus: int, codim: int, fmt: str) -> tuple[str, ...]:
    return ("polygons", "--rank", str(rank), "--deg", str(deg), "--genus", str(genus),
            "--max-codim", str(codim), "--format", fmt)


SWEEP = tuple(
    _betti(g, r, n, "--strict-cache")
    for g in (2, 3)
    for r in (2, 3, 4)
    for n in range(-2 * r, 2 * r + 1)
    if math.gcd(r, n) == 1
)

WORKLOADS = {
    "betti-cold": Workload(
        clients=1,
        min_passes=2,
        uses_cache=False,
        requests=tuple(
            _betti(*c) for c in ((3, 5, 1), (3, 6, 1), (4, 5, 1), (5, 5, 2), (2, 8, 1))
        ),
    ),
    "polygons-deep": Workload(
        clients=1,
        min_passes=7,
        uses_cache=False,
        requests=(
            _polygons(8, 1, 2, 120, "text"),
            _polygons(10, 1, 2, 120, "json"),
            _polygons(7, 3, 3, 150, "csv"),
        ),
    ),
    # cache-serial and cache-sweep send the same 40 requests to one cache dir.
    # cache-serial has one client, so no request fails.  cache-sweep has two
    # clients in the same order, which hits the temp-file write race: its
    # failures are set by the race and differ from run to run.
    "cache-serial": Workload(clients=1, min_passes=2, uses_cache=True, requests=SWEEP),
    "cache-sweep": Workload(clients=2, min_passes=2, uses_cache=True, requests=SWEEP),
}


def key_of(args: tuple[str, ...]) -> str:
    return " ".join(args)


def tail_percentile(samples: int) -> int | None:
    """Highest whole percentile (>= 50) with at least ten samples beyond it."""
    for p in range(99, 49, -1):
        if samples - math.ceil(p * samples / 100) >= 10:
            return p
    return None


def tail_value(values: list[float], p: int | None) -> float:
    """Nearest-rank percentile p of values; the maximum when p is None."""
    ordered = sorted(values)
    if p is None:
        return ordered[-1]
    return ordered[math.ceil(p * len(ordered) / 100) - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "commit": git_commit(),
        "seed": seed,
    }


def child_env(package_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HNBETTI_CACHE_DIR"}
    env["PYTHONPATH"] = str(package_dir)
    return env


def set_up(dest: Path) -> float:
    """Copy the package source to dest and start it once; returns the seconds taken.

    The first start byte-compiles the copy, so this is what a fresh install
    costs before its first answer.
    """
    start = perf_counter()
    shutil.copytree(
        ROOT / "src" / "hnbetti",
        dest / "hnbetti",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "hnbetti", "--version"],
        env=child_env(dest),
        cwd=dest,
        capture_output=True,
        timeout=REQUEST_TIMEOUT_S,
    )
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up start failed: {proc.stderr.decode(errors='replace')}")
    return seconds


def set_up_round(work: Path, setups: list[float]) -> None:
    """Adds SETUPS_PER_ROUND more set-up times to setups.

    A timed run does a round before every pass and after the last, so that
    setup_s samples the host over the whole run, not over one second of it.
    """
    for _ in range(SETUPS_PER_ROUND):
        setups.append(set_up(work / f"setup{len(setups)}"))


def request_lists(
    wl: Workload, rng: random.Random, cache_dir: Path
) -> list[list[tuple[str, list[str]]]]:
    """One (key, argv) list per client: one shuffled order, the same for every client."""
    order = list(wl.requests)
    rng.shuffle(order)
    extra = ["--cache-dir", str(cache_dir)] if wl.uses_cache else []
    one = [(key_of(args), list(args) + extra) for args in order]
    return [list(one) for _ in range(wl.clients)]


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def subprocess_pass(
    clients: list[list[tuple[str, list[str]]]], package_dir: Path
) -> tuple[float, float, list[tuple[str, int, bytes, float]]]:
    """One closed-loop pass, a thread per client; returns wall s, child CPU s, results."""
    env = child_env(package_dir)
    results: list[list[tuple[str, int, bytes, float]]] = [[] for _ in clients]

    def client(c: int) -> None:
        for key, argv in clients[c]:
            start = perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "hnbetti", *argv],
                    env=env,
                    cwd=package_dir,
                    capture_output=True,
                    timeout=REQUEST_TIMEOUT_S,
                )
                code, out = proc.returncode, proc.stdout
            except (OSError, subprocess.SubprocessError):  # timed out or did not start
                code, out = -1, b""
            results[c].append((key, code, out, perf_counter() - start))

    threads = [threading.Thread(target=client, args=(c,)) for c in range(len(clients))]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, [r for per_client in results for r in per_client]


class Outcome:
    """Requests attempted, failed (nonzero exit or failed check) and check failures."""

    def __init__(self, wl: Workload) -> None:
        self.args = {key_of(a): a for a in wl.requests}
        self.digests = json.loads(DIGESTS.read_text())
        self.attempted = 0
        self.failed = 0
        self.exit_codes: dict[int, int] = {}
        self.check_failures: list[str] = []

    def record(self, key: str, code: int, stdout: bytes) -> None:
        self.attempted += 1
        bad = checks.request_failures(key, self.args[key], stdout, self.digests)
        if bad:
            self.check_failures.append(f"{key}: {', '.join(bad)}")
        if code != 0:
            self.exit_codes[code] = self.exit_codes.get(code, 0) + 1
        if bad or code != 0:
            self.failed += 1


def end_to_end(wl: Workload, seed: int, seconds: float, package_dir: Path, work: Path,
               outcome: Outcome, setups: list[float]) -> tuple[dict, dict]:
    cache_dir = work / "cache"
    rng = random.Random(seed)
    walls, cpus, times = [], [], []
    while len(walls) < wl.min_passes or sum(walls) + statistics.median(walls) <= seconds:
        # A new order each pass: on cache-sweep the order decides which series
        # are found on disk, so one order per run would tie the numbers to the seed.
        clients = request_lists(wl, rng, cache_dir)
        if wl.uses_cache:
            fresh_dir(cache_dir)
        set_up_round(work, setups)
        wall, cpu, results = subprocess_pass(clients, package_dir)
        walls.append(wall)
        cpus.append(cpu)
        for key, code, out, t in results:
            times.append(t)
            outcome.record(key, code, out)
    set_up_round(work, setups)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    p = tail_percentile(wl.min_passes * len(wl.requests) * wl.clients)
    metrics = {
        "pass_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "request_p50_s": (statistics.median(times), "s"),
        "request_tail_s": (tail_value(times, p), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {
        "passes": len(walls),
        "pass_s_all": walls,
        "requests": len(times),
        "request_tail": f"p{p}" if p is not None else "max",
        "failed_share": outcome.failed / outcome.attempted,
        "exit_codes": outcome.exit_codes,
    }
    return metrics, detail


def traced(wl: Workload, seed: int, package_dir: Path, work: Path, outcome: Outcome,
           spans_path: Path) -> tuple[dict, dict]:
    env = child_env(package_dir)
    startups = []
    for _ in range(STARTUPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-m", "hnbetti", "--version"], env=env,
                       cwd=package_dir, capture_output=True, timeout=REQUEST_TIMEOUT_S)
        startups.append(perf_counter() - start)

    cache_dir = work / "cache"
    clients = request_lists(wl, random.Random(seed), cache_dir)  # one order for all three
    walls, counts = [], []
    metrics = {"cli.startup_s": (statistics.median(startups), "s")}
    for traced_run in (False, True, True):
        tracer = layers.Tracer() if traced_run else None
        fresh_dir(cache_dir)
        wall, results = layers.run_pass(clients, tracer)
        walls.append(wall)
        for key, code, out in results:
            outcome.record(key, code, out)
        if tracer is None:
            continue
        if not counts:  # the first traced run gives the numbers and the spans
            metrics.update(tracer.metrics())
            tracer.write_spans(spans_path)
        counts.append(tracer.counts())
        del tracer  # its spans are large; keep one tracer alive at a time
    metrics["trace.overhead_s"] = (statistics.mean(walls[1:]) - walls[0], "s")
    first, second = counts
    repeat = first == second
    if wl.clients > 1:
        verdict = "exempt: two writers race on one cache dir" + ("" if repeat else " (differed)")
    else:
        verdict = "yes" if repeat else "NO"
        if not repeat:
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            outcome.check_failures.append(f"counters differ between traced runs: {diff}")
    detail = {
        "untraced_pass_s": walls[0],
        "traced_pass_s": walls[1:],
        "startup_samples": len(startups),
        "counters_repeat": verdict,
        "spans": str(spans_path.relative_to(ROOT)),
        "failed_share": outcome.failed / outcome.attempted,
        "exit_codes": outcome.exit_codes,
    }
    return metrics, detail


def write_digests(work: Path) -> int:
    digests = {}
    for name, wl in WORKLOADS.items():
        for args in wl.requests:
            extra = ["--cache-dir", str(work / "cache")] if wl.uses_cache else []
            proc = subprocess.run([sys.executable, "-m", "hnbetti", *args, *extra],
                                  env=child_env(work), cwd=work, capture_output=True,
                                  timeout=REQUEST_TIMEOUT_S)
            bad = checks.output_failures(args, proc.stdout)
            if proc.returncode != 0 or bad:
                print(f"{name}: {key_of(args)}: exit {proc.returncode} {bad}", file=sys.stderr)
                return 1
            digests[key_of(args)] = checks.digest(proc.stdout)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="add the full record of the run to this JSON file")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "hnbetti" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'hnbetti'}", file=sys.stderr)
        return 2
    os.environ.pop("HNBETTI_CACHE_DIR", None)

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    fresh_dir(work)
    try:
        if args.write_digests:
            set_up(work)
            sys.path.insert(0, str(work))
            return write_digests(work)
        env = environment(args.seed)
        wl = WORKLOADS[args.workload]
        try:
            setups = [set_up(work / "setup0")]
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: cannot set up the package: {exc}", file=sys.stderr)
            return 2
        package_dir = work / "setup0"
        sys.path.insert(0, str(package_dir))
        outcome = Outcome(wl)
        if args.trace:
            spans = ROOT / ".bench_work" / "spans" / f"{args.workload}.csv"  # the latest run only
            metrics, detail = traced(wl, args.seed, package_dir, work, outcome, spans)
        else:
            metrics, detail = end_to_end(wl, args.seed, args.seconds, package_dir, work, outcome,
                                         setups)
            metrics["setup_s"] = (statistics.median(setups), "s")
        env["loadavg_after"] = list(os.getloadavg())
        detail["setup_samples"] = len(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not outcome.check_failures
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    metrics = dict(sorted(metrics.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(f"  {'failed_share':34s} {detail['failed_share']:>16.6g} "
          f"({outcome.failed} of {outcome.attempted}; exit codes {outcome.exit_codes})")
    if not args.trace:
        print(f"  pass_s and cpu_s: medians of {detail['passes']} passes; request_tail_s: "
              f"{detail['request_tail']} of {detail['requests']} requests; "
              f"setup_s: median of {len(setups)} set-ups")
    print("detail " + json.dumps(detail))
    for failure in outcome.check_failures[:20]:
        print(f"CHECK FAILED {failure}")
    if args.out is not None:
        record = json.loads(args.out.read_text()) if args.out.is_file() else {}
        record[f"{args.workload}/trace{args.trace}"] = {
            "environment": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "correct": correct,
            "detail": detail,
        }
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
