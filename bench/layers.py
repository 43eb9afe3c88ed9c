"""In-process runs through ``hnbetti.cli.run``, traced or not.

Nothing in the package is edited.  While a Tracer is installed, each entry
point in ENTRY_POINTS is replaced, in every ``hnbetti`` module that holds it by
name, with a wrapper that records a span (name, start, end, parent, request
id) and updates exact counters from its arguments and result.  Spans are kept
in memory, one list per thread, and written out by ``write_spans``.
``uninstall`` puts the originals back.  An entry point the package no longer
has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import io
import sys
import threading
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


class _ThreadState:
    def __init__(self) -> None:
        # [name, start, end, parent index, request id, seconds spent in the hook]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.memos: list = []
        self.request = ""

    def parent_name(self) -> Optional[str]:
        return self.spans[self.stack[-1]][0] if self.stack else None


def _coeff_bits(st: _ThreadState, args: tuple, result) -> None:
    coeffs = getattr(result, "coefficients", ())
    if coeffs:
        st.max_bits = max(st.max_bits, max(max(coeffs), -min(coeffs)).bit_length())


def _series_mul(st: _ThreadState, args: tuple, result) -> None:
    if result is NotImplemented:
        return
    other = args[1]
    order = result.truncation_order
    if isinstance(other, int):
        madds = order + 1
    elif hasattr(other, "truncation_order"):
        madds = (order + 1) * (order + 2) // 2
    else:  # exact polynomial: row i of the product has order - i + 1 terms
        rows = min(len(other.coefficients), order + 1)
        madds = rows * (order + 1) - rows * (rows - 1) // 2
    st.counts["exactalg.series_mul.madds"] += madds
    _coeff_bits(st, args, result)


def _types(st: _ThreadState, args: tuple, result) -> None:
    st.counts["strata.types_enumerated"] += len(result)


def _memo_created(st: _ThreadState, args: tuple, result) -> None:
    st.memos.append(args[0])


def _memo_lookup(st: _ThreadState, args: tuple, result) -> None:
    st.counts["hnrec.memo.lookups"] += 1
    st.counts["hnrec.memo.hits"] += result is not None


def _file_read(st: _ThreadState, args: tuple, result) -> None:
    if st.parent_name() == "cache.lookup":
        st.counts["cache.read.files"] += 1
        st.counts["cache.read.bytes"] += len(args[0].encode("utf-8"))


def _file_written(st: _ThreadState, args: tuple, result) -> None:
    if st.parent_name() == "cache.store":
        st.counts["cache.write.files"] += 1
        st.counts["cache.write.bytes"] += len(result.encode("utf-8")) + 1


def _rendered(st: _ThreadState, args: tuple, result) -> None:
    st.counts["render.output_bytes"] += len(result.encode("utf-8")) + 1  # print's newline


# (module, attribute path, span name or None for counting only, counter hook)
ENTRY_POINTS: tuple[tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    ("hnbetti.cli", "run", "cli.run", None),
    ("hnbetti.exactalg", "TruncatedSeries.__mul__", "exactalg.series_mul", _series_mul),
    ("hnbetti.exactalg", "ExactPolynomial.__mul__", "exactalg.poly_mul", _coeff_bits),
    ("hnbetti.exactalg", "ExactPolynomial.inverse_series", "exactalg.inverse", _coeff_bits),
    ("hnbetti.genfun", "div_stable_series", "genfun.div_stable_series", None),
    ("hnbetti.strata", "enumerate_types", "strata.enumerate_types", _types),
    ("hnbetti.hnrec", "ss_series", "hnrec.ss_series", None),
    ("hnbetti.hnrec", "stratum_series", "hnrec.stratum_series", None),
    ("hnbetti.hnrec", "betti_poly", "hnrec.betti_poly", None),
    ("hnbetti.hnrec", "MemoStore.__init__", None, _memo_created),
    ("hnbetti.hnrec", "MemoStore.lookup", None, _memo_lookup),
    ("hnbetti.hnrec", "MemoStore._load_file", "cache.lookup", None),
    ("hnbetti.hnrec", "MemoStore._write_file", "cache.store", None),
    # MemoStore imports these two from the render module at call time.
    ("hnbetti.render", "parse_json", None, _file_read),
    ("hnbetti.render", "render_json", None, _file_written),
    ("hnbetti.render", "render", "render.render", _rendered),
)

# Per-layer metrics: timed spans report calls and self time.
TIMED = {
    "exactalg.series_mul": ("calls", "self_s"),
    "exactalg.poly_mul": ("calls", "self_s"),
    "exactalg.inverse": ("calls", "self_s"),
    "genfun.div_stable_series": ("calls", "self_s"),
    "strata.enumerate_types": ("calls", "self_s"),
    "hnrec.ss_series": ("calls", "self_s"),
    "hnrec.stratum_series": ("calls", "self_s"),
    "hnrec.betti_poly": ("self_s",),
    "cache.lookup": ("self_s",),
    "cache.store": ("self_s",),
    "render.render": ("calls", "self_s"),
}
COUNTED = {
    "exactalg.series_mul.madds": "count",
    "strata.types_enumerated": "count",
    "hnrec.memo.lookups": "count",
    "hnrec.memo.keys": "count",
    "cache.read.files": "count",
    "cache.read.bytes": "bytes",
    "cache.write.files": "count",
    "cache.write.bytes": "bytes",
    "cache.warnings": "count",
    "render.output_bytes": "bytes",
}


class Tracer:
    """Span and counter recorder for the entry points in ENTRY_POINTS."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def set_request(self, request_id: str) -> None:
        self._state().request = request_id

    def _wrap(self, fn: Callable, name: Optional[str], hook: Optional[Callable]) -> Callable:
        state = self._state

        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(state(), args, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            idx = len(st.spans)
            span = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1, st.request, 0.0]
            st.spans.append(span)
            st.stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                st.stack.pop()
            if hook is not None:
                # The hook's own time is in no span's self time.
                hook(st, args, result)
                end = perf_counter()
                span[5] = end - span[2]
                span[2] = end
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, hook in ENTRY_POINTS:
            owner: object = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(original, name, hook)
            if owners:  # a method: patch the class
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # A function: patch every module that imported it by name.
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "hnbetti" and not mod_name.startswith("hnbetti."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict[str, int]:
        """The exact counters: these must repeat on a rerun of the same requests."""
        total: Counter = Counter()
        max_bits = 0
        for st in self._threads:
            total.update(st.counts)
            max_bits = max(max_bits, st.max_bits)
            for memo in st.memos:
                total["hnrec.memo.keys"] += len(getattr(memo, "_entries", ()))
                total["cache.warnings"] += len(getattr(memo, "warnings", ()))
            for span in st.spans:
                total[span[0] + ".calls"] += 1
        total["exactalg.max_coeff_bits"] = max_bits
        return dict(total)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration less its children's."""
        out: Counter = Counter()
        for st in self._threads:
            out.update(span_self_times(st.spans))
        return dict(out)

    def metrics(self) -> dict[str, tuple[float, str]]:
        counts = self.counts()
        selfs = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for span, kinds in TIMED.items():
            if "calls" in kinds:
                out[span + ".calls"] = (counts.get(span + ".calls", 0), "count")
            out[span + ".self_s"] = (selfs.get(span, 0.0), "s")
        for name, unit in COUNTED.items():
            out[name] = (counts.get(name, 0), unit)
        out["exactalg.max_coeff_bits"] = (counts["exactalg.max_coeff_bits"], "bits")
        lookups = counts.get("hnrec.memo.lookups", 0)
        hits = counts.get("hnrec.memo.hits", 0)
        out["hnrec.memo.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("thread,index,name,start_s,end_s,parent,request,hook_s\n")
            for t, st in enumerate(self._threads):
                for i, (name, start, end, parent, request, hook) in enumerate(st.spans):
                    fh.write(f"{t},{i},{name},{start:.9f},{end:.9f},{parent},{request},{hook:.9f}\n")


def span_self_times(spans: list) -> Counter:
    """Self time per name for one thread's spans: duration minus child coverage.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of it and their coverage is the sum of their durations.  Time spent in a
    span's counter hook is subtracted as well.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _, _, hook) in enumerate(spans):
        out[name] += end - start - child[i] - hook
    return out


class _ThreadStdout(io.TextIOBase):
    """A text stream that collects each thread's writes in its own buffer."""

    def __init__(self) -> None:
        self._local = threading.local()

    def begin(self) -> None:
        self._local.buffer = io.StringIO()

    def take(self) -> str:
        return self._local.buffer.getvalue()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        buffer = getattr(self._local, "buffer", None)
        return buffer.write(text) if buffer is not None else len(text)


def run_pass(
    clients: list[list[tuple[str, list[str]]]], tracer: Optional[Tracer] = None
) -> tuple[float, list[tuple[str, int, bytes]]]:
    """Run each client's (key, argv) list through cli.run, one thread per client.

    Returns the wall time of the pass and (key, exit code, stdout) per request.
    With a tracer, its wrappers are installed for the pass only.
    """
    cli = importlib.import_module("hnbetti.cli")
    results: list[list[tuple[str, int, bytes]]] = [[] for _ in clients]
    stdout, stderr = _ThreadStdout(), _ThreadStdout()

    def client(c: int) -> None:
        for i, (key, argv) in enumerate(clients[c]):
            if tracer is not None:
                tracer.set_request(f"{c}:{i}")
            stdout.begin()
            stderr.begin()
            try:
                code = cli.run(argv)
            except Exception:  # a crash is a failed request, not a dead client
                code = -1
                print(traceback.format_exc(), file=sys.__stderr__)
            results[c].append((key, code, stdout.take().encode("utf-8")))

    threads = [threading.Thread(target=client, args=(c,)) for c in range(len(clients))]
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seconds = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        sys.stdout, sys.stderr = saved
    return seconds, [r for per_client in results for r in per_client]
