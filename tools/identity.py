"""Byte-identity of the CLI: one sha256 per subcommand over a fixed request grid.

Each request of the grid runs in-process through hnbetti.cli.run, with stdout
and stderr captured, and adds (argv, exit code, stdout, stderr) to its group's
digest.  The grid covers all six subcommands in all four formats, and the
invalid requests that exit 2: the package's own "error: ..." lines and those
of argparse.  For an argparse usage error, only the exit code and stdout are
hashed: argparse's wording and line wrapping depend on the Python release
and on COLUMNS.  Requests without a subcommand form the group "hnbetti".

Two more groups run ssseries and betti on a temp --cache-dir, cold and then
warm, and hash the cache files written, by name and bytes.  Each then gives
one file another key's contents and runs that key again with --strict-cache,
so that a "cache warning:" line and exit 4 are hashed too.

    python3 tools/identity.py           # digests, each marked same or moved
    python3 tools/identity.py --write   # re-take tests/identity.json

Without --write, the exit status is 1 when a digest or a request count
differs from tests/identity.json.  tests/test_identity.py recomputes the
digests in tier-1.  What an in-process run cannot see (cli.main's collector,
digit limit and closed-pipe handling) is left to the subprocess tests of
tests/test_cli.py.  Standard library only.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "tests" / "identity.json"
FORMATS = ("text", "json", "latex", "csv")


def _flags(command, **values):
    argv = [command]
    for name, value in values.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    return argv


def _valid():
    """The requests that answer, each in all four formats, by subcommand."""
    grid = {
        "sympoly": [_flags("sympoly", genus=g, points=m) for g in range(5) for m in range(7)],
        "divpoly": [
            _flags("divpoly", genus=g, rank=r, deg=n, twist=k)
            for g in range(4) for r in range(1, 5) for n in range(-2, 4) for k in range(4)
            if 0 <= r * k - n <= 8
        ],
        "divseries": [
            _flags("divseries", genus=g, rank=r, truncate=t)
            for g in range(4) for r in range(1, 6) for t in (0, 7, 20)
        ],
        "polygons": [
            _flags("polygons", genus=g, rank=r, deg=n, max_codim=c)
            for g in range(1, 4) for r in range(1, 7) for n in (-1, 0, 1, 3) for c in (0, 3, 12)
        ],
        "ssseries": [
            _flags("ssseries", genus=g, rank=r, deg=n, truncate=12)
            for g in range(1, 4) for r in range(1, 6) for n in range(-2, 4)
        ],
        "betti": [
            _flags("betti", genus=g, rank=r, deg=n)
            for g in range(1, 4) for r in range(1, 6) for n in range(-2, 5) if gcd(r, n) == 1
        ],
    }
    return {
        command: [argv + ["--format", f] for argv in requests for f in FORMATS]
        for command, requests in grid.items()
    }


# Requests that exit 2, the package's own errors and then argparse usage
# errors; and --version, which exits 0.
_INVALID = {
    "hnbetti": [[], ["--version"], ["nosuch"], ["--genus", "2"]],
    "sympoly": [
        _flags("sympoly", genus=-1, points=0),
        _flags("sympoly", genus=2, points=-1),
        ["sympoly", "--genus", "2"],
        ["sympoly", "--genus", "two", "--points", "1"],
    ],
    "divpoly": [
        _flags("divpoly", genus=2, rank=2, deg=5, twist=1),
        _flags("divpoly", genus=2, rank=0, deg=0, twist=1),
        _flags("divpoly", genus=2, rank=2, deg=0, twist=-1),
        _flags("divpoly", genus=2, rank=2, deg=1) + ["--format", "yaml"],
    ],
    "divseries": [
        _flags("divseries", genus=2, rank=2, truncate=-1),
        _flags("divseries", genus=-1, rank=2, truncate=4),
        _flags("divseries", genus=2, rank=0, truncate=4),
        _flags("divseries", genus=2, rank=2, truncate=4) + ["--cache-dir", "x"],
    ],
    "polygons": [
        _flags("polygons", genus=0, rank=2, deg=1, max_codim=4),
        _flags("polygons", genus=2, rank=0, deg=1, max_codim=4),
        _flags("polygons", genus=2, rank=2, deg=1, max_codim=-1),
        ["polygons", "--genus", "2", "--rank", "2", "--deg", "1.5", "--max-codim", "4"],
    ],
    "ssseries": [
        _flags("ssseries", genus=0, rank=2, deg=1, truncate=4),
        _flags("ssseries", genus=2, rank=2, deg=1, truncate=-1),
        _flags("ssseries", genus=2, rank=0, deg=1, truncate=4),
        _flags("ssseries", genus=2, rank=2, deg=1),
    ],
    "betti": [
        _flags("betti", genus=2, rank=2, deg=0),
        _flags("betti", genus=2, rank=4, deg=2),
        _flags("betti", genus=0, rank=2, deg=1),
        _flags("betti", genus=2, rank=0, deg=1),
        _flags("betti", genus=2, rank=2, deg=1) + ["--truncate", "4"],
    ],
}

# The requests of the cache passes, run in this order, cold and then warm: an
# order below the cached one is served by truncation, one above recomputes.
_CACHED = {
    "ssseries": [
        _flags("ssseries", genus=g, rank=r, deg=n, truncate=t)
        for g in (1, 2) for r in range(1, 5) for n in (-1, 0, 1, 2) for t in (8, 4, 12)
    ],
    "betti": [
        _flags("betti", genus=g, rank=r, deg=n)
        for g in (1, 2) for r in range(1, 5) for n in (-1, 1, 3) if gcd(r, n) == 1
    ],
}


def _record(digest, argv, run, shown=None):
    """Run argv through cli.run and add what it did to digest, under argv or shown."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    stderr = err.getvalue()
    if stderr.startswith("usage:"):  # argparse: its text varies with the Python release
        stderr = None
    line = json.dumps([shown or argv, code, out.getvalue(), stderr])
    digest.update(line.encode() + b"\n")


def _cache_pass(command, run):
    """The group's cold and warm runs on a temp cache dir, then a poisoned file."""
    digest = hashlib.sha256()
    requests = _CACHED[command]
    with tempfile.TemporaryDirectory() as cache:
        def cached(argv, *extra):
            # The temp dir's name varies from run to run: it is hashed as "<cache>".
            _record(digest, argv + ["--cache-dir", cache, *extra], run,
                    shown=argv + ["--cache-dir", "<cache>", *extra])

        for argv in requests + requests:
            cached(argv, "--format", "json")
        files = sorted(Path(cache).iterdir())
        for path in files:
            digest.update(json.dumps([path.name, path.read_text(encoding="utf-8")]).encode())
        # The last file, the last request's key, gets another key's document:
        # a warning, and exit 4 under --strict-cache.
        files[-1].write_bytes(files[0].read_bytes())
        cached(requests[-1], "--strict-cache")
        cached(requests[-1])
    return digest.hexdigest(), 2 * len(requests) + 2


def digests():
    """{group: {"requests": count, "sha256": hex}} for the whole grid."""
    from hnbetti.cli import run

    groups = {}
    valid = _valid()
    for command, invalid in _INVALID.items():
        digest = hashlib.sha256()
        requests = valid.get(command, []) + invalid
        for argv in requests:
            _record(digest, argv, run)
        groups[command] = {"requests": len(requests), "sha256": digest.hexdigest()}
    for command in _CACHED:
        sha, count = _cache_pass(command, run)
        groups[f"{command} --cache-dir"] = {"requests": count, "sha256": sha}
    return groups


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    found = digests()
    if argv == ["--write"]:
        COMMITTED.write_text(json.dumps(found, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {COMMITTED.relative_to(ROOT)}")
    elif argv:
        sys.exit("usage: python3 tools/identity.py [--write]")
    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))
    for name, group in found.items():
        mark = "same" if committed.get(name) == group else "moved"
        print(f"{group['sha256']}  {group['requests']:5d}  {mark:5}  {name}")
    return int(found != committed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
