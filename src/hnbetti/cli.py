"""Command-line interface.

Six subcommands over the library, sharing --format/--cache-dir/--strict-cache:

* sympoly    Poincare polynomial of a symmetric product of the curve
* divpoly    Poincare polynomial of a bounded matrix-divisor variety
* divseries  Poincare series of the matrix-divisor ind-variety
* polygons   proper Harder-Narasimhan types within a codimension budget
* ssseries   Poincare series of the semistable locus
* betti      checked Betti polynomial of the stable-bundle moduli space

Exit codes: 0 success; 2 invalid arguments (including non-coprime rank and
degree, genus 0 where the recursion needs genus >= 1, negative truncation);
3 internal structural check failure, with a diagnostic dump on stderr;
4 cache I/O warnings escalated by --strict-cache (the result is still printed).
Output for a given command line is byte-deterministic, warm or cold cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from ._version import __version__
from .genfun import div_finite_poly, div_stable_series, sym_product_poly
from .hnrec import MemoStore, ModuliQuery, StructuralCheckError, betti_poly, ss_series
from .render import OutputDocument, render
from .strata import enumerate_types

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3
EXIT_CACHE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnbetti",
        description="Exact Betti numbers of moduli of stable bundles on a curve.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json", "latex", "csv"),
            default="text",
            help="output format (default: text)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persistent series cache directory "
            "(default: $HNBETTI_CACHE_DIR if set, else no persistence)",
        )
        p.add_argument(
            "--strict-cache",
            action="store_true",
            help="treat cache I/O warnings as an error (exit 4)",
        )

    p = sub.add_parser("sympoly", help="Poincare polynomial of a symmetric product")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--points", type=int, required=True, help="symmetric power m")
    common(p)

    p = sub.add_parser(
        "divpoly", help="Poincare polynomial of a bounded matrix-divisor variety"
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument(
        "--twist", type=int, required=True, help="degree of the bounding divisor D"
    )
    common(p)

    p = sub.add_parser(
        "divseries", help="Poincare series of the matrix-divisor ind-variety"
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--truncate", type=int, required=True, help="truncation order")
    p.add_argument(
        "--deg",
        type=int,
        default=None,
        help="accepted and ignored: the series does not depend on the degree",
    )
    common(p)

    p = sub.add_parser(
        "polygons", help="proper Harder-Narasimhan types within a codimension budget"
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--max-codim", type=int, required=True)
    common(p)

    p = sub.add_parser("ssseries", help="Poincare series of the semistable locus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--truncate", type=int, required=True, help="truncation order")
    common(p)

    p = sub.add_parser(
        "betti", help="checked Betti polynomial of the stable-bundle moduli space"
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument(
        "--truncate",
        type=int,
        default=None,
        help="truncation order (default: 2*dim + 10; must be >= 2*dim)",
    )
    p.add_argument(
        "--skip-checks",
        action="store_true",
        help="emit the polynomial without structural verification; requires --unsafe",
    )
    p.add_argument(
        "--unsafe",
        action="store_true",
        help="confirm that skipping verification is intended",
    )
    common(p)

    return parser


def _execute(args: argparse.Namespace, memo: MemoStore) -> OutputDocument:
    if args.command == "sympoly":
        poly = sym_product_poly(args.genus, args.points)
        return OutputDocument(
            "polynomial", poly, genus=args.genus, degree=args.points
        )
    if args.command == "divpoly":
        poly = div_finite_poly(args.genus, args.rank, args.deg, args.twist)
        return OutputDocument(
            "polynomial", poly, genus=args.genus, rank=args.rank, degree=args.deg
        )
    if args.command == "divseries":
        series = div_stable_series(args.genus, args.rank, args.truncate)
        return OutputDocument("series", series, genus=args.genus, rank=args.rank)
    if args.command == "polygons":
        types = enumerate_types(args.rank, args.deg, args.genus, args.max_codim)
        return OutputDocument(
            "type-list",
            tuple(types),
            genus=args.genus,
            rank=args.rank,
            degree=args.deg,
        )
    if args.command == "ssseries":
        series = ss_series(
            ModuliQuery(args.genus, args.rank, args.deg, args.truncate), memo
        )
        return OutputDocument(
            "series", series, genus=args.genus, rank=args.rank, degree=args.deg
        )
    if args.command == "betti":
        if args.skip_checks and not args.unsafe:
            raise ValueError(
                "--skip-checks drops the structural guarantees; pass --unsafe as well "
                "to confirm"
            )
        report = betti_poly(
            ModuliQuery(args.genus, args.rank, args.deg, args.truncate),
            memo,
            verify=not args.skip_checks,
        )
        return OutputDocument(
            "betti-report",
            report,
            genus=args.genus,
            rank=args.rank,
            degree=args.deg,
        )
    raise ValueError(f"unknown command {args.command!r}")


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute, print the rendered document; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cache_dir = args.cache_dir or os.environ.get("HNBETTI_CACHE_DIR") or None
    memo = MemoStore(cache_dir)
    try:
        doc = _execute(args, memo)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StructuralCheckError as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        for key, value in exc.diagnostic.items():
            print(f"  {key}: {value}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(render(doc, args.format))
    for warning in memo.warnings:
        print(f"cache warning: {warning}", file=sys.stderr)
    if memo.warnings and args.strict_cache:
        return EXIT_CACHE
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
