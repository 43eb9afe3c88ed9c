"""Command-line interface.

Six subcommands over the library, each one row of one table, _COMMANDS: its
help string, the package name of its library function, and its required
integer flags.  A second table, _FLAGS, gives each integer flag the library
parameter it fills and its help string.  build_parser loops over _COMMANDS:
each subcommand gets its integer flags, then --format, and the two that can
cache a semistable series (_MEMO_COMMANDS: ssseries and betti) --cache-dir
and --strict-cache:

* sympoly    Poincare polynomial of a symmetric product of the curve
* divpoly    Poincare polynomial of a bounded matrix-divisor variety
* divseries  Poincare series of the matrix-divisor ind-variety
* polygons   proper Harder-Narasimhan types within a codimension budget
* ssseries   Poincare series of the semistable locus
* betti      checked Betti polynomial of the stable-bundle moduli space

Every betti answer has passed the structural checks of hnrec.betti_poly,
on its series to order 2*dim + hnrec.TRUNCATION_SLACK; no flag skips a check
or sets how far past t^(2*dim) the tail is checked.

Exit codes: 0 success; 1 stdout closed before the whole answer was written
(say, by `| head`), with nothing on stderr; 2 invalid arguments (including
non-coprime rank and degree, genus 0 where the recursion needs genus >= 1,
negative truncation); 3 internal structural check failure: nothing on
stdout, and on stderr a diagnostic dump naming the failed checks and
printing every coefficient of the collapsed series; 4 cache I/O warnings
escalated by --strict-cache (the result is still printed).
Output for a given command line is byte-deterministic, warm or cold cache.

The cache is the --cache-dir directory and nothing else: run builds a
hnrec.MemoStore only when the flag names one, and with no flag (or an empty
one) nothing is read or written and --strict-cache has nothing to escalate.

_execute has one path for every subcommand.  It reads the command's function
as hnbetti.<name> at each call (hnbetti._HOMES alone says where it lives, and
the package binds no name, so a patch of the home module is seen), calls it
by keyword with the flag values, plus memo= for the memo commands, and builds
one OutputDocument, whose kind the payload's class fixes; a list payload (the
rows of strata.type_rows) becomes a tuple.  Every command but sympoly (genus,
points) and divseries (genus, rank) carries (genus, rank, deg).  The document
is built with OutputDocument._trusted, which skips the checks meant for
library input: the payload is the library's own return value and the
metadata are argparse ints.
Each command imports only the modules it runs, after its arguments parse, so
--version, --help and a usage error load no layer of the library, and
polygons loads strata and render but no polynomial arithmetic.

main, the process entry point, turns the cyclic garbage collector off before
run: the process exits as soon as run returns, and what a request builds is
freed by reference counting (tests/test_cli.py checks that a larger request
leaves no more cyclic garbage than a small one).  Left on, the collector
would walk every live row of a large polygons request, over and over, to
free nothing.  main then freezes what start-up and the imports made
(gc.freeze), which moves it to the permanent generation: the one collection
CPython still runs at interpreter exit skips it, and finalization is kept,
unlike with os._exit.  main also lifts CPython's limit on int-to-decimal
conversion (sys.int_max_str_digits, 4300 digits by default): a valid request
can print or cache a coefficient longer than that, and str() would refuse it.  The limit
guards against parsing huge numbers from untrusted text; the only numbers this
process parses are its own arguments and its own cache files.  run itself
leaves the collector and the limit as it found them, so a library caller that
renders larger integers lifts the limit itself.  When the reader of stdout
goes away first, main exits 1 quietly, with no traceback from print.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__

if TYPE_CHECKING:
    from .hnrec import MemoStore
    from .render import OutputDocument

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_USAGE = 2
EXIT_CHECK_FAILURE = 3
EXIT_CACHE = 4


# Each subcommand, in --help order: its help string, the package name of its
# library function, and its required integer flags, in --help order.
_COMMANDS = {
    "sympoly": ("Poincare polynomial of a symmetric product",
                "sym_product_poly", ("genus", "points")),
    "divpoly": ("Poincare polynomial of a bounded matrix-divisor variety",
                "div_finite_poly", ("genus", "rank", "deg", "twist")),
    "divseries": ("Poincare series of the matrix-divisor ind-variety",
                  "div_stable_series", ("genus", "rank", "truncate")),
    "polygons": ("proper Harder-Narasimhan types within a codimension budget",
                 "type_rows", ("genus", "rank", "deg", "max-codim")),
    "ssseries": ("Poincare series of the semistable locus",
                 "ss_series", ("genus", "rank", "deg", "truncate")),
    "betti": ("checked Betti polynomial of the stable-bundle moduli space",
              "betti_poly", ("genus", "rank", "deg")),
}

# Each integer flag: the library parameter it fills, and its help string.
_FLAGS = {
    "genus": ("genus", None),
    "rank": ("rank", None),
    "deg": ("degree", None),
    "points": ("points", "symmetric power m"),
    "twist": ("twist_degree", "degree of the bounding divisor D"),
    "truncate": ("order", "truncation order"),
    "max-codim": ("max_codim", None),
}

# The subcommands that can cache a semistable series, and so take the cache flags.
_MEMO_COMMANDS = ("ssseries", "betti")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnbetti",
        description="Exact Betti numbers of moduli of stable bundles on a curve.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, required=True, help=_FLAGS[flag][1])
        p.add_argument(
            "--format",
            choices=("text", "json", "latex", "csv"),
            default="text",
            help="output format (default: text)",
        )
        if name not in _MEMO_COMMANDS:
            continue
        p.add_argument(
            "--cache-dir",
            metavar="DIR",
            help="persistent series cache directory",
        )
        p.add_argument(
            "--strict-cache",
            action="store_true",
            help="treat cache I/O warnings as an error (exit 4)",
        )
    return parser


def _execute(args: argparse.Namespace, memo: Optional[MemoStore]) -> OutputDocument:
    from .render import OutputDocument

    _, name, flags = _COMMANDS[args.command]
    kwargs = {_FLAGS[flag][0]: getattr(args, flag.replace("-", "_")) for flag in flags}
    if args.command in _MEMO_COMMANDS:
        kwargs["memo"] = memo
    # Read through the package at each call, so a patch of the home module is seen.
    payload = getattr(sys.modules[__package__], name)(**kwargs)
    if type(payload) is list:  # type_rows' rows; a type list's payload is a tuple
        payload = tuple(payload)
    # sympoly's degree is its number of points; divseries has no degree.
    return OutputDocument._trusted(payload, args.genus, kwargs.get("rank"),
                                   kwargs.get("degree", kwargs.get("points")), __version__)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute, print the rendered document; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Only the memo commands run structural checks.  For the rest,
    # check_failure is an empty tuple of exception types: it catches nothing.
    memo, check_failure = None, ()
    if args.command in _MEMO_COMMANDS:
        from .hnrec import MemoStore, StructuralCheckError

        check_failure = StructuralCheckError
        if args.cache_dir:  # '' is no cache, as is no flag
            memo = MemoStore(args.cache_dir)
    try:
        doc = _execute(args, memo)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except check_failure as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        for key, value in exc.diagnostic.items():
            print(f"  {key}: {value}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    from .render import render

    print(render(doc, args.format))
    if memo is None:
        return EXIT_OK
    for warning in memo.warnings:
        print(f"cache warning: {warning}", file=sys.stderr)
    return EXIT_CACHE if memo.warnings and args.strict_cache else EXIT_OK


def main() -> None:
    # The collector, the digit limit and a closed stdout: see the module docstring.
    gc.disable()
    gc.freeze()
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7
        sys.set_int_max_str_digits(0)
    try:
        code = run()
        sys.stdout.flush()  # here, not at exit, so that a closed pipe is caught
    except BrokenPipeError:
        # The flush at exit would raise again: send what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_STDOUT_CLOSED
    sys.exit(code)


if __name__ == "__main__":
    main()
