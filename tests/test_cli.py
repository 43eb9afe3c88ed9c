"""CLI contract: subcommands, formats, exit codes, cache behaviour."""

import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hnbetti
from hnbetti.cli import _COMMANDS, _FLAGS, _MEMO_COMMANDS, run
from hnbetti.render import parse_json

BETTI_G2_R2_N1 = "1 + 4t + 7t^2 + 12t^3 + 24t^4 + 32t^5 + 24t^6 + 12t^7 + 7t^8 + 4t^9 + t^10"


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_text(capsys):
    code, out, err = _run(capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1")
    assert code == 0
    assert out == f"{BETTI_G2_R2_N1}  (dim 5, checks: all pass)\n"
    assert err == ""


def test_betti_json(capsys):
    code, out, _ = _run(
        capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "betti-report"
    assert data["coefficients"][5] == "32"
    assert data["dimension"] == 5
    assert data["genus"] == 2


def test_sympoly_and_divpoly(capsys):
    code, out, _ = _run(capsys, "sympoly", "--genus", "2", "--points", "1")
    assert code == 0
    assert out == "1 + 4t + t^2  (genus 2, deg 1)\n"

    code, out, _ = _run(
        capsys, "divpoly", "--genus", "2", "--rank", "2", "--deg", "1", "--twist", "1"
    )
    assert code == 0
    assert out == "1 + 4t + 2t^2 + 4t^3 + t^4  (genus 2, rank 2, deg 1)\n"

    code, out, _ = _run(
        capsys, "sympoly", "--genus", "2", "--points", "2", "--format", "latex"
    )
    assert out == "1 + 4t + 7t^{2} + 4t^{3} + t^{4}\n"


def test_polygons_csv(capsys):
    code, out, _ = _run(
        capsys, "polygons", "--genus", "2", "--rank", "2", "--deg", "1",
        "--max-codim", "4", "--format", "csv",
    )
    assert code == 0
    assert out == "2,(1;1)(1;0)\n4,(1;2)(1;-1)\n"


# The polygons-deep benchmark requests and the sha256 of their stdout, as
# recorded in bench/digests.json: a change in order or formatting shows here.
POLYGONS_DEEP = {
    ("8", "1", "2", "120", "text"):
        "75ce60cdddcb795c67a36f53b9c1b3926b4fd710569241d3acd589c7f594bc04",
    ("10", "1", "2", "120", "json"):
        "24e2a88bb15c5d194b8711df2b2eec5651f689d07fec7401bf17b626e6cae13a",
    ("7", "3", "3", "150", "csv"):
        "df445fb9158167aa002ccac420c838d481b07e68dcc0e2e0734b32c253cf0754",
}


@pytest.mark.parametrize("request_args", POLYGONS_DEEP, ids=lambda args: args[-1])
def test_polygons_deep_stdout_is_pinned(capsys, request_args):
    rank, deg, genus, codim, fmt = request_args
    code, out, err = _run(capsys, "polygons", "--rank", rank, "--deg", deg, "--genus", genus,
                          "--max-codim", codim, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == POLYGONS_DEEP[request_args]


# One small request of each subcommand in each of the four formats, with the
# text format as the default, and the usage errors: command line -> (exit
# code, stdout, stderr), byte for byte.
PINNED_RUNS = {
    "sympoly-text": (
        "sympoly --genus 2 --points 2", 0,
        "1 + 4t + 7t^2 + 4t^3 + t^4  (genus 2, deg 2)\n",
        "",
    ),
    "sympoly-json": (
        "sympoly --genus 2 --points 2 --format json", 0,
        '{"kind": "polynomial", "genus": 2, "rank": null, "degree": 2, "variable": '
        '"t", "coefficients": ["1", "4", "7", "4", "1"], "truncation": null, '
        '"dimension": null, "checks": null, "version": "0.1.0"}\n',
        "",
    ),
    "sympoly-latex": (
        "sympoly --genus 2 --points 2 --format latex", 0,
        "1 + 4t + 7t^{2} + 4t^{3} + t^{4}\n",
        "",
    ),
    "sympoly-csv": (
        "sympoly --genus 2 --points 2 --format csv", 0,
        "0,1\n1,4\n2,7\n3,4\n4,1\n",
        "",
    ),
    "divpoly-text": (
        "divpoly --genus 2 --rank 2 --deg 1 --twist 1", 0,
        "1 + 4t + 2t^2 + 4t^3 + t^4  (genus 2, rank 2, deg 1)\n",
        "",
    ),
    "divpoly-json": (
        "divpoly --genus 2 --rank 2 --deg 1 --twist 1 --format json", 0,
        '{"kind": "polynomial", "genus": 2, "rank": 2, "degree": 1, "variable": '
        '"t", "coefficients": ["1", "4", "2", "4", "1"], "truncation": null, '
        '"dimension": null, "checks": null, "version": "0.1.0"}\n',
        "",
    ),
    "divpoly-latex": (
        "divpoly --genus 2 --rank 2 --deg 1 --twist 1 --format latex", 0,
        "1 + 4t + 2t^{2} + 4t^{3} + t^{4}\n",
        "",
    ),
    "divpoly-csv": (
        "divpoly --genus 2 --rank 2 --deg 1 --twist 1 --format csv", 0,
        "0,1\n1,4\n2,2\n3,4\n4,1\n",
        "",
    ),
    "divseries-text": (
        "divseries --genus 2 --rank 2 --truncate 4", 0,
        "1 + 4t + 8t^2 + 16t^3 + 33t^4 + O(t^5)  (genus 2, rank 2)\n",
        "",
    ),
    "divseries-json": (
        "divseries --genus 2 --rank 2 --truncate 4 --format json", 0,
        '{"kind": "series", "genus": 2, "rank": 2, "degree": null, "variable": '
        '"t", "coefficients": ["1", "4", "8", "16", "33"], "truncation": 4, '
        '"dimension": null, "checks": null, "version": "0.1.0"}\n',
        "",
    ),
    "divseries-latex": (
        "divseries --genus 2 --rank 2 --truncate 4 --format latex", 0,
        "1 + 4t + 8t^{2} + 16t^{3} + 33t^{4} + O(t^{5})\n",
        "",
    ),
    "divseries-csv": (
        "divseries --genus 2 --rank 2 --truncate 4 --format csv", 0,
        "0,1\n1,4\n2,8\n3,16\n4,33\n",
        "",
    ),
    "polygons-text": (
        "polygons --genus 2 --rank 3 --deg 1 --max-codim 6", 0,
        "codim 3: (2;1)(1;0)\ncodim 4: (1;1)(2;0)\ncodim 6: (2;2)(1;-1)\n(3 types; "
        "genus 2, rank 3, deg 1)\n",
        "",
    ),
    "polygons-json": (
        "polygons --genus 2 --rank 3 --deg 1 --max-codim 6 --format json", 0,
        '{"kind": "type-list", "genus": 2, "rank": 3, "degree": 1, "variable": '
        '"t", "coefficients": null, "truncation": null, "dimension": null, '
        '"checks": null, "version": "0.1.0", "types": [{"codim": 3, "pieces": [[2, '
        '1], [1, 0]]}, {"codim": 4, "pieces": [[1, 1], [2, 0]]}, {"codim": 6, '
        '"pieces": [[2, 2], [1, -1]]}]}\n',
        "",
    ),
    "polygons-latex": (
        "polygons --genus 2 --rank 3 --deg 1 --max-codim 6 --format latex", 0,
        "\\left[(2;1)(1;0)\\right]_{3},\\ \\left[(1;1)(2;0)\\right]_{4},\\ "
        "\\left[(2;2)(1;-1)\\right]_{6}\n",
        "",
    ),
    "polygons-csv": (
        "polygons --genus 2 --rank 3 --deg 1 --max-codim 6 --format csv", 0,
        "3,(2;1)(1;0)\n4,(1;1)(2;0)\n6,(2;2)(1;-1)\n",
        "",
    ),
    "ssseries-text": (
        "ssseries --genus 2 --rank 2 --deg 1 --truncate 6", 0,
        "1 + 4t + 8t^2 + 16t^3 + 32t^4 + 48t^5 + 56t^6 + O(t^7)  (genus 2, rank 2, "
        "deg 1)\n",
        "",
    ),
    "ssseries-json": (
        "ssseries --genus 2 --rank 2 --deg 1 --truncate 6 --format json", 0,
        '{"kind": "series", "genus": 2, "rank": 2, "degree": 1, "variable": "t", '
        '"coefficients": ["1", "4", "8", "16", "32", "48", "56"], "truncation": 6, '
        '"dimension": null, "checks": null, "version": "0.1.0"}\n',
        "",
    ),
    "ssseries-latex": (
        "ssseries --genus 2 --rank 2 --deg 1 --truncate 6 --format latex", 0,
        "1 + 4t + 8t^{2} + 16t^{3} + 32t^{4} + 48t^{5} + 56t^{6} + O(t^{7})\n",
        "",
    ),
    "ssseries-csv": (
        "ssseries --genus 2 --rank 2 --deg 1 --truncate 6 --format csv", 0,
        "0,1\n1,4\n2,8\n3,16\n4,32\n5,48\n6,56\n",
        "",
    ),
    "betti-text": (
        "betti --genus 2 --rank 2 --deg 1", 0,
        "1 + 4t + 7t^2 + 12t^3 + 24t^4 + 32t^5 + 24t^6 + 12t^7 + 7t^8 + 4t^9 + "
        "t^10  (dim 5, checks: all pass)\n",
        "",
    ),
    "betti-json": (
        "betti --genus 2 --rank 2 --deg 1 --format json", 0,
        '{"kind": "betti-report", "genus": 2, "rank": 2, "degree": 1, "variable": '
        '"t", "coefficients": ["1", "4", "7", "12", "24", "32", "24", "12", "7", '
        '"4", "1"], "truncation": 20, "dimension": 5, "checks": {"tail_vanishes": '
        'true, "degree_matches_2dim": true, "palindromic": true, "nonnegative": '
        'true}, "version": "0.1.0"}\n',
        "",
    ),
    "betti-latex": (
        "betti --genus 2 --rank 2 --deg 1 --format latex", 0,
        "1 + 4t + 7t^{2} + 12t^{3} + 24t^{4} + 32t^{5} + 24t^{6} + 12t^{7} + "
        "7t^{8} + 4t^{9} + t^{10}\n",
        "",
    ),
    "betti-csv": (
        "betti --genus 2 --rank 2 --deg 1 --format csv", 0,
        "0,1\n1,4\n2,7\n3,12\n4,24\n5,32\n6,24\n7,12\n8,7\n9,4\n10,1\n",
        "",
    ),
    "usage-non-coprime": (
        "betti --genus 2 --rank 2 --deg 2", 2,
        "",
        "error: rank and degree must be coprime (gcd(2, 2) = 2); otherwise stable "
        "and semistable bundles differ\n",
    ),
    "usage-genus-0": (
        "betti --genus 0 --rank 2 --deg 1", 2,
        "",
        "error: genus must be an integer >= 1, got 0\n",
    ),
    "usage-unknown-flag": (
        "sympoly --genus 2 --points 2 --colour", 2,
        "",
        "usage: hnbetti [-h] [--version]\n               "
        "{sympoly,divpoly,divseries,polygons,ssseries,betti} ...\nhnbetti: error: "
        "unrecognized arguments: --colour\n",
    ),
    # Every betti answer is checked: there is no flag to skip the checks.
    "usage-skip-checks": (
        "betti --genus 2 --rank 2 --deg 1 --skip-checks", 2,
        "",
        "usage: hnbetti [-h] [--version]\n               "
        "{sympoly,divpoly,divseries,polygons,ssseries,betti} ...\nhnbetti: error: "
        "unrecognized arguments: --skip-checks\n",
    ),
    "usage-skip-checks-unsafe": (
        "betti --genus 2 --rank 2 --deg 1 --skip-checks --unsafe", 2,
        "",
        "usage: hnbetti [-h] [--version]\n               "
        "{sympoly,divpoly,divseries,polygons,ssseries,betti} ...\nhnbetti: error: "
        "unrecognized arguments: --skip-checks --unsafe\n",
    ),
    # Every betti answer is computed to 2*dim + TRUNCATION_SLACK: no flag
    # sets how far past t^(2*dim) the tail is checked.
    "usage-betti-truncate": (
        "betti --genus 2 --rank 2 --deg 1 --truncate 10", 2,
        "",
        "usage: hnbetti [-h] [--version]\n               "
        "{sympoly,divpoly,divseries,polygons,ssseries,betti} ...\nhnbetti: error: "
        "unrecognized arguments: --truncate 10\n",
    ),
    # Only ssseries and betti keep a memo, so only they take the cache flags.
    "usage-polygons-cache-flags": (
        "polygons --genus 2 --rank 8 --deg 1 --max-codim 120 --cache-dir /nonexistent/x "
        "--strict-cache", 2,
        "",
        "usage: hnbetti [-h] [--version]\n               "
        "{sympoly,divpoly,divseries,polygons,ssseries,betti} ...\nhnbetti: error: "
        "unrecognized arguments: --cache-dir /nonexistent/x --strict-cache\n",
    ),
    # The ind-variety series does not depend on the degree.
    "usage-divseries-deg": (
        "divseries --genus 2 --rank 2 --truncate 3 --deg 99", 2,
        "",
        "usage: hnbetti [-h] [--version]\n               "
        "{sympoly,divpoly,divseries,polygons,ssseries,betti} ...\nhnbetti: error: "
        "unrecognized arguments: --deg 99\n",
    ),
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_stdout_stderr_and_exit_code_are_pinned(capsys, monkeypatch, name):
    # argparse wraps its usage text to $COLUMNS, else to the terminal's width.
    monkeypatch.setenv("COLUMNS", "80")
    command_line, *expected = PINNED_RUNS[name]
    assert list(_run(capsys, *command_line.split())) == expected


def test_ssseries_json_roundtrip(capsys):
    code, out, _ = _run(
        capsys, "ssseries", "--genus", "2", "--rank", "2", "--deg", "1",
        "--truncate", "6", "--format", "json",
    )
    assert code == 0
    doc = parse_json(out)
    assert doc.kind == "series"
    assert doc.payload.coefficients[:4] == (1, 4, 8, 16)


def test_exit_2_invalid_arguments(capsys):
    code, _, err = _run(capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "2")
    assert code == 2
    assert "coprime" in err

    code, _, err = _run(
        capsys, "ssseries", "--genus", "0", "--rank", "2", "--deg", "1", "--truncate", "5"
    )
    assert code == 2
    assert "genus" in err

    code, _, err = _run(
        capsys, "ssseries", "--genus", "2", "--rank", "2", "--deg", "1", "--truncate", "-5"
    )
    assert code == 2

    code, _, err = _run(capsys, "divpoly", "--genus", "2", "--rank", "2", "--deg", "9",
                        "--twist", "1")
    assert code == 2
    assert "empty" in err


def test_exit_2_argparse_errors(capsys):
    assert _run(capsys, "nosuchcommand")[0] == 2
    assert _run(capsys, "betti", "--genus", "2", "--rank", "2")[0] == 2
    assert _run(capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1",
                "--format", "html")[0] == 2


def test_exit_3_on_poisoned_cache(capsys, tmp_path):
    code, first, _ = _run(
        capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    path = tmp_path / "ss_g2_r2_n1.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    coeffs = [int(c) for c in data["coefficients"]]
    coeffs[3] += 1  # well-formed but mathematically wrong
    data["coefficients"] = [str(c) for c in coeffs]
    path.write_text(json.dumps(data), encoding="utf-8")

    code, out, err = _run(
        capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert out == ""
    assert "palindromic" in err
    assert "failed_checks" in err


def test_exit_3_on_nonzero_tail(capsys, tmp_path):
    # Coefficient 15 lies past 2 dim = 10, so only the tail check fails, and
    # the diagnostic names the first nonzero tail coefficient.
    argv = ("betti", "--genus", "2", "--rank", "2", "--deg", "1", "--cache-dir", str(tmp_path))
    assert _run(capsys, *argv)[0] == 0
    path = tmp_path / "ss_g2_r2_n1.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["coefficients"][15] = str(int(data["coefficients"][15]) + 1)
    path.write_text(json.dumps(data), encoding="utf-8")

    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "  failed_checks: ['tail_vanishes']\n" in err
    assert err.endswith("  first_nonzero_tail_index: 15\n")


def test_exit_4_strict_cache(capsys, tmp_path):
    (tmp_path / "ss_g2_r2_n1.json").write_text("{ not json", encoding="utf-8")
    code, out, err = _run(
        capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1",
        "--cache-dir", str(tmp_path), "--strict-cache",
    )
    assert code == 4
    assert "cache warning" in err
    # The result itself is still correct and printed.
    assert out.startswith(BETTI_G2_R2_N1)

    # Without --strict-cache the same situation is only a warning.
    (tmp_path / "ss_g2_r2_n1.json").write_text("{ not json", encoding="utf-8")
    code, out, err = _run(
        capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "cache warning" in err


MEMO_REQUESTS = {
    "betti": ("betti", "--genus", "2", "--rank", "3", "--deg", "1"),
    "ssseries": ("ssseries", "--genus", "2", "--rank", "5", "--deg", "3", "--truncate", "12"),
}


@pytest.mark.parametrize("name", MEMO_REQUESTS)
def test_only_the_flag_names_a_cache_dir(capsys, tmp_path, monkeypatch, name):
    # HNBETTI_CACHE_DIR was a second name for --cache-dir, so a shell that set
    # it turned on disk I/O.  No variable is read, and an empty flag is no
    # cache: the working directory is the variable's directory too, so an
    # empty flag taken as "." would also leave a file there.
    monkeypatch.setenv("HNBETTI_CACHE_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for extra in ((), ("--cache-dir", ""), ("--strict-cache",)):
        code, out, err = _run(capsys, *MEMO_REQUESTS[name], *extra)
        assert (code, err) == (0, "")
        assert out
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", MEMO_REQUESTS)
def test_a_run_reads_its_cache_file_once_and_writes_it_at_most_once(
    capsys, tmp_path, monkeypatch, name
):
    # A request computes one semistable series, so a run has nothing to keep
    # in memory: a cold run reads the key's file (a miss) and writes it, a
    # warm run reads it (a hit) and writes nothing, and a run without
    # --cache-dir builds no store at all.
    from hnbetti import hnrec

    calls = []

    class RecordingStore(hnrec.MemoStore):
        def __init__(self, cache_dir):
            calls.append("open")
            super().__init__(cache_dir)

        def _load_file(self, *args):
            calls.append("read")
            return super()._load_file(*args)

        def _write_file(self, *args):
            calls.append("write")
            return super()._write_file(*args)

    monkeypatch.setattr(hnrec, "MemoStore", RecordingStore)
    argv = (*MEMO_REQUESTS[name], "--strict-cache", "--cache-dir", str(tmp_path))
    outputs = []
    for want in (["open", "read", "write"], ["open", "read"]):
        calls.clear()
        code, out, err = _run(capsys, *argv)
        assert (code, err, calls) == (0, "", want)
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert len(list(tmp_path.iterdir())) == 1
    calls.clear()
    assert _run(capsys, *MEMO_REQUESTS[name]) == (0, outputs[0], "")
    assert calls == []


def test_warm_cache_output_is_identical(capsys, tmp_path):
    args = ("betti", "--genus", "2", "--rank", "3", "--deg", "1",
            "--format", "json", "--cache-dir", str(tmp_path))
    code_cold, cold, _ = _run(capsys, *args)
    code_warm, warm, _ = _run(capsys, *args)
    assert code_cold == code_warm == 0
    assert cold == warm


def test_help_and_version_exit_zero(capsys):
    assert _run(capsys, "--help")[0] == 0
    assert _run(capsys, "--version")[0] == 0
    # main turns the collector off and freezes what it tracks, for its own
    # process: give the tests that run after this one their collector back.
    was_enabled = gc.isenabled()
    try:
        with pytest.raises(SystemExit):
            # main() is the console entry point and must translate run() into an exit.
            from hnbetti.cli import main

            main()
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "command", ["sympoly", "divpoly", "divseries", "polygons", "ssseries", "betti"]
)
def test_subcommand_help_exits_zero(capsys, command):
    # argparse formats a subcommand's help strings only when they are shown.
    code, out, err = _run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: hnbetti {command} ")
    assert err == ""


# Each subcommand's flags as its usage line lists them, in order.
FLAGS_IN_ORDER = {
    "sympoly": ["--genus", "--points", "--format"],
    "divpoly": ["--genus", "--rank", "--deg", "--twist", "--format"],
    "divseries": ["--genus", "--rank", "--truncate", "--format"],
    "polygons": ["--genus", "--rank", "--deg", "--max-codim", "--format"],
    "ssseries": ["--genus", "--rank", "--deg", "--truncate", "--format", "--cache-dir",
                 "--strict-cache"],
    "betti": ["--genus", "--rank", "--deg", "--format", "--cache-dir", "--strict-cache"],
}


def _usage(capsys, monkeypatch, command):
    """The usage paragraph of a subcommand's --help, on one line."""
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = _run(capsys, command, "--help")
    assert code == 0
    return out.split("\n\n")[0]


@pytest.mark.parametrize("command", FLAGS_IN_ORDER)
def test_each_subcommand_takes_its_flags_in_order(capsys, monkeypatch, command):
    usage = _usage(capsys, monkeypatch, command)
    assert re.findall(r"--[a-z-]+", usage) == FLAGS_IN_ORDER[command]


def test_format_choices_are_the_renderers(capsys, monkeypatch):
    # cli names the formats itself, so that --version loads no render module.
    from hnbetti import render

    (choices,) = re.findall(r"--format \{(.*?)\}", _usage(capsys, monkeypatch, "polygons"))
    assert choices.split(",") == list(render.RENDERERS)


def test_cli_calls_what_the_home_module_holds_now(capsys, monkeypatch):
    # The CLI reads each function as hnbetti.<name> at each call: a patch of
    # the home module after a first run must still reach it.
    requests = {
        ("hnrec", "betti_poly"): "betti --genus 2 --rank 2 --deg 1",
        ("genfun", "div_stable_series"): "divseries --genus 2 --rank 2 --truncate 4",
        ("strata", "type_rows"): "polygons --genus 2 --rank 2 --deg 1 --max-codim 4",
    }
    for command_line in requests.values():
        assert _run(capsys, *command_line.split())[0] == 0
    calls = {}
    for (module_name, name), command_line in requests.items():
        module = importlib.import_module(f"hnbetti.{module_name}")
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        assert _run(capsys, *command_line.split())[0] == 0
    assert calls == {"betti_poly": 1, "div_stable_series": 1, "type_rows": 1}


def test_package_names_are_read_live(monkeypatch):
    # The package binds no name: hnbetti.<name> is read from its home module
    # at every access, so a patch of the home module shows through it.
    original = hnbetti.betti_poly
    assert original is hnbetti.hnrec.betti_poly

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(hnbetti.hnrec, "betti_poly", patched)
    assert hnbetti.betti_poly is patched
    assert "betti_poly" not in vars(hnbetti)
    monkeypatch.undo()
    assert hnbetti.betti_poly is original


def test_each_command_function_has_a_home():
    for command, (_, name, _) in _COMMANDS.items():
        assert any(name in names for names in hnbetti._HOMES.values()), command


@pytest.mark.parametrize("command", FLAGS_IN_ORDER)
def test_the_flags_fill_the_parameters_of_their_function(command):
    import inspect  # here only: the package itself must not load it

    _, name, flags = _COMMANDS[command]
    parameters = inspect.signature(getattr(hnbetti, name)).parameters
    filled = {_FLAGS[flag][0] for flag in flags}
    if command in _MEMO_COMMANDS:
        filled.add("memo")
    assert filled <= set(parameters)
    required = {p for p, value in parameters.items() if value.default is value.empty}
    assert required <= filled


# The integer flags that have a help string; the others have none.
FLAG_HELP = {
    "--points": "symmetric power m",
    "--twist": "degree of the bounding divisor D",
    "--truncate": "truncation order",
}


@pytest.mark.parametrize("command", FLAGS_IN_ORDER)
def test_integer_flag_help_strings(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")
    out = _run(capsys, command, "--help")[1]
    for flag in FLAGS_IN_ORDER[command]:
        if flag in ("--format", "--cache-dir", "--strict-cache"):
            continue
        metavar = flag[2:].upper().replace("-", "_")
        (line,) = re.findall(rf"^  {flag} {metavar}\b.*$", out, re.M)
        assert " ".join(line.split()[2:]) == FLAG_HELP.get(flag, ""), line


@pytest.mark.parametrize(
    "argv",
    [
        ("sympoly", "--genus", "-1", "--points", "1"),
        ("divpoly", "--genus", "-1", "--rank", "2", "--deg", "1", "--twist", "1"),
        ("divseries", "--genus", "-1", "--rank", "2", "--truncate", "3"),
        ("polygons", "--genus", "0", "--rank", "2", "--deg", "1", "--max-codim", "4"),
        ("ssseries", "--genus", "0", "--rank", "2", "--deg", "1", "--truncate", "5"),
        ("betti", "--genus", "0", "--rank", "2", "--deg", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_exit_2_on_bad_genus(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "genus" in err


def test_run_leaves_the_collector_as_it_found_it(capsys):
    # main turns the collector off for its own process; run, which library
    # callers and tests call, does not touch it.
    was_enabled = gc.isenabled()
    try:
        for switch in (gc.enable, gc.disable):
            switch()
            enabled = gc.isenabled()
            code, _, err = _run(capsys, "polygons", "--genus", "2", "--rank", "3", "--deg", "1",
                                "--max-codim", "4")
            assert code == 0, err
            assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


_HAS_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7"
)


@_HAS_DIGIT_LIMIT
def test_run_leaves_the_digit_limit_as_it_found_it(capsys):
    # main lifts the limit for its own process; run, which library callers
    # and tests call, does not touch it.
    limit = sys.get_int_max_str_digits()
    try:
        for value in (5000, 0):
            sys.set_int_max_str_digits(value)
            code, _, err = _run(capsys, "sympoly", "--genus", "2", "--points", "1")
            assert code == 0, err
            assert sys.get_int_max_str_digits() == value
    finally:
        sys.set_int_max_str_digits(limit)


def _cli_under_digit_limit(*argv):
    """`python -m hnbetti ARGV` with int-to-str conversion limited to 640 digits."""
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640",
               PYTHONPATH=str(Path(hnbetti.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "hnbetti", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_sympoly_prints_integers_past_the_digit_limit():
    # This exited 1 with a traceback from render_csv.
    from hnbetti.genfun import sym_product_poly

    proc = _cli_under_digit_limit("sympoly", "--genus", "1100", "--points", "1100",
                                  "--format", "csv")
    assert (proc.returncode, proc.stderr) == (0, "")
    coeffs = sym_product_poly(1100, 1100).coefficients
    assert max(coeffs) > 10 ** 640
    assert proc.stdout == "\n".join(f"{i},{c}" for i, c in enumerate(coeffs)) + "\n"


def test_betti_prints_and_caches_integers_past_the_digit_limit(tmp_path):
    # This exited 2 with "error: Exceeds the limit (640 digits)", raised while
    # writing the cache file, and left an empty temp file behind.
    from hnbetti.hnrec import TRUNCATION_SLACK, betti_poly, ss_series

    proc = _cli_under_digit_limit("betti", "--genus", "1100", "--rank", "1", "--deg", "0",
                                  "--cache-dir", str(tmp_path), "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    report = betti_poly(1100, 1, 0)
    assert max(report.polynomial.coefficients) > 10 ** 640
    assert json.loads(proc.stdout)["coefficients"] == [
        str(c) for c in report.polynomial.coefficients]
    assert [p.name for p in tmp_path.iterdir()] == ["ss_g1100_r1_n0.json"]
    cached = parse_json((tmp_path / "ss_g1100_r1_n0.json").read_text(encoding="utf-8"))
    order = 2 * report.moduli_dimension + TRUNCATION_SLACK
    assert cached.payload == ss_series(1100, 1, 0, order)


@pytest.mark.parametrize(
    "small, large",
    [
        (("polygons", "--genus", "2", "--rank", "3", "--deg", "1", "--max-codim", "4"),
         ("polygons", "--genus", "2", "--rank", "8", "--deg", "1", "--max-codim", "120")),
        (("betti", "--genus", "2", "--rank", "2", "--deg", "1"),
         ("betti", "--genus", "3", "--rank", "5", "--deg", "1")),
    ],
    ids=lambda argv: argv[0],
)
def test_larger_request_leaves_no_more_cyclic_garbage(capsys, monkeypatch, small, large):
    # main runs with the collector off, so cyclic garbage that grew with the
    # request would stay until the process exits.  What any request leaves
    # is argparse's own parser, built once per run.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        found = []
        for argv in (small, small, large):  # the first run loads the modules
            gc.collect()
            code, _, err = _run(capsys, *argv)
            assert code == 0, err
            found.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert found[2] == found[1]


def _closed_stdout_run(argv, stdout):
    """Start `python -m hnbetti ARGV` writing to stdout, with stdout buffered.

    Buffered, as it is by default for a pipe: the environment may set
    PYTHONUNBUFFERED, which would leave nothing in the buffer to flush at exit.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(hnbetti.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "hnbetti", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


def test_closed_stdout_exits_1_with_nothing_on_stderr(capsys):
    # A reader such as `head -1` closes the pipe after one line.  The answer
    # is several times the 64 KiB a pipe buffers, so print meets the closed
    # pipe; this ended in a BrokenPipeError traceback.
    argv = ["polygons", "--genus", "2", "--rank", "8", "--deg", "1", "--max-codim", "120"]
    code, out, _ = _run(capsys, *argv)
    assert code == 0 and len(out.encode("utf-8")) > 4 * 2 ** 16
    proc = _closed_stdout_run(argv, subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
    assert first.decode("utf-8") == out.splitlines(keepends=True)[0]


def test_stdout_closed_before_a_small_answer_exits_1_with_nothing_on_stderr():
    # A small answer stays in stdout's buffer until the flush, which then
    # meets the closed pipe.  What is left in the buffer must not be flushed
    # again at exit, where the error would be reported on stderr.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _closed_stdout_run(["sympoly", "--genus", "2", "--points", "2"], write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def _fresh_python(code, *args):
    """Stdout of code run in a new interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(hnbetti.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return result.stdout


# Runs `python -m hnbetti ARGS` through runpy, then prints, one a line, the
# hnbetti and json modules it loaded and dataclasses or inspect if they came
# with them.  Only modules new since just before the run count: an
# interpreter's own start-up (site and its .pth hooks) may load inspect
# already.  The script itself imports no json, so that a run that loads it
# shows.  runpy runs __main__.py as __main__, as `python -m` does, so
# hnbetti.__main__ is never listed.
_LOADED_BY_COMMAND = """
import contextlib, io, runpy, sys
sys.argv = ["hnbetti", *sys.argv[1:]]
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("hnbetti", run_name="__main__")
    except SystemExit:
        pass
for name in sorted(set(sys.modules) - before):
    if name.split(".")[0] in ("hnbetti", "json", "dataclasses", "inspect"):
        print(name)
"""

_START = ["hnbetti", "hnbetti.cli"]
_TYPES = _START + ["hnbetti._base", "hnbetti.render", "hnbetti.strata"]
_JSON = ["json", "json.decoder", "json.encoder", "json.scanner"]
_POLYNOMIALS = _START + ["hnbetti._base", "hnbetti.exactalg", "hnbetti.genfun",
                         "hnbetti.render"]
_SEMISTABLE = _POLYNOMIALS + ["hnbetti.hnrec"]


def test_import_loads_neither_dataclasses_nor_inspect():
    # Both cost every process start-up time; inspect comes with dataclasses.
    # Each command also loads only the modules it runs: the package is
    # compiled from source when bytecode is not written, so every module
    # loaded costs every process.  polygons does no polynomial arithmetic, so
    # it loads no exactalg, and a request in the default text format loads no
    # json.
    polygons = ["polygons", "--genus", "2", "--rank", "3", "--deg", "1", "--max-codim", "4"]
    cases = [
        (["--version"], _START),
        (["--help"], _START),
        (["polygons", "--genus", "2"], _START),  # a usage error
        (polygons, _TYPES),
        (polygons + ["--format", "json"], _TYPES + _JSON),
        (["sympoly", "--genus", "2", "--points", "2"], _POLYNOMIALS),
        (["divpoly", "--genus", "2", "--rank", "2", "--deg", "1", "--twist", "1"], _POLYNOMIALS),
        (["divseries", "--genus", "2", "--rank", "2", "--truncate", "4"], _POLYNOMIALS),
        (["ssseries", "--genus", "2", "--rank", "2", "--deg", "1", "--truncate", "4"],
         _SEMISTABLE),
        (["betti", "--genus", "2", "--rank", "2", "--deg", "1"], _SEMISTABLE),
    ]
    for argv, expected in cases:
        loaded = _fresh_python(_LOADED_BY_COMMAND, *argv).split()
        assert loaded == sorted(expected), argv
    everything = "import sys; before = set(sys.modules); from hnbetti import *; " \
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    assert _fresh_python(everything) == "[]\n"


_PARSE_EACH = """
import sys
from hnbetti.render import parse_json
for text in sys.argv[1:]:
    try:
        parse_json(text)
    except ValueError:
        pass
print(sorted({"hnbetti.hnrec", "hnbetti.strata"} & set(sys.modules)))
"""


def test_parse_json_loads_neither_hnrec_nor_strata(capsys):
    # parse_json reads series only, so reading a document of any kind loads
    # neither layer that makes the other kinds.
    texts = [_run(capsys, *argv.split(), "--format", "json")[1] for argv in (
        "sympoly --genus 2 --points 1",
        "ssseries --genus 2 --rank 2 --deg 1 --truncate 4",
        "polygons --genus 2 --rank 2 --deg 1 --max-codim 4",
        "betti --genus 2 --rank 2 --deg 1",
    )]
    assert _fresh_python(_PARSE_EACH, *texts) == "[]\n"


# The home module of each name in hnbetti.__all__ but "render", which is the
# render module itself, and "__version__", which the package itself holds.
_HOMES = {
    "BettiReport": "hnrec",
    "ExactPolynomial": "exactalg",
    "InexactDivisionError": "exactalg",
    "MemoStore": "hnrec",
    "OutputDocument": "render",
    "StructuralCheckError": "hnrec",
    "TRUNCATION_SLACK": "hnrec",
    "TruncatedSeries": "exactalg",
    "betti_poly": "hnrec",
    "dim_moduli": "hnrec",
    "div_finite_poly": "genfun",
    "div_stable_series": "genfun",
    "parse_json": "render",
    "rank2_oracle": "hnrec",
    "render_csv": "render",
    "render_json": "render",
    "render_latex": "render",
    "render_text": "render",
    "residue_series": "genfun",
    "ss_series": "hnrec",
    "stratum_codim": "strata",
    "stratum_series": "hnrec",
    "sym_product_poly": "genfun",
    "type_rows": "strata",
}

# Imports one module first, then prints every name of hnbetti.__all__ that is
# not the object its home module holds, where hnbetti.render is not the
# render module, and each name with no home that does not raise
# AttributeError: HNType and enumerate_types, which flat type rows replaced.
_NAMES_AFTER_IMPORT = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
import hnbetti
homes = json.loads(sys.argv[2])
wrong = sorted(set(hnbetti.__all__) ^ {"render", "__version__", *homes})
render_first = hnbetti.render
for name, home in homes.items():
    if getattr(hnbetti, name) is not getattr(importlib.import_module("hnbetti." + home), name):
        wrong.append(name)
import hnbetti.render as render_as
from hnbetti import *
render_module = sys.modules["hnbetti.render"]
for way, value in [("first", render_first), ("last", hnbetti.render), ("as", render_as),
                   ("star", render)]:
    if value is not render_module:
        wrong.append("render " + way)
wrong += [name for name in ("HNType", "enumerate_types") if hasattr(hnbetti, name)]
print(json.dumps(wrong))
"""


@pytest.mark.parametrize(
    "first", ["hnbetti", "hnbetti.exactalg", "hnbetti.genfun", "hnbetti.strata",
              "hnbetti.hnrec", "hnbetti.render", "hnbetti.cli"],
)
def test_package_names_are_their_home_objects_in_any_import_order(first):
    # Submodules load on first use, and hnbetti.render is the submodule
    # whichever module loads first.
    wrong = json.loads(_fresh_python(_NAMES_AFTER_IMPORT, first, json.dumps(_HOMES)))
    assert wrong == []
