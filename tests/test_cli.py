"""CLI contract: subcommands, formats, exit codes, cache behaviour."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hnbetti
from hnbetti.cli import run
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
    assert parse_json(out).genus == 2


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


def test_divseries_ignores_deg(capsys):
    code, with_deg, _ = _run(
        capsys, "divseries", "--genus", "2", "--rank", "2", "--truncate", "3",
        "--deg", "17",
    )
    assert code == 0
    code, without_deg, _ = _run(
        capsys, "divseries", "--genus", "2", "--rank", "2", "--truncate", "3"
    )
    assert with_deg == without_deg == "1 + 4t + 8t^2 + 16t^3 + O(t^4)  (genus 2, rank 2)\n"


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


def test_skip_checks_needs_unsafe(capsys):
    code, _, err = _run(
        capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1", "--skip-checks"
    )
    assert code == 2
    assert "--unsafe" in err

    code, out, _ = _run(
        capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1",
        "--skip-checks", "--unsafe",
    )
    assert code == 0
    assert out.endswith("checks: skipped)\n")

    code, out, _ = _run(
        capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1",
        "--skip-checks", "--unsafe", "--format", "json",
    )
    assert json.loads(out)["checks"] is None


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


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HNBETTI_CACHE_DIR", str(tmp_path))
    code, _, _ = _run(capsys, "ssseries", "--genus", "2", "--rank", "2", "--deg", "1",
                      "--truncate", "8")
    assert code == 0
    assert (tmp_path / "ss_g2_r2_n1.json").exists()

    flag_dir = tmp_path / "flagged"
    code, _, _ = _run(capsys, "ssseries", "--genus", "2", "--rank", "2", "--deg", "1",
                      "--truncate", "8", "--cache-dir", str(flag_dir))
    assert code == 0
    assert (flag_dir / "ss_g2_r2_n1.json").exists()


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
    with pytest.raises(SystemExit):
        # main() is the console entry point and must translate run() into an exit.
        from hnbetti.cli import main

        main()


@pytest.mark.parametrize(
    "command", ["sympoly", "divpoly", "divseries", "polygons", "ssseries", "betti"]
)
def test_subcommand_help_exits_zero(capsys, command):
    # argparse formats a subcommand's help strings only when they are shown.
    code, out, err = _run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: hnbetti {command} ")
    assert err == ""


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


def test_import_loads_neither_dataclasses_nor_inspect():
    # Both cost every process start-up time; inspect comes with dataclasses.
    env = dict(os.environ, PYTHONPATH=str(Path(hnbetti.__file__).resolve().parent.parent))
    code = "import sys, hnbetti.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout == "[]\n"
