"""CLI contract: subcommands, formats, exit codes, cache behaviour."""

import json

import pytest

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
    path = tmp_path / "ss_g2_r2_n1_T20.json"
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
    (tmp_path / "ss_g2_r2_n1_T30.json").write_text("{ not json", encoding="utf-8")
    code, out, err = _run(
        capsys, "betti", "--genus", "2", "--rank", "2", "--deg", "1",
        "--cache-dir", str(tmp_path), "--strict-cache",
    )
    assert code == 4
    assert "cache warning" in err
    # The result itself is still correct and printed.
    assert out.startswith(BETTI_G2_R2_N1)

    # Without --strict-cache the same situation is only a warning.
    (tmp_path / "ss_g2_r2_n1_T30.json").write_text("{ not json", encoding="utf-8")
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
    assert (tmp_path / "ss_g2_r2_n1_T8.json").exists()

    flag_dir = tmp_path / "flagged"
    code, _, _ = _run(capsys, "ssseries", "--genus", "2", "--rank", "2", "--deg", "1",
                      "--truncate", "8", "--cache-dir", str(flag_dir))
    assert code == 0
    assert (flag_dir / "ss_g2_r2_n1_T8.json").exists()


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
