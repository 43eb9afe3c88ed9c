"""Cache directory behaviour: twist-class keys, concurrent writers, bad files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hnbetti
from hnbetti.cli import run
from hnbetti.exactalg import TruncatedSeries
from hnbetti.hnrec import MemoStore, ss_series

PACKAGE_PARENT = str(Path(hnbetti.__file__).resolve().parent.parent)
FILE_NAME = re.compile(r"ss_g(\d+)_r(\d+)_n(-?\d+)\.json")


def _betti(capsys, degree, cache_dir):
    code = run(["betti", "--genus", "2", "--rank", "2", "--deg", str(degree),
                "--strict-cache", "--cache-dir", str(cache_dir)])
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


def _files(cache_dir):
    # The inode changes when a file is rewritten through a rename.
    return {p.name: p.stat().st_ino for p in cache_dir.iterdir()}


def test_degrees_of_one_twist_class_share_cache_files(capsys, tmp_path):
    first = _betti(capsys, 1, tmp_path)
    files = _files(tmp_path)
    assert files
    for degree in (3, -1):
        out = _betti(capsys, degree, tmp_path)
        # Served from disk: nothing was computed, so nothing was written.
        assert _files(tmp_path) == files
        assert out == first  # the text format does not print the degree
    for name in files:
        genus, rank, degree = map(int, FILE_NAME.fullmatch(name).groups())
        assert 0 <= degree < rank, name


def test_dual_degrees_share_one_cache_file(tmp_path):
    # P_ss(r, n) = P_ss(r, -n): degrees 3, 2, -2 and 8 of rank 5 are one key.
    first = ss_series(2, 5, 3, 12, MemoStore(tmp_path))
    files = _files(tmp_path)
    assert list(files) == ["ss_g2_r5_n2.json"]
    for degree in (2, -2, 8):
        assert ss_series(2, 5, degree, 12, MemoStore(tmp_path)) == first
        assert _files(tmp_path) == files


def test_ssseries_prints_the_requested_degree(capsys, tmp_path):
    code = run(["ssseries", "--genus", "2", "--rank", "2", "--deg", "3", "--truncate", "8",
                "--format", "json", "--cache-dir", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["degree"] == 3
    keys = {FILE_NAME.fullmatch(p.name).group(2, 3) for p in tmp_path.iterdir()}
    assert keys == {("2", "1")}


def test_cache_files_get_the_mode_of_a_plain_open(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    ss_series(2, 2, 1, 8, MemoStore(tmp_path))
    modes = {p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {0o666 & ~umask}


def test_failed_write_leaves_no_temp_file(tmp_path):
    (tmp_path / "ss_g2_r2_n1.json").mkdir()  # the rename onto it fails
    memo = MemoStore(tmp_path)
    ss_series(2, 2, 1, 8, memo)
    assert any("ss_g2_r2_n1.json: write failed" in w for w in memo.warnings)
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_concurrent_writers_on_one_cache_dir(tmp_path):
    # Writers that shared one temp-file name made some of these runs exit 4
    # ("write failed") or read a half-written file.
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    argv = [sys.executable, "-m", "hnbetti", "betti", "--genus", "3", "--rank", "3",
            "--deg", "1", "--strict-cache", "--cache-dir"]
    outputs = set()
    for trial in range(5):
        cache_dir = str(tmp_path / f"trial{trial}")
        procs = [
            subprocess.Popen(argv + [cache_dir], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
            for _ in range(6)
        ]
        try:
            results = [(p.communicate(timeout=60), p.returncode) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        for (out, err), code in results:
            assert code == 0, err.decode(errors="replace")
            outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "field, index, value",
    [("truncation", None, 4.0), ("coefficients", 2, 8.9), ("coefficients", 1, True),
     ("genus", None, 2.0), ("variable", None, "x"), ("dimension", None, 5),
     ("checks", None, {"a": 1}), ("types", None, []), ("coefficients", 1, float("inf"))],
)
def test_numbers_where_the_format_has_strings_are_a_miss(capsys, tmp_path, field, index, value):
    # These were served as 4.0, 8 and 1: a changed stdout, and exit 0.  A genus
    # of 2.0 matched the key 2 and was served with exit 0 under --strict-cache.
    # A key or value render_json never writes in a series ("variable" "x", a
    # "dimension", "checks" or "types") was served without a word.  int() of
    # the float inf raises OverflowError, not ValueError.
    argv = ["ssseries", "--genus", "2", "--rank", "1", "--deg", "0", "--truncate", "4",
            "--strict-cache", "--cache-dir", str(tmp_path)]
    assert run(argv) == 0
    cold, _ = capsys.readouterr()
    path = tmp_path / "ss_g2_r1_n0.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    if index is None:
        data[field] = value
    else:
        data[field][index] = value
    path.write_text(json.dumps(data), encoding="utf-8")

    assert run(argv) == 4
    out, err = capsys.readouterr()
    assert out == cold
    assert "cache warning: cache file ss_g2_r1_n0.json" in err
    assert err.count("cache warning") == 1


def test_a_cache_file_is_the_ssseries_answer(capsys, tmp_path):
    # The file a run writes is byte for byte its --format json stdout, and that
    # stdout, saved as the key's file, serves a betti request of that key.
    argv = ["ssseries", "--genus", "2", "--rank", "3", "--deg", "1", "--truncate", "30",
            "--format", "json", "--cache-dir", str(tmp_path / "written")]
    assert run(argv) == 0
    answer, _ = capsys.readouterr()
    assert (tmp_path / "written" / "ss_g2_r3_n1.json").read_text(encoding="utf-8") == answer

    betti = ["betti", "--genus", "2", "--rank", "3", "--deg", "1"]
    assert run(betti) == 0
    cold, _ = capsys.readouterr()
    saved = tmp_path / "saved"
    saved.mkdir()
    (saved / "ss_g2_r3_n1.json").write_text(answer, encoding="utf-8")
    files = _files(saved)
    assert run(betti + ["--cache-dir", str(saved), "--strict-cache"]) == 0
    assert capsys.readouterr() == (cold, "")
    assert _files(saved) == files  # served from the file: nothing written


def test_deeply_nested_file_is_a_miss(capsys, tmp_path):
    # json.loads raises RecursionError on nesting this deep, which no cache
    # reader caught: ssseries and betti exited 1 with a traceback.
    argv = ["ssseries", "--genus", "2", "--rank", "2", "--deg", "1", "--truncate", "4",
            "--cache-dir", str(tmp_path)]
    assert run(argv) == 0
    cold, _ = capsys.readouterr()
    path = tmp_path / "ss_g2_r2_n1.json"
    depth = 200_000
    for strict, code in ((False, 0), (True, 4)):
        path.write_text("[" * depth + "]" * depth, encoding="utf-8")
        assert run(argv + ["--strict-cache"] * strict) == code
        out, err = capsys.readouterr()
        assert out == cold
        assert err == "cache warning: cache file ss_g2_r2_n1.json: " \
            "malformed document: JSON nested too deeply\n"


def test_document_of_another_kind_is_a_miss(capsys, tmp_path):
    # A well-formed polynomial document where the series of the key belongs.
    assert run(["sympoly", "--genus", "2", "--points", "1", "--format", "json"]) == 0
    polynomial, _ = capsys.readouterr()
    argv = ["betti", "--genus", "2", "--rank", "2", "--deg", "1", "--cache-dir", str(tmp_path)]
    assert run(argv) == 0
    cold, _ = capsys.readouterr()
    for strict, code in ((False, 0), (True, 4)):
        (tmp_path / "ss_g2_r2_n1.json").write_text(polynomial, encoding="utf-8")
        assert run(argv + ["--strict-cache"] * strict) == code
        out, err = capsys.readouterr()
        assert out == cold
        assert err == "cache warning: cache file ss_g2_r2_n1.json: " \
            "unexpected document kind 'polynomial'\n"


def test_cache_dir_that_is_a_file_is_a_write_failure(capsys, tmp_path):
    argv = ["betti", "--genus", "2", "--rank", "2", "--deg", "1", "--cache-dir"]
    assert run(argv + [str(tmp_path / "dir")]) == 0
    cold, _ = capsys.readouterr()
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("", encoding="utf-8")
    for strict, code in ((False, 0), (True, 4)):
        assert run(argv + [str(not_a_dir)] + ["--strict-cache"] * strict) == code
        out, err = capsys.readouterr()
        assert out == cold
        assert "cache warning: cache file ss_g2_r2_n1.json: write failed: " in err
    assert not_a_dir.read_text(encoding="utf-8") == ""


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7"
)
def test_unrenderable_series_is_a_write_failure(tmp_path):
    # render_json raised inside the write, after the temp file was opened: the
    # ValueError reached the caller and the empty temp file stayed.
    series = TruncatedSeries((10**699, 1), 1)
    memo = MemoStore(tmp_path)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        memo.store(2, 1, 0, series)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(memo.warnings) == 1
    assert memo.warnings[0].startswith("cache file ss_g2_r1_n0.json: write failed: ")
    assert list(tmp_path.iterdir()) == []


def test_one_file_per_key_holds_the_longest_series(tmp_path):
    ss_series(2, 2, 1, 8, MemoStore(tmp_path))
    longer = ss_series(2, 2, 1, 12, MemoStore(tmp_path))
    files = _files(tmp_path)
    assert list(files) == ["ss_g2_r2_n1.json"]
    data = json.loads((tmp_path / "ss_g2_r2_n1.json").read_text(encoding="utf-8"))
    assert data["truncation"] == 12

    memo = MemoStore(tmp_path)
    assert ss_series(2, 2, 1, 10, memo) == longer.truncate(10)
    assert _files(tmp_path) == files  # served from the file: nothing written
    assert not memo.warnings


def test_old_layout_files_are_never_read(capsys, tmp_path):
    cold = _betti(capsys, 1, tmp_path / "cold")
    path = tmp_path / "cold" / "ss_g2_r2_n1.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["coefficients"][3] = str(int(data["coefficients"][3]) + 1)
    (tmp_path / "ss_g2_r2_n1_T20.json").write_text(json.dumps(data), encoding="utf-8")

    memo = MemoStore(tmp_path)
    assert memo.lookup(2, 2, 1, 20) is None
    assert not memo.warnings
    assert _betti(capsys, 1, tmp_path) == cold  # --strict-cache: no warning either


def test_shorter_file_is_a_silent_miss_and_is_replaced(tmp_path):
    ss_series(2, 2, 1, 6, MemoStore(tmp_path))
    before = _files(tmp_path)

    memo = MemoStore(tmp_path)
    assert memo.lookup(2, 2, 1, 9) is None
    longer = ss_series(2, 2, 1, 9, memo)
    assert not memo.warnings
    after = _files(tmp_path)
    assert list(after) == ["ss_g2_r2_n1.json"]
    assert after != before  # rewritten through a rename
    assert MemoStore(tmp_path).lookup(2, 2, 1, 9) == longer
