"""Tests for the incremental lint cache and ``--jobs`` parallelism.

Soundness contract: a warm run analyzes zero files and reports exactly
what the cold run reported; editing a file re-analyzes only that file
(the index digest is line-number-blind), while changing a function
signature shifts the digest and flushes everyone.
"""

import json
import os
import shutil

import pytest

from repro.__main__ import main
from repro.analysis import LintCache, lint_paths

TESTS_DIR = os.path.dirname(__file__)
FIXTURES = os.path.join(TESTS_DIR, "fixtures", "lint")


def run_cli(*argv):
    return main(["lint", *argv])


def snapshot(report):
    return {
        "new": [(f.path, f.rule, f.line, f.fingerprint())
                for f in report.new],
        "suppressed": [(f.path, f.rule, f.line)
                       for f, _ in report.suppressed],
        "exit_code": report.exit_code,
    }


@pytest.fixture
def tree(tmp_path):
    src = tmp_path / "tree"
    src.mkdir()
    for name in ("det_bad.py", "det_good.py", "tdm_bad.py"):
        shutil.copy(os.path.join(FIXTURES, name), src / name)
    return src


def test_warm_run_analyzes_nothing_and_matches_cold(tree, tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = lint_paths([str(tree)], cache=LintCache(cache_dir))
    assert cold.files_checked == 3
    assert cold.files_analyzed == 3 and cold.files_cached == 0

    warm = lint_paths([str(tree)], cache=LintCache(cache_dir))
    assert warm.files_analyzed == 0 and warm.files_cached == 3
    assert snapshot(warm) == snapshot(cold)


def test_comment_edit_reanalyzes_only_that_file(tree, tmp_path):
    cache_dir = str(tmp_path / "cache")
    lint_paths([str(tree)], cache=LintCache(cache_dir))

    target = tree / "det_good.py"
    target.write_text(target.read_text() + "# trailing comment\n")
    after = lint_paths([str(tree)], cache=LintCache(cache_dir))
    # The index digest hashes signatures, not line numbers, so the
    # comment-only edit invalidates exactly one entry.
    assert after.files_analyzed == 1 and after.files_cached == 2


def test_signature_change_flushes_every_file(tree, tmp_path):
    cache_dir = str(tmp_path / "cache")
    lint_paths([str(tree)], cache=LintCache(cache_dir))

    target = tree / "det_good.py"
    target.write_text(target.read_text()
                      + "\n\ndef grown(alpha, beta):\n    return alpha\n")
    # A new function is a cross-file fact (REG/API/TDM002 can see it),
    # so the digest shifts and the whole tree re-analyzes.
    after = lint_paths([str(tree)], cache=LintCache(cache_dir))
    assert after.files_analyzed == 3 and after.files_cached == 0


def test_disk_entries_round_trip_findings(tree, tmp_path):
    cache_dir = str(tmp_path / "cache")
    lint_paths([str(tree)], cache=LintCache(cache_dir))
    entries = [os.path.join(cache_dir, name)
               for name in os.listdir(cache_dir)]
    assert len(entries) == 3
    payloads = [json.load(open(p)) for p in entries]
    assert all(p["schema"] == "repro.lint-cache/v1" for p in payloads)
    assert sum(len(p["findings"]) for p in payloads) >= 2


def test_cli_warm_run_reports_zero_analyzed(tree, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ("--no-baseline", "--cache-dir", cache_dir, "--format",
            "json", str(tree))
    cold_exit = run_cli(*argv)
    cold = json.loads(capsys.readouterr().out)
    warm_exit = run_cli(*argv)
    warm = json.loads(capsys.readouterr().out)

    assert cold["files_analyzed"] == 3
    assert warm["files_analyzed"] == 0
    assert warm["files_cached"] == 3
    assert warm_exit == cold_exit
    assert warm["new"] == cold["new"]


def test_no_cache_flag_disables_caching(tree, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    run_cli("--no-baseline", "--cache-dir", cache_dir, str(tree))
    capsys.readouterr()
    assert not os.path.exists(cache_dir) or os.listdir(cache_dir)
    run_cli("--no-baseline", "--no-cache", str(tree))
    out = capsys.readouterr().out
    assert "(3 analyzed, 0 cached)" in out


def test_parallel_jobs_match_serial(tree):
    serial = lint_paths([str(tree)], jobs=1)
    parallel = lint_paths([str(tree)], jobs=2)
    assert parallel.to_dict() == serial.to_dict()
    assert snapshot(parallel) == snapshot(serial)


def test_parallel_jobs_with_cache(tree, tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = lint_paths([str(tree)], cache=LintCache(cache_dir), jobs=2)
    warm = lint_paths([str(tree)], cache=LintCache(cache_dir), jobs=2)
    assert cold.files_analyzed == 3
    assert warm.files_analyzed == 0 and warm.files_cached == 3
    assert snapshot(warm) == snapshot(cold)
