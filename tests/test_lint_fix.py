"""Tests for ``repro lint --fix``: autofix application, idempotence,
dry-run diffs, the API001 import-surface rewrite, and baseline
entry dropping."""

import json
import os
import shutil

import pytest

from repro.__main__ import main
from repro.analysis import lint_paths

TESTS_DIR = os.path.dirname(__file__)
REPO_ROOT = os.path.dirname(TESTS_DIR)
FIXTURES = os.path.join(TESTS_DIR, "fixtures", "lint")
NET_PKG = os.path.join(REPO_ROOT, "src", "repro", "net")


def run_cli(*argv):
    return main(["lint", *argv])


@pytest.fixture
def det_bad_copy(tmp_path):
    target = tmp_path / "det_bad.py"
    shutil.copy(os.path.join(FIXTURES, "det_bad.py"), target)
    return str(target)


def test_fix_rewrites_det004_sites(det_bad_copy, capsys):
    run_cli("--no-baseline", "--no-cache", "--fix", det_bad_copy)
    out = capsys.readouterr().out
    assert "fixed 2 finding(s)" in out
    text = open(det_bad_copy).read()
    assert "in sorted(" in text
    # The re-lint after fixing reflects the rewritten file.
    assert "7 new" in out


def test_fixed_file_relints_clean_of_det004(det_bad_copy):
    run_cli("--no-baseline", "--no-cache", "--fix", det_bad_copy)
    report = lint_paths([det_bad_copy])
    assert [f for f in report.new if f.rule == "DET004"] == []


def test_fix_is_idempotent(det_bad_copy, capsys):
    run_cli("--no-baseline", "--no-cache", "--fix", det_bad_copy)
    capsys.readouterr()
    after_first = open(det_bad_copy).read()
    exit_code = run_cli("--no-baseline", "--no-cache", "--fix",
                        det_bad_copy)
    out = capsys.readouterr().out
    assert "no fixable findings" in out
    assert open(det_bad_copy).read() == after_first
    assert exit_code == 1  # the 7 unfixable findings still fail the run


def test_diff_mode_previews_without_writing(det_bad_copy, capsys):
    before = open(det_bad_copy).read()
    exit_code = run_cli("--no-baseline", "--no-cache", "--fix", "--diff",
                        det_bad_copy)
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "would fix 2 finding(s) in 1 file(s)" in out
    assert "+" in out and "sorted(" in out
    assert open(det_bad_copy).read() == before


def test_diff_without_fix_is_an_error(det_bad_copy, capsys):
    assert run_cli("--no-baseline", "--diff", det_bad_copy) == 2
    assert "--diff requires --fix" in capsys.readouterr().err


def test_api001_import_rewritten_to_public_surface(tmp_path, capsys):
    importer = tmp_path / "importer.py"
    importer.write_text(
        "from repro.net.queues import REDQueue\n"
        "\n"
        "print(REDQueue)\n")
    # The net package must be linted alongside so its public exports
    # are in the index for the fix to be derived.
    run_cli("--no-baseline", "--no-cache", "--fix", str(importer), NET_PKG)
    capsys.readouterr()
    assert importer.read_text().startswith("from repro.net import REDQueue\n")
    report = lint_paths([str(importer), NET_PKG])
    assert [f for f in report.new if f.path == str(importer)] == []


def test_fix_drops_matching_baseline_entries(det_bad_copy, tmp_path,
                                             capsys):
    bpath = str(tmp_path / "baseline.json")
    assert run_cli("--baseline", bpath, "--write-baseline", "--no-cache",
                   det_bad_copy) == 0
    entries = json.load(open(bpath))["findings"]
    assert len(entries) == 9

    exit_code = run_cli("--baseline", bpath, "--no-cache", "--fix",
                        det_bad_copy)
    out = capsys.readouterr().out
    assert "dropped 2 fixed entries from" in out
    assert "fixed 2 finding(s)" in out
    # The two DET004 entries are gone; the rest survive untouched.
    remaining = json.load(open(bpath))["findings"]
    assert len(remaining) == 7
    assert all(e["rule"] != "DET004" for e in remaining.values())
    # With every remaining finding grandfathered, the run is green.
    assert exit_code == 0

    report = lint_paths([det_bad_copy])
    assert len(report.new) == 7
