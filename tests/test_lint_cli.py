"""CLI tests for ``python -m repro lint`` (exit codes, formats, self-check)."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.__main__ import main

TESTS_DIR = os.path.dirname(__file__)
REPO_ROOT = os.path.dirname(TESTS_DIR)
FIXTURES = os.path.join(TESTS_DIR, "fixtures", "lint")
DET_BAD = os.path.join(FIXTURES, "det_bad.py")
DET_GOOD = os.path.join(FIXTURES, "det_good.py")


def run_cli(*argv):
    return main(["lint", *argv])


def test_clean_file_exits_zero(capsys):
    assert run_cli(DET_GOOD) == 0
    out = capsys.readouterr().out
    assert "0 new" in out


def test_findings_exit_one_with_text_output(capsys):
    assert run_cli(DET_BAD) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "det_bad.py" in out
    assert "9 new" in out


def test_json_format_matches_report_schema(capsys):
    assert run_cli("--format", "json", DET_BAD) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.lint/v2"
    assert payload["exit_code"] == 1
    assert [f["rule"] for f in payload["new"]][:2] == ["DET001", "DET001"]


def test_rule_filter_flag(capsys):
    assert run_cli("--rule", "DET002", DET_BAD) == 1
    payload_args = capsys.readouterr().out
    assert "DET002" in payload_args
    assert "DET001" not in payload_args


def test_unknown_rule_exits_two(capsys):
    assert run_cli("--rule", "NOPE99", DET_BAD) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules(capsys):
    assert run_cli("--list-rules") == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert listed == ["API001", "DET001", "DET002", "DET003", "DET004",
                      "LNT001", "LNT002"]


def test_repo_source_tree_is_lint_clean(tmp_path):
    """Self-check: ``repro lint`` over the repo's own src/ exits 0.

    Run from an empty directory, which must stay empty: the linter
    keeps no cache, baseline or any other state on disk.
    """
    src = os.path.join(REPO_ROOT, "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--format", "json", src],
        cwd=str(tmp_path), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["new"] == [] and payload["suppressed"] == []
    assert os.listdir(tmp_path) == []


def test_help_lists_the_whole_surface(capsys):
    with pytest.raises(SystemExit) as stop:
        run_cli("--help")
    assert stop.value.code == 0
    usage, _, options = capsys.readouterr().out.partition("positional")
    assert "[paths ...]" in usage
    assert sorted(set(re.findall(r"--[a-z][a-z-]*", options))) == [
        "--format", "--help", "--list-rules", "--rule"]


@pytest.mark.parametrize("argv", [
    ["--fix"], ["--diff"], ["--jobs", "2"], ["--no-cache"],
    ["--cache-dir", "x"], ["--baseline", "x"], ["--no-baseline"],
    ["--write-baseline"],
], ids=lambda argv: argv[0])
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        run_cli(*argv, DET_GOOD)
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
