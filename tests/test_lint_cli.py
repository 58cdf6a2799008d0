"""CLI tests for ``python -m repro lint`` (exit codes, formats, self-check)."""

import json
import os
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
    assert run_cli("--no-baseline", DET_GOOD) == 0
    out = capsys.readouterr().out
    assert "0 new" in out


def test_findings_exit_one_with_text_output(capsys):
    assert run_cli("--no-baseline", DET_BAD) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "det_bad.py" in out
    assert "9 new" in out


def test_json_format_matches_report_schema(capsys):
    assert run_cli("--no-baseline", "--format", "json", DET_BAD) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.lint/v1"
    assert payload["exit_code"] == 1
    assert [f["rule"] for f in payload["new"]][:2] == ["DET001", "DET001"]


def test_rule_filter_flag(capsys):
    assert run_cli("--no-baseline", "--rule", "DET002", DET_BAD) == 1
    payload_args = capsys.readouterr().out
    assert "DET002" in payload_args
    assert "DET001" not in payload_args


def test_unknown_rule_exits_two(capsys):
    assert run_cli("--no-baseline", "--rule", "NOPE99", DET_BAD) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules(capsys):
    assert run_cli("--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "PAY001", "REG001", "LNT001"):
        assert rule_id in out


def test_write_baseline_then_relint_exits_zero(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    assert run_cli("--baseline", baseline, "--write-baseline", DET_BAD) == 0
    assert "wrote 9 finding(s)" in capsys.readouterr().out
    # Grandfathered now: same lint run exits 0.
    assert run_cli("--baseline", baseline, DET_BAD) == 0
    out = capsys.readouterr().out
    assert "0 new" in out and "9 baselined" in out


def test_write_baseline_conflicts_with_no_baseline(capsys):
    assert run_cli("--no-baseline", "--write-baseline", DET_BAD) == 2
    assert "conflicts" in capsys.readouterr().err


def test_malformed_baseline_exits_two(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text("{not json")
    assert run_cli("--baseline", str(bad), DET_BAD) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_repo_source_tree_is_lint_clean():
    """Self-check: ``repro lint`` over the repo's own src/ exits 0."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--format", "json", "src"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["new"] == []


def test_checked_in_baseline_is_valid_and_reason_annotated():
    """The repo baseline must load (schema + reasons enforced)."""
    from repro.analysis import Baseline
    baseline = Baseline.load(
        os.path.join(REPO_ROOT, ".repro-lint-baseline.json"))
    for entry in baseline.entries.values():
        assert str(entry.get("reason", "")).strip()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stale_note_goes_to_stderr_not_stdout(tmp_path, capsys, fmt):
    baseline = str(tmp_path / "baseline.json")
    run_cli("--baseline", baseline, "--write-baseline", DET_BAD)
    capsys.readouterr()
    # Lint a clean file against that baseline: every entry is stale.
    code = run_cli("--baseline", baseline, "--format", fmt, DET_GOOD)
    captured = capsys.readouterr()
    assert code == 0
    if fmt == "text":
        assert "stale baseline entry" in captured.err
        assert "stale" not in captured.out
    else:
        json.loads(captured.out)  # stdout stays machine-readable
