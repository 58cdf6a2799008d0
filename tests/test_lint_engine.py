"""Engine-level tests: report structure, discovery, error paths."""

import os

import pytest

from repro.analysis import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
DET_BAD = os.path.join(FIXTURES, "det_bad.py")


def test_report_to_dict_schema():
    report = lint_paths([DET_BAD])
    payload = report.to_dict()
    assert payload["schema"] == "repro.lint/v2"
    assert set(payload) == {"schema", "files_checked", "exit_code", "new",
                            "suppressed", "rules"}
    assert payload["files_checked"] == 1
    assert payload["exit_code"] == 1
    assert {f["rule"] for f in payload["new"]} >= {"DET001", "DET004"}
    for entry in payload["new"]:
        assert set(entry) == {"rule", "path", "line", "col", "message"}


def test_discovery_skips_hidden_and_cache_dirs(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("import random\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "junk.py").write_text("import random\n")
    (tmp_path / "real.py").write_text("X = 1\n")
    report = lint_paths([str(tmp_path)])
    assert report.files_checked == 1


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths([os.path.join(FIXTURES, "does_not_exist.py")])
