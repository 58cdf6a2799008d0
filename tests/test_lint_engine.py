"""Engine-level tests: report structure, discovery, error paths."""

import os

import pytest

from repro.analysis import discover_files, lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
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


def test_discovery_prunes_dist_and_build_unless_they_are_packages(tmp_path):
    for name in ("dist", "build"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "wheel_junk.py").write_text("import random\n")
    (tmp_path / "pkg" / "dist").mkdir(parents=True)
    (tmp_path / "pkg" / "dist" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "dist" / "mod.py").write_text("X = 1\n")
    found = [os.path.relpath(p, str(tmp_path))
             for p in discover_files([str(tmp_path)])]
    assert found == [os.path.join("pkg", "dist", "__init__.py"),
                     os.path.join("pkg", "dist", "mod.py")]


def test_discovery_sees_every_source_file_including_repro_dist():
    found = {os.path.normpath(p) for p in discover_files([SRC])}
    assert os.path.normpath(os.path.join(
        SRC, "repro", "dist", "consensus.py")) in found
    on_disk = {os.path.normpath(os.path.join(root, name))
               for root, _dirs, names in os.walk(SRC)
               for name in names if name.endswith(".py")}
    assert found == on_disk


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths([os.path.join(FIXTURES, "does_not_exist.py")])
