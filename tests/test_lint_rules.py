"""Per-rule tests for the repro.analysis lint passes.

Each rule class gets a good/bad fixture pair under
``tests/fixtures/lint/``: the bad file must produce exactly the findings
its inline comments claim (IDs *and* line numbers), the good twin must
be silent.
"""

import os

import pytest

from repro.analysis import RULES, discover_files, lint_paths
from repro.analysis.model import load_module

TESTS_DIR = os.path.dirname(__file__)
FIXTURES = os.path.join(TESTS_DIR, "fixtures", "lint")
SRC = os.path.join(os.path.dirname(TESTS_DIR), "src")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def findings_for(name: str):
    report = lint_paths([fixture(name)])
    return [(f.rule, f.line) for f in report.new]


def test_rule_catalogue_has_all_families():
    assert sorted(RULES) == [
        "API001",
        "DET001", "DET002", "DET003", "DET004",
        "LNT001", "LNT002",
    ]
    for rule in RULES.values():
        assert rule.summary


def test_determinism_bad_fixture():
    got = findings_for("det_bad.py")
    assert got == [
        ("DET001", 14),
        ("DET001", 18),
        ("DET002", 22),
        ("DET002", 26),
        ("DET003", 30),
        ("DET003", 34),
        ("DET003", 38),
        ("DET004", 43),
        ("DET004", 49),
    ]


def test_determinism_good_fixture_is_clean():
    assert findings_for("det_good.py") == []


def test_obs_sim_domain_wallclock_flagged():
    # No repro.obs module reads a clock: timestamps, the interval
    # clocks (perf_counter, monotonic) and entropy all fire DET003.
    got = findings_for("obs_bad.py")
    assert got == [
        ("DET003", 15),
        ("DET003", 19),
        ("DET003", 23),
        ("DET003", 27),
        ("DET003", 32),
    ]


def test_det003_has_no_exempt_module(tmp_path):
    # The former exemptions (entropy in repro.crypto.keys, clocks in
    # repro.obs.telemetry) are gone: the same reads fire there too.
    for module in ("repro.crypto.keys", "repro.obs.telemetry"):
        target = tmp_path / (module.replace(".", "_") + ".py")
        target.write_text(
            f"# repro-lint: module={module}\n"
            "import os\n"
            "import time\n"
            "def f():\n"
            "    return os.urandom(8), time.process_time()\n")
        report = lint_paths([str(target)])
        assert [(f.rule, f.line) for f in report.new] == [
            ("DET003", 5), ("DET003", 5)]


def test_determinism_rules_scoped_to_sim_packages(tmp_path):
    # Same code, no `module=` pragma putting it in a sim package: silent.
    source = (fixture("det_bad.py"))
    text = open(source).read().replace(
        "# repro-lint: module=repro.net.fixture_bad", "")
    unscoped = tmp_path / "unscoped.py"
    unscoped.write_text(text)
    report = lint_paths([str(unscoped)])
    assert [f for f in report.new if f.rule.startswith("DET")] == []


def test_suppression_with_reason_suppresses():
    report = lint_paths([fixture("suppressed.py")])
    suppressed_lines = {f.line for f, _ in report.suppressed}
    assert suppressed_lines == {9, 14}
    reasons = {reason for _, reason in report.suppressed}
    assert "fixture exercises suppression" in reasons


def test_suppression_without_reason_is_lnt001_and_does_not_suppress():
    report = lint_paths([fixture("suppressed.py")])
    new = [(f.rule, f.line) for f in report.new]
    # The reasonless pragma: DET001 still fires and LNT001 is added.
    assert ("DET001", 19) in new
    assert ("LNT001", 19) in new
    # A pragma for a different rule does not suppress DET001.
    assert ("DET001", 24) in new


def _net_module(tmp_path, body: str):
    target = tmp_path / "pragma_case.py"
    target.write_text("# repro-lint: module=repro.net.pragma_case\n"
                      "import random\n" + body)
    return lint_paths([str(target)])


def test_pragma_inside_string_literal_is_not_a_pragma(tmp_path):
    report = _net_module(
        tmp_path,
        "HELP = \"write '# repro-lint: disable=DET001 -- why'\"; "
        "v = random.random()\n")
    assert [(f.rule, f.line) for f in report.new] == [("DET001", 3)]
    assert report.suppressed == []


def test_pragma_inside_docstring_is_not_a_pragma(tmp_path):
    report = _net_module(
        tmp_path,
        'def f():\n'
        '    """Example::\n'
        '\n'
        '        x = f()  # repro-lint: disable=DET001\n'
        '    """\n'
        '    return random.random()\n')
    # No phantom LNT001 for the reasonless "pragma" in the docstring.
    assert [(f.rule, f.line) for f in report.new] == [("DET001", 8)]


def test_prose_comment_quoting_a_pragma_is_not_a_pragma(tmp_path):
    report = _net_module(
        tmp_path,
        "v = random.random()  "
        "#: waive with ``# repro-lint: disable=DET001 -- reason``\n")
    assert [(f.rule, f.line) for f in report.new] == [("DET001", 3)]
    assert report.suppressed == []


def test_source_tree_records_no_suppressions():
    # Fix, don't suppress: src/ carries no pragma at all (and none of
    # the pragma-shaped text in the linter's own help and docstrings
    # is mistaken for one).
    modules = [load_module(path, display_path=path)[0]
               for path in discover_files([SRC])]
    assert sum(len(m.suppressions) for m in modules) == 0


def test_rule_filter_restricts_to_requested_rules():
    report = lint_paths([fixture("det_bad.py")], rules=["DET001"])
    assert {f.rule for f in report.new} == {"DET001"}


def test_unknown_rule_filter_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        lint_paths([fixture("det_bad.py")], rules=["NOPE99"])


def test_syntax_error_reported_as_lnt002(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n")
    report = lint_paths([str(broken)])
    assert [f.rule for f in report.new] == ["LNT002"]
    assert "does not parse" in report.new[0].message
