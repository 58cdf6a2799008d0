"""The public surface of repro.net / repro.core / repro.eval / repro.obs.

``__all__`` is the promise and the API001 lint pass is its one enforcer:

* runtime — every ``__all__`` name resolves, a submodule resolves by
  package attribute access or import without a warning, and any other
  name is an AttributeError;
* lint — the API001 pass flags in-repo imports that bypass the package
  surface (``from repro.net.packet import Packet``), and the shipped
  ``src`` tree itself must be clean under it.
"""

import importlib
import os
import warnings

import pytest

import repro.core
import repro.eval
import repro.net
import repro.obs
from repro.analysis import lint_paths

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))
PACKAGES = (repro.net, repro.core, repro.eval, repro.obs)


class TestRuntimeSurface:
    def test_public_names_importable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for package in PACKAGES:
                for name in package.__all__:
                    assert getattr(package, name) is not None, (
                        package.__name__, name)

    @pytest.mark.parametrize("package, submodule", [
        (repro.obs, "query"), (repro.core, "chi")])
    def test_submodule_attribute_access_is_quiet(self, package, submodule):
        name = f"{package.__name__}.{submodule}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            module = getattr(package, submodule)
            assert importlib.import_module(name) is module
        assert module.__name__ == name

    def test_unknown_attribute_raises(self):
        for package in PACKAGES:
            with pytest.raises(AttributeError, match="no_such_thing"):
                package.no_such_thing


def _lint(tmp_path, source, package="net"):
    consumer = tmp_path / "consumer.py"
    consumer.write_text("# repro-lint: module=myapp.consumer\n" + source)
    report = lint_paths([str(consumer), os.path.join(SRC, "repro", package)],
                        rules=["API001"])
    return [(f.rule, os.path.basename(f.path)) for f in report.new
            if f.path == str(consumer)]


class TestApi001:
    def test_public_name_from_internal_module_flagged(self, tmp_path):
        assert _lint(tmp_path,
                     "from repro.net.packet import Packet\n") == [
            ("API001", "consumer.py")]

    def test_submodule_pull_from_package_flagged(self, tmp_path):
        assert _lint(tmp_path, "from repro.net import queues\n") == [
            ("API001", "consumer.py")]

    def test_plain_internal_import_flagged(self, tmp_path):
        assert _lint(tmp_path, "import repro.net.routing\n") == [
            ("API001", "consumer.py")]

    def test_package_surface_import_clean(self, tmp_path):
        assert _lint(tmp_path,
                     "from repro.net import Packet, Simulator\n") == []

    def test_unexported_name_exempt(self, tmp_path):
        # red_packet_drop_probability has no public re-export; pulling
        # it from the implementation module is the only way and allowed.
        assert _lint(
            tmp_path,
            "from repro.net.queues import red_packet_drop_probability\n",
        ) == []

    def test_rule_silent_without_package_in_run(self, tmp_path):
        consumer = tmp_path / "consumer.py"
        consumer.write_text("# repro-lint: module=myapp.consumer\n"
                            "from repro.net.packet import Packet\n")
        report = lint_paths([str(consumer)], rules=["API001"])
        assert report.new == []

    def test_eval_public_submodule_imports_clean(self, tmp_path):
        # registry/experiments are in repro.eval.__all__: importing the
        # module — or names from it — is the promised surface.
        assert _lint(tmp_path, "from repro.eval import registry\n",
                     package="eval") == []
        assert _lint(tmp_path, "import repro.eval.registry\n",
                     package="eval") == []
        assert _lint(tmp_path,
                     "from repro.eval.registry import run_experiment\n",
                     package="eval") == []

    def test_eval_internal_module_imports_flagged(self, tmp_path):
        assert _lint(tmp_path, "from repro.eval import scenarios\n",
                     package="eval") == [("API001", "consumer.py")]
        assert _lint(tmp_path, "import repro.eval.results\n",
                     package="eval") == [("API001", "consumer.py")]
        assert _lint(
            tmp_path,
            "from repro.eval.specs import ScenarioSpec\n",
            package="eval") == [("API001", "consumer.py")]

    def test_obs_internal_module_imports_flagged(self, tmp_path):
        assert _lint(tmp_path,
                     "from repro.obs.record import recorder\n",
                     package="obs") == [("API001", "consumer.py")]
        assert _lint(tmp_path, "from repro.obs import query\n",
                     package="obs") == [("API001", "consumer.py")]

    def test_obs_package_and_public_module_imports_clean(self, tmp_path):
        assert _lint(tmp_path,
                     "from repro.obs import TraceReader, recorder\n",
                     package="obs") == []
        # telemetry/profile are public modules (in repro.obs.__all__).
        assert _lint(
            tmp_path,
            "from repro.obs.telemetry import merge_telemetry\n",
            package="obs") == []
        # cli's helpers have no public re-export: direct import allowed.
        assert _lint(tmp_path,
                     "from repro.obs.cli import summarize_paths\n",
                     package="obs") == []

    def test_shipped_tree_is_clean(self):
        report = lint_paths([SRC], rules=["API001"])
        assert [f.fingerprint() for f in report.new] == []
