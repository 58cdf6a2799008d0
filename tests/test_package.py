"""Public API surface: the advertised names import and hold together."""

import importlib

import pytest


class TestTopLevel:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_subpackages_importable(self):
        for name in ("net", "crypto", "dist", "core", "baselines", "eval"):
            module = importlib.import_module(f"repro.{name}")
            assert module is not None


@pytest.mark.parametrize("package", [
    "repro.net", "repro.crypto", "repro.dist", "repro.core",
    "repro.baselines", "repro.eval",
])
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert getattr(module, name) is not None, f"{package}.{name}"


class TestDocstrings:
    @pytest.mark.parametrize("module_name", [
        "repro", "repro.net.events", "repro.net.packet",
        "repro.net.topology", "repro.net.queues", "repro.net.router",
        "repro.net.routing", "repro.net.traffic", "repro.net.tcp",
        "repro.net.adversary", "repro.crypto.fingerprint",
        "repro.crypto.keys", "repro.crypto.signatures",
        "repro.dist.sync",
        "repro.dist.broadcast", "repro.dist.consensus",
        "repro.dist.reconcile", "repro.core.summaries",
        "repro.core.validation", "repro.core.detector",
        "repro.core.segments", "repro.core.pi2", "repro.core.pik2",
        "repro.core.chi",
        "repro.core.qmodel", "repro.core.fatih", "repro.core.replica",
        "repro.core.codecs", "repro.baselines.pathmodel",
        "repro.baselines.watchers", "repro.baselines.perlman",
        "repro.baselines.sectrace", "repro.baselines.awerbuch",
        "repro.baselines.zhang",
        "repro.eval.metrics", "repro.eval.scenarios",
        "repro.eval.experiments",
    ])
    def test_every_module_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40


class TestPublicClassDocs:
    def test_core_protocol_classes_documented(self):
        from repro.core.chi import ProtocolChi, QueueValidator
        from repro.core.pi2 import ProtocolPi2
        from repro.core.pik2 import ProtocolPiK2
        from repro.core.fatih import FatihSystem
        for cls in (ProtocolChi, QueueValidator, ProtocolPi2, ProtocolPiK2,
                    FatihSystem):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 20
