"""PEP 562 plumbing for the packages that promise only their ``__all__``.

``repro.net``, ``repro.core``, ``repro.eval`` and ``repro.obs`` each call
:func:`narrow` once, naming their internal implementation modules and any
public submodules.  ``repro.net`` and ``repro.core`` import their
re-exports eagerly before the call; ``repro.eval`` and ``repro.obs`` pass
``exports`` instead and import nothing themselves, so each ``__all__``
name's submodule is imported on first access (``from repro.obs import
recorder`` loads the recorder, not the trace analytics beside it).
"""

import importlib
import sys
import types
import warnings
from typing import Mapping, Sequence


def narrow(namespace: dict, internal: Sequence[str],
           public: Sequence[str] = (),
           exports: Mapping[str, Sequence[str]] = {}) -> None:
    """Make package attribute access to ``internal`` submodules warn.

    ``exports`` maps a submodule to the ``__all__`` names it defines; each
    is imported from there when first accessed and then bound on the
    package, so it is the very object the submodule holds.  The package
    never keeps a binding to an internal submodule: the ones its eager
    re-exports created are dropped here, and the ones the import system
    creates later, whoever triggers the import, are refused.  Attribute
    access therefore routes through a module ``__getattr__`` that imports
    ``public`` submodules silently and ``internal`` ones with a
    :class:`DeprecationWarning`; ``__dir__`` lists ``__all__`` plus the
    internal modules.
    """
    package = namespace["__name__"]
    for name in internal:
        namespace.pop(name, None)
    home = {name: module for module, names in exports.items()
            for name in names}

    class Package(types.ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            # Importing ``package.name`` binds it here; not for internals.
            if name in internal and isinstance(value, types.ModuleType):
                return
            super().__setattr__(name, value)

    sys.modules[package].__class__ = Package

    def __getattr__(name: str):
        if name in home:
            value = getattr(importlib.import_module(
                f"{package}.{home[name]}"), name)
            namespace[name] = value
            return value
        if name in internal:
            warnings.warn(
                f"{package}.{name} is an internal module; import the "
                f"supported names from the {package} package instead "
                f"(see {package}.__all__)",
                DeprecationWarning,
                stacklevel=2,
            )
        elif name not in public:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return importlib.import_module(f"{package}.{name}")

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = lambda: sorted(
        set(namespace["__all__"]) | set(internal))
