"""PEP 562 lazy exports for the packages that import nothing at their top.

``repro.eval``, ``repro.obs`` and ``repro.sweep`` call :func:`lazy_exports`
once instead of importing their re-exports, so each ``__all__`` name's
submodule is imported on first access (``from repro.obs import recorder``
loads the recorder, not the trace analytics beside it).  Which names are the
supported surface is decided by each package's ``__all__`` and enforced
by the ``API001`` lint rule, not here.
"""

import importlib
from typing import Mapping, Sequence


def lazy_exports(namespace: dict,
                 exports: Mapping[str, Sequence[str]]) -> None:
    """Resolve ``exports`` on first access through a module ``__getattr__``.

    ``exports`` maps a submodule to the ``__all__`` names it defines; each
    is imported from there when first read and then bound on the package,
    so it is the very object the submodule holds.  Any other attribute
    that names a submodule imports it; anything else is an
    :class:`AttributeError`.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str):
        if name in home:
            value = getattr(importlib.import_module(
                f"{package}.{home[name]}"), name)
            namespace[name] = value
            return value
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as error:
            if error.name != f"{package}.{name}":
                raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    namespace["__getattr__"] = __getattr__
