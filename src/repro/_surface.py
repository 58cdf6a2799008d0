"""PEP 562 plumbing for the packages that promise only their ``__all__``.

``repro.net``, ``repro.core``, ``repro.eval`` and ``repro.obs`` each call
:func:`narrow` once, after their re-exports, naming their internal
implementation modules and any public submodules.
"""

import importlib
import warnings
from typing import Sequence


def narrow(namespace: dict, internal: Sequence[str],
           public: Sequence[str] = ()) -> None:
    """Make package attribute access to ``internal`` submodules warn.

    Drops the submodule bindings the package's re-exports created, so
    attribute access routes through a module ``__getattr__`` that imports
    ``public`` submodules silently and ``internal`` ones with a
    :class:`DeprecationWarning`; ``__dir__`` lists ``__all__`` plus the
    internal modules.
    """
    package = namespace["__name__"]
    for name in internal:
        namespace.pop(name, None)

    def __getattr__(name: str):
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
