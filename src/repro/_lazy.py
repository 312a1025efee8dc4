"""Lazy package exports: a name loads its module on first access.

A package lists the names it exports, per submodule, once::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "tracer": ("NULL_TRACER", "Tracer"),
        "exporters": ("write_jsonl",),
    })

Importing the package then imports none of its submodules.  Reading an
exported name (``from repro.telemetry import Tracer``,
``repro.PaldiaPolicy``) imports the module that defines it and returns
that module's current binding (PEP 562), so a name patched in its module
reads patched through the package too.  Any other submodule of the
package also resolves as an attribute.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    exports: dict[str, tuple[str, ...]],
    submodules: tuple[str, ...] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule name (relative to ``package``) to
    the names the package exports from it; ``submodules`` are the
    submodules the package exports as themselves.
    """
    origin = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }
    public = [*origin, *submodules]

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            return getattr(importlib.import_module(module), name)
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(importlib.import_module(package))) | set(public))

    return __getattr__, __dir__, public
