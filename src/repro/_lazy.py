"""PEP 562 lazy package surfaces: a name's module loads on first access.

Each ``repro`` package lists its public names once, as a table from
submodule to the names it exports::

    __all__, __getattr__, __dir__ = lazy_surface(__name__, {
        "chunk": ("Chunk", "Dataset"),
        "cluster": ("ClusterSpec",),
    })

``from repro.dfs import ClusterSpec`` then imports ``repro.dfs.cluster``
and no other submodule.  The value is stored in the package namespace,
so the hook runs once per name.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence
from typing import Any


def lazy_surface(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``."""
    home = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return [name for names in table.values() for name in names], __getattr__, __dir__
