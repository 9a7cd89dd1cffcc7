"""Package facades that import each public name on first use (PEP 562).

A package ``__init__`` lists its public names in ``__all__``, imports
them under ``TYPE_CHECKING`` for static analysis, and hands the runtime
lookup to :func:`lazy_exports`::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.net.node": ("Node",),
        "repro.net.topology": ("Topology", "grid_topology"),
    })

Importing the package then runs no submodule.  ``pkg.Node``,
``from pkg import Node`` and ``from pkg import *`` import
``repro.net.node`` the first time the name is asked for and keep the
value in the package's namespace, so later lookups are plain attribute
reads; ``dir(pkg)`` lists every public name, loaded or not.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package whose globals are
    ``namespace``; ``exports`` maps each submodule to the names it provides."""
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
