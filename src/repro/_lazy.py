"""Lazy package exports (PEP 562).

A package ``__init__`` re-exports names from its submodules so callers
can write ``from repro.core import SlotProblem``.  Importing every
submodule up front would make ``import repro.serve.server`` load the
simulator, the sweeps and the client fleet as well, so each package
instead resolves an exported name on first access::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.qoe": ("QoEWeights", "UserQoELedger"),
    })

The first lookup imports the defining module and stores the name in
the package namespace, so later lookups are plain attribute reads.
Static checkers see the package-level names as ``Any``; typed code
inside ``src/`` imports from the defining module instead.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, origins: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``origins`` maps each defining module to the names the package
    exports from it.
    """
    namespace = vars(sys.modules[package])
    homes = {name: module for module, names in origins.items() for name in names}

    def __getattr__(name: str) -> Any:
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__
