"""Per-layer self-time tracing, installed from outside the program.

The traced pass of the end-to-end benchmark wraps public functions of
each layer inside the server process.  Every wrapper pushes a frame on
one span stack, so a span's *self* time is its duration minus the time
its child spans cover: ``RateModel.curve`` nests under tile selection,
``PolynomialDelayPredictor.predict`` under the allocator.  The server
runs its pipeline on one thread and every wrapped function is
synchronous, so a single stack per process is exact.

The wrapper table is data, ``(module, qualname, metric)`` rows kept in
``spec.json``.  Several rows may feed one metric.  A row whose target
a later refactor renamed or deleted is reported as absent and the run
continues without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Per-metric accumulator: [calls, self seconds].
Stat = List[float]


class LayerTracer:
    """Span-stack timer for a table of wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        # The bottom entry collects the time of root spans, so a
        # finishing span can always charge its parent.
        self._stack: List[float] = [0.0]
        self.stats: Dict[str, Stat] = {}
        self.absent: List[str] = []

    def install(self, rows: Sequence[Sequence[str]]) -> None:
        """Wrap every ``(module, qualname, metric)`` row."""
        for module_name, qualname, metric in rows:
            target = _resolve(module_name, qualname)
            fn = target[2] if target is not None else None
            rewrap: Callable[[Any], Any] = lambda wrapped: wrapped
            if isinstance(fn, (staticmethod, classmethod)):
                rewrap = type(fn)
                fn = fn.__func__
            if (
                target is None
                or not inspect.isfunction(fn)
                or inspect.iscoroutinefunction(fn)
            ):
                # Missing, or not a synchronous function: only those
                # nest correctly on the shared stack.
                self.absent.append(f"{module_name}:{qualname}")
                continue
            owner, name, _ = target
            wrapped = self._timed(fn, self.stats.setdefault(metric, [0, 0.0]))
            functools.update_wrapper(wrapped, fn)
            setattr(owner, name, rewrap(wrapped))
            if isinstance(owner, ModuleType):
                _rebind_aliases(owner, fn, wrapped)

    def report(self) -> Dict[str, Any]:
        """JSON-ready totals: ``stats`` maps each metric to ``[calls, self_s]``."""
        return {
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "absent": list(self.absent),
        }

    def _timed(self, fn: Callable[..., Any], stat: Stat) -> Callable[..., Any]:
        stack = self._stack
        clock = self._clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return traced


def _resolve(module_name: str, qualname: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, raw attribute)`` for a target, or None."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, name)
    except AttributeError:
        return None
    return owner, name, raw


def _rebind_aliases(
    home: ModuleType, original: Callable[..., Any], wrapped: Callable[..., Any]
) -> None:
    """Point ``from home import fn`` copies in sibling modules at the wrapper."""
    package = home.__name__.split(".")[0] + "."
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(package):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
