"""Whole-project analysis model: symbols, calls, and the import graph.

The per-file rules (RL001-RL007) see one AST at a time, which is
exactly the wrong granularity for the bug classes that threaten the
paper's two hard guarantees — the 1/60 s slot deadline and seed
reproducibility.  A blocking call is rarely *in* the ``async def``; it
hides two sync helpers down.  This module builds, once per engine run,
the cross-file facts those rules need:

* a **module table** mapping dotted module names to parsed symbol
  information (functions, methods, their call sites, their imports);
* an **import graph** over the scanned files (project-internal edges
  only), and
* a **call resolver** that maps a call chain like ``("self",
  "_fold_pending")`` or ``("helper",)`` back to a
  :class:`FunctionInfo`, within the documented limits below.

Resolution limits (deliberate, documented in
``docs/static-analysis.md``):

* no dynamic dispatch — ``self.method()`` resolves within the same
  class only (no inheritance walk), and attribute chains through
  object fields (``self.obs.flight.trigger()``) never resolve;
* only ``import x`` / ``from x import y`` bindings are followed —
  aliasing through assignments or containers is invisible;
* reachability walks are bounded by the caller-supplied depth.

The model is cached keyed by every file's ``(path, mtime_ns, size)``,
so repeated runs over an unchanged tree (editor integrations, the
fixture-driven test suite) pay the parse cost once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Placeholder chain element for sub-expressions that are not plain
#: names (calls, subscripts, literals): ``Path(x).open`` becomes
#: ``("?", "open")``.
OPAQUE = "?"

#: Wrapper callables whose coroutine arguments are consumed, not
#: dropped (``asyncio.gather(run())`` is fine; bare ``run()`` is not).
COROUTINE_WRAPPERS: FrozenSet[str] = frozenset(
    {
        "create_task",
        "ensure_future",
        "gather",
        "wait",
        "wait_for",
        "shield",
        "run",
        "run_until_complete",
        "run_coroutine_threadsafe",
        "Task",
        "timeout",
        "as_completed",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    chain: Tuple[str, ...]
    line: int
    col: int
    awaited: bool = False
    #: True when the call is a bare expression statement (its return
    #: value is dropped on the floor).
    is_statement: bool = False
    #: True when the call appears inside a coroutine-consuming wrapper
    #: such as ``asyncio.gather(...)`` or ``asyncio.create_task(...)``.
    in_wrapper: bool = False

    @property
    def tail(self) -> str:
        return self.chain[-1] if self.chain else ""

    def dotted(self) -> str:
        return ".".join(self.chain)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method: identity plus its outgoing calls."""

    module: str
    qualname: str
    path: str
    line: int
    is_async: bool
    params: Tuple[str, ...]
    calls: Tuple[CallSite, ...]

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def class_name(self) -> Optional[str]:
        if "." in self.qualname:
            return self.qualname.rsplit(".", 1)[0]
        return None

    @property
    def key(self) -> str:
        """Project-unique identity: ``module:qualname``."""
        return f"{self.module}:{self.qualname}"


@dataclass(frozen=True)
class ModuleInfo:
    """Everything the project model knows about one source file."""

    name: str
    path: str
    #: Local name -> dotted import target.  ``import numpy as np``
    #: yields ``{"np": "numpy"}``; ``from repro.serve.protocol2 import
    #: read_frame`` yields ``{"read_frame":
    #: "repro.serve.protocol2.read_frame"}``.
    imports: Mapping[str, str] = field(default_factory=dict)
    #: Qualname -> function/method info.
    functions: Mapping[str, FunctionInfo] = field(default_factory=dict)
    #: Dotted modules named in import statements (pre-filtering; the
    #: project graph keeps only edges to scanned modules).
    imported_modules: Tuple[str, ...] = ()


class ProjectModel:
    """The cross-file symbol/call index for one engine run."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.by_path: Dict[str, ModuleInfo] = {m.path: m for m in modules}

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def import_graph(self) -> Dict[str, Tuple[str, ...]]:
        """Project-internal import edges, deterministically ordered."""
        graph: Dict[str, Tuple[str, ...]] = {}
        for name in sorted(self.modules):
            module = self.modules[name]
            edges = sorted(
                {
                    target
                    for target in module.imported_modules
                    if target in self.modules and target != name
                }
            )
            graph[name] = tuple(edges)
        return graph

    def functions(self) -> Iterator[FunctionInfo]:
        for name in sorted(self.modules):
            module = self.modules[name]
            for qualname in sorted(module.functions):
                yield module.functions[qualname]

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self,
        module: ModuleInfo,
        caller: Optional[FunctionInfo],
        chain: Tuple[str, ...],
    ) -> Optional[FunctionInfo]:
        """Map a call chain to a project function, or ``None``.

        Handles, in order: ``self.method()`` within the caller's
        class; bare names (same module, then ``from``-imports);
        ``module.func()`` through ``import`` bindings; and
        ``Class.method()`` for same-module classes.  Everything else
        (attribute chains through objects, subscripts, dynamic
        dispatch) is out of scope by design.
        """
        if not chain or OPAQUE in chain:
            return None
        if chain[0] == "self" and caller is not None and len(chain) == 2:
            class_name = caller.class_name
            if class_name is None:
                return None
            return module.functions.get(f"{class_name}.{chain[1]}")
        if len(chain) == 1:
            name = chain[0]
            local = module.functions.get(name)
            if local is not None:
                return local
            target = module.imports.get(name)
            if target is not None:
                return self._resolve_dotted(target)
            return None
        if len(chain) == 2:
            base, attr = chain
            # Class.method in the same module.
            method = module.functions.get(f"{base}.{attr}")
            if method is not None:
                return method
            target = module.imports.get(base)
            if target is not None:
                return self._resolve_dotted(f"{target}.{attr}")
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        """``pkg.mod.func`` or ``pkg.mod.Class.func`` -> FunctionInfo."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:split]))
            if module is None:
                continue
            qualname = ".".join(parts[split:])
            found = module.functions.get(qualname)
            if found is not None:
                return found
        return None

    def reachable_sync_callees(
        self,
        module: ModuleInfo,
        origin: FunctionInfo,
        max_depth: int,
    ) -> List[Tuple[FunctionInfo, CallSite, Tuple[str, ...]]]:
        """Sync functions reachable from ``origin`` via resolvable calls.

        Returns ``(callee, call_site_in_origin, evidence)`` triples
        where ``evidence`` lists the ``path:line`` hops from origin to
        callee.  The walk is depth-bounded and never follows into
        ``async def`` callees (those are charged to their own check).
        """
        out: List[Tuple[FunctionInfo, CallSite, Tuple[str, ...]]] = []
        seen: Set[str] = {origin.key}

        def walk(
            fn: FunctionInfo,
            root_site: Optional[CallSite],
            trail: Tuple[str, ...],
            depth: int,
        ) -> None:
            if depth > max_depth:
                return
            fn_module = self.modules.get(fn.module, module)
            for site in fn.calls:
                callee = self.resolve_call(fn_module, fn, site.chain)
                if callee is None or callee.is_async or callee.key in seen:
                    continue
                seen.add(callee.key)
                first = root_site if root_site is not None else site
                hop = (
                    f"{fn.path}:{site.line} {fn.qualname} calls "
                    f"{callee.qualname}"
                )
                out.append((callee, first, trail + (hop,)))
                walk(callee, first, trail + (hop,), depth + 1)

        walk(origin, None, (), 1)
        return out


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def call_chain(node: ast.AST) -> Tuple[str, ...]:
    """Flatten ``a.b.c`` into ``("a", "b", "c")``; opaque steps -> "?"."""
    parts: List[str] = []
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Name):
            parts.append(current.id)
            break
        else:
            parts.append(OPAQUE)
            break
    return tuple(reversed(parts))


def _is_coroutine_wrapper(chain: Tuple[str, ...]) -> bool:
    return bool(chain) and chain[-1] in COROUTINE_WRAPPERS


class _FunctionCollector(ast.NodeVisitor):
    """Collects functions/methods and their call sites for one module."""

    def __init__(self, module_name: str, path: str) -> None:
        self.module_name = module_name
        self.path = path
        self.functions: Dict[str, FunctionInfo] = {}
        self._class_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Nested classes are qualified with their outer class only one
        # level deep; deeper nesting collapses (out of scope).
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def _handle_function(
        self, node: ast.AST, name: str, args: ast.arguments, is_async: bool
    ) -> None:
        qualname = (
            f"{self._class_stack[-1]}.{name}" if self._class_stack else name
        )
        params = tuple(
            arg.arg
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        )
        calls = tuple(_collect_calls(node))
        # First definition wins; redefinitions (overloads, conditional
        # defs) keep the original anchor, which is enough for linting.
        self.functions.setdefault(
            qualname,
            FunctionInfo(
                module=self.module_name,
                qualname=qualname,
                path=self.path,
                line=getattr(node, "lineno", 1),
                is_async=is_async,
                params=params,
                calls=calls,
            ),
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node, node.name, node.args, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node, node.name, node.args, is_async=True)


def _collect_calls(root: ast.AST) -> List[CallSite]:
    """Call sites in one function body, excluding nested ``def``s.

    The walk carries just enough parent context to mark each call as
    awaited (direct ``await call()``), a bare expression statement
    (``call()`` on its own line), or nested inside a
    coroutine-consuming wrapper (``asyncio.gather(call())``).
    """
    sites: List[CallSite] = []

    def walk(node: ast.AST, parent: Optional[ast.AST], wrapped: bool) -> None:
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return  # nested defs own their calls
        child_wrapped = wrapped
        if isinstance(node, ast.Call):
            sites.append(
                CallSite(
                    chain=call_chain(node.func),
                    line=node.lineno,
                    col=node.col_offset,
                    awaited=isinstance(parent, ast.Await),
                    is_statement=isinstance(parent, ast.Expr),
                    in_wrapper=wrapped,
                )
            )
            if _is_coroutine_wrapper(call_chain(node.func)):
                child_wrapped = True
        for child in ast.iter_child_nodes(node):
            walk(child, node, child_wrapped)

    walk(root, None, False)
    sites.sort(key=lambda s: (s.line, s.col))
    return sites


def _module_imports(
    tree: ast.Module,
) -> Tuple[Dict[str, str], Tuple[str, ...]]:
    """Local import bindings plus the raw imported-module list."""
    bindings: Dict[str, str] = {}
    modules: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds the top-level name ``a``.
                    top = alias.name.split(".")[0]
                    bindings[top] = top
                modules.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            modules.append(node.module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return bindings, tuple(modules)


def module_name_for(path: Path) -> str:
    """Dotted module name, derived from the package structure on disk.

    Walks parent directories while an ``__init__.py`` marks them as
    packages, so both ``src/repro/serve/slotloop.py`` (->
    ``repro.serve.slotloop``) and synthetic test trees resolve without
    any project-specific configuration.
    """
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


def module_info_from_tree(
    tree: ast.Module, path: str, module_name: str
) -> ModuleInfo:
    """Extract one module's symbols from an already-parsed AST."""
    collector = _FunctionCollector(module_name, path)
    for node in tree.body:
        collector.visit(node)
    bindings, imported = _module_imports(tree)
    return ModuleInfo(
        name=module_name,
        path=path,
        imports=bindings,
        functions=collector.functions,
        imported_modules=imported,
    )


def build_project_model(
    parsed: Sequence[Tuple[str, Path, ast.Module]],
) -> ProjectModel:
    """Build the model from ``(normalized_path, path, tree)`` triples."""
    modules: List[ModuleInfo] = []
    for normalized, path, tree in parsed:
        modules.append(
            module_info_from_tree(tree, normalized, module_name_for(path))
        )
    return ProjectModel(modules)


def single_module_model(
    tree: ast.Module, path: str, module_name: Optional[str] = None
) -> ProjectModel:
    """A one-module project, for snippet/fixture linting."""
    name = module_name if module_name is not None else Path(path).stem
    return ProjectModel([module_info_from_tree(tree, path, name)])


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

CacheKey = Tuple[Tuple[str, int, int], ...]

#: Most-recent project models, keyed by every file's (path, mtime_ns,
#: size).  A handful of entries is plenty: the engine asks for one key
#: per run and editors re-lint the same tree repeatedly.
_CACHE: Dict[CacheKey, ProjectModel] = {}
_CACHE_MAX = 4


def cache_key(files: Sequence[Path]) -> CacheKey:
    """Stat-based key: any touched file invalidates the entry."""
    entries: List[Tuple[str, int, int]] = []
    for file_path in files:
        stat = file_path.stat()
        entries.append(
            (file_path.resolve().as_posix(), stat.st_mtime_ns, stat.st_size)
        )
    return tuple(sorted(entries))


def cached_project_model(
    key: CacheKey,
    parsed: Sequence[Tuple[str, Path, ast.Module]],
) -> ProjectModel:
    """The model for ``key``, building (and memoizing) on miss."""
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    model = build_project_model(parsed)
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.clear()
    _CACHE[key] = model
    return model


def clear_project_cache() -> None:
    """Drop every cached model (tests, long-lived processes)."""
    _CACHE.clear()
