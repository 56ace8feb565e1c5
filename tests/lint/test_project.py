"""The whole-project model: extraction, resolution, graph, cache."""

import ast
import os
import textwrap
from pathlib import Path

import pytest

from repro.lint.project import (
    ProjectModel,
    build_project_model,
    cache_key,
    cached_project_model,
    call_chain,
    clear_project_cache,
    module_info_from_tree,
    module_name_for,
    single_module_model,
)


def _module(source: str, path: str = "pkg/mod.py", name: str = "pkg.mod"):
    tree = ast.parse(textwrap.dedent(source))
    return module_info_from_tree(tree, path, name)


def _write_package(root: Path) -> None:
    """A tiny synthetic package tree: pkg.a -> pkg.b -> pkg.c."""
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "a.py").write_text(
        "import pkg.b\n\n\ndef entry() -> None:\n    pkg.b.helper()\n",
        encoding="utf-8",
    )
    (pkg / "b.py").write_text(
        "from pkg.c import leaf\n\n\ndef helper() -> None:\n    leaf()\n",
        encoding="utf-8",
    )
    (pkg / "c.py").write_text(
        "def leaf() -> None:\n    return None\n", encoding="utf-8"
    )


def _model_for(root: Path) -> ProjectModel:
    parsed = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parsed.append((path.as_posix(), path, tree))
    return build_project_model(parsed)


class TestCallChain:
    def test_flattens_dotted_chain(self):
        node = ast.parse("a.b.c()").body[0].value
        assert call_chain(node.func) == ("a", "b", "c")

    def test_opaque_head_for_call_receivers(self):
        node = ast.parse("Path(x).read_text()").body[0].value
        assert call_chain(node.func) == ("?", "read_text")


class TestModuleNames:
    def test_package_tree_yields_dotted_names(self, tmp_path):
        _write_package(tmp_path)
        assert module_name_for(tmp_path / "pkg" / "a.py") == "pkg.a"
        assert module_name_for(tmp_path / "pkg" / "__init__.py") == "pkg"

    def test_bare_file_outside_packages(self, tmp_path):
        path = tmp_path / "script.py"
        path.write_text("", encoding="utf-8")
        assert module_name_for(path) == "script"


class TestResolution:
    def test_bare_name_resolves_same_module(self):
        info = _module(
            """
            def helper() -> None:
                return None

            def caller() -> None:
                helper()
            """
        )
        model = ProjectModel([info])
        caller = info.functions["caller"]
        target = model.resolve_call(info, caller, ("helper",))
        assert target is not None and target.qualname == "helper"

    def test_self_method_resolves_within_class(self):
        info = _module(
            """
            class Loop:
                def run(self) -> None:
                    self.step()

                def step(self) -> None:
                    return None
            """
        )
        model = ProjectModel([info])
        caller = info.functions["Loop.run"]
        target = model.resolve_call(info, caller, ("self", "step"))
        assert target is not None and target.qualname == "Loop.step"

    def test_cross_module_from_import(self, tmp_path):
        _write_package(tmp_path)
        model = _model_for(tmp_path)
        mod_b = model.modules["pkg.b"]
        target = model.resolve_call(
            mod_b, mod_b.functions["helper"], ("leaf",)
        )
        assert target is not None and target.module == "pkg.c"

    def test_attribute_chains_through_objects_stay_opaque(self):
        info = _module(
            """
            class Loop:
                def run(self) -> None:
                    self.obs.flight.trigger()
            """
        )
        model = ProjectModel([info])
        caller = info.functions["Loop.run"]
        assert model.resolve_call(
            info, caller, ("self", "obs", "flight", "trigger")
        ) is None


class TestReachability:
    SOURCE = """
        import time

        def deep() -> None:
            time.sleep(1.0)

        def mid() -> None:
            deep()

        def shallow() -> None:
            mid()

        async def run() -> None:
            shallow()
    """

    def test_walk_collects_evidence_trail(self):
        info = _module(self.SOURCE)
        model = ProjectModel([info])
        run = info.functions["run"]
        reached = model.reachable_sync_callees(info, run, max_depth=3)
        names = [callee.qualname for callee, _, _ in reached]
        assert names == ["shallow", "mid", "deep"]
        _, first_site, evidence = reached[-1]
        # The anchor points at the call inside the coroutine...
        assert first_site.chain == ("shallow",)
        # ...and the evidence walks every hop down to ``deep``.
        assert len(evidence) == 3
        assert "run calls shallow" in evidence[0]
        assert "mid calls deep" in evidence[-1]

    def test_depth_bound_cuts_the_walk(self):
        info = _module(self.SOURCE)
        model = ProjectModel([info])
        run = info.functions["run"]
        reached = model.reachable_sync_callees(info, run, max_depth=2)
        names = [callee.qualname for callee, _, _ in reached]
        assert names == ["shallow", "mid"]

    def test_async_callees_are_not_followed(self):
        info = _module(
            """
            async def inner() -> None:
                return None

            async def outer() -> None:
                await inner()
            """
        )
        model = ProjectModel([info])
        outer = info.functions["outer"]
        assert model.reachable_sync_callees(info, outer, max_depth=5) == []


class TestCallSites:
    def test_awaited_statement_and_wrapper_flags(self):
        info = _module(
            """
            import asyncio

            async def run() -> None:
                await asyncio.sleep(0)
                helper()
                asyncio.gather(helper())
            """
        )
        calls = {c.dotted(): c for c in info.functions["run"].calls}
        assert calls["asyncio.sleep"].awaited
        assert calls["helper"].is_statement or calls["helper"].in_wrapper
        wrapped = [
            c for c in info.functions["run"].calls
            if c.dotted() == "helper" and c.in_wrapper
        ]
        assert wrapped, "call inside gather() must carry in_wrapper"

    def test_nested_defs_own_their_calls(self):
        info = _module(
            """
            def outer() -> None:
                def inner() -> None:
                    hidden()
                visible()
            """
        )
        outer_calls = {c.dotted() for c in info.functions["outer"].calls}
        assert outer_calls == {"visible"}
        # Nested defs are not indexed as project symbols — closures are
        # outside the resolution scope by design.
        assert "inner" not in info.functions


class TestCache:
    def setup_method(self):
        clear_project_cache()

    def teardown_method(self):
        clear_project_cache()

    def _parsed(self, root: Path):
        parsed = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            parsed.append((path.as_posix(), path, tree))
        return parsed

    def test_same_key_returns_same_model_object(self, tmp_path):
        _write_package(tmp_path)
        files = sorted(tmp_path.rglob("*.py"))
        parsed = self._parsed(tmp_path)
        first = cached_project_model(cache_key(files), parsed)
        second = cached_project_model(cache_key(files), parsed)
        assert first is second

    def test_mtime_change_invalidates(self, tmp_path):
        _write_package(tmp_path)
        files = sorted(tmp_path.rglob("*.py"))
        parsed = self._parsed(tmp_path)
        first = cached_project_model(cache_key(files), parsed)
        target = tmp_path / "pkg" / "b.py"
        stat = target.stat()
        os.utime(
            target, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000)
        )
        rebuilt = cached_project_model(cache_key(files), self._parsed(tmp_path))
        assert rebuilt is not first

    def test_content_change_invalidates(self, tmp_path):
        _write_package(tmp_path)
        files = sorted(tmp_path.rglob("*.py"))
        first = cached_project_model(cache_key(files), self._parsed(tmp_path))
        (tmp_path / "pkg" / "c.py").write_text(
            "def leaf() -> int:\n    return 1\n", encoding="utf-8"
        )
        rebuilt = cached_project_model(
            cache_key(files), self._parsed(tmp_path)
        )
        assert rebuilt is not first
        leaf = rebuilt.modules["pkg.c"].functions["leaf"]
        assert first.modules["pkg.c"].functions["leaf"] is not leaf


class TestSingleModuleFallback:
    def test_snippets_resolve_locally(self):
        tree = ast.parse(
            "def helper() -> None:\n    return None\n\n"
            "async def run() -> None:\n    helper()\n"
        )
        model = single_module_model(tree, "snippet.py")
        info = model.by_path["snippet.py"]
        target = model.resolve_call(info, info.functions["run"], ("helper",))
        assert target is not None
