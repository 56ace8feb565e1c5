"""RL010 — kernel array contracts.

The slot kernel's bit-identity guarantee (array path == object path,
exactly) only holds while every array is constructed with an explicit,
agreed dtype.  ``np.zeros(n)`` happens to default to float64 today,
but the default is a property of numpy, not of our contract — and a
silent float32 (or platform-int) drift shows up as a one-ULP
allocation difference three layers later, failing the differential
suite with no obvious culprit.  This rule makes the contract a lint
invariant for ``repro/kernel/``:

* **explicit dtype**: ``np.zeros`` / ``ones`` / ``empty`` / ``full`` /
  ``array`` / ``asarray`` / ``arange`` must pass ``dtype=``
  (``*_like`` constructors inherit their prototype's dtype and are
  exempt);
* **dtype allowlist**: the dtype passed (or given to ``.astype``)
  must be one of the kernel's contract dtypes — ``float`` /
  ``np.float64`` / ``"float64"`` for real-valued state, ``int`` /
  ``np.int64`` / ``np.intp`` / ``"int64"`` for indices and ids,
  ``bool`` / ``np.bool_`` / ``"bool"`` for masks.  ``np.float32`` in
  the kernel is exactly the drift this rule exists to stop;
* **axis order**: ``transpose`` / ``swapaxes`` / ``.T`` reorder the
  (users, fields) layout every kernel function assumes; any use in
  kernel code is flagged so the reshape happens at the boundary, not
  mid-pipeline;
* **field contracts** (``dtype_contracts`` option): a mapping of
  SlotProblem-adjacent keyword names to required dtype spellings,
  checked at call sites — e.g. ``{"demand": "float64"}`` fails a
  ``SlotProblem(demand=np.zeros(n, dtype=np.float32))`` call.

The rule is syntactic: it sees dtype *spellings*, not resolved types,
so an alias like ``DT = np.float32; np.zeros(n, dtype=DT)`` escapes
it (and is caught by the differential tests instead).
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, ModuleContext
from repro.lint.registry import Rule, register_rule

#: numpy constructors that must be called with an explicit dtype.
DEFAULT_CONSTRUCTORS: Tuple[str, ...] = (
    "zeros",
    "ones",
    "empty",
    "full",
    "array",
    "asarray",
    "arange",
)

#: Acceptable dtype spellings for kernel arrays, as rendered source
#: text: the float64/int64/bool contract plus the builtin shorthands
#: that alias them on every supported platform.
DEFAULT_ALLOWED_DTYPES: Tuple[str, ...] = (
    "float",
    "np.float64",
    "numpy.float64",
    "'float64'",
    '"float64"',
    "int",
    "np.int64",
    "numpy.int64",
    "np.intp",
    "numpy.intp",
    "'int64'",
    '"int64"',
    "bool",
    "np.bool_",
    "numpy.bool_",
    "'bool'",
    '"bool"',
    "object",
)

#: Axis-reordering operations that break the (users, fields) layout.
AXIS_REORDER_METHODS: Tuple[str, ...] = ("transpose", "swapaxes")


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def _dtype_spelling(node: ast.expr) -> str:
    """The dtype argument as normalized source text."""
    text = ast.unparse(node)
    # Normalize alias heads so ``numpy.float64`` and ``np.float64``
    # compare equal against the allowlist.
    if text.startswith("numpy."):
        return text
    return text


def _dtype_keyword(call: ast.Call) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    return None


@register_rule
class KernelContractsRule(Rule):
    code = "RL010"
    name = "kernel-array-contracts"
    description = (
        "kernel array constructed without explicit contract dtype, "
        "off-allowlist dtype, or axis-order change mid-pipeline"
    )
    rationale = (
        "Bit-identity between the array kernel and the object path "
        "requires every array to carry the agreed dtype explicitly; "
        "float32 or axis-order drift surfaces as one-ULP allocation "
        "differences with no visible culprit."
    )
    default_includes = ("repro/kernel/",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        constructors = _str_tuple(
            module.option("constructors", DEFAULT_CONSTRUCTORS)
        )
        allowed = set(
            _str_tuple(module.option("allowed_dtypes", DEFAULT_ALLOWED_DTYPES))
        )
        contracts = module.option("dtype_contracts", {})
        contract_map: Mapping[str, str] = (
            {str(k): str(v) for k, v in contracts.items()}
            if isinstance(contracts, Mapping)
            else {}
        )
        np_aliases = _numpy_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(
                    module, node, np_aliases, constructors, allowed,
                    contract_map,
                )
            elif isinstance(node, ast.Attribute) and node.attr == "T":
                # ``x.T`` only counts when x plausibly is an array —
                # heuristically, any load-context attribute access; the
                # kernel package holds no matrices that *should* be
                # transposed mid-pipeline.
                if isinstance(node.ctx, ast.Load):
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        ".T transposes the (users, fields) layout the "
                        "kernel contract fixes; reshape at the "
                        "boundary instead",
                    )

    # ------------------------------------------------------------------
    def _check_call(
        self,
        module: ModuleContext,
        node: ast.Call,
        np_aliases: Set[str],
        constructors: Sequence[str],
        allowed: Set[str],
        contract_map: Mapping[str, str],
    ) -> Iterator[Finding]:
        func = node.func
        # np.zeros(...) style constructors.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in np_aliases
        ):
            if func.attr in constructors:
                dtype = _dtype_keyword(node)
                if dtype is None:
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"np.{func.attr}(...) without explicit dtype; "
                        "the kernel contract requires dtype=float, "
                        "dtype=np.int64, or dtype=bool spelled out",
                    )
                else:
                    spelling = _dtype_spelling(dtype)
                    if spelling not in allowed:
                        yield self.finding(
                            module, node.lineno, node.col_offset,
                            f"np.{func.attr}(dtype={spelling}) is off "
                            "the kernel dtype allowlist "
                            "(float64/int64/intp/bool)",
                        )
            elif func.attr in AXIS_REORDER_METHODS:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"np.{func.attr}() reorders the (users, fields) "
                    "axis layout the kernel contract fixes",
                )
        # x.astype(...) — the cast target must stay on the allowlist.
        elif isinstance(func, ast.Attribute) and func.attr == "astype":
            target: Optional[ast.expr] = None
            if node.args:
                target = node.args[0]
            else:
                target = _dtype_keyword(node)
            if target is not None:
                spelling = _dtype_spelling(target)
                if spelling not in allowed:
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f".astype({spelling}) leaves the kernel dtype "
                        "allowlist (float64/int64/intp/bool)",
                    )
        # x.transpose() / x.swapaxes(...) method form.
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in AXIS_REORDER_METHODS
            and not (
                isinstance(func.value, ast.Name)
                and func.value.id in np_aliases
            )
        ):
            yield self.finding(
                module, node.lineno, node.col_offset,
                f".{func.attr}() reorders the (users, fields) axis "
                "layout the kernel contract fixes",
            )
        # Field contracts at SlotProblem-adjacent call sites.
        if contract_map:
            yield from self._check_field_contracts(
                module, node, contract_map
            )

    def _check_field_contracts(
        self,
        module: ModuleContext,
        node: ast.Call,
        contract_map: Mapping[str, str],
    ) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg is None or kw.arg not in contract_map:
                continue
            required = contract_map[kw.arg]
            if not isinstance(kw.value, ast.Call):
                continue
            dtype = _dtype_keyword(kw.value)
            if dtype is None:
                continue
            spelling = _dtype_spelling(dtype)
            normalized = spelling.strip("'\"").replace("np.", "").replace(
                "numpy.", ""
            )
            if normalized != required and spelling != required:
                yield self.finding(
                    module, kw.value.lineno, kw.value.col_offset,
                    f"field {kw.arg!r} requires dtype {required}, got "
                    f"{spelling}",
                )


def _str_tuple(value: object) -> Tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(item) for item in value)
    return ()
