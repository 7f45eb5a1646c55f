"""REP005 — pool-dispatched workers never assign module-level globals.

The ``process+shm`` execution backend (:mod:`repro.fl.shm`) and the
campaign pool run worker functions in other processes: a worker that
writes a module-level global mutates only its own process's copy, so
state silently diverges from the parent and — worse for this repo —
results start to depend on which worker ran which task, destroying the
bitwise backend-parity guarantee. Under a thread pool the same write
is an outright race.

The rule finds dispatch sites (``pool.map(fn, ...)``,
``pool.submit(fn, ...)``, ``Executor(initializer=fn)``), resolves the
dispatched names to function definitions in the same module (including
one level of helper calls), and flags ``global``-declared assignments
and subscript/attribute stores whose root is a module-level binding.
Deliberate per-process worker state (the process-pool initializer
pattern) must carry an explicit ``# repro: allow[REP005]``
justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.checks.context import ModuleContext
from repro.checks.findings import Finding
from repro.checks.rules.base import Rule, attribute_chain

__all__ = ["ConcurrencySafetyRule"]

_DISPATCH_ATTRS = {"map", "submit"}


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _all_function_defs(tree: ast.Module) -> Dict[str, List[ast.FunctionDef]]:
    defs: Dict[str, List[ast.FunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    return defs


def _dispatched_names(tree: ast.Module) -> Set[str]:
    """Function names handed to pool ``map``/``submit``/``initializer``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DISPATCH_ATTRS
            and node.args
        ):
            chain = attribute_chain(node.func.value)
            rooted_in_pool = chain is not None and any(
                "pool" in part.lower() or "executor" in part.lower()
                for part in chain
            )
            if rooted_in_pool and isinstance(node.args[0], ast.Name):
                names.add(node.args[0].id)
        for kw in node.keywords:
            if kw.arg == "initializer" and isinstance(kw.value, ast.Name):
                names.add(kw.value.id)
    return names


def _root_name(node: ast.AST):
    """The base ``Name`` of a Subscript/Attribute store target."""
    current = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        current = current.value
    return current if isinstance(current, ast.Name) else None


class ConcurrencySafetyRule(Rule):
    """Worker functions dispatched to execution pools stay pure of
    module-global writes."""

    rule_id = "REP005"
    title = "concurrency safety: no global writes in pool workers"
    rationale = (
        "a global written by a pool worker diverges per process (or "
        "races under threads) and makes results depend on which worker "
        "ran which task, breaking bitwise backend parity. Intentional "
        "per-process initializer state needs an explicit "
        "# repro: allow[REP005] justification."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag module-global writes reachable from dispatched workers."""
        dispatched = _dispatched_names(ctx.tree)
        if not dispatched:
            return
        module_names = _module_level_names(ctx.tree)
        defs = _all_function_defs(ctx.tree)

        # Expand one transitive layer at a time: a worker that calls a
        # module helper taints that helper too.
        worklist = sorted(dispatched)
        seen: Set[str] = set()
        while worklist:
            name = worklist.pop()
            if name in seen or name not in defs:
                continue
            seen.add(name)
            for fn in defs[name]:
                yield from self._check_worker(ctx, fn, module_names)
                for callee in self._called_names(fn):
                    if callee in defs and callee not in seen:
                        worklist.append(callee)

    @staticmethod
    def _called_names(fn: ast.FunctionDef) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
        return names

    def _check_worker(
        self, ctx, fn: ast.FunctionDef, module_names: Set[str]
    ) -> Iterator[Finding]:
        declared_global: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)

        for node in ast.walk(fn):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                yield from self._check_target(
                    ctx, fn, node, target, module_names, declared_global
                )

    def _check_target(
        self, ctx, fn, stmt, target, module_names, declared_global
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Name):
            if target.id in declared_global:
                yield self.finding(
                    ctx,
                    stmt,
                    f"pool worker {fn.name!r} assigns global "
                    f"{target.id!r}: concurrent workers race and results "
                    "become scheduling-dependent",
                )
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            root = _root_name(target)
            if root is not None and root.id in module_names:
                yield self.finding(
                    ctx,
                    stmt,
                    f"pool worker {fn.name!r} mutates module-level "
                    f"{root.id!r}: thread workers race on it and process "
                    "workers silently diverge from the parent",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_target(
                    ctx, fn, stmt, elt, module_names, declared_global
                )
