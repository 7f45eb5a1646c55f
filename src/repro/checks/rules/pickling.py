"""REP007 — no parameter-vector pickling in the round hot path.

The round fan-out (``repro.fl.execution``, ``repro.fl.shm``, and the
trainer's round loop) moves one flat float64 vector per client per
direction. Packing such a vector into a task or result literal hands it
to the process pool's pickler — ``2 * Q * P * 8`` serialized bytes per
round — which is exactly the copy the :class:`~repro.fl.shm.SharedArrayPool`
zero-copy transport exists to eliminate. Parameter vectors go through
the shared blocks; a deliberate exception needs an explicit
``# repro: allow[REP007] <why>`` suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.checks.context import ModuleContext
from repro.checks.findings import Finding
from repro.checks.rules.base import Rule

__all__ = ["ParamPicklingRule"]

# Bare names that conventionally hold one flat parameter vector.
_PARAM_NAMES = frozenset(
    {"global_params", "flat_params", "trained_params", "param_vector"}
)

# Attribute accesses (``update.params``, ``u.params``) that read one.
_PARAM_ATTRS = frozenset({"params", "flat_params"})

_HOT_MODULES = frozenset(
    {"repro.fl.execution", "repro.fl.shm", "repro.fl.trainer"}
)

_MESSAGE = (
    "parameter vector {what!r} packed into a task/result literal in the "
    "round hot path; it will be pickled per client per round — route it "
    "through the SharedArrayPool (repro.fl.shm), or mark a deliberate "
    "pickle fallback with '# repro: allow[REP007] <why>'"
)


class ParamPicklingRule(Rule):
    """Round hot path ships scalars; parameter vectors go via shm."""

    rule_id = "REP007"
    title = "zero-copy rounds: no parameter-vector pickling in the hot path"
    rationale = (
        "the execution backends fan one flat float64 vector per client "
        "per direction out to worker processes; putting that vector "
        "into a pickled task or result tuple serializes 2*Q*P*8 bytes "
        "per round, the exact copy the shared-memory transport removes. "
        "A deliberate exception needs an explicit suppression."
    )

    def applies(self, ctx: ModuleContext) -> bool:
        """The round fan-out modules, library code only."""
        return not ctx.is_test and ctx.module in _HOT_MODULES

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag tuple/list literals carrying a parameter vector."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Tuple, ast.List)):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue  # unpacking targets don't pickle anything
            for element in node.elts:
                what = _param_vector_name(element)
                if what is not None:
                    yield self.finding(
                        ctx, element, _MESSAGE.format(what=what)
                    )

    # (module-level helper below keeps the rule class symmetrical with
    # the other rules)


def _param_vector_name(node: ast.AST) -> Optional[str]:
    """The offending name when ``node`` reads a parameter vector."""
    if isinstance(node, ast.Name) and node.id in _PARAM_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in _PARAM_ATTRS:
        return node.attr
    return None
