"""REP001 — all randomness flows through seeded generators.

Bitwise backend parity (serial and process+shm producing identical
histories) holds only because every stochastic component draws from a
``numpy.random.Generator`` rooted in the experiment's master seed via
:mod:`repro.rng`. Three constructs silently break that chain:

* the stdlib ``random`` module (process-global state, seeded — if at
  all — independently of the experiment seed);
* legacy ``np.random.<fn>`` module-level calls (``np.random.normal``,
  ``np.random.seed``, …), which share one hidden global
  ``RandomState``;
* ad-hoc ``np.random.default_rng(...)`` construction outside
  :mod:`repro.rng`, which bypasses the uniform ``SeedLike`` handling
  (an unseeded call draws OS entropy; a seeded one forks the seed
  universe).

Oort (Lai et al.) and FedCS (arXiv:1804.08333) reimplementations both
failed to reproduce published numbers because of exactly this kind of
RNG drift.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.checks.context import ModuleContext
from repro.checks.findings import Finding
from repro.checks.rules.base import Rule, attribute_chain

__all__ = ["DeterminismRule"]

_NUMPY_MODULES = {"numpy", "np"}

# np.random attributes that are legitimate Generator machinery rather
# than hidden-global legacy functions.
_GENERATOR_API = {
    "Generator",
    "default_rng",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "RandomState",  # flagged separately: constructing it is legacy too
}

_LEGACY_MESSAGE = (
    "legacy module-level numpy RNG call np.random.{name}() uses hidden "
    "global state; draw from a seeded np.random.Generator (see repro.rng)"
)

_BLESSED_MODULE = "repro.rng"


class DeterminismRule(Rule):
    """No stdlib ``random``, no legacy numpy RNG, seeded generators only."""

    rule_id = "REP001"
    title = "determinism: all RNG flows through seeded generators"
    rationale = (
        "Bitwise backend parity and run reproducibility require every "
        "random draw to descend from the master seed via repro.rng; "
        "stdlib random, legacy np.random.<fn> globals, and ad-hoc "
        "default_rng() calls break that chain."
    )

    def applies(self, ctx: ModuleContext) -> bool:
        """Library code only; ``repro.rng`` itself is the sanctioned home."""
        return not ctx.is_test and ctx.module != _BLESSED_MODULE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag stdlib random, legacy numpy RNG, and ad-hoc default_rng."""
        numpy_aliases = _numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, numpy_aliases)

    def _check_import(self, ctx, node: ast.Import) -> Iterator[Finding]:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random":
                yield self.finding(
                    ctx,
                    node,
                    "stdlib 'random' is process-global and unseeded by the "
                    "experiment; use a numpy Generator from repro.rng",
                )

    def _check_import_from(self, ctx, node: ast.ImportFrom) -> Iterator[Finding]:
        if node.module is None:
            return
        root = node.module.split(".")[0]
        if root == "random":
            yield self.finding(
                ctx,
                node,
                "stdlib 'random' is process-global and unseeded by the "
                "experiment; use a numpy Generator from repro.rng",
            )
        elif node.module in {"numpy.random", "np.random"}:
            for alias in node.names:
                if alias.name == "default_rng":
                    yield self.finding(
                        ctx,
                        node,
                        "import default_rng via repro.rng.ensure_generator "
                        "so SeedLike handling stays uniform",
                    )
                elif alias.name not in _GENERATOR_API:
                    yield self.finding(
                        ctx,
                        node,
                        _LEGACY_MESSAGE.format(name=alias.name),
                    )

    def _check_call(
        self, ctx, node: ast.Call, numpy_aliases: Set[str]
    ) -> Iterator[Finding]:
        chain = attribute_chain(node.func)
        if not chain or len(chain) < 3:
            return
        root, second, leaf = chain[0], chain[1], chain[-1]
        if root not in numpy_aliases or second != "random":
            return
        if leaf == "default_rng":
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "unseeded np.random.default_rng() draws OS entropy and "
                    "is unreproducible; accept a SeedLike and call "
                    "repro.rng.ensure_generator(seed)",
                )
            else:
                yield self.finding(
                    ctx,
                    node,
                    "construct generators via repro.rng.ensure_generator / "
                    "spawn_generators instead of calling default_rng "
                    "directly, so seed handling stays uniform",
                )
        elif leaf == "RandomState":
            yield self.finding(
                ctx,
                node,
                "np.random.RandomState is the legacy RNG; use a seeded "
                "np.random.Generator from repro.rng",
            )
        elif leaf not in _GENERATOR_API and len(chain) == 3:
            yield self.finding(ctx, node, _LEGACY_MESSAGE.format(name=leaf))


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound to the numpy module (``import numpy as np``)."""
    aliases = set(_NUMPY_MODULES)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" and alias.asname:
                    aliases.add(alias.asname)
    return aliases
