"""SL001: the ambient-``random`` seed-reproducibility rule.

Every figure in the reproduction must be a pure function of the master
seed (``RandomStreams`` in :mod:`repro.sim.rng`).  Drawing from the
ambient ``random`` module silently breaks that: its state is
process-global and perturbed by *any* other consumer.  (The other
hazard, reading the wall clock, is SF002's in
:mod:`repro.lint.flow.rules.clock`, which shares the import helpers
below.)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Set, Tuple

from repro.lint.base import SIMULATION_COMPONENTS, Rule, Violation, register


def _module_aliases(nodes: Iterable[ast.AST], module: str) -> Set[str]:
    """Local names bound to ``module`` by ``import`` statements."""
    aliases: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or module)
                elif alias.name.startswith(module + ".") and alias.asname is None:
                    aliases.add(module)
    return aliases


def _from_imports(
    nodes: Iterable[ast.AST], module: str
) -> Dict[str, Tuple[ast.ImportFrom, str]]:
    """Local names bound by ``from <module> import ...``, with their nodes."""
    bound: Dict[str, Tuple[ast.ImportFrom, str]] = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == module and node.level == 0:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node, alias.name)
    return bound


@register
class AmbientRandomRule(Rule):
    """SL001: no ambient ``random``-module usage in simulation paths.

    Calling ``random.random()`` (or any sibling) consumes process-global
    RNG state, and ``random.Random(seed)`` constructed ad hoc couples a
    component's draws to whoever chose that seed.  Components must take
    an injected ``random.Random`` — normally a named
    ``RandomStreams.stream(...)`` substream — so changing one consumer
    cannot perturb any other's draws.  ``import random`` purely for the
    ``random.Random`` *type annotation* is fine; calls are not.
    """

    rule_id = "SL001"
    summary = "no ambient random-module usage in sim paths (inject a substream)"
    components = SIMULATION_COMPONENTS
    exempt_files = frozenset({"sim/rng.py"})

    def check(self, ctx: "FileContext") -> Iterator[Violation]:  # noqa: F821
        aliases = _module_aliases(ctx.nodes, "random")
        from_bound = _from_imports(ctx.nodes, "random")
        flagged_imports: Set[int] = set()
        for _name, (node, original) in from_bound.items():
            if id(node) not in flagged_imports:
                flagged_imports.add(id(node))
                yield self.violation(
                    ctx,
                    node,
                    f"'from random import {original}' binds the ambient RNG; "
                    "take an injected random.Random (a RandomStreams substream) instead",
                )
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ):
                if func.attr == "Random":
                    yield self.violation(
                        ctx,
                        node,
                        "direct random.Random(...) construction bypasses RandomStreams; "
                        "accept an injected stream (RandomStreams.stream(name)) so this "
                        "component's draws cannot perturb any other's",
                    )
                else:
                    yield self.violation(
                        ctx,
                        node,
                        f"ambient random.{func.attr}(...) draws from process-global state; "
                        "draw from an injected random.Random substream",
                    )
            elif isinstance(func, ast.Name) and func.id in from_bound:
                yield self.violation(
                    ctx,
                    node,
                    f"call to '{func.id}' imported from the ambient random module; "
                    "draw from an injected random.Random substream",
                )
