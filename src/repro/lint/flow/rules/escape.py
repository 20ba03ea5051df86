"""SF004: engine-owned references do not escape and get mutated.

The 2PL-HP lock table (:class:`repro.db.locks.LockManager`) keeps its
holder, waiter and per-transaction indexes consistent only through its
own methods.  This rule tracks ``LockManager`` references through
annotations and constructor provenance, so a reference that leaks out
of ``db/locks.py`` under an innocent name (``table = server.locks;
table._held_by = {}``) is still caught: any attribute written on a
LockManager-typed value outside ``db/locks.py`` is a violation.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Tuple

from repro.lint.base import Rule, Violation, register
from repro.lint.flow.analysis import FlowAnalysis

#: (class name, owning component, modules allowed to mutate instances).
_OWNED_TYPES: Tuple[Tuple[str, str, FrozenSet[str]], ...] = (
    ("LockManager", "db", frozenset({"db.locks"})),
)


@register
class EngineEscapeRule(Rule):
    """SF004: LockManager state is mutated only inside db/locks.py."""

    rule_id = "SF004"
    summary = "LockManager state is mutated only inside db/locks.py"

    def check_program(self, analysis: FlowAnalysis) -> Iterator[Violation]:
        owned = self._owned_classes(analysis)
        if not owned:
            return
        for func in analysis.callgraph.functions_in_postorder():
            mod = analysis.symbols.modules[func.module].module
            env = analysis.symbols.local_types(func)
            yield from self._check_mutation(analysis, func, mod, env, owned)

    # -- identification -------------------------------------------------

    def _owned_classes(
        self, analysis: FlowAnalysis
    ) -> Dict[str, Tuple[str, str, FrozenSet[str]]]:
        """class qualname → (name, owning component, mutator modules)."""
        owned: Dict[str, Tuple[str, str, FrozenSet[str]]] = {}
        for qualname, cls in analysis.symbols.classes.items():
            for name, component, mutators in _OWNED_TYPES:
                if cls.name == name and cls.component == component:
                    owned[qualname] = (name, component, mutators)
        return owned

    def _module_is_exempt(self, module: str, mutators: FrozenSet[str]) -> bool:
        return any(module.endswith(suffix) for suffix in mutators)

    # -- foreign mutation ----------------------------------------------

    def _check_mutation(
        self,
        analysis: FlowAnalysis,
        func,
        mod,
        env: Dict[str, str],
        owned: Dict[str, Tuple[str, str, FrozenSet[str]]],
    ) -> Iterator[Violation]:
        for node in func.nodes:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                yield from self._flag_target(analysis, func, mod, env, owned, target)

    def _flag_target(
        self,
        analysis: FlowAnalysis,
        func,
        mod,
        env: Dict[str, str],
        owned: Dict[str, Tuple[str, str, FrozenSet[str]]],
        target: ast.expr,
    ) -> Iterator[Violation]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._flag_target(analysis, func, mod, env, owned, elt)
            return
        if not isinstance(target, ast.Attribute):
            return
        receiver_type = analysis.symbols._value_type(func.module, target.value, env)
        if receiver_type is None:
            return
        info = owned.get(receiver_type)
        if info is None:
            return
        name, _component, mutators = info
        if self._module_is_exempt(func.module, mutators):
            return
        yield self.violation(
            mod.ctx,
            target,
            f"assignment to {name}.{target.attr} outside the engine modules "
            f"(receiver tracked as {receiver_type}); {name} state is "
            "engine-owned — go through the lock manager's own methods",
        )
