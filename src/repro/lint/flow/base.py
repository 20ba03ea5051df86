"""Flow-rule base class and registry (SF001-SF004 and beyond).

Flow rules differ from per-file :class:`repro.lint.base.Rule` in one
way: ``check`` receives a :class:`FlowAnalysis` — the whole parsed
program plus its symbol table and call graph — instead of a single
file.  Violations are the same records, anchored at a concrete file and
line, so reporting, suppression, and output formats are shared with the
per-file layer.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Optional, Type

from repro.lint.base import Violation
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.loader import ModuleFile, Program
from repro.lint.flow.symbols import SymbolTable


@dataclasses.dataclass
class FlowAnalysis:
    """The shared analysis state every flow rule consumes."""

    program: Program
    symbols: SymbolTable
    callgraph: CallGraph

    @classmethod
    def build(cls, program: Program) -> "FlowAnalysis":
        symbols = SymbolTable(program)
        return cls(program=program, symbols=symbols, callgraph=CallGraph(program, symbols))


class FlowRule:
    """Base class for whole-program rules.

    Class attributes mirror :class:`repro.lint.base.Rule`:
        rule_id: Stable ``SFxxx`` identifier (used in reports and in the
            shared ``# simlint: disable=`` suppression comments).
        summary: One-line description for ``--list-rules``.
    """

    rule_id: str = ""
    summary: str = ""

    def check(self, analysis: FlowAnalysis) -> Iterator[Violation]:
        raise NotImplementedError
        yield  # pragma: no cover  (marks this as a generator)

    def violation(self, mod: ModuleFile, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=mod.ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


_FLOW_REGISTRY: Dict[str, Type[FlowRule]] = {}


def register_flow(rule_cls: Type[FlowRule]) -> Type[FlowRule]:
    """Class decorator: add a flow rule to the registry (idempotent per
    class, loud on id collisions — same contract as the per-file layer)."""
    rule_id = rule_cls.rule_id
    if not rule_id:
        raise ValueError(f"{rule_cls.__name__} does not define rule_id")
    existing = _FLOW_REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(
            f"duplicate flow rule id {rule_id!r}: {existing.__name__} vs {rule_cls.__name__}"
        )
    _FLOW_REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_flow_rules() -> List[FlowRule]:
    """Fresh instances of every registered flow rule, sorted by id."""
    return [_FLOW_REGISTRY[rule_id]() for rule_id in sorted(_FLOW_REGISTRY)]


def known_flow_rule_ids() -> List[str]:
    return sorted(_FLOW_REGISTRY)


def select_flow_rules(
    select: Optional[List[str]] = None,
    ignore: Optional[List[str]] = None,
) -> List[FlowRule]:
    """The active flow rules under a --select/--ignore pair."""
    active: List[FlowRule] = []
    ignore_set = set(ignore or ())
    for rule in all_flow_rules():
        if select is not None and rule.rule_id not in select:
            continue
        if rule.rule_id in ignore_set:
            continue
        active.append(rule)
    return active
