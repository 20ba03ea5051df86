"""The whole-program analysis state the program rules (SF001-SF004) share.

Program rules differ from per-file rules in one way: their
``check_program`` receives a :class:`FlowAnalysis` — the whole parsed
program plus its symbol table and call graph — instead of a single
file.  Violations are the same records, anchored at a concrete file and
line, so reporting, suppression, and output formats are shared.
"""

from __future__ import annotations

import dataclasses

from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.loader import Program
from repro.lint.flow.symbols import SymbolTable


@dataclasses.dataclass
class FlowAnalysis:
    """The shared analysis state every program rule consumes."""

    program: Program
    symbols: SymbolTable
    callgraph: CallGraph

    @classmethod
    def build(cls, program: Program) -> "FlowAnalysis":
        symbols = SymbolTable(program)
        return cls(program=program, symbols=symbols, callgraph=CallGraph(program, symbols))
