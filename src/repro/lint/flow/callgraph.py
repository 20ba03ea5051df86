"""Call graph over the loaded program.

Edges connect a function to every *program-resolvable* callee: direct
calls, method calls on receivers whose class the lightweight type
environment knows, and constructor calls (edges to ``__init__`` when it
exists).  Calls into the stdlib or through unresolvable receivers are
recorded as unresolved so rules can choose how pessimistic to be.

Callables that are merely *referenced* (passed as arguments, stored in
variables) also get edges when the reference is a program function —
this is what lets SF003 treat ``pool.imap_unordered(_run_keyed, ...)``
as an entry into ``_run_keyed``.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Set

from repro.lint.flow.loader import Program
from repro.lint.flow.symbols import FunctionInfo, SymbolTable


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call expression inside a function."""

    caller: str  # qualname of the enclosing function
    callee: str  # qualname of the resolved target
    node: ast.Call


class CallGraph:
    """Resolved call edges plus per-callee call sites."""

    def __init__(self, program: Program, symbols: SymbolTable) -> None:
        self.program = program
        self.symbols = symbols
        self.calls: List[CallSite] = []
        self._out: Dict[str, Set[str]] = {}
        #: qualname → call sites targeting it.
        self._sites_by_callee: Dict[str, List[CallSite]] = {}
        #: program functions referenced as values (callbacks) per function.
        self.references: Dict[str, Set[str]] = {}
        self._build()

    def _build(self) -> None:
        for qualname in sorted(self.symbols.functions):
            func = self.symbols.functions[qualname]
            env = self.symbols.local_types(func)
            for node in func.nodes:
                if isinstance(node, ast.Call):
                    target = self.symbols.resolve_call_target(func.module, node.func, env)
                    if target is None:
                        continue
                    kind, target_qual = target
                    if kind == "class":
                        init = self.symbols.lookup_method(target_qual, "__init__")
                        target_qual = init.qualname if init else f"{target_qual}.__init__"
                    self._add_edge(qualname, target_qual, node)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    resolved = self.symbols.resolve_name(func.module, node.id)
                    if resolved is not None and resolved in self.symbols.functions:
                        self.references.setdefault(qualname, set()).add(resolved)

    def _add_edge(self, caller: str, callee: str, node: ast.Call) -> None:
        site = CallSite(caller=caller, callee=callee, node=node)
        self.calls.append(site)
        self._out.setdefault(caller, set()).add(callee)
        self._sites_by_callee.setdefault(callee, []).append(site)

    # -- queries --------------------------------------------------------

    def call_sites_of(self, callee: str) -> List[CallSite]:
        """Every call site whose resolved target is ``callee``."""
        return list(self._sites_by_callee.get(callee, []))

    def reachable_from(
        self,
        roots: Set[str],
        follow_references: bool = True,
    ) -> Set[str]:
        """Transitive closure of call (and optionally reference) edges."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.symbols.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            nxt = self._out.get(qual, set())
            if follow_references:
                nxt = nxt | self.references.get(qual, set())
            stack.extend(n for n in nxt if n not in seen)
        return seen

    def functions_in_postorder(self) -> Iterator[FunctionInfo]:
        """Every program function, deterministic order."""
        for qualname in sorted(self.symbols.functions):
            yield self.symbols.functions[qualname]
