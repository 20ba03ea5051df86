"""SL007: no bare ``print()`` in library code.

Library modules that print to stdout corrupt piped artifact output
(tables, JSONL traces) and cannot be silenced from a caller.  All
diagnostic output flows through :mod:`repro.obs.logging_setup` — quiet
by default, raised via the CLIs' ``-v``/``-q`` flags, and always on
stderr.  CLI entry points (``__main__.py`` / ``cli.py``) are exempt:
there stdout *is* the artifact and ``print`` is the right tool.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.lint.base import Rule, Violation, register

#: File names whose whole purpose is terminal output.
_CLI_FILE_NAMES: FrozenSet[str] = frozenset({"__main__.py", "cli.py"})


@register
class BarePrintRule(Rule):
    """SL007: route library diagnostics through the obs logger.

    Flags any call to the ``print`` builtin (including
    ``builtins.print``) outside the exempt CLI modules.  A shadowing
    local definition of ``print`` is not flagged — the rule looks for
    the plain name with no local binding in scope, which AST-level
    analysis approximates by checking for module-level ``def print``
    or ``print = ...`` assignments.
    """

    rule_id = "SL007"
    summary = "no bare print() in library code (use repro.obs.logging_setup)"
    components = frozenset()  # everywhere under repro/

    def check(self, ctx: "FileContext") -> Iterator[Violation]:  # noqa: F821
        if ctx.path.name in _CLI_FILE_NAMES:
            return
        # A module that rebinds `print` (test doubles, shims) opted out
        # of the builtin; respect that and stay quiet.
        for node in ctx.nodes:
            if isinstance(node, ast.FunctionDef) and node.name == "print":
                return
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "print":
                        return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_print = isinstance(func, ast.Name) and func.id == "print"
            is_builtins_print = (
                isinstance(func, ast.Attribute)
                and func.attr == "print"
                and isinstance(func.value, ast.Name)
                and func.value.id == "builtins"
            )
            if is_print or is_builtins_print:
                yield self.violation(
                    ctx,
                    node,
                    "bare print() in library code writes to stdout uncontrolled; "
                    "log through repro.obs.logging_setup.get_logger(__name__) "
                    "(CLI __main__/cli modules are exempt)",
                )
