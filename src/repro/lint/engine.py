"""The one lint run: per-file and program rules over one parse.

:func:`lint_paths` loads the tree once through
:func:`~repro.lint.flow.loader.load_program`, runs each active per-file
rule on every module it patrols, and runs the active program rules on
one :class:`~repro.lint.flow.analysis.FlowAnalysis` — built only when a
program rule is selected.  Every finding then passes the same inline
``# simlint: disable=`` check and is returned in one sorted list.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.base import Rule, Violation, select_rules
from repro.lint.flow.analysis import FlowAnalysis
from repro.lint.flow.loader import ModuleFile, Program, load_program, module_name_for
from repro.lint.walker import FileContext


def lint_program(program: Program, rules: List[Rule]) -> List[Violation]:
    """Run ``rules`` over an already-loaded program."""
    found: List[Violation] = []
    contexts: Dict[str, FileContext] = {}
    for mod in program.sorted_modules():
        contexts[mod.ctx.display_path] = mod.ctx
        for rule in rules:
            if rule.applies_to(mod.ctx):
                found.extend(rule.check(mod.ctx))
    program_rules = [rule for rule in rules if rule.is_program_rule]
    if program_rules:
        analysis = FlowAnalysis.build(program)
        for rule in program_rules:
            found.extend(rule.check_program(analysis))
    kept = [v for v in found if not contexts[v.path].is_suppressed(v)]
    kept.sort()
    return kept


def lint_paths(
    paths: Iterable[Path],
    select: Optional[Iterable[str]] = None,
    ignore: Iterable[str] = (),
) -> Tuple[List[Violation], int]:
    """Lint every python file under ``paths`` with the selected rules.

    Returns ``(violations, files_checked)``; violations are sorted by
    ``(path, line, col, rule)``.  Raises :class:`ValueError` for an
    unknown rule id and :class:`~repro.lint.walker.LintError` for an
    unreadable or unparsable file.
    """
    rules = select_rules(select, ignore)
    program = load_program(paths)
    return lint_program(program, rules), len(program.modules)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Iterable[str] = (),
) -> List[Violation]:
    """Lint a source string as a one-module program (fixture-friendly).

    ``path`` is virtual: it only decides the file's component and its
    module name.
    """
    ctx = FileContext.from_source(source, Path(path))
    name = module_name_for(Path(path))
    program = Program(modules={name: ModuleFile(name=name, ctx=ctx)})
    return lint_program(program, select_rules(select, ignore))
