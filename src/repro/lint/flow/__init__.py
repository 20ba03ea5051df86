"""simflow: whole-program dataflow analysis on top of simlint.

Where the per-file layer (:mod:`repro.lint.rules`) checks one module's
syntax at a time, this package parses the whole ``src/repro`` tree once
into a symbol table and call graph and runs *interprocedural* rules over
it:

* **SF001** — RNG stream provenance: every ``RandomStreams.stream(...)``
  name must resolve to a literal, and the same name must not be claimed
  by distinct components (stream names are part of the seed contract).
* **SF002** — clock-domain taint: wall-clock reads may never flow into
  sim-time state, USM windows, or report fields other than the
  declared wall-metadata sinks.
* **SF003** — cross-process capture: payloads shipped to the sweep pool
  must be picklable module-level callables; no mutation-after-submit or
  worker-side mutation of shared module globals.
* **SF004** — engine-owned escapes: ``LockManager`` state is mutated
  only inside ``db/locks.py``, whatever name the reference travels under.

Entry point::

    python -m repro.lint --flow src/repro

Suppressions reuse the per-file machinery: ``# simlint: disable=SF002``
on the flagged line (or ``disable-file=`` in the module header) with a
``--`` justification.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.lint.base import Violation
from repro.lint.flow import rules as _rules  # noqa: F401  (registers SF rules)
from repro.lint.flow.base import (
    FlowAnalysis,
    FlowRule,
    all_flow_rules,
    known_flow_rule_ids,
    select_flow_rules,
)
from repro.lint.flow.loader import Program, load_program

__all__ = [
    "FlowAnalysis",
    "FlowRule",
    "Program",
    "all_flow_rules",
    "known_flow_rule_ids",
    "load_program",
    "run_flow",
    "select_flow_rules",
]


def run_flow(
    paths: Iterable[Path],
    select: Optional[List[str]] = None,
    ignore: Optional[List[str]] = None,
) -> Tuple[List[Violation], int]:
    """Run every active flow rule over the program rooted at ``paths``.

    Returns ``(violations, files_checked)`` with the same sort order and
    suppression semantics as :func:`repro.lint.walker.lint_paths`.
    """
    program = load_program(paths)
    analysis = FlowAnalysis.build(program)
    contexts = {mod.ctx.display_path: mod.ctx for mod in program.modules.values()}
    violations: List[Violation] = []
    for rule in select_flow_rules(select, ignore):
        for violation in rule.check(analysis):
            ctx = contexts.get(violation.path)
            if ctx is not None and ctx.is_suppressed(violation):
                continue
            violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations, len(program.modules)
