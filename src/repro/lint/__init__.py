"""simlint: AST-based determinism & USM-accounting checks for this repo.

The reproduction's credibility rests on two conventions that ordinary
tooling cannot see:

* every stochastic draw flows through :class:`repro.sim.rng.RandomStreams`
  named substreams (so a run is a pure function of the master seed), and
* every user query lands in exactly one of the four USM outcomes
  (Success / Rejection / DMF / DSF, paper Eqs. 2-5).

``simlint`` enforces those conventions statically, with a pluggable rule
registry (SL001-SL004, SL006, SL007), a ``python -m repro.lint`` CLI, and per-line /
per-file suppression via ``# simlint: disable=RULE`` comments.  See
``docs/static-analysis.md`` for the contract each rule protects.
"""

from __future__ import annotations

from repro.lint.base import Rule, Violation, all_rules, get_rule, register
from repro.lint.config import LintConfig
from repro.lint.walker import FileContext, lint_file, lint_paths, lint_source

__all__ = [
    "FileContext",
    "LintConfig",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
]

# Importing the rules package registers every built-in rule.
from repro.lint import rules as _rules  # noqa: E402,F401  (registration side effect)
