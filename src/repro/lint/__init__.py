"""simlint: AST-based determinism & USM-accounting checks for this repo.

The reproduction's credibility rests on two conventions that ordinary
tooling cannot see:

* every stochastic draw flows through :class:`repro.sim.rng.RandomStreams`
  named substreams (so a run is a pure function of the master seed), and
* every user query lands in exactly one of the four USM outcomes
  (Success / Rejection / DMF / DSF, paper Eqs. 2-5).

``simlint`` enforces those conventions statically with one rule
registry: per-file rules (SL001, SL003, SL004, SL006, SL007) and
whole-program rules (SF001-SF004) run together from one
``python -m repro.lint`` command, and a finding is accepted only by an
inline ``simlint: disable`` comment that names the rule and gives a
``--`` reason.  See
``docs/static-analysis.md`` for the contract each rule protects.
"""

from __future__ import annotations

from repro.lint.base import Rule, Violation, all_rules, get_rule, register, select_rules
from repro.lint.engine import lint_paths, lint_source
from repro.lint.walker import FileContext

__all__ = [
    "FileContext",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register",
    "select_rules",
]

# Importing the rule packages registers every built-in rule.
from repro.lint import rules as _rules  # noqa: E402,F401  (registration side effect)
from repro.lint.flow import rules as _flow_rules  # noqa: E402,F401  (registration side effect)
