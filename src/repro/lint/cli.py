"""The ``python -m repro.lint`` command line.

One command runs every registered rule — per-file (SL001, SL003, SL004,
SL006, SL007) and whole-program (SF001-SF004) — over one parse of the
tree; ``--select`` / ``--ignore`` narrow the set.

Exit codes: 0 = clean, 1 = violations found, 2 = usage or I/O error
(unknown rule, missing path, unparsable file).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.base import Rule, Violation, all_rules, known_rule_ids, select_rules
from repro.lint.engine import lint_paths
from repro.lint.sarif import to_sarif
from repro.lint.walker import LintError, suppression_warnings_for_paths

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _parse_rule_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip().upper() for part in raw.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "simlint: AST-based determinism & USM-accounting checks "
            "(per-file rules SL001, SL003, SL004, SL006, SL007 and whole-program "
            "rules SF001-SF004, all in one run; see docs/static-analysis.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _list_rules() -> None:
    for rule in all_rules():
        if rule.is_program_rule:
            scope = "program"
        else:
            scope = ", ".join(sorted(rule.components)) if rule.components else "all"
        print(f"{rule.rule_id}  [{scope}]  {rule.summary}")


def _emit(
    options: argparse.Namespace,
    rules: List[Rule],
    violations: List[Violation],
    files_checked: int,
) -> None:
    counts = Counter(v.rule_id for v in violations)
    if options.format == "sarif":
        catalog = [(rule.rule_id, rule.summary) for rule in rules]
        print(json.dumps(to_sarif(violations, catalog, "simlint"), indent=2))
    elif options.format == "json":
        payload = {
            "ok": not violations,
            "tool": "simlint",
            "files_checked": files_checked,
            "violation_count": len(violations),
            "counts_by_rule": dict(sorted(counts.items())),
            "violations": [v.as_dict() for v in violations],
        }
        print(json.dumps(payload, indent=2))
    else:
        for violation in violations:
            print(violation.render())
        noun = "file" if files_checked == 1 else "files"
        if violations:
            by_rule = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
            print(
                f"simlint: {len(violations)} violation(s) in {files_checked} {noun} "
                f"({by_rule})"
            )
        else:
            print(f"simlint: {files_checked} {noun} checked, no violations")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        _list_rules()
        return EXIT_CLEAN

    select = _parse_rule_list(options.select)
    if options.select is not None and not select:
        # An empty selection would run zero rules and report "clean";
        # treat it as the misconfiguration it almost certainly is.
        print("error: --select given but names no rules", file=sys.stderr)
        return EXIT_ERROR
    ignore = _parse_rule_list(options.ignore) or []

    paths = [Path(p) for p in options.paths]
    try:
        rules = select_rules(select, ignore)
        violations, files_checked = lint_paths(paths, select, ignore)
    except (ValueError, LintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    # Typo'd suppression ids silently disable nothing — warn.
    for warning in suppression_warnings_for_paths(paths, set(known_rule_ids())):
        print(f"warning: {warning}", file=sys.stderr)

    _emit(options, rules, violations, files_checked)
    return EXIT_VIOLATIONS if violations else EXIT_CLEAN
