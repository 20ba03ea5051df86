"""The ``python -m repro.lint`` command line.

Two layers share this entry point:

* per-file rules (SL001-SL004, SL006, SL007) — the default;
* whole-program flow rules (SF001-SF004) — ``--flow``.

Exit codes: 0 = clean, 1 = violations found (after baseline filtering,
when one is given), 2 = usage or I/O error (unknown rule, missing path,
unparsable file, unreadable baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.base import Violation, all_rules, known_rule_ids
from repro.lint.config import LintConfig
from repro.lint.flow import all_flow_rules, known_flow_rule_ids, run_flow
from repro.lint.flow.baseline import Baseline, BaselineResult
from repro.lint.sarif import to_sarif
from repro.lint.walker import LintError, lint_paths, suppression_warnings_for_paths

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
            "(per-file rules SL001-SL004, SL006, SL007; whole-program flow rules "
            "SF001-SF004 via --flow; see docs/static-analysis.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help=(
            "run the whole-program flow rules (SF001-SF004) instead of "
            "the per-file rules"
        ),
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
        "--baseline",
        metavar="PATH",
        help=(
            "ratchet file of accepted findings: only findings NOT in the "
            "baseline fail the run; stale entries are reported on stderr"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write the current findings to PATH as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _list_rules() -> None:
    for rule in all_rules():
        scope = ", ".join(sorted(rule.components)) if rule.components else "all"
        print(f"{rule.rule_id}  [{scope}]  {rule.summary}")
    for flow_rule in all_flow_rules():
        print(f"{flow_rule.rule_id}  [flow]  {flow_rule.summary}")


def _active_rule_catalog(options: argparse.Namespace) -> List:
    if options.flow:
        return [(r.rule_id, r.summary) for r in all_flow_rules()]
    return [(r.rule_id, r.summary) for r in all_rules()]


def _emit(
    options: argparse.Namespace,
    violations: List[Violation],
    files_checked: int,
    baseline_result: Optional[BaselineResult],
) -> None:
    tool = "simflow" if options.flow else "simlint"
    reported = baseline_result.new if baseline_result is not None else violations
    counts = Counter(v.rule_id for v in reported)
    if options.format == "sarif":
        print(json.dumps(to_sarif(reported, _active_rule_catalog(options), tool), indent=2))
    elif options.format == "json":
        payload = {
            "ok": not reported,
            "tool": tool,
            "files_checked": files_checked,
            "violation_count": len(reported),
            "counts_by_rule": dict(sorted(counts.items())),
            "violations": [v.as_dict() for v in reported],
        }
        if baseline_result is not None:
            payload["baselined_count"] = len(baseline_result.suppressed)
            payload["stale_baseline_entries"] = baseline_result.stale
        print(json.dumps(payload, indent=2))
    else:
        for violation in reported:
            print(violation.render())
        noun = "file" if files_checked == 1 else "files"
        suffix = ""
        if baseline_result is not None and baseline_result.suppressed:
            suffix = f" ({len(baseline_result.suppressed)} baselined finding(s) hidden)"
        if reported:
            by_rule = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
            print(
                f"{tool}: {len(reported)} violation(s) in {files_checked} {noun} "
                f"({by_rule}){suffix}"
            )
        else:
            print(f"{tool}: {files_checked} {noun} checked, no violations{suffix}")
    if baseline_result is not None and baseline_result.stale:
        for entry in baseline_result.stale:
            print(
                f"warning: stale baseline entry {entry['fingerprint']} "
                f"({entry['rule']} at {entry['path']}) no longer occurs — "
                "re-run with --write-baseline to shrink the ratchet",
                file=sys.stderr,
            )


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
    if options.flow:
        known = set(known_flow_rule_ids())
        unknown = [r for r in (select or []) + ignore if r not in known]
        if unknown:
            print(
                f"error: unknown flow rule(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return EXIT_ERROR
        try:
            violations, files_checked = run_flow(paths, select=select, ignore=ignore)
        except LintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    else:
        try:
            config = LintConfig.from_rule_ids(select=select, ignore=ignore)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        try:
            violations, files_checked = lint_paths(paths, config)
        except LintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR

    # Typo'd suppression ids silently disable nothing — warn, both modes.
    try:
        all_known = set(known_rule_ids()) | set(known_flow_rule_ids())
        for warning in suppression_warnings_for_paths(paths, all_known):
            print(f"warning: {warning}", file=sys.stderr)
    except LintError:
        pass  # unreadable paths already reported by the lint run itself

    if options.write_baseline:
        Baseline.from_violations(violations).write(Path(options.write_baseline))
        print(
            f"wrote baseline with {len(violations)} finding(s) to "
            f"{options.write_baseline}",
            file=sys.stderr,
        )
        return EXIT_CLEAN

    baseline_result: Optional[BaselineResult] = None
    if options.baseline:
        baseline_path = Path(options.baseline)
        try:
            baseline = (
                Baseline.load(baseline_path) if baseline_path.exists() else Baseline.empty()
            )
        except (ValueError, OSError, KeyError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return EXIT_ERROR
        baseline_result = baseline.filter(violations)

    _emit(options, violations, files_checked, baseline_result)
    failing = baseline_result.new if baseline_result is not None else violations
    return EXIT_VIOLATIONS if failing else EXIT_CLEAN
