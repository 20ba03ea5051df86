"""File discovery, suppression comments, and the per-file lint driver.

Suppression grammar (anywhere in a comment)::

    # simlint: disable=SL001            silence SL001 on this line
    # simlint: disable=SL001,SL004      silence several rules on this line
    # simlint: disable                  silence every rule on this line
    # simlint: disable-file=SL004       silence SL004 for the whole file
    # simlint: disable-file             silence the whole file (use sparingly)

Suppressions should carry a justification in the same comment, e.g.
``# simlint: disable=SL002 -- wall-clock is report metadata, not sim state``.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.base import Rule, Violation
from repro.lint.config import DEFAULT_CONFIG, LintConfig

#: Top-level subpackages a file can belong to; used to classify files
#: that live outside an importable ``repro`` tree (test fixtures).
KNOWN_COMPONENTS: FrozenSet[str] = frozenset(
    {"sim", "db", "core", "workload", "experiments", "lint", "obs"}
)

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(?P<kind>disable-file|disable)"
    r"\s*(?:=\s*(?P<rules>[A-Za-z0-9_,\s]+?))?\s*(?:--.*)?$"
)

#: Sentinel meaning "every rule" in suppression tables.
_ALL = "*"


class LintError(Exception):
    """A file could not be linted (unreadable, unparsable)."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract per-line and file-level suppressions from ``source``.

    Returns ``(line_disables, file_disables)`` where the line table maps
    1-based line numbers to rule-id sets and either set may contain the
    ``"*"`` wildcard.
    """
    line_disables: Dict[int, Set[str]] = {}
    file_disables: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "simlint" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        raw = match.group("rules")
        rules = (
            {_ALL}
            if raw is None
            else {part.strip().upper() for part in raw.split(",") if part.strip()}
        )
        if match.group("kind") == "disable-file":
            file_disables |= rules
        else:
            line_disables.setdefault(lineno, set()).update(rules)
    return line_disables, file_disables


#: What a plausible-but-unknown rule id looks like.  Tokens with
#: internal whitespace are prose riding the suppression grammar in a
#: docstring or comment (the examples in this very file), not typos.
_ID_SHAPE_RE = re.compile(r"[A-Z][A-Z0-9_]{1,15}")


def suppression_warnings(
    source: str, display_path: str, known_ids: Set[str]
) -> List[str]:
    """Warnings for suppression comments naming unknown rule ids.

    A typo'd id (``disable=SL09``) silently suppresses nothing, which
    reads as "finding fixed" in review; surface it instead.  ``known_ids``
    is passed in so this stays layer-agnostic — callers union the SL and
    SF catalogs.
    """
    line_disables, file_disables = _parse_suppressions(source)

    def unknown(rules: Set[str]) -> List[str]:
        return sorted(
            r
            for r in rules - known_ids - {_ALL}
            if _ID_SHAPE_RE.fullmatch(r)
        )

    warnings: List[str] = []
    for rule_id in unknown(file_disables):
        warnings.append(
            f"{display_path}:1: suppression names unknown rule {rule_id!r}"
        )
    for lineno in sorted(line_disables):
        for rule_id in unknown(line_disables[lineno]):
            warnings.append(
                f"{display_path}:{lineno}: suppression names unknown rule {rule_id!r}"
            )
    return warnings


def suppression_warnings_for_paths(
    paths: Iterable[Path], known_ids: Set[str]
) -> List[str]:
    """Unknown-rule suppression warnings for every file under ``paths``."""
    warnings: List[str] = []
    for file_path in discover_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError:
            continue
        warnings.extend(suppression_warnings(source, str(file_path), known_ids))
    return warnings


def classify_component(path: Path) -> Optional[str]:
    """Which top-level subpackage ``path`` belongs to, if any.

    Inside an importable tree, the component is the path part right
    after the last ``repro`` directory (``src/repro/db/server.py`` →
    ``db``).  Outside one (fixture trees in tests), the last path part
    that names a known component wins (``tmp/x/sim/engine.py`` → ``sim``).
    """
    parts = path.parts[:-1]  # directories only
    if "repro" in parts:
        idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        if idx + 1 < len(parts):
            return parts[idx + 1]
        return None  # file sits directly in repro/
    for part in reversed(parts):
        if part in KNOWN_COMPONENTS:
            return part
    return None


@dataclasses.dataclass
class FileContext:
    """Everything a rule needs to inspect one file."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    component: Optional[str]
    line_disables: Dict[int, Set[str]]
    file_disables: Set[str]

    @classmethod
    def from_source(
        cls,
        source: str,
        path: Path,
        display_path: Optional[str] = None,
    ) -> "FileContext":
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(str(path), f"syntax error: {exc.msg} (line {exc.lineno})")
        line_disables, file_disables = _parse_suppressions(source)
        return cls(
            path=path,
            display_path=display_path or str(path),
            source=source,
            tree=tree,
            component=classify_component(path),
            line_disables=line_disables,
            file_disables=file_disables,
        )

    @classmethod
    def from_path(cls, path: Path, display_path: Optional[str] = None) -> "FileContext":
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(str(path), f"cannot read: {exc}")
        return cls.from_source(source, path, display_path=display_path)

    def matches_suffix(self, suffixes: Iterable[str]) -> bool:
        """True when this file's posix path ends with any given suffix."""
        posix = self.path.as_posix()
        return any(posix.endswith(suffix) for suffix in suffixes)

    def is_suppressed(self, violation: Violation) -> bool:
        if _ALL in self.file_disables or violation.rule_id in self.file_disables:
            return True
        rules = self.line_disables.get(violation.line)
        return rules is not None and (_ALL in rules or violation.rule_id in rules)


def _rule_applies(rule: Rule, ctx: FileContext) -> bool:
    if rule.components and ctx.component not in rule.components:
        return False
    if rule.exempt_files and ctx.matches_suffix(rule.exempt_files):
        return False
    return True


def lint_context(ctx: FileContext, config: LintConfig = DEFAULT_CONFIG) -> List[Violation]:
    """Run every applicable rule over an already-parsed file."""
    violations: List[Violation] = []
    for rule in config.rules():
        if not _rule_applies(rule, ctx):
            continue
        for violation in rule.check(ctx):
            if not ctx.is_suppressed(violation):
                violations.append(violation)
    violations.sort()
    return violations


def lint_source(
    source: str,
    path: str = "<string>",
    config: LintConfig = DEFAULT_CONFIG,
) -> List[Violation]:
    """Lint a source string (fixture-friendly entry point)."""
    return lint_context(FileContext.from_source(source, Path(path)), config)


def lint_file(path: Path, config: LintConfig = DEFAULT_CONFIG) -> List[Violation]:
    """Lint one file on disk."""
    return lint_context(FileContext.from_path(path), config)


def discover_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` in sorted order.

    Hidden directories and ``__pycache__`` are skipped.  A path that is
    itself a ``.py`` file is yielded as-is; a missing path raises
    :class:`LintError`.
    """
    for path in paths:
        if not path.exists():
            raise LintError(str(path), "no such file or directory")
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(part.startswith(".") or part == "__pycache__" for part in parts):
                continue
            yield candidate


def lint_paths(
    paths: Iterable[Path],
    config: LintConfig = DEFAULT_CONFIG,
) -> Tuple[List[Violation], int]:
    """Lint every python file under ``paths``.

    Returns ``(violations, files_checked)``; violations are sorted by
    ``(path, line, col, rule)``.
    """
    violations: List[Violation] = []
    files_checked = 0
    for file_path in discover_files(paths):
        files_checked += 1
        violations.extend(lint_file(file_path, config))
    violations.sort()
    return violations, files_checked
