"""SARIF 2.1.0 export for one simlint run (per-file and program rules).

Emits the minimal valid subset consumed by code-scanning UIs: one run,
``tool.driver`` with the active rule catalog, and one ``result`` per
violation with a physical location.  Paths are emitted as given (CI runs
from the repo root, so they arrive repo-relative).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.lint.base import Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: (rule_id, summary) pairs describing the rules that were active.
RuleCatalog = Sequence[Tuple[str, str]]


def _rule_descriptor(rule_id: str, summary: str) -> Dict[str, object]:
    return {
        "id": rule_id,
        "shortDescription": {"text": summary},
        "helpUri": "https://example.invalid/docs/static-analysis.md",
    }


def _result(violation: Violation) -> Dict[str, object]:
    return {
        "ruleId": violation.rule_id,
        "level": "error",
        "message": {"text": violation.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": violation.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": violation.line,
                        "startColumn": violation.col,
                    },
                }
            }
        ],
    }


def to_sarif(
    violations: List[Violation],
    rules: RuleCatalog,
    tool_name: str = "simlint",
) -> Dict[str, object]:
    """A SARIF 2.1.0 log document for one lint run."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": "https://example.invalid/docs/static-analysis.md",
                        "rules": [
                            _rule_descriptor(rule_id, summary)
                            for rule_id, summary in sorted(rules)
                        ],
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": [_result(v) for v in violations],
            }
        ],
    }
