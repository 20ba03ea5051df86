"""Built-in program rules (SF001-SF004).

Importing this package registers every program rule with the one
registry in :mod:`repro.lint.base`, next to the per-file rules.
"""

from repro.lint.flow.rules import capture, clock, escape, streams

__all__ = ["capture", "clock", "escape", "streams"]
