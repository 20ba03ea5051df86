"""Rule base class, violation record, and the one rule registry.

A rule is a small class with a ``rule_id``, a human summary, a component
scope (which top-level ``repro`` subpackages it patrols), and one of two
check methods, both yielding :class:`Violation` records:

* ``check(ctx)`` inspects one parsed file (the SL rules);
* ``check_program(analysis)`` inspects the whole parsed program through
  its :class:`~repro.lint.flow.analysis.FlowAnalysis` (the SF rules).

Rules self-register via the :func:`register` decorator, so adding a
rule is: write the class, decorate it, import its module from
``repro.lint.rules`` or ``repro.lint.flow.rules``.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Type

#: Components (top-level ``repro`` subpackages) that constitute the
#: deterministic simulation path.  Wall-clock reads and ambient RNG in
#: any of these break seed-reproducibility of the figures, and a wall
#: value reaching a call or attribute here breaks it too.
SIMULATION_COMPONENTS: FrozenSet[str] = frozenset(
    {"sim", "db", "core", "workload", "obs"}
)

#: Components whose scheduling / victim-selection decisions must not
#: depend on hash ordering.
DECISION_COMPONENTS: FrozenSet[str] = frozenset({"core", "db"})


@dataclasses.dataclass(frozen=True, order=True)
class Violation:
    """One finding: where it is, which rule fired, and what to do."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """The canonical one-line text form (path:line:col: RULE message)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (for ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


class Rule:
    """Base class for simlint rules.

    Class attributes:
        rule_id: Stable identifier (``SL001``, ``SF002`` ...), used in
            reports and in ``# simlint: disable=`` comments.
        summary: One-line description shown by ``--list-rules``.
        components: Subpackage names a per-file rule patrols; empty
            means the rule applies everywhere.  Program rules scope
            themselves inside ``check_program``.
        exempt_files: Posix path suffixes (e.g. ``sim/rng.py``) where
            a per-file rule is intentionally silent.
    """

    rule_id: str = ""
    summary: str = ""
    components: FrozenSet[str] = frozenset()
    exempt_files: FrozenSet[str] = frozenset()

    def check(self, ctx: "FileContext") -> Iterator[Violation]:  # noqa: F821
        """Yield violations for one parsed file (per-file rules override)."""
        return iter(())

    def check_program(self, analysis: "FlowAnalysis") -> Iterator[Violation]:  # noqa: F821
        """Yield violations for the whole program (program rules override)."""
        return iter(())

    @property
    def is_program_rule(self) -> bool:
        """True when this rule needs the whole-program analysis."""
        return type(self).check_program is not Rule.check_program

    def applies_to(self, ctx: "FileContext") -> bool:  # noqa: F821
        """Whether the per-file ``check`` runs on ``ctx``."""
        if self.components and ctx.component not in self.components:
            return False
        return not (self.exempt_files and ctx.matches_suffix(self.exempt_files))

    # -- helpers shared by the concrete rules ---------------------------

    def violation(
        self,
        ctx: "FileContext",  # noqa: F821
        node: ast.AST,
        message: str,
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add ``rule_cls`` to the global registry.

    Re-registering the same ``rule_id`` with a *different* class is an
    error (it would silently shadow a shipped rule); re-importing the
    same class is a no-op so test reloads stay cheap.
    """
    rule_id = rule_cls.rule_id
    if not rule_id:
        raise ValueError(f"{rule_cls.__name__} does not define rule_id")
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(
            f"duplicate rule id {rule_id!r}: {existing.__name__} vs {rule_cls.__name__}"
        )
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instantiate one rule by id (raises ``KeyError`` for unknown ids)."""
    return _REGISTRY[rule_id]()


def known_rule_ids() -> List[str]:
    """Sorted ids of every registered rule."""
    return sorted(_REGISTRY)


def select_rules(
    select: Optional[Iterable[str]] = None, ignore: Iterable[str] = ()
) -> List[Rule]:
    """The active rules under a ``--select``/``--ignore`` pair.

    ``select=None`` means every rule; ``ignore`` applies after it.
    Naming an unregistered id raises :class:`ValueError`, so a typo
    cannot silently run nothing.
    """
    chosen = set(_REGISTRY) if select is None else set(select)
    dropped = set(ignore)
    unknown = sorted((chosen | dropped) - set(_REGISTRY))
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(unknown)}; known: {', '.join(known_rule_ids())}"
        )
    return [rule for rule in all_rules() if rule.rule_id in chosen - dropped]
