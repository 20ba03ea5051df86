"""SL004: USM-accounting completeness.

The User Satisfaction Metric (paper Eqs. 2-5) is a *partition*: every
submitted query lands in exactly one of Success / Rejection / DMF / DSF.
Code that branches over :class:`repro.db.transactions.Outcome` but
handles only some members silently mis-books the rest — the metric
still sums, it is just wrong.  This rule requires any multi-way branch,
``match``, or literal mapping over ``Outcome`` to either name all four
members or end in an explicit catch-all that *raises* (so an unexpected
member is loud, never absorbed).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.base import Rule, Violation, register

#: The four fortunes of a user query (paper Section 2.1).
OUTCOME_MEMBERS: FrozenSet[str] = frozenset(
    {"SUCCESS", "REJECTED", "DEADLINE_MISS", "DATA_STALE"}
)
_ENUM_NAME = "Outcome"


def _outcome_member(node: ast.expr) -> Optional[str]:
    """``Outcome.X`` (or ``mod.Outcome.X``) → ``"X"``, else None."""
    if not isinstance(node, ast.Attribute) or node.attr not in OUTCOME_MEMBERS:
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id == _ENUM_NAME:
        return node.attr
    if isinstance(base, ast.Attribute) and base.attr == _ENUM_NAME:
        return node.attr
    return None


def _test_members(test: ast.expr) -> Optional[Tuple[str, Set[str]]]:
    """Outcome members a branch condition tests, keyed by its subject.

    Recognizes ``subj is Outcome.X``, ``subj == Outcome.X``,
    ``subj in (Outcome.X, Outcome.Y)``, and ``or``-combinations of
    those; returns ``(subject_key, members)`` or None when the test
    does not compare against Outcome members.
    """
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        subject: Optional[str] = None
        members: Set[str] = set()
        for value in test.values:
            part = _test_members(value)
            if part is None:
                return None
            if subject is None:
                subject = part[0]
            elif subject != part[0]:
                return None
            members |= part[1]
        if subject is None:
            return None
        return subject, members
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    op = test.ops[0]
    comparator = test.comparators[0]
    subject_key = ast.dump(test.left)
    if isinstance(op, (ast.Is, ast.Eq)):
        member = _outcome_member(comparator)
        if member is None:
            return None
        return subject_key, {member}
    if isinstance(op, ast.In) and isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
        members = set()
        for elt in comparator.elts:
            member = _outcome_member(elt)
            if member is None:
                return None
            members.add(member)
        if not members:
            return None
        return subject_key, members
    return None


def _body_raises(body: Sequence[ast.stmt]) -> bool:
    return any(isinstance(stmt, ast.Raise) for stmt in body)


def _pure_unit(stmt: ast.If) -> Optional[Tuple[str, Set[str], int, str]]:
    """Flatten one if/elif chain into an Outcome-classification unit.

    Returns ``(subject_key, members, n_tests, else_kind)`` when *every*
    test in the chain compares the same subject against Outcome members
    (``else_kind`` is ``"none"``, ``"raise"``, or ``"plain"``), else None.
    """
    subject: Optional[str] = None
    members: Set[str] = set()
    n_tests = 0
    node = stmt
    while True:
        part = _test_members(node.test)
        if part is None:
            return None
        if subject is None:
            subject = part[0]
        elif subject != part[0]:
            return None
        members |= part[1]
        n_tests += 1
        orelse = node.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            node = orelse[0]
            continue
        if not orelse:
            return subject, members, n_tests, "none"
        return subject, members, n_tests, ("raise" if _body_raises(orelse) else "plain")


def _missing(covered: Set[str]) -> str:
    return ", ".join(sorted(OUTCOME_MEMBERS - covered))


@register
class OutcomeExhaustiveRule(Rule):
    """SL004: branches over Outcome must account for all four members."""

    rule_id = "SL004"
    summary = "branches/mappings over Outcome must cover all four members"

    def check(self, ctx: "FileContext") -> Iterator[Violation]:  # noqa: F821
        yield from self._check_if_chains(ctx)
        yield from self._check_matches(ctx)
        yield from self._check_dict_literals(ctx)

    # -- if/elif chains and guard runs ----------------------------------

    def _check_if_chains(self, ctx: "FileContext") -> Iterator[Violation]:  # noqa: F821
        for body in self._bodies(ctx.tree):
            yield from self._scan_body(ctx, body)

    def _bodies(self, tree: ast.Module) -> Iterator[List[ast.stmt]]:
        """Every statement list in the module (module/class/function/loop
        bodies, else/except/finally suites)."""
        stack: List[ast.AST] = [tree]
        while stack:
            node = stack.pop()
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if not (
                    isinstance(block, list) and block and isinstance(block[0], ast.stmt)
                ):
                    continue
                if (
                    field == "orelse"
                    and isinstance(node, ast.If)
                    and len(block) == 1
                    and isinstance(block[0], ast.If)
                ):
                    continue  # elif continuation — scanned as part of its chain
                yield block
            for child in ast.iter_child_nodes(node):
                stack.append(child)

    def _scan_body(
        self,
        ctx: "FileContext",  # noqa: F821
        body: Sequence[ast.stmt],
    ) -> Iterator[Violation]:
        """Find Outcome classification groups in one statement list.

        A group is either one pure ``if/elif`` chain over a single
        subject, or a *guard run* — consecutive sibling
        ``if subj is Outcome.X: return ...`` statements, as in
        early-return style.  Chains mixing Outcome tests with unrelated
        conditions are ambiguous and left alone.
        """
        index = 0
        while index < len(body):
            stmt = body[index]
            if not isinstance(stmt, ast.If):
                index += 1
                continue
            unit = _pure_unit(stmt)
            if unit is None:
                index += 1
                continue
            head = stmt
            subject, members, n_tests, else_kind = unit
            index += 1
            # Extend the guard run while the units stay pure, same-subject,
            # and else-less.
            while else_kind == "none" and index < len(body) and isinstance(body[index], ast.If):
                nxt = _pure_unit(body[index])
                if nxt is None or nxt[0] != subject:
                    break
                members = members | nxt[1]
                n_tests += nxt[2]
                else_kind = nxt[3]
                index += 1
            # A `raise` right after the run is the loud catch-all, same
            # as an else that raises.
            trailing_raise = (
                else_kind == "none"
                and index < len(body)
                and isinstance(body[index], ast.Raise)
            )
            if n_tests < 2 or members == OUTCOME_MEMBERS:
                continue
            if else_kind == "raise" or trailing_raise:
                continue
            yield self.violation(
                ctx,
                head,
                f"branch over Outcome covers {len(members)} of 4 members "
                f"(missing: {_missing(members)}); handle every outcome "
                "explicitly or end with a raise so new outcomes fail loudly",
            )

    # -- match statements ----------------------------------------------

    def _check_matches(self, ctx: "FileContext") -> Iterator[Violation]:  # noqa: F821
        for node in ctx.nodes:
            if not isinstance(node, ast.Match):
                continue
            covered: Set[str] = set()
            outcome_cases = 0
            has_catch_all = False
            catch_all_raises = False
            for case in node.cases:
                members = self._pattern_members(case.pattern)
                if members:
                    covered |= members
                    outcome_cases += 1
                elif self._is_wildcard(case.pattern) and case.guard is None:
                    has_catch_all = True
                    catch_all_raises = _body_raises(case.body)
            if outcome_cases < 2:
                continue
            if covered == OUTCOME_MEMBERS:
                continue
            if has_catch_all and catch_all_raises:
                continue
            yield self.violation(
                ctx,
                node,
                f"match over Outcome covers {len(covered)} of 4 members "
                f"(missing: {_missing(covered)}); add the missing cases or a "
                "'case _:' that raises",
            )

    def _pattern_members(self, pattern: ast.pattern) -> Set[str]:
        if isinstance(pattern, ast.MatchValue):
            member = _outcome_member(pattern.value)
            return {member} if member else set()
        if isinstance(pattern, ast.MatchOr):
            members: Set[str] = set()
            for sub in pattern.patterns:
                members |= self._pattern_members(sub)
            return members
        return set()

    def _is_wildcard(self, pattern: ast.pattern) -> bool:
        return isinstance(pattern, ast.MatchAs) and pattern.pattern is None

    # -- literal mappings ----------------------------------------------

    def _check_dict_literals(self, ctx: "FileContext") -> Iterator[Violation]:  # noqa: F821
        for node in ctx.nodes:
            if not isinstance(node, ast.Dict):
                continue
            members: Set[str] = set()
            outcome_keys = 0
            for key in node.keys:
                if key is None:
                    continue
                member = _outcome_member(key)
                if member is not None:
                    members.add(member)
                    outcome_keys += 1
            if outcome_keys < 2 or members == OUTCOME_MEMBERS:
                continue
            yield self.violation(
                ctx,
                node,
                f"Outcome-keyed mapping lists {len(members)} of 4 members "
                f"(missing: {_missing(members)}); a partial table mis-books "
                "the absent outcomes",
            )
