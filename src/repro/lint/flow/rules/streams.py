"""SF001: RNG stream-name provenance.

Seed stability rests on :class:`repro.sim.rng.RandomStreams`: every
substream is seeded from ``(master_seed, name)``, so the *names* are
part of the determinism contract.  Two hazards are invisible per file:

* **collisions** — two different components resolving the same stream
  name share one generator, coupling their draws (changing one
  component's consumption perturbs the other — exactly what named
  streams exist to prevent);
* **unstable names** — a name computed at runtime from something other
  than configuration (a call result, an unresolvable variable) can
  change between runs or refactors, silently re-seeding a component.

The rule constant-propagates ``.stream(...)`` name arguments: literals
resolve directly, f-strings of simple config fields resolve to
templates (``f"update-{spec.name}-exec"`` → ``update-{}-exec``), and
parameter-passed names are chased to their literal origins through the
call graph.  Violations: a name whose literal origins span more than
one component, and any name argument with no resolvable literal shape.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import Rule, Violation, register
from repro.lint.flow.analysis import FlowAnalysis
from repro.lint.flow.symbols import FunctionInfo, SymbolTable

#: How deep a parameter is chased through callers before giving up.
_MAX_CALLER_DEPTH = 4


@dataclasses.dataclass(frozen=True)
class _Origin:
    """Where a resolved stream name's literal was written."""

    module: str
    component: Optional[str]
    line: int


@dataclasses.dataclass
class _StreamSite:
    """One ``streams.stream(...)`` call with its resolution."""

    func: FunctionInfo
    node: ast.Call
    resolved: List[Tuple[str, _Origin]]  # (name-or-template, origin)
    failure: Optional[str]  # why resolution failed, when it did


def _is_streams_class(qualname: Optional[str]) -> bool:
    return qualname is not None and qualname.rsplit(".", 1)[-1] == "RandomStreams"


def _simple_placeholder(expr: ast.expr) -> bool:
    """A placeholder that parameterizes a template deterministically:
    a name, attribute chain, or subscript of those — never a call."""
    if isinstance(expr, ast.Name):
        return True
    if isinstance(expr, ast.Attribute):
        return _simple_placeholder(expr.value)
    if isinstance(expr, ast.Subscript):
        return _simple_placeholder(expr.value)
    if isinstance(expr, ast.FormattedValue):
        return _simple_placeholder(expr.value)
    return False


class _Resolver:
    """Constant-propagates a stream-name expression to literal origins."""

    def __init__(self, analysis: FlowAnalysis) -> None:
        self.analysis = analysis
        self.symbols: SymbolTable = analysis.symbols

    def resolve(
        self,
        func: FunctionInfo,
        expr: ast.expr,
        depth: int = 0,
        stack: Optional[Set[str]] = None,
    ) -> Tuple[List[Tuple[str, _Origin]], Optional[str]]:
        """Resolve ``expr`` (in ``func``) to ``[(name, origin), ...]``.

        Returns ``(resolutions, failure)``; a non-None failure means at
        least one path could not be resolved to a literal shape.
        """
        stack = stack or set()
        mod = self.symbols.modules[func.module].module
        origin = _Origin(
            module=func.module,
            component=mod.component,
            line=getattr(expr, "lineno", func.node.lineno),
        )
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return [(expr.value, origin)], None
        if isinstance(expr, ast.JoinedStr):
            return self._resolve_fstring(func, expr, origin)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            left, lf = self.resolve(func, expr.left, depth, stack)
            right, rf = self.resolve(func, expr.right, depth, stack)
            if lf or rf:
                return [], lf or rf
            return (
                [(ln + rn, lo) for ln, lo in left for rn, _ro in right],
                None,
            )
        if isinstance(expr, ast.Name):
            return self._resolve_name(func, expr, origin, depth, stack)
        return [], (
            f"stream name is a {type(expr).__name__} expression, not a literal"
        )

    def _resolve_fstring(
        self,
        func: FunctionInfo,
        expr: ast.JoinedStr,
        origin: _Origin,
    ) -> Tuple[List[Tuple[str, _Origin]], Optional[str]]:
        parts: List[str] = []
        for value in expr.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                if not _simple_placeholder(value.value):
                    return [], (
                        "f-string stream name interpolates a computed value; "
                        "interpolate only config fields (names/attributes)"
                    )
                parts.append("{}")
            else:  # pragma: no cover - grammar guarantees the two above
                return [], "unsupported f-string part in stream name"
        return [("".join(parts), origin)], None

    def _resolve_name(
        self,
        func: FunctionInfo,
        expr: ast.Name,
        origin: _Origin,
        depth: int,
        stack: Set[str],
    ) -> Tuple[List[Tuple[str, _Origin]], Optional[str]]:
        # Local constant assignment?
        local_const = self._local_str_assign(func, expr.id)
        if local_const is not None:
            value, lineno = local_const
            return [
                (value, dataclasses.replace(origin, line=lineno))
            ], None
        # Module-level string constant?
        syms = self.symbols.modules.get(func.module)
        if syms is not None and expr.id in syms.str_constants:
            return [(syms.str_constants[expr.id], origin)], None
        # A parameter: chase every caller's argument.
        if self._is_parameter(func, expr.id):
            return self._resolve_parameter(func, expr.id, depth, stack)
        return [], f"stream name '{expr.id}' has no resolvable literal origin"

    def _local_str_assign(
        self, func: FunctionInfo, name: str
    ) -> Optional[Tuple[str, int]]:
        found: Optional[Tuple[str, int]] = None
        count = 0
        for node in func.nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        count += 1
                        if isinstance(node.value, ast.Constant) and isinstance(
                            node.value.value, str
                        ):
                            found = (node.value.value, node.lineno)
                        else:
                            found = None
        # Only trust a single, constant assignment.
        if count == 1:
            return found
        return None

    def _is_parameter(self, func: FunctionInfo, name: str) -> bool:
        args = func.node.args
        return any(
            a.arg == name
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )

    def _resolve_parameter(
        self,
        func: FunctionInfo,
        param: str,
        depth: int,
        stack: Set[str],
    ) -> Tuple[List[Tuple[str, _Origin]], Optional[str]]:
        if depth >= _MAX_CALLER_DEPTH:
            return [], f"stream name parameter '{param}' exceeds caller-chase depth"
        if func.qualname in stack:
            return [], f"stream name parameter '{param}' flows through recursion"
        sites = self.analysis.callgraph.call_sites_of(func.qualname)
        if not sites:
            return [], (
                f"stream name parameter '{param}' has no resolvable call sites"
            )
        resolutions: List[Tuple[str, _Origin]] = []
        for site in sites:
            arg = self._argument_for(func, param, site.node)
            if arg is None:
                return [], (
                    f"stream name parameter '{param}' not traceable at a call "
                    f"site in {site.caller}"
                )
            caller = self.symbols.functions[site.caller]
            resolved, failure = self.resolve(
                caller, arg, depth + 1, stack | {func.qualname}
            )
            if failure is not None:
                return [], failure
            resolutions.extend(resolved)
        return resolutions, None

    def _argument_for(
        self, func: FunctionInfo, param: str, call: ast.Call
    ) -> Optional[ast.expr]:
        for kw in call.keywords:
            if kw.arg == param:
                return kw.value
        args = func.node.args
        positional = list(args.posonlyargs) + list(args.args)
        names = [a.arg for a in positional]
        if names and names[0] in ("self", "cls"):
            names = names[1:]
        try:
            index = names.index(param)
        except ValueError:
            return None
        if index < len(call.args):
            arg = call.args[index]
            return None if isinstance(arg, ast.Starred) else arg
        # Parameter defaulted at this call site: use its default value.
        defaults = args.defaults
        n_without_default = len(names) - len(defaults)
        if index >= n_without_default:
            return defaults[index - n_without_default]
        return None


@register
class StreamProvenanceRule(Rule):
    """SF001: stream names resolve to literals; no cross-component dupes."""

    rule_id = "SF001"
    summary = "RandomStreams names are literal-resolvable and collision-free"

    def check_program(self, analysis: FlowAnalysis) -> Iterator[Violation]:
        resolver = _Resolver(analysis)
        sites = self._stream_sites(analysis, resolver)
        yield from self._unresolved_violations(analysis, sites)
        yield from self._collision_violations(analysis, sites)

    # -- collection -----------------------------------------------------

    def _stream_sites(
        self, analysis: FlowAnalysis, resolver: _Resolver
    ) -> List[_StreamSite]:
        sites: List[_StreamSite] = []
        for func in analysis.callgraph.functions_in_postorder():
            # The factory itself may mention .stream in docs/helpers.
            if func.module.endswith("sim.rng"):
                continue
            env = analysis.symbols.local_types(func)
            for node in func.nodes:
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "stream"
                    and node.args
                ):
                    continue
                receiver_type = analysis.symbols._value_type(
                    func.module, node.func.value, env
                )
                if not _is_streams_class(receiver_type):
                    continue
                resolved, failure = resolver.resolve(func, node.args[0])
                sites.append(
                    _StreamSite(func=func, node=node, resolved=resolved, failure=failure)
                )
        return sites

    # -- violations -----------------------------------------------------

    def _unresolved_violations(
        self, analysis: FlowAnalysis, sites: List[_StreamSite]
    ) -> Iterator[Violation]:
        for site in sites:
            if site.failure is None:
                continue
            mod = analysis.symbols.modules[site.func.module].module
            yield self.violation(
                mod.ctx,
                site.node,
                f"stream name cannot be resolved to a stable literal "
                f"({site.failure}); substream seeds derive from the name, so "
                "use a string literal or an f-string of config fields",
            )

    def _collision_violations(
        self, analysis: FlowAnalysis, sites: List[_StreamSite]
    ) -> Iterator[Violation]:
        by_name: Dict[str, List[Tuple[_StreamSite, _Origin]]] = {}
        for site in sites:
            for name, origin in site.resolved:
                by_name.setdefault(name, []).append((site, origin))
        for name in sorted(by_name):
            entries = by_name[name]
            components = {
                origin.component for _site, origin in entries if origin.component
            }
            if len(components) <= 1:
                continue
            seen_sites: Set[int] = set()
            for site, origin in entries:
                if id(site.node) in seen_sites:
                    continue
                seen_sites.add(id(site.node))
                others = sorted(
                    {
                        f"{o.module}:{o.line}"
                        for s, o in entries
                        if s is not site or o != origin
                    }
                )
                mod = analysis.symbols.modules[site.func.module].module
                yield self.violation(
                    mod.ctx,
                    site.node,
                    f"stream name {name!r} is shared across components "
                    f"(also reached from {', '.join(others)}); shared names "
                    "alias one generator and couple the components' draws — "
                    "give each component a distinct substream name",
                )
