"""SF003: cross-process capture discipline for the sweep pool.

Work shipped to the multiprocessing pool (and, next, to sharded
server processes) runs in a *forked copy* of the parent: anything
mutable that crosses the boundary silently forks into per-process
replicas.  Three hazards, none visible per file:

* a **non-module-level callable** (lambda, nested closure, bound
  method) submitted to the pool — unpicklable or, worse, capturing
  parent state by reference;
* **mutation after submit** — the parent mutating an object it already
  shipped, racing the pickling of in-flight tasks;
* **worker-reachable mutation of module globals** — any function
  reachable (via the call graph) from a submitted entry point that
  rebinds or mutates a module-level object: each worker mutates its own
  copy, and the divergence is invisible until results disagree.

Suppressions carry the burden of proof: a kept finding must argue the
mutated state is content-addressed or process-local by design.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.base import Rule, Violation, register
from repro.lint.flow.analysis import FlowAnalysis
from repro.lint.flow.symbols import FunctionInfo

#: Pool/executor methods that ship a callable (first argument).
_SUBMIT_METHODS: FrozenSet[str] = frozenset(
    {
        "apply",
        "apply_async",
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "submit",
    }
)

#: Receiver names that make a ``.map``-style call a pool submission.
_POOLISH_MARKERS: Tuple[str, ...] = ("pool", "executor")

#: Constructors whose ``initializer=`` also enters worker processes.
_POOL_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"Pool", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)

#: Method names that mutate their receiver in place.
_MUTATORS: FrozenSet[str] = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "reverse",
        "move_to_end",
    }
)


def _receiver_is_poolish(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        name = expr.id.lower()
    elif isinstance(expr, ast.Attribute):
        name = expr.attr.lower()
    elif isinstance(expr, ast.Call):
        return _callee_name(expr) in _POOL_CONSTRUCTORS or _receiver_is_poolish(expr.func)
    else:
        return False
    return any(marker in name for marker in _POOLISH_MARKERS)


def _callee_name(call: ast.Call) -> Optional[str]:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _names_in(expr: ast.expr) -> Set[str]:
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


class _SubmitSite:
    """One call that ships work (callable + payload) to the pool."""

    __slots__ = ("func", "node", "callable_exprs", "payload_names")

    def __init__(self, func: FunctionInfo, node: ast.Call) -> None:
        self.func = func
        self.node = node
        self.callable_exprs: List[ast.expr] = []
        self.payload_names: Set[str] = set()


@register
class CrossProcessCaptureRule(Rule):
    """SF003: objects crossing the process-pool boundary stay immutable."""

    rule_id = "SF003"
    summary = "pool-shipped callables are module-level; no mutation across the boundary"

    def check_program(self, analysis: FlowAnalysis) -> Iterator[Violation]:
        sites = self._submit_sites(analysis)
        entry_points: Set[str] = set()
        for site in sites:
            yield from self._check_callables(analysis, site, entry_points)
            yield from self._check_mutation_after_submit(analysis, site)
        yield from self._check_worker_globals(analysis, entry_points)

    # -- discovery ------------------------------------------------------

    def _submit_sites(self, analysis: FlowAnalysis) -> List[_SubmitSite]:
        sites: List[_SubmitSite] = []
        for func in analysis.callgraph.functions_in_postorder():
            for node in func.nodes:
                if not isinstance(node, ast.Call):
                    continue
                site: Optional[_SubmitSite] = None
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in _SUBMIT_METHODS
                    and _receiver_is_poolish(f.value)
                ):
                    site = _SubmitSite(func, node)
                    if node.args:
                        site.callable_exprs.append(node.args[0])
                        for payload in node.args[1:]:
                            site.payload_names |= _names_in(payload)
                    for kw in node.keywords:
                        if kw.arg in (None, "chunksize", "timeout", "callback"):
                            continue
                        site.payload_names |= _names_in(kw.value)
                elif _callee_name(node) in _POOL_CONSTRUCTORS:
                    site = _SubmitSite(func, node)
                    for kw in node.keywords:
                        if kw.arg == "initializer":
                            site.callable_exprs.append(kw.value)
                        elif kw.arg == "initargs":
                            site.payload_names |= _names_in(kw.value)
                if site is not None and (site.callable_exprs or site.payload_names):
                    sites.append(site)
        return sites

    # -- SF003a: callable shape ----------------------------------------

    def _check_callables(
        self,
        analysis: FlowAnalysis,
        site: _SubmitSite,
        entry_points: Set[str],
    ) -> Iterator[Violation]:
        shipped: List[Tuple[FunctionInfo, ast.expr]] = []
        for expr in site.callable_exprs:
            shipped.extend(self._callable_sources(analysis, site.func, expr, set()))
        for func, expr in shipped:
            mod = analysis.symbols.modules[func.module].module
            if isinstance(expr, ast.Lambda):
                yield self.violation(
                    mod.ctx,
                    expr,
                    "lambda shipped to the process pool; workers need a "
                    "module-level function (picklable, no captured parent state)",
                )
                continue
            if isinstance(expr, ast.Attribute):
                yield self.violation(
                    mod.ctx,
                    expr,
                    "bound method shipped to the process pool; the receiver "
                    "object is pickled with it — ship a module-level function "
                    "and pass data explicitly",
                )
                continue
            if isinstance(expr, ast.Name):
                if self._is_nested_def(func, expr.id):
                    yield self.violation(
                        mod.ctx,
                        expr,
                        f"closure '{expr.id}' shipped to the process pool; "
                        "nested functions capture enclosing frames — hoist it "
                        "to module level and pass state as arguments",
                    )
                    continue
                resolved = analysis.symbols.resolve_name(func.module, expr.id)
                if resolved is not None and resolved in analysis.symbols.functions:
                    info = analysis.symbols.functions[resolved]
                    if info.class_name is None:
                        entry_points.add(resolved)
                    else:
                        yield self.violation(
                            mod.ctx,
                            expr,
                            f"method {info.local_name} shipped to the process "
                            "pool; ship a module-level function instead",
                        )

    def _callable_sources(
        self,
        analysis: FlowAnalysis,
        func: FunctionInfo,
        expr: ast.expr,
        seen: Set[str],
    ) -> Iterator[Tuple[FunctionInfo, ast.expr]]:
        """The expressions that reach ``expr`` in ``func``: itself, or,
        when it names a parameter of ``func`` (a fan-out helper), the
        argument every resolved call site passes for that parameter."""
        params = self._positional_params(func)
        names = params + [arg.arg for arg in func.node.args.kwonlyargs]
        if not isinstance(expr, ast.Name) or expr.id not in names:
            yield func, expr
            return
        if func.qualname in seen:
            return
        seen = seen | {func.qualname}
        for site in analysis.callgraph.call_sites_of(func.qualname):
            call = site.node
            index = params.index(expr.id) if expr.id in params else len(call.args)
            passed: Optional[ast.expr] = None
            if index < len(call.args) and not isinstance(call.args[index], ast.Starred):
                passed = call.args[index]
            for kw in call.keywords:
                if kw.arg == expr.id:
                    passed = kw.value
            if passed is not None:
                caller = analysis.symbols.functions[site.caller]
                yield from self._callable_sources(analysis, caller, passed, seen)

    def _positional_params(self, func: FunctionInfo) -> List[str]:
        args = func.node.args
        names = [arg.arg for arg in args.posonlyargs + args.args]
        if func.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    def _is_nested_def(self, func: FunctionInfo, name: str) -> bool:
        for node in func.nodes:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not func.node
                and node.name == name
            ):
                return True
        return False

    # -- SF003b: mutation after submit ---------------------------------

    def _check_mutation_after_submit(
        self, analysis: FlowAnalysis, site: _SubmitSite
    ) -> Iterator[Violation]:
        if not site.payload_names:
            return
        mod = analysis.symbols.modules[site.func.module].module
        submit_line = site.node.lineno
        for node in site.func.nodes:
            lineno = getattr(node, "lineno", None)
            if lineno is None or lineno < submit_line:
                continue
            mutated = self._mutated_name(node)
            if mutated is not None and mutated in site.payload_names:
                yield self.violation(
                    mod.ctx,
                    node,
                    f"'{mutated}' is mutated after being shipped to the process "
                    "pool; in-flight tasks pickle lazily, so the workers may "
                    "see either version — finish all mutation before submit",
                )

    def _mutated_name(self, node: ast.AST) -> Optional[str]:
        """The base name a statement/expression mutates in place, if any."""
        target: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, (ast.Subscript, ast.Attribute)):
                    target = t.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, (ast.Subscript, ast.Attribute)):
                target = node.target.value
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in _MUTATORS:
                target = f.value
        if isinstance(target, ast.Name):
            return target.id
        return None

    # -- SF003c: worker-reachable global mutation -----------------------

    def _check_worker_globals(
        self, analysis: FlowAnalysis, entry_points: Set[str]
    ) -> Iterator[Violation]:
        if not entry_points:
            return
        reachable = analysis.callgraph.reachable_from(entry_points)
        mutates_self = self._self_mutation_summaries(analysis)
        for qualname in sorted(reachable):
            # Constructor edges may point at classes with no explicit
            # __init__ (dataclasses, inherited) — nothing to inspect.
            func = analysis.symbols.functions.get(qualname)
            if func is None:
                continue
            mod = analysis.symbols.modules[func.module].module
            syms = analysis.symbols.modules[func.module]
            global_names = self._declared_globals(func)
            local_names = self._local_bindings(func)
            for node in func.nodes:
                # Rebinding a module global inside a worker-reachable body.
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in global_names
                        ):
                            yield self.violation(
                                mod.ctx,
                                node,
                                f"worker-reachable '{func.local_name}' rebinds "
                                f"module global '{target.id}'; each pool process "
                                "rebinds its own copy and the fleet diverges — "
                                "pass state through arguments or return values",
                            )
                # Mutating a module-global container / instance.
                mutated = self._mutated_name(node)
                if (
                    mutated is not None
                    and mutated not in local_names
                    and mutated in syms.global_assigns
                ):
                    yield self.violation(
                        mod.ctx,
                        node,
                        f"worker-reachable '{func.local_name}' mutates module "
                        f"global '{mutated}'; each pool process mutates a "
                        "private copy — make it immutable or content-addressed",
                    )
                # Calling a self-mutating method on a module-global instance.
                if isinstance(node, ast.Call):
                    yield from self._check_global_method_call(
                        analysis, func, mod, syms, node, local_names, mutates_self
                    )

    def _check_global_method_call(
        self,
        analysis: FlowAnalysis,
        func: FunctionInfo,
        mod,
        syms,
        node: ast.Call,
        local_names: Set[str],
        mutates_self: Dict[str, bool],
    ) -> Iterator[Violation]:
        f = node.func
        if not (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id not in local_names
            and f.value.id in syms.global_assigns
        ):
            return
        value = syms.global_assigns[f.value.id]
        owner = analysis.symbols._value_type(func.module, value, {})
        if owner is None:
            return
        method = analysis.symbols.lookup_method(owner, f.attr)
        if method is None or not mutates_self.get(method.qualname, False):
            return
        yield self.violation(
            mod.ctx,
            node,
            f"worker-reachable '{func.local_name}' calls "
            f"{f.value.id}.{f.attr}(), which mutates the module-global "
            f"{owner.rsplit('.', 1)[-1]} instance; per-process copies diverge "
            "silently — keep cross-process state immutable or content-addressed",
        )

    def _self_mutation_summaries(self, analysis: FlowAnalysis) -> Dict[str, bool]:
        """qualname → does this method assign/mutate ``self`` state?"""
        summaries: Dict[str, bool] = {}
        for qualname, func in analysis.symbols.functions.items():
            if func.class_name is None:
                summaries[qualname] = False
                continue
            summaries[qualname] = self._mutates_self(func)
        # One level of indirection: a method calling a sibling that
        # mutates self also mutates self.
        for qualname, func in analysis.symbols.functions.items():
            if summaries[qualname] or func.class_name is None:
                continue
            for node in func.nodes:
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                ):
                    sibling = analysis.symbols.lookup_method(
                        f"{func.module}.{func.class_name}", node.func.attr
                    )
                    if sibling is not None and summaries.get(sibling.qualname, False):
                        summaries[qualname] = True
                        break
        return summaries

    def _mutates_self(self, func: FunctionInfo) -> bool:
        for node in func.nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id == "self"
                        and not isinstance(target, ast.Name)
                    ):
                        return True
            elif isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and f.attr in _MUTATORS:
                    base = f.value
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if isinstance(base, ast.Name) and base.id == "self":
                        return True
        return False

    # -- helpers --------------------------------------------------------

    def _declared_globals(self, func: FunctionInfo) -> Set[str]:
        names: Set[str] = set()
        for node in func.nodes:
            if isinstance(node, ast.Global):
                names.update(node.names)
        return names

    def _local_bindings(self, func: FunctionInfo) -> Set[str]:
        """Names bound locally (params + assignments) in ``func``."""
        args = func.node.args
        names: Set[str] = {
            a.arg
            for a in list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        }
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        globals_declared = self._declared_globals(func)
        for node in func.nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                for sub in ast.walk(node.optional_vars):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func.node:
                    names.add(node.name)
            elif isinstance(node, ast.comprehension):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        return names - globals_declared
