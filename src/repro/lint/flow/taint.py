"""A small interprocedural taint engine for the whole-program rules.

Rules declare *sources* (expressions that introduce a labelled taint,
e.g. "wall-clock") and the engine answers, for any expression in any
function, which labels can reach it.  The analysis is:

* **intraprocedural**: flow-insensitive per function — assignments are
  iterated to a fixpoint, so ``a = time.time(); b = a`` taints ``b``
  regardless of statement order subtleties;
* **interprocedural via summaries**: each function gets a summary
  (labels its return value can carry from its own body, and whether
  argument taint can pass through to the return value), propagated over
  the call graph to a global fixpoint.

Taint propagates through arithmetic, subscripts, attribute reads on
tainted objects, container literals, a small allowlist of transparent
builtins (``min``/``max``/...), and resolved program calls.  Unresolved
non-builtin calls do *not* propagate argument taint — the engine
prefers missing a flow to drowning the report in false positives.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, Optional, Set

from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.loader import Program
from repro.lint.flow.symbols import FunctionInfo, SymbolTable

#: Builtins whose result carries their arguments' taint.
_TRANSPARENT_BUILTINS: FrozenSet[str] = frozenset(
    {"min", "max", "abs", "round", "float", "int", "sum", "sorted", "list",
     "tuple", "dict", "set", "len", "str"}
)

#: A source detector: labels introduced by a call expression (resolved
#: against the symbol table by the rule), or None.
SourceFn = Callable[[ast.expr, FunctionInfo], Optional[str]]

Labels = Set[str]


class FunctionSummary:
    """What a function's return value can carry."""

    __slots__ = ("return_labels", "propagates_args")

    def __init__(self) -> None:
        self.return_labels: Labels = set()
        #: True when taint on any argument can reach the return value.
        self.propagates_args = False


class TaintEngine:
    """Label propagation over one loaded program."""

    def __init__(
        self,
        program: Program,
        symbols: SymbolTable,
        callgraph: CallGraph,
        source: SourceFn,
    ) -> None:
        self.program = program
        self.symbols = symbols
        self.callgraph = callgraph
        self.source = source
        self.summaries: Dict[str, FunctionSummary] = {
            qual: FunctionSummary() for qual in symbols.functions
        }
        self._envs: Dict[str, Dict[str, Labels]] = {}
        self._solve()

    # -- public API -----------------------------------------------------

    def env_of(self, qualname: str) -> Dict[str, Labels]:
        """Final name → labels environment of one function."""
        return self._envs.get(qualname, {})

    # -- solving --------------------------------------------------------

    def _solve(self) -> None:
        # Pass 1: argument-pass-through summaries (pure structure, no
        # sources): does any parameter's value reach the return?
        for qualname in sorted(self.symbols.functions):
            func = self.symbols.functions[qualname]
            self.summaries[qualname].propagates_args = self._params_reach_return(func)
        # Pass 2..n: propagate source labels through bodies and call
        # edges until summaries stop changing.
        for _ in range(12):  # depth bound; real chains are shallow
            changed = False
            for qualname in sorted(self.symbols.functions):
                func = self.symbols.functions[qualname]
                env = self._analyze_body(func)
                self._envs[qualname] = env
                ret = self._return_labels(func, env)
                summary = self.summaries[qualname]
                if not ret <= summary.return_labels:
                    summary.return_labels |= ret
                    changed = True
            if not changed:
                break

    def _params_reach_return(self, func: FunctionInfo) -> bool:
        args = func.node.args
        param_names = {
            a.arg
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            if a.arg not in ("self", "cls")
        }
        if not param_names:
            return False
        env: Dict[str, Labels] = {name: {"<arg>"} for name in param_names}
        env = self._propagate_assignments(func, env, with_sources=False)
        for node in func.nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                if "<arg>" in self._expr_labels(func, node.value, env, with_sources=False):
                    return True
        return False

    def _analyze_body(self, func: FunctionInfo) -> Dict[str, Labels]:
        return self._propagate_assignments(func, {}, with_sources=True)

    def _propagate_assignments(
        self,
        func: FunctionInfo,
        env: Dict[str, Labels],
        with_sources: bool,
    ) -> Dict[str, Labels]:
        env = {name: set(labels) for name, labels in env.items()}
        for _ in range(6):  # local chains are short
            changed = False
            for node in func.nodes:
                targets: list = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = list(node.targets), node.value
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets, value = [node.target], node.value
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    targets, value = [node.target], node.iter
                elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                    targets, value = [node.optional_vars], node.context_expr
                if value is None:
                    continue
                labels = self._expr_labels(func, value, env, with_sources=with_sources)
                if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                    labels = labels | env.get(node.target.id, set())
                if not labels:
                    continue
                for target in targets:
                    changed |= self._taint_target(target, labels, env)
            if not changed:
                break
        return env

    def _taint_target(
        self, target: ast.expr, labels: Labels, env: Dict[str, Labels]
    ) -> bool:
        """Apply ``labels`` to an assignment target; True when env grew."""
        if isinstance(target, ast.Name):
            have = env.setdefault(target.id, set())
            if labels <= have:
                return False
            have |= labels
            return True
        if isinstance(target, (ast.Tuple, ast.List)):
            changed = False
            for elt in target.elts:
                changed |= self._taint_target(elt, labels, env)
            return changed
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            # d[k] = tainted / obj.attr = tainted: the container itself
            # becomes tainted when it is a plain local name.
            base = target.value
            if isinstance(base, ast.Name):
                return self._taint_target(base, labels, env)
        return False

    def _return_labels(self, func: FunctionInfo, env: Dict[str, Labels]) -> Labels:
        labels: Labels = set()
        for node in func.nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                labels |= self._expr_labels(func, node.value, env)
        return labels

    # -- expression labelling ------------------------------------------

    def _expr_labels(
        self,
        func: FunctionInfo,
        expr: ast.expr,
        env: Dict[str, Labels],
        with_sources: bool = True,
    ) -> Labels:
        if isinstance(expr, ast.Name):
            return set(env.get(expr.id, set()))
        if isinstance(expr, ast.Constant):
            return set()
        if isinstance(expr, ast.Call):
            labels: Labels = set()
            if with_sources:
                src = self.source(expr, func)
                if src is not None:
                    labels.add(src)
            arg_labels: Labels = set()
            for arg in list(expr.args) + [kw.value for kw in expr.keywords]:
                arg_labels |= self._expr_labels(func, arg, env, with_sources)
            target = self.symbols.resolve_call_target(
                func.module, expr.func, self.symbols.local_types(func)
            )
            if target is not None and target[0] == "func":
                summary = self.summaries.get(target[1])
                if summary is not None:
                    labels |= summary.return_labels
                    if summary.propagates_args:
                        labels |= arg_labels
            elif (
                isinstance(expr.func, ast.Name)
                and expr.func.id in _TRANSPARENT_BUILTINS
            ):
                labels |= arg_labels
            # receiver taint flows through method calls on tainted objects
            # (e.g. reading from a tainted dict via .get / .items).
            if isinstance(expr.func, ast.Attribute):
                labels |= self._expr_labels(func, expr.func.value, env, with_sources)
            return labels
        if isinstance(expr, ast.BinOp):
            return self._expr_labels(func, expr.left, env, with_sources) | self._expr_labels(
                func, expr.right, env, with_sources
            )
        if isinstance(expr, ast.UnaryOp):
            return self._expr_labels(func, expr.operand, env, with_sources)
        if isinstance(expr, ast.IfExp):
            return self._expr_labels(func, expr.body, env, with_sources) | self._expr_labels(
                func, expr.orelse, env, with_sources
            )
        if isinstance(expr, ast.Subscript):
            return self._expr_labels(func, expr.value, env, with_sources)
        if isinstance(expr, ast.Attribute):
            base = expr.value
            labels = set()
            if with_sources:
                src = self.source(expr, func)
                if src is not None:
                    labels.add(src)
            labels |= self._expr_labels(func, base, env, with_sources)
            return labels
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            labels = set()
            for elt in expr.elts:
                labels |= self._expr_labels(func, elt, env, with_sources)
            return labels
        if isinstance(expr, ast.Dict):
            labels = set()
            for key in expr.keys:
                if key is not None:
                    labels |= self._expr_labels(func, key, env, with_sources)
            for value in expr.values:
                labels |= self._expr_labels(func, value, env, with_sources)
            return labels
        if isinstance(expr, ast.JoinedStr):
            return set()  # stringified values no longer act as clock values
        if isinstance(expr, ast.Starred):
            return self._expr_labels(func, expr.value, env, with_sources)
        if isinstance(expr, ast.NamedExpr):
            return self._expr_labels(func, expr.value, env, with_sources)
        if isinstance(expr, ast.BoolOp):
            labels = set()
            for value in expr.values:
                labels |= self._expr_labels(func, value, env, with_sources)
            return labels
        return set()
