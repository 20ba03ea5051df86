"""SF002: the wall clock stays out of simulation state.

Simulated time lives on ``Simulator.now``; anything derived from the
host clock (``time.time()``, ``datetime.now()``, ``perf_counter()``)
differs between two runs of the same seed.  This rule is the one
wall-clock detector, and it reports two things:

* **reads in the simulation domain** — any wall-clock read, and any
  ``from time import <clock name>``, in a ``sim``/``db``/``core``/
  ``workload``/``obs`` module, at module level, in a class body or in
  a function.  Each read is reported once, at the read, whatever its
  value later reaches;
* **flows from elsewhere** — a value read legally in ``experiments/``
  (``time.perf_counter()`` for report timing) can still flow back into
  the simulation: passed into a ``core`` policy, stored on a ``sim``
  object, scheduled as an event time, or booked into a report field
  that the byte-identity contract covers.  Every such read (and every
  read-back of the declared wall-metadata report fields) is tainted
  and followed through assignments, arithmetic, containers, and
  resolved calls — flagging any flow into the simulation domain.

Declared wall-metadata sinks: the ``wall_seconds`` / ``phase_seconds``
keywords of ``*Report`` constructors.  Those two fields are the *only*
sanctioned resting place for wall-clock values.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Set

from repro.lint.base import SIMULATION_COMPONENTS, Rule, Violation, register
from repro.lint.flow.analysis import FlowAnalysis
from repro.lint.flow.loader import ModuleFile
from repro.lint.flow.symbols import FunctionInfo
from repro.lint.flow.taint import TaintEngine
from repro.lint.rules.determinism import _from_imports, _module_aliases
from repro.lint.walker import FileContext

#: Report-constructor keywords sanctioned to carry wall-clock values.
WALL_METADATA_FIELDS: FrozenSet[str] = frozenset({"wall_seconds", "phase_seconds"})

#: Attribute reads that re-introduce wall taint (reading metadata back).
_WALL_METADATA_ATTRS: FrozenSet[str] = WALL_METADATA_FIELDS

#: ``time``-module attributes that read the host clock.
_WALL_CLOCK_TIME_ATTRS: FrozenSet[str] = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
        "localtime",
        "gmtime",
        "sleep",
    }
)

#: ``datetime.datetime`` / ``datetime.date`` constructors that read it.
_WALL_CLOCK_DT_ATTRS: FrozenSet[str] = frozenset({"now", "utcnow", "today"})
_DT_CLASSES: FrozenSet[str] = frozenset({"datetime", "date"})

_LABEL = "wall-clock"

_USE_SIM_CLOCK = "use the virtual clock (Simulator.now)"


class _ClockNames:
    """How one module can reach the wall clock: its import bindings."""

    def __init__(self, ctx: FileContext) -> None:
        self.time_aliases: Set[str] = _module_aliases(ctx.nodes, "time")
        self.dt_aliases: Set[str] = _module_aliases(ctx.nodes, "datetime")
        self.time_from: Dict[str, str] = {
            name: original
            for name, (_node, original) in _from_imports(ctx.nodes, "time").items()
        }
        self.dt_from: Dict[str, str] = {
            name: original
            for name, (_node, original) in _from_imports(ctx.nodes, "datetime").items()
        }

    def read(self, call: ast.Call) -> Optional[str]:
        """The wall-clock function ``call`` invokes (e.g. ``time.sleep``),
        or None when it reads no clock."""
        f = call.func
        if isinstance(f, ast.Name):
            original = self.time_from.get(f.id)
            return f"time.{original}" if original in _WALL_CLOCK_TIME_ATTRS else None
        if not isinstance(f, ast.Attribute):
            return None
        base = f.value
        if isinstance(base, ast.Name):
            if base.id in self.time_aliases and f.attr in _WALL_CLOCK_TIME_ATTRS:
                return f"time.{f.attr}"
            cls = self.dt_from.get(base.id)
            if cls in _DT_CLASSES and f.attr in _WALL_CLOCK_DT_ATTRS:
                return f"datetime.{cls}.{f.attr}"
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id in self.dt_aliases
            and base.attr in _DT_CLASSES
            and f.attr in _WALL_CLOCK_DT_ATTRS
        ):
            return f"datetime.{base.attr}.{f.attr}"
        return None


class _SourceDetector:
    """Taint sources for the flow half: wall-clock reads outside the
    simulation domain (reads inside it are reported where they are),
    plus read-backs of the declared wall-metadata fields."""

    def __init__(self, analysis: FlowAnalysis) -> None:
        self.analysis = analysis
        self._names: Dict[str, _ClockNames] = {}

    def __call__(self, expr: ast.expr, func: FunctionInfo) -> Optional[str]:
        if isinstance(expr, ast.Attribute):
            # Reading declared wall metadata back off a report object.
            if isinstance(expr.ctx, ast.Load) and expr.attr in _WALL_METADATA_ATTRS:
                return _LABEL
            return None
        if not isinstance(expr, ast.Call) or func.component in SIMULATION_COMPONENTS:
            return None
        names = self._names.get(func.module)
        if names is None:
            ctx = self.analysis.symbols.modules[func.module].module.ctx
            names = self._names[func.module] = _ClockNames(ctx)
        return _LABEL if names.read(expr) is not None else None


@register
class ClockDomainRule(Rule):
    """SF002: no wall-clock reads in the simulation domain, and no
    wall-clock value read elsewhere crosses into it."""

    rule_id = "SF002"
    summary = (
        "no wall-clock reads in sim paths (use Simulator.now); wall-clock taint "
        "never reaches sim-time state or report fields"
    )

    def check_program(self, analysis: FlowAnalysis) -> Iterator[Violation]:
        for mod in analysis.program.sorted_modules():
            if mod.component in SIMULATION_COMPONENTS:
                yield from self._check_reads(mod)
        detector = _SourceDetector(analysis)
        engine = TaintEngine(
            analysis.program, analysis.symbols, analysis.callgraph, detector
        )
        for func in analysis.callgraph.functions_in_postorder():
            env = engine.env_of(func.qualname)
            type_env = analysis.symbols.local_types(func)
            mod = analysis.symbols.modules[func.module].module
            for node in func.nodes:
                if isinstance(node, ast.Call):
                    yield from self._check_call(
                        analysis, engine, func, mod, node, env, type_env
                    )
                elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    yield from self._check_attr_store(
                        analysis, engine, func, mod, node, env, type_env
                    )

    # -- reads in the simulation domain --------------------------------

    def _check_reads(self, mod: ModuleFile) -> Iterator[Violation]:
        names = _ClockNames(mod.ctx)
        for node in mod.ctx.nodes:
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and node.level == 0
            ):
                clock = sorted(
                    a.name for a in node.names if a.name in _WALL_CLOCK_TIME_ATTRS
                )
                if clock:
                    yield self.violation(
                        mod.ctx,
                        node,
                        f"'from time import {', '.join(clock)}' pulls the wall clock "
                        f"into a simulation path; {_USE_SIM_CLOCK}",
                    )
            elif isinstance(node, ast.Call):
                read = names.read(node)
                if read is not None:
                    yield self.violation(
                        mod.ctx,
                        node,
                        f"wall-clock read {read}(...) in a simulation path; "
                        f"{_USE_SIM_CLOCK}",
                    )

    # -- flows into the simulation domain -------------------------------

    def _tainted(self, engine: TaintEngine, func: FunctionInfo, expr: ast.expr, env) -> bool:
        return _LABEL in engine._expr_labels(func, expr, env)

    def _check_call(
        self,
        analysis: FlowAnalysis,
        engine: TaintEngine,
        func: FunctionInfo,
        mod,
        node: ast.Call,
        env,
        type_env,
    ) -> Iterator[Violation]:
        target = analysis.symbols.resolve_call_target(func.module, node.func, type_env)
        if target is None:
            return
        kind, qualname = target
        component: Optional[str]
        class_name: Optional[str] = None
        if kind == "class":
            cls = analysis.symbols.classes.get(qualname)
            component = cls.component if cls is not None else None
            class_name = cls.name if cls is not None else qualname.rsplit(".", 1)[-1]
        else:
            info = analysis.symbols.functions.get(qualname)
            component = info.component if info is not None else None
            if info is not None and info.class_name is not None:
                class_name = info.class_name
        is_report_ctor = (
            kind == "class" and class_name is not None and class_name.endswith("Report")
        )
        for arg in node.args:
            if self._tainted(engine, func, arg, env):
                if is_report_ctor:
                    yield self.violation(
                        mod.ctx,
                        arg,
                        "wall-clock value flows into a positional report field; "
                        "only the declared wall-metadata keywords "
                        f"({', '.join(sorted(WALL_METADATA_FIELDS))}) may carry it",
                    )
                elif component in SIMULATION_COMPONENTS:
                    yield self.violation(
                        mod.ctx,
                        arg,
                        f"wall-clock value flows into {qualname} "
                        f"({component} component); sim-time state must be a pure "
                        "function of the seed — derive times from Simulator.now "
                        "or config instead",
                    )
        for kw in node.keywords:
            if kw.value is None or not self._tainted(engine, func, kw.value, env):
                continue
            if is_report_ctor:
                if kw.arg in WALL_METADATA_FIELDS:
                    continue
                yield self.violation(
                    mod.ctx,
                    kw.value,
                    f"wall-clock value flows into report field {kw.arg!r}; only "
                    f"the declared wall-metadata fields "
                    f"({', '.join(sorted(WALL_METADATA_FIELDS))}) may carry it — "
                    "they are excluded from the byte-identity contract",
                )
            elif component in SIMULATION_COMPONENTS:
                yield self.violation(
                    mod.ctx,
                    kw.value,
                    f"wall-clock value flows into {qualname} argument "
                    f"{kw.arg!r} ({component} component); sim-time state must "
                    "be a pure function of the seed",
                )

    def _check_attr_store(
        self,
        analysis: FlowAnalysis,
        engine: TaintEngine,
        func: FunctionInfo,
        mod,
        node,
        env,
        type_env,
    ) -> Iterator[Violation]:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        if value is None or not self._tainted(engine, func, value, env):
            return
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            owner_type = analysis.symbols._value_type(func.module, target.value, type_env)
            if owner_type is None:
                continue
            cls = analysis.symbols.classes.get(owner_type)
            if cls is None or cls.component not in SIMULATION_COMPONENTS:
                continue
            yield self.violation(
                mod.ctx,
                target,
                f"wall-clock value stored on {cls.name}.{target.attr} "
                f"({cls.component} component); sim objects must hold only "
                "seed-derived state",
            )
