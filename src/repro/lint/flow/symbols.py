"""Symbol table and lightweight type resolution for the whole-program rules.

Builds, from a loaded :class:`~repro.lint.flow.loader.Program`, the
facts the interprocedural rules need:

* per-module import tables (``from repro.sim.rng import RandomStreams``
  → local name ``RandomStreams`` means ``repro.sim.rng.RandomStreams``),
* every function/method and class with its component,
* a *lightweight* type environment: parameter annotations, locals
  assigned from constructor calls, ``self`` attributes assigned in
  ``__init__`` — enough to resolve method calls like
  ``streams.stream(...)`` to the class that defines them, without
  attempting full inference.

Everything here is deliberately conservative: when a name cannot be
resolved the answer is ``None``, and rules treat unresolved values as
"unknown", not as violations (except where a rule's contract says an
unresolvable value *is* the hazard, e.g. SF001 stream names).
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from typing import Dict, List, Optional, Tuple, Union

from repro.lint.flow.loader import ModuleFile, Program

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclasses.dataclass
class FunctionInfo:
    """One function or method of the program."""

    qualname: str  # "repro.db.server.Server.submit_query"
    module: str  # "repro.db.server"
    local_name: str  # "Server.submit_query"
    node: FuncDef
    class_name: Optional[str]  # "Server" for methods, None for functions
    component: Optional[str]

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @functools.cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the definition in ``ast.walk`` order, walked once
        and shared by every rule."""
        return list(ast.walk(self.node))


@dataclasses.dataclass
class ClassInfo:
    """One class definition, with its methods and inferred attr types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    component: Optional[str]
    methods: Dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    base_names: List[str] = dataclasses.field(default_factory=list)
    #: ``self.<attr>`` → class qualname, from __init__ assignments and
    #: annotated class-level declarations.
    attr_types: Dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ModuleSymbols:
    """Name bindings visible at one module's top level."""

    module: ModuleFile
    #: local name → fully qualified target ("RandomStreams" →
    #: "repro.sim.rng.RandomStreams"; "np" → "numpy").
    imports: Dict[str, str] = dataclasses.field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    classes: Dict[str, ClassInfo] = dataclasses.field(default_factory=dict)
    #: module-level ``NAME = <expr>`` assignments (last one wins).
    global_assigns: Dict[str, ast.expr] = dataclasses.field(default_factory=dict)
    #: module-level string constants, for constant propagation.
    str_constants: Dict[str, str] = dataclasses.field(default_factory=dict)


def _collect_imports(nodes: List[ast.AST]) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def _annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """The dotted name an annotation refers to, unwrapping Optional/quotes.

    ``Optional[RandomStreams]`` → ``RandomStreams``;
    ``"Simulator"`` → ``Simulator``; unsupported shapes → None.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = _annotation_name(node.value)
        if base in ("Optional", "typing.Optional"):
            return _annotation_name(node.slice)
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parts: List[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            parts.append(cur.id)
            return ".".join(reversed(parts))
    return None


class SymbolTable:
    """Program-wide symbol and type resolution."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.modules: Dict[str, ModuleSymbols] = {}
        #: every FunctionInfo keyed by full qualname.
        self.functions: Dict[str, FunctionInfo] = {}
        #: every ClassInfo keyed by full qualname.
        self.classes: Dict[str, ClassInfo] = {}
        #: ``local_types`` results by function qualname.
        self._local_types: Dict[str, Dict[str, str]] = {}
        for mod in program.sorted_modules():
            self._index_module(mod)
        for mod_syms in self.modules.values():
            for cls in mod_syms.classes.values():
                self._infer_attr_types(mod_syms, cls)

    # -- indexing -------------------------------------------------------

    def _index_module(self, mod: ModuleFile) -> None:
        syms = ModuleSymbols(module=mod, imports=_collect_imports(mod.ctx.nodes))
        for stmt in mod.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{mod.name}.{stmt.name}",
                    module=mod.name,
                    local_name=stmt.name,
                    node=stmt,
                    class_name=None,
                    component=mod.component,
                )
                syms.functions[stmt.name] = info
                self.functions[info.qualname] = info
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{mod.name}.{stmt.name}",
                    module=mod.name,
                    name=stmt.name,
                    node=stmt,
                    component=mod.component,
                    base_names=[
                        name
                        for name in (_annotation_name(base) for base in stmt.bases)
                        if name is not None
                    ],
                )
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = FunctionInfo(
                            qualname=f"{cls.qualname}.{sub.name}",
                            module=mod.name,
                            local_name=f"{stmt.name}.{sub.name}",
                            node=sub,
                            class_name=stmt.name,
                            component=mod.component,
                        )
                        cls.methods[sub.name] = info
                        self.functions[info.qualname] = info
                syms.classes[stmt.name] = cls
                self.classes[cls.qualname] = cls
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        syms.global_assigns[target.id] = stmt.value
                        if isinstance(stmt.value, ast.Constant) and isinstance(
                            stmt.value.value, str
                        ):
                            syms.str_constants[target.id] = stmt.value.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if stmt.value is not None:
                    syms.global_assigns[stmt.target.id] = stmt.value
                    if isinstance(stmt.value, ast.Constant) and isinstance(
                        stmt.value.value, str
                    ):
                        syms.str_constants[stmt.target.id] = stmt.value.value
        self.modules[mod.name] = syms

    def _infer_attr_types(self, syms: ModuleSymbols, cls: ClassInfo) -> None:
        """Populate ``cls.attr_types`` from annotations and __init__."""
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                resolved = self.resolve_class_annotation(syms.module.name, stmt.annotation)
                if resolved is not None:
                    cls.attr_types[stmt.target.id] = resolved
        init = cls.methods.get("__init__")
        if init is None:
            return
        param_types = self.parameter_types(init)
        for node in init.nodes:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                resolved: Optional[str] = None
                if isinstance(node, ast.AnnAssign):
                    resolved = self.resolve_class_annotation(
                        syms.module.name, node.annotation
                    )
                if resolved is None and value is not None:
                    resolved = self._value_type(syms.module.name, value, param_types)
                if resolved is not None:
                    cls.attr_types.setdefault(target.attr, resolved)

    # -- resolution -----------------------------------------------------

    def resolve_name(self, module: str, name: str) -> Optional[str]:
        """What fully qualified target a bare name means in ``module``."""
        syms = self.modules.get(module)
        if syms is None:
            return None
        if name in syms.imports:
            return syms.imports[name]
        if name in syms.functions:
            return syms.functions[name].qualname
        if name in syms.classes:
            return syms.classes[name].qualname
        if name in syms.global_assigns:
            return f"{module}.{name}"
        return None

    def resolve_dotted(self, module: str, expr: ast.expr) -> Optional[str]:
        """Resolve an attribute chain (``pkg.mod.attr``) to a dotted path."""
        parts: List[str] = []
        cur = expr
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        base = self.resolve_name(module, cur.id)
        if base is None:
            base = cur.id
        return ".".join([base] + list(reversed(parts)))

    def resolve_class_annotation(self, module: str, ann: Optional[ast.expr]) -> Optional[str]:
        """Annotation → qualname of a *program* class, else None."""
        name = _annotation_name(ann)
        if name is None:
            return None
        if "." in name:
            head, rest = name.split(".", 1)
            base = self.resolve_name(module, head)
            candidate = f"{base}.{rest}" if base else name
        else:
            candidate = self.resolve_name(module, name) or name
        return candidate if candidate in self.classes else None

    def lookup_method(self, class_qualname: str, method: str) -> Optional[FunctionInfo]:
        """Find ``method`` on a class or (program-resolvable) bases."""
        seen = set()
        stack = [class_qualname]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            for base in cls.base_names:
                resolved = self.resolve_class_annotation(
                    cls.module, ast.Name(id=base, ctx=ast.Load())
                )
                if resolved is None and "." not in base:
                    maybe = self.resolve_name(cls.module, base)
                    resolved = maybe if maybe in self.classes else None
                if resolved is not None:
                    stack.append(resolved)
        return None

    # -- lightweight typing --------------------------------------------

    def parameter_types(self, func: FunctionInfo) -> Dict[str, str]:
        """Parameter name → class qualname, from annotations (+ self)."""
        types: Dict[str, str] = {}
        args = func.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            resolved = self.resolve_class_annotation(func.module, arg.annotation)
            if resolved is not None:
                types[arg.arg] = resolved
        if func.class_name is not None:
            positional = list(args.posonlyargs) + list(args.args)
            if positional and positional[0].arg in ("self", "cls"):
                types[positional[0].arg] = f"{func.module}.{func.class_name}"
        return types

    def _value_type(
        self,
        module: str,
        value: ast.expr,
        env: Dict[str, str],
    ) -> Optional[str]:
        """Type of an expression under ``env``: constructor calls,
        annotated-return calls, plain name copies, self-attr reads."""
        if isinstance(value, ast.Name):
            return env.get(value.id)
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            owner = env.get(value.value.id)
            if owner is not None:
                cls = self.classes.get(owner)
                if cls is not None and value.attr in cls.attr_types:
                    return cls.attr_types[value.attr]
            return None
        if isinstance(value, ast.Call):
            target = self.resolve_call_target(module, value.func, env)
            if target is None:
                return None
            kind, qualname = target
            if kind == "class":
                return qualname
            func = self.functions.get(qualname)
            if func is not None:
                return self.resolve_class_annotation(func.module, func.node.returns)
        return None

    def local_types(self, func: FunctionInfo) -> Dict[str, str]:
        """Name → class qualname for ``func``'s parameters and locals.

        Iterates assignment propagation to a small fixpoint so chains
        like ``a = RandomStreams(s); b = a`` resolve.  Computed once per
        function; callers must not mutate the result.
        """
        cached = self._local_types.get(func.qualname)
        if cached is not None:
            return cached
        env = self.parameter_types(func)
        for _ in range(3):  # bounded: local chains are short
            changed = False
            for node in func.nodes:
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                resolved: Optional[str] = None
                if isinstance(node, ast.AnnAssign):
                    resolved = self.resolve_class_annotation(func.module, node.annotation)
                if resolved is None and value is not None:
                    resolved = self._value_type(func.module, value, env)
                if resolved is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and env.get(target.id) != resolved:
                        env[target.id] = resolved
                        changed = True
            if not changed:
                break
        self._local_types[func.qualname] = env
        return env

    def resolve_call_target(
        self,
        module: str,
        func_expr: ast.expr,
        env: Optional[Dict[str, str]] = None,
    ) -> Optional[Tuple[str, str]]:
        """Resolve a call's function expression.

        Returns ``("func", qualname)`` for a program function/method,
        ``("class", qualname)`` for a program class constructor, or
        None for anything outside the program (stdlib, unresolvable).
        """
        env = env or {}
        if isinstance(func_expr, ast.Name):
            target = self.resolve_name(module, func_expr.id)
            if target is None:
                return None
            if target in self.classes:
                return ("class", target)
            if target in self.functions:
                return ("func", target)
            return None
        if isinstance(func_expr, ast.Attribute):
            # obj.method(...) where obj's class is known
            receiver_type = self._value_type(module, func_expr.value, env)
            if receiver_type is None and isinstance(func_expr.value, ast.Name):
                receiver_type = env.get(func_expr.value.id)
            if receiver_type is not None:
                method = self.lookup_method(receiver_type, func_expr.attr)
                if method is not None:
                    return ("func", method.qualname)
                return None
            # pkg.mod.func(...) through an import
            dotted = self.resolve_dotted(module, func_expr)
            if dotted is None:
                return None
            if dotted in self.classes:
                return ("class", dotted)
            if dotted in self.functions:
                return ("func", dotted)
            return None
        return None
