"""No definition in ``src/repro`` stays alive only because a test calls it.

Every function and class defined under ``src/repro`` must be named
somewhere outside its own definition in the code that runs: ``src``
(package ``__init__`` re-exports left out), ``scripts``, ``benchmarks``,
``perfbench`` or ``examples``.  A method counts as used where it is read
as an attribute (``obj.name``); a module-level function or class also
where it is read as a bare name or imported.  Either counts where it is
written as an identifier-shaped string (``getattr`` targets,
perfbench's hook tables); strings listed in a module's ``__all__`` are
re-exports and do not count.  Matching is by name, not by binding, so
the check errs towards calling a name used.

Skipped: dunder methods (the interpreter calls them) and classes
decorated with ``@register`` together with their methods (the lint
registry instantiates every rule).
"""

import ast
import functools
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
USER_DIRS = ("src", "scripts", "benchmarks", "perfbench", "examples")

# Entry points that only a test reaches by design, each with its reason.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("lint/engine.py", "lint_source"): (
        "the lint engine's entry point for checking a source string, "
        "which is what the rule tests feed in"
    ),
    ("lint/base.py", "get_rule"): (
        "looks one registered rule up by id, the way the rule tests "
        "check a single rule in isolation"
    ),
}


def _python_files(root: Path) -> Iterator[Path]:
    for name in USER_DIRS:
        base = root / name
        if base.is_dir():
            yield from sorted(base.rglob("*.py"))


def _is_identifier_string(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    )


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.lru_cache(maxsize=None)
def used_names(root: Path) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(attribute names, other names)`` read, imported or spelled as a
    string outside tests; a string counts in both."""
    attributes: Set[str] = set()
    names: Set[str] = set()
    for path in _python_files(root):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        exported: Set[int] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in stmt.targets
            ):
                exported.update(id(item) for item in ast.walk(stmt.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif _is_identifier_string(node) and id(node) not in exported:
                attributes.add(node.value)
    return frozenset(attributes), frozenset(names | attributes)


def _registered(node: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "register" for dec in node.decorator_list
    )


def _definitions(tree: ast.AST) -> Iterator[Tuple[ast.AST, bool]]:
    """``(definition, is_method)`` for each function and class,
    leaving out registered classes."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and _registered(child):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield child, isinstance(node, ast.ClassDef)
            stack.append(child)


def unreferenced_definitions(root: Path) -> List[Tuple[str, str, int]]:
    """``(module path, name, line)`` for each definition no user code names."""
    attributes, names = used_names(root)
    src = root / "src" / "repro"
    found = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for node, is_method in _definitions(_parse(path)):
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            used = attributes if is_method else names
            if dunder or name in used or (rel, name) in ALLOWED:
                continue
            found.append((rel, name, node.lineno))
    return sorted(found)


def test_every_definition_is_reached_outside_tests():
    found = unreferenced_definitions(REPO_ROOT)
    listing = "\n".join(f"  src/repro/{rel}:{line}: {name}" for rel, name, line in found)
    assert not found, (
        "defined in src/repro but named only by tests (delete it, or move it "
        f"into the test that uses it as an oracle):\n{listing}"
    )


def test_allowlist_entries_still_exist_and_are_still_test_only():
    """A stale allowlist entry would hide nothing; keep the list exact."""
    _, names = used_names(REPO_ROOT)
    for (rel, name), reason in ALLOWED.items():
        assert reason
        tree = _parse(SRC_REPRO / rel)
        assert name in {node.name for node, _ in _definitions(tree)}, (rel, name)
        assert name not in names, f"{rel}::{name} is used outside tests; unlist it"
