"""Whole-program loading: the one parse every lint run starts from.

:func:`load_program` walks the same file set as
:func:`repro.lint.walker.discover_files`, parses every module exactly
once into a :class:`~repro.lint.walker.FileContext` (which carries its
suppression comments and component), and assigns each file its dotted
module name.  The per-file rules read those contexts one at a time; the
program rules (SF001-SF004) follow values across module boundaries
through the whole :class:`Program`.

Module naming: inside an importable tree the name is anchored at the
last ``repro`` directory (``src/repro/db/server.py`` →
``repro.db.server``); fixture trees without a ``repro`` anchor fall
back to the path relative to the scanned root, so tests can lay out
miniature programs in a temp directory.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.lint.walker import FileContext, discover_files


@dataclasses.dataclass
class ModuleFile:
    """One parsed module of the program under analysis."""

    name: str  # dotted module name, e.g. "repro.db.server"
    ctx: FileContext

    @property
    def component(self) -> Optional[str]:
        """Top-level subpackage (``db``, ``sim``, ...) or None."""
        return self.ctx.component

    @property
    def path(self) -> Path:
        return self.ctx.path


@dataclasses.dataclass
class Program:
    """Every module of the analyzed tree, keyed by dotted name."""

    modules: Dict[str, ModuleFile]

    def __iter__(self) -> "Iterable[ModuleFile]":  # pragma: no cover - trivial
        return iter(self.modules.values())

    def sorted_modules(self) -> List[ModuleFile]:
        """Modules in deterministic (name) order."""
        return [self.modules[name] for name in sorted(self.modules)]

    def get(self, name: str) -> Optional[ModuleFile]:
        return self.modules.get(name)


def module_name_for(path: Path, root: Optional[Path] = None) -> str:
    """The dotted module name for ``path``.

    Anchored at the last ``repro`` path part when one exists; otherwise
    relative to ``root`` (or just the file stem as a last resort).
    """
    parts = list(path.parts)
    stem_parts: List[str]
    if "repro" in parts[:-1]:
        idx = len(parts) - 1 - list(reversed(parts)).index("repro")
        stem_parts = parts[idx:]
    elif root is not None:
        try:
            stem_parts = list(path.relative_to(root).parts)
        except ValueError:
            stem_parts = [path.name]
    else:
        stem_parts = [path.name]
    if stem_parts and stem_parts[-1].endswith(".py"):
        stem_parts[-1] = stem_parts[-1][: -len(".py")]
    if stem_parts and stem_parts[-1] == "__init__":
        stem_parts = stem_parts[:-1]
    if not stem_parts:
        return path.stem
    return ".".join(stem_parts)


def load_program(paths: Iterable[Path]) -> Program:
    """Parse every ``.py`` file under ``paths`` into a :class:`Program`.

    Raises :class:`repro.lint.walker.LintError` on a missing path or an
    unreadable or unparsable file.
    """
    modules: Dict[str, ModuleFile] = {}
    path_list = [Path(p) for p in paths]
    roots = [p if p.is_dir() else p.parent for p in path_list]
    for file_path in discover_files(path_list):
        root = next((r for r in roots if r in file_path.parents or r == file_path.parent), None)
        ctx = FileContext.from_path(file_path)
        name = module_name_for(file_path, root=root)
        # Two files mapping to one dotted name (e.g. scanning two copies
        # of a tree) keep the first occurrence; discovery order is
        # sorted, so the choice is deterministic.
        if name not in modules:
            modules[name] = ModuleFile(name=name, ctx=ctx)
    return Program(modules=modules)
