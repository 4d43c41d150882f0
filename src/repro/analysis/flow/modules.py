"""Module discovery and parsing for the flow analyzer.

The analyzer is whole-program: it parses every module under the given
paths exactly once, names each one by walking up the ``__init__.py``
chain (so ``src/repro/balance/linux.py`` becomes
``repro.balance.linux`` no matter where the tree sits on disk), and
hands the resulting index to the call-graph builder.  Discovery order
is sorted -- the analyzer itself must satisfy SIM006.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.analysis.driver import iter_files

__all__ = ["SourceModule", "ModuleIndex", "module_name_for", "load_modules"]


@dataclass
class SourceModule:
    """One parsed source file."""

    name: str  # dotted module name, e.g. "repro.balance.linux"
    path: Path
    source: str
    tree: ast.Module
    lines: tuple[str, ...] = field(default_factory=tuple)

    @property
    def dir_parts(self) -> tuple[str, ...]:
        """Directory components of the path (scope checks key off these)."""
        return self.path.parts[:-1]

    def in_dirs(self, names: frozenset[str]) -> bool:
        """Is the module inside any directory named in ``names``?"""
        return bool(names.intersection(self.dir_parts))


def module_name_for(path: Path) -> str:
    """Dotted module name from the ``__init__.py`` chain above ``path``.

    A file outside any package keeps its bare stem, so single-file
    fixtures still analyze.
    """
    path = path.resolve()
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    d = path.parent
    while (d / "__init__.py").exists():
        parts.insert(0, d.name)
        parent = d.parent
        if parent == d:  # filesystem root; defensive
            break
        d = parent
    return ".".join(parts) or path.stem


class ModuleIndex:
    """Name -> parsed module, plus the parse failures as findings fuel."""

    def __init__(self) -> None:
        self.modules: dict[str, SourceModule] = {}
        #: (path, lineno, col, message) per unparseable file
        self.errors: list[tuple[str, int, int, str]] = []

    def add(self, module: SourceModule) -> None:
        self.modules[module.name] = module

    def get(self, name: str) -> Optional[SourceModule]:
        return self.modules.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.modules

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)


def load_modules(paths: Iterable[str | Path]) -> ModuleIndex:
    """Parse every ``*.py`` under ``paths`` into a :class:`ModuleIndex`."""
    index = ModuleIndex()
    for f in iter_files(paths):
        source = f.read_text()
        try:
            tree = ast.parse(source, filename=str(f))
        except SyntaxError as exc:
            index.errors.append(
                (str(f), exc.lineno or 1, (exc.offset or 0) + 1, f"syntax error: {exc.msg}")
            )
            continue
        index.add(
            SourceModule(
                name=module_name_for(f),
                path=f,
                source=source,
                tree=tree,
                lines=tuple(source.splitlines()),
            )
        )
    return index
