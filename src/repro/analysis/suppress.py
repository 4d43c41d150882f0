"""Shared suppression-comment and allowlist conventions.

All three static analyzers -- the per-file determinism linter
(:mod:`repro.analysis.lint`, SIM rules), the whole-program flow
analyzer (:mod:`repro.analysis.flow`, FLOW rules) and the
compiled-kernel readiness analyzer (:mod:`repro.analysis.kernel`,
KERN rules) -- honour the same two escape hatches, parsed here and
applied by the one filter in :mod:`repro.analysis.driver`, so a
suppression written for one tool reads identically to the others:

* **line suppressions** -- a trailing comment on the offending line::

      for cid in candidate_set:  # sim-lint: ignore[SIM001]
      t = helper(now)            # sim-lint: ignore[FLOW001, SIM004]
      cb = lambda: oce(gen)      # sim-lint: ignore[KERN005]

  The bracket list takes any number of comma-separated rule ids, and
  may freely mix SIM, FLOW and KERN ids (each tool only acts on the
  ids it owns and ignores the rest).  A bare ``# sim-lint: ignore``
  suppresses every rule on the line; ``# sim-lint: skip-file``
  anywhere in a file skips the whole file.

* **allowlists** -- a plain-text file of ``RULE  path-glob`` pairs
  (fnmatch against the POSIX form of the file path) that silences one
  rule for whole files.  Each tool ships its own default file next to
  its module (``lint_allowlist.txt`` / ``flow_allowlist.txt`` /
  ``kernel_allowlist.txt``) but the format and matching are identical.
"""

from __future__ import annotations

import fnmatch
from pathlib import Path
from typing import AbstractSet, Optional, Sequence

__all__ = [
    "MARKER",
    "suppressed_rules",
    "is_suppressed",
    "has_skip_file",
    "load_allowlist",
    "allowlisted",
]

#: the comment marker all three analyzers share
MARKER = "sim-lint:"


def suppressed_rules(line: str) -> Optional[frozenset[str]]:
    """Rules suppressed by a ``# sim-lint: ignore[...]`` trailing comment.

    Returns ``None`` when the line carries no suppression; an empty set
    means "suppress everything" (bare ``ignore``).  The bracket form
    accepts any number of comma-separated rule ids, mixing catalogues
    freely: ``# sim-lint: ignore[SIM004, FLOW001]``.
    """
    idx = line.find(MARKER)
    if idx < 0 or "#" not in line[:idx]:
        return None
    rest = line[idx + len(MARKER) :].strip()
    if not rest.startswith("ignore"):
        return None
    rest = rest[len("ignore") :].strip()
    if rest.startswith("["):
        end = rest.find("]")
        if end < 0:
            return None
        return frozenset(r.strip() for r in rest[1:end].split(",") if r.strip())
    return frozenset()  # bare ignore: all rules


def is_suppressed(rule: str, line_no: int, lines: Sequence[str]) -> bool:
    """Is ``rule`` suppressed on 1-indexed ``line_no`` of ``lines``?"""
    if not 1 <= line_no <= len(lines):
        return False
    rules = suppressed_rules(lines[line_no - 1])
    if rules is None:
        return False
    return not rules or rule in rules


def has_skip_file(source: str) -> bool:
    """Does the source carry a ``# sim-lint: skip-file`` marker?"""
    return f"{MARKER} skip-file" in source


# ----------------------------------------------------------------------
# allowlists
# ----------------------------------------------------------------------
def load_allowlist(
    path: Path, known_rules: AbstractSet[str]
) -> list[tuple[str, str]]:
    """Parse ``RULE  glob`` lines; ``#`` comments and blanks ignored.

    ``known_rules`` is the catalogue the file may reference -- a line
    naming any other rule id is a configuration error, not a silent
    no-op.
    """
    entries: list[tuple[str, str]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in known_rules:
            raise ValueError(
                f"{path}:{lineno}: expected '<RULE> <path-glob>', got {raw!r}"
            )
        entries.append((parts[0], parts[1]))
    return entries


def allowlisted(
    rule: str, path: str | Path, allowlist: Sequence[tuple[str, str]]
) -> bool:
    """Does any ``(rule, glob)`` entry sanction ``rule`` for ``path``?

    Globs match the POSIX form of the path, either in full or as a
    suffix anchored at a directory boundary (``repro/sim/rng.py``
    matches ``src/repro/sim/rng.py``).
    """
    posix = Path(path).as_posix()
    for entry_rule, pattern in allowlist:
        if entry_rule != rule:
            continue
        if fnmatch.fnmatch(posix, pattern) or fnmatch.fnmatch(posix, "*/" + pattern):
            return True
    return False
