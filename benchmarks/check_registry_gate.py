#!/usr/bin/env python
"""CI gate: packet schedulers are resolved through the registry only.

Concrete policy classes (``MinRttScheduler`` and friends) are
constructed only by the registry's
:func:`~repro.core.registry.make_scheduler`; call sites name schedulers
by string.  This script greps the package for constructions and
imports of those classes outside ``core/`` (and outside the modules
that define/re-export them) and exits non-zero when it finds any, with
a ruff-style ``path:line:`` report.  It runs in the CI lint job next to
``ruff check``.  (The algorithm axis needs no such rule: the registry's
``make_*`` functions are the only name→algorithm lookups that exist.)

Usage::

    python benchmarks/check_registry_gate.py [SRC_DIR]

``SRC_DIR`` defaults to the repo's ``src/repro``; passing a directory
makes the gate testable against synthetic trees.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import List, Tuple

#: Concrete packet-scheduler policy classes: constructing (or
#: importing) one outside core/ bypasses ``make_scheduler`` and with it
#: alias resolution and parameter validation.  The abstract
#: ``PacketScheduler`` base stays importable everywhere — type
#: annotations and ``isinstance`` checks are not dispatch.
_SCHEDULER_CLASSES = (r"MinRttScheduler|RoundRobinScheduler|"
                      r"RedundantScheduler|QueueAwareScheduler")
SCHEDULER_BANNED_CALLS = re.compile(
    rf"\b({_SCHEDULER_CLASSES})\s*\(")
SCHEDULER_BANNED_IMPORTS = re.compile(
    r"from\s+\S*(?:\bpacket_scheduler\b|\bsim\b)\S*\s+import\s*"
    r"(?:\(([^)]*)\)|([^\n]+))", re.S)
_SCHEDULER_NAMES = re.compile(rf"\b({_SCHEDULER_CLASSES})\b")

#: Modules allowed to name the concrete scheduler classes: the registry
#: (its factory table), the defining module, and the sim package
#: __init__ that re-exports them.
SCHEDULER_ALLOWED = ("core/", "sim/packet_scheduler.py",
                     "sim/__init__.py")


def _scan_file(path, text):
    """Scheduler-dispatch violations in one file's text."""
    violations = []
    flagged_lines = set()
    # Text-level import scan: parenthesized imports span lines.
    for match in SCHEDULER_BANNED_IMPORTS.finditer(text):
        imported = match.group(1) or match.group(2)
        if _SCHEDULER_NAMES.search(imported):
            flagged_lines.add(text.count("\n", 0, match.start()) + 1)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped.startswith("#"):
            continue
        if SCHEDULER_BANNED_CALLS.search(line) or lineno in flagged_lines:
            violations.append((path, lineno, stripped))
            flagged_lines.discard(lineno)
    for lineno in sorted(flagged_lines):   # import on a comment line
        violations.append((path, lineno,
                           text.splitlines()[lineno - 1].lstrip()))
    return sorted(violations, key=lambda hit: hit[1])


def scan(src: pathlib.Path) -> List[Tuple[pathlib.Path, int, str]]:
    """All banned call sites under ``src`` as (path, line, text)."""
    violations = []
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        if any(relative == entry or relative.startswith(entry)
               for entry in SCHEDULER_ALLOWED):
            continue
        violations.extend(_scan_file(path, path.read_text()))
    return violations


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: check_registry_gate.py [SRC_DIR]", file=sys.stderr)
        return 2
    src = pathlib.Path(argv[0]) if argv else \
        pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    if not src.is_dir():
        print(f"no such source directory: {src}", file=sys.stderr)
        return 2
    violations = scan(src)
    for path, lineno, text in violations:
        print(f"{path}:{lineno}: scheduler dispatch outside core/ — "
              f"resolve through repro.core.registry.make_scheduler "
              f"instead: {text}", file=sys.stderr)
    if violations:
        print(f"FAIL registry gate: {len(violations)} out-of-registry "
              "scheduler dispatch site(s); make_scheduler is the single "
              "dispatch path", file=sys.stderr)
        return 1
    print(f"registry gate OK: no out-of-registry scheduler dispatch "
          f"outside core/ in {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
