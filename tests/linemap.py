"""Line map of Tier-1: the lines of ``src/rnp`` that the test suite never runs.

Runs the Tier-1 suite in this process under a standard-library line tracer
(``sys.settrace``, restricted to ``src/rnp``), then prints each executable
line no test ran.  Every such line must be listed in ``linemap_allowlist.txt``
next to this script, one entry per line with its reason::

    src/rnp/<file>.py | <the line's source, stripped> | <why no test runs it>

Entries name the source text, not the line number, so an edit elsewhere in
a file does not touch them.  Exits 1 when the unrun lines differ from the
allowlist (both differences are printed), else 0; the suite's own failures
do not count.  The tracer roughly doubles the suite's time, so it is not
part of Tier-1.  Run from anywhere::

    python tests/linemap.py
"""

from __future__ import annotations

import collections
import dis
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rnp"
ALLOWLIST = Path(__file__).resolve().parent / "linemap_allowlist.txt"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that start bytecode in the file's code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def run_suite() -> dict[str, set[int]]:
    """Run Tier-1 under the tracer; the lines of ``src/rnp`` it ran, per file."""
    import pytest

    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    threading.settrace(scope)
    sys.settrace(scope)
    try:
        pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def read_allowlist() -> collections.Counter:
    allowed: collections.Counter = collections.Counter()
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        path, rest = line.split(" | ", 1)
        source, reason = rest.rsplit(" | ", 1)
        if not reason.strip():
            sys.exit(f"{ALLOWLIST.name}:{number}: entry gives no reason")
        allowed[(path.strip(), source.strip())] += 1
    return allowed


def main() -> int:
    if any(name == "rnp" or name.startswith("rnp.") for name in sys.modules):
        sys.exit("rnp is already imported; its import-time lines would not be traced")
    ran = run_suite()
    unrun: collections.Counter = collections.Counter()
    n_lines = 0
    print("\nlines of src/rnp that Tier-1 does not run:")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        n_lines += len(lines)
        rel = path.relative_to(ROOT).as_posix()
        for number in sorted(lines - ran[str(path)]):
            source = text[number - 1].strip()
            print(f"{rel}:{number}: {source}")
            unrun[(rel, source)] += 1
    print(f"{sum(unrun.values())} of {n_lines} executable lines not run")

    allowed = read_allowlist()
    ok = True
    for title, extra in (
        ("not run and not in the allowlist", unrun - allowed),
        ("in the allowlist but run (or gone)", allowed - unrun),
    ):
        if extra:
            ok = False
            print(f"\n{title}:")
            for (rel, source), count in sorted(extra.items()):
                print(f"{rel} | {source}" + (f"  (x{count})" if count > 1 else ""))
    print("\nline map matches the allowlist" if ok else "\nline map differs from the allowlist")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
