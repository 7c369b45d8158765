"""Which functions under ``src/repro`` does tier-1 never enter?

Runs the tier-1 suite in this process under ``sys.settrace`` — call
events only: the tracer returns None, so no frame is traced line by line
— and records every code object that starts running.  Every function
defined under ``src/repro`` is then looked up by (file, first line,
qualified name); class bodies, lambdas, comprehensions and ``__repr__``
are left out.  A function never entered is *new* unless
``tools/call_census_allowlist.txt`` names it, one ``module:qualname`` and
its reason per line.

Exit status: 0 when every never-entered function is allowlisted, 1 when
one is not or when an allowlist entry names a function that no longer
exists (each is printed), 2 when the suite itself failed under the
tracer.  An allowlisted function that tier-1 now enters is reported, so
the list can shrink, but does not fail the run: the randomised
properties may enter it one run and not the next.
``tests/test_call_census.py`` checks the allowlist against the source in
tier-1, so a deleted function's entry is caught without the traced run.

Usage (from the repo root, ~10x tier-1's time)::

    PYTHONPATH=src python tools/call_census.py [pytest args ...]

Code that only runs in a child process (``--jobs N`` workers, a CLI run
through ``subprocess``) is invisible to the tracer; the allowlist says so
where it matters.
"""

from __future__ import annotations

import os
import sys
import threading
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "repro")
ALLOWLIST = os.path.join(ROOT, "tools", "call_census_allowlist.txt")

#: Code objects that are not functions a caller enters by name.
_SKIPPED_NAMES = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>", "__repr__"}
_CO_OPTIMIZED = 0x0001  # set on function bodies, clear on module and class bodies

Key = Tuple[str, int, str]


def _functions(code: CodeType) -> Iterator[CodeType]:
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & _CO_OPTIMIZED and const.co_name not in _SKIPPED_NAMES:
                yield const
            yield from _functions(const)


def defined_functions() -> Dict[Key, str]:
    """(real path, first line, qualname) -> ``module:qualname`` of every
    function under ``src/repro``."""
    found: Dict[Key, str] = {}
    for directory, _, files in os.walk(SOURCE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(directory, name))
            with open(path, encoding="utf-8") as handle:
                module = compile(handle.read(), path, "exec")
            label = os.path.relpath(path, os.path.dirname(SOURCE)).replace(os.sep, "/")
            for function in _functions(module):
                found[(path, function.co_firstlineno, function.co_qualname)] = (
                    f"{label}:{function.co_qualname}"
                )
    return found


def read_allowlist() -> Dict[str, str]:
    """``module:qualname`` -> reason, from the committed allowlist."""
    allowed: Dict[str, str] = {}
    with open(ALLOWLIST, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition(" ")
            if not reason.strip():
                raise SystemExit(f"{ALLOWLIST}: no reason given for {name}")
            allowed[name] = reason.strip()
    return allowed


def run_traced(pytest_args: List[str]) -> Tuple[int, Set[Key]]:
    """Run pytest under the call tracer; its exit code and what it entered."""
    import pytest

    entered: Dict[int, CodeType] = {}

    def tracer(frame, event, arg):  # type: ignore[no-untyped-def]
        code = frame.f_code
        entered[id(code)] = code
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    keys = {
        (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname)
        for code in entered.values()
    }
    return int(status), keys


def main(argv: List[str]) -> int:
    status, entered = run_traced(argv or ["-x", "-q", "-p", "no:cacheprovider"])
    if status != 0:
        print(f"tier-1 failed under the tracer (pytest exit {status}): no census")
        return 2
    defined = defined_functions()
    never = sorted(label for key, label in defined.items() if key not in entered)
    allowed = read_allowlist()
    new = [label for label in never if label not in allowed]
    missing = sorted(set(allowed) - set(defined.values()))
    entered_now = sorted(set(allowed) - set(never) - set(missing))
    print(f"{len(defined)} functions under src/repro; tier-1 never enters {len(never)}"
          f" ({len(never) - len(new)} allowlisted)")
    for label in entered_now:
        print(f"  entered now, can leave the allowlist: {label}")
    for label in missing:
        print(f"  ALLOWLISTED BUT NOT DEFINED, remove the entry: {label}")
    for label in new:
        print(f"  NEVER ENTERED, not allowlisted: {label}")
    return 1 if new or missing else 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)  # the suite imports tools.crash_silence
    os.chdir(ROOT)
    raise SystemExit(main(sys.argv[1:]))
