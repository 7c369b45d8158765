#!/usr/bin/env python
"""Fail when the `repro` package contains an import cycle.

The engine decomposition's layering rule: `repro.tcp` must not import
from `repro.sttcp` or `repro.obs` (protocol variants plug into the core,
never the other way around), and the module graph as a whole must stay
acyclic.  Pure stdlib — AST-walks every module under src/repro, records
intra-package imports, and runs Tarjan's SCC to find cycles.

Imports made only under ``typing.TYPE_CHECKING`` are ignored: they are
erased at runtime and exist exactly so the type layer can reference the
facade without creating a real cycle.

A vocabulary rule backs the import rule: no line of `repro.tcp` mentions
a backup, a shadow or ST-TCP by package name, so the core is described
in generic connection-repair terms.

Usage::

    python tools/check_import_cycles.py [--root src/repro]
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

#: Core packages and the packages they must never (transitively) import.
#: The cluster fabric sits strictly above the engines: `repro.cluster`
#: may import `repro.sttcp`/`repro.tcp`, never the reverse.
LAYERING_RULES = {
    "repro.tcp": (
        "repro.sttcp",
        "repro.obs",
        "repro.drill",
        "repro.harness",
        "repro.cluster",
    ),
    "repro.sttcp": ("repro.cluster",),
    "repro.sim": ("repro.tcp", "repro.sttcp", "repro.net"),
    # The observability layer consumes run *records* (plain dicts), never
    # live fabric objects: the grader reads scenario budgets out of
    # record["invariants"] precisely so this edge stays absent.
    "repro.obs": ("repro.cluster", "repro.harness", "repro.drill"),
}

#: Words `repro.tcp` leaves to the packages built on it.
TCP_VOCABULARY = re.compile(r"backup|shadow|sttcp", re.IGNORECASE)


def module_name(path: Path, root: Path) -> str:
    relative = path.relative_to(root.parent)
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return (
        isinstance(test, ast.Attribute)
        and test.attr == "TYPE_CHECKING"
        and isinstance(test.value, ast.Name)
        and test.value.id == "typing"
    )


def iter_runtime_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Yield imports executed at module-import time.

    Skips ``if TYPE_CHECKING:`` bodies (erased at runtime) and function
    bodies (lazy imports are the sanctioned way to break a cycle); class
    bodies and try/if blocks do run at import time and are walked.
    """
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking_test(node.test):
            stack.extend(node.orelse)
        elif hasattr(node, "body"):
            for field in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field, []):
                    if isinstance(child, ast.ExceptHandler):
                        stack.extend(child.body)
                    elif isinstance(child, ast.stmt):
                        stack.append(child)


def build_graph(root: Path) -> Dict[str, Set[str]]:
    modules = {module_name(p, root): p for p in root.rglob("*.py")}
    graph: Dict[str, Set[str]] = {name: set() for name in modules}
    for name, path in modules.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in iter_runtime_imports(tree):
            targets = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                targets = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            for target in targets:
                if target in graph:
                    graph[name].add(target)
                    break
    return graph


def strongly_connected_components(graph: Dict[str, Set[str]]) -> List[List[str]]:
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def visit(node: str) -> None:
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(graph[node]):
            if succ not in index:
                visit(succ)
                lowlink[node] = min(lowlink[node], lowlink[succ])
            elif succ in on_stack:
                lowlink[node] = min(lowlink[node], index[succ])
        if lowlink[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                sccs.append(sorted(component))

    sys.setrecursionlimit(10_000)
    for node in sorted(graph):
        if node not in index:
            visit(node)
    return sccs


def layering_violations(graph: Dict[str, Set[str]]) -> List[Tuple[str, str]]:
    violations = []
    for module, imports in sorted(graph.items()):
        for layer, forbidden in LAYERING_RULES.items():
            if module == layer or module.startswith(layer + "."):
                for target in sorted(imports):
                    if any(
                        target == banned or target.startswith(banned + ".")
                        for banned in forbidden
                    ):
                        violations.append((module, target))
    return violations


def vocabulary_violations(root: Path) -> List[str]:
    """``file:line: text`` for every line of the TCP core that names what
    is built on it (:data:`TCP_VOCABULARY`)."""
    hits = []
    for path in sorted((root / "tcp").rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if TCP_VOCABULARY.search(line):
                hits.append(f"{path}:{lineno}: {line.strip()}")
    return hits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default="src/repro", type=Path)
    args = parser.parse_args()
    graph = build_graph(args.root)
    failed = False
    for cycle in strongly_connected_components(graph):
        failed = True
        print(f"import cycle: {' -> '.join(cycle)}")
    for module, target in layering_violations(graph):
        failed = True
        print(f"layering violation: {module} imports {target}")
    for hit in vocabulary_violations(args.root):
        failed = True
        print(f"vocabulary violation: {hit}")
    if failed:
        return 1
    print(f"ok: {len(graph)} modules, no import cycles, layering and vocabulary respected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
