"""A ratchet on code that no experiment runs: ``src/specpair`` holds only what one does.

A conservative name-based call graph starts at ``cli.run``, ``cli.main``
and ``cli._EXPERIMENTS``.  A ``Name`` or ``Attribute`` whose name matches
a definition (a function, class, method or module-level assignment, in any
module) reaches every definition of that name, and a reached class brings
its field defaults and its dunder methods.  Every top-level function,
class and method must be reached, except those on the reviewed
``ALLOWED`` list.
"""

import ast
from pathlib import Path

import specpair

SRC = Path(specpair.__file__).parent
ROOTS = ("cli.run", "cli.main", "cli._EXPERIMENTS")
# perfbench traces count_below by name, and tests use it as the Sturm reference
ALLOWED = ["eigensolve._sturm_count", "eigensolve.count_below"]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions() -> tuple[dict, set]:
    """(qualified name -> (short name, AST nodes its use runs), the names that must be reached)."""
    defs, checked = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                defs[f"{path.stem}.{stmt.name}"] = (stmt.name, [stmt])
                checked.add(f"{path.stem}.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{path.stem}.{stmt.name}"
                methods = [s for s in stmt.body if isinstance(s, ast.FunctionDef)
                           and not _is_dunder(s.name)]
                for m in methods:
                    defs[f"{qual}.{m.name}"] = (m.name, [m])
                    checked.add(f"{qual}.{m.name}")
                rest = [s for s in stmt.body if s not in methods]
                defs[qual] = (stmt.name, stmt.decorator_list + stmt.bases + rest)
                checked.add(qual)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            defs[f"{path.stem}.{node.id}"] = (node.id, [stmt.value])
    return defs, checked


def _reached(defs: dict) -> set:
    by_name: dict[str, list[str]] = {}
    for qual, (name, _) in defs.items():
        by_name.setdefault(name, []).append(qual)
    reached, todo = set(ROOTS), list(ROOTS)
    while todo:
        for tree in defs[todo.pop()][1]:
            for node in ast.walk(tree):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                for qual in by_name.get(name, ()):
                    if qual not in reached:
                        reached.add(qual)
                        todo.append(qual)
    return reached


def test_every_definition_is_reached_from_an_experiment():
    defs, checked = _definitions()
    assert set(ROOTS) <= set(defs)
    assert sorted(checked - _reached(defs)) == ALLOWED
