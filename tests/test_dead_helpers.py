"""Every private function and private method in the package is used.

A module-level `def _name`, or a `def _name` (not a dunder) in the body of
a module-level class, in src/clinelab must be read somewhere in the
package outside its own body: called, passed, aliased or imported.  A
mention in a comment or docstring does not count, and neither do tests or
perfbench, so a helper kept alive only by them fails here.  Reads go by
name, so a method read on any object (`ctx._product`) keeps every method
of that name alive.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "clinelab"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _read_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _collect_uses(node, enclosing, uses):
    """Add to uses every name read under node, except inside the body of a
    def of the same name."""
    for child in ast.iter_child_nodes(node):
        name = _read_name(child)
        if name is not None and name not in enclosing:
            uses.add(name)
        inner = enclosing | {child.name} if isinstance(child, _DEFS) else enclosing
        _collect_uses(child, inner, uses)


def _private_defs_and_uses(src):
    defs, uses = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, _DEFS) and _is_private(top.name):
                defs.append((path.name, top.name))
            elif isinstance(top, ast.ClassDef):
                defs += [
                    (path.name, f"{top.name}.{node.name}")
                    for node in top.body
                    if isinstance(node, _DEFS) and _is_private(node.name)
                ]
        _collect_uses(tree, frozenset(), uses)
    return defs, uses


def test_no_private_function_is_dead():
    defs, uses = _private_defs_and_uses(SRC)
    assert any("." in name for _, name in defs)  # methods are checked too
    dead = [
        f"{module}:{name}" for module, name in defs if name.rsplit(".", 1)[-1] not in uses
    ]
    assert dead == []
