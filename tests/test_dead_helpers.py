"""Every private module-level function in the package is used.

A module-level `def _name` in src/clinelab must be read somewhere in the
package outside its own body: called, passed, aliased or imported.  A
mention in a comment or docstring does not count, and neither do tests or
perfbench, so a helper kept alive only by them fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "clinelab"


def _private_defs_and_uses(src):
    defs, uses = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if owner.startswith("_") and not owner.startswith("__"):
                    defs.append((path.name, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    uses.add(name)
    return defs, uses


def test_no_private_function_is_dead():
    defs, uses = _private_defs_and_uses(SRC)
    assert defs
    dead = [f"{module}:{name}" for module, name in defs if name not in uses]
    assert dead == []
