"""No gon module holds a value that code assigns after import.

Settings that vary per call live in context variables (see
``exactmath.working_width``), so the source never rebinds a module global and
never assigns an attribute of a module.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import gon

_SRC = Path(gon.__file__).parent


def _module_names(tree: ast.AST, module: ModuleType) -> set:
    # modules bound at import time, plus any that a function imports for itself
    names = {k for k, v in vars(module).items() if isinstance(v, ModuleType)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def _state_writes(tree: ast.AST, modules: set) -> list:
    """(line, text) of each ``global`` statement and each write to a module attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            out.append((node.lineno, "global " + ", ".join(node.names)))
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and node.args):
            targets = [ast.Attribute(value=node.args[0], attr="?", lineno=node.lineno)]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id in modules):
                    out.append((sub.lineno, f"{sub.value.id}.{sub.attr}"))
    return out


def test_no_module_state_is_assigned():
    found = []
    for path in sorted(_SRC.glob("*.py")):
        name = "gon" if path.stem == "__init__" else f"gon.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = _module_names(tree, importlib.import_module(name))
        found += [f"{path.name}:{line}: {text}" for line, text in _state_writes(tree, modules)]
    assert found == []


def test_the_check_sees_module_writes():
    src = (
        "import os\n"
        "from . import exactmath\n"
        "def f():\n"
        "    exactmath.DEFAULT_WIDTH = 1\n"
        "    os.sep += 'x'\n"
        "    setattr(exactmath, 'SURFACE_WIDTH', 2)\n"
        "def g():\n"
        "    global _X\n"
        "    local = object()\n"
        "    local.attr = 3\n"
    )
    writes = _state_writes(ast.parse(src), {"os", "exactmath"})
    assert sorted(line for line, _ in writes) == [4, 5, 6, 8]
