"""The package's import structure: no module imports inside a function,
and each imports only the modules before it in ``ORDER`` (the noise model
and its orbit space, then the collision step, then the tables read off
it), so the modules form no import cycle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "noisygrover"

# Each module may import only the modules to its left.
ORDER = ("linalg", "grover", "noise", "collision", "markov", "measures", "cli")


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def test_the_order_names_every_module():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(ORDER + ("__init__",))


@pytest.mark.parametrize("name", ORDER + ("__init__",))
def test_no_import_inside_a_function(name):
    nested = [
        (func.name, node.lineno)
        for func in ast.walk(_tree(name))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


@pytest.mark.parametrize("name", ORDER)
def test_intra_package_imports_point_left(name):
    allowed = set(ORDER[: ORDER.index(name)])
    imported = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "noisygrover" for a in node.names), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert (node.module or "").split(".")[0] != "noisygrover", node.lineno
            elif node.module is None:
                # ``from . import x``: a module of the package, or an
                # attribute of __init__ (``__version__``), which every
                # module's import has already run.
                imported |= {a.name for a in node.names if a.name in ORDER}
            else:
                imported.add(node.module.split(".")[0])
    assert imported <= allowed, sorted(imported - allowed)
