"""src/detpf holds only code that the package, the CLI or the benchmark calls.

Every non-dunder function, class and method defined in a module of
src/detpf must be used somewhere in src/detpf or perfbench/.  A use is a
name load, an attribute read or a string constant equal to the name (the
benchmark tracer wraps functions by name).  `__init__.py` neither defines
nor uses anything here: its re-exports and `__all__` strings are not calls.
Code that only the tests call belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "detpf"


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _trees(paths):
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _defined(trees):
    """(module name, defined name) for every non-dunder def and class."""
    out = set()
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.add((path.stem, node.name))
    return out


def _used(trees):
    out = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_src_definition_has_a_caller_outside_the_tests():
    modules = _trees(_modules())
    used = _used(modules + _trees(sorted((ROOT / "perfbench").glob("*.py"))))
    unused = sorted(f"{mod}.{name}" for mod, name in _defined(modules) if name not in used)
    assert not unused, f"defined in src/detpf but called only from tests: {unused}"
