"""src/detpf holds only code that the package, the CLI or the benchmark calls.

Every non-dunder function, class and method defined in a module of
src/detpf must be used somewhere in src/detpf or perfbench/.  A module
function or class is used by a name load, an attribute read or a string
constant equal to its name (the benchmark tracer wraps functions by name).
A method is used only by an attribute read or a string constant: a bare
name that equals it is a local variable or a module function, not a call
of the method.  `__init__.py` neither defines nor uses anything here: its
re-exports and `__all__` strings are not calls.  Code that only the tests
call belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "detpf"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _trees(paths):
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined(trees):
    """(qualified name, name, whether it is a method) for every non-dunder def and class."""
    out = set()
    for path, tree in trees:
        owner = {}
        # breadth first: a class is visited before the defs in its body
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owner.update((id(item), node.name) for item in node.body)
            if isinstance(node, _DEFS) and not _dunder(node.name):
                cls = owner.get(id(node))
                scope = path.stem if cls is None else f"{path.stem}.{cls}"
                out.add((f"{scope}.{node.name}", node.name, cls is not None))
    return out


def _used(trees):
    """(bare names loaded, names read as attributes or equal to a string constant)."""
    names, attrs = set(), set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.add(node.value)
    return names, attrs


def _unused(defining, using):
    names, attrs = _used(using)
    return sorted(
        qual
        for qual, name, method in _defined(defining)
        if name not in attrs and (method or name not in names)
    )


def test_every_src_definition_has_a_caller_outside_the_tests():
    modules = _trees(_modules())
    unused = _unused(modules, modules + _trees(sorted((ROOT / "perfbench").glob("*.py"))))
    assert not unused, f"defined in src/detpf but called only from tests: {unused}"


def test_a_local_name_does_not_count_as_a_method_call():
    source = """
class Poly:
    def degree(self):
        return 0

    def text(self):
        return "p"

def total(p):
    degree = 1
    return degree + len(p.text())

def helper():
    return 0

def main():
    return helper() + total(Poly())
"""
    trees = [(Path("poly.py"), ast.parse(source))]
    assert _unused(trees, trees) == ["poly.Poly.degree", "poly.main"]
