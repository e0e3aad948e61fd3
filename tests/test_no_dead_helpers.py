"""Every module-level function and class in latcert, and every method of its
classes but the dunder methods, is named somewhere in the package: code that
nothing calls is deleted, not kept for the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latcert"

# perfbench/tracing.py hooks these two, so they stay until the benchmark is
# re-pinned to the exact engines (ROADMAP item 1).
ALLOWED = {"refine_interval", "interval_value_range"}


def _names(tree: ast.AST) -> set[str]:
    """Every name the module mentions: Names, Attributes, import aliases
    and the strings of __all__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module, module: str):
    """(name, where) of each module-level function and class, and of each
    method of those classes but the dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, module
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(
                    item.name
                ):
                    yield item.name, f"{module}:{node.name}"


def test_every_helper_has_a_caller():
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(_definitions(tree, path.name))
        named |= _names(tree)
    assert defined
    uncalled = {name: where for name, where in defined.items() if name not in named}
    assert uncalled.keys() == ALLOWED, uncalled
