"""The module-level caches in latcert are exactly the listed ones: a function
decorated with `functools.lru_cache`, `functools.cache` or `cached_property`,
or a module-level name ending in _CACHE. A new cache is hidden state that
outlives every call, so it has to be named here to pass."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "latcert"

# perfbench/tracing.py reads local's three caches (ROADMAP item 1).
ALLOWED = {
    "local.py:factor_prime",
    "local.py:splitting_in_E",
    "local.py:_BLOCK_CACHE",
}

_CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def _decorator_name(node: ast.expr) -> str:
    """`lru_cache`, for @lru_cache, @lru_cache(...) and @functools.lru_cache(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _caches(tree: ast.Module, module: str) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            _decorator_name(d) in _CACHE_DECORATORS for d in node.decorator_list
        ):
            out.add(f"{module}:{node.name}")
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.endswith("_CACHE"):
                out.add(f"{module}:{target.id}")
    return out


def test_the_caches_are_exactly_the_listed_ones():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _caches(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == ALLOWED


@pytest.mark.parametrize(
    "source, name",
    [
        ("import functools\n@functools.lru_cache(maxsize=1)\ndef f(x): pass", "f"),
        ("from functools import lru_cache\n@lru_cache\ndef f(x): pass", "f"),
        ("import functools\n@functools.cache\ndef f(x): pass", "f"),
        ("import functools\nclass A:\n    @functools.cached_property\n    def f(self): pass", "f"),
        ("_ROOT_CACHE = {}", "_ROOT_CACHE"),
        ("_ROOT_CACHE: dict = {}", "_ROOT_CACHE"),
    ],
    ids=["lru_cache-call", "lru_cache-bare", "cache", "cached_property", "dict", "annotated"],
)
def test_each_kind_of_cache_is_found(source, name):
    assert _caches(ast.parse(source), "m.py") == {f"m.py:{name}"}


def test_a_plain_module_has_no_cache():
    source = "import functools\nKEY = functools.cmp_to_key(len)\n@staticmethod\ndef f(x): pass"
    assert _caches(ast.parse(source), "m.py") == set()
