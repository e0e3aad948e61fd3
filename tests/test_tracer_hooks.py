"""Every name the benchmark tracer hooks must exist in latcert.

perfbench/tracing.py wraps the functions in its SPANNED table and reads a
few caches after a run. Deleting or renaming one of them would only show
in the slower benchmark self-test, so this reads the table straight from
the tracer's source (nothing in perfbench is imported or run) and checks
each name here.
"""

import ast
import importlib
from pathlib import Path

import pytest

from latcert import local, number_field, search

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _spanned() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANNED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPANNED table")


SPANNED_NAMES = [(mod, fn) for mod, fns in _spanned().items() for fn in fns]


@pytest.mark.parametrize("module, name", SPANNED_NAMES, ids=[f"{m}.{f}" for m, f in SPANNED_NAMES])
def test_spanned_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"latcert.{module}"), name))


def test_other_hooks_exist():
    assert callable(number_field.FieldElement.sign_at)
    assert callable(search.candidate_polynomials)
    assert callable(search.field_candidates)
    # The tracer reads factor_prime.__wrapped__.cache_info() once its span
    # wraps the lru_cache; unwrapped, that is the lru_cache itself.
    assert callable(local.factor_prime.cache_info)
    assert callable(local.splitting_in_E.cache_info)
    assert isinstance(local._BLOCK_CACHE, dict)
