"""The value types: immutable, compared and hashed by value, and importable
without the dataclasses machinery."""

import copy
import importlib
import os
import pkgutil
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import latcert
from latcert import local
from latcert.finite_groups import FiniteGroupSpec
from latcert.frozen import Frozen
from latcert.hermitian import ComponentCheck, HermitianForm, IsomorphismVerdict, SeedVerdict
from latcert.local import (
    FinitePlace,
    HilbertReport,
    PlaceSymbolEntry,
    SplittingResult,
)
from latcert.modular import FiniteField
from latcert.number_field import (
    CMExtension,
    FieldElement,
    GaloisClosure,
    NumberField,
)
from latcert.polynomials import Interval, Polynomial
from latcert.runner import VerificationReport, load_example_fixture, parse_seed_input
from latcert.search import SearchConfig

CUBIC = Polynomial((1, -3, -1, 1))  # x^3 - x^2 - 3x + 1, disc 148


def _field():
    return NumberField(CUBIC)


def _ext():
    field = _field()
    return CMExtension(field, field.from_rational(-1))


def _form():
    return HermitianForm(_ext(), (1, 1, -1))


def _place():
    # built by hand, so that two calls give two objects
    return FinitePlace(_field(), 5, (2, 1), 1, 0)


# Each factory builds a fresh, equal value on every call.
FACTORIES = {
    "Polynomial": lambda: Polynomial(CUBIC.coeffs),
    "Interval": lambda: Interval(0, Fraction(1, 2)),
    "NumberField": _field,
    "FieldElement": lambda: _field().element((1, Fraction(1, 2), 0)),
    "CMExtension": _ext,
    "GaloisClosure": lambda: GaloisClosure(_field(), _field(), [_field().generator()]),
    "FinitePlace": _place,
    "SplittingResult": lambda: SplittingResult("split", "residue square"),
    "PlaceSymbolEntry": lambda: PlaceSymbolEntry("5#0", -1, "hensel-lift"),
    "HilbertReport": lambda: HilbertReport((PlaceSymbolEntry("2#0", 1, "split"),)),
    "HermitianForm": _form,
    "IsomorphismVerdict": lambda: IsomorphismVerdict("UNKNOWN", detail="no witness"),
    "ComponentCheck": lambda: ComponentCheck("local-rule", "PASS", "odd rank"),
    "SeedVerdict": lambda: SeedVerdict((ComponentCheck("a", "PASS", ""),)),
    "FiniteGroupSpec": lambda: FiniteGroupSpec("SU", 3, 25),
    "FiniteField": lambda: FiniteField(3, (1, 0, 1)),
    "VerificationReport": lambda: VerificationReport(()),
    "SeedInput": lambda: parse_seed_input(load_example_fixture()),
    "SearchConfig": lambda: SearchConfig(delta_candidates=[-1, Fraction(-3, 2)]),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestValueSemantics:
    def test_fields_can_be_neither_assigned_nor_deleted(self, name):
        value = FACTORIES[name]()
        for field in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_equal_values_hash_equal(self, name):
        a, b = FACTORIES[name](), FACTORIES[name]()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")

    def test_copies_are_equal(self, name):
        value = FACTORIES[name]()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
            with pytest.raises(AttributeError):
                setattr(twin, type(value).__slots__[0], None)


def test_search_config_keeps_its_defaults():
    cfg = SearchConfig()
    assert (cfg.degree, cfg.coefficient_bound, cfg.delta_candidates, cfg.rank) == (
        3, 3, (Fraction(-1),), 3,
    )
    assert cfg.output_path is None and cfg.max_certificates is None
    assert IsomorphismVerdict("UNKNOWN") == IsomorphismVerdict("UNKNOWN", None, None, "")


def test_summaries_cannot_disagree_with_what_they_summarise():
    # each record holds one field, and reads its status or counts off it
    for cls in (SeedVerdict, VerificationReport, HilbertReport):
        assert len(cls.__slots__) == 1
    failing = SeedVerdict((ComponentCheck("a", "PASS", ""), ComponentCheck("b", "FAIL", "")))
    assert failing.status == "FAIL"
    assert SeedVerdict((ComponentCheck("a", "UNKNOWN", ""),)).status == "UNKNOWN"
    with pytest.raises(TypeError):
        SeedVerdict("PASS", failing.components)
    with pytest.raises(AttributeError):
        object.__setattr__(failing, "status", "PASS")
    mismatch = VerificationReport(("field_block/disc",))
    assert mismatch.status == "MISMATCH" and not mismatch
    with pytest.raises(TypeError):
        VerificationReport("OK", mismatch.paths)
    report = HilbertReport(
        (PlaceSymbolEntry("2#0", None, "inconclusive"), PlaceSymbolEntry("3#0", -1, "hensel-lift"))
    )
    assert (report.conclusive, report.unknown_labels, report.minus_count) == (False, ("2#0",), 1)
    assert report.minus_count_even is None
    with pytest.raises(TypeError):
        HilbertReport(report.entries, (), 0)


def test_number_field_equality_ignores_derived_fields():
    twin = _field()
    object.__setattr__(twin, "min_poly", Polynomial((0, 1)))
    object.__setattr__(twin, "discriminant", Fraction(0))
    object.__setattr__(twin, "_root_cells", ())
    assert twin == _field() and hash(twin) == hash(_field())
    assert twin != NumberField(Polynomial((-1, -3, 0, 1)))


def test_field_element_equality_reads_its_field():
    other = NumberField(Polynomial((-1, -3, 0, 1)))
    assert _field().element((1, 2, 0)) != other.element((1, 2, 0))
    assert _field().element((1, 2, 0)) != _field().element((1, 2, 1))


def test_classes_with_own_equality_are_frozen():
    # a class compared or hashed by value is a value type, and a value type
    # cannot be changed after its hash is taken
    thawed = []
    for info in pkgutil.iter_modules(latcert.__path__):
        module = importlib.import_module(f"latcert.{info.name}")
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and {"__eq__", "__hash__"} & vars(cls).keys()
                and not issubclass(cls, Frozen)
            ):
                thawed.append(f"{module.__name__}.{cls.__qualname__}")
    assert thawed == []


def test_factor_prime_caches_equal_fields_once():
    local.factor_prime.cache_clear()
    first = local.factor_prime(_field(), 3)
    second = local.factor_prime(_field(), 3)
    info = local.factor_prime.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert second is first


def test_import_loads_neither_dataclasses_nor_importlib_resources():
    # the package under test, whatever sys.path pytest was given; -S keeps
    # site's .pth files from importing either module first
    src = str(Path(latcert.__file__).parents[1])
    code = (
        "import sys, latcert; "
        "print(sorted({'dataclasses', 'importlib.resources'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
