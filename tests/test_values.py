"""The value types: immutable, compared and hashed by value, and importable
without the dataclasses machinery."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import latcert
from latcert import local
from latcert.finite_groups import CongruenceLevel, FiniteGroupSpec
from latcert.hermitian import ComponentCheck, HermitianForm, IsomorphismVerdict, SeedVerdict
from latcert.local import (
    FinitePlace,
    HilbertReport,
    LocalNormResult,
    PlaceSymbolEntry,
    SplittingResult,
)
from latcert.number_field import (
    CMExtension,
    FieldElement,
    GaloisClosure,
    NumberField,
    RealPlace,
)
from latcert.polynomials import Interval, Polynomial
from latcert.runner import VerificationReport
from latcert.search import SearchConfig
from latcert.volume_fingerprint import VolumeFingerprint

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
    "RealPlace": lambda: RealPlace(1),
    "NumberField": _field,
    "FieldElement": lambda: _field().element((1, Fraction(1, 2), 0)),
    "CMExtension": _ext,
    "GaloisClosure": lambda: GaloisClosure(_field(), _field(), [_field().generator()]),
    "FinitePlace": _place,
    "SplittingResult": lambda: SplittingResult("split", "residue square"),
    "LocalNormResult": lambda: LocalNormResult(True, "split", _place()),
    "PlaceSymbolEntry": lambda: PlaceSymbolEntry("5#0", -1, "hensel-lift"),
    "HilbertReport": lambda: HilbertReport("x", (PlaceSymbolEntry("2#0", 1, "split"),), (), 0),
    "HermitianForm": _form,
    "IsomorphismVerdict": lambda: IsomorphismVerdict("UNKNOWN", detail="no witness"),
    "ComponentCheck": lambda: ComponentCheck("local-rule", "PASS", "odd rank"),
    "SeedVerdict": lambda: SeedVerdict("PASS", (ComponentCheck("a", "PASS", ""),)),
    "FiniteGroupSpec": lambda: FiniteGroupSpec("SU", 3, 25),
    "CongruenceLevel": lambda: CongruenceLevel(_place(), _form()),
    "VolumeFingerprint": lambda: VolumeFingerprint(Fraction(148), "x", 8, "y", (1, 2), 1, "z"),
    "VerificationReport": lambda: VerificationReport("OK", ()),
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
