"""Covolume fingerprint assembly."""

import inspect
from fractions import Fraction

import pytest

from latcert.errors import InvalidInputError
from latcert.finite_groups import CongruenceLevel
from latcert.hermitian import HermitianForm
from latcert.local import factor_prime
from latcert.number_field import CMExtension, NumberField
from latcert.polynomials import Polynomial
from latcert.volume_fingerprint import (
    ITEM_NAMES,
    VolumeFingerprint,
    fingerprint,
    level_id_for,
    relative_extension_id,
)

CUBIC = Polynomial((1, -3, -1, 1))


@pytest.fixture(scope="module")
def setup():
    field = NumberField(CUBIC)
    alpha = field.generator()
    ext = CMExtension(field, field.from_rational(-1))
    neg1 = field.from_rational(-1)
    h1 = HermitianForm(ext, (-alpha, -alpha, neg1))
    level = level_id_for(
        [
            CongruenceLevel(factor_prime(field, 5)[0], h1),
            CongruenceLevel(factor_prime(field, 3)[0], h1),
        ]
    )
    return field, alpha, ext, h1, level


class TestLevelId:
    def test_frozen_digest(self, setup):
        _, _, _, _, level = setup
        assert level == "9ca494d0ef54665b"

    def test_independent_of_input_order(self, setup):
        field, _, _, h1, level = setup
        reordered = level_id_for(
            [
                CongruenceLevel(factor_prime(field, 3)[0], h1),
                CongruenceLevel(factor_prime(field, 5)[0], h1),
            ]
        )
        assert reordered == level

    def test_different_levels_differ(self, setup):
        field, _, _, h1, level = setup
        assert level_id_for([CongruenceLevel(factor_prime(field, 5)[0], h1)]) != level


class TestExtensionId:
    def test_readable_descriptor(self, setup):
        _, _, ext, _, _ = setup
        assert relative_extension_id(ext) == "sqrt(-1,0,0)/field(1,-3,-1,1)"

    @pytest.mark.parametrize("scaled", [-4, Fraction(-1, 9), Fraction(-25, 4)])
    def test_rational_square_scaling_preserved(self, setup, scaled):
        field, _, ext, _, _ = setup
        other = CMExtension(field, field.from_rational(scaled))
        assert relative_extension_id(other) == relative_extension_id(ext)

    def test_distinct_square_class_differs(self, setup):
        field, _, ext, _, _ = setup
        other = CMExtension(field, field.from_rational(-2))
        assert relative_extension_id(other) != relative_extension_id(ext)

    def test_nonrational_delta_square_scaling(self, setup):
        field, alpha, _, _, _ = setup
        delta = alpha - field.from_rational(4)
        scaled = delta * field.from_rational(Fraction(9, 4))
        left = relative_extension_id(CMExtension(field, delta))
        right = relative_extension_id(CMExtension(field, scaled))
        assert left == right


class TestFingerprint:
    def test_rank_three_shape(self, setup):
        _, _, _, h1, level = setup
        fp = fingerprint(h1, level)
        assert fp.base_field_disc == Fraction(148)
        assert fp.group_dim == 8
        assert fp.exponents == (1, 2)
        assert fp.tamagawa == 1
        assert fp.level_id == level

    def test_rank_five_shape(self, setup):
        field, alpha, ext, _, level = setup
        neg1 = field.from_rational(-1)
        h5 = HermitianForm(ext, (-alpha, -alpha, neg1, neg1, neg1))
        fp = fingerprint(h5, level)
        assert fp.group_dim == 24
        assert fp.exponents == (1, 2, 3, 4)
        assert fp.tamagawa == 1

    def test_even_rank_refused(self, setup):
        field, alpha, ext, _, level = setup
        even = HermitianForm(ext, (-alpha, field.from_rational(-1)))
        with pytest.raises(InvalidInputError):
            fingerprint(even, level)

    def test_independent_of_diagonal_order(self, setup):
        field, alpha, ext, h1, level = setup
        reordered = HermitianForm(ext, (field.from_rational(-1), -alpha, -alpha))
        assert fingerprint(reordered, level) == fingerprint(h1, level)

    def test_deterministic(self, setup):
        _, _, _, h1, level = setup
        assert fingerprint(h1, level) == fingerprint(h1, level)

    def test_item_names_are_the_fields(self):
        # the runner compares the two fingerprints over ITEM_NAMES alone
        assert VolumeFingerprint.__slots__ == ITEM_NAMES
        assert tuple(inspect.signature(VolumeFingerprint).parameters) == ITEM_NAMES

    def test_invariants_enforced(self):
        with pytest.raises(InvalidInputError, match="dimension"):
            VolumeFingerprint(Fraction(148), "x", 9, "y", (1, 2), 1, "z")
        with pytest.raises(InvalidInputError, match="Tamagawa"):
            VolumeFingerprint(Fraction(148), "x", 8, "y", (1, 2), 2, "z")
        with pytest.raises(InvalidInputError, match="exponents"):
            VolumeFingerprint(Fraction(148), "x", 8, "y", (2, 1), 1, "z")
