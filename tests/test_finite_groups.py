"""Orders and brute-force enumeration of finite matrix groups, plus congruence indices."""

import gc

import pytest

from latcert import intfactor, modular
from latcert.errors import BudgetExceededError, InvalidInputError, UnsupportedPlaceError
from latcert.finite_groups import (
    FiniteGroupSpec,
    congruence_index,
    enumerate_group,
    group_order,
)
from latcert.hermitian import HermitianForm
from latcert.local import factor_prime
from latcert.number_field import CMExtension, NumberField
from latcert.polynomials import Polynomial

from _oracles import count_matrices_with_det_one

CUBIC = Polynomial((1, -3, -1, 1))

# (family, size, q, order); each small enough to confirm by enumeration.
ENUMERABLE_CASES = [
    ("SL", 2, 2, 6),
    ("SL", 2, 3, 24),
    ("SL", 3, 2, 168),
    ("GL", 2, 2, 6),
    ("SU", 3, 2, 216),
    ("GU", 2, 2, 18),
    ("SU", 2, 2, 6),
    ("GU", 2, 3, 96),
    ("SL", 2, 4, 60),
    ("SL", 1, 7, 1),
    ("GU", 3, 2, 648),
]


def reference_field():
    return NumberField(CUBIC)


def gaussian_extension(field):
    return CMExtension(field, field.from_rational(-1))


class TestSpecValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInputError):
            FiniteGroupSpec("SO", 3, 5)

    @pytest.mark.parametrize("size", [0, -1])
    def test_nonpositive_size_rejected(self, size):
        with pytest.raises(InvalidInputError):
            FiniteGroupSpec("SL", size, 5)

    @pytest.mark.parametrize("q", [0, 1, 6, 12])
    def test_non_prime_power_rejected(self, q):
        with pytest.raises(InvalidInputError):
            FiniteGroupSpec("SL", 2, q)

    def test_prime_square_is_read_without_factoring(self, monkeypatch):
        # rho on l^2 takes about sqrt(l) steps; the k-th roots take none
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(intfactor, "prime_factors", refuse)
        monkeypatch.setattr(intfactor, "_pollard_rho", refuse)
        ell = 1000000000000091
        assert FiniteGroupSpec("SU", 3, ell**2).q == ell**2
        assert intfactor.prime_power(ell**2) == (ell, 2)
        for q in (0, 1, 6, 12, ell * (ell + 2)):
            with pytest.raises(InvalidInputError):
                FiniteGroupSpec("SL", 2, q)

    def test_prime_power_matches_the_factorization(self):
        for q in range(2, 5000):
            factors = intfactor.prime_factors(q)
            if len(factors) == 1:
                assert intfactor.prime_power(q) == next(iter(factors.items()))
            else:
                assert intfactor.prime_power(q) is None
                with pytest.raises(InvalidInputError):
                    FiniteGroupSpec("SL", 2, q)

    def test_str_names_the_group(self):
        assert str(FiniteGroupSpec("SU", 3, 2)) == "SU_3(F_2)"


class TestGroupOrder:
    @pytest.mark.parametrize("family,size,q,expected", ENUMERABLE_CASES)
    def test_small_orders(self, family, size, q, expected):
        assert group_order(FiniteGroupSpec(family, size, q)) == expected

    def test_sl3_f5(self):
        assert group_order(FiniteGroupSpec("SL", 3, 5)) == 372000

    def test_su3_f3(self):
        assert group_order(FiniteGroupSpec("SU", 3, 3)) == 6048

    def test_su3_f27(self):
        assert group_order(FiniteGroupSpec("SU", 3, 27)) == 282056445216

    def test_sl3_f37(self):
        assert group_order(FiniteGroupSpec("SL", 3, 37)) == 3509844434208

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_determinant_quotients(self, q):
        # det maps GL onto F_q^* and GU onto the norm-one circle of F_{q^2}.
        gl = group_order(FiniteGroupSpec("GL", 3, q))
        sl = group_order(FiniteGroupSpec("SL", 3, q))
        gu = group_order(FiniteGroupSpec("GU", 3, q))
        su = group_order(FiniteGroupSpec("SU", 3, q))
        assert gl == sl * (q - 1)
        assert gu == su * (q + 1)

    def test_size_one_groups_are_norm_kernels(self):
        assert group_order(FiniteGroupSpec("GL", 1, 9)) == 8
        assert group_order(FiniteGroupSpec("GU", 1, 3)) == 4
        assert group_order(FiniteGroupSpec("SU", 1, 3)) == 1


class TestEnumeration:
    @pytest.mark.parametrize("family,size,q,expected", ENUMERABLE_CASES)
    def test_enumeration_matches_order_formula(self, family, size, q, expected):
        assert enumerate_group(FiniteGroupSpec(family, size, q)) == expected

    def test_crt_oracle_agrees(self):
        # counting det-1 matrices over Z/6 splits as SL_2(F_2) x SL_2(F_3)
        assert count_matrices_with_det_one(6, 2) == 144
        assert 144 == group_order(FiniteGroupSpec("SL", 2, 2)) * group_order(
            FiniteGroupSpec("SL", 2, 3)
        )

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            enumerate_group(FiniteGroupSpec("SL", 4, 5))

    def test_budget_refusal_names_the_count(self):
        with pytest.raises(BudgetExceededError, match="152587890625"):
            enumerate_group(FiniteGroupSpec("SL", 4, 5))

    # factor_monic mod 2 and mod 3 descends through x^p (x^4 + 1 = (x + 1)^4
    # and (x^2 + 1)^3 x^3); the unitary families recurse column by column
    @pytest.mark.parametrize(
        "call",
        [
            lambda: modular.factor_monic((1, -3, -1, 1), 5),
            lambda: modular.factor_monic((1, 0, 0, 0, 1), 2),
            lambda: modular.factor_monic((0, 0, 0, 1, 0, 3, 0, 3, 0, 1), 3),
            lambda: enumerate_group(FiniteGroupSpec("SU", 2, 3)),
            lambda: enumerate_group(FiniteGroupSpec("GU", 2, 2)),
        ],
        ids=["factor-mod-5", "factor-mod-2", "factor-mod-3", "SU_2(F_3)", "GU_2(F_2)"],
    )
    def test_leaves_no_reference_cycles(self, call):
        # with the collector off, a cycle the call leaves stays for collect()
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCongruenceIndex:
    def test_split_place_gives_special_linear(self):
        field = reference_field()
        ext = gaussian_extension(field)
        alpha = field.generator()
        form = HermitianForm(ext, (-alpha, -alpha, field.from_rational(-1)))
        place = factor_prime(field, 5)[0]
        assert congruence_index(place, form) == 372000

    def test_inert_place_gives_special_unitary(self):
        field = reference_field()
        ext = gaussian_extension(field)
        alpha = field.generator()
        form = HermitianForm(ext, (-alpha, -alpha, field.from_rational(-1)))
        place = factor_prime(field, 3)[0]
        # 3 is inert in the cubic, residue field F_27
        assert congruence_index(place, form) == 282056445216
        assert congruence_index(place, form) == group_order(FiniteGroupSpec("SU", 3, 27))

    @pytest.mark.parametrize("idx", [0, 1])
    def test_places_above_37_split(self, idx):
        # both residue fields are F_37 even though one place is ramified
        # over 37 in the cubic; the index only sees the residue field.
        field = reference_field()
        ext = gaussian_extension(field)
        alpha = field.generator()
        form = HermitianForm(ext, (-alpha, -alpha, field.from_rational(-1)))
        place = factor_prime(field, 37)[idx]
        assert congruence_index(place, form) == 3509844434208

    def test_even_residue_characteristic_refused(self):
        field = reference_field()
        ext = gaussian_extension(field)
        alpha = field.generator()
        form = HermitianForm(ext, (-alpha, -alpha, field.from_rational(-1)))
        place = factor_prime(field, 2)[0]
        with pytest.raises(UnsupportedPlaceError, match="even"):
            congruence_index(place, form)

    def test_non_unit_entry_refused(self):
        field = reference_field()
        ext = gaussian_extension(field)
        alpha = field.generator()
        entry = alpha - field.from_rational(4)  # valuation 1 at the second place over 37
        form = HermitianForm(ext, (entry, entry, field.from_rational(-1)))
        place = factor_prime(field, 37)[1]
        with pytest.raises(UnsupportedPlaceError, match="entry"):
            congruence_index(place, form)

    def test_non_unit_delta_refused(self):
        field = reference_field()
        alpha = field.generator()
        delta = alpha - field.from_rational(4)  # totally negative, valuation 1 at 37#1
        ext = CMExtension(field, delta)
        form = HermitianForm(
            ext,
            (field.from_rational(-1), field.from_rational(1), field.from_rational(-1)),
        )
        place = factor_prime(field, 37)[1]
        with pytest.raises(UnsupportedPlaceError, match="delta"):
            congruence_index(place, form)

    def test_good_place_for_shifted_delta(self):
        # same extension as above but at a split, unramified place
        field = reference_field()
        alpha = field.generator()
        ext = CMExtension(field, alpha - field.from_rational(4))
        form = HermitianForm(
            ext,
            (field.from_rational(-1), field.from_rational(1), field.from_rational(-1)),
        )
        place = factor_prime(field, 5)[0]
        assert congruence_index(place, form) == 372000

    def test_even_rank_rejected(self):
        field = reference_field()
        ext = gaussian_extension(field)
        alpha = field.generator()
        form = HermitianForm(ext, (alpha, field.from_rational(-1)))
        place = factor_prime(field, 5)[0]
        with pytest.raises(InvalidInputError):
            congruence_index(place, form)
