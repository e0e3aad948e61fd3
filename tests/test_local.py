"""Local arithmetic: places, valuations, splitting, norm tests, symbols.

The running example field is Q[x]/(x^3 - x^2 - 3x + 1) with delta = -1; the
degree-1 field recovers classical imaginary-quadratic facts, which serve as
an independent check on the dyadic enumeration machinery.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _blocks_mod_l64,
    _mul,
    _value,
    dyadic_square_scan,
    dyadic_unit_non_norm_scan,
    fixed_lift_norm_ord_and_unit,
    residue_is_square,
    sylvester_resultant,
    unit_residue_mod_block,
)
from latcert import local
from latcert.errors import InconclusiveError, InvalidInputError, UnsupportedPlaceError
from latcert.intfactor import prime_factors
from latcert.local import (
    PlaceSymbolEntry,
    factor_prime,
    hilbert_product_check,
    hilbert_symbol_qq,
    local_norm_test,
    splitting_in_E,
    valuation,
)
from latcert.number_field import CMExtension, NumberField
from latcert.polynomials import Polynomial
from latcert.search import candidate_polynomials

F = NumberField(Polynomial((1, -3, -1, 1)))
ALPHA = F.generator()
EXT = CMExtension(F, F.from_rational(-1))
RATIONALS = NumberField(Polynomial((0, 1)))  # degree-1 field, i.e. Q itself


def place_above(field, ell, index=0):
    return factor_prime(field, ell)[index]


class TestFactorPrime:
    def test_totally_ramified_dyadic_place(self):
        places = factor_prime(F, 2)
        assert len(places) == 1
        v = places[0]
        assert (v.factor, v.ramification, v.residue_degree) == ((1, 1), 3, 1)

    def test_inert_prime(self):
        (v,) = factor_prime(F, 3)
        assert v.residue_degree == 3 and v.ramification == 1

    def test_split_structure_at_5(self):
        places = factor_prime(F, 5)
        assert [(v.factor, v.ramification) for v in places] == [
            ((2, 1), 1),
            ((3, 2, 1), 1),
        ]

    def test_ramified_structure_at_37(self):
        places = factor_prime(F, 37)
        assert [(v.factor, v.ramification) for v in places] == [
            ((7, 1), 1),
            ((33, 1), 2),
        ]

    def test_sum_of_e_times_f(self):
        for ell in (2, 3, 5, 13, 19, 37, 101):
            places = factor_prime(F, ell)
            assert sum(v.ramification * v.residue_degree for v in places) == 3

    @pytest.mark.parametrize(
        "coeffs", [(1, -3, -1, 1), (1, -2, -3, 2, 1), (-148, 0, 100, 0, -20, 0, 1)]
    )
    def test_single_place_exactly_when_e_times_f_is_the_degree(self, coeffs):
        # _norm_ord_and_unit reads the exact norm Res(min_poly, z) when
        # e * f = n, and lifts the blocks of the places otherwise
        field = NumberField(Polynomial(coeffs))
        for ell in (2, 3, 5, 7):
            try:
                places = factor_prime(field, ell)
            except UnsupportedPlaceError:
                continue
            for v in places:
                single = v.ramification * v.residue_degree == field.degree
                assert single == (len(places) == 1)

    def test_dedekind_refusal(self):
        # 2 divides the index of Z[x]/(x^3 - x^2 - 2x - 8) in its maximal order
        field = NumberField(Polynomial((-8, -2, -1, 1)))
        with pytest.raises(UnsupportedPlaceError):
            factor_prime(field, 2)

    def test_rejects_composite_modulus(self):
        with pytest.raises(InvalidInputError):
            factor_prime(F, 6)


class TestValuation:
    def test_uniformizer_order_at_dyadic_place(self):
        assert valuation(place_above(F, 2), F.from_rational(2)) == 3

    def test_units_have_valuation_zero(self):
        v = place_above(F, 2)
        assert valuation(v, ALPHA) == 0
        assert valuation(v, ALPHA * ALPHA - 2) == 0

    def test_norm_two_element(self):
        # N(alpha + 1) = -2, so alpha + 1 carries the full dyadic valuation once
        assert valuation(place_above(F, 2), ALPHA + 1) == 1

    def test_ramified_place_at_37(self):
        unram, ram = factor_prime(F, 37)
        assert valuation(unram, ALPHA - 4) == 0
        assert valuation(ram, ALPHA - 4) == 1

    def test_denominators_count_negatively(self):
        v = place_above(F, 2)
        assert valuation(v, F.from_rational(Fraction(3, 4))) == -6
        assert valuation(v, (ALPHA + 1) / 2) == -2

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            valuation(place_above(F, 2), F.zero())

    def test_wrong_field_rejected(self):
        with pytest.raises(InvalidInputError):
            valuation(place_above(F, 2), RATIONALS.one())

    @given(st.tuples(*[st.integers(-6, 6)] * 3), st.tuples(*[st.integers(-6, 6)] * 3))
    @settings(max_examples=40, deadline=None)
    def test_valuation_is_additive(self, xs, ys):
        x, y = F.element(xs), F.element(ys)
        if x.is_zero() or y.is_zero():
            return
        for v in (place_above(F, 2), place_above(F, 37, 1)):
            assert valuation(v, x * y) == valuation(v, x) + valuation(v, y)


@st.composite
def monic_and_multiplier(draw):
    """A monic integer P of degree 1-6 and an integer z of any degree,
    sometimes a multiple of P."""
    n = draw(st.integers(1, 6))
    p = tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))) + (1,)
    if draw(st.booleans()):
        # zeros are frequent, so that elimination often meets a zero pivot
        z = draw(st.lists(st.just(0) | st.integers(-9, 9), min_size=1, max_size=n + 3))
    else:
        q = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=2))
        z = [int(c) for c in _mul(p, q)]
    return p, tuple(z)


class TestResultantInt:
    @given(monic_and_multiplier())
    @settings(max_examples=80, deadline=None)
    def test_matches_sylvester_oracle(self, case):
        p, z = case
        trimmed = list(z)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        expected = sylvester_resultant(list(map(Fraction, p)), trimmed) if trimmed else 0
        assert local.resultant_int(p, z) == expected

    def test_multiple_of_modulus_is_zero(self):
        p = (1, -3, -1, 1)
        assert local.resultant_int(p, tuple(int(c) for c in _mul(p, (2, 0, 5)))) == 0

    def test_zero_pivot_swaps_rows(self):
        # multiplication by x on Z[x]/(x^2 + 1) is [[0, -1], [1, 0]]
        assert local.resultant_int((1, 0, 1), (0, 1)) == 1
        assert local.resultant_int((1, 0, 0, 1), (0, 0, 1)) == 1

    def test_constant_is_a_power(self):
        assert local.resultant_int((1, -3, -1, 1), (-7,)) == -343

    def test_rejects_non_monic_modulus(self):
        with pytest.raises(InvalidInputError):
            local.resultant_int((1, 2), (1, 1))


class TestHilbertSymbolQQ:
    FROZEN = [
        ((-1, -1, 2), -1),
        ((-1, 2, 2), 1),
        ((2, 2, 2), 1),
        ((5, 2, 2), -1),
        ((-1, -37, 2), -1),
        ((2, 3, 3), -1),
        ((3, 3, 3), -1),
        ((-1, 3, 3), -1),
        ((5, 5, 5), 1),
        ((3, 5, 5), -1),
        ((-1, -1, None), -1),
        ((-1, 5, None), 1),
        ((Fraction(-3, 4), Fraction(7, 2), 2), -1),
    ]

    @pytest.mark.parametrize("args,expected", FROZEN)
    def test_frozen_values(self, args, expected):
        a, b, prime = args
        assert hilbert_symbol_qq(a, b, prime) == expected

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            hilbert_symbol_qq(0, 3, 2)

    def test_composite_place_rejected(self):
        with pytest.raises(InvalidInputError):
            hilbert_symbol_qq(3, 5, 15)

    def test_squares_are_always_norms(self):
        for prime in (None, 2, 3, 5, 7):
            assert hilbert_symbol_qq(Fraction(9, 4), -7, prime) == 1

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_global_product_formula(self, a, b):
        if a == 0 or b == 0:
            return
        primes = {2}
        for x in (a, b):
            primes |= set(prime_factors(x.numerator))
            primes |= set(prime_factors(x.denominator))
        product = hilbert_symbol_qq(a, b, None)
        for ell in sorted(primes):
            product *= hilbert_symbol_qq(a, b, ell)
        assert product == 1

    @given(
        st.fractions(min_value=-30, max_value=30, max_denominator=20),
        st.fractions(min_value=-30, max_value=30, max_denominator=20),
        st.fractions(min_value=-30, max_value=30, max_denominator=20),
        st.sampled_from([None, 2, 3, 5, 7, 11]),
    )
    @settings(max_examples=120, deadline=None)
    def test_bimultiplicative(self, a, b, c, prime):
        if 0 in (a, b, c):
            return
        lhs = hilbert_symbol_qq(a, b * c, prime)
        rhs = hilbert_symbol_qq(a, b, prime) * hilbert_symbol_qq(a, c, prime)
        assert lhs == rhs

    @given(
        st.integers(min_value=-60, max_value=60).filter(bool),
        st.integers(min_value=1, max_value=40),
        st.fractions(min_value=-30, max_value=30, max_denominator=20).filter(bool),
        st.sampled_from([None, 2, 3, 5, 7, 11]),
    )
    @settings(max_examples=120, deadline=None)
    def test_reads_n_over_d_as_n_times_d(self, n, d, b, prime):
        # n/d = n*d / d^2, so both lie in one square class
        assert hilbert_symbol_qq(Fraction(n, d), b, prime) == hilbert_symbol_qq(n * d, b, prime)


class TestSplitting:
    # (prime, place index) -> expected behavior in E = F(sqrt(-1))
    TABLE = [
        (2, 0, "ramified"),
        (3, 0, "inert"),
        (5, 0, "split"),
        (5, 1, "split"),
        (13, 0, "split"),
        (13, 1, "split"),
        (19, 0, "inert"),
        (19, 1, "split"),
        (37, 0, "split"),
        (37, 1, "split"),
    ]

    @pytest.mark.parametrize("ell,idx,expected", TABLE)
    def test_gaussian_splitting_over_cubic(self, ell, idx, expected):
        assert splitting_in_E(EXT, place_above(F, ell, idx)).kind == expected

    # classical behavior of 2 in imaginary quadratic fields
    QUADRATIC = [(-7, "split"), (-15, "split"), (-1, "ramified"), (-5, "ramified"), (-3, "inert")]

    @pytest.mark.parametrize("d,expected", QUADRATIC)
    def test_imaginary_quadratic_at_two(self, d, expected):
        ext = CMExtension(RATIONALS, RATIONALS.from_rational(d))
        assert splitting_in_E(ext, place_above(RATIONALS, 2)).kind == expected

    def test_odd_delta_valuation_ramifies(self):
        ext = CMExtension(RATIONALS, RATIONALS.from_rational(-37))
        s = splitting_in_E(ext, place_above(RATIONALS, 37))
        assert s.kind == "ramified" and "odd valuation" in s.method

    def test_mismatched_base_field(self):
        with pytest.raises(InvalidInputError):
            splitting_in_E(EXT, place_above(RATIONALS, 2))


def place_factors(field, ell):
    """The (factor, ramification) pairs of the places above l, in place order."""
    return tuple((v.factor, v.ramification) for v in factor_prime(field, ell))


def dyadic_block(field, index):
    """The factor over Z_2 of the field's polynomial at place 2#index,
    constant term first, correct mod 2^64."""
    return tuple(_blocks_mod_l64(field.int_poly, place_factors(field, 2), 2)[index])


class TestDyadicSquareTest:
    # (field, place index, (e, f)) for every shape of a place above 2 in
    # degree <= 3; the lines marked "shared" have another place above 2
    CASES = [
        (RATIONALS, 0, (1, 1)),
        (NumberField(Polynomial((-3, -3, 1))), 0, (1, 2)),
        (NumberField(Polynomial((-3, -2, 0, 1))), 1, (1, 2)),  # shared
        (NumberField(Polynomial((-3, -3, -2, 1))), 0, (1, 3)),
        (NumberField(Polynomial((-3, 0, 1))), 0, (2, 1)),
        (NumberField(Polynomial((-2, -3, -2, 1))), 1, (2, 1)),  # shared
        (NumberField(Polynomial((-2, -2, -3, 1))), 0, (2, 1)),  # shared
        (F, 0, (3, 1)),
    ]
    ODD = [Fraction(w) for w in (1, -1, 3, -3, 5, -5, 7, -7)]

    @staticmethod
    def squares(field, index, shape, candidates):
        """The candidates that are squares at the place, checked against the
        enumeration oracle."""
        place = factor_prime(field, 2)[index]
        e = place.ramification
        assert (e, place.residue_degree) == shape
        block = dyadic_block(field, index)
        found = [
            w for w in candidates
            if local._dyadic_approximable(place, w.numerator * w.denominator, 2 * e + 1)
        ]
        assert found == [w for w in candidates if dyadic_square_scan(field, block, *shape, w)]
        return found

    @pytest.mark.parametrize("field, index, shape", CASES)
    def test_matches_enumeration_oracle(self, field, index, shape):
        assert self.squares(field, index, shape, self.ODD)[:1] == [1]

    # n*d mod 8 runs over 1, 1, 3, 3, 5, 5, 7, 7
    ODD_DENOMINATORS = [
        Fraction(n, d) for n, d in ((-5, 3), (3, 11), (7, 5), (1, 3), (-1, 3), (-7, 5), (5, 3), (9, 7))
    ]

    @pytest.mark.parametrize(
        "field, index, shape",
        [c for c in CASES if c[2] in ((1, 1), (2, 1))] + [c for c in CASES if c[2] in ((1, 3), (3, 1))],
    )
    def test_odd_denominators(self, field, index, shape):
        self.squares(field, index, shape, self.ODD_DENOMINATORS)

    @pytest.mark.parametrize("field, index, shape", [c for c in CASES if c[2] in ((1, 1), (1, 3), (3, 1))])
    def test_odd_degree_squares_are_those_of_q2(self, field, index, shape):
        # by the tower law, a square root of w in F_v outside Q_2 would make
        # Q_2(sqrt w) a quadratic subfield, so 2 would divide e*f
        place = factor_prime(field, 2)[index]
        for w in self.ODD + self.ODD_DENOMINATORS:
            expected = w.numerator * w.denominator % 8 == 1
            n_d = w.numerator * w.denominator
            assert local._dyadic_approximable(place, n_d, 2 * place.ramification + 1) == expected

    def test_ramified_place_sharing_two(self):
        # a shared (2, 1) place with squares beyond those of Q_2
        field = NumberField(Polynomial((-2, -3, -2, 1)))
        assert self.squares(field, 1, (2, 1), self.ODD) == [1, 3, -5, -7]


def census_fields(degree, bound):
    """The totally real fields of candidate_polynomials(degree, bound) in
    which 2 does not divide the index of the polynomial order."""
    out = []
    for coeffs in candidate_polynomials(degree, bound):
        try:
            field = NumberField(Polynomial(coeffs))
            factor_prime(field, 2)
        except (InvalidInputError, UnsupportedPlaceError):
            continue
        out.append(field)
    return out


def census_samples():
    """(ext, u) over the census fields of degree 3 and 4 at bound 3, and
    Z[sqrt 5], where 2 divides the index: delta is -1 or -(alpha^2 + 1),
    and u is alpha, alpha - 3 or 2 alpha + 1."""
    out = []
    for field in census_fields(3, 3) + census_fields(4, 3) + [NumberField(Polynomial((-5, 0, 1)))]:
        alpha = field.generator()
        for delta in (field.from_rational(-1), -(alpha * alpha) - 1):
            ext = CMExtension(field, delta)
            out += [(ext, u) for u in (alpha, alpha - 3, 2 * alpha + 1)]
    return out


class TestDyadicSplitting:
    # delta of even 2-order whose odd part n/d has n*d mod 8 = 7, 5, 1 and 3
    # with d = 1, then 3, 1, 7 and 5 with d = 3
    DELTAS = [Fraction(-1), Fraction(-3), Fraction(-7), Fraction(-20),
              Fraction(-7, 3), Fraction(-5, 3), Fraction(-11, 3), Fraction(-4, 3)]

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param(lambda: census_fields(1, 3) + census_fields(2, 3), id="degree-1-2"),
            pytest.param(lambda: census_fields(3, 3), id="degree-3"),
            # x^4 - 4x^2 + 2 is Eisenstein, so 2 is totally ramified: e = 4
            pytest.param(
                lambda: census_fields(4, 3) + [NumberField(Polynomial((2, 0, -4, 0, 1)))],
                id="degree-4",
            ),
        ],
    )
    def test_every_place_over_two_matches_both_oracles(self, fields):
        shapes = set()
        for field in fields():
            for place in factor_prime(field, 2):
                e, f = place.ramification, place.residue_degree
                shapes.add((e, f))
                block = dyadic_block(field, place.index)
                for delta in self.DELTAS:
                    w = delta
                    while w.numerator % 4 == 0:
                        w /= 4
                    if dyadic_square_scan(field, block, e, f, w):
                        expected = "split"
                    elif dyadic_unit_non_norm_scan(block, w):
                        expected = "ramified"
                    else:
                        expected = "inert"
                    ext = CMExtension(field, field.from_rational(delta))
                    assert splitting_in_E(ext, place).kind == expected, (field, place, delta)
        assert max(e * f for e, f in shapes) <= 4

    def test_a_place_of_degree_seven_is_decided(self):
        # all 8^7 coordinate vectors mod 8 would pass the cap; the lift needs
        # few nodes, and with e = 1 and f = 7 odd the answers are those of
        # Q_2: w = 1 mod 8 splits, w = 3 or 7 mod 8 ramifies
        field = NumberField(Polynomial((-1, -2, 5, 7, -7, -6, 2, 1)))
        (place,) = factor_prime(field, 2)
        assert (place.ramification, place.residue_degree) == (1, 7)
        kinds = [
            splitting_in_E(CMExtension(field, field.from_rational(d)), place).kind
            for d in (-7, -5, -1)
        ]
        assert kinds == ["split", "ramified", "ramified"]

    @pytest.mark.parametrize("cap", [1, 7, 8])
    def test_every_node_counts_against_the_cap(self, monkeypatch, cap):
        # at the paper's place over 2 (e = 3), delta = -1 is ramified: each
        # of the two lifts tries the 8 first digits, none of which has
        # v(y^2 + 1) >= 2e = 6, so 8 nodes decide the place, and with one
        # fewer the product check reports it as unknown
        splitting_in_E.cache_clear()
        monkeypatch.setattr(local, "_DYADIC_ENUMERATION_CAP", cap)
        try:
            report = hilbert_product_check(EXT, ALPHA)
        finally:
            splitting_in_E.cache_clear()
        (entry,) = [e for e in report.entries if e.label == "2#0"]
        if cap < 8:
            assert entry.symbol is None and "exceeds the cap" in entry.method
            assert report.unknown_labels == ("2#0",) and report.minus_count_even is None
        else:
            assert report.conclusive and entry.symbol == -1


@functools.lru_cache(maxsize=None)
def odd_census_places():
    """Every place above 3, 5, 7, 11 and 13 of the census fields of degree
    3 and 4 at bound 3."""
    out = []
    for field in census_fields(3, 3) + census_fields(4, 3):
        for ell in (3, 5, 7, 11, 13):
            try:
                out += factor_prime(field, ell)
            except UnsupportedPlaceError:
                continue
    return tuple(out)


class TestResidueSquare:
    # _residue_square reads the square class of a unit's residue off its
    # norm to F_l, Res(factor, num) * den^f, against Euler's criterion in
    # F_l[x]/(factor)

    def test_census_places_have_every_shape(self):
        shapes = {(v.ramification, v.residue_degree) for v in odd_census_places()}
        assert {(1, 1), (1, 4), (2, 2), (3, 1), (4, 1)} <= shapes

    @given(
        st.data(),
        st.lists(st.integers(-30, 30), min_size=4, max_size=4),
        st.integers(1, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_euler_criterion(self, data, coords, den):
        place = data.draw(st.sampled_from(odd_census_places()))
        num = tuple(coords[: place.field.degree])
        if den % place.prime == 0:
            den += 1
        expected = residue_is_square(place.factor, place.prime, num, den)
        if expected is not None:
            assert local._residue_square(place, num, den) == expected

    @given(
        st.data(),
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_unit_part_branch(self, data, n, d, half_order):
        # delta = -l^(2k) n/d, rational of even nonzero l-order
        place = data.draw(st.sampled_from(odd_census_places()))
        ell = place.prime
        if n % ell == 0 or d % ell == 0:
            return
        field = place.field
        ext = CMExtension(field, field.from_rational(-Fraction(n * ell ** (2 * half_order), d)))
        expected = "split" if residue_is_square(place.factor, ell, (-n,), d) else "inert"
        got = splitting_in_E(ext, place)
        assert (got.kind, got.method) == (expected, "unit-part residue square test")


class TestTameUnitWithDenominator:
    # a unit at a ramified place over odd l whose denominator l divides,
    # with delta not rational: N_{F_v/Q_l}(u) = N_{k/F_l}(u-bar)^e mod l
    # decides it when e is odd; each (field, delta, l, index) has delta of
    # odd valuation at the place, and another place above l

    ODD_E = [
        ((1, -3, -1, 1), (-3, -3, -2), 5, 0),  # (e, f) = (1, 1)
        ((-3, -3, 2, 1), (-3, -2, -1), 3, 1),  # (1, 1), beside a place with e = 2
        ((-3, -3, 2, 1), (-3, -1, -2), 7, 1),  # (1, 2)
    ]

    @staticmethod
    def units(field, place, count):
        """Units num/den at the place with l dividing den: factor(alpha)^e
        has valuation e there when factor(alpha) is a uniformizer, so
        factor(alpha)^e * s / l is a unit for units s."""
        rng = random.Random(place.prime)
        alpha = field.generator()
        g = field.zero()
        for c in reversed(place.factor):
            g = g * alpha + c
        out = []
        for _ in range(50 * count):
            s = field.element(tuple(rng.randint(-5, 5) for _ in range(field.degree)))
            if s.is_zero():
                continue
            u = g ** place.ramification * s / place.prime
            if u.den % place.prime == 0 and valuation(place, u) == 0:
                out.append(u)
                if len(out) == count:
                    break
        assert len(out) == count
        return out

    @pytest.mark.parametrize("coeffs, delta, ell, index", ODD_E)
    def test_odd_e_matches_the_residue_oracle(self, coeffs, delta, ell, index):
        field = NumberField(Polynomial(coeffs))
        ext = CMExtension(field, field.element(delta))
        place = factor_prime(field, ell)[index]
        assert splitting_in_E(ext, place).kind == "ramified"
        factors = place_factors(field, ell)
        for u in self.units(field, place, 12):
            residue = unit_residue_mod_block(field.int_poly, factors, index, u.num, u.den, ell)
            result = local_norm_test(ext, u, place)
            expected = residue_is_square(place.factor, ell, residue, 1)
            assert (result.is_norm, result.method) == (expected, "hensel-lift")

    def test_the_cli_element_has_a_conclusive_entry(self):
        # every place over 2 is out of reach for a delta that is not
        # rational, so the report as a whole is not conclusive
        ext = CMExtension(F, F.element((-3, -3, -2)))
        u = F.element((Fraction(-3, 5), Fraction(-3, 5), Fraction(-2, 5)))
        report = hilbert_product_check(ext, u)
        entries = {e.label: (e.symbol, e.method) for e in report.entries}
        assert entries["5#0"] == (1, "hensel-lift")
        assert "2#0" in report.unknown_labels

    def test_even_e_is_inconclusive(self):
        # 3 = (pi_0)^2 pi_1 in Q[x]/(x^3 + 2x^2 - 3x - 3)
        field = NumberField(Polynomial((-3, -3, 2, 1)))
        ext = CMExtension(field, field.element((-3, -3, -1)))
        place = factor_prime(field, 3)[0]
        assert (place.ramification, place.residue_degree) == (2, 1)
        assert splitting_in_E(ext, place).kind == "ramified"
        (u,) = self.units(field, place, 1)
        with pytest.raises(InconclusiveError, match="even e"):
            local_norm_test(ext, u, place)
        (entry,) = [e for e in hilbert_product_check(ext, u).entries if e.label == "3#0"]
        assert entry.symbol is None and entry.method.startswith("inconclusive:")


def fixed_lift(place, z, unit_mod):
    """The oracle's (ord_l, unit residue) of Res(P_v, z), from blocks lifted
    to 64 digits."""
    factors = place_factors(place.field, place.prime)
    return fixed_lift_norm_ord_and_unit(
        place.field.int_poly, factors, place.index, z, place.prime, unit_mod
    )


class TestExactPrecision:
    # _norm_ord_and_unit lifts the blocks of a prime with several places to
    # ord_l N + 3 digits, N = Res(min_poly, z) the exact norm

    @pytest.mark.parametrize("degree, bound", [(3, 4), (4, 3)])
    def test_every_place_above_small_primes_matches_the_fixed_lift(self, degree, bound):
        rng = random.Random(degree)
        shared = 0
        for coeffs in candidate_polynomials(degree, bound):
            try:
                field = NumberField(Polynomial(coeffs))
            except InvalidInputError:
                continue
            for ell in (2, 3, 5, 7):
                try:
                    places = factor_prime(field, ell)
                except UnsupportedPlaceError:
                    continue
                shared += len(places) > 1
                unit_mod = 8 if ell == 2 else ell
                zs = [tuple(rng.randint(-6, 6) for _ in range(degree)) for _ in range(8)]
                # l times an element has order at every place above l, and
                # alpha - c only at the places of degree 1 with factor x - c
                zs.append(tuple(ell * c for c in zs[0]))
                zs += [(-c, 1) + (0,) * (degree - 2) for c in range(ell)]
                for v in places:
                    for z in zs:
                        if any(z):
                            got = local._norm_ord_and_unit(v, z, unit_mod)
                            assert got == fixed_lift(v, z, unit_mod), (coeffs, v.label(), z)
        assert shared > 10

    @pytest.mark.parametrize("coeffs, ell", [((1, -3, -1, 1), 5), ((-3, -2, 0, 1), 2)])
    def test_an_order_past_the_old_first_lift(self, coeffs, ell):
        # alpha - R, for R a root of min_poly mod l^20 lifted by Newton's
        # iteration from a simple root mod l, has order >= 20 at the place of
        # degree 1 that the root belongs to
        field = NumberField(Polynomial(coeffs))
        places = factor_prime(field, ell)
        (v,) = [w for w in places if (w.ramification, w.residue_degree) == (1, 1)]
        p = field.int_poly
        dp = [i * c for i, c in enumerate(p)][1:]
        modulus, root = ell**20, -v.factor[0] % ell
        for _ in range(5):
            root = (root - _value(p, root) * pow(_value(dp, root), -1, modulus)) % modulus
        z = (-root, 1) + (0,) * (field.degree - 2)
        unit_mod = 8 if ell == 2 else ell
        got = local._norm_ord_and_unit(v, z, unit_mod)
        assert len(places) > 1 and got[0] >= 20
        assert got == fixed_lift(v, z, unit_mod)


class TestLocalNormTest:
    def test_real_places_use_signs(self):
        results = [local_norm_test(EXT, ALPHA, j) for j in range(F.real_place_count)]
        assert [r.symbol for r in results] == [-1, 1, 1]
        assert [r.label for r in results] == ["real place 0", "real place 1", "real place 2"]
        assert [r.is_norm for r in results] == [False, True, True]
        assert all(r.method == "archimedean-sign" for r in results)

    def test_a_real_place_is_its_index(self):
        for ext, u in census_samples():
            for j in range(ext.base.real_place_count):
                r = local_norm_test(ext, u, j)
                assert (r.is_norm, r.method) == (u.sign_at(j) > 0, "archimedean-sign")
        with pytest.raises(InvalidInputError):
            local_norm_test(EXT, ALPHA, F.real_place_count)

    @pytest.mark.parametrize(
        "place", [True, 1.0, "1", -1, F.real_place_count, None, (2, 0)],
        ids=["bool", "float", "str", "negative", "real_place_count", "none", "tuple"],
    )
    def test_refuses_what_is_neither_a_finite_place_nor_an_index(self, place):
        with pytest.raises(InvalidInputError):
            local_norm_test(EXT, ALPHA, place)

    def test_split_place_accepts_everything(self):
        r = local_norm_test(EXT, ALPHA - 4, place_above(F, 37))
        assert r.is_norm and r.method == "split"

    def test_inert_place_checks_valuation_parity(self):
        ext = CMExtension(RATIONALS, RATIONALS.from_rational(-3))
        v = place_above(RATIONALS, 2)
        assert not local_norm_test(ext, RATIONALS.from_rational(2), v)
        r = local_norm_test(ext, RATIONALS.from_rational(12), v)
        assert r.is_norm and r.method == "unramified-valuation"

    def test_ramified_dyadic_symbols(self):
        v = place_above(F, 2)
        expected = {  # frozen symbols of (-1, u) at the dyadic place
            "alpha": False,
            "alpha^2-2": False,
            "two": True,
            "alpha-4": False,
        }
        elements = {
            "alpha": ALPHA,
            "alpha^2-2": ALPHA * ALPHA - 2,
            "two": F.from_rational(2),
            "alpha-4": ALPHA - 4,
        }
        for name, u in elements.items():
            r = local_norm_test(EXT, u, v)
            assert r.is_norm == expected[name], name
            assert r.method == "hensel-lift"

    def test_tame_ramified_quadratic(self):
        ext = CMExtension(RATIONALS, RATIONALS.from_rational(-37))
        v = place_above(RATIONALS, 37)
        assert local_norm_test(ext, RATIONALS.from_rational(-1), v).is_norm
        assert not local_norm_test(ext, RATIONALS.from_rational(2), v).is_norm

    def test_rational_arguments_coerce(self):
        assert local_norm_test(EXT, 2, place_above(F, 2)).is_norm

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            local_norm_test(EXT, 0, place_above(F, 2))

    @pytest.mark.parametrize("u", [RATIONALS.from_rational(2), 0.5, "2"])
    def test_foreign_and_inexact_arguments_rejected(self, u):
        with pytest.raises(InvalidInputError):
            local_norm_test(EXT, u, place_above(F, 2))
        with pytest.raises(InvalidInputError):
            hilbert_product_check(EXT, u)

    def test_result_is_truthy(self):
        # the answer is the symbol (delta, u)_v itself, true exactly when +1
        v = place_above(F, 2)
        entry = local_norm_test(EXT, 2, v)
        assert entry == PlaceSymbolEntry(v.label(), 1, "hensel-lift") and bool(entry)
        entry = local_norm_test(EXT, ALPHA, v)
        assert entry == PlaceSymbolEntry(v.label(), -1, "hensel-lift") and not entry


class TestHilbertProductCheck:
    FROZEN_MINUS = [
        ("alpha", 2),
        ("alpha^2-2", 2),
        ("two", 0),
        ("alpha-4", 4),
    ]

    @staticmethod
    def element(name):
        return {
            "alpha": ALPHA,
            "alpha^2-2": ALPHA * ALPHA - 2,
            "two": F.from_rational(2),
            "alpha-4": ALPHA - 4,
        }[name]

    @pytest.mark.parametrize("name,minus", FROZEN_MINUS)
    def test_frozen_minus_counts(self, name, minus):
        report = hilbert_product_check(EXT, self.element(name))
        assert report.conclusive
        assert report.minus_count == minus
        assert report.minus_count_even is True

    def test_real_places_always_reported(self):
        report = hilbert_product_check(EXT, ALPHA)
        labels = [e.label for e in report.entries]
        assert labels[:3] == ["real place 0", "real place 1", "real place 2"]
        assert "2#0" in labels

    def test_norm_of_cm_element_is_everywhere_local_norm(self):
        # the relative norm of a + b sqrt(delta) is a^2 - delta b^2
        a, b = ALPHA, ALPHA * ALPHA - 2
        report = hilbert_product_check(EXT, a * a - EXT.delta * b * b)
        assert report.conclusive and report.minus_count == 0

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            hilbert_product_check(EXT, 0)

    @given(st.tuples(*[st.integers(-9, 9)] * 3))
    @settings(max_examples=60, deadline=None)
    def test_product_formula_over_the_cubic(self, coords):
        u = F.element(coords)
        if u.is_zero():
            return
        report = hilbert_product_check(EXT, u)
        assert report.conclusive
        assert report.minus_count % 2 == 0

    def test_random_rational_coordinates(self):
        rng = random.Random(99)
        for _ in range(25):
            coords = tuple(
                Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(3)
            )
            u = F.element(coords)
            if u.is_zero():
                continue
            report = hilbert_product_check(EXT, u)
            assert report.conclusive and report.minus_count % 2 == 0

    def test_summaries_are_read_off_the_entries(self):
        reports = [hilbert_product_check(ext, u) for ext, u in census_samples()]
        for report in reports:
            symbols = [e.symbol for e in report.entries]
            unknown = tuple(e.label for e in report.entries if e.symbol is None)
            assert report.unknown_labels == unknown
            assert report.minus_count == symbols.count(-1)
            assert report.conclusive == (None not in symbols)
            assert report.minus_count_even == (
                report.minus_count % 2 == 0 if report.conclusive else None
            )
        # the samples reach unknown entries, -1 symbols and conclusive reports
        assert any(r.unknown_labels for r in reports) and any(r.minus_count for r in reports)
        assert any(r.conclusive for r in reports)


class TestNormClassEqual:
    # 2 divides the index of Z[sqrt 5], so every product check there is
    # refused at the place above 2; only the trivial cases are decided
    ROOT5 = NumberField(Polynomial((-5, 0, 1)))
    EXT5 = CMExtension(ROOT5, ROOT5.from_rational(-1))

    @pytest.mark.parametrize("a, b", [((0, 1), (0, 1)), ((3, 0), (27, 0)), ((0, -4), (0, -9))])
    def test_rational_square_ratio_needs_no_product_check(self, a, b, monkeypatch):
        def refused(ext, u):
            raise AssertionError("product check run")

        monkeypatch.setattr(local, "hilbert_product_check", refused)
        assert local.norm_class_equal(self.EXT5, self.ROOT5.element(a), self.ROOT5.element(b))

    @pytest.mark.parametrize("a, b", [((3, 0), (1, 0)), ((-1, 0), (1, 0)), ((0, 1), (1, 0))])
    def test_other_ratios_reach_the_product_check(self, a, b):
        with pytest.raises(InconclusiveError, match="undecided at: prime 2"):
            local.norm_class_equal(self.EXT5, self.ROOT5.element(a), self.ROOT5.element(b))
