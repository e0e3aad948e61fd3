"""Number field arithmetic: signs, norms, units, automorphisms, CM extensions.

Frozen values were computed by the package itself and cross-checked against
independent facts (norm = resultant identities, classical Galois behavior of
small fields, hand expansion of low-degree products).
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import (
    _halve_toward_root,
    _mul,
    _value,
    fraction_field_inverse,
    fraction_field_product,
    fraction_isolate_real_roots,
    fraction_rational_roots,
    fraction_value_range,
    kronecker_factor,
    quartic_automorphism_count,
    sieve_root_bound,
    sylvester_resultant,
)
from latcert import intfactor, number_field, polynomials
from latcert.errors import InvalidInputError
from latcert.number_field import (
    CMExtension,
    FieldElement,
    GaloisClosure,
    NumberField,
    _automorphism_upper_bound,
    _shifted_norm,
    automorphism_count,
    is_rational_square,
)
from latcert.polynomials import (
    Polynomial,
    _has_integer_root,
    _resolvent,
    is_irreducible,
    squarefree_factors,
)
from latcert.search import SearchConfig, candidate_polynomials, field_candidates

CUBIC = NumberField(Polynomial((1, -3, -1, 1)))  # x^3 - x^2 - 3x + 1
ALPHA = CUBIC.generator()
SEXTIC_COEFFS = (-148, 0, 100, 0, -20, 0, 1)
# x^4 + 2x^3 - 3x^2 - 2x + 1: one nontrivial automorphism
AUT2_QUARTIC = NumberField(Polynomial((1, -2, -3, 2, 1)))

# One field per degree for the Fraction oracles of *, inverse() and norm()
ORACLE_FIELDS = (
    NumberField(Polynomial((-3, 1))),
    NumberField(Polynomial((1, 1, 1))),
    CUBIC,
    AUT2_QUARTIC,
    NumberField(Polynomial(SEXTIC_COEFFS)),
)
# Tails (a0, a1, a2, a3) of quartics x^4 + a3 x^3 + ... + a0, which each test
# keeps only when irreducible; the family x^4 + b x^2 + d reaches the D4, C4
# and V4 cases often.
QUARTIC_TAILS = st.one_of(
    st.tuples(*[st.integers(-6, 6)] * 4),
    st.tuples(st.integers(-12, 12), st.just(0), st.integers(-12, 12), st.just(0)),
)
# Tails of (x^2 + p x + q)(x^2 + r x + s), the quartics with two quadratic
# factors
QUADRATIC_PRODUCT_TAILS = st.builds(
    lambda p, q, r, s: (q * s, p * s + q * r, q + s + p * r, p + r),
    *[st.integers(-6, 6)] * 4,
)
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
# All irreducible totally real quartics x^4 + a3 x^3 + ... + a0 with
# |a_i| <= 3, keyed by (a0, a1, a2, a3, 1), with their automorphism counts.
TOTALLY_REAL_QUARTICS_BOUND_3 = {
    (1, -3, -3, 3, 1): 2,
    (1, -3, -2, 2, 1): 2,
    (1, -3, -1, 3, 1): 4,
    (1, -2, -3, 2, 1): 2,
    (1, -2, -2, 3, 1): 2,
    (1, -1, -3, 1, 1): 2,
    (1, 1, -3, -1, 1): 2,
    (1, 2, -3, -2, 1): 2,
    (1, 2, -2, -3, 1): 2,
    (1, 3, -3, -3, 1): 2,
    (1, 3, -2, -2, 1): 2,
    (1, 3, -1, -3, 1): 4,
    (2, -3, -3, 2, 1): 1,
    (2, 3, -3, -2, 1): 1,
}
# Totally real fields whose signs and place intervals are checked: three
# cubics (two of them cyclic), the sextic, and the degree-4 census above.
SIGN_FIELDS = ((1, -3, -1, 1), (-1, -3, 0, 1), (1, -2, -1, 1), SEXTIC_COEFFS) + tuple(
    TOTALLY_REAL_QUARTICS_BOUND_3
)


@st.composite
def sign_cases(draw):
    """A totally real field, up to three elements and an order of its places."""
    coeffs = draw(st.sampled_from(SIGN_FIELDS))
    n = len(coeffs) - 1
    coords = st.lists(SMALL_FRACTIONS, min_size=n, max_size=n)
    return coeffs, draw(st.lists(coords, min_size=1, max_size=3)), draw(st.permutations(range(n)))


@st.composite
def sign_histories(draw):
    """A totally real field, up to three elements, and a sequence of
    (element, place) sign evaluations in any order, repeats allowed."""
    coeffs, elements, _ = draw(sign_cases())
    n = len(coeffs) - 1
    calls = st.tuples(st.integers(0, len(elements) - 1), st.integers(0, n - 1))
    return coeffs, elements, draw(st.lists(calls, max_size=12))


def _trager_count(p):
    """Trager's count for monic integer p of degree n: the number of degree-n
    factors over Q of the first squarefree shifted norm N_s, s >= 2."""
    s = 2
    while (factors := squarefree_factors(_shifted_norm(p, s))) is None:
        s += 1
    return sum(1 for g in factors if len(g) == len(p))


def _oracle_place_intervals(coeffs):
    """The Fraction oracle's isolating brackets, each halved until 0 lies
    outside it."""
    p = [Fraction(c) for c in coeffs]
    out = []
    for lo, hi in fraction_isolate_real_roots(p):
        cell = [lo, hi]
        while cell[0] <= 0 <= cell[1]:
            _halve_toward_root(p, cell)
        out.append(tuple(cell))
    return out


def _oracle_signs(coeffs, coords):
    """Signs of one element at each real place: its Fraction enclosure over
    the oracle's own copy of each bracket, halved until it excludes 0."""
    p = [Fraction(c) for c in coeffs]
    signs = []
    for lo, hi in fraction_isolate_real_roots(p):
        if not any(coords):
            signs.append(0)
            continue
        cell = [lo, hi]
        vlo, vhi = fraction_value_range(coords, *cell)
        while vlo <= 0 <= vhi:
            _halve_toward_root(p, cell)
            vlo, vhi = fraction_value_range(coords, *cell)
        signs.append(1 if vlo > 0 else -1)
    return tuple(signs)


class TestConstruction:
    def test_rejects_non_monic(self):
        with pytest.raises(InvalidInputError):
            NumberField(Polynomial((1, 0, 2)))

    def test_rejects_reducible(self):
        with pytest.raises(InvalidInputError):
            NumberField(Polynomial((-1, 0, 1)))  # x^2 - 1

    def test_rejects_fractional_coefficients(self):
        with pytest.raises(ValueError):
            NumberField(Polynomial((Fraction(1, 2), 0, 1)))

    def test_rejects_constant(self):
        with pytest.raises(InvalidInputError):
            NumberField(Polynomial((3,)))

    @pytest.mark.parametrize(
        "coeffs, disc",
        [((7, 1), 1), ((-2, 0, 1), 8), ((1, -3, -1, 1), 148), ((2, -3, -3, 2, 1), 2777),
         ((-1, -1, 0, 0, 0, 1), 2869)],
        ids=["linear", "quadratic", "cubic", "quartic", "quintic"],
    )
    def test_discriminant_of_the_defining_polynomial(self, coeffs, disc):
        assert NumberField(Polynomial(coeffs)).discriminant == disc

    def test_a_forty_one_digit_constant_term_factors_no_integer(self):
        # N is the product of two 21-digit primes, which no rational root
        # test could factor in time; the integer roots of f and of its
        # resolvent cubic come from an l-adic lift
        p, q = 10**20 + 39, 3 * 10**20 + 53
        start = time.perf_counter()
        field = NumberField(Polynomial((p * q, 0, -(10**22), 0, 1)))
        elapsed = time.perf_counter() - start
        assert field.degree == field.real_place_count == 4
        assert elapsed < 1, elapsed

    def test_building_a_field_factors_no_integer(self, monkeypatch):
        candidates = candidate_polynomials(3, 4) + candidate_polynomials(4, 4)

        def refused(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(intfactor, "prime_factors", refused)
        bound = {
            name for name, value in vars(polynomials).items()
            if getattr(value, "__module__", None) == intfactor.__name__
        }
        assert bound == {"is_prime"}
        built = refused_count = 0
        for coeffs in candidates:
            try:
                NumberField(Polynomial(coeffs))
                built += 1
            except InvalidInputError:  # reducible
                refused_count += 1
        assert (built, refused_count) == (200, 427)

    def test_degree_and_discriminant(self):
        assert CUBIC.degree == 3
        assert CUBIC.discriminant == 148
        assert not is_rational_square(CUBIC.discriminant)

    def test_wrong_coordinate_length(self):
        with pytest.raises(InvalidInputError):
            CUBIC.element((1, 2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CUBIC.element((0.1, 0, 0)),
            lambda: CUBIC.element(("1/2", 0, 0)),
            lambda: CUBIC.from_rational(0.5),
        ],
        ids=["float-coordinate", "string-coordinate", "float-rational"],
    )
    def test_rejects_inexact_coordinates(self, build):
        with pytest.raises(InvalidInputError):
            build()


class TestRealPlaces:
    def test_three_real_places_in_ascending_order(self):
        assert CUBIC.real_place_count == 3
        ivs = CUBIC.real_place_intervals()
        assert len(ivs) == 3
        assert all(iv.lo < iv.hi for iv in ivs)
        assert all(ivs[i].hi <= ivs[i + 1].lo for i in range(2))

    def test_totally_real(self):
        assert CUBIC.is_totally_real()
        assert not NumberField(Polynomial((-2, 0, 0, 1))).is_totally_real()

    def test_generator_signs(self):
        # the three roots: one below -1, one in (0,1), one above 2
        assert ALPHA.signs() == (-1, 1, 1)

    def test_sign_at_accepts_place_or_index(self):
        # a real place is its index in the ascending order
        assert ALPHA.sign_at(0) == -1
        assert ALPHA.sign_at(2) == 1
        for j in (-1, 3):
            with pytest.raises(InvalidInputError):
                ALPHA.sign_at(j)

    @pytest.mark.parametrize(
        "j", [True, 1.0, "1", -1, CUBIC.real_place_count],
        ids=["bool", "float", "str", "negative", "real_place_count"],
    )
    def test_sign_at_refuses_what_is_not_a_place_index(self, j):
        with pytest.raises(InvalidInputError):
            ALPHA.sign_at(j)

    def test_signs_of_second_unit(self):
        u = ALPHA * ALPHA - 2
        assert u.signs() == (1, -1, 1)

    def test_rational_sign(self):
        assert CUBIC.from_rational(Fraction(-3, 7)).signs() == (-1, -1, -1)

    def test_zero_sign(self):
        assert CUBIC.zero().signs() == (0, 0, 0)

    def test_intervals_after_signs_are_pinned(self):
        # Certificates record these canonical intervals: each isolating cell
        # halved until 0 lies outside it, where the generator's sign is
        # decided. Sign evaluations leave them as they are.
        field = NumberField(Polynomial((2, -3, -3, 2, 1)))
        assert field.generator().signs() == (-1, -1, 1, 1)
        assert [(iv.lo, iv.hi) for iv in field.real_place_intervals()] == [
            (-3, Fraction(-5, 2)),
            (-2, -1),
            (Fraction(1, 2), Fraction(3, 4)),
            (1, Fraction(3, 2)),
        ]

    def test_sign_of_element_with_fractional_coordinates(self):
        field = NumberField(Polynomial((1, -3, -1, 1)))
        coords = [Fraction(1, 3), Fraction(-1, 2), Fraction(0)]
        u = field.element(coords)
        assert u.signs() == (1, 1, -1)
        assert u.signs() == _oracle_signs(field.min_poly.coeffs, coords)
        ivs = field.real_place_intervals()
        assert [(iv.lo, iv.hi) for iv in ivs] == [(-2, -1), (Fraction(1, 4), Fraction(1, 2)), (2, 4)]

    def test_degree_one_field_signs_come_from_the_point_cell(self):
        field = NumberField(Polynomial((-3, 1)))
        assert field.generator().signs() == (1,)
        assert field.from_rational(Fraction(-7, 2)).signs() == (-1,)
        assert field.zero().signs() == (0,)
        assert [(iv.lo, iv.hi) for iv in field.real_place_intervals()] == [(3, 3)]

    @given(sign_cases())
    @settings(max_examples=60, deadline=None)
    def test_signs_agree_across_place_orders_and_with_the_oracle(self, case):
        coeffs, elements, order = case
        ascending, shuffled = NumberField(Polynomial(coeffs)), NumberField(Polynomial(coeffs))
        signs = [ascending.element(coords).signs() for coords in elements]
        for coords, expected in zip(elements, signs):
            y = shuffled.element(coords)
            assert [y.sign_at(j) for j in order] == [expected[j] for j in order]
            assert expected == _oracle_signs(coeffs, coords)

    @given(sign_histories())
    @settings(max_examples=60, deadline=None)
    def test_place_intervals_do_not_depend_on_sign_history(self, case):
        coeffs, elements, calls = case
        canonical = _oracle_place_intervals(coeffs)
        read_first, signs_first = NumberField(Polynomial(coeffs)), NumberField(Polynomial(coeffs))
        before = read_first.real_place_intervals()
        for field in (read_first, signs_first):
            for k, j in calls:
                field.element(elements[k]).sign_at(j)
        assert read_first.real_place_intervals() == before
        for field in (read_first, signs_first):
            assert [(iv.lo, iv.hi) for iv in field.real_place_intervals()] == canonical
            assert all(type(cell) is tuple for cell in field._root_cells)
            assert type(field._root_cells) is tuple


class TestArithmetic:
    def test_norm_of_generator(self):
        assert ALPHA.norm() == -1

    def test_norm_of_second_unit(self):
        assert (ALPHA * ALPHA - 2).norm() == -1

    def test_norm_of_rational(self):
        assert CUBIC.from_rational(-1).norm() == -1
        assert CUBIC.from_rational(2).norm() == 8

    def test_norm_of_alpha_plus_one(self):
        assert (ALPHA + 1).norm() == -2

    def test_units(self):
        assert ALPHA.is_unit()
        assert (ALPHA * ALPHA - 2).is_unit()
        assert not (ALPHA + 1).is_unit()
        assert not CUBIC.from_rational(2).is_unit()

    def test_is_unit_requires_integral_coordinates(self):
        with pytest.raises(InvalidInputError):
            CUBIC.element((Fraction(1, 2), 0, 0)).is_unit()

    def test_inverse_roundtrip(self):
        for u in (ALPHA, ALPHA * ALPHA - 2, ALPHA + 1, CUBIC.from_rational(7)):
            assert (u * u.inverse() - 1).is_zero()

    def test_inverse_of_zero(self):
        with pytest.raises(InvalidInputError):
            CUBIC.zero().inverse()

    def test_division(self):
        w = (ALPHA + 1) / (ALPHA - 1)
        assert (w * (ALPHA - 1) - (ALPHA + 1)).is_zero()

    def test_power_reduction(self):
        # alpha^4 = 4 alpha^2 + 2 alpha - 1 follows from the minimal polynomial
        assert (ALPHA**4).coords == (Fraction(-1), Fraction(2), Fraction(4))

    def test_negative_power(self):
        assert ((ALPHA**-2) * ALPHA**2 - 1).is_zero()

    @given(
        st.tuples(*[st.integers(-8, 8)] * 3),
        st.tuples(*[st.integers(-8, 8)] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_is_multiplicative(self, xs, ys):
        x, y = CUBIC.element(xs), CUBIC.element(ys)
        assert (x * y).norm() == x.norm() * y.norm()

    def test_mixed_scalar_arithmetic(self):
        assert (Fraction(1, 2) * ALPHA + ALPHA).coords == (0, Fraction(3, 2), 0)
        assert (1 - ALPHA) + (ALPHA - 1) == CUBIC.zero()

    def test_integral_form(self):
        e = CUBIC.element((Fraction(1, 2), Fraction(-2, 3), 5))
        assert (e.num, e.den) == ((3, -4, 30), 6)
        assert (CUBIC.zero().num, CUBIC.zero().den) == ((0, 0, 0), 1)

    @given(
        st.sampled_from(ORACLE_FIELDS).flatmap(
            lambda field: st.tuples(
                st.just(field),
                *[st.lists(SMALL_FRACTIONS, min_size=field.degree, max_size=field.degree)] * 2,
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_integer_core_matches_the_fraction_oracles(self, case):
        field, xs, ys = case
        p = list(field.min_poly.coeffs)
        x, y = field.element(xs), field.element(ys)
        assert list((x * y).coords) == fraction_field_product(xs, ys, p)
        # One canonical form per element, so equal values are equal and
        # hash equal however they were reached.
        same = [(x + y) - y, field.element(Fraction(3 * c, 3 * x.den) for c in x.num)]
        if not y.is_zero():
            same.append(x * y / y)
        for z in same:
            assert z == x and hash(z) == hash(x)
        for z in same + [x, y, x * y, x + y, -x]:
            assert z.den > 0 and math.gcd(z.den, *z.num) == 1
            assert z.coords == tuple(Fraction(c, z.den) for c in z.num)
        twin = NumberField(Polynomial(p))
        assert twin == field and hash(twin) == hash(field)
        assert twin.element(xs) == x and hash(twin.element(xs)) == hash(x)
        for num, den in (
            (tuple(2 * c for c in x.num), 2 * x.den),
            (tuple(-c for c in x.num), -x.den),
            (tuple(Fraction(c) for c in x.num), x.den),
        ):
            with pytest.raises(InvalidInputError):
                FieldElement(field, num, den)
        if x.is_zero():
            assert x.norm() == 0
            return
        inverse = x.inverse()
        assert inverse.den > 0 and math.gcd(inverse.den, *inverse.num) == 1
        assert list(inverse.coords) == fraction_field_inverse(xs, p)
        trimmed = list(Polynomial(xs).coeffs)
        assert x.norm() == sylvester_resultant(p, trimmed)


    @given(
        st.sampled_from(ORACLE_FIELDS).flatmap(
            lambda field: st.tuples(
                st.just(field),
                *[st.lists(SMALL_FRACTIONS, min_size=field.degree, max_size=field.degree)] * 2,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_results_are_what_the_validating_constructor_builds(self, case):
        # sums, products and inverses skip the constructor's checks, so each
        # must equal the element it builds from the oracle's coordinates
        field, xs, ys = case
        p = list(field.min_poly.coeffs)
        x, y = field.element(xs), field.element(ys)
        pairs = [
            (x + y, [a + b for a, b in zip(xs, ys)]),
            (x * y, fraction_field_product(xs, ys, p)),
        ]
        if not x.is_zero():
            pairs.append((x.inverse(), fraction_field_inverse(xs, p)))
        for got, coords in pairs:
            den = math.lcm(*(c.denominator for c in coords))
            num = tuple(c.numerator * (den // c.denominator) for c in coords)
            built = FieldElement(field, num, den)
            assert (got.field, got.num, got.den) == (built.field, built.num, built.den)
            assert type(got.num) is tuple and all(type(c) is int for c in (got.den, *got.num))


class TestAutomorphismCount:
    def test_cubic_with_non_square_discriminant(self):
        assert automorphism_count(CUBIC) == 1

    def test_cyclic_cubic(self):
        assert automorphism_count(NumberField(Polynomial((-1, -3, 0, 1)))) == 3

    def test_quadratic(self):
        assert automorphism_count(NumberField(Polynomial((-2, 0, 1)))) == 2

    def test_rational(self):
        assert automorphism_count(NumberField(Polynomial((5, 1)))) == 1

    def test_biquadratic_quartic(self):
        # Q(sqrt2, sqrt3) is Galois with group V4
        assert automorphism_count(NumberField(Polynomial((1, 0, -10, 0, 1)))) == 4

    def test_cyclic_quartic(self):
        # Q(sqrt(2 + sqrt2)) is Galois with group C4
        assert automorphism_count(NumberField(Polynomial((2, 0, -4, 0, 1)))) == 4

    def test_generic_quartic(self):
        assert automorphism_count(NumberField(Polynomial((1, 1, -4, 0, 1)))) == 1

    def test_generic_quintic_decided_by_the_sieve(self, monkeypatch):
        # x^5 - x - 1: the mod-l sieve alone settles it; the norm method is
        # never reached
        def no_norm(*args, **kwargs):
            raise AssertionError("the sieve should decide this field")

        field = NumberField(Polynomial((-1, -1, 0, 0, 0, 1)))
        assert _automorphism_upper_bound(field) == 1
        monkeypatch.setattr(number_field, "_shifted_norm", no_norm)
        monkeypatch.setattr(number_field, "squarefree_factors", no_norm)
        assert automorphism_count(field) == 1

    def test_quartics_never_reach_the_norm_method(self, monkeypatch):
        # every quartic the search keeps is settled by a sieve prime
        def no_norm(*args, **kwargs):
            raise AssertionError("the sieve should decide a kept quartic")

        monkeypatch.setattr(number_field, "_shifted_norm", no_norm)
        for bound, kept in ((3, 2), (4, 50)):
            fields = list(field_candidates(SearchConfig(degree=4, coefficient_bound=bound)))
            assert len(fields) == kept

    def test_quartics_with_automorphisms_reach_the_norm_method(self, monkeypatch):
        # the sieve settles a count of 1; any other count is Trager's
        normed = set()
        original = number_field._shifted_norm

        def spy(p, s):
            normed.add(p)
            return original(p, s)

        monkeypatch.setattr(number_field, "_shifted_norm", spy)
        for coeffs, count in TOTALLY_REAL_QUARTICS_BOUND_3.items():
            assert automorphism_count(NumberField(Polynomial(coeffs))) == count
        # x^4 - 2 (D4)
        assert automorphism_count(NumberField(Polynomial((-2, 0, 0, 0, 1)))) == 2
        expected = {c for c, count in TOTALLY_REAL_QUARTICS_BOUND_3.items() if count != 1}
        assert normed == expected | {(-2, 0, 0, 0, 1)}

    def test_quartic_with_one_nontrivial_automorphism(self):
        assert _automorphism_upper_bound(AUT2_QUARTIC) == 2
        assert automorphism_count(AUT2_QUARTIC) == 2

    @pytest.mark.parametrize("coeffs", sorted(TOTALLY_REAL_QUARTICS_BOUND_3))
    def test_totally_real_quartics_at_bound_3(self, coeffs):
        field = NumberField(Polynomial(coeffs))
        assert automorphism_count(field) == TOTALLY_REAL_QUARTICS_BOUND_3[coeffs]

    def test_galois_sextic(self):
        assert automorphism_count(NumberField(Polynomial(SEXTIC_COEFFS))) == 6

    @pytest.mark.parametrize("coeffs", [(-1, 0, 0, -1, 0, 0, 1), (-1, 0, 0, 1, 0, 0, 1)])
    def test_sextics_with_many_modular_factors(self, coeffs):
        # x^6 -+ x^3 - 1: the first prime that keeps the shifted norm
        # squarefree leaves many modular factors to recombine
        assert automorphism_count(NumberField(Polynomial(coeffs))) == 2

    def test_totally_complex_quartic(self):
        # Q(zeta_8) has no real place and is Galois with group V4
        assert automorphism_count(NumberField(Polynomial((1, 0, 0, 0, 1)))) == 4

    @given(st.integers(4, 5).flatmap(lambda n: st.tuples(*[st.integers(-6, 6)] * n)))
    # x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1, cyclic: the sieve bound is 5
    @example((1, 3, -3, -4, 1))
    @settings(max_examples=25, deadline=None)
    def test_sieve_bound_dominates_exact_count(self, tail):
        poly = Polynomial(tail + (1,))
        assume(is_irreducible(poly))
        field = NumberField(poly)
        count = _trager_count(field.int_poly)
        assert 1 <= count <= _automorphism_upper_bound(field)
        assert automorphism_count(field) == count

    @given(st.integers(4, 6).flatmap(lambda n: st.tuples(*[st.integers(-6, 6)] * n)))
    @settings(max_examples=40, deadline=None)
    def test_sieve_counts_the_linear_factors_mod_l(self, tail):
        poly = Polynomial(tail + (1,))
        assume(is_irreducible(poly))
        field = NumberField(poly)
        disc = field.discriminant.numerator
        primes = number_field._AUTOMORPHISM_SIEVE_PRIMES
        assert _automorphism_upper_bound(field) == sieve_root_bound(field.int_poly, disc, primes)
        # one prime at a time, so that every prime's root count is compared
        for ell in primes:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(number_field, "_AUTOMORPHISM_SIEVE_PRIMES", (ell,))
                bound = _automorphism_upper_bound(field)
            assert bound == sieve_root_bound(field.int_poly, disc, (ell,))

    @given(QUARTIC_TAILS)
    @settings(max_examples=40, deadline=None)
    def test_quartics_match_the_resolvent_cubic(self, tail):
        poly = Polynomial(tail + (1,))
        assume(is_irreducible(poly))
        assert automorphism_count(NumberField(poly)) == quartic_automorphism_count(*tail)

    @given(QUARTIC_TAILS)
    # C4, D4 with the resolvent root 0, and V4
    @example((2, 0, -4, 0))
    @example((-2, 0, 0, 0))
    @example((1, 0, -10, 0))
    @settings(max_examples=40, deadline=None)
    def test_quartics_match_the_norm_method(self, tail):
        poly = Polynomial(tail + (1,))
        assume(is_irreducible(poly))
        field = NumberField(poly)
        assert automorphism_count(field) == _trager_count(field.int_poly)


class TestResolventRoots:
    @pytest.mark.parametrize(
        "tail, roots",
        [
            ((6, 0, -5, 0), [-5]),  # (x^2 - 2)(x^2 - 3): g(0) + h(0) = -5
            ((1, 1, 0, 0), []),  # x^4 + x + 1, S4
            ((12, 8, 0, 0), []),  # x^4 + 8x + 12, A4
            ((-2, 0, 0, 0), [0]),  # x^4 - 2, D4
            ((2, 0, -4, 0), [-4]),  # C4
            ((1, 0, -10, 0), [-10, -2, 2]),  # V4
        ],
    )
    def test_frozen(self, tail, roots):
        r = _resolvent(tail + (1,))
        assert fraction_rational_roots([Fraction(c) for c in r]) == roots
        assert _has_integer_root(r) == bool(roots)

    @given(st.one_of(QUARTIC_TAILS, QUADRATIC_PRODUCT_TAILS))
    @example((6, 0, -5, 0))
    @example((1, 1, 0, 0))
    @example((12, 8, 0, 0))
    @example((-2, 0, 0, 0))
    @example((2, 0, -4, 0))
    @example((1, 0, -10, 0))
    @settings(max_examples=150, deadline=None)
    def test_rational_root_means_reducible_or_automorphisms(self, tail):
        # for a squarefree quartic without a rational root, R has a rational
        # root exactly when f is a product of two quadratics or #Aut != 1;
        # squarefree_factors reads R itself, so Kronecker's search decides
        # the quadratic factors
        factors = squarefree_factors(tail + (1,))
        assume(factors is not None and all(len(g) > 2 for g in factors))
        quadratic = kronecker_factor(list(tail) + [1], 2) is not None
        dropped = quadratic or quartic_automorphism_count(*tail) != 1
        assert _has_integer_root(_resolvent(tail + (1,))) == dropped


class TestShiftedNorm:
    def test_frozen_quadratic(self):
        # roots +-sqrt(2) +- 2 sqrt(2): (x^2 - 18)(x^2 - 2)
        assert _shifted_norm((-2, 0, 1), 2) == (36, 0, -20, 0, 1)

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        st.integers(2, 4),
        st.sampled_from(("below", "last", "beyond")),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_sylvester_off_the_nodes(self, tail, s, where):
        # N_s is interpolated at 0, ..., n^2 - 1; check it elsewhere.
        p = tuple(tail) + (1,)
        size = (len(p) - 1) ** 2
        x0 = {"below": -1, "last": size, "beyond": size + 1}[where]
        moved = [Fraction(p[-1])]
        for c in reversed(p[:-1]):
            moved = _mul(moved, [x0, -s])
            moved[0] += c
        expected = sylvester_resultant(list(map(Fraction, p)), moved)
        assert _value(_shifted_norm(p, s), x0) == expected


class TestCMExtension:
    def test_accepts_totally_negative_rational(self):
        ext = CMExtension(CUBIC, CUBIC.from_rational(-1))
        assert ext.delta.is_totally_negative()

    def test_rejects_mixed_sign_delta(self):
        with pytest.raises(InvalidInputError):
            CMExtension(CUBIC, ALPHA)

    def test_rejects_non_totally_real_base(self):
        complex_cubic = NumberField(Polynomial((-2, 0, 0, 1)))
        with pytest.raises(InvalidInputError):
            CMExtension(complex_cubic, complex_cubic.from_rational(-1))

    def test_rejects_zero_delta(self):
        with pytest.raises(InvalidInputError):
            CMExtension(CUBIC, CUBIC.zero())


class TestGaloisClosure:
    CLOSURE_FIELD = NumberField(Polynomial(SEXTIC_COEFFS))
    # images of the cubic generator under the three embeddings into the closure
    EMBEDDINGS = (
        (Fraction(67), 0, Fraction(-25), 0, Fraction(3, 2), 0),
        (Fraction(-33), Fraction(1, 2), Fraction(25, 2), 0, Fraction(-3, 4), 0),
        (Fraction(-33), Fraction(-1, 2), Fraction(25, 2), 0, Fraction(-3, 4), 0),
    )

    def closure(self) -> GaloisClosure:
        images = tuple(self.CLOSURE_FIELD.element(c) for c in self.EMBEDDINGS)
        return GaloisClosure(CUBIC, self.CLOSURE_FIELD, images)

    def test_all_embeddings_verify(self):
        assert self.closure().verify_all() == (True, True, True)

    def test_corrupted_embedding_fails(self):
        broken = list(self.EMBEDDINGS)
        broken[1] = (Fraction(-33), Fraction(1, 2), Fraction(25, 2), 0, Fraction(-3, 4), Fraction(1))
        images = tuple(self.CLOSURE_FIELD.element(c) for c in broken)
        closure = GaloisClosure(CUBIC, self.CLOSURE_FIELD, images)
        assert closure.verify_embedding(1) is False

    def test_rejects_repeated_images(self):
        images = tuple(self.CLOSURE_FIELD.element(c) for c in self.EMBEDDINGS)
        with pytest.raises(InvalidInputError):
            GaloisClosure(CUBIC, self.CLOSURE_FIELD, (images[0], images[0], images[2]))

    def test_a_list_of_images_is_kept_as_a_tuple(self):
        # the caller's list cannot slip a repeated image past the check
        images = [self.CLOSURE_FIELD.element(c) for c in self.EMBEDDINGS]
        closure = GaloisClosure(CUBIC, self.CLOSURE_FIELD, images)
        images.append(images[0])
        assert closure.embeddings == tuple(images[:3])
        assert closure.verify_all() == (True, True, True)
        hash(closure)

    @pytest.mark.parametrize("images", [5, None])
    def test_non_iterable_images_are_refused(self, images):
        with pytest.raises(InvalidInputError):
            GaloisClosure(CUBIC, CUBIC, images)

    def test_closure_is_galois_over_q(self):
        assert automorphism_count(self.CLOSURE_FIELD) == 6


def test_import_loads_no_mpmath():
    # the package under test, whatever sys.path pytest was given
    src = str(Path(number_field.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import latcert; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
