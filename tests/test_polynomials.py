"""Exact polynomial layer: resultants, Sturm counts, isolation, irreducibility.

Frozen expected values were computed ahead of time with the independent
oracles in _oracles.py (Sylvester determinants and rational sign scans),
never with the code under test.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    _mul,
    _value,
    distinct_real_root_count,
    fraction_isolate_real_roots,
    fraction_rational_roots,
    fraction_value_range,
    hankel_leading_minors,
    kronecker_factor,
    sign_scan_roots,
    sylvester_resultant,
)
from latcert import intfactor, modular, polynomials
from latcert.errors import InvalidInputError
from latcert.intfactor import is_prime
from latcert.polynomials import (
    Interval,
    Polynomial,
    _gcd,
    _hankel_is_positive_definite,
    _has_integer_root,
    _integer_associate,
    _integer_roots,
    _monic_transform,
    _resolvent,
    _sign_variations,
    _squarefree,
    _sturm_chain,
    discriminant,
    has_only_simple_real_roots,
    interval_value_range,
    is_irreducible,
    isolate_real_roots,
    refine_interval,
    resultant,
    squarefree_factors,
)

P_CUBIC = Polynomial.from_string("1,-3,-1,1")  # x^3 - x^2 - 3x + 1
Q_SEXTIC = Polynomial.from_string("-148,0,100,0,-20,0,1")

small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def poly_strategy(max_degree=4, ints=False):
    elems = st.integers(-9, 9) if ints else small_fractions
    return st.lists(elems, min_size=1, max_size=max_degree + 1).map(Polynomial)


class TestArithmetic:
    def test_string_roundtrip(self):
        assert P_CUBIC.to_string() == "1,-3,-1,1"
        assert Polynomial.from_string("3/2, -1").coeffs == (Fraction(3, 2), Fraction(-1))
        assert Polynomial.from_string("0").is_zero()
        with pytest.raises(InvalidInputError):
            Polynomial.from_string("1,,2")

    def test_degree_and_trim(self):
        assert Polynomial((1, 2, 0, 0)).degree() == 1
        assert Polynomial().degree() == -1
        assert Polynomial((0,)).is_zero()

    def test_primitive_integer(self):
        p = Polynomial((Fraction(1, 2), Fraction(3, 4)))
        assert _integer_associate(p) == (2, 3)
        q = Polynomial((-4, -8))
        assert _integer_associate(q) == (-1, -2)


class TestResultant:
    def test_two_linear(self):
        # Res(x-2, x-3) = -1 fixes the sign convention.
        assert resultant(Polynomial((-2, 1)), Polynomial((-3, 1))) == -1

    def test_frozen_cubic(self):
        assert resultant(P_CUBIC, P_CUBIC.derivative()) == -148
        assert discriminant(P_CUBIC) == 148

    def test_frozen_sextic(self):
        assert discriminant(Q_SEXTIC) == 3319595008
        # 3319595008 / 810448 = 4096 = 64^2: the two discriminant values
        # agree up to a rational square.
        assert Fraction(3319595008, 810448) == 4096

    def test_more_frozen_discriminants(self):
        assert discriminant(Polynomial.from_string("-1,-3,0,1")) == 81
        assert discriminant(Polynomial((1, 0, 1))) == -4
        assert discriminant(Polynomial((5, 3))) == 1  # linear convention

    def test_zero_conventions(self):
        zero = Polynomial()
        assert resultant(zero, P_CUBIC) == 0
        with pytest.raises(InvalidInputError):
            resultant(zero, zero)

    def test_constant_cases(self):
        assert resultant(Polynomial((7,)), P_CUBIC) == 7**3
        assert resultant(P_CUBIC, Polynomial((7,))) == 7**3

    # Rational coefficients reach non-monic and negative leading
    # coefficients and constant arguments on either side.
    @given(poly_strategy(max_degree=5), poly_strategy(max_degree=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_sylvester_oracle(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        ours = resultant(a, b)
        oracle = sylvester_resultant(list(a.coeffs), list(b.coeffs))
        assert ours == oracle

    @given(
        poly_strategy(max_degree=2, ints=True),
        poly_strategy(max_degree=2, ints=True),
        poly_strategy(max_degree=2, ints=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_multiplicative_in_second_argument(self, a, b, c):
        if a.is_zero() or b.is_zero() or c.is_zero():
            return
        assert resultant(a, _product([b.coeffs, c.coeffs])) == resultant(a, b) * resultant(a, c)


def _product(factors):
    """The Polynomial whose coefficients are the product of the coefficient
    sequences in factors, constant term first."""
    out = [1]
    for g in factors:
        out = _mul(out, list(g))
    return Polynomial(out)


def _core(p):
    """The primitive squarefree integer polynomial the root machinery runs on."""
    return _squarefree(_integer_associate(p))


def _sturm_count(p, lo, hi):
    # V(lo) - V(hi) counts the distinct real roots in (lo, hi], zeros of the
    # chain skipped, even when an endpoint is a root.
    chain = _sturm_chain(_core(p))
    return _sign_variations(chain, lo, 1) - _sign_variations(chain, hi, 1)


class TestSturm:
    def test_frozen_counts_cubic(self):
        # Real roots of the cubic sit near -1.48, 0.31, 2.17.
        assert _sturm_count(P_CUBIC, -2, 3) == 3
        assert _sturm_count(P_CUBIC, 0, 3) == 2
        assert _sturm_count(P_CUBIC, -2, 0) == 1
        assert _sturm_count(P_CUBIC, 1, 2) == 0

    def test_half_open_endpoints(self):
        p = Polynomial((-4, 0, 1))  # roots -2, 2
        assert _sturm_count(p, -2, 2) == 1  # -2 excluded, 2 included
        assert _sturm_count(p, -3, 2) == 2
        assert _sturm_count(p, -2, 1) == 0
        assert _sturm_count(p, 2, 2) == 0  # empty half-open interval

    def test_multiple_roots_counted_once(self):
        p = _product([(-1, 1)] * 3 + [(-5, 1)])
        assert _sturm_count(p, 0, 10) == 2

    def test_no_real_roots(self):
        assert _sturm_count(Polynomial((1, 0, 1)), -100, 100) == 0


class TestIsolation:
    def test_cubic_brackets_match_sign_scan(self):
        intervals = isolate_real_roots(P_CUBIC)
        assert len(intervals) == 3
        scan = sign_scan_roots(
            list(P_CUBIC.coeffs), Fraction(-10), Fraction(10), Fraction(1, 64)
        )
        assert len(scan) == 3
        for iv, (blo, bhi) in zip(intervals, scan):
            # Each isolated interval must agree with the scan bracket: they
            # overlap, and the scan bracket holds no other interval.
            assert iv.lo <= bhi and blo <= iv.hi

    def test_frozen_cubic_brackets(self):
        # Values from the independent sign scan at step 1/64.
        scan = sign_scan_roots(
            list(P_CUBIC.coeffs), Fraction(-10), Fraction(10), Fraction(1, 64)
        )
        assert scan == [
            (Fraction(-95, 64), Fraction(-47, 32)),
            (Fraction(19, 64), Fraction(5, 16)),
            (Fraction(69, 32), Fraction(139, 64)),
        ]

    def test_rational_roots_become_points(self):
        p = _product([(-1, 0, 1), (-2, 0, 1)])  # (x^2-1)(x^2-2)
        intervals = isolate_real_roots(p)
        assert len(intervals) == 4
        points = [iv for iv in intervals if iv.lo == iv.hi]
        assert sorted(iv.lo for iv in points) == [-1, 1]
        assert _endpoints(intervals) == fraction_isolate_real_roots(list(p.coeffs))

    def test_large_constant_terms_are_not_factored(self, monkeypatch):
        # the rational roots come from the l-adic lift of the monic
        # transform, whose cost does not grow with the prime factors of the
        # constant term; a divisor test would run Pollard rho on p q
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(intfactor, "prime_factors", refuse)
        assert _bound_from_intfactor() == {"is_prime"}
        p, q = 1000000000039, 3000000000013
        f = Polynomial((p * q, 0, -(10**26), 0, 1))
        intervals = isolate_real_roots(f)
        assert len(intervals) == 4
        for iv in intervals:
            lo, hi = (sum(c * x**i for i, c in enumerate(f.coeffs)) for x in (iv.lo, iv.hi))
            assert lo * hi < 0
        g = _product([(-p, 3), (q, 1), (-2, 0, 1)])  # (3x - p)(x + q)(x^2 - 2)
        intervals = isolate_real_roots(g)
        assert [(iv.lo, iv.hi) for iv in intervals if iv.lo == iv.hi] == [
            (-q, -q),
            (Fraction(p, 3), Fraction(p, 3)),
        ]
        assert len(intervals) == 4

    def test_disjoint_and_sorted(self):
        p = _product([(-2, 0, 1), (-1, 1), (1, 1)])
        intervals = isolate_real_roots(p)
        assert len(intervals) == 4
        for a, b in zip(intervals, intervals[1:]):
            assert a.hi < b.lo

    def test_repeated_roots_collapse(self):
        assert isolate_real_roots(Polynomial((0, 0, 1))) == (Interval(0, 0),)

    def test_sextic(self):
        assert len(isolate_real_roots(Q_SEXTIC)) == 6

    def test_no_real_roots(self):
        assert isolate_real_roots(Polynomial((1, 0, 1))) == ()

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_interval_count_matches_sturm(self, coeffs):
        p = Polynomial(coeffs)
        if p.is_zero() or p.degree() < 1:
            return
        intervals = isolate_real_roots(p)
        assert _endpoints(intervals) == fraction_isolate_real_roots(list(p.coeffs))
        for iv in intervals:
            if iv.lo == iv.hi:
                assert _value(p.coeffs, iv.lo) == 0
            else:
                assert _value(p.coeffs, iv.lo) != 0 and _value(p.coeffs, iv.hi) != 0


def _endpoints(intervals):
    return [(iv.lo, iv.hi) for iv in intervals]


@st.composite
def real_root_inputs(draw):
    """Degree 1-7: rational, non-monic coefficients, or a product of rational
    linear and integer quadratic factors, some of them repeated."""
    if draw(st.booleans()):
        lead = draw(small_fractions.filter(bool))
        tail = draw(st.lists(small_fractions, min_size=1, max_size=7))
        return Polynomial(tail + [lead])
    p = Polynomial((draw(st.sampled_from((1, -1, 2, -3, Fraction(5, 2)))),))
    linear = st.tuples(st.fractions(-4, 4, max_denominator=3), st.integers(1, 3))
    quadratic = st.tuples(st.integers(-5, 5), st.integers(-3, 3), st.integers(1, 2))
    factors = st.tuples(st.one_of(linear, quadratic), st.integers(1, 2))
    for factor, k in draw(st.lists(factors, min_size=1, max_size=4)):
        q = _product([p.coeffs] + [factor] * k)
        if q.degree() <= 7:
            p = q
    return p


class TestAgainstFractionOracle:
    # The integer core must reproduce the Fraction algorithm exactly: the
    # same endpoints and the same enclosures, not merely valid ones.

    @given(real_root_inputs())
    @settings(max_examples=150, deadline=None)
    def test_isolation_endpoints_match(self, p):
        assert _endpoints(isolate_real_roots(p)) == fraction_isolate_real_roots(list(p.coeffs))

    @given(
        real_root_inputs(),
        st.fractions(-6, 6, max_denominator=40),
        st.fractions(0, 3, max_denominator=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_enclosure_matches(self, p, lo, width):
        iv = Interval(lo, lo + width)
        assert interval_value_range(p, iv) == fraction_value_range(list(p.coeffs), iv.lo, iv.hi)

    def test_abnormal_sturm_chains(self):
        # x^4 + bx + c: the remainder of p by p' drops to degree 1, so the
        # next pseudo-remainder has an odd power of a leading coefficient
        # that is negative for b > 0.
        for b in range(-3, 4):
            for c in range(-3, 4):
                p = Polynomial((c, b, 0, 0, 1))
                assert _endpoints(isolate_real_roots(p)) == fraction_isolate_real_roots(list(p.coeffs))
        p = Polynomial((-1, 1, 0, 0, 1))
        assert len(sign_scan_roots(list(p.coeffs), Fraction(-3), Fraction(3), Fraction(1, 64))) == 2
        assert len(isolate_real_roots(p)) == 2

    def test_enclosure_of_zero_and_constants(self):
        iv = Interval(Fraction(-1, 3), Fraction(1, 2))
        assert interval_value_range(Polynomial(), iv) == (0, 0)
        assert interval_value_range(Polynomial((Fraction(-7, 4),)), iv) == (Fraction(-7, 4),) * 2


@st.composite
def integer_products(draw):
    """Integer polynomials of degree 1-6, products of integer linear and
    quadratic factors, some squared, under a leading constant that may be
    negative; so repeated roots, rational roots and complex pairs appear."""
    p = Polynomial((draw(st.sampled_from((1, -1, 2, -3))),))
    linear = st.tuples(st.integers(-4, 4), st.integers(1, 3))
    quadratic = st.tuples(st.integers(-5, 5), st.integers(-3, 3), st.integers(1, 2))
    factors = st.tuples(st.one_of(linear, quadratic), st.integers(1, 2))
    for factor, k in draw(st.lists(factors, min_size=1, max_size=4)):
        q = _product([p.coeffs] + [factor] * k)
        if q.degree() <= 6:
            p = q
    return p


def _derivative_level(f, k):
    """f^(k)/k! for integer coefficients f, constant term first: its
    coefficient of x^i is C(k + i, k) f_{k+i}."""
    return tuple(math.comb(k + i, k) * c for i, c in enumerate(f[k:]))


class TestHermiteCriterion:
    @given(integer_products(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle_isolation(self, p, data):
        f = p.int_coeffs()
        k = data.draw(st.integers(0, len(f) - 2), label="derivative order")
        g = _derivative_level(f, k)
        expected = len(fraction_isolate_real_roots([Fraction(c) for c in g])) == len(g) - 1
        assert has_only_simple_real_roots(g) == expected

    def test_frozen_cases(self):
        # a double root, a complex pair, and the sextic with six real roots
        assert not has_only_simple_real_roots(_product([(-1, 1)] * 2 + [(-2, 0, 1)]).int_coeffs())
        assert not has_only_simple_real_roots(_product([(2, 1), (1, 0, 1)]).int_coeffs())
        assert has_only_simple_real_roots(Q_SEXTIC.int_coeffs())

    def test_rejects_constants(self):
        with pytest.raises(InvalidInputError):
            has_only_simple_real_roots((3,))

    @pytest.mark.parametrize("f", [(-1, 1, 0), (1, 0), (2, -3, 1, 0, 0)])
    def test_rejects_a_zero_leading_coefficient(self, f):
        # (-1, 1, 0) is x - 1 written as a quadratic, which the monic
        # transform would read as x^2 + x
        with pytest.raises(InvalidInputError):
            has_only_simple_real_roots(f)


def _point_sums(weights, points, count):
    """t_j = sum w_i x_i^j for j < count: positive weights on r distinct
    points give a Hankel matrix whose minors D_1 ... D_r are positive and
    whose larger minors vanish."""
    return [sum(w * x**j for w, x in zip(weights, points)) for j in range(count)]


@st.composite
def hankel_sequences(draw):
    """t_0 ... t_{2m-2} for m in 1..5, small or with entries past 10^24.

    - "pivot": D_1 ... D_{k-1} > 0 and D_k = delta D_{k-1}, from point sums
      over k - 1 points with delta added to t_{2k-2}; the rest of t is free.
    - "roots": the power sums of m integer roots, one of them maybe
      repeated: positive definite exactly when the roots are distinct.
    - "free": every entry free, so zeros and negative pivots come often.
    """
    m = draw(st.integers(1, 5), label="size")
    scale = draw(st.sampled_from((3, 10**12)), label="scale")
    entry = st.integers(-scale, scale)
    kind = draw(st.sampled_from(("pivot", "roots", "free")), label="kind")
    if kind == "pivot":
        k = draw(st.integers(1, m), label="pivot position")
        points = draw(st.lists(entry, min_size=k - 1, max_size=k - 1, unique=True))
        weights = draw(st.lists(st.integers(1, scale), min_size=k - 1, max_size=k - 1))
        t = _point_sums(weights, points, 2 * k - 1)
        t[-1] += draw(st.integers(-2, 2), label="delta")
        rest = st.integers(-(scale**3), scale**3)
        return t + draw(st.lists(rest, min_size=2 * (m - k), max_size=2 * (m - k)))
    if kind == "roots":
        roots = draw(st.lists(entry, min_size=m, max_size=m))
        if m > 1 and draw(st.booleans(), label="repeat a root"):
            roots[-1] = roots[0]
        return _point_sums([1] * m, roots, 2 * m - 1)
    return draw(st.lists(entry, min_size=2 * m - 1, max_size=2 * m - 1))


class TestClosedFormPivots:
    # The pivots up to m = 4 are closed forms; m = 1 and m = 5 check the
    # bounds of that range, and m = 5 the loop.

    @given(hankel_sequences())
    @example([1, 1, 1])  # one point mass: D_2 = 0
    @example([2, 1, 1, 1, 1])  # points 0 and 1: D_3 = 0
    @example([3, 3, 5, 9, 17, 33, 65])  # points 0, 1, 2: D_4 = 0
    @example([0, 5, 7, 1, 2, 3, 4])
    @settings(max_examples=400, deadline=None)
    def test_match_the_fraction_minors(self, t):
        expected = all(d > 0 for d in hankel_leading_minors(t))
        assert _hankel_is_positive_definite(list(t)) == expected

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("delta", [0, -1])
    def test_stop_at_a_pivot_that_is_not_positive(self, m, delta):
        # unit masses at 0 ... k - 2 with delta added to t_{2k-2}: the first
        # k - 1 minors are positive and D_k = delta D_{k-1}, at every k
        for k in range(1, m + 1):
            t = _point_sums([1] * (k - 1), range(k - 1), 2 * k - 1)
            t[-1] += delta
            t += [10**30] * (2 * (m - k))
            minors = hankel_leading_minors(t)
            assert all(d > 0 for d in minors[: k - 1]) and (minors[k - 1] > 0) == (delta > 0)
            assert not _hankel_is_positive_definite(t)


class TestDistinctRealRootCount:
    # The Sturm count at -inf and +inf, kept as the oracle of the box filter.

    @given(integer_products())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle_isolation(self, p):
        count = distinct_real_root_count(p.int_coeffs())
        assert count == len(fraction_isolate_real_roots(list(p.coeffs)))

    def test_frozen_counts(self):
        # (x - 1)^3 (x - 5), x^2 + 1, and the sextic with six real roots
        assert distinct_real_root_count(_product([(-1, 1)] * 3 + [(-5, 1)]).int_coeffs()) == 2
        assert distinct_real_root_count((1, 0, 1)) == 0
        assert distinct_real_root_count(Q_SEXTIC.int_coeffs()) == 6

    def test_rejects_constants(self):
        with pytest.raises(InvalidInputError):
            distinct_real_root_count((3,))


class TestCanonicalIntervals:
    # Exact endpoints of the canonical isolation, as recorded in
    # certificates' place intervals; they must never move.

    def test_cubic(self):
        assert _endpoints(isolate_real_roots(P_CUBIC)) == [(-2, -1), (0, 1), (2, 4)]

    def test_sextic(self):
        F = Fraction
        assert _endpoints(isolate_real_roots(Q_SEXTIC)) == [
            (F(-149, 32), F(-149, 64)),
            (F(-1937, 1024), F(-7599, 4096)),
            (F(-3725, 2048), F(-447, 256)),
            (F(7301, 4096), F(3725, 2048)),
            (F(7599, 4096), F(1937, 1024)),
            (F(149, 64), F(149, 32)),
        ]

    def test_rational_and_irrational_roots(self):
        p = _product([(-1, 0, 1), (-2, 0, 1)])  # (x^2-1)(x^2-2)
        assert _endpoints(isolate_real_roots(p)) == [
            (Fraction(-3, 2), Fraction(-9, 8)),
            (-1, -1),
            (1, 1),
            (Fraction(9, 8), Fraction(3, 2)),
        ]

    def test_non_monic_with_fractional_cauchy_bound(self):
        p = Polynomial((1, -5, 0, 3))  # 3x^3 - 5x + 1, Cauchy bound 8/3
        assert _endpoints(isolate_real_roots(p)) == [
            (Fraction(-8, 3), Fraction(-4, 3)),
            (0, Fraction(1, 3)),
            (Fraction(2, 3), Fraction(4, 3)),
        ]


class TestRefinement:
    def test_width_reached(self):
        iv = isolate_real_roots(P_CUBIC)[0]
        tight = refine_interval(P_CUBIC, iv, Fraction(1, 10**12))
        assert tight.hi - tight.lo <= Fraction(1, 10**12)
        # still around the root the sign scan brackets by (-95/64, -47/32)
        assert _value(P_CUBIC.coeffs, tight.lo) < 0 < _value(P_CUBIC.coeffs, tight.hi)
        assert Fraction(-95, 64) < tight.lo < tight.hi < Fraction(-47, 32)

    def test_exact_hit_collapses(self):
        p = Polynomial((-1, 0, 1))
        out = refine_interval(p, Interval(0, 2), Fraction(1, 4))
        assert out == Interval(1, 1)

    def test_degenerate_passthrough(self):
        p = Polynomial((-1, 0, 1))
        assert refine_interval(p, Interval(1, 1), 1) == Interval(1, 1)
        with pytest.raises(InvalidInputError):
            refine_interval(p, Interval(2, 2), 1)

    def test_rejects_non_bracketing(self):
        with pytest.raises(InvalidInputError):
            refine_interval(P_CUBIC, Interval(5, 6), Fraction(1, 2))


def _bound_from_intfactor():
    # the names polynomials binds to functions of intfactor
    return {
        name for name, value in vars(polynomials).items()
        if getattr(value, "__module__", None) == intfactor.__name__
    }


class TestRationalRoots:
    # a monic polynomial's rational roots are integers, and
    # _has_integer_root says whether it has one
    def test_frozen(self):
        assert _has_integer_root((6, -5, 1))  # (x-2)(x-3)
        assert _has_integer_root((0, 2, 0, 1))  # x (x^2 + 2)
        assert not _has_integer_root(P_CUBIC.int_coeffs())
        assert not _has_integer_root((-5, 0, -4, 0, 1))  # (x^2 - 5)(x^2 + 1)

    def test_fractional_roots(self):
        # (2x-1)(2x+1) has its roots 2 (+-1/2) in the monic transform
        assert _monic_transform((-1, 0, 4)) == (-4, 0, 1)
        assert _has_integer_root(_monic_transform((-1, 0, 4)))
        assert not _has_integer_root(_monic_transform((-1, 0, 3)))

    def test_factors_no_integer(self, monkeypatch):
        # the candidate roots are trial divisors of the constant term, so
        # the primes 1009 and 1013 are found without factoring their product
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(intfactor, "prime_factors", refuse)
        assert _bound_from_intfactor() == {"is_prime"}
        assert _has_integer_root((-6, 1, 4, 1))  # (x - 1)(x + 2)(x + 3)
        p, q = 1009, 1013
        assert _has_integer_root((p * q, -(p + q), 1))  # (x - p)(x - q)
        assert not _has_integer_root((p * q, 0, 1))

    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=6))
    @example([0, 5])  # x (x + 5): q_0 = 0
    @example([1, 0])  # x^2 + 1, q_0 = 1: no root
    @example([-1, 0])  # x^2 - 1, q_0 = -1: the roots +-1
    @example([36, -12])  # (x - 6)^2: the root isqrt 36
    @example([-7, 1, -7])  # (x - 7)(x^2 + 1): 7 is the cofactor 7 / 1
    @example([-35, 12])  # no root, though 35 = 5 * 7
    @settings(max_examples=200, deadline=None)
    def test_matches_the_rational_root_oracle(self, tail):
        q = tuple(tail) + (1,)
        assert _has_integer_root(q) == bool(fraction_rational_roots([Fraction(c) for c in q]))


class TestHelpers:
    def test_squarefree_part(self):
        p = _product([(-1, 1), (-1, 1), (-3, 1)])
        sf = _core(p)
        assert len(sf) == 3
        assert _value(sf, 1) == 0 and _value(sf, 3) == 0

    def test_gcd(self):
        a = _product([(-1, 1), (-2, 1)])
        b = _product([(-1, 1), (-3, 1)])
        assert _gcd(_integer_associate(a), _integer_associate(b)) == (-1, 1)

    def test_interval_value_range_contains_true_values(self):
        iv = Interval(Fraction(-1), Fraction(2))
        lo, hi = interval_value_range(P_CUBIC, iv)
        for k in range(-4, 9):
            x = Fraction(k, 4)
            assert lo <= _value(P_CUBIC.coeffs, x) <= hi

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
    def test_monic_transform_returns_a_monic_input(self, tail):
        f = tuple(tail) + (1,)
        assert _monic_transform(f) is f

    def test_monic_transform_scales_the_roots(self):
        # 2x^2 - 3x + 1 has roots 1/2 and 1; x^2 - 3x + 2 has roots 1 and 2
        assert _monic_transform((1, -3, 2)) == (2, -3, 1)

    def test_interval_validation(self):
        with pytest.raises(InvalidInputError):
            Interval(2, 1)


class TestIrreducibility:
    def test_frozen_irreducible(self):
        assert is_irreducible(P_CUBIC)
        assert is_irreducible(Q_SEXTIC)
        assert is_irreducible(Polynomial((-2, 0, 1)))
        assert is_irreducible(Polynomial((7, 1)))

    def test_quartic_that_factors_mod_every_prime(self):
        # x^4 - 10x^2 + 1 is irreducible over Q yet reducible mod every
        # prime, so no prime proves it alone; the lifted factors must fail
        # to recombine into a factor over Z.
        assert is_irreducible(Polynomial((1, 0, -10, 0, 1)))

    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 0, 4), (4, 0, 0, 0, 1)])
    def test_reducible_quartics_without_rational_roots(self, coeffs):
        # 4x^4 + 1 = (2x^2 + 2x + 1)(2x^2 - 2x + 1), x^4 + 4 likewise
        p = Polynomial(coeffs)
        assert fraction_rational_roots(list(p.coeffs)) == []
        assert not is_irreducible(p)

    def test_frozen_reducible(self):
        assert not is_irreducible(_product([(-2, 0, 1), (-3, 0, 1)]))
        assert not is_irreducible(Polynomial((1, 2, 1)))
        assert not is_irreducible(Polynomial((0, 1, 1)))
        # degree-4 times degree-2, no rational roots
        sextic = _product([(1, 0, -10, 0, 1), (1, 1, 1)])
        assert not is_irreducible(sextic)

    def test_rejects_constants(self):
        with pytest.raises(InvalidInputError):
            is_irreducible(Polynomial((3,)))

    @given(
        st.lists(st.integers(-4, 4), min_size=2, max_size=3),
        st.lists(st.integers(-4, 4), min_size=2, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_products_are_reducible(self, a, b):
        pa, pb = Polynomial(a), Polynomial(b)
        if pa.degree() < 1 or pb.degree() < 1:
            return
        assert not is_irreducible(_product([a, b]))


monic_tails = st.lists(st.integers(-4, 4), min_size=1, max_size=3)


def _first_squarefree_prime(f):
    """The first prime l with gcd(f mod l, f' mod l) = 1."""
    for ell in itertools.count(2):
        if is_prime(ell):
            fbar = modular.normalize(f, ell)
            if modular.degree(modular.gcd_poly(fbar, modular.deriv(fbar, ell), ell)) == 0:
                return ell


class TestSquarefreeFactors:
    @given(st.one_of(
        st.lists(st.integers(-6, 6), min_size=1, max_size=6),
        st.lists(monic_tails, min_size=1, max_size=3),
    ))
    @settings(max_examples=60, deadline=None)
    def test_against_the_kronecker_oracle(self, data):
        if isinstance(data[0], list):
            # a product of small monic factors, kept to degree <= 6
            f = _product(tuple(t) + (1,) for t in data)
        else:
            f = Polynomial(tuple(data) + (1,))
        if f.degree() > 6:
            return
        factors = squarefree_factors(f.int_coeffs())
        if factors is None:
            assert sylvester_resultant(list(f.coeffs), list(f.derivative().coeffs)) == 0
            return
        assert _product(factors) == f
        for g in factors:
            assert g[-1] == 1
            for d in range(1, (len(g) - 1) // 2 + 1):
                assert kronecker_factor(list(g), d) is None

    @given(st.sets(st.integers(-10**6, 10**6), min_size=1, max_size=3), monic_tails)
    @settings(max_examples=60, deadline=None)
    def test_integer_roots_are_split_off(self, roots, tail):
        g = tuple(tail) + (1,)
        linear = [(-r, 1) for r in roots]
        factors = squarefree_factors(_product(linear + [g]).int_coeffs())
        own = squarefree_factors(g)
        if own is None or any(_value(list(g), r) == 0 for r in roots):
            assert factors is None
            return
        assert _product(own) == Polynomial(g)
        for h in own:
            for d in range(1, (len(h) - 1) // 2 + 1):
                assert kronecker_factor(list(h), d) is None
        assert factors == sorted(linear + own, key=lambda h: (len(h), h))

    @given(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
    @example([6, 0, -5, 0])  # (x^2 - 2)(x^2 - 3): R has the root -5
    @example([1, 0, -10, 0])  # V4: R has three integer roots
    @settings(max_examples=100, deadline=None)
    def test_the_lift_finds_what_the_divisor_test_finds(self, tail):
        # a squarefree quartic f and its resolvent cubic R, whose
        # discriminant is that of f, so the lift at f's prime serves both
        f = tuple(tail) + (1,)
        if squarefree_factors(f) is None:
            return
        ell = _first_squarefree_prime(f)
        for g in (f, _resolvent(f)):
            roots = fraction_rational_roots([Fraction(c) for c in g])
            assert sorted(_integer_roots(g, ell)) == roots

    def test_root_near_the_cauchy_bound(self):
        # (x + 5)(x^2 + 1): Cauchy bound 6, first good prime 3, and the root
        # -5 is seen only once the modulus passes 2 * 6
        f = _product([(5, 1), (1, 0, 1)])
        assert squarefree_factors(f.int_coeffs()) == [(5, 1), (1, 0, 1)]

    def test_frozen_factorization(self):
        # x^4 - 10x^2 + 1 splits modulo every prime, so recombination finds it
        f = _product([(-2, 0, 1), (-3, 0, 1), (1, 0, -10, 0, 1)])
        assert squarefree_factors(f.int_coeffs()) == [(-3, 0, 1), (-2, 0, 1), (1, 0, -10, 0, 1)]

    @pytest.mark.parametrize(
        "factors, ell",
        [
            ([(1, 1, 1, 1, 1)], 2),  # discriminant 5^3
            ([(1, 0, 0, 0, 1)], 3),  # 2^8
            ([(1, 0, -10, 0, 1)], 5),  # 2^14 3^2
            ([(1, 0, -1, 0, 1)], 5),  # 2^4 3^2, the 12th cyclotomic polynomial
            ([(-3, 1), (1, 0, -10, 0, 1)], 5),  # an integer root is split off first
            ([(-2, 0, 1), (-3, 0, 1), (1, 0, -10, 0, 1)], 7),
        ],
    )
    def test_prime_is_the_first_that_keeps_f_squarefree(self, monkeypatch, factors, ell):
        # the prime read off the discriminant is the one a gcd mod l picks
        f = _product(factors).int_coeffs()
        assert _first_squarefree_prime(f) == ell
        primes = []
        original = modular.factor_monic

        def recording(g, p):
            primes.append(p)
            return original(g, p)

        monkeypatch.setattr(modular, "factor_monic", recording)
        assert _product(squarefree_factors(f)) == Polynomial(f)
        assert primes == [ell]

    @pytest.mark.parametrize(
        "factors, zassenhaus",
        [
            ([(1, 1, 0, 0, 1)], 0),  # x^4 + x + 1, S4
            ([(12, 8, 0, 0, 1)], 0),  # A4
            ([(2, -3, -3, 2, 1)], 0),  # the quartic filter's first field
            ([(3, 1), (1, 1, 0, 0, 1)], 0),  # a quartic cofactor of a quintic
            ([(1, 0, 0, 0, 1)], 1),  # x^4 + 1, V4
            ([(1, 0, -10, 0, 1)], 1),  # V4
            ([(-2, 0, 0, 0, 1)], 1),  # D4
            ([(1, 1, 1, 1, 1)], 1),  # C4
            ([(-1, 1), (-2, 0, 0, 0, 1)], 1),  # a D4 cofactor of a quintic
            ([(-2, 0, 1), (-3, 0, 1)], 1),  # two quadratics
            ([(1, 1, 1), (2, 0, 1)], 1),
            ([(2, 1), (-5, 1, 1), (1, 0, 1)], 1),
        ],
    )
    def test_quartics_factored_mod_ell_only_with_a_resolvent_root(
        self, monkeypatch, factors, zassenhaus
    ):
        # a quartic without an integer root whose resolvent has no rational
        # root cannot split into two quadratics, so it skips Zassenhaus
        calls = []
        original = modular.factor_monic

        def counting(g, p):
            calls.append(g)
            return original(g, p)

        monkeypatch.setattr(modular, "factor_monic", counting)
        f = _product(factors).int_coeffs()
        assert squarefree_factors(f) == sorted(factors, key=lambda g: (len(g), g))
        assert len(calls) == zassenhaus

    @given(st.one_of(
        # (x^2 + p x + q)(x^2 + r x + s), maybe times (x - u)
        st.tuples(*[st.integers(-6, 6)] * 5).map(
            lambda c: _product([(c[1], c[0], 1), (c[3], c[2], 1)] + [(-c[4], 1)] * (c[4] % 2))
        ),
        # a quartic, maybe times (x - u)
        st.tuples(*[st.integers(-8, 8)] * 5).map(
            lambda c: _product([c[:4] + (1,)] + [(-c[4], 1)] * (c[4] % 2))
        ),
    ))
    @example(Polynomial((1, 0, 0, 0, 1)))
    @example(Polynomial((-2, 0, 0, 0, 1)))
    @settings(max_examples=150, deadline=None)
    def test_quartic_shortcut_matches_zassenhaus(self, f):
        # the factors equal those of the former path, which sent every
        # quartic cofactor through Zassenhaus's algorithm
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polynomials, "_resolvent", lambda g: (0, 1))
            former = squarefree_factors(f.int_coeffs())
        assert squarefree_factors(f.int_coeffs()) == former

    def test_repeated_factor_gives_none(self):
        assert squarefree_factors(_product([(1, 1), (1, 1), (2, 0, 1)]).int_coeffs()) is None

    def test_rejects_non_monic(self):
        with pytest.raises(InvalidInputError):
            squarefree_factors((1, 2))
