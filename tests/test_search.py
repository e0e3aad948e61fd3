"""Seed search: filters, pairing, certificate emission, persistence."""

import hashlib
import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    _mul,
    _value,
    companion_power_sums,
    distinct_real_root_count,
    quartic_automorphism_count,
    totally_real_box,
)
from latcert import intfactor, modular, number_field, search
from latcert.certificates import canonical_json, parse_exact
from latcert.errors import BudgetExceededError, CertificateFormatError, InvalidInputError
from latcert.hermitian import HermitianForm, forms_equivalent
from latcert.number_field import CMExtension, NumberField
from latcert.polynomials import (
    Polynomial,
    _hankel_is_positive_definite,
    _hankel_run,
    _monic_transform,
    _power_sums,
    has_only_simple_real_roots,
    squarefree_factors,
)
from latcert.runner import parse_seed_input, seed_echo, verify_payload
from latcert.search import (
    SearchConfig,
    candidate_polynomials,
    field_candidates,
    good_odd_primes,
    search_seeds,
)

DEGREE3 = SearchConfig(degree=3, coefficient_bound=3, delta_candidates=(Fraction(-1),))


@pytest.fixture(scope="module")
def degree3_run():
    """search_seeds(DEGREE3) and the local symbol reports the search asked for."""
    reports = []
    original = search.hilbert_product_check

    def counting(ext, u):
        reports.append(u)
        return original(ext, u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "hilbert_product_check", counting)
        certs = search_seeds(DEGREE3)
    return certs, reports


@pytest.fixture(scope="module")
def degree3_certs(degree3_run):
    return degree3_run[0]


def _load_form(cert: dict, key: str) -> HermitianForm:
    field = NumberField(
        Polynomial(tuple(parse_exact(c) for c in cert["field_block"]["min_poly"]))
    )
    delta = field.element(
        tuple(parse_exact(c) for c in cert["config_echo"]["input"]["extension"]["delta"])
    )
    ext = CMExtension(field, delta)
    entries = tuple(
        field.element(tuple(parse_exact(x) for x in coords))
        for coords in cert["forms_block"][key]
    )
    return HermitianForm(ext, entries)


class TestConfig:
    def test_degree_too_small(self):
        with pytest.raises(InvalidInputError):
            SearchConfig(degree=1)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_bad_rank(self, rank):
        with pytest.raises(InvalidInputError):
            SearchConfig(rank=rank)

    def test_negative_bound(self):
        with pytest.raises(InvalidInputError):
            SearchConfig(coefficient_bound=-1)

    def test_empty_delta_list(self):
        with pytest.raises(InvalidInputError):
            SearchConfig(delta_candidates=())

    def test_nonnegative_delta(self):
        with pytest.raises(InvalidInputError):
            SearchConfig(delta_candidates=(Fraction(1),))

    @pytest.mark.parametrize("delta", [-0.5, "-1/3", True, None])
    def test_inexact_delta(self, delta):
        # "no floating point anywhere": a float or a string never reaches a
        # certificate, and neither does a bool posing as an int
        with pytest.raises(InvalidInputError):
            SearchConfig(delta_candidates=(delta,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("degree", 3.0),
            ("coefficient_bound", 2.5),
            ("coefficient_bound", True),
            ("rank", 3.0),
            ("enumeration_budget", 1e6),
            ("max_certificates", 2.0),
            ("max_certificates", "2"),
        ],
    )
    def test_non_integer_sizes(self, field, value):
        with pytest.raises(InvalidInputError):
            SearchConfig(**{field: value})

    def test_exact_values_accepted(self):
        cfg = SearchConfig(delta_candidates=(-1, Fraction(-1, 3)), max_certificates=None)
        assert cfg.delta_candidates == (-1, Fraction(-1, 3))

    def test_a_list_of_deltas_is_kept_as_a_tuple(self):
        # the caller's list cannot slip a positive delta past the check
        deltas = [-1]
        cfg = SearchConfig(delta_candidates=deltas)
        deltas.append(5)
        assert cfg.delta_candidates == (-1,)
        hash(cfg)

    @pytest.mark.parametrize("deltas", [-1, Fraction(-1), None])
    def test_non_iterable_deltas_are_refused(self, deltas):
        with pytest.raises(InvalidInputError):
            SearchConfig(delta_candidates=deltas)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_max_certificates_below_one(self, limit):
        # a limit the search could only honour by emitting nothing is refused
        with pytest.raises(InvalidInputError):
            SearchConfig(max_certificates=limit)


class TestCandidates:
    def test_lexicographic_order(self):
        # x^2 has a double root, and x^2 + a_1 x + 1 has no real root for
        # |a_1| <= 1
        assert candidate_polynomials(2, 1) == [
            (-1, -1, 1),
            (-1, 0, 1),
            (-1, 1, 1),
            (0, -1, 1),
            (0, 1, 1),
        ]

    @pytest.mark.parametrize("degree", [0, -2])
    def test_rejects_degree_below_one(self, degree):
        # without the check the scan would hand back the linear polynomials
        with pytest.raises(InvalidInputError):
            candidate_polynomials(degree, 1)

    def test_linear_polynomials(self):
        assert candidate_polynomials(1, 1) == [(-1, 1), (0, 1), (1, 1)]

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, 2 if n == 5 else 3))
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_the_box_filter(self, case):
        degree, bound = case
        assert candidate_polynomials(degree, bound) == totally_real_box(degree, bound)

    @pytest.mark.parametrize(
        "degree, bound, counts, scans",
        [pytest.param(4, 3, 878, 145, id="4-3-878"), pytest.param(3, 4, 492, 67, id="3-4-492")],
    )
    def test_prefix_tests_pruned_by_derivatives(self, monkeypatch, degree, bound, counts, scans):
        # the box takes 2401 and 729 tests, the derivative prune alone 1015
        # and 603, and the run stop leaves these, in one scan per tail;
        # field_candidates adds none
        calls, tested = [], []
        original = search._hankel_run

        def counting(base, slope, values):
            calls.append(base)
            return original(base, slope, (tested.append(a) or a for a in values))

        monkeypatch.setattr(search, "_hankel_run", counting)
        list(field_candidates(SearchConfig(degree=degree, coefficient_bound=bound)))
        assert (len(calls), len(tested)) == (scans, counts)

    def test_quintic_survivors_are_pinned(self):
        # the pin was taken from the box filter, 161051 Sturm counts
        polys = candidate_polynomials(5, 5)
        text = "\n".join(",".join(str(c) for c in t) for t in polys)
        assert len(polys) == 1200
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith("1af8c7580f508c8e")

    def test_field_filter_keeps_example_field(self):
        coeff_tuples = {
            tuple(int(c) for c in f.min_poly.coeffs) for f in field_candidates(DEGREE3)
        }
        assert (1, -3, -1, 1) in coeff_tuples
        # the cyclic cubic of discriminant 49 has three automorphisms
        assert (1, -2, -1, 1) not in coeff_tuples

    def test_budget_refusal(self):
        tiny = SearchConfig(degree=3, coefficient_bound=3, enumeration_budget=10)
        with pytest.raises(BudgetExceededError):
            list(field_candidates(tiny))

    def test_good_odd_primes_avoid_disc(self):
        field = NumberField(Polynomial((1, -3, -1, 1)))
        delta = field.from_rational(-1)
        # disc 148 = 2^2 * 37, so the first clean odd primes are 3 and 5
        assert good_odd_primes(field, delta, 2) == (3, 5)
        assert 37 not in good_odd_primes(field, delta, 10)


@st.composite
def scanned_prefixes(draw):
    """(weights, tail, a) as candidate_polynomials scans them: the prefix
    f^(k)/k! has degree m in 2..6 and weights C(k + i, k). Either the tail's
    coefficients and a lie in [-B, B], or the tail is that of a product of
    m + k distinct linear factors and a is within 2 of its a_k, so the
    prefix is real-rooted or near the end of its run."""
    m = draw(st.integers(2, 6), label="prefix degree")
    k = draw(st.integers(0, 4), label="derivative order")
    weights = [math.comb(k + i, k) for i in range(m + 1)]
    if draw(st.booleans(), label="from a real-rooted polynomial"):
        roots = draw(st.lists(st.integers(-5, 5), min_size=m + k, max_size=m + k, unique=True))
        f = [1]
        for r in roots:
            f = [int(c) for c in _mul(f, [-r, 1])]
        return weights, tuple(f[k + 1:]), f[k] + draw(st.integers(-2, 2))
    bound = draw(st.integers(0, 5), label="coefficient bound")
    coefficient = st.integers(-bound, bound)
    tail = tuple(draw(st.lists(coefficient, min_size=m - 1, max_size=m - 1))) + (1,)
    return weights, tail, draw(coefficient)


class TestCarriedPowerSums:
    @given(scanned_prefixes())
    @example(([1, 1, 1], (0, 1), 0))  # x^2
    @example(([1, 2, 3], (3, 1), 3))  # 3 (x + 1)^2
    @example(([1, 1, 1, 1], (-3, 0, 1), 2))  # (x - 1)^2 (x + 2)
    # the closed forms at m = 2, 3 and 4 with lead != 1: f''/2! of a
    # quartic, and f'/1! of a quartic and of a quintic
    @example(([1, 3, 6], (-2, 1), 1))
    @example(([1, 2, 3, 4], (-2, 1, 1), 1))
    @example(([1, 2, 3, 4, 5], (3, -1, 2, 1), -2))
    @settings(max_examples=300, deadline=None)
    def test_match_the_sums_from_scratch(self, case):
        weights, tail, a = case
        m = len(tail)
        prefix = tuple(w * c for w, c in zip(weights, (a,) + tail))
        base, slope = search._carried_power_sums(weights, tail)
        sums = [b + a * s for b, s in zip(base, slope)]
        assert sums == companion_power_sums(_monic_transform(prefix), 2 * m - 1)
        verdict = _hankel_is_positive_definite(sums)
        assert verdict == has_only_simple_real_roots(prefix)
        assert verdict == (distinct_real_root_count(prefix) == m)

    @pytest.mark.parametrize("degree, bound", [(3, 4), (4, 3), (4, 4), (5, 4)])
    def test_match_two_passes_over_every_scanned_tail(self, monkeypatch, degree, bound):
        # the Newton loop: the sums at constant term 0 and at lead^(m-1),
        # with the slope their difference; one tail per scan
        tails = []
        original = search._carried_power_sums

        def recording(weights, tail):
            tails.append((weights, tail))
            return original(weights, tail)

        monkeypatch.setattr(search, "_carried_power_sums", recording)
        candidate_polynomials(degree, bound)
        assert len(tails) == {(3, 4): 67, (4, 3): 145, (4, 4): 323, (5, 4): 954}[degree, bound]
        for weights, tail in tails:
            g = _monic_transform((0,) + tuple(w * c for w, c in zip(weights[1:], tail)))
            base = _power_sums(g)
            unit = _power_sums((weights[-1] ** (len(tail) - 1),) + g[1:])
            assert original(weights, tail) == (base, [u - b for u, b in zip(unit, base)])



class TestHankelRun:
    @given(scanned_prefixes(), st.integers(0, 5))
    @example(([1, 1, 1, 1], (0, 0, 1), 0), 3)  # x^3 + a: b_11 = 0 for every a
    @settings(max_examples=300, deadline=None)
    def test_is_the_run_of_real_rooted_prefixes(self, case, bound):
        # any tail, not only one that passed: if the derivative has fewer
        # than m - 1 simple real roots, no value passes
        weights, tail, _ = case
        m = len(tail)
        base, slope = search._carried_power_sums(weights, tail)
        values = range(-bound, bound + 1)
        expected = [
            a for a in values
            if distinct_real_root_count(tuple(w * c for w, c in zip(weights, (a,) + tail))) == m
        ]
        assert _hankel_run(base, slope, values) == expected

class TestFieldFilter:
    @staticmethod
    def _quartic_drops(monkeypatch, bound):
        """The fields of the quartic filter at `bound`, with (tests, drops)
        by the integer-root test on f and on its resolvent cubic R, and the
        number of irreducibility tests."""
        calls, tests = [], {5: [], 4: []}
        original, has_integer_root = number_field.is_irreducible, search._has_integer_root

        def counting(p):
            calls.append(p)
            return original(p)

        def recording(q):
            tests[len(q)].append(has_integer_root(q))
            return tests[len(q)][-1]

        monkeypatch.setattr(number_field, "is_irreducible", counting)
        monkeypatch.setattr(search, "_has_integer_root", recording)
        fields = list(field_candidates(SearchConfig(degree=4, coefficient_bound=bound)))
        counts = [(len(tests[n]), sum(tests[n])) for n in (5, 4)]
        return fields, counts, len(calls)

    def test_quartics_are_factored_only_with_four_real_roots(self, monkeypatch):
        # 114 of the 2401 quartics at bound 3 have four distinct real roots;
        # 95 of them have an integer root and 17 of the other 19 a rational
        # root of the resolvent cubic, and both kinds are dropped unfactored
        fields, counts, built = self._quartic_drops(monkeypatch, 3)
        assert counts == [(114, 95), (19, 17)]
        assert built == 2
        assert [f.min_poly.to_string() for f in fields] == ["2,-3,-3,2,1", "2,3,-3,-2,1"]

    def test_quartics_at_bound_four_are_factored_only_with_four_real_roots(self, monkeypatch):
        # 409 of the 6561 quartics; 290 with an integer root, and 69 of the
        # other 119 with a rational root of R, so 50 fields are built
        fields, counts, built = self._quartic_drops(monkeypatch, 4)
        assert counts == [(409, 290), (119, 69)]
        assert built == 50

    @pytest.mark.parametrize("degree, bound, dropped", [(3, 4, 114), (4, 3, 95), (5, 5, 1006)])
    def test_dropped_candidates_have_a_linear_factor(self, monkeypatch, degree, bound, dropped):
        built = set()
        original = search.NumberField

        def recording(p):
            built.add(p.int_coeffs())
            return original(p)

        monkeypatch.setattr(search, "NumberField", recording)
        list(field_candidates(SearchConfig(degree=degree, coefficient_bound=bound)))
        candidates = candidate_polynomials(degree, bound)
        linear = [f for f in candidates if any(len(g) == 2 for g in squarefree_factors(f))]
        unbuilt = [f for f in candidates if f not in built]
        assert [f for f in unbuilt if f in linear] == linear
        assert len(linear) == dropped
        # the rest are the quartics dropped by their resolvent cubic: each is
        # a product of two quadratics or has a nontrivial automorphism
        resolvent = [f for f in unbuilt if f not in linear]
        assert len(resolvent) == (17 if degree == 4 else 0)
        for f in resolvent:
            assert len(squarefree_factors(f)) > 1 or quartic_automorphism_count(*f[:4]) != 1

    def test_quartic_filter_takes_no_degree_patterns(self, monkeypatch):
        # Irreducibility factors at the first good prime and the automorphism
        # sieve counts roots by evaluation, so no distinct-degree pattern is
        # taken anywhere in the filter.
        calls = []
        original = modular.degree_pattern

        def counting(f, p):
            calls.append((f, p))
            return original(f, p)

        monkeypatch.setattr(modular, "degree_pattern", counting)
        fields = list(field_candidates(SearchConfig(degree=4, coefficient_bound=3)))
        assert calls == []
        assert [f.min_poly.to_string() for f in fields] == ["2,-3,-3,2,1", "2,3,-3,-2,1"]

    def test_integer_roots_skip_the_factorization_mod_ell(self, monkeypatch):
        # Every candidate cubic, and every candidate quartic with an integer
        # root, is decided by Newton lifting and deflation alone.
        def refuse(*args):
            raise AssertionError("factored mod ell")

        monkeypatch.setattr(modular, "factor_monic", refuse)
        monkeypatch.setattr(modular, "hensel_lift_blocks", refuse)
        quartics = [
            f for f in candidate_polynomials(4, 3) if any(_value(f, r) == 0 for r in range(-4, 5))
        ]
        assert len(quartics) == 95
        for f in candidate_polynomials(3, 4) + quartics:
            product = [1]
            for g in squarefree_factors(f):
                product = _mul(product, list(g))
            assert product == list(f)

    def test_quartic_filter_never_factors_mod_ell(self, monkeypatch):
        # both fields built have a resolvent cubic with no rational root, so
        # both are proven irreducible without a factorization mod ell
        calls = {"factor_monic": 0, "hensel_lift_blocks": 0}
        depth = [0]
        factor_monic, hensel_lift_blocks = modular.factor_monic, modular.hensel_lift_blocks

        def counting_factor(f, p):
            calls["factor_monic"] += 1
            return factor_monic(f, p)

        def counting_lift(*args):
            # the lift recurses through the module name; count the top calls
            calls["hensel_lift_blocks"] += depth[0] == 0
            depth[0] += 1
            try:
                return hensel_lift_blocks(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(modular, "factor_monic", counting_factor)
        monkeypatch.setattr(modular, "hensel_lift_blocks", counting_lift)
        fields = list(field_candidates(SearchConfig(degree=4, coefficient_bound=3)))
        assert calls == {"factor_monic": 0, "hensel_lift_blocks": 0}
        assert [f.min_poly.to_string() for f in fields] == ["2,-3,-3,2,1", "2,3,-3,-2,1"]

    @pytest.mark.parametrize(
        "bound, count, prefix", [(4, 86, "aa413b4659b25950"), (3, 22, "f4146baba1d680ff")]
    )
    def test_cubic_fields_are_pinned(self, bound, count, prefix):
        fields = list(field_candidates(SearchConfig(degree=3, coefficient_bound=bound)))
        text = "\n".join(f.min_poly.to_string() for f in fields)
        assert len(fields) == count
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith(prefix)

    @pytest.mark.parametrize(
        "degree, bound, count, prefix",
        [
            (4, 4, 50, "725d4d0b1c21e339"),
            (4, 5, 284, "812f957adfd9ad53"),
            (5, 5, 132, "1f9485d5d5445d4d"),
        ],
    )
    def test_higher_degree_fields_are_pinned(self, degree, bound, count, prefix):
        fields = list(field_candidates(SearchConfig(degree=degree, coefficient_bound=bound)))
        text = "\n".join(f.min_poly.to_string() for f in fields)
        assert len(fields) == count
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith(prefix)


class TestSearchResults:
    def test_pass_certificate_count(self, degree3_certs):
        assert len(degree3_certs) == 66

    def test_one_symbol_report_per_represented_place(self, degree3_run):
        # 22 fields with 3 real places each; the first candidate at every
        # place is conclusive, and a place with a form is not asked again
        certs, reports = degree3_run
        text = "".join(canonical_json(c) for c in certs)
        assert len(certs) == 66 and len(reports) == 66
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith("923380766f3bcdba")

    def test_pinned_certificate_bytes_at_bound_2(self):
        # the same reference as the benchmark's smoke cubic search
        certs = search_seeds(SearchConfig(degree=3, coefficient_bound=2))
        text = "".join(canonical_json(c) for c in certs)
        assert len(certs) == 6
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith("58fb0fd819877cad")

    def test_pinned_certificate_bytes_at_degree_4(self):
        # the first pin with four real places
        certs = search_seeds(SearchConfig(degree=4, coefficient_bound=3))
        text = "".join(canonical_json(c) for c in certs)
        assert len(certs) == 6
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith("2156916496e85916")

    @pytest.mark.parametrize(
        "degree, bound, count, prefix",
        [(4, 4, 234, "2bee56e2a5097bd0"), (6, 5, 40, "aeb46b3cccee3b27")],
    )
    def test_pinned_search_bytes_through_places_over_two(self, degree, bound, count, prefix):
        # these searches decide places over 2 with e*f = 4 and 6
        certs = search_seeds(SearchConfig(degree=degree, coefficient_bound=bound))
        text = "".join(canonical_json(c) for c in certs)
        assert len(certs) == count
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith(prefix)

    def test_degree_4_search_never_reaches_rho(self, monkeypatch):
        # the prime squares that relevant_primes factors here are read by
        # exact k-th roots, so rho splits nothing and the bytes are the pin's
        def refuse(n):
            raise AssertionError(f"rho on {n}")

        monkeypatch.setattr(intfactor, "_pollard_rho", refuse)
        certs = search_seeds(SearchConfig(degree=4, coefficient_bound=4))
        text = "".join(canonical_json(c) for c in certs)
        assert len(certs) == 234
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith("2bee56e2a5097bd0")

    @pytest.mark.parametrize("rank, prefix", [(5, "f1757b7f2e28931d"), (7, "5353387e369b9bf6")])
    def test_pinned_search_bytes_above_rank_3(self, rank, prefix):
        # PU(n, 1) for n = 4 and 6: the 66 pairs of rank 3, with forms of
        # rank 5 and 7, each rebuilt from its parsed echo
        certs = search_seeds(SearchConfig(degree=3, coefficient_bound=3, rank=rank))
        text = "".join(canonical_json(c) for c in certs)
        assert len(certs) == 66
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith(prefix)
        assert [verify_payload(c).status for c in certs] == ["OK"] * 66

    def test_every_result_is_a_pass(self, degree3_certs):
        assert all(c["verdict"]["overall"] == "PASS" for c in degree3_certs)

    def test_example_field_found_with_all_three_pairs(self, degree3_certs):
        target = [
            c for c in degree3_certs if c["field_block"]["min_poly"] == ["1", "-3", "-1", "1"]
        ]
        assert len(target) == 3
        pairs = {
            (
                c["place_dictionary"]["recorded_place_1"],
                c["place_dictionary"]["recorded_place_2"],
            )
            for c in target
        }
        assert pairs == {("0", "1"), ("0", "2"), ("1", "2")}

    def test_example_pair_recovered_up_to_equivalence(self, degree3_certs):
        field = NumberField(Polynomial((1, -3, -1, 1)))
        alpha = field.generator()
        ext = CMExtension(field, field.from_rational(-1))
        neg1 = field.from_rational(-1)
        target1 = HermitianForm(ext, (-alpha, -alpha, neg1))
        target2 = HermitianForm(
            ext,
            (
                field.from_rational(2) - alpha * alpha,
                field.from_rational(2) - alpha * alpha,
                neg1,
            ),
        )
        target = [
            c for c in degree3_certs if c["field_block"]["min_poly"] == ["1", "-3", "-1", "1"]
        ]
        hits = 0
        for cert in target:
            g1, g2 = _load_form(cert, "first"), _load_form(cert, "second")
            if (forms_equivalent(g1, target1) and forms_equivalent(g2, target2)) or (
                forms_equivalent(g1, target2) and forms_equivalent(g2, target1)
            ):
                hits += 1
        assert hits >= 1

    def test_searched_certificates_verify(self, degree3_certs):
        # the search certifies its own objects, so each of its certificates
        # is first rebuilt from its parsed echo here
        assert [verify_payload(c).status for c in degree3_certs] == ["OK"] * 66

    def test_deterministic(self, degree3_certs):
        again = search_seeds(DEGREE3)
        assert [canonical_json(c) for c in again] == [
            canonical_json(c) for c in degree3_certs
        ]

    def test_monotone_in_coefficient_bound(self, degree3_certs):
        smaller = search_seeds(
            SearchConfig(degree=3, coefficient_bound=2, delta_candidates=(Fraction(-1),))
        )
        assert len(smaller) == 6
        larger_keys = {canonical_json(c) for c in degree3_certs}
        assert all(canonical_json(c) in larger_keys for c in smaller)

    def test_quadratics_yield_nothing(self):
        certs = search_seeds(
            SearchConfig(degree=2, coefficient_bound=3, delta_candidates=(Fraction(-1),))
        )
        assert certs == []

    def test_max_certificates_stops_early(self):
        certs = search_seeds(
            SearchConfig(
                degree=3,
                coefficient_bound=3,
                delta_candidates=(Fraction(-1),),
                max_certificates=2,
            )
        )
        assert len(certs) == 2


def _searched_seeds(bound: int) -> list:
    """(seed, echo) for every certificate search_seeds builds at degree 3."""
    built = []
    original = search.build_certificate

    def recording(seed, echo):
        built.append((seed, echo))
        return original(seed, echo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "build_certificate", recording)
        search_seeds(SearchConfig(degree=3, coefficient_bound=bound))
    return built


def _key_paths(node: dict, path: tuple = ()):
    for key, child in node.items():
        yield path + (key,)
        if isinstance(child, dict):
            yield from _key_paths(child, path + (key,))


class TestSeedEcho:
    @pytest.mark.parametrize("bound, count", [(2, 6), (3, 66)])
    def test_search_seeds_read_back_from_their_echo(self, bound, count):
        # every pair the search certifies at these bounds is a PASS
        built = _searched_seeds(bound)
        assert len(built) == count
        for seed, echo in built:
            assert echo == seed_echo(seed)
            assert parse_seed_input(echo) == seed

    def test_every_written_key_is_read(self):
        # a writer that left out any key but the three labels would fail
        # the round trip above
        seed, echo = _searched_seeds(2)[0]
        labels = {("format_version",), ("kind",), ("name",)}
        for *parents, last in _key_paths(echo):
            if tuple(parents) + (last,) in labels:
                continue
            damaged = seed_echo(seed)
            node = damaged
            for key in parents:
                node = node[key]
            del node[last]
            with pytest.raises(CertificateFormatError, match=last):
                parse_seed_input(damaged)

    def test_search_builds_each_field_and_form_once(self, monkeypatch):
        # at (3, 4) the search holds 104 fields and 286 forms; a certificate
        # builds none of them again
        counts = dict.fromkeys(("NumberField", "HermitianForm"), 0)
        for cls in (NumberField, HermitianForm):

            def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
                counts[_name] += 1
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        certs = search_seeds(SearchConfig(degree=3, coefficient_bound=4))
        assert len(certs) == 212
        assert counts == {"NumberField": 104, "HermitianForm": 286}

    def test_entry_pool_stops_once_every_place_has_a_form(self, monkeypatch):
        # signing the pool to its end took 13,992 sign_at calls at (3, 4);
        # the first u per place is kept, so the bytes are the same
        calls = [0]

        def counting(self, place, _sign_at=number_field.FieldElement.sign_at):
            calls[0] += 1
            return _sign_at(self, place)

        monkeypatch.setattr(number_field.FieldElement, "sign_at", counting)
        certs = search_seeds(SearchConfig(degree=3, coefficient_bound=4))
        text = "".join(canonical_json(c) for c in certs)
        assert len(certs) == 212
        assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith("c99e3258a890166a")
        assert calls[0] == 11403


class TestPersistence:
    def test_output_directory_gets_certificates_and_index(self, tmp_path):
        cfg = SearchConfig(
            degree=3,
            coefficient_bound=2,
            delta_candidates=(Fraction(-1),),
            output_path=str(tmp_path),
        )
        certs = search_seeds(cfg)
        files = [n for n in os.listdir(tmp_path) if n.startswith("cert_")]
        assert len(files) == len(certs) == 6
        with open(tmp_path / "index.json", encoding="utf-8") as fh:
            index = json.load(fh)
        assert len(index["certificates"]) == 6
        assert all(e["verdict"] == "PASS" for e in index["certificates"])

    def test_rerun_is_append_only(self, tmp_path):
        cfg = SearchConfig(
            degree=3,
            coefficient_bound=2,
            delta_candidates=(Fraction(-1),),
            output_path=str(tmp_path),
        )
        search_seeds(cfg)
        first = sorted(os.listdir(tmp_path))
        search_seeds(cfg)
        assert sorted(os.listdir(tmp_path)) == first
