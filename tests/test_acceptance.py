"""Acceptance gate.

One test per shipped guarantee; `pytest -v tests/test_acceptance.py` prints a
pass/fail line for each.  Every numeric expectation here was computed
independently before being frozen, and every runtime budget is pinned in the
test body.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from latcert import (
    CMExtension,
    FiniteGroupSpec,
    GaloisClosure,
    HermitianForm,
    NumberField,
    Polynomial,
    SearchConfig,
    automorphism_count,
    canonical_json,
    discriminant,
    enumerate_group,
    forms_equivalent,
    group_isomorphism_verdict,
    group_order,
    hilbert_product_check,
    indefinite_places,
    load_example_fixture,
    run_paper_example,
    search_seeds,
    signature_pattern,
    twist_pattern,
    verify_payload,
)


def timed(limit_seconds: float, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"took {elapsed:.3f}s, budget {limit_seconds}s"
    return result


def poly_of(coeff_strings) -> Polynomial:
    return Polynomial(tuple(Fraction(s) for s in coeff_strings))


def elem_of(field: NumberField, coord_strings):
    return field.element(tuple(Fraction(s) for s in coord_strings))


def is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    return (
        math.isqrt(x.numerator) ** 2 == x.numerator
        and math.isqrt(x.denominator) ** 2 == x.denominator
    )


FIXTURE = load_example_fixture()


@pytest.fixture(scope="module")
def field() -> NumberField:
    return NumberField(poly_of(FIXTURE["field"]["min_poly"]))


@pytest.fixture(scope="module")
def ext(field) -> CMExtension:
    return CMExtension(field, elem_of(field, FIXTURE["extension"]["delta"]))


@pytest.fixture(scope="module")
def seed_forms(field, ext):
    h1 = HermitianForm(ext, tuple(elem_of(field, c) for c in FIXTURE["forms"]["first"]))
    h2 = HermitianForm(ext, tuple(elem_of(field, c) for c in FIXTURE["forms"]["second"]))
    return h1, h2


@pytest.fixture(scope="module")
def certificate():
    return run_paper_example()


def test_criterion_01_cubic_discriminant():
    d = timed(0.010, lambda: discriminant(Polynomial((1, -3, -1, 1))))
    assert d == Fraction(148)


def test_criterion_02_embedding_identities(field):
    closure_field = NumberField(poly_of(FIXTURE["closure"]["min_poly"]))
    images = tuple(elem_of(closure_field, e) for e in FIXTURE["closure"]["embeddings"])

    def check():
        closure = GaloisClosure(field, closure_field, images)
        return [closure.verify_embedding(j) for j in range(len(images))]

    assert timed(1.0, check) == [True, True, True]


def test_criterion_03_closure_discriminant_ratio(certificate):
    q = poly_of(FIXTURE["closure"]["min_poly"])
    recorded = Fraction(FIXTURE["closure"]["recorded_disc"])

    def check():
        ratio = Fraction(discriminant(q)) / recorded
        return ratio >= 0 and is_rational_square(ratio)

    assert timed(1.0, check)
    # the emitted certificate keeps the computed value, not the recorded one
    assert certificate["closure_block"]["poly_disc"] == "3319595008"


def test_criterion_04_trivial_automorphisms(field):
    assert timed(5.0, lambda: automorphism_count(field)) == 1
    assert not is_rational_square(Fraction(148))


def test_criterion_05_signature_separation(seed_forms, certificate):
    h1, h2 = seed_forms

    def check():
        places1, places2 = indefinite_places(h1), indefinite_places(h2)
        verdict = group_isomorphism_verdict(h1, h2)
        return places1, places2, verdict

    places1, places2, verdict = timed(1.0, check)
    assert len(places1) == 1 and len(places2) == 1
    assert places1 != places2
    assert verdict.status == "NOT_ISOMORPHIC"
    assert verdict.witness_place is not None
    sig1, sig2 = signature_pattern(h1), signature_pattern(h2)
    assert sig1[verdict.witness_place] != sig2[verdict.witness_place]

    # the recorded real products, read through the reported place dictionary:
    # each form is indefinite exactly in the slot its product display says
    dictionary = certificate["place_dictionary"]
    products = FIXTURE["forms"]["recorded_real_products"]
    for form_places, product in ((places1, products[0]), (places2, products[1])):
        factors = product.split(" x ")
        assert len(factors) == 3
        for recorded_slot, factor in enumerate(factors, start=1):
            computed = int(dictionary[f"recorded_place_{recorded_slot}"])
            indefinite = factor == "SU(2,1)"
            assert (computed in form_places) == indefinite


def test_criterion_06_twist_match(seed_forms):
    h1, h2 = seed_forms
    tau = tuple(int(s) for s in FIXTURE["twist"]["tau"])
    assert twist_pattern(signature_pattern(h1), tau) == signature_pattern(h2)
    swapped = indefinite_places(h1) + indefinite_places(h2)
    assert tau[swapped[0]] == swapped[1] and tau[swapped[1]] == swapped[0]


def test_criterion_07_enumeration_matches_order():
    cases = (
        FiniteGroupSpec("SL", 2, 2),
        FiniteGroupSpec("SL", 2, 3),
        FiniteGroupSpec("SL", 3, 2),
        FiniteGroupSpec("GL", 2, 2),
        FiniteGroupSpec("SU", 3, 2),
    )

    def check():
        return {str(spec): (enumerate_group(spec), group_order(spec)) for spec in cases}

    counts = timed(60.0, check)
    for counted, formula in counts.values():
        assert counted == formula
    assert counts["SL_3(F_2)"][0] == 168
    assert counts["GL_2(F_2)"][0] == 6
    assert counts["SU_3(F_2)"][0] == 216


def test_criterion_08_product_formula_randomized(field, ext):
    rng = random.Random(14803319)

    def draw():
        while True:
            coords = tuple(Fraction(rng.randint(-9, 9)) for _ in range(field.degree))
            if any(coords):
                return field.element(coords)

    def check():
        unknown = 0
        for _ in range(100):
            u = draw()
            report = hilbert_product_check(ext, u)
            if report.conclusive:
                assert report.minus_count_even, f"odd -1 count for {u}"
            else:
                unknown += 1
        return unknown

    unknown = timed(120.0, check)
    assert unknown <= 5


def test_criterion_09_units(field):
    for coords in FIXTURE["units"]["claimed_unit_coords"]:
        assert elem_of(field, coords).is_unit()


def test_criterion_10_search_regression(seed_forms):
    h1, h2 = seed_forms
    cfg = SearchConfig(degree=3, coefficient_bound=3, delta_candidates=(Fraction(-1),))
    certs = timed(600.0, lambda: search_seeds(cfg))

    target_poly = list(FIXTURE["field"]["min_poly"])
    hits = [c for c in certs if c["field_block"]["min_poly"] == target_poly]
    assert hits, "search never reached the reference field"

    matched = False
    for cert in hits:
        if cert["verdict"]["overall"] != "PASS":
            continue
        field = NumberField(poly_of(cert["field_block"]["min_poly"]))
        ext = CMExtension(field, elem_of(field, cert["cm_block"]["delta"]))
        c1 = HermitianForm(ext, tuple(elem_of(field, r) for r in cert["forms_block"]["first"]))
        c2 = HermitianForm(ext, tuple(elem_of(field, r) for r in cert["forms_block"]["second"]))
        if (forms_equivalent(c1, h1) and forms_equivalent(c2, h2)) or (
            forms_equivalent(c1, h2) and forms_equivalent(c2, h1)
        ):
            matched = True
            break
    assert matched, "no PASS certificate matches the reference seed pair"


def test_criterion_11_determinism_and_round_trip():
    first = run_paper_example()
    second = run_paper_example()
    blob = canonical_json(first)
    assert blob.encode("utf-8") == canonical_json(second).encode("utf-8")

    assert verify_payload(first).status == "OK"

    tampered = json.loads(blob)
    tampered["signature_table"]["first"][0][0] = "9"
    report = verify_payload(tampered)
    assert report.status == "MISMATCH"
    assert report.paths
