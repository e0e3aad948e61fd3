"""Negative controls (`_controls.py`) over the census fields: no pair built
to be the same group, or to break a hypothesis, is ever a seed pair."""

import time

from _controls import control_histogram
from latcert.errors import InvalidInputError
from latcert.hermitian import PASS
from latcert.number_field import CMExtension, NumberField
from latcert.polynomials import Polynomial
from latcert.search import candidate_polynomials

# (control, verdict, deciding component) over the 46 fields of degree 3 and
# 4 at bound 3 with delta = -1. The 22 UNKNOWNs among the identical groups
# are the 10 cyclic cubics and the 12 quartics with #Aut != 1, where no
# composition with an automorphism is tried; with lambda = -1 the twist
# check fails there first.
HISTOGRAM = {
    ("lambda=1", "FAIL", "non-isomorphism"): 24,
    ("lambda=1", "UNKNOWN", "non-isomorphism"): 22,
    ("lambda=2", "FAIL", "non-isomorphism"): 24,
    ("lambda=2", "UNKNOWN", "non-isomorphism"): 22,
    ("lambda=-1", "FAIL", "non-isomorphism"): 24,
    ("lambda=-1", "FAIL", "twist-match"): 22,
    ("one place", "FAIL", "non-isomorphism"): 24,
    ("one place", "UNKNOWN", "non-isomorphism"): 22,
    ("wrong tau", "FAIL", "twist-match"): 46,
    ("definite", "FAIL", "standing-assumption"): 46,
    ("two places", "FAIL", "standing-assumption"): 46,
}


# The same over the 104 cubic fields at bound 4, where the 18 UNKNOWNs among
# the identical groups are the cyclic cubics.
CUBIC_HISTOGRAM = {
    ("lambda=1", "FAIL", "non-isomorphism"): 86,
    ("lambda=1", "UNKNOWN", "non-isomorphism"): 18,
    ("lambda=2", "FAIL", "non-isomorphism"): 86,
    ("lambda=2", "UNKNOWN", "non-isomorphism"): 18,
    ("lambda=-1", "FAIL", "non-isomorphism"): 86,
    ("lambda=-1", "FAIL", "twist-match"): 18,
    ("one place", "FAIL", "non-isomorphism"): 86,
    ("one place", "UNKNOWN", "non-isomorphism"): 18,
    ("wrong tau", "FAIL", "twist-match"): 104,
    ("definite", "FAIL", "standing-assumption"): 104,
    ("two places", "FAIL", "standing-assumption"): 104,
}


def census_extensions(degrees=(3, 4), bound=3):
    """F(sqrt -1) over every totally real field of
    candidate_polynomials(n, bound) for n in degrees."""
    out = []
    for degree in degrees:
        for coeffs in candidate_polynomials(degree, bound):
            try:
                field = NumberField(Polynomial(coeffs))
            except InvalidInputError:
                continue
            out.append(CMExtension(field, field.from_rational(-1)))
    return out


def test_no_control_passes_and_the_histogram_is_pinned():
    start = time.perf_counter()
    exts = census_extensions()
    histogram = control_histogram(exts)
    elapsed = time.perf_counter() - start
    assert len(exts) == 46
    assert not [key for key in histogram if key[1] == PASS]
    assert dict(histogram) == HISTOGRAM
    assert elapsed < 2, elapsed


def test_no_control_passes_over_the_cubics_at_bound_4():
    start = time.perf_counter()
    exts = census_extensions((3,), 4)
    histogram = control_histogram(exts)
    elapsed = time.perf_counter() - start
    assert len(exts) == 104 and sum(histogram.values()) == 728
    assert not [key for key in histogram if key[1] == PASS]
    assert dict(histogram) == CUBIC_HISTOGRAM
    assert elapsed < 2, elapsed
