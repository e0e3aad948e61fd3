"""Seed search: totally real fields and hermitian form pairs that pass every
certifiable hypothesis.

The driver lists the monic integer polynomials with as many distinct real
roots as their degree, in lexicographic coefficient order. It chooses the
coefficients from the top down and drops a prefix as soon as a derivative
has too few distinct real roots (Rolle's theorem; each test is Hermite's
criterion on the integer coefficients). It drops the polynomials with a
rational root and the quartics whose resolvent cubic has one, keeps the
irreducible ones, then the fields with trivial automorphism group. In each
field it takes one diagonal form per real place, indefinite there and
definite elsewhere, and pairs the forms of two places up by the
transposition of those places. Every PASS becomes a full certificate, so
search output is verifiable by the same machinery as the shipped example.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Optional

from .certificates import exact, write_certificate
from .errors import BudgetExceededError, InvalidInputError
from .finite_groups import DEFAULT_ENUMERATION_BUDGET
from .frozen import Frozen
from .hermitian import PASS, HermitianForm
from .intfactor import is_prime
from .local import hilbert_product_check
from .number_field import (
    CMExtension,
    FieldElement,
    NumberField,
    _resolvent_roots,
    automorphism_count,
)
from .polynomials import (
    Polynomial,
    _hankel_is_positive_definite,
    _monic_transform,
    _power_sums,
    _rational_roots,
)
from .runner import build_certificate


class SearchConfig(Frozen):
    __slots__ = (
        "degree",
        "coefficient_bound",
        "delta_candidates",
        "rank",
        "enumeration_budget",
        "output_path",
        "max_certificates",
    )

    def __init__(
        self,
        degree: int = 3,
        coefficient_bound: int = 3,
        delta_candidates=(Fraction(-1),),
        rank: int = 3,
        enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
        output_path: Optional[str] = None,
        max_certificates: Optional[int] = None,
    ):
        # type(), not isinstance(): a bool is an int too
        for name, value in (("degree", degree), ("coefficient_bound", coefficient_bound),
                            ("rank", rank), ("enumeration_budget", enumeration_budget)):
            if type(value) is not int:
                raise InvalidInputError(f"{name} must be an integer")
        if degree < 2:
            raise InvalidInputError("degree must be at least 2")
        if rank < 3 or rank % 2 == 0:
            raise InvalidInputError("rank must be an odd integer >= 3")
        if coefficient_bound < 0:
            raise InvalidInputError("coefficient bound must be nonnegative")
        # a tuple, so the list checked below cannot change afterwards
        try:
            delta_candidates = tuple(delta_candidates)
        except TypeError:
            raise InvalidInputError("delta candidates must be a sequence") from None
        if not delta_candidates:
            raise InvalidInputError("at least one delta candidate is required")
        for d in delta_candidates:
            if (type(d) is not int and not isinstance(d, Fraction)) or d >= 0:
                raise InvalidInputError("delta candidates must be negative int or Fraction")
        limit = max_certificates
        if limit is not None and (type(limit) is not int or limit < 1):
            raise InvalidInputError("max certificates must be an integer of at least 1")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coefficient_bound", coefficient_bound)
        object.__setattr__(self, "delta_candidates", delta_candidates)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "enumeration_budget", enumeration_budget)
        object.__setattr__(self, "output_path", output_path)
        object.__setattr__(self, "max_certificates", limit)


def candidate_polynomials(degree: int, bound: int) -> list[tuple[int, ...]]:
    """Monic integer polynomials with `degree` distinct real roots and every
    other coefficient in [-bound, bound], as int tuples constant term first,
    lexicographic in (a_0, ..., a_{degree-1}).

    If f has n distinct real roots, Rolle's theorem gives f^(k) n - k of
    them. So a_{n-1}, a_{n-2}, ..., a_0 are chosen in turn, and a prefix
    (a_k, ..., a_{n-1}, 1) is kept only when f^(k)/k!, whose coefficient
    of x^i is C(k + i, k) a_{k+i}, passes Hermite's test for n - k
    distinct real roots (Hunter 1957; Pohst 1982). The linear level
    k = n - 1 always does; the last level, k = 0, is the test for f
    itself. The power sums of a prefix are affine in a_k, so each tail
    takes them twice (`_carried_power_sums`) and each value of a_k costs
    one line of sums and the pivot loop. The values of a_k that pass one
    tail form a run, so the scan stops at its end: 878 tests at degree 4,
    bound 3, 492 at (3, 4) and 20188 at (5, 5).

    >>> candidate_polynomials(2, 1)
    [(-1, -1, 1), (-1, 0, 1), (-1, 1, 1), (0, -1, 1), (0, 1, 1)]
    """
    rng = range(-bound, bound + 1)
    prefixes = [(a, 1) for a in rng]
    for k in range(degree - 2, -1, -1):
        weights = [math.comb(k + i, k) for i in range(degree - k + 1)]
        kept = []
        for tail in prefixes:
            base, slope = _carried_power_sums(weights, tail)
            # The tail passed, so h = f^(k)/k! - a has a derivative with
            # n - k - 1 simple real roots. Then h + a is real-rooted exactly
            # when -a lies strictly between h's critical values, and those
            # values of a form one run.
            run = False
            for a in rng:
                if _hankel_is_positive_definite([b + a * s for b, s in zip(base, slope)]):
                    kept.append((a,) + tail)
                    run = True
                elif run:
                    break
        prefixes = kept
    return sorted(prefixes)


def _carried_power_sums(weights: list[int], tail: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(base, slope) such that base + a * slope are the power sums
    t_0 ... t_{2m-2} of the monic transform of the degree-m prefix whose
    coefficient of x^i is weights[i] * ((a,) + tail)[i]; as in the
    enumerator, weights[0] is 1 and the tail ends in 1.

    The transform's constant term is a * lead^(m-1), with lead =
    weights[m], and the sums are affine in it (`polynomials._power_sums`).
    So base is taken with constant term 0, and slope as the change when it
    is lead^(m-1).
    """
    g = _monic_transform((0,) + tuple(w * c for w, c in zip(weights[1:], tail)))
    base = _power_sums(g)
    unit = _power_sums((weights[-1] ** (len(tail) - 1),) + g[1:])
    return base, [u - b for u, b in zip(unit, base)]


def field_candidates(cfg: SearchConfig) -> Iterator[NumberField]:
    """Fields passing the seed filters, cheapest first: totally real,
    irreducible defining polynomial, no nontrivial automorphism.

    The budget bounds the coefficient box, (2B + 1)^n polynomials, and a box
    over it is refused before any test. `candidate_polynomials` then
    keeps exactly the polynomials with n distinct real roots: they are
    squarefree with every root real, so the field each defines (if any) is
    totally real. A candidate with a rational root has a linear factor, and
    n >= 2, so it is dropped before any field is built.

    A quartic without one is dropped as well when its resolvent cubic R
    (`number_field._resolvent_roots`) has a rational root. If f = g h with
    g and h quadratic, then a1 a2 + a3 a4 = g(0) + h(0) is a rational root
    of R. If f is irreducible with no nontrivial automorphism, its Galois
    group is S4 or A4 (D4, C4 and V4 give 2, 4 and 4 automorphisms), so R
    is irreducible (Kappe & Warren 1989). So for a quartic without a
    rational root, a rational root of R means reducible or #Aut != 1, and
    either one drops it below: the drop only comes sooner.

    Only the rest are factored over Z, by `NumberField`'s irreducibility
    test, and only the fields that pass have their automorphisms counted.
    At degree 4, bound 3, 878 real-root tests replace the box's 2401 and
    leave 114 candidates. 95 of them have an integer root and 17 a rational
    root of R, so 2 fields are built, both by the factorization mod a prime.
    """
    total = (2 * cfg.coefficient_bound + 1) ** cfg.degree
    if total > cfg.enumeration_budget:
        raise BudgetExceededError(
            f"scanning {total} polynomials exceeds the budget of {cfg.enumeration_budget}"
        )
    for coeffs in candidate_polynomials(cfg.degree, cfg.coefficient_bound):
        if _rational_roots(coeffs) or (cfg.degree == 4 and _resolvent_roots(coeffs)):
            continue
        try:
            # The candidates are monic and integral of degree >= 2, so a
            # reducible polynomial is the only one refused here.
            field = NumberField(Polynomial(coeffs))
        except InvalidInputError:
            continue
        if automorphism_count(field) != 1:
            continue
        yield field


def _entry_pool(field: NumberField) -> Iterator[tuple[int, FieldElement]]:
    """Small elements u with coordinates in {-1, 0, 1}, positive at exactly
    one real place j; yields (j, u). These are the candidates for the
    repeated diagonal entry: diag(u, ..., u, -1) is indefinite at j alone."""
    for coords in itertools.product((-1, 0, 1), repeat=field.degree):
        if all(c == 0 for c in coords):
            continue
        u = field.element(coords)
        positive = [j for j, s in enumerate(u.signs()) if s > 0]
        if len(positive) == 1:
            yield positive[0], u


def good_odd_primes(field: NumberField, delta: FieldElement, count: int) -> tuple[int, ...]:
    """Smallest odd primes with guaranteed-clean local data: coprime to the
    defining polynomial's discriminant and to delta's norm."""
    disc = Fraction(field.discriminant)
    norm = Fraction(delta.norm())
    avoid = abs(
        disc.numerator * disc.denominator * norm.numerator * norm.denominator
    )
    out = []
    p = 3
    while len(out) < count:
        if is_prime(p) and avoid % p != 0:
            out.append(p)
        p += 2
    return tuple(out)


def _transposition(i: int, j: int, size: int) -> tuple[int, ...]:
    tau = list(range(size))
    tau[i], tau[j] = tau[j], tau[i]
    return tuple(tau)


def _seed_inputs(field, delta, h1, h2, tau, probe, congruence) -> dict:
    coeffs = [exact(c) for c in field.min_poly.coeffs]
    signs = field.generator().signs()
    entries = []
    for e in dict.fromkeys(h1.diag + h2.diag):
        entries.append([exact(c) for c in e.coords])
    claimed_units = [
        [exact(c) for c in e.coords] for e in dict.fromkeys(h1.diag + h2.diag) if e.is_unit()
    ]
    return {
        "format_version": "1",
        "kind": "search-seed-input",
        "name": f"degree{field.degree}-disc{field.discriminant}",
        "field": {
            "min_poly": coeffs,
            "recorded_disc": exact(Fraction(field.discriminant)),
            "recorded_automorphism_count": "1",
            "recorded_generator_positive_count": exact(sum(1 for s in signs if s > 0)),
        },
        "extension": {"delta": [exact(c) for c in delta.coords]},
        "forms": {
            "first": [[exact(c) for c in e.coords] for e in h1.diag],
            "second": [[exact(c) for c in e.coords] for e in h2.diag],
        },
        "twist": {"tau": [exact(t) for t in tau]},
        "units": {"claimed_unit_coords": claimed_units, "lambda_generators": entries},
        "local_samples": {
            "norm_element_coords": entries,
            "norm_primes": [exact(p) for p in congruence],
            "product_element_coords": entries,
        },
        "congruence_primes": [exact(p) for p in congruence],
        "probe_prime": exact(probe),
    }


def search_seeds(cfg: SearchConfig) -> list[dict]:
    """Enumerate seed pairs and emit a certificate for every PASS.

    Real place j is represented by one form diag(u, ..., u, -1), which is
    indefinite at j alone: the first u from `_entry_pool` positive at j
    whose discriminant gets a conclusive local symbol report. Pairs cover
    all place combinations i < j, so a field with d represented places
    yields the full pairwise family; a d-tuple of pairwise-distinct
    lattices is certified by its d(d-1)/2 pair certificates. Results are
    deterministic for a fixed config.
    """
    certificates: list[dict] = []
    for field in field_candidates(cfg):
        for delta_value in cfg.delta_candidates:
            delta = field.from_rational(Fraction(delta_value))
            ext = CMExtension(field, delta)
            neg_one = field.from_rational(-1)

            reps: dict[int, HermitianForm] = {}
            for j, u in _entry_pool(field):
                if j in reps:
                    continue
                h = HermitianForm(ext, (u,) * (cfg.rank - 1) + (neg_one,))
                if hilbert_product_check(ext, h.disc).conclusive:
                    reps[j] = h

            places = sorted(reps)
            probe, *_ = congruence = good_odd_primes(field, delta, 2)
            for i, j in itertools.combinations(places, 2):
                h1, h2 = reps[i], reps[j]
                tau = _transposition(i, j, field.real_place_count)
                inputs = _seed_inputs(field, delta, h1, h2, tau, probe, congruence)
                payload = build_certificate(inputs)
                if payload["verdict"]["overall"] != PASS:
                    continue
                certificates.append(payload)
                if cfg.output_path:
                    write_certificate(payload, cfg.output_path)
                if (
                    cfg.max_certificates is not None
                    and len(certificates) >= cfg.max_certificates
                ):
                    return certificates
    return certificates
