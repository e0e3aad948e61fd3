"""Seed search: totally real fields and hermitian form pairs that pass every
certifiable hypothesis.

The driver walks monic integer polynomials in lexicographic coefficient
order, keeps those with as many distinct real roots as their degree (a
Sturm count on the integer coefficients), then the irreducible ones, then
the fields with trivial automorphism group. In each field it takes one
diagonal form per real place, indefinite there and definite elsewhere, and
pairs the forms of two places up by the transposition of those places.
Every PASS becomes a full certificate, so search output is verifiable by the
same machinery as the shipped example.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .certificates import exact, write_certificate
from .errors import BudgetExceededError, InvalidInputError
from .finite_groups import DEFAULT_ENUMERATION_BUDGET
from .hermitian import PASS, HermitianForm
from .intfactor import is_prime
from .local import hilbert_product_check
from .number_field import CMExtension, FieldElement, NumberField, automorphism_count
from .polynomials import Polynomial, distinct_real_root_count
from .runner import build_certificate


@dataclass(frozen=True)
class SearchConfig:
    degree: int = 3
    coefficient_bound: int = 3
    delta_candidates: tuple = (Fraction(-1),)
    rank: int = 3
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
    output_path: Optional[str] = None
    max_certificates: Optional[int] = None

    def __post_init__(self):
        if self.degree < 2:
            raise InvalidInputError("degree must be at least 2")
        if self.rank < 3 or self.rank % 2 == 0:
            raise InvalidInputError("rank must be an odd integer >= 3")
        if self.coefficient_bound < 0:
            raise InvalidInputError("coefficient bound must be nonnegative")
        if not self.delta_candidates:
            raise InvalidInputError("at least one delta candidate is required")
        for d in self.delta_candidates:
            if Fraction(d) >= 0:
                raise InvalidInputError("delta candidates must be negative rationals")
        if self.max_certificates is not None and self.max_certificates < 1:
            raise InvalidInputError("max certificates must be at least 1")


def candidate_polynomials(degree: int, bound: int) -> Iterator[Polynomial]:
    """Monic integer polynomials, lexicographic in (a_0, ..., a_{degree-1})."""
    rng = range(-bound, bound + 1)
    for tail in itertools.product(rng, repeat=degree):
        yield Polynomial(tuple(Fraction(c) for c in tail) + (Fraction(1),))


def field_candidates(cfg: SearchConfig) -> Iterator[NumberField]:
    """Fields passing the seed filters, cheapest first: totally real,
    irreducible defining polynomial, no nontrivial automorphism.

    A candidate of degree n is kept only when its Sturm chain, read at -inf
    and +inf, counts n distinct real roots. Then it is squarefree and every
    root is real, so the field it defines (if any) is totally real, and the
    count costs no bisection, gcd or rational-root search. Only those
    candidates are factored over Z, by `NumberField`'s irreducibility test,
    and only the fields that pass have their automorphisms counted. At
    degree 4, bound 3, that is 114 factorizations out of 2401 candidates.
    """
    total = (2 * cfg.coefficient_bound + 1) ** cfg.degree
    if total > cfg.enumeration_budget:
        raise BudgetExceededError(
            f"scanning {total} polynomials exceeds the budget of {cfg.enumeration_budget}"
        )
    for poly in candidate_polynomials(cfg.degree, cfg.coefficient_bound):
        if distinct_real_root_count(poly.int_coeffs()) != cfg.degree:
            continue
        try:
            # The candidates are monic and integral of degree >= 2, so a
            # reducible polynomial is the only one refused here.
            field = NumberField(poly)
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
