"""End-to-end pipeline: ingest example input data, run every check, emit a
certificate a verifier can recompute from the certificate alone.

The certificate never silently reconciles its inputs' recorded claims with
computed values; disagreements land in an explicit discrepancy list while the
computed value is recorded verbatim.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .certificates import (
    FORMAT_VERSION,
    TOOL_VERSION,
    diff_paths,
    exact,
    load_certificate,
    parse_exact,
)
from .errors import (
    CertificateFormatError,
    InconclusiveError,
    InvalidInputError,
    UnsupportedPlaceError,
)
from .finite_groups import CongruenceLevel, congruence_index
from .frozen import Frozen
from .hermitian import (
    HermitianForm,
    _indefinite,
    seed_pair_check,
    twist_pattern,
)
from .local import (
    factor_prime,
    hilbert_product_check,
    local_norm_test,
    splitting_in_E,
)
from .number_field import (
    CMExtension,
    GaloisClosure,
    NumberField,
    automorphism_count,
    is_rational_square,
)
from .polynomials import Polynomial
from .volume_fingerprint import ITEM_NAMES, fingerprint, level_id_for

LAMBDA_HEIGHT = 2

OK = "OK"
MISMATCH = "MISMATCH"

LOCAL_RULE = (
    "at a finite place, special unitary groups of equal odd rank over the "
    "completion are isomorphic: split places give the special linear group, "
    "nonsplit places the unique unitary group of that rank"
)

ASSUMPTIONS = (
    "the level subgroup is small enough that the resulting lattices are "
    "torsion-free; not checked here",
    "reduction of the simply connected group at a good place is surjective, "
    "so the congruence index equals the full residue group order",
    # The count is exact now; kept verbatim for format "1" bytes, dropped at "2".
    "the automorphism count trusts the integer-relation ladder's coefficient "
    "bound; a relation beyond that bound would be missed",
)


def load_example_fixture() -> dict:
    # imported here, its only use: importlib.resources loads pathlib, shutil,
    # tempfile, zipfile and more, which nothing else needs
    from importlib import resources

    text = resources.files("latcert").joinpath("data/paper_example.json").read_text("utf-8")
    return json.loads(text)


def _poly(coeff_strings) -> Polynomial:
    return Polynomial(tuple(parse_exact(c) for c in coeff_strings))


def _integer(text: str) -> int:
    value = parse_exact(text)
    if value.denominator != 1:
        raise InvalidInputError(f"expected an integer, got {text!r}")
    return value.numerator


def _elem(field: NumberField, coord_strings):
    return field.element(tuple(parse_exact(c) for c in coord_strings))


def _coords(elem) -> list:
    return [exact(c) for c in elem.coords]


def _pattern_rows(pattern) -> list:
    return [[exact(p), exact(q)] for p, q in pattern]


def build_certificate(inputs: dict) -> dict:
    """Run the whole pipeline on one input record. Pure and deterministic:
    equal inputs give byte-equal certificates, so verification recomputes
    identically from the echoed input alone."""
    field = NumberField(_poly(inputs["field"]["min_poly"]))
    discrepancies: list[dict] = []

    # field data
    disc = Fraction(field.discriminant)
    recorded_disc = parse_exact(inputs["field"]["recorded_disc"])
    aut = automorphism_count(field)
    signs = field.generator().signs()
    positive = sum(1 for s in signs if s > 0)
    recorded_positive = _integer(inputs["field"]["recorded_generator_positive_count"])
    intervals = [[exact(iv.lo), exact(iv.hi)] for iv in field.real_place_intervals()]
    field_block = {
        "min_poly": list(inputs["field"]["min_poly"]),
        "disc": exact(disc),
        "disc_matches_recorded": disc == recorded_disc,
        "automorphism_count": exact(aut),
        "generator_signs": [exact(s) for s in signs],
        "place_intervals": intervals,
    }
    if disc != recorded_disc:
        discrepancies.append(
            {
                "at": "field_block/disc",
                "computed": exact(disc),
                "recorded": exact(recorded_disc),
                "note": "computed value kept verbatim",
            }
        )
    if positive != recorded_positive:
        discrepancies.append(
            {
                "at": "field_block/generator_signs",
                "computed": exact(positive),
                "recorded": exact(recorded_positive),
                "note": "count of real places where the generator is positive "
                "disagrees with the recorded claim; the recorded signature "
                "products still match under the place dictionary below",
            }
        )
    if aut != _integer(inputs["field"]["recorded_automorphism_count"]):
        discrepancies.append(
            {
                "at": "field_block/automorphism_count",
                "computed": exact(aut),
                "recorded": inputs["field"]["recorded_automorphism_count"],
                "note": "computed value kept verbatim",
            }
        )

    # quadratic extension
    delta = _elem(field, inputs["extension"]["delta"])
    ext = CMExtension(field, delta)
    cm_block = {
        "delta": _coords(delta),
        "delta_signs": [exact(s) for s in delta.signs()],
        "totally_negative": all(s < 0 for s in delta.signs()),
    }

    # closure field and embeddings; searched seeds carry no closure data
    closure_block = None
    if "closure" in inputs:
        closure_field = NumberField(_poly(inputs["closure"]["min_poly"]))
        images = tuple(_elem(closure_field, e) for e in inputs["closure"]["embeddings"])
        closure = GaloisClosure(field, closure_field, images)
        closure_disc = Fraction(closure_field.discriminant)
        recorded_closure_disc = parse_exact(inputs["closure"]["recorded_disc"])
        if recorded_closure_disc == 0:
            raise InvalidInputError("closure.recorded_disc must be nonzero")
        ratio = closure_disc / recorded_closure_disc
        is_sq = is_rational_square(ratio)
        closure_block = {
            "min_poly": list(inputs["closure"]["min_poly"]),
            "poly_disc": exact(closure_disc),
            "recorded_disc": exact(recorded_closure_disc),
            "disc_ratio": exact(ratio),
            "disc_ratio_is_square": is_sq,
            "embeddings": [list(e) for e in inputs["closure"]["embeddings"]],
            "embedding_checks": list(closure.verify_all()),
        }
        if is_sq:
            closure_block["disc_ratio_sqrt"] = exact(
                Fraction(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator))
            )
        if ratio != 1:
            discrepancies.append(
                {
                    "at": "closure_block/poly_disc",
                    "computed": exact(closure_disc),
                    "recorded": exact(recorded_closure_disc),
                    "note": "the two differ by the square " + exact(ratio)
                    if is_sq
                    else "the ratio is not a rational square",
                }
            )

    # the two forms
    h1 = HermitianForm(ext, tuple(_elem(field, c) for c in inputs["forms"]["first"]))
    h2 = HermitianForm(ext, tuple(_elem(field, c) for c in inputs["forms"]["second"]))
    forms_block = {
        "rank": exact(h1.rank),
        "first": [[exact(c) for c in e.coords] for e in h1.diag],
        "second": [[exact(c) for c in e.coords] for e in h2.diag],
        "disc_first": _coords(h1.disc),
        "disc_second": _coords(h2.disc),
    }

    pat1, pat2 = h1.signatures, h2.signatures
    signature_table = {"first": _pattern_rows(pat1), "second": _pattern_rows(pat2)}

    indef1, indef2 = _indefinite(pat1), _indefinite(pat2)
    place_dictionary = {}
    if len(indef1) == 1 and len(indef2) == 1 and indef1 != indef2:
        rest = [j for j in range(len(pat1)) if j not in (indef1[0], indef2[0])]
        place_dictionary = {
            "recorded_place_1": exact(indef1[0]),
            "recorded_place_2": exact(indef2[0]),
            **{
                f"recorded_place_{k + 3}": exact(j)
                for k, j in enumerate(rest)
            },
        }

    # twist
    tau = tuple(_integer(t) for t in inputs["twist"]["tau"])
    twisted = twist_pattern(pat1, tau)
    twist_block = {
        "tau": list(inputs["twist"]["tau"]),
        "twisted_pattern": _pattern_rows(twisted),
        "pattern_match": twisted == pat2,
    }

    # units
    units_in = inputs.get("units", {})
    unit_entries = []
    for coords in units_in.get("claimed_unit_coords", []):
        u = _elem(field, coords)
        unit_entries.append({"coords": list(coords), "is_unit": u.is_unit()})
    units_block = {"entries": unit_entries}

    # sampled local data
    samples = inputs.get("local_samples", {})
    norm_tests = []
    for coords in samples.get("norm_element_coords", []):
        u = _elem(field, coords)
        for p in samples.get("norm_primes", []):
            for place in factor_prime(field, _integer(p)):
                res = local_norm_test(ext, u, place)
                norm_tests.append(
                    {
                        "element": list(coords),
                        "place": place.label(),
                        "is_norm": res.is_norm,
                        "method": res.method,
                    }
                )
    product_reports = []
    for coords in samples.get("product_element_coords", []):
        u = _elem(field, coords)
        report = hilbert_product_check(ext, u)
        product_reports.append(
            {
                "element": list(coords),
                "symbols": [
                    {
                        "place": entry.label,
                        "symbol": exact(entry.symbol) if entry.symbol is not None else None,
                        "method": entry.method,
                    }
                    for entry in report.entries
                ],
                "minus_count": exact(report.minus_count),
                "conclusive": report.conclusive,
                "minus_count_even": report.minus_count_even,
            }
        )
    local_block = {
        "rule": LOCAL_RULE,
        "norm_tests": norm_tests,
        "product_reports": product_reports,
    }

    # congruence indices at the good sample places
    levels = []
    index_entries = []
    for p in inputs["congruence_primes"]:
        ell = _integer(p)
        try:
            places = factor_prime(field, ell)
        except UnsupportedPlaceError as exc:
            index_entries.append({"place": f"prime {ell}", "refused": str(exc)})
            continue
        for place in places:
            level = CongruenceLevel(place, h1)
            try:
                split = splitting_in_E(ext, place)
                idx = congruence_index(level)
            except (UnsupportedPlaceError, InconclusiveError) as exc:
                index_entries.append({"place": place.label(), "refused": str(exc)})
                continue
            levels.append(level)
            index_entries.append(
                {
                    "place": place.label(),
                    "splitting": split.kind,
                    "residue_field_size": exact(place.prime**place.residue_degree),
                    "index": exact(idx),
                }
            )
    index_block = {"entries": index_entries}

    # covolume fingerprints at the shared level
    level_id = level_id_for(levels)
    fp1 = fingerprint(h1, level_id)
    fp2 = fingerprint(h2, level_id)
    mismatched = [n for n in ITEM_NAMES if getattr(fp1, n) != getattr(fp2, n)]

    def fp_record(fp):
        return {
            "base_field_disc": exact(fp.base_field_disc),
            "relative_ext_id": fp.relative_ext_id,
            "group_dim": exact(fp.group_dim),
            "quasi_split_form_id": fp.quasi_split_form_id,
            "exponents": [exact(e) for e in fp.exponents],
            "tamagawa": exact(fp.tamagawa),
            "level_id": fp.level_id,
        }

    fingerprint_block = {
        "level_id": level_id,
        "first": fp_record(fp1),
        "second": fp_record(fp2),
        "equal": not mismatched,
        "mismatched": mismatched,
    }

    # overall verdict
    probe_prime = _integer(inputs["probe_prime"])
    probe_place = factor_prime(field, probe_prime)[0]
    gens = tuple(_elem(field, c) for c in units_in.get("lambda_generators", []))
    verdict = seed_pair_check(
        h1,
        h2,
        tau,
        probe_place=probe_place,
        unit_gens=gens,
        height=LAMBDA_HEIGHT,
    )
    verdict_block = {
        "overall": verdict.status,
        "components": {
            c.name: {"status": c.status, "detail": c.detail} for c in verdict.components
        },
        "probe_place": probe_place.label(),
    }

    payload = {
        "format_version": FORMAT_VERSION,
        "tool_version": TOOL_VERSION,
        "kind": "seed-certificate",
        "config_echo": {"input": inputs, "lambda_height": exact(LAMBDA_HEIGHT)},
        "field_block": field_block,
        "cm_block": cm_block,
        "forms_block": forms_block,
        "signature_table": signature_table,
        "place_dictionary": place_dictionary,
        "twist_block": twist_block,
        "units_block": units_block,
        "local_block": local_block,
        "index_block": index_block,
        "fingerprint_block": fingerprint_block,
        "verdict": verdict_block,
        "discrepancies": discrepancies,
        "assumptions": list(ASSUMPTIONS),
    }
    if closure_block is not None:
        payload["closure_block"] = closure_block
    return payload


def run_paper_example() -> dict:
    return build_certificate(load_example_fixture())


class VerificationReport(Frozen):
    __slots__ = ("status", "paths")

    def __init__(self, status: str, paths: tuple[str, ...]):
        object.__setattr__(self, "status", status)  # OK | MISMATCH
        object.__setattr__(self, "paths", paths)

    def __bool__(self) -> bool:
        return self.status == OK


def verify_payload(recorded: dict) -> VerificationReport:
    """Recompute the pipeline from the certificate's own echoed input and
    compare every recorded value.

    An echo the pipeline cannot be rebuilt from (a missing key, a value of
    the wrong type or shape) raises CertificateFormatError.
    """
    echo = recorded.get("config_echo")
    if not isinstance(echo, dict) or "input" not in echo:
        raise CertificateFormatError("certificate carries no input echo")
    try:
        recomputed = build_certificate(echo["input"])
    except (KeyError, TypeError, AttributeError, InvalidInputError) as ex:
        raise CertificateFormatError(
            f"echoed input cannot be rebuilt: {type(ex).__name__}: {ex}"
        ) from ex
    if recorded == recomputed:
        return VerificationReport(OK, ())
    return VerificationReport(MISMATCH, tuple(diff_paths(recorded, recomputed)))


def verify_certificate(path: str) -> VerificationReport:
    return verify_payload(load_certificate(path))
