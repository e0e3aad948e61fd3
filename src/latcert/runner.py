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
from typing import Optional

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
from .finite_groups import congruence_index
from .frozen import Frozen
from .hermitian import (
    HermitianForm,
    indefinite_places,
    seed_pair_check,
    twist_pattern,
)
from .intfactor import is_prime
from .local import (
    factor_prime,
    hilbert_product_check,
    local_norm_test,
    splitting_in_E,
)
from .number_field import (
    CMExtension,
    FieldElement,
    GaloisClosure,
    NumberField,
    automorphism_count,
    is_rational_square,
)
from .polynomials import Polynomial
from .volume_fingerprint import fingerprint, level_id_for

_set = object.__setattr__

# Only echoed, like units.lambda_generators: format "1" keeps both for its bytes.
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


def _coords(elem) -> list:
    if elem.den == 1:  # exact() of an int is its decimal string
        return [str(n) for n in elem.num]
    return [exact(c) for c in elem.coords]


def _rows(elems) -> list:
    return [_coords(e) for e in elems]


def _pattern_rows(pattern) -> list:
    return [[exact(p), exact(q)] for p, q in pattern]


def _exacts(values) -> list:
    return [exact(v) for v in values]


def _discrepancy(at: str, computed, recorded, note: str = "computed value kept verbatim") -> dict:
    return {"at": at, "computed": exact(computed), "recorded": exact(recorded), "note": note}


class SeedInput(Frozen):
    """One seed pair and the data sampled with it, as the objects that
    `build_certificate` certifies: forms h1 and h2 over `ext`, and tau, a
    permutation of the real places. The recorded values are the input's
    claims, set beside what the certificate computes; the closure fields
    are None when there is no closure. A form over any other extension
    raises InvalidInputError. `parse_seed_input` reads a seed from its input
    record, and `seed_echo` writes the record.
    """

    __slots__ = (
        "ext",
        "h1",
        "h2",
        "tau",
        "recorded_disc",
        "recorded_automorphism_count",
        "recorded_positive_count",
        "claimed_units",
        "lambda_generators",
        "norm_elements",
        "product_elements",
        "norm_primes",
        "congruence_primes",
        "probe_prime",
        "closure",
        "closure_recorded_disc",
    )

    def __init__(
        self,
        ext: CMExtension,
        h1: HermitianForm,
        h2: HermitianForm,
        tau,
        *,
        recorded_disc: Fraction,
        recorded_automorphism_count: int,
        recorded_positive_count: int,
        claimed_units,
        lambda_generators,
        norm_elements,
        product_elements,
        norm_primes,
        congruence_primes,
        probe_prime: int,
        closure: Optional[GaloisClosure] = None,
        closure_recorded_disc: Optional[Fraction] = None,
    ):
        if h1.ext != ext or h2.ext != ext:
            raise InvalidInputError("both forms must lie over the seed's extension")
        # the sequences as tuples, so that a seed holds no list
        _set(self, "ext", ext)
        _set(self, "h1", h1)
        _set(self, "h2", h2)
        _set(self, "tau", tuple(tau))
        _set(self, "recorded_disc", recorded_disc)
        _set(self, "recorded_automorphism_count", recorded_automorphism_count)
        _set(self, "recorded_positive_count", recorded_positive_count)
        _set(self, "claimed_units", tuple(claimed_units))
        _set(self, "lambda_generators", tuple(lambda_generators))
        _set(self, "norm_elements", tuple(norm_elements))
        _set(self, "product_elements", tuple(product_elements))
        _set(self, "norm_primes", tuple(norm_primes))
        _set(self, "congruence_primes", tuple(congruence_primes))
        _set(self, "probe_prime", probe_prime)
        _set(self, "closure", closure)
        _set(self, "closure_recorded_disc", closure_recorded_disc)

    @property
    def field(self) -> NumberField:
        return self.ext.base


def _refused(path: str, why: str) -> CertificateFormatError:
    return CertificateFormatError(f"echoed input {path} {why}")


def _at(echo: dict, path: str, read):
    """read(value, path) of the value at the dotted `path` of the echo."""
    node, keys = echo, path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(node, dict):
            raise _refused(".".join(keys[:i]), "must be an object")
        if key not in node:
            raise _refused(path, "is missing")
        node = node[key]
    return read(node, path)


def _list(read):
    """A reader of a list, as the tuple of what `read` reads from its items."""

    def read_list(items, path: str) -> tuple:
        if not isinstance(items, list):
            raise _refused(path, "must be a list")
        return tuple([read(item, f"{path}[{i}]") for i, item in enumerate(items)])

    return read_list


def _number(text, path: str) -> Fraction:
    # only as exact() spells it, which is str() of the Fraction, so that what
    # is written from the value repeats the echo
    try:
        value = parse_exact(text) if text.__class__ is str else None
    except CertificateFormatError:
        value = None
    if value is None or str(value) != text:
        raise _refused(path, f"must be a number string as exact() writes it, not {text!r}")
    return value


def _integer(text, path: str) -> int:
    value = _number(text, path)
    if value.denominator != 1:
        raise _refused(path, f"must be an integer, not {text!r}")
    return value.numerator


def _prime(text, path: str) -> int:
    p = _integer(text, path)
    if not is_prime(p):
        raise _refused(path, f"must be a prime, not {p}")
    return p


def _place_prime(field: NumberField):
    """A reader of a prime that does not divide the index of the field's
    polynomial order, so that factor_prime finds its places."""

    def read(text, path: str) -> int:
        p = _prime(text, path)
        try:
            factor_prime(field, p)
        except UnsupportedPlaceError as ex:
            raise _refused(path, f"is unsupported: {ex}") from ex
        return p

    return read


def _built(path: str, make, *args):
    """make(*args), with an InvalidInputError refused at `path`."""
    try:
        return make(*args)
    except InvalidInputError as ex:
        raise _refused(path, f"is invalid: {ex}") from ex


def _field(coeffs, path: str) -> NumberField:
    coeffs = _list(_number)(coeffs, path)
    if not coeffs or coeffs[-1] != 1:  # so that no zero leading coefficient is dropped
        raise _refused(path, "must be monic")
    return _built(path, NumberField, Polynomial(coeffs))


def _element(field: NumberField, need: Optional[str] = None):
    """A reader of an element of `field` by its coordinates; `need` may ask
    for a "nonzero" or an "integral" one."""

    def read(coords, path: str) -> FieldElement:
        if not isinstance(coords, list) or len(coords) != field.degree:
            raise _refused(path, f"must be a list of {field.degree} coordinates")
        e = field.element([_number(c, path) for c in coords])
        if (need == "nonzero" and e.is_zero()) or (need == "integral" and e.den != 1):
            raise _refused(path, f"must be {need}")
        return e

    return read


def parse_seed_input(echo) -> SeedInput:
    """The seed an input record describes: the one reader of a certificate's
    `config_echo.input`.

    Every key but `closure` is required. A number is a string as exact()
    writes it, and a list is a JSON list, never a string read digit by
    digit. The values must also meet what `build_certificate` assumes:
    monic irreducible polynomials, a totally negative delta, two forms of
    equal odd rank, a permutation tau, primes, norm and probe primes that
    do not divide the index of the polynomial order, nonzero sample elements
    and integral claimed units. Anything else raises CertificateFormatError,
    naming the key path.
    """
    if not isinstance(echo, dict):
        raise CertificateFormatError("echoed input must be an object")
    field = _at(echo, "field.min_poly", _field)
    element = _element(field)
    ext = _built("extension.delta", CMExtension, field, _at(echo, "extension.delta", element))
    h1 = _built("forms.first", HermitianForm, ext, _at(echo, "forms.first", _list(element)))
    h2 = _built("forms.second", HermitianForm, ext, _at(echo, "forms.second", _list(element)))
    if h1.rank != h2.rank or h1.rank % 2 == 0:
        raise _refused("forms", "must be two forms of equal odd rank")
    tau = _at(echo, "twist.tau", _list(_integer))
    if sorted(tau) != list(range(field.real_place_count)):
        raise _refused("twist.tau", f"must be a permutation of 0..{field.real_place_count - 1}")
    closure = closure_disc = None
    if "closure" in echo:
        closure_field = _at(echo, "closure.min_poly", _field)
        images = _at(echo, "closure.embeddings", _list(_element(closure_field)))
        closure = _built("closure.embeddings", GaloisClosure, field, closure_field, images)
        closure_disc = _at(echo, "closure.recorded_disc", _number)
        if closure_disc == 0:
            raise _refused("closure.recorded_disc", "must be nonzero")
    samples = _list(_element(field, "nonzero"))
    return SeedInput(
        ext,
        h1,
        h2,
        tau,
        recorded_disc=_at(echo, "field.recorded_disc", _number),
        recorded_automorphism_count=_at(echo, "field.recorded_automorphism_count", _integer),
        recorded_positive_count=_at(echo, "field.recorded_generator_positive_count", _integer),
        claimed_units=_at(echo, "units.claimed_unit_coords", _list(_element(field, "integral"))),
        lambda_generators=_at(echo, "units.lambda_generators", samples),
        norm_elements=_at(echo, "local_samples.norm_element_coords", samples),
        product_elements=_at(echo, "local_samples.product_element_coords", samples),
        norm_primes=_at(echo, "local_samples.norm_primes", _list(_place_prime(field))),
        congruence_primes=_at(echo, "congruence_primes", _list(_prime)),
        probe_prime=_at(echo, "probe_prime", _place_prime(field)),
        closure=closure,
        closure_recorded_disc=closure_disc,
    )


def seed_echo(seed: SeedInput) -> dict:
    """The input record of `seed` as the search writes it, every number an
    exact() string; `parse_seed_input` reads `seed` back from it."""
    field = seed.field
    echo = {
        "format_version": "1",
        "kind": "search-seed-input",
        "name": f"degree{field.degree}-disc{field.discriminant}",
        "field": {
            "min_poly": _exacts(field.min_poly.coeffs),
            "recorded_disc": exact(seed.recorded_disc),
            "recorded_automorphism_count": exact(seed.recorded_automorphism_count),
            "recorded_generator_positive_count": exact(seed.recorded_positive_count),
        },
        "extension": {"delta": _coords(seed.ext.delta)},
        "forms": {"first": _rows(seed.h1.diag), "second": _rows(seed.h2.diag)},
        "twist": {"tau": _exacts(seed.tau)},
        "units": {
            "claimed_unit_coords": _rows(seed.claimed_units),
            "lambda_generators": _rows(seed.lambda_generators),
        },
        "local_samples": {
            "norm_element_coords": _rows(seed.norm_elements),
            "norm_primes": _exacts(seed.norm_primes),
            "product_element_coords": _rows(seed.product_elements),
        },
        "congruence_primes": _exacts(seed.congruence_primes),
        "probe_prime": exact(seed.probe_prime),
    }
    if seed.closure is not None:
        echo["closure"] = {
            "min_poly": _exacts(seed.closure.closure.min_poly.coeffs),
            "recorded_disc": exact(seed.closure_recorded_disc),
            "embeddings": _rows(seed.closure.embeddings),
        }
    return echo


def build_certificate(seed: SeedInput, echo: dict) -> dict:
    """Run the whole pipeline on one seed. Pure and deterministic: equal
    seeds give byte-equal certificates. `echo` is the seed's input record;
    it is not read, only copied whole into `config_echo`, so verification
    recomputes identically from the echoed input alone."""
    field, ext, h1, h2 = seed.field, seed.ext, seed.h1, seed.h2
    discrepancies: list[dict] = []

    # field data
    disc = field.discriminant
    recorded_disc = seed.recorded_disc
    aut = automorphism_count(field)
    signs = field.generator().signs()
    positive = sum(1 for s in signs if s > 0)
    intervals = [[exact(iv.lo), exact(iv.hi)] for iv in field.real_place_intervals()]
    field_block = {
        "min_poly": _exacts(field.min_poly.coeffs),
        "disc": exact(disc),
        "disc_matches_recorded": disc == recorded_disc,
        "automorphism_count": exact(aut),
        "generator_signs": [exact(s) for s in signs],
        "place_intervals": intervals,
    }
    if disc != recorded_disc:
        discrepancies.append(_discrepancy("field_block/disc", disc, recorded_disc))
    if positive != seed.recorded_positive_count:
        discrepancies.append(
            _discrepancy(
                "field_block/generator_signs",
                positive,
                seed.recorded_positive_count,
                "count of real places where the generator is positive "
                "disagrees with the recorded claim; the recorded signature "
                "products still match under the place dictionary below",
            )
        )
    if aut != seed.recorded_automorphism_count:
        discrepancies.append(
            _discrepancy("field_block/automorphism_count", aut, seed.recorded_automorphism_count)
        )

    # quadratic extension
    delta = ext.delta
    cm_block = {
        "delta": _coords(delta),
        "delta_signs": [exact(s) for s in delta.signs()],
        "totally_negative": all(s < 0 for s in delta.signs()),
    }

    # closure field and embeddings; searched seeds carry no closure data
    closure_block = None
    closure = seed.closure
    if closure is not None:
        closure_disc = closure.closure.discriminant
        recorded_closure_disc = seed.closure_recorded_disc
        ratio = closure_disc / recorded_closure_disc
        is_sq = is_rational_square(ratio)
        closure_block = {
            "min_poly": _exacts(closure.closure.min_poly.coeffs),
            "poly_disc": exact(closure_disc),
            "recorded_disc": exact(recorded_closure_disc),
            "disc_ratio": exact(ratio),
            "disc_ratio_is_square": is_sq,
            "embeddings": _rows(closure.embeddings),
            "embedding_checks": list(closure.verify_all()),
        }
        if is_sq:
            closure_block["disc_ratio_sqrt"] = exact(
                Fraction(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator))
            )
        if ratio != 1:
            discrepancies.append(
                _discrepancy(
                    "closure_block/poly_disc",
                    closure_disc,
                    recorded_closure_disc,
                    "the two differ by the square " + exact(ratio)
                    if is_sq
                    else "the ratio is not a rational square",
                )
            )

    # the two forms
    forms_block = {
        "rank": exact(h1.rank),
        "first": _rows(h1.diag),
        "second": _rows(h2.diag),
        "disc_first": _coords(h1.disc),
        "disc_second": _coords(h2.disc),
    }

    pat1, pat2 = h1.signatures, h2.signatures
    signature_table = {"first": _pattern_rows(pat1), "second": _pattern_rows(pat2)}

    indef1, indef2 = indefinite_places(h1), indefinite_places(h2)
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
    twisted = twist_pattern(pat1, seed.tau)
    twist_block = {
        "tau": _exacts(seed.tau),
        "twisted_pattern": _pattern_rows(twisted),
        "pattern_match": twisted == pat2,
    }

    # units
    unit_entries = [{"coords": _coords(u), "is_unit": u.is_unit()} for u in seed.claimed_units]
    units_block = {"entries": unit_entries}

    # sampled local data
    norm_tests = []
    for u in seed.norm_elements:
        coords = _coords(u)
        for p in seed.norm_primes:
            for place in factor_prime(field, p):
                res = local_norm_test(ext, u, place)
                norm_tests.append(
                    {
                        "element": list(coords),
                        "place": res.label,
                        "is_norm": res.is_norm,
                        "method": res.method,
                    }
                )
    product_reports = []
    for u in seed.product_elements:
        report = hilbert_product_check(ext, u)
        product_reports.append(
            {
                "element": _coords(u),
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
    level_places = []
    index_entries = []
    for ell in seed.congruence_primes:
        try:
            places = factor_prime(field, ell)
        except UnsupportedPlaceError as exc:
            index_entries.append({"place": f"prime {ell}", "refused": str(exc)})
            continue
        for place in places:
            try:
                split = splitting_in_E(ext, place)
                idx = congruence_index(place, h1)
            except (UnsupportedPlaceError, InconclusiveError) as exc:
                index_entries.append({"place": place.label(), "refused": str(exc)})
                continue
            level_places.append(place)
            index_entries.append(
                {
                    "place": place.label(),
                    "splitting": split.kind,
                    "residue_field_size": exact(place.prime**place.residue_degree),
                    "index": exact(idx),
                }
            )
    index_block = {"entries": index_entries}

    # the covolume record at the shared level: it reads only a form's
    # extension and rank, both forms lie over the seed's extension, and
    # seed_pair_check refuses two ranks, so one record serves both forms
    level_id = level_id_for(level_places, h1)
    record = fingerprint(h1, level_id)
    fingerprint_block = {
        "level_id": level_id,
        "first": record,
        "second": record,
        "equal": True,
        "mismatched": [],
    }

    # overall verdict
    probe_place = factor_prime(field, seed.probe_prime)[0]
    verdict = seed_pair_check(h1, h2, seed.tau, probe_place=probe_place)
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
        "config_echo": {"input": echo, "lambda_height": exact(LAMBDA_HEIGHT)},
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
    echo = load_example_fixture()
    return build_certificate(parse_seed_input(echo), echo)


class VerificationReport(Frozen):
    """The paths at which a certificate differs from its recomputation;
    `status` is MISMATCH when there are any and OK otherwise."""

    __slots__ = ("paths",)

    def __init__(self, paths: tuple[str, ...]):
        _set(self, "paths", tuple(paths))

    @property
    def status(self) -> str:
        return MISMATCH if self.paths else OK

    def __bool__(self) -> bool:
        return not self.paths


def verify_payload(recorded: dict) -> VerificationReport:
    """Recompute the pipeline from the certificate's own echoed input and
    compare every recorded value.

    An echo that `parse_seed_input` refuses (a missing key, a value of the
    wrong type or shape) raises CertificateFormatError.
    """
    echo = recorded.get("config_echo")
    if not isinstance(echo, dict) or "input" not in echo:
        raise CertificateFormatError("certificate carries no input echo")
    inputs = echo["input"]
    recomputed = build_certificate(parse_seed_input(inputs), inputs)
    return VerificationReport(() if recorded == recomputed else diff_paths(recorded, recomputed))


def verify_certificate(path: str) -> VerificationReport:
    return verify_payload(load_certificate(path))
