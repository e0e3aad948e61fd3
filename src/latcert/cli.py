"""Command-line front end.

Exit codes are part of the contract: 0 means PASS/OK, 1 means FAIL or
MISMATCH, 2 means the computation was conclusive-free (UNKNOWN), and 3 is a
usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .certificates import write_certificate
from .errors import (
    BudgetExceededError,
    CertificateFormatError,
    CertificateVersionError,
    InconclusiveError,
    InvalidInputError,
    LatcertError,
    UnsupportedPlaceError,
)
from .finite_groups import DEFAULT_ENUMERATION_BUDGET, FiniteGroupSpec, enumerate_group, group_order
from .hermitian import (
    HermitianForm,
    forms_equivalent,
    group_isomorphism_verdict,
    indefinite_places,
)
from .local import factor_prime, local_norm_test
from .number_field import CMExtension, NumberField
from .polynomials import Polynomial
from .runner import OK, run_paper_example, verify_certificate
from .search import SearchConfig, search_seeds

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise InvalidInputError(f"bad rational {text!r}") from ex


def _parse_element(field: NumberField, text: str):
    coords = tuple(_parse_rational(c) for c in text.split(","))
    if len(coords) == 1:
        return field.from_rational(coords[0])
    return field.element(coords)


def _parse_form(args) -> HermitianForm:
    field = NumberField(Polynomial.from_string(args.field))
    ext = CMExtension(field, _parse_element(field, args.delta))
    entries = tuple(_parse_element(field, e) for e in args.entries.split(";"))
    return HermitianForm(ext, entries)


def _cmd_paper_example(args) -> int:
    cert = run_paper_example()
    path = write_certificate(cert, args.out)
    overall = cert["verdict"]["overall"]
    print(f"certificate: {path}")
    for name, comp in sorted(cert["verdict"]["components"].items()):
        print(f"{name}: {comp['status']}")
    for d in cert["discrepancies"]:
        print(f"discrepancy at {d['at']}: computed {d['computed']}, recorded {d['recorded']}")
    print(f"verdict: {overall}")
    return {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL}.get(overall, EXIT_UNKNOWN)


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        degree=args.degree,
        coefficient_bound=args.bound,
        delta_candidates=tuple(_parse_rational(d) for d in args.delta) or (Fraction(-1),),
        rank=args.rank,
        enumeration_budget=args.budget,
        output_path=args.out,
        max_certificates=args.max_certificates,
    )
    try:
        certs = search_seeds(cfg)
    except BudgetExceededError as ex:
        print(f"budget exhausted: {ex}")
        return EXIT_UNKNOWN
    print(f"{len(certs)} PASS certificate(s)")
    for cert in certs:
        poly = ",".join(cert["field_block"]["min_poly"])
        disc = cert["field_block"]["disc"]
        print(f"field [{poly}] disc {disc}")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    try:
        report = verify_certificate(args.path)
    except CertificateVersionError as ex:
        print(f"version error: {ex}")
        return EXIT_FAIL
    except CertificateFormatError as ex:
        print(f"format error: {ex}")
        return EXIT_FAIL
    except OSError as ex:
        print(f"cannot read certificate: {ex}")
        return EXIT_FAIL
    print(report.status)
    for p in report.paths:
        print(f"mismatch at {p}")
    return EXIT_PASS if report.status == OK else EXIT_FAIL


def _cmd_classify_form(args) -> int:
    h = _parse_form(args)
    print(f"rank: {h.rank}")
    print("signatures: " + " ".join(f"({p},{q})" for p, q in h.signatures))
    print("indefinite places: " + (" ".join(str(j) for j in indefinite_places(h)) or "none"))
    if args.other is None:
        return EXIT_PASS
    other = HermitianForm(h.ext, tuple(_parse_element(h.ext.base, e) for e in args.other.split(";")))
    code = EXIT_PASS
    try:
        print(f"equivalent as forms: {forms_equivalent(h, other)}")
    except InconclusiveError as ex:
        print(f"equivalence: UNKNOWN ({ex})")
        code = EXIT_UNKNOWN
    # the group verdict reads only ranks and signatures, so it is printed
    # whatever the equivalence outcome; unequal or even ranks are out of scope
    try:
        verdict = group_isomorphism_verdict(h, other)
    except InvalidInputError as ex:
        print(f"group verdict: out of scope ({ex})")
        return code
    print(f"group verdict: {verdict.status}")
    if verdict.witness_place is not None:
        print(f"witness place: {verdict.witness_place}")
    return code


def _cmd_local_norm(args) -> int:
    field = NumberField(Polynomial.from_string(args.field))
    ext = CMExtension(field, _parse_element(field, args.delta))
    u = _parse_element(field, args.element)
    code = EXIT_PASS
    for place in factor_prime(field, args.prime):
        try:
            res = local_norm_test(ext, u, place)
        except InconclusiveError as ex:
            print(f"{place.label()}: UNKNOWN ({ex})")
            code = EXIT_UNKNOWN
            continue
        print(f"{place.label()}: {'norm' if res.is_norm else 'not a norm'} ({res.method})")
    return code


def _cmd_finite_order(args) -> int:
    spec = FiniteGroupSpec(args.family, args.size, args.q)
    order = group_order(spec)
    print(f"|{spec}| = {order}")
    if args.enumerate:
        try:
            count = enumerate_group(spec, args.budget)
        except BudgetExceededError as ex:
            print(f"enumeration skipped: {ex}")
            return EXIT_UNKNOWN
        print(f"enumerated: {count}")
        if count != order:
            print("MISMATCH between formula and enumeration")
            return EXIT_FAIL
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    # Each option is attached only to the subcommands whose handler reads it.
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ENUMERATION_BUDGET,
        help="enumeration budget for searches and finite-group counting",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out",
        default="certificates",
        help="directory that receives emitted certificates",
    )

    parser = argparse.ArgumentParser(
        prog="latcert",
        description="build and check certificates for arithmetic lattice seed pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "paper-example",
        parents=[out],
        help="run the full pipeline on the bundled example input",
    )
    p.set_defaults(func=_cmd_paper_example)

    p = sub.add_parser(
        "search", parents=[budget, out], help="search for new seed pairs"
    )
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--bound", type=int, default=3, help="coefficient bound")
    p.add_argument(
        "--delta",
        action="append",
        default=[],
        help="negative rational; repeat for several candidates",
    )
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--max-certificates", type=int, default=None, dest="max_certificates")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="recompute a stored certificate")
    p.add_argument("path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "classify-form",
        help="signatures of a diagonal hermitian form; optionally compare to another",
    )
    p.add_argument("--field", required=True, help="comma-separated minimal polynomial, constant first")
    p.add_argument("--delta", required=True, help="rational or comma-separated coordinates")
    p.add_argument("--entries", required=True, help="diagonal entries separated by ';'")
    p.add_argument("--other", default=None, help="second diagonal to compare against")
    p.set_defaults(func=_cmd_classify_form)

    p = sub.add_parser("local-norm", help="local norm tests above one prime")
    p.add_argument("--field", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=_cmd_local_norm)

    p = sub.add_parser("finite-order", parents=[budget], help="orders of small classical groups")
    p.add_argument("--family", required=True, choices=["GL", "SL", "GU", "SU"])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(func=_cmd_finite_order)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        # argparse exits 0 for --help and 2 for usage problems
        return EXIT_PASS if ex.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except InvalidInputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except (InconclusiveError, BudgetExceededError, UnsupportedPlaceError) as ex:
        print(f"inconclusive: {ex}", file=sys.stderr)
        return EXIT_UNKNOWN
    except LatcertError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as ex:
        print(f"error: cannot write {ex.filename}: {ex.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
