"""The example pipeline end to end: certificate content, determinism, verification."""

import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcert import hermitian
from latcert.certificates import canonical_json, diff_paths, write_certificate
from latcert.errors import CertificateFormatError, InvalidInputError
from latcert.hermitian import HermitianForm
from latcert.number_field import CMExtension
from latcert.runner import (
    MISMATCH,
    OK,
    SeedInput,
    build_certificate,
    load_example_fixture,
    parse_seed_input,
    run_paper_example,
    seed_echo,
    verify_certificate,
    verify_payload,
)


@pytest.fixture(scope="module")
def cert():
    return run_paper_example()


def tampered(cert: dict) -> dict:
    return json.loads(canonical_json(cert))


def _sites(node, path=()):
    """(path, change) for every dict key ("drop") and every leaf ("flip")
    below node."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for step, child in children:
        here = path + (step,)
        if isinstance(node, dict):
            yield here, "drop"
        if isinstance(child, (dict, list)):
            yield from _sites(child, here)
        else:
            yield here, "flip"


class TestFixture:
    def test_loads_and_names_itself(self):
        fx = load_example_fixture()
        assert fx["kind"] == "example-input"
        assert fx["field"]["min_poly"] == ["1", "-3", "-1", "1"]
        assert fx["extension"]["delta"] == ["-1", "0", "0"]

    def test_no_bare_numbers_in_fixture(self):
        # the fixture obeys the same exact-string convention as certificates
        canonical_json(load_example_fixture())


class TestCertificateContent:
    def test_field_block(self, cert):
        block = cert["field_block"]
        assert block["disc"] == "148"
        assert block["disc_matches_recorded"] is True
        assert block["automorphism_count"] == "1"
        assert block["generator_signs"] == ["-1", "1", "1"]
        assert len(block["place_intervals"]) == 3

    def test_cm_block(self, cert):
        assert cert["cm_block"]["delta"] == ["-1", "0", "0"]
        assert cert["cm_block"]["totally_negative"] is True

    def test_closure_block_records_computed_disc_verbatim(self, cert):
        block = cert["closure_block"]
        assert block["poly_disc"] == "3319595008"
        assert block["recorded_disc"] == "810448"
        assert block["disc_ratio"] == "4096"
        assert block["disc_ratio_is_square"] is True
        assert block["disc_ratio_sqrt"] == "64"

    def test_all_embeddings_verify(self, cert):
        assert cert["closure_block"]["embedding_checks"] == [True, True, True]

    def test_signature_table(self, cert):
        assert cert["signature_table"] == {
            "first": [["2", "1"], ["0", "3"], ["0", "3"]],
            "second": [["0", "3"], ["2", "1"], ["0", "3"]],
        }

    def test_place_dictionary(self, cert):
        assert cert["place_dictionary"] == {
            "recorded_place_1": "0",
            "recorded_place_2": "1",
            "recorded_place_3": "2",
        }

    def test_twist_block(self, cert):
        assert cert["twist_block"]["tau"] == ["1", "0", "2"]
        assert cert["twist_block"]["pattern_match"] is True

    def test_units_all_confirmed(self, cert):
        assert [e["is_unit"] for e in cert["units_block"]["entries"]] == [True, True, True]

    def test_norm_tests_sampled(self, cert):
        tests = cert["local_block"]["norm_tests"]
        assert len(tests) == 6
        assert all(t["is_norm"] is True for t in tests)
        methods = {t["place"]: t["method"] for t in tests}
        assert methods["3#0"] == "unramified-valuation"
        assert methods["5#0"] == "split"
        assert methods["5#1"] == "split"

    def test_product_reports(self, cert):
        reports = cert["local_block"]["product_reports"]
        assert [r["minus_count"] for r in reports] == ["2", "2", "0", "4"]
        assert all(r["conclusive"] is True for r in reports)
        assert all(r["minus_count_even"] is True for r in reports)

    def test_index_block(self, cert):
        entries = {e["place"]: e for e in cert["index_block"]["entries"]}
        assert entries["3#0"]["index"] == "282056445216"
        assert entries["3#0"]["splitting"] == "inert"
        assert entries["5#0"]["index"] == "372000"
        assert entries["5#1"]["index"] == "152334000000"
        assert entries["5#1"]["residue_field_size"] == "25"

    def test_fingerprints_agree(self, cert):
        block = cert["fingerprint_block"]
        assert block["equal"] is True
        assert block["mismatched"] == []
        assert block["level_id"] == "b2f47448706d998d"
        assert block["first"] == block["second"]
        assert block["first"]["group_dim"] == "8"
        assert block["first"]["exponents"] == ["1", "2"]
        assert block["first"]["tamagawa"] == "1"

    def test_verdict_pass_on_all_components(self, cert):
        verdict = cert["verdict"]
        assert verdict["overall"] == "PASS"
        assert set(verdict["components"]) == {
            "standing-assumption",
            "non-isomorphism",
            "twist-match",
            "local-rule",
        }
        assert all(c["status"] == "PASS" for c in verdict["components"].values())
        assert verdict["probe_place"] == "5#0"

    def test_discrepancies_reported_not_reconciled(self, cert):
        at = {d["at"]: d for d in cert["discrepancies"]}
        assert set(at) == {"field_block/generator_signs", "closure_block/poly_disc"}
        sign = at["field_block/generator_signs"]
        assert (sign["computed"], sign["recorded"]) == ("2", "1")
        disc = at["closure_block/poly_disc"]
        assert (disc["computed"], disc["recorded"]) == ("3319595008", "810448")

    def test_assumptions_listed(self, cert):
        text = " ".join(cert["assumptions"])
        assert "torsion-free" in text
        assert "surjective" in text


# sha256 of the paper-example certificate, format "1"
PAPER_EXAMPLE_SHA256 = "0626ad5d39536c7fd2afcbd755d9438e2eba3acabb5634298be05e9e081b4f61"


class TestDeterminism:
    def test_byte_identical_reruns(self, cert):
        assert canonical_json(run_paper_example()) == canonical_json(cert)

    def test_pinned_certificate_bytes(self, cert):
        digest = hashlib.sha256(canonical_json(cert).encode("utf-8")).hexdigest()
        assert digest == PAPER_EXAMPLE_SHA256

    def test_no_timestamps(self, cert):
        lowered = canonical_json(cert).lower()
        assert "time" not in lowered
        assert "date" not in lowered


class TestVerification:
    def test_fresh_certificate_verifies(self, cert):
        report = verify_payload(cert)
        assert report.status == OK
        assert bool(report) is True
        assert report.paths == ()

    def test_each_form_classified_once(self, cert, monkeypatch):
        # two forms, each working out its signature pattern on construction
        calls = []
        original = hermitian.signature_pattern

        def counting(h):
            calls.append(h)
            return original(h)

        monkeypatch.setattr(hermitian, "signature_pattern", counting)
        assert verify_payload(cert).status == OK
        assert len(calls) == 2

    def test_file_round_trip_verifies(self, cert, tmp_path):
        path = write_certificate(cert, str(tmp_path))
        assert verify_certificate(path).status == OK

    def test_flipped_signature_entry_named(self, cert):
        bad = tampered(cert)
        bad["signature_table"]["first"][0][0] = "1"
        report = verify_payload(bad)
        assert report.status == MISMATCH
        assert report.paths == ("signature_table/first/0/0",)

    def test_flipped_index_value_named(self, cert):
        bad = tampered(cert)
        bad["index_block"]["entries"][0]["index"] = "0"
        report = verify_payload(bad)
        assert report.status == MISMATCH
        assert any(p.startswith("index_block") for p in report.paths)

    def test_tampered_input_echo_detected(self, cert):
        bad = tampered(cert)
        bad["config_echo"]["input"]["extension"]["delta"] = ["-2", "0", "0"]
        report = verify_payload(bad)
        assert report.status == MISMATCH
        assert report.paths

    def test_missing_input_echo_refused(self, cert):
        bad = tampered(cert)
        del bad["config_echo"]["input"]
        with pytest.raises(CertificateFormatError):
            verify_payload(bad)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_damage_reported_at_exactly_the_diff_paths(self, cert, data):
        # damage to the input echo changes what is rebuilt, or stops the
        # rebuild; the CLI format-error tests cover it
        echo = ("config_echo", "input")
        sites = [s for s in _sites(cert) if s[0][:2] != echo and s[0] != echo[:1]]
        (*parents, last), change = data.draw(st.sampled_from(sites))
        bad = tampered(cert)
        node = bad
        for step in parents:
            node = node[step]
        if change == "drop":
            del node[last]
        else:
            leaf = node[last]
            node[last] = not leaf if isinstance(leaf, bool) else f"{leaf}0"
        report = verify_payload(bad)
        assert report.status == MISMATCH
        assert report.paths == tuple(diff_paths(bad, cert)) != ()
        intact = verify_payload(tampered(cert))
        assert (intact.status, intact.paths) == (OK, ())

    def test_build_is_a_pure_function_of_inputs(self, cert):
        echo = load_example_fixture()
        rebuilt = build_certificate(parse_seed_input(echo), echo)
        assert canonical_json(rebuilt) == canonical_json(cert)


# x^3 + 2x^2 - 4x - 4: 2 divides the index of its polynomial order
INDEX_TWO_FIELD = ["-4", "-4", "2", "1"]


class TestParseSeedInput:
    def test_paper_example_reads_back_from_its_echo(self):
        seed = parse_seed_input(load_example_fixture())
        assert seed.closure is not None and seed.closure_recorded_disc == 810448
        assert parse_seed_input(seed_echo(seed)) == seed
        assert (seed.tau, seed.probe_prime, seed.congruence_primes) == ((1, 0, 2), 5, (3, 5))

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda echo: echo.update(congruence_primes="35"), "congruence_primes"),
            # a library caller's bare int is not an exact number string
            (lambda echo: echo.update(probe_prime=5), "probe_prime"),
            (lambda echo: echo.update(probe_prime="05"), "probe_prime"),
            (lambda echo: echo["field"]["min_poly"].append("0"), "field.min_poly"),
            (lambda echo: echo["units"].pop("lambda_generators"), "units.lambda_generators"),
            (lambda echo: echo["twist"].update(tau=["1", "0", "0"]), "twist.tau"),
            (lambda echo: echo["forms"]["second"].pop(), "forms"),
            (lambda echo: echo.update(congruence_primes=["3", "9"]), "congruence_primes[1]"),
            (
                lambda echo: echo["local_samples"].update(norm_element_coords=[["0", "0", "0"]]),
                "local_samples.norm_element_coords[0]",
            ),
            (
                lambda echo: echo["units"].update(claimed_unit_coords=[["1/2", "0", "0"]]),
                "units.claimed_unit_coords[0]",
            ),
            (lambda echo: echo["closure"].update(embeddings="x"), "closure.embeddings"),
            (
                lambda echo: echo.update(field=dict(echo["field"], min_poly=INDEX_TWO_FIELD))
                or echo["local_samples"].update(norm_primes=["3", "2"]),
                "local_samples.norm_primes[1]",
            ),
            (
                lambda echo: echo.update(field=dict(echo["field"], min_poly=INDEX_TWO_FIELD))
                or echo.update(probe_prime="2"),
                "probe_prime",
            ),
        ],
    )
    def test_refusal_names_the_key_path(self, edit, path):
        echo = load_example_fixture()
        edit(echo)
        with pytest.raises(CertificateFormatError, match=f"echoed input {re.escape(path)} "):
            parse_seed_input(echo)

    def test_congruence_primes_keep_their_recorded_refusal(self):
        echo = load_example_fixture()
        echo["field"]["min_poly"] = INDEX_TWO_FIELD
        echo["congruence_primes"] = ["2", "3"]
        cert = build_certificate(parse_seed_input(echo), echo)
        (entry,) = [e for e in cert["index_block"]["entries"] if e["place"] == "prime 2"]
        assert "divides the index of the polynomial order" in entry["refused"]


class TestSeedInput:
    def test_forms_over_another_extension_refused(self):
        # forms over sqrt(-2) beside a seed over sqrt(-1) of the same field:
        # the certificate would mix the two extensions and replay to MISMATCH
        seed = parse_seed_input(load_example_fixture())
        field = seed.field
        other = CMExtension(field, field.from_rational(-2))
        h1, h2 = (HermitianForm(other, h.diag) for h in (seed.h1, seed.h2))
        rest = {n: getattr(seed, n) for n in SeedInput.__slots__[4:]}
        for forms in ((h1, h2), (seed.h1, h2), (h1, seed.h2)):
            with pytest.raises(InvalidInputError, match="seed's extension"):
                SeedInput(seed.ext, *forms, seed.tau, **rest)
        assert SeedInput(other, h1, h2, seed.tau, **rest).ext == other
