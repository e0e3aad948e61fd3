"""CLI subcommands and the exit-code contract."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcert.cli import build_parser, main
from latcert.runner import run_paper_example


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["nonsense"]) == 3

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["finite-order", "--family", "SL"]) == 3

    def test_bad_field_coefficients_are_usage_error(self, capsys):
        code, _, err = run(
            capsys, "local-norm", "--field", "a,b", "--delta", "-1", "--element", "2", "--prime", "5"
        )
        assert code == 3
        assert "bad polynomial string" in err


class TestOptions:
    # Minimal valid argument lists; every subcommand must accept exactly the
    # options its handler reads.
    MINIMAL = {
        "paper-example": [],
        "search": [],
        "verify": ["cert.json"],
        "classify-form": ["--field", "1,-3,-1,1", "--delta", "-1", "--entries", "-1"],
        "local-norm": ["--field", "1,-3,-1,1", "--delta", "-1", "--element", "2", "--prime", "5"],
        "finite-order": ["--family", "SL", "--size", "2", "--q", "2"],
    }
    READ = {
        "paper-example": {"out"},
        "search": {
            "budget",
            "out",
            "degree",
            "bound",
            "delta",
            "rank",
            "max_certificates",
        },
        "verify": {"path"},
        "classify-form": {"field", "delta", "entries", "other"},
        "local-norm": {"field", "delta", "element", "prime"},
        "finite-order": {"family", "size", "q", "enumerate", "budget"},
    }

    @pytest.mark.parametrize("command", sorted(READ))
    def test_each_subcommand_takes_only_what_it_reads(self, command):
        args = build_parser().parse_args([command, *self.MINIMAL[command]])
        assert set(vars(args)) - {"command", "func"} == self.READ[command]

    def test_verify_rejects_precision_cap(self, capsys, tmp_path):
        assert main(["verify", "--precision-cap", "200", str(tmp_path / "cert.json")]) == 3

    @pytest.mark.parametrize("command", ["paper-example", "search"])
    def test_precision_cap_is_gone(self, capsys, command):
        # automorphism counts are exact, so no command takes a precision cap
        assert main([command, "--precision-cap", "200"]) == 3

    def test_search_rejects_height(self, capsys):
        assert main(["search", "--height", "3"]) == 3


class TestPaperExample:
    def test_pass_and_certificate_written(self, capsys, tmp_path):
        code, out, _ = run(capsys, "paper-example", "--out", str(tmp_path))
        assert code == 0
        assert "verdict: PASS" in out
        assert "discrepancy at field_block/generator_signs" in out
        certs = [n for n in os.listdir(tmp_path) if n.startswith("cert_")]
        assert len(certs) == 1

    def test_verify_round_trip(self, capsys, tmp_path):
        run(capsys, "paper-example", "--out", str(tmp_path))
        cert = next(str(tmp_path / n) for n in os.listdir(tmp_path) if n.startswith("cert_"))
        code, out, _ = run(capsys, "verify", cert)
        assert code == 0
        assert "OK" in out


class TestOutPath:
    @pytest.mark.parametrize(
        "command", [["paper-example"], ["search", "--degree", "3", "--bound", "2"]]
    )
    def test_out_naming_a_file_is_usage_error(self, capsys, tmp_path, command):
        afile = tmp_path / "afile"
        afile.write_text("x")
        code, out, err = run(capsys, *command, "--out", str(afile))
        assert code == 3
        assert err == f"error: cannot write {afile}: File exists\n"
        assert "Traceback" not in out + err
        assert afile.read_text() == "x"


class TestVerifyFailures:
    def _emit(self, capsys, tmp_path) -> str:
        run(capsys, "paper-example", "--out", str(tmp_path))
        return next(str(tmp_path / n) for n in os.listdir(tmp_path) if n.startswith("cert_"))

    def test_tampered_certificate_mismatch(self, capsys, tmp_path):
        path = self._emit(capsys, tmp_path)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["field_block"]["automorphism_count"] = "3"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        assert "MISMATCH" in out
        assert "field_block/automorphism_count" in out

    def test_wrong_version_fails(self, capsys, tmp_path):
        path = self._emit(capsys, tmp_path)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["format_version"] = "99"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        assert "version error" in out

    def test_unparseable_file_fails(self, capsys, tmp_path):
        bad = tmp_path / "cert_bad.json"
        bad.write_text("{broken", encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert "format error" in out

    def test_non_utf8_file_is_format_error(self, capsys, tmp_path):
        bad = tmp_path / "cert_bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 1
        assert out.startswith("format error: ")
        assert "Traceback" not in out + err

    def test_missing_file_fails(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda echo: echo["field"].pop("recorded_disc"),
            lambda echo: echo.update(forms="first"),
            lambda echo: echo["extension"].update(delta=["-1", "0"]),
            # integer fields: truncating these would replay a valid PASS
            lambda echo: echo.update(probe_prime="11/2"),
            lambda echo: echo.update(congruence_primes=["7/2", "5"]),
            lambda echo: echo["twist"].update(tau=["1.9", "0", "2"]),
            lambda echo: echo["local_samples"].update(norm_primes=["3", "11/2"]),
            lambda echo: echo["field"].update(recorded_automorphism_count="3/2"),
            lambda echo: echo["field"].update(recorded_generator_positive_count="1.5"),
            # the recomputed closure discriminant is divided by this one
            lambda echo: echo["closure"].update(recorded_disc="0"),
            # a string where a list belongs, which would be read digit by digit
            lambda echo: echo.update(congruence_primes="35"),
            lambda echo: echo["twist"].update(tau="102"),
            lambda echo: echo["local_samples"].update(norm_primes="35"),
            # 2 divides the index of Z[x]/(x^3 + 2x^2 - 4x - 4), so no place
            # above it can be built
            lambda echo: (
                echo["field"].update(min_poly=["-4", "-4", "2", "1"]),
                echo["local_samples"].update(norm_primes=["2"]),
            ),
            lambda echo: (
                echo["field"].update(min_poly=["-4", "-4", "2", "1"]),
                echo.update(probe_prime="2"),
            ),
        ],
        ids=[
            "missing-key",
            "wrong-type",
            "wrong-coordinate-count",
            "fractional-probe-prime",
            "fractional-congruence-prime",
            "fractional-tau",
            "fractional-norm-prime",
            "fractional-automorphism-count",
            "fractional-positive-count",
            "zero-closure-disc",
            "string-congruence-primes",
            "string-tau",
            "string-norm-primes",
            "norm-prime-divides-index",
            "probe-prime-divides-index",
        ],
    )
    def test_malformed_echo_is_format_error(self, capsys, tmp_path, edit):
        path = self._emit(capsys, tmp_path)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        edit(payload["config_echo"]["input"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code, out, err = run(capsys, "verify", path)
        assert code == 1
        assert "format error" in out
        assert "Traceback" not in out + err


# The keys of the paper example's echo that no certificate value is read from
LABELS = {("format_version",), ("kind",), ("name",), ("forms", "recorded_real_products")}


def _read_keys(node: dict, path: tuple = ()):
    for key, child in node.items():
        here = path + (key,)
        if here not in LABELS:
            yield here
            if isinstance(child, dict):
                yield from _read_keys(child, here)


@pytest.fixture(scope="module")
def paper_payload():
    return run_paper_example()


class TestDamagedEcho:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dropped_or_retyped_key_fails_cleanly(self, paper_payload, tmp_path_factory, data):
        payload = json.loads(json.dumps(paper_payload))
        node = payload["config_echo"]["input"]
        *parents, last = data.draw(st.sampled_from(list(_read_keys(node))))
        for key in parents:
            node = node[key]
        kinds = [v for v in (None, True, 7, "7", [], {}) if type(v) is not type(node[last])]
        change = data.draw(st.sampled_from(["drop", *kinds]))
        if change == "drop":
            del node[last]
        else:
            node[last] = change
        path = tmp_path_factory.mktemp("damaged") / "cert_damaged.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
        assert code == 1
        assert out.getvalue().startswith(("format error: ", "MISMATCH"))
        assert "Traceback" not in out.getvalue() + err.getvalue()


class TestSearch:
    def test_small_search_reports_fields(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "search",
            "--degree",
            "3",
            "--bound",
            "2",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert "6 PASS certificate(s)" in out
        files = [n for n in os.listdir(tmp_path) if n.startswith("cert_")]
        assert len(files) == 6

    @pytest.mark.parametrize("delta", ["abc", "1/0"])
    def test_malformed_delta_is_usage_error(self, capsys, tmp_path, delta):
        code, out, err = run(capsys, "search", f"--delta={delta}", "--out", str(tmp_path))
        assert code == 3
        assert err.startswith("error: ") and "Traceback" not in out + err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_max_certificates_below_one_is_usage_error(self, capsys, tmp_path, limit):
        code, out, err = run(
            capsys,
            "search",
            "--degree",
            "3",
            "--bound",
            "2",
            f"--max-certificates={limit}",
            "--out",
            str(tmp_path),
        )
        assert code == 3
        assert err.startswith("error: ") and "PASS certificate" not in out
        assert not os.listdir(tmp_path)

    def test_budget_exhaustion_reports_unknown(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "search",
            "--degree",
            "3",
            "--bound",
            "3",
            "--budget",
            "10",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert "budget exhausted" in out


class TestClassifyForm:
    def test_single_form_report(self, capsys):
        code, out, _ = run(
            capsys,
            "classify-form",
            "--field",
            "1,-3,-1,1",
            "--delta",
            "-1",
            "--entries",
            "0,-1,0;0,-1,0;-1",
        )
        assert code == 0
        assert "signatures: (2,1) (0,3) (0,3)" in out
        assert "indefinite places: 0" in out

    def test_comparison_with_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "classify-form",
            "--field",
            "1,-3,-1,1",
            "--delta",
            "-1",
            "--entries",
            "0,-1,0;0,-1,0;-1",
            "--other",
            "2,0,-1;2,0,-1;-1",
        )
        assert code == 0
        assert "equivalent as forms: False" in out
        assert "group verdict: NOT_ISOMORPHIC" in out
        assert "witness place: 0" in out

    def test_self_comparison_isomorphic(self, capsys):
        code, out, _ = run(
            capsys,
            "classify-form",
            "--field",
            "1,-3,-1,1",
            "--delta",
            "-1",
            "--entries",
            "0,-1,0;0,-1,0;-1",
            "--other",
            "0,-1,0;0,-1,0;-1",
        )
        assert code == 0
        assert "equivalent as forms: True" in out
        assert "group verdict: ISOMORPHIC" in out

    def compare(self, capsys, field, entries, other):
        return run(
            capsys,
            "classify-form",
            f"--field={field}",
            "--delta",
            "-1",
            "--entries",
            entries,
            "--other",
            other,
        )

    def test_self_comparison_where_two_divides_the_index(self, capsys):
        # in Z[sqrt 5] every product check is refused at 2, but a form
        # compared with itself needs none
        code, out, _ = self.compare(capsys, "-5,0,1", "1;1;3", "1;1;3")
        assert code == 0
        assert "equivalent as forms: True" in out
        assert "group verdict: ISOMORPHIC" in out

    def test_undecided_equivalence_still_prints_the_group_verdict(self, capsys):
        code, out, _ = self.compare(capsys, "-5,0,1", "1;1;1", "1;1;3")
        assert code == 2
        assert out.endswith(
            "equivalence: UNKNOWN (norm class comparison undecided at: prime 2)\n"
            "group verdict: ISOMORPHIC\n"
        )

    @pytest.mark.parametrize(
        "entries, other, reason",
        [
            ("1;1", "1;-1", "even rank is out of scope for group verdicts"),
            ("1;1;1", "1;1", "verdict requires equal ranks"),
        ],
    )
    def test_group_verdict_out_of_scope(self, capsys, entries, other, reason):
        code, out, err = self.compare(capsys, "1,-3,-1,1", entries, other)
        assert (code, err) == (0, "")
        assert out.endswith(
            f"equivalent as forms: False\ngroup verdict: out of scope ({reason})\n"
        )


class TestLocalNorm:
    def test_split_prime(self, capsys):
        code, out, _ = run(
            capsys,
            "local-norm",
            "--field",
            "1,-3,-1,1",
            "--delta",
            "-1",
            "--element",
            "0,1,0",
            "--prime",
            "5",
        )
        assert code == 0
        assert "5#0: norm (split)" in out
        assert "5#1: norm (split)" in out

    def test_unit_whose_denominator_the_prime_divides(self, capsys):
        # the element is a unit at 5#0 (e = 1) though 5 divides its
        # denominator; its norm to Q_5 decides the tame symbol there
        code, out, _ = run(
            capsys,
            "local-norm",
            "--field",
            "1,-3,-1,1",
            "--delta=-3,-3,-2",
            "--element=-3/5,-3/5,-2/5",
            "--prime",
            "5",
        )
        assert code == 0
        assert "5#0: norm (hensel-lift)" in out

    def test_inconclusive_dyadic_exit_code(self, capsys):
        # nonrational delta at the dyadic place is outside the engine's reach;
        # values starting with "-" need the --flag=value spelling
        code, out, _ = run(
            capsys,
            "local-norm",
            "--field",
            "1,-3,-1,1",
            "--delta=-4,1,0",
            "--element",
            "2",
            "--prime",
            "2",
        )
        assert code == 2
        assert "UNKNOWN" in out


class TestFiniteOrder:
    def test_order_and_enumeration(self, capsys):
        code, out, _ = run(
            capsys, "finite-order", "--family", "SU", "--size", "3", "--q", "2", "--enumerate"
        )
        assert code == 0
        assert "|SU_3(F_2)| = 216" in out
        assert "enumerated: 216" in out

    def test_budget_skip(self, capsys):
        code, out, _ = run(
            capsys, "finite-order", "--family", "SL", "--size", "4", "--q", "5", "--enumerate"
        )
        assert code == 2
        assert "enumeration skipped" in out

    def test_bad_q_is_usage_error(self, capsys):
        code, _, err = run(capsys, "finite-order", "--family", "SL", "--size", "2", "--q", "6")
        assert code == 3
        assert "prime power" in err
