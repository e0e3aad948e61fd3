"""Canonical serialization, the certificate store, and structural checks."""

import json
import multiprocessing
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import check_payload, stdlib_canonical_json
from latcert import certificates
from latcert.certificates import (
    FORMAT_VERSION,
    TOOL_VERSION,
    canonical_json,
    content_hash,
    diff_paths,
    exact,
    load_certificate,
    parse_exact,
    rebuild_index,
    write_certificate,
)
from latcert.cli import main
from latcert.errors import CertificateFormatError, CertificateVersionError


class TestExactStrings:
    def test_integers(self):
        assert exact(148) == "148"
        assert exact(-3) == "-3"
        assert exact(Fraction(4, 2)) == "2"

    def test_fractions(self):
        assert exact(Fraction(-3, 4)) == "-3/4"

    def test_floats_refused(self):
        with pytest.raises(CertificateFormatError):
            exact(1.5)

    def test_booleans_refused(self):
        # booleans are ints in Python; they must stay native JSON booleans
        with pytest.raises(CertificateFormatError):
            exact(True)

    def test_parse_inverse(self):
        assert parse_exact("148") == 148
        assert parse_exact("-3/4") == Fraction(-3, 4)

    @given(st.fractions())
    def test_round_trip(self, value):
        assert parse_exact(exact(value)) == value

    @pytest.mark.parametrize("bad", ["", "1/0", "a", "1.5.2"])
    def test_bad_strings_refused(self, bad):
        with pytest.raises(CertificateFormatError):
            parse_exact(bad)


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": "2", "a": "1"})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_ascii_only(self):
        text = canonical_json({"x": "α"})
        assert text.isascii()

    def test_bare_numbers_refused(self):
        with pytest.raises(CertificateFormatError, match="bare number"):
            canonical_json({"n": 148})
        with pytest.raises(CertificateFormatError, match="bare number"):
            canonical_json({"deep": ["ok", {"x": 1.5}]})

    def test_non_string_keys_refused(self):
        with pytest.raises(CertificateFormatError):
            canonical_json({"outer": {1: "x"}})

    def test_booleans_none_and_tuples_allowed(self):
        text = canonical_json({"t": (True, None), "s": "x"})
        assert json.loads(text) == {"t": [True, None], "s": "x"}

    def test_known_digest(self):
        assert content_hash("a") == (
            "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"
        )


def _minimal_cert(tag: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "tool_version": TOOL_VERSION,
        "field_block": {"min_poly": ["1", "0", "1"], "disc": tag},
        "verdict": {"overall": "PASS"},
    }


class TestStore:
    def test_write_is_idempotent(self, tmp_path):
        cert = _minimal_cert("148")
        p1 = write_certificate(cert, str(tmp_path))
        p2 = write_certificate(cert, str(tmp_path))
        assert p1 == p2
        names = sorted(os.listdir(tmp_path))
        assert names == sorted([os.path.basename(p1), "index.json"])
        assert os.path.basename(p1) == f"cert_{content_hash(canonical_json(cert))[:16]}.json"

    def test_existing_certificates_never_rewritten(self, tmp_path):
        cert = _minimal_cert("148")
        path = write_certificate(cert, str(tmp_path))
        before = os.stat(path).st_mtime_ns
        write_certificate(cert, str(tmp_path))
        assert os.stat(path).st_mtime_ns == before

    def test_index_lists_field_disc_verdict(self, tmp_path):
        write_certificate(_minimal_cert("148"), str(tmp_path))
        write_certificate(_minimal_cert("81"), str(tmp_path))
        with open(tmp_path / "index.json", encoding="utf-8") as fh:
            index = json.load(fh)
        entries = index["certificates"]
        assert len(entries) == 2
        assert {e["disc"] for e in entries} == {"148", "81"}
        assert all(e["verdict"] == "PASS" for e in entries)
        assert all(e["field"] == ["1", "0", "1"] for e in entries)
        assert [e["file"] for e in entries] == sorted(e["file"] for e in entries)

    def test_rebuild_index_drops_stale_entries(self, tmp_path):
        path = write_certificate(_minimal_cert("148"), str(tmp_path))
        write_certificate(_minimal_cert("81"), str(tmp_path))
        os.unlink(path)
        rebuild_index(str(tmp_path))
        with open(tmp_path / "index.json", encoding="utf-8") as fh:
            index = json.load(fh)
        assert [e["disc"] for e in index["certificates"]] == ["81"]

    def test_load_round_trip(self, tmp_path):
        cert = _minimal_cert("148")
        path = write_certificate(cert, str(tmp_path))
        assert load_certificate(path) == cert

    @pytest.mark.parametrize(
        "cert, error",
        [
            ({"tool_version": TOOL_VERSION}, CertificateFormatError),
            ({**_minimal_cert("148"), "format_version": "99"}, CertificateVersionError),
            ({**_minimal_cert("148"), "field_block": ["1", "0", "1"]}, CertificateFormatError),
            ({**_minimal_cert("148"), "verdict": "PASS"}, CertificateFormatError),
        ],
        ids=["no-version", "wrong-version", "list-field-block", "string-verdict"],
    )
    def test_unloadable_certificate_not_written(self, tmp_path, cert, error):
        with pytest.raises(error):
            write_certificate(cert, str(tmp_path))
        assert not any(n.startswith("cert_") or n.endswith(".tmp") for n in os.listdir(tmp_path))
        write_certificate(_minimal_cert("81"), str(tmp_path))
        assert len(json.loads(_index_file_bytes(tmp_path))["certificates"]) == 1


def _index_file_bytes(directory) -> bytes:
    with open(os.path.join(directory, "index.json"), "rb") as fh:
        return fh.read()


def _stored_name(cert: dict, directory) -> str:
    """The file name write_certificate gives cert, from a store of its own."""
    return os.path.basename(write_certificate(cert, str(directory)))


def _rebuilt_index_bytes(directory) -> bytes:
    rebuild_index(str(directory))
    return _index_file_bytes(directory)


def _truncate(path, size: int = 10) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(size)


def _one_entry_index(disc: str) -> str:
    return '{"certificates": [{"file": "cert_0123456789abcdef.json", %s}]}' % disc


def _write_all(directory, tags, barrier) -> None:
    barrier.wait()
    for tag in tags:
        write_certificate(_minimal_cert(tag), directory)


class TestStoreRepair:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["5", "49", "81", "148", "229", "257"]), min_size=1, max_size=8))
    def test_incremental_index_equals_rebuilt_index(self, tags):
        with tempfile.TemporaryDirectory() as store:
            for tag in tags:
                write_certificate(_minimal_cert(tag), store)
            written = _index_file_bytes(store)
            assert written == _rebuilt_index_bytes(store)
            assert len(json.loads(written)["certificates"]) == len(set(tags))

    def test_truncated_certificate_repaired_by_next_write(self, tmp_path):
        cert = _minimal_cert("148")
        path = write_certificate(cert, str(tmp_path))
        _truncate(path)
        with pytest.raises(CertificateFormatError):
            load_certificate(path)
        assert write_certificate(cert, str(tmp_path)) == path
        assert load_certificate(path) == cert

    def test_torn_file_does_not_block_other_writes(self, tmp_path):
        torn = write_certificate(_minimal_cert("148"), str(tmp_path))
        _truncate(torn)
        (tmp_path / "cert_0123456789abcdef.json").write_bytes(b'{"format_')
        path = write_certificate(_minimal_cert("81"), str(tmp_path))
        assert load_certificate(path) == _minimal_cert("81")
        listed = [e["file"] for e in json.loads(_index_file_bytes(tmp_path))["certificates"]]
        assert listed == sorted([os.path.basename(torn), os.path.basename(path)])

    def test_unindexed_file_added_when_written_again(self, tmp_path, tmp_path_factory):
        write_certificate(_minimal_cert("81"), str(tmp_path))
        before = _index_file_bytes(tmp_path)
        cert = _minimal_cert("148")
        name = _stored_name(cert, tmp_path_factory.mktemp("names"))
        # a crash between publishing the file and indexing it
        (tmp_path / name).write_text(canonical_json(cert), encoding="ascii")
        assert _index_file_bytes(tmp_path) == before
        write_certificate(cert, str(tmp_path))
        listed = [e["file"] for e in json.loads(_index_file_bytes(tmp_path))["certificates"]]
        assert name in listed
        assert _index_file_bytes(tmp_path) == _rebuilt_index_bytes(tmp_path)

    @pytest.mark.parametrize(
        "damage",
        [
            os.unlink,
            _truncate,
            lambda p: Path(p).write_bytes(b"\xff\xfe"),
            lambda p: Path(p).write_text('{"certificates": [{"disc": "5"}]}', encoding="ascii"),
            lambda p: Path(p).write_text(_one_entry_index('"disc": 5'), encoding="ascii"),
            lambda p: Path(p).write_text(_one_entry_index('"disc": 5.0'), encoding="ascii"),
            lambda p: Path(p).write_text(_one_entry_index('"disc": NaN'), encoding="ascii"),
        ],
        ids=["deleted", "truncated", "not-utf8", "entry-without-file", "bare-int", "float", "nan"],
    )
    def test_damaged_index_rebuilt_by_next_write(self, tmp_path, damage):
        write_certificate(_minimal_cert("81"), str(tmp_path))
        write_certificate(_minimal_cert("148"), str(tmp_path))
        damage(str(tmp_path / "index.json"))
        write_certificate(_minimal_cert("229"), str(tmp_path))
        written = _index_file_bytes(tmp_path)
        assert len(json.loads(written)["certificates"]) == 3
        assert written == _rebuilt_index_bytes(tmp_path)

    def test_previous_index_layout_takes_a_write(self, tmp_path):
        write_certificate(_minimal_cert("81"), str(tmp_path))
        write_certificate(_minimal_cert("148"), str(tmp_path))
        entries = json.loads(_index_file_bytes(tmp_path))["certificates"]
        # the indent=1 layout of canonical_json that earlier versions wrote
        previous = json.dumps({"certificates": entries}, sort_keys=True, ensure_ascii=True, indent=1)
        (tmp_path / "index.json").write_text(previous + "\n", encoding="ascii")
        write_certificate(_minimal_cert("229"), str(tmp_path))
        written = _index_file_bytes(tmp_path)
        assert len(json.loads(written)["certificates"]) == 3
        assert written == _rebuilt_index_bytes(tmp_path)

    def test_index_bytes_pinned(self, tmp_path):
        write_certificate(_minimal_cert("81"), str(tmp_path))
        write_certificate(_minimal_cert("148"), str(tmp_path))
        assert _index_file_bytes(tmp_path) == (
            b'{"certificates": [\n'
            b'{"disc": "148", "field": ["1", "0", "1"], "file": "cert_b2bda7f614b79cd8.json", '
            b'"verdict": "PASS"},\n'
            b'{"disc": "81", "field": ["1", "0", "1"], "file": "cert_dd25141365484950.json", '
            b'"verdict": "PASS"}\n'
            b"]}\n"
        )
        os.unlink(tmp_path / "cert_b2bda7f614b79cd8.json")
        os.unlink(tmp_path / "cert_dd25141365484950.json")
        assert _rebuilt_index_bytes(tmp_path) == b'{"certificates": []}\n'

    def test_lost_index_rebuilt_around_torn_file(self, tmp_path):
        torn = write_certificate(_minimal_cert("148"), str(tmp_path))
        kept = write_certificate(_minimal_cert("81"), str(tmp_path))
        _truncate(torn)
        os.unlink(tmp_path / "index.json")
        path = write_certificate(_minimal_cert("229"), str(tmp_path))
        listed = [e["file"] for e in json.loads(_index_file_bytes(tmp_path))["certificates"]]
        assert listed == sorted(os.path.basename(p) for p in (kept, path))
        assert rebuild_index(str(tmp_path)) == str(tmp_path / "index.json")
        write_certificate(_minimal_cert("148"), str(tmp_path))
        assert len(json.loads(_index_file_bytes(tmp_path))["certificates"]) == 3

    @pytest.mark.parametrize("block, value", [("field_block", "x"), ("verdict", ["PASS"])])
    def test_lost_index_rebuilt_around_non_object_block(self, tmp_path, block, value):
        kept = write_certificate(_minimal_cert("81"), str(tmp_path))
        # parses and carries format "1", but the index cannot read it
        bad = tmp_path / "cert_0123456789abcdef.json"
        bad.write_text(canonical_json({**_minimal_cert("148"), block: value}), encoding="ascii")
        with pytest.raises(CertificateFormatError):
            load_certificate(str(bad))
        os.unlink(tmp_path / "index.json")
        path = write_certificate(_minimal_cert("229"), str(tmp_path))
        listed = [e["file"] for e in json.loads(_index_file_bytes(tmp_path))["certificates"]]
        assert listed == sorted(os.path.basename(p) for p in (kept, path))
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_no_temporary_files_left(self, tmp_path):
        cert = _minimal_cert("148")
        path = write_certificate(cert, str(tmp_path))
        _truncate(path)
        write_certificate(cert, str(tmp_path))
        os.unlink(tmp_path / "index.json")
        write_certificate(_minimal_cert("81"), str(tmp_path))
        rebuild_index(str(tmp_path))
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert len(os.listdir(tmp_path)) == 3

    def test_concurrent_writers(self, tmp_path, tmp_path_factory):
        tags = [str(n) for n in range(1, 25)]
        # four overlapping sets of 12 tags, each written in its own order
        plans = [tags[0:12], tags[12:24][::-1], tags[6:18], (tags[18:24] + tags[0:6])[::-1]]
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(len(plans))
        procs = [
            ctx.Process(target=_write_all, args=(str(tmp_path), plan, barrier), daemon=True)
            for plan in plans
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert [p.exitcode for p in procs] == [0] * len(plans)
        names = sorted(n for n in os.listdir(tmp_path) if n.startswith("cert_"))
        elsewhere = tmp_path_factory.mktemp("names")
        assert names == sorted(_stored_name(_minimal_cert(t), elsewhere) for t in tags)
        for name in names:
            text = (tmp_path / name).read_text(encoding="ascii")
            assert name == f"cert_{content_hash(text)[:16]}.json"
        written = _index_file_bytes(tmp_path)
        assert [e["file"] for e in json.loads(written)["certificates"]] == names
        assert written == _rebuilt_index_bytes(tmp_path)
        assert sorted(os.listdir(tmp_path)) == sorted(names + ["index.json"])


class TestLoadErrors:
    def test_not_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("not json{", encoding="utf-8")
        with pytest.raises(CertificateFormatError):
            load_certificate(str(p))

    def test_non_object_root(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(CertificateFormatError):
            load_certificate(str(p))

    def test_missing_format_version(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"tool_version": "0.1.0"}', encoding="utf-8")
        with pytest.raises(CertificateFormatError, match="format_version"):
            load_certificate(str(p))

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format_version": "99"}', encoding="utf-8")
        with pytest.raises(CertificateVersionError):
            load_certificate(str(p))

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_bytes(b'\xff\xfe{"format_version": "1"}')
        with pytest.raises(CertificateFormatError, match="not certificate JSON"):
            load_certificate(str(p))

    def test_bare_numbers_rejected_on_load(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format_version": "1", "n": 5}', encoding="utf-8")
        with pytest.raises(CertificateFormatError):
            load_certificate(str(p))

    @pytest.mark.parametrize(
        "text",
        [
            '{"format_version": "1", "field_block": {"min_poly": ["1", 0, "1"]}}',
            '{"format_version": "1", "verdict": {"overall": "PASS", "score": 0.5}}',
            '{"format_version": "1", "cm_block": {"delta": NaN}}',
            '{"format_version": "1", "cm_block": [{"delta": Infinity}]}',
        ],
        ids=["nested-int", "float", "nan", "infinity"],
    )
    def test_nested_numbers_refused_by_load_and_verify(self, tmp_path, capsys, text):
        p = tmp_path / "x.json"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(CertificateFormatError, match="bare number"):
            load_certificate(str(p))
        assert main(["verify", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("format error: bare number")
        assert "Traceback" not in captured.out + captured.err


# JSON-like trees over a small alphabet, so that unrelated draws are
# sometimes equal
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.text("ab", max_size=2),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text("ab", max_size=2), children, max_size=3),
    max_leaves=8,
)


class TestDiffPaths:
    @given(JSON_TREES, JSON_TREES, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_paths_exactly_when_unequal(self, a, b, twin):
        # a verification report's status is read off these paths
        if twin:
            b = json.loads(json.dumps(a))
        assert bool(diff_paths(a, b)) == (a != b)

    def test_equal(self):
        a = {"x": ["1", {"y": "2"}]}
        assert diff_paths(a, json.loads(json.dumps(a))) == []

    def test_nested_difference_named(self):
        a = {"sig": {"first": [["2", "1"], ["0", "3"]]}}
        b = {"sig": {"first": [["2", "1"], ["3", "0"]]}}
        assert diff_paths(a, b) == ["sig/first/1/0", "sig/first/1/1"]

    def test_missing_key_named(self):
        assert diff_paths({"a": "1"}, {"a": "1", "b": "2"}) == ["b"]

    def test_list_length_mismatch(self):
        assert diff_paths({"a": ["1"]}, {"a": ["1", "2"]}) == ["a"]

    def test_type_change(self):
        assert diff_paths({"a": "1"}, {"a": ["1"]}) == ["a"]


# -- the one-walk writer against the standard library ---------------------------

# every kind of character the writer escapes: quotes, backslashes, control
# characters, non-ASCII, astral and lone surrogate code points
json_strings = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\té\u2028\U0001f600\ud800'),
    max_size=6,
)
payload_trees = st.recursive(
    st.none() | st.booleans() | json_strings,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(json_strings, children, max_size=4)
    ),
    max_leaves=25,
)
FAULTS = [7, -1, 1.5, float("nan"), {1: "x"}, {"a": "ok", None: "y"}, {("k",): "z"}, {"s"}, b"x"]


@st.composite
def one_fault_trees(draw):
    """A payload tree holding exactly one value canonical_json refuses, at a
    random depth among valid siblings."""
    tree = draw(st.sampled_from(FAULTS))
    for _ in range(draw(st.integers(0, 4))):
        siblings = draw(st.lists(payload_trees, max_size=2))
        kind = draw(st.sampled_from(["list", "tuple", "dict"]))
        if kind == "dict":
            keys = draw(st.lists(json_strings, min_size=len(siblings), max_size=len(siblings)))
            node = dict(zip(keys, siblings))
            node[draw(json_strings)] = tree
        else:
            siblings.insert(draw(st.integers(0, len(siblings))), tree)
            node = siblings if kind == "list" else tuple(siblings)
        tree = node
    return tree


class TestOneWalkWriter:
    @settings(max_examples=200, deadline=None)
    @given(payload_trees)
    def test_bytes_equal_the_standard_library(self, tree):
        assert canonical_json(tree) == stdlib_canonical_json(tree)

    @settings(max_examples=100, deadline=None)
    @given(one_fault_trees())
    def test_refusals_match_the_former_walk(self, tree):
        with pytest.raises(CertificateFormatError) as expected:
            check_payload(tree)
        with pytest.raises(CertificateFormatError) as refused:
            canonical_json(tree)
        assert type(refused.value) is type(expected.value)
        assert str(refused.value) == str(expected.value)

    def test_refusal_path(self):
        with pytest.raises(CertificateFormatError) as refused:
            canonical_json({"deep": ["ok", ({"x": "1", "y": 5},)]})
        assert str(refused.value) == "bare number at /deep/1/0/y; use exact()"


# -- spliced index rows ---------------------------------------------------------

TAGS = ["5", "49", "81", "148", "229", "257", "321", "361"]


def _entries(directory) -> list:
    return json.loads(_index_file_bytes(directory))["certificates"]


def _indent_one(path) -> None:
    entries = json.loads(Path(path).read_bytes())["certificates"]
    text = json.dumps({"certificates": entries}, sort_keys=True, ensure_ascii=True, indent=1)
    Path(path).write_text(text + "\n", encoding="ascii")


def _unsorted_rows(path) -> None:
    lines = Path(path).read_bytes().split(b"\n")
    rows = [line.rstrip(b",") for line in lines[1:-2]][::-1]
    Path(path).write_bytes(lines[0] + b"\n" + b",\n".join(rows) + b"\n" + lines[-2] + b"\n")


def _row_over_two_lines(path) -> None:
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw.replace(b'"field": [', b'"field":\n[', 1))


def _rows_moved_between_lines(path) -> None:
    # as many lines as before, but two rows share one and another spans two
    _row_over_two_lines(path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw.replace(b"},\n{", b"}, {", 1))


INDEX_DAMAGE = {
    "indent-1": _indent_one,
    "unsorted-rows": _unsorted_rows,
    "row-over-two-lines": _row_over_two_lines,
    "rows-moved-between-lines": _rows_moved_between_lines,
    "deleted": os.unlink,
    "truncated": _truncate,
    "not-utf8": lambda p: Path(p).write_bytes(b"\xff\xfe"),
    "entry-without-file": lambda p: Path(p).write_text('{"certificates": [{"disc": "5"}]}', encoding="ascii"),
    "bare-int": lambda p: Path(p).write_text(_one_entry_index('"disc": 5'), encoding="ascii"),
    "float": lambda p: Path(p).write_text(_one_entry_index('"disc": 5.0'), encoding="ascii"),
    "nan": lambda p: Path(p).write_text(_one_entry_index('"disc": NaN'), encoding="ascii"),
}


class _CountingEncoder(json.JSONEncoder):
    """The index's row encoder, counting its calls."""

    def __init__(self):
        super().__init__(sort_keys=True, ensure_ascii=True)
        self.calls = 0

    def encode(self, o):
        self.calls += 1
        return super().encode(o)


class TestSplicedIndex:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(TAGS), min_size=1, max_size=10))
    def test_every_write_leaves_the_rebuilt_index(self, tags):
        with tempfile.TemporaryDirectory() as store:
            for tag in tags:
                write_certificate(_minimal_cert(tag), store)
                written = _index_file_bytes(store)
                assert written == _rebuilt_index_bytes(store)

    @pytest.mark.parametrize("damage", sorted(INDEX_DAMAGE))
    @settings(max_examples=5, deadline=None)
    @given(
        st.lists(st.sampled_from(TAGS), min_size=2, max_size=6),
        st.lists(st.sampled_from(TAGS), max_size=4),
    )
    def test_damaged_or_other_layout_rewritten(self, damage, before, after):
        with tempfile.TemporaryDirectory() as store:
            for tag in before:
                write_certificate(_minimal_cert(tag), store)
            INDEX_DAMAGE[damage](os.path.join(store, "index.json"))
            # "999" is not in the index yet, so its write rewrites it
            for tag in ["999", *after]:
                write_certificate(_minimal_cert(tag), store)
                assert _index_file_bytes(store) == _rebuilt_index_bytes(store)
            assert len(_entries(store)) == len({"999", *before, *after})

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_a_write_encodes_one_row(self, tmp_path, monkeypatch, n):
        for tag in TAGS[:n]:
            write_certificate(_minimal_cert(tag), str(tmp_path))
        counting = _CountingEncoder()
        monkeypatch.setattr(certificates, "_ENTRY_ENCODER", counting)
        write_certificate(_minimal_cert("999"), str(tmp_path))
        assert counting.calls == 1
        relayout = _unsorted_rows if n > 1 else _indent_one
        relayout(tmp_path / "index.json")
        counting.calls = 0
        write_certificate(_minimal_cert("1000"), str(tmp_path))
        assert counting.calls == n + 2  # rewritten whole
        assert _index_file_bytes(tmp_path) == _rebuilt_index_bytes(tmp_path)


# -- parse_exact's grammar is Fraction's ----------------------------------------

PARSE_SAMPLES = [
    "0", "-0", "007", "-007", " 7", "7 ", "7\n", "+7", "--7", "1_0", "1.5", "1e2", "٣", "-٣",
    "-", "", "/", "1/2", "-3/4", "1/0", "0/5", "0x10", "1 /2", "١٢/٣", "9" * 40,
]


def _assert_parses_as_fraction(text: str) -> None:
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(CertificateFormatError):
            parse_exact(text)
    else:
        value = parse_exact(text)
        assert type(value) is Fraction and value == expected


class TestParseExactGrammar:
    @pytest.mark.parametrize("text", PARSE_SAMPLES)
    def test_samples(self, text):
        _assert_parses_as_fraction(text)

    @given(st.text(st.sampled_from("0123456789-+/._e \n٣"), max_size=6))
    def test_random_strings(self, text):
        _assert_parses_as_fraction(text)
