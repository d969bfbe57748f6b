import importlib.util
import io
import json
import os
import sys
import urllib.request
from pathlib import Path
from urllib.error import URLError

import pytest

from compstats.errors import BFileParseError, NetworkUnavailable, UnknownSequence
from compstats.oeis import (
    BFile,
    check_sequence,
    fetch_bfile,
    load_bfile,
    load_metadata,
    parse_bfile,
    sequence_terms,
)

FIXTURES = Path(__file__).parent / "data" / "oeis"


def test_parse_bfile_basic():
    # comments, blank and whitespace-only lines are skipped, indented or not
    bfile = parse_bfile("# comment\n1 1\n  #2 9\n 2  2 \n\n \t\n#\n3\t3\n", sequence_id="A000027")
    assert bfile.sequence_id == "A000027"
    assert bfile.rows == ((1, 1), (2, 2), (3, 3))
    # a field may carry a sign, a comment any character, and any whitespace
    # may separate the fields
    assert (parse_bfile("# caf\u00e9_1\n-1 +2\n0\u00a0-3\n").rows
            == ((-1, 2), (0, -3)))


def test_parse_bfile_reports_line_numbers():
    for text, message in (
            ("1 1\n2 two\n", "line 2: non-integer field in '2 two'"),
            ("1 1\n  # note\n\n3 3 3\n", "line 4: expected 'index value', got '3 3 3'"),
            ("5 1\n\t4 1 \n", "line 2: index 4 does not increase past 5"),
            # int() takes "_" separators and non-ASCII digits; a field does not
            ("1_0 5\n", "line 1: non-integer field in '1_0 5'"),
            ("1 5\n\uff11\uff11 2\n", "line 2: non-integer field in '\uff11\uff11 2'")):
        with pytest.raises(BFileParseError) as exc:
            parse_bfile(text)
        assert str(exc.value) == message


def test_load_bfile_derives_sequence_id():
    bfile = load_bfile(FIXTURES / "b189074.txt")
    assert bfile.sequence_id == "A189074"
    assert bfile.rows[0] == (1, 1)


def test_fetch_bfile_reads_through_urlopen(monkeypatch):
    requested = []

    def serve(url, timeout):
        requested.append(url)
        return io.BytesIO(b"# A189052\n1 0\n2 0\n3 2\n")

    monkeypatch.setattr(urllib.request, "urlopen", serve)
    bfile = fetch_bfile("A189052")
    assert requested == ["https://oeis.org/A189052/b189052.txt"]
    assert bfile == BFile("A189052", ((1, 0), (2, 0), (3, 2)))


def test_fetch_bfile_maps_url_error_to_network_unavailable(monkeypatch):
    def refuse(url, timeout):
        raise URLError("no route to host")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    with pytest.raises(NetworkUnavailable, match="could not fetch .*b189052.txt.*no route"):
        fetch_bfile("A189052")


def test_sequence_terms_triangle_start():
    terms = sequence_terms("A189074", 5)
    # rows n=1..5 of the inversion triangle
    assert terms == [1, 2, 3, 1, 5, 2, 1, 7, 5, 3, 1]


def test_sequence_terms_totals():
    assert sequence_terms("A189052", 5) == [0, 0, 1, 4, 14]
    assert sequence_terms("A189073", 3) == [0, 0, 0, 0, 1, 0]


def test_sequence_terms_unknown():
    with pytest.raises(UnknownSequence):
        sequence_terms("A000001", 5)


def test_check_sequence_agreement():
    for seq, digits in (("A189052", "189052"), ("A189073", "189073"),
                        ("A189074", "189074"), ("A238343", "238343"),
                        ("A238344", "238344")):
        bfile = load_bfile(FIXTURES / f"b{digits}.txt")
        report = check_sequence(seq, bfile, 12)
        assert report.agree, report.summary()
        assert report.terms_checked > 0
        assert "all agree" in report.summary()


def test_check_sequence_detects_mismatch():
    doctored = BFile("A189052", ((1, 0), (2, 0), (3, 999)))
    report = check_sequence("A189052", doctored, 8)
    assert not report.agree
    assert report.first_mismatch == (3, 999, 1)
    assert "mismatch at index 3" in report.summary()


def test_check_sequence_respects_metadata_offset():
    # shifting the offset by one misaligns everything after the first terms
    bfile = load_bfile(FIXTURES / "b189052.txt")
    metadata = {"A189052": {"quantity": "ic_total", "n_start": 1, "offset": 2}}
    report = check_sequence("A189052", bfile, 10, metadata)
    assert not report.agree


# A189052 at max_n 5 computes the terms 0, 0, 1, 4, 14 of n = 1..5

def test_check_sequence_skips_rows_outside_the_computed_terms():
    # rows below the offset, and rows from offset + len(terms) on, are neither compared
    # nor counted, whatever their values
    rows = ((-1, 7), (0, 7), (1, 0), (2, 0), (3, 1), (4, 4), (5, 14), (6, 999), (40, 1))
    assert check_sequence("A189052", BFile("A189052", rows), 5) == ("A189052", 5, True, None)
    shifted = {"A189052": {"quantity": "ic_total", "offset": 3}}
    rows = ((1, 7), (2, 7), (3, 0), (4, 0), (5, 1), (6, 4), (7, 14), (8, 999))
    assert (check_sequence("A189052", BFile("A189052", rows), 5, shifted)
            == ("A189052", 5, True, None))


def test_check_sequence_allows_gaps_in_the_indices():
    report = check_sequence("A189052", BFile("A189052", ((1, 0), (3, 1), (5, 14))), 5)
    assert report == ("A189052", 3, True, None)
    report = check_sequence("A189052", BFile("A189052", ((2, 0), (5, 13), (6, 0))), 5)
    assert report == ("A189052", 2, False, (5, 13, 14))


def test_check_sequence_reports_the_first_mismatch_in_range():
    rows = ((0, 999), (1, 0), (2, 7), (3, 8), (6, 999))
    report = check_sequence("A189052", BFile("A189052", rows), 5)
    assert report == ("A189052", 2, False, (2, 7, 0))


def test_a_sequence_missing_from_the_metadata_falls_back_to_the_defaults():
    bfile = load_bfile(FIXTURES / "b189052.txt")
    expected = check_sequence("A189052", bfile, 10)
    assert expected.agree
    for metadata in ({}, {"A189074": {"quantity": "dc_triangle", "offset": 2}},
                     load_metadata(FIXTURES / "metadata.json")):
        assert check_sequence("A189052", bfile, 10, metadata) == expected


def test_a_none_metadata_entry_is_unknown_sequence():
    bfile = load_bfile(FIXTURES / "b189052.txt")
    with pytest.raises(UnknownSequence, match="no mapping for sequence 'A189052'"):
        check_sequence("A189052", bfile, 5, {"A189052": None})
    with pytest.raises(UnknownSequence, match="no mapping for sequence 'A189052'"):
        sequence_terms("A189052", 5, {"A189052": None})


@pytest.mark.parametrize("metadata", [
    {"A189074": {"n_start": 1}},
    {"A189074": {"quantity": "ic_totals"}},
    {"A189074": {"quantity": "ic_triangle", "n_start": None}},
    {"A189074": {"quantity": "ic_triangle", "n_start": -3}},
    {"A189074": {"quantity": "ic_triangle", "n_start": True}},
    {"A189074": {"quantity": "ic_triangle", "offset": 1.5}},
    {"A189074": {"quantity": "ic_triangle", "offset": "1"}},
    {"A189074": [1, 2]},
    [1, 2],
])
def test_malformed_metadata_is_unknown_sequence(metadata):
    bfile = load_bfile(FIXTURES / "b189074.txt")
    with pytest.raises(UnknownSequence, match="A189074"):
        check_sequence("A189074", bfile, 5, metadata)


def test_metadata_file_matches_defaults():
    metadata = load_metadata(FIXTURES / "metadata.json")
    for seq in ("A189052", "A189073", "A189074", "A238343", "A238344"):
        assert metadata[seq]["offset"] == 1
        assert metadata[seq]["n_start"] == 1


def test_generate_fixtures_reproduces_the_bfiles(monkeypatch):
    # load the generator without running it or leaving a bytecode cache behind
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", FIXTURES / "generate_fixtures.py")
    generator = importlib.util.module_from_spec(spec)
    listing = sorted(FIXTURES.iterdir())
    spec.loader.exec_module(generator)
    max_n = 10
    computed = {
        "A189052": generator.total_inversions(max_n),
        "A189073": generator.flatten(generator.total_inversions_by_k(max_n)),
        "A189074": generator.flatten(generator.inversion_triangle(max_n)),
        "A238343": generator.flatten(generator.descent_triangle(max_n)),
    }
    computed["A238344"] = computed["A238343"]
    for sequence_id, values in computed.items():
        rows = load_bfile(FIXTURES / f"b{sequence_id[1:]}.txt").rows
        assert [value for _, value in rows[:len(values)]] == values, sequence_id
        assert [index for index, _ in rows[:len(values)]] == list(range(1, len(values) + 1))
    assert sorted(FIXTURES.iterdir()) == listing


# the memos behind a warm check: b-file rows and metadata keyed by their text,
# terms by (quantity, n_start, max_n); none may serve a stale or shared-mutable result

SEQUENCE_IDS = ("A189052", "A189073", "A189074", "A238343", "A238344")


def test_load_bfile_reads_a_rewritten_file_again(tmp_path):
    path = tmp_path / "b189052.txt"
    path.write_text("1 0\n2 0\n3 1\n")
    assert load_bfile(path).rows == ((1, 0), (2, 0), (3, 1))
    path.write_text("1 0\n2 0\n3 999\n")
    rewritten = load_bfile(path)
    assert rewritten.rows == ((1, 0), (2, 0), (3, 999))
    assert not check_sequence("A189052", rewritten, 5).agree


def crlf(path: Path, target: Path) -> Path:
    """Write ``path``'s text to ``target`` with every line ending CRLF."""
    target.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return target


def test_a_crlf_bfile_reads_as_its_lf_version(tmp_path):
    for sequence_id in SEQUENCE_IDS:
        lf = FIXTURES / f"b{sequence_id[1:]}.txt"
        assert load_bfile(crlf(lf, tmp_path / lf.name)) == load_bfile(lf)
    bad = "# note\n\n1 1\n  \n2 x\n"
    for ending in ("\n", "\r\n"):
        path = tmp_path / "b189052.txt"
        path.write_bytes(bad.replace("\n", ending).encode())
        with pytest.raises(BFileParseError) as exc:
            load_bfile(path)
        assert str(exc.value) == "line 5: non-integer field in '2 x'"


def test_a_crlf_metadata_file_reads_as_its_lf_version(tmp_path):
    lf = FIXTURES / "metadata.json"
    assert load_metadata(crlf(lf, tmp_path / "metadata.json")) == load_metadata(lf)
    positions = []
    for ending in ("\n", "\r\n"):
        path = tmp_path / "metadata.json"
        path.write_bytes('{\n  "A189052": {\n    "offset": ,\n  }\n}\n'.replace("\n", ending).encode())
        with pytest.raises(json.JSONDecodeError) as exc:
            load_metadata(path)
        positions.append((exc.value.lineno, exc.value.colno))
    assert positions == [(3, 15)] * 2


def test_a_malformed_text_raises_on_every_parse():
    for _ in range(2):
        with pytest.raises(BFileParseError) as exc:
            parse_bfile("1 1\n2 2\n3 x\n")
        assert str(exc.value) == "line 3: non-integer field in '3 x'"


def test_one_text_parsed_under_two_ids_keeps_each_id(tmp_path):
    text = (FIXTURES / "b238343.txt").read_text()
    for sequence_id in ("A238343", "A238344", "A238343"):
        assert parse_bfile(text, sequence_id).sequence_id == sequence_id
    copy = tmp_path / "b238344.txt"
    copy.write_text(text)
    first, second = load_bfile(FIXTURES / "b238343.txt"), load_bfile(copy)
    assert (first.sequence_id, second.sequence_id) == ("A238343", "A238344")
    assert first.rows == second.rows


def test_load_metadata_is_read_only_at_every_level(tmp_path):
    path = FIXTURES / "metadata.json"
    metadata = load_metadata(path)
    with pytest.raises(TypeError):
        metadata["A189052"] = {"quantity": "dc_triangle"}
    with pytest.raises(TypeError):
        metadata["A189052"]["offset"] = 2
    assert load_metadata(path) == json.loads(path.read_text())
    # arrays become tuples, so nothing a load returns can be changed in place
    listed = tmp_path / "metadata.json"
    listed.write_text('{"A189052": {"quantity": "ic_total", "notes": [["a"], {"b": 1}]}}')
    notes = load_metadata(listed)["A189052"]["notes"]
    assert notes == (("a",), {"b": 1})
    with pytest.raises(TypeError):
        notes[1]["b"] = 2
    assert check_sequence("A189052", load_bfile(FIXTURES / "b189052.txt"), 16,
                          load_metadata(listed)).agree


def test_sequence_terms_returns_a_fresh_list():
    terms = sequence_terms("A189074", 5)
    terms[0] = 99
    terms.append(0)
    assert sequence_terms("A189074", 5) == [1, 2, 3, 1, 5, 2, 1, 7, 5, 3, 1]


def test_every_start_past_max_n_shares_one_terms_key(clear_memos):
    from compstats.oeis import _terms

    clear_memos()
    for n_start in (6, 7, 50, 10**9):
        metadata = {"A189074": {"quantity": "ic_triangle", "n_start": n_start}}
        assert sequence_terms("A189074", 5, metadata) == []
    assert _terms.cache_info().currsize == 1


def test_text_memos_hold_the_five_fixtures_and_their_metadata(clear_memos):
    from compstats.oeis import _metadata, _rows

    clear_memos()
    for _ in range(2):
        for sequence_id in SEQUENCE_IDS:
            load_bfile(FIXTURES / f"b{sequence_id[1:]}.txt")
        load_metadata(FIXTURES / "metadata.json")
    assert (_rows.cache_info().hits, _rows.cache_info().misses) == (5, 5)
    assert (_metadata.cache_info().hits, _metadata.cache_info().misses) == (1, 1)


def test_check_sequence_is_the_same_with_warm_and_cleared_memos(clear_memos):
    metadata = load_metadata(FIXTURES / "metadata.json")
    cold = {}
    for sequence_id in SEQUENCE_IDS:
        for max_n in range(17):
            clear_memos()
            bfile = load_bfile(FIXTURES / f"b{sequence_id[1:]}.txt")
            cold[sequence_id, max_n] = check_sequence(sequence_id, bfile, max_n, metadata)
    warm = {(sequence_id, max_n): check_sequence(
                sequence_id, load_bfile(FIXTURES / f"b{sequence_id[1:]}.txt"), max_n, metadata)
            for sequence_id in SEQUENCE_IDS for max_n in range(17)}
    assert warm == cold
    assert all(report.agree for report in warm.values())
    assert [warm[sequence_id, max_n].terms_checked for sequence_id in ("A189052", "A238343")
            for max_n in (0, 1, 16)] == [0, 1, 16, 0, 1, 56]


# the raw read behind load_bfile and load_metadata closes every descriptor and keeps every chunk

@pytest.mark.parametrize("content, error", [(b"1 1\n2 2\n", None),
                                            (b"1 1\n# \xff\n", UnicodeDecodeError),
                                            (None, IsADirectoryError)],
                         ids=["utf8", "not-utf8", "directory"])
def test_read_text_closes_every_descriptor_it_opens(tmp_path, monkeypatch, content, error):
    from compstats.oeis import _read_text

    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def tracked_open(*args, **kwargs):
        fd = real_open(*args, **kwargs)
        opened.append(fd)
        return fd

    def tracked_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", tracked_open)
    monkeypatch.setattr(os, "close", tracked_close)
    path = tmp_path / "b189052.txt"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if error is None:
        assert _read_text(path) == content.decode()
    else:
        with pytest.raises(error):
            _read_text(path)
    assert len(opened) == 1
    assert closed == opened


def test_a_bfile_longer_than_one_read_chunk_loads_every_row(tmp_path):
    from compstats.oeis import READ_CHUNK

    comments = "# " + "x" * 97 + "\n"
    rows = [(n, n * n) for n in range(1, 201)]
    text = comments * (READ_CHUNK // len(comments) + 50) + "".join(
        f"{n} {value}\n" for n, value in rows)
    assert len(text) > READ_CHUNK + 5000
    path = tmp_path / "b000290.txt"
    path.write_text(text)
    assert load_bfile(path).rows == tuple(rows)
