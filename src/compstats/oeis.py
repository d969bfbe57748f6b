"""OEIS b-file parsing and cross-checks against the composition-count closed forms.

A b-file lists one ``index value`` pair per line, each an optional sign and
ASCII digits, '#' comments ignored.  The mapping from a sequence id to the
quantity computed here, together with the index offset and triangle reading
order, comes from fixture metadata; the :data:`SEQUENCES` table provides the
defaults the vendored fixtures use.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

from .errors import BFileParseError, NetworkUnavailable, UnknownSequence
from .tables import DistTable, inversion_totals

OEIS_BFILE_URL = "https://oeis.org/{seq}/b{digits}.txt"
FETCH_TIMEOUT_S = 30.0

# quantity: what the artifact computes for the sequence
#   ic_total      ic(n), total inversions over all compositions of n
#   ic_total_by_k rows n >= 1, entries ic(n, k) for k = 1..n
#   ic_triangle   rows n >= 1, entries ic_r(n) for r = 0..last nonzero r
#   dc_triangle   rows n >= 1, entries dc_r(n) for r = 0..last nonzero r
# offset: b-file index of the first produced term
QUANTITIES = ("ic_total", "ic_total_by_k", "ic_triangle", "dc_triangle")
SEQUENCES: dict[str, dict] = {
    "A189052": {"quantity": "ic_total", "n_start": 1, "offset": 1},
    "A189073": {"quantity": "ic_total_by_k", "n_start": 1, "offset": 1},
    "A189074": {"quantity": "ic_triangle", "n_start": 1, "offset": 1},
    "A238343": {"quantity": "dc_triangle", "n_start": 1, "offset": 1},
    "A238344": {"quantity": "dc_triangle", "n_start": 1, "offset": 1},
}


# rows: the (index, value) pairs in increasing index order
BFile = namedtuple("BFile", "sequence_id rows")


# the memos of b-file and metadata texts are keyed by the whole text, so an
# edited file is parsed again; eight entries hold the five fixtures and their
# metadata.json with room to spare
TEXT_MEMO_SIZE = 8

# the bytes one os.read asks for; a longer file takes more reads
READ_CHUNK = 1 << 16


def parse_bfile(text: str, sequence_id: str = "") -> BFile:
    """Parse b-file text; raises BFileParseError naming the offending line."""
    return BFile(sequence_id=sequence_id, rows=_rows(text))


@lru_cache(maxsize=TEXT_MEMO_SIZE)
def _rows(text: str) -> tuple[tuple[int, int], ...]:
    """The (index, value) rows of a b-file text, shared by every parse of that text; a
    BFileParseError is raised again on every call, since lru_cache keeps no exception."""
    rows: list[tuple[int, int]] = []
    previous: int | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        pieces = raw.split()
        if not pieces or pieces[0][0] == "#":
            continue
        if len(pieces) != 2:
            raise BFileParseError(
                f"line {line_number}: expected 'index value', got {raw!r}")
        try:
            # int() would also take "_" separators and non-ASCII digits
            if "_" in raw or not (pieces[0] + pieces[1]).isascii():
                raise ValueError
            index, value = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise BFileParseError(
                f"line {line_number}: non-integer field in {raw!r}") from None
        if previous is not None and index <= previous:
            raise BFileParseError(
                f"line {line_number}: index {index} does not increase past {previous}")
        previous = index
        rows.append((index, value))
    return tuple(rows)


def _read_text(path: str | Path) -> str:
    # raw OS reads and one decode skip io's FileIO and BufferedReader, and their fstat,
    # isatty and seek calls; the file is still read in full on every call.  str.splitlines
    # and json.loads both take a CRLF line ending as one, so no newline translation is needed
    chunks = []
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
        try:
            while chunk := os.read(fd, READ_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        # os.read names no file (reading a directory fails there): name it as open() does
        exc.filename = os.fspath(path)
        raise
    return b"".join(chunks).decode("utf-8")


def load_bfile(path: str | Path, sequence_id: str = "") -> BFile:
    if not sequence_id:
        stem = Path(path).name.split(".")[0]
        if stem.startswith("b") and stem[1:].isdigit():
            sequence_id = "A" + stem[1:]
    return parse_bfile(_read_text(path), sequence_id=sequence_id)


def fetch_bfile(sequence_id: str) -> BFile:
    """Download a b-file from oeis.org; the test suite never reaches the network."""
    # imported here so that only a fetch pays for loading the network stack
    from urllib.request import urlopen

    digits = sequence_id.lstrip("A")
    url = OEIS_BFILE_URL.format(seq=sequence_id, digits=digits)
    try:
        with urlopen(url, timeout=FETCH_TIMEOUT_S) as response:
            text = response.read().decode("utf-8")
    except OSError as exc:  # URLError and TimeoutError are OSErrors
        raise NetworkUnavailable(f"could not fetch {url}: {exc}") from exc
    return parse_bfile(text, sequence_id=sequence_id)


def load_metadata(path: str | Path) -> Mapping:
    """The sequence metadata in the JSON file at ``path``, read-only at every level (objects
    as mappings, arrays as tuples), so that every load of one text shares one parse."""
    return _metadata(_read_text(path))


@lru_cache(maxsize=TEXT_MEMO_SIZE)
def _metadata(text: str) -> Mapping:
    return _read_only(json.loads(text))


def _read_only(value):
    if isinstance(value, dict):
        return MappingProxyType({key: _read_only(item) for key, item in value.items()})
    if isinstance(value, list):
        return tuple(map(_read_only, value))
    return value


def _sequence_meta(sequence_id: str, max_n: int,
                   metadata: Mapping[str, Mapping] | None) -> tuple[int, tuple[int, ...]]:
    """The sequence's b-file offset and its memoised terms up to max_n, from one lookup of its
    quantity, n_start and offset: ``metadata`` overrides the :data:`SEQUENCES` defaults, and a
    mapping without n_start or offset starts both at 1.

    Raises UnknownSequence unless ``metadata`` maps sequence ids to mappings and the
    sequence's mapping names a quantity of :data:`QUANTITIES`, with sound indices.
    """
    if metadata is not None and not isinstance(metadata, Mapping):
        raise UnknownSequence(f"no mapping for sequence {sequence_id!r}: the metadata is "
                              f"a {type(metadata).__name__}, not a mapping of sequence ids")
    meta = (metadata or {}).get(sequence_id, SEQUENCES.get(sequence_id))
    if meta is None:
        raise UnknownSequence(f"no mapping for sequence {sequence_id!r}")
    if not isinstance(meta, Mapping) or meta.get("quantity") not in QUANTITIES:
        raise UnknownSequence(f"the metadata of sequence {sequence_id!r} names no quantity "
                              f"out of {', '.join(QUANTITIES)}")
    n_start, offset = meta.get("n_start", 1), meta.get("offset", 1)
    if type(n_start) is not int or n_start < 0 or type(offset) is not int:  # no bool either
        raise UnknownSequence(f"the metadata of sequence {sequence_id!r} needs a nonnegative "
                              f"int n_start and an int offset, not {n_start!r} and {offset!r}")
    # every n_start past max_n gives no terms, so they share one key, and the keys stay
    # within the table limit that max_n is checked against
    return offset, _terms(meta["quantity"], min(n_start, max_n + 1), max_n)


def sequence_terms(sequence_id: str, max_n: int,
                   metadata: Mapping[str, Mapping] | None = None) -> list[int]:
    """The artifact's values for the sequence, linearized to the b-file order."""
    return list(_sequence_meta(sequence_id, max_n, metadata)[1])


@lru_cache(maxsize=None)
def _terms(quantity: str, n_start: int, max_n: int) -> tuple[int, ...]:
    terms: list[int] = []
    if quantity == "ic_total":
        by_n, _ = inversion_totals(max_n)
        for n in range(n_start, max_n + 1):
            terms.append(by_n[n])
    elif quantity == "ic_total_by_k":
        _, by_nk = inversion_totals(max_n)
        for n in range(n_start, max_n + 1):
            terms.extend(by_nk[(n, k)] for k in range(1, n + 1))
    else:
        dist = (DistTable.inversions if quantity == "ic_triangle" else DistTable.descents)(max_n)
        for n in range(n_start, max_n + 1):
            terms.extend(dist.row(n))
    return tuple(terms)


# first_mismatch: None, or (index, b-file value, computed value)
class CheckReport(namedtuple("CheckReport", "sequence_id terms_checked agree first_mismatch")):
    __slots__ = ()

    def summary(self) -> str:
        if self.agree:
            return (f"{self.sequence_id}: {self.terms_checked} terms checked, "
                    "all agree")
        index, expected, actual = self.first_mismatch
        return (f"{self.sequence_id}: mismatch at index {index}: "
                f"b-file has {expected}, computed {actual} "
                f"({self.terms_checked} terms checked)")


def check_sequence(sequence_id: str, bfile: BFile, max_n: int,
                   metadata: Mapping[str, Mapping] | None = None) -> CheckReport:
    """Compare the b-file against computed values for all indices both cover."""
    offset, expected = _sequence_meta(sequence_id, max_n, metadata)
    end = offset + len(expected)
    checked = 0
    for index, value in bfile.rows:
        if offset <= index < end:
            checked += 1
            if value != expected[index - offset]:
                return CheckReport(sequence_id, checked, False,
                                   (index, value, expected[index - offset]))
    return CheckReport(sequence_id, checked, True, None)
