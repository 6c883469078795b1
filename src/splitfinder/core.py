"""Instance data model and validation.

An instance is a finite binary outcome matrix: every hypothesis answers 0 or
1 on every test, and no two hypotheses share an outcome row (identifiability).
`Instance` keeps its records as columns: test ids and meta, hypothesis ids
and meta, and the validated '0'/'1' rows, which decide equality and are what
gets written.  `outcomes`, a read-only, C-contiguous hypotheses x tests bool
array parsed from the rows once, is what every computation reads.

`validate_instance` accepts a document only through its bulk check, a few set
and array operations per column, and only of JSON's own types: lists, dicts,
str, int, null.  A document that fails the bulk check is walked one record
at a time, in document order, only to raise its first fault with the same
exception and message as a per-record check.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, NoReturn

import numpy as np


class InstanceError(ValueError):
    """Base class for instance validation failures."""


class EmptyInstance(InstanceError):
    pass


class DuplicateId(InstanceError):
    pass


class RowLengthMismatch(InstanceError):
    pass


class DuplicateOutcomeRow(InstanceError):
    pass


class InvalidOutcome(InstanceError):
    pass


class InvalidMeta(InstanceError):
    pass


class MalformedInstance(InstanceError):
    """The document does not have the shape of an instance."""


class InstanceTooLarge(RuntimeError):
    """A size limit was hit: an instance too large to generate, or an
    exhaustive computation asked for beyond its cap."""


@dataclass(frozen=True)
class Instance:
    """Validated, immutable hypothesis/test outcome matrix, kept as columns.

    Each meta entry is the document's own dict (or None for a null or empty
    meta), not a copy, so a caller that changes it changes the instance.
    """

    name: str
    family: str
    params: Mapping[str, Any]
    test_ids: tuple[str, ...]
    test_meta: tuple[dict[str, Any] | None, ...]
    hypothesis_ids: tuple[str, ...]
    rows: tuple[str, ...]  # '0'/'1' strings, one per hypothesis, in test order
    hypothesis_meta: tuple[dict[str, Any] | None, ...]
    # Hypotheses x tests, read-only; the strings above already decide equality.
    outcomes: np.ndarray = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.hypothesis_ids)

    @property
    def m_tests(self) -> int:
        return len(self.test_ids)

    @cached_property
    def test_index(self) -> dict[str, int]:
        return {tid: i for i, tid in enumerate(self.test_ids)}

    @cached_property
    def hypothesis_index(self) -> dict[str, int]:
        return {hid: i for i, hid in enumerate(self.hypothesis_ids)}


def validate_instance(raw: Mapping[str, Any]) -> Instance:
    """Check an instance document and build the indexed Instance.

    Raises MalformedInstance, EmptyInstance, DuplicateId, RowLengthMismatch,
    InvalidOutcome, DuplicateOutcomeRow, or InvalidMeta; anything that passes
    satisfies all instance invariants.  Only the bulk check accepts a
    document; one that fails it is walked a record at a time, in document
    order, so the first fault decides the exception and its message.
    """
    columns = _bulk_columns(raw)
    if columns is None:
        _raise_first_fault(raw)
    test_ids, test_meta, hypothesis_ids, rows, hypothesis_meta, codes = columns
    params = raw.get("params")
    if params is not None and type(params) is not dict:
        raise MalformedInstance("'params' must be an object")
    for key in ("name", "family"):
        if type(raw.get(key, "")) is not str:
            raise MalformedInstance(f"{key!r} must be a string")

    matrix = codes.view(bool)
    matrix.flags.writeable = False
    return Instance(
        name=raw.get("name", ""),
        family=raw.get("family", ""),
        params=dict(params or {}),
        test_ids=tuple(test_ids),
        test_meta=tuple(test_meta),
        hypothesis_ids=tuple(hypothesis_ids),
        rows=tuple(rows),
        hypothesis_meta=tuple(hypothesis_meta),
        outcomes=matrix,
    )


def _row_codes(rows: list[str], m_tests: int) -> np.ndarray:
    """The rows as a hypotheses x tests uint8 array, each character's code minus '0'.

    Encoded as one fixed-width byte string per row, so a non-ASCII
    character raises UnicodeEncodeError; on '0'/'1' rows every entry is 0 or 1.
    """
    codes = np.array(rows, dtype=f"S{m_tests}").view(np.uint8)
    codes -= ord("0")
    return codes.reshape(-1, m_tests)


def _bulk_columns(raw: Mapping[str, Any]) -> tuple | None:
    """The columns and row codes of a plain valid document, checked in bulk; else None.

    Plain means JSON's own types: lists of dicts, str ids and rows, meta
    null or a dict.  Every document this refuses has a fault that
    ``_raise_first_fault`` names.
    """
    tests, hyps = raw.get("tests"), raw.get("hypotheses")
    if type(tests) is not list or type(hyps) is not list or not tests or not hyps:
        return None
    if {*map(type, tests), *map(type, hyps)} != {dict}:
        return None
    try:
        test_ids = [entry["id"] for entry in tests]
        hypothesis_ids = [entry["id"] for entry in hyps]
        rows = [entry["outcomes"] for entry in hyps]
    except KeyError:
        return None
    test_meta = [entry.get("meta") for entry in tests]
    hypothesis_meta = [entry.get("meta") for entry in hyps]
    m_tests = len(tests)
    if (
        {*map(type, test_ids), *map(type, hypothesis_ids), *map(type, rows)} != {str}
        or len(set(test_ids)) != m_tests
        or len(set(hypothesis_ids)) != len(hyps)
        or set(map(len, rows)) != {m_tests}
        or len(set(rows)) != len(rows)
        or not _meta_in_bulk(test_meta + hypothesis_meta)
    ):
        return None
    try:
        codes = _row_codes(rows, m_tests)
    except UnicodeEncodeError:
        return None
    if codes.max() > 1:
        return None
    # An empty meta object is kept as None: it reads as no meta.
    test_meta = [meta or None for meta in test_meta]
    hypothesis_meta = [meta or None for meta in hypothesis_meta]
    return test_ids, test_meta, hypothesis_ids, rows, hypothesis_meta, codes


def _meta_in_bulk(metas: list) -> bool:
    """Each meta is null or a dict; cycle indices are ints, coords int lists of one length."""
    if not {*map(type, metas)} <= {dict, type(None)}:
        return False
    keyed = [meta for meta in metas if meta and ("coords" in meta or "cycle_index" in meta)]
    cycle = [meta["cycle_index"] for meta in keyed if "cycle_index" in meta]
    coords = [meta["coords"] for meta in keyed if "coords" in meta]
    return (
        {*map(type, cycle)} <= {int}
        and {*map(type, coords)} <= {list}
        and len({*map(len, coords)}) <= 1
        and {*map(type, itertools.chain.from_iterable(coords))} <= {int}
    )


def _raise_first_fault(raw: Mapping[str, Any]) -> NoReturn:
    """Check one record at a time, with the bulk check's exact types, and
    raise the first fault in document order."""
    tests, hyps = _records(raw, "tests"), _records(raw, "hypotheses")
    seen: set[str] = set()
    for tid in (entry["id"] for entry in tests):
        if tid in seen:
            raise DuplicateId(f"duplicate test id {tid!r}")
        seen.add(tid)

    seen, seen_rows = set(), {}
    for entry in hyps:
        hid, outcomes = entry["id"], entry.get("outcomes")
        if hid in seen:
            raise DuplicateId(f"duplicate hypothesis id {hid!r}")
        seen.add(hid)
        if type(outcomes) is not str:
            raise InvalidOutcome(f"hypothesis {hid!r}: outcomes must be a string")
        if len(outcomes) != len(tests):
            raise RowLengthMismatch(
                f"hypothesis {hid!r}: row length {len(outcomes)} != {len(tests)} tests"
            )
        if outcomes.count("0") + outcomes.count("1") != len(outcomes):
            raise InvalidOutcome(f"hypothesis {hid!r}: outcomes must be '0'/'1'")
        if outcomes in seen_rows:
            raise DuplicateOutcomeRow(
                f"hypotheses {seen_rows[outcomes]!r} and {hid!r} share an outcome row"
            )
        seen_rows[outcomes] = hid

    _check_meta(tests + hyps)
    raise MalformedInstance("the bulk check refused a document in which no fault was found")


def _records(raw: Mapping[str, Any], key: str) -> list:
    """The nonempty list under `key`, each entry an object with a string "id"
    and a "meta" that is null or an object."""
    entries = raw.get(key)
    if not entries:
        raise EmptyInstance(f"instance has no {key}")
    if type(entries) is not list:
        raise MalformedInstance(f"{key!r} must be a list of objects")
    for position, entry in enumerate(entries):
        if type(entry) is not dict or "id" not in entry:
            raise MalformedInstance(f"{key}[{position}] must be an object with an 'id'")
        if type(entry["id"]) is not str:
            raise MalformedInstance(f"{key}[{position}]: 'id' must be a string")
        meta = entry.get("meta")
        if meta is not None and type(meta) is not dict:
            raise MalformedInstance(f"{key}[{position}]: 'meta' must be an object")
    return entries


def _check_meta(entries: list[dict]) -> None:
    """Coordinates are int lists of one dimension; cycle indices are ints."""
    dim = None
    for entry in entries:
        rid, meta = entry["id"], entry.get("meta") or {}
        if "cycle_index" in meta and type(meta["cycle_index"]) is not int:
            raise InvalidMeta(f"record {rid!r}: cycle_index must be an integer")
        if "coords" not in meta:
            continue
        coords = meta["coords"]
        if type(coords) is not list or not all(type(c) is int for c in coords):
            raise InvalidMeta(f"record {rid!r}: coords must be a list of integers")
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise InvalidMeta(f"record {rid!r}: coords dimension {len(coords)} != {dim}")


def parse_rational(value: Any) -> Fraction:
    """An exact rational read from outside: integer, decimal or NUM/DEN text, or a JSON number.

    Exponent notation is refused before ``Fraction`` runs, because it expands
    "1e10000000" into a ten-million-digit integer; digit runs stay bounded by
    Python's int-string limit.  A zero denominator or an infinite float raises
    ValueError like any other malformed value.
    """
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"exponent notation is not accepted: {value!r}")
    try:
        return Fraction(value)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(str(exc)) from None


def rational_text(value: Fraction) -> str:
    """The one written form of an exact rational: "num/den"."""
    return f"{value.numerator}/{value.denominator}"
