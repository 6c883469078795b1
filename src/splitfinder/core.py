"""Instance data model and validation.

An instance is a finite binary outcome matrix: every hypothesis answers 0 or
1 on every test, and no two hypotheses share an outcome row (identifiability).
`Instance` keeps its records as columns: test ids and meta, hypothesis ids
and meta, and the validated '0'/'1' rows, which decide equality and are what
gets written.  `outcomes`, a read-only, C-contiguous hypotheses x tests bool
array parsed from the rows once, is what every computation reads.  The
per-record views `tests` and `hypotheses` are built only when read.

`validate_instance` checks a plain JSON document in bulk, a few set and
array operations per column.  A document that fails there is walked one
record at a time, in document order, so its first fault raises the same
exception and message as a per-record check.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any

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
class TestRecord:
    id: str
    meta: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class HypothesisRecord:
    id: str
    outcomes: str  # '0'/'1' characters, one per test, in instance test order
    meta: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class Instance:
    """Validated, immutable hypothesis/test outcome matrix, kept as columns.

    ``tests`` and ``hypotheses`` are the same columns as one record per
    test and per hypothesis, built the first time a caller reads them.
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
    def tests(self) -> tuple[TestRecord, ...]:
        return tuple(map(TestRecord, self.test_ids, self.test_meta))

    @cached_property
    def hypotheses(self) -> tuple[HypothesisRecord, ...]:
        return tuple(map(HypothesisRecord, self.hypothesis_ids, self.rows, self.hypothesis_meta))

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
    satisfies all instance invariants.  A document is checked in bulk first;
    only one that fails there is walked a record at a time, in document
    order, so the first fault decides the exception and its message.
    """
    test_ids, test_meta, hypothesis_ids, rows, hypothesis_meta, codes = (
        _bulk_columns(raw) or _walked_columns(raw)
    )
    params = raw.get("params") or {}
    if not isinstance(params, Mapping):
        raise MalformedInstance("'params' must be an object")
    for key in ("name", "family"):
        if not isinstance(raw.get(key, ""), str):
            raise MalformedInstance(f"{key!r} must be a string")

    matrix = codes.view(bool)
    matrix.flags.writeable = False
    return Instance(
        name=raw.get("name", ""),
        family=raw.get("family", ""),
        params=dict(params),
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
    null or a dict.  None sends the document to ``_walked_columns``, which
    raises its first fault or, for other mappings and subclasses, accepts it.
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
    # An empty meta object is kept as None, as the walk keeps it.
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


def _walked_columns(raw: Mapping[str, Any]) -> tuple:
    """The columns and row codes, checked one record at a time; the first fault raises."""
    tests = _records(raw, "tests")
    hyps = _records(raw, "hypotheses")

    test_ids = [entry["id"] for entry in tests]
    seen_test_ids: set[str] = set()
    for tid in test_ids:
        if tid in seen_test_ids:
            raise DuplicateId(f"duplicate test id {tid!r}")
        seen_test_ids.add(tid)

    m_tests = len(tests)
    hypothesis_ids, rows = [], []
    seen_hyp_ids: set[str] = set()
    seen_rows: dict[str, str] = {}
    for entry in hyps:
        hid = entry["id"]
        if hid in seen_hyp_ids:
            raise DuplicateId(f"duplicate hypothesis id {hid!r}")
        seen_hyp_ids.add(hid)
        outcomes = entry.get("outcomes")
        if not isinstance(outcomes, str):
            raise InvalidOutcome(f"hypothesis {hid!r}: outcomes must be a string")
        if len(outcomes) != m_tests:
            raise RowLengthMismatch(
                f"hypothesis {hid!r}: row length {len(outcomes)} != {m_tests} tests"
            )
        if outcomes.count("0") + outcomes.count("1") != len(outcomes):
            raise InvalidOutcome(f"hypothesis {hid!r}: outcomes must be '0'/'1'")
        if outcomes in seen_rows:
            raise DuplicateOutcomeRow(
                f"hypotheses {seen_rows[outcomes]!r} and {hid!r} share an outcome row"
            )
        seen_rows[outcomes] = hid
        hypothesis_ids.append(hid)
        rows.append(outcomes)

    test_meta = [_meta_copy(entry) for entry in tests]
    hypothesis_meta = [_meta_copy(entry) for entry in hyps]
    _check_meta(test_ids + hypothesis_ids, test_meta + hypothesis_meta)
    return test_ids, test_meta, hypothesis_ids, rows, hypothesis_meta, _row_codes(rows, m_tests)


def _meta_copy(entry: Mapping[str, Any]) -> dict | None:
    meta = entry.get("meta")
    return dict(meta) if meta else None


def _is_mapping(value: Any) -> bool:
    # The exact-type test first: the ABC check costs far more per call.
    return type(value) is dict or isinstance(value, Mapping)


def _records(raw: Mapping[str, Any], key: str) -> list:
    """The nonempty list under `key`, each entry an object with a string "id"
    and a "meta" that is null or an object."""
    entries = raw.get(key)
    if not entries:
        raise EmptyInstance(f"instance has no {key}")
    if not isinstance(entries, (list, tuple)):
        raise MalformedInstance(f"{key!r} must be a list of objects")
    for position, entry in enumerate(entries):
        if not _is_mapping(entry) or "id" not in entry:
            raise MalformedInstance(f"{key}[{position}] must be an object with an 'id'")
        if not isinstance(entry["id"], str):
            raise MalformedInstance(f"{key}[{position}]: 'id' must be a string")
        meta = entry.get("meta")
        if meta is not None and not _is_mapping(meta):
            raise MalformedInstance(f"{key}[{position}]: 'meta' must be an object")
    return entries


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_meta(ids: list[str], metas: list) -> None:
    """Coordinates are int lists of one dimension; cycle indices are ints."""
    dim = None
    for rid, meta in zip(ids, metas):
        meta = meta or {}
        if "cycle_index" in meta and not _is_int(meta["cycle_index"]):
            raise InvalidMeta(f"record {rid!r}: cycle_index must be an integer")
        if "coords" not in meta:
            continue
        coords = meta["coords"]
        if not isinstance(coords, list) or not all(_is_int(c) for c in coords):
            raise InvalidMeta(f"record {rid!r}: coords must be a list of integers")
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise InvalidMeta(
                f"record {rid!r}: coords dimension {len(coords)} != {dim}"
            )


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
