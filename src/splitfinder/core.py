"""Instance data model and validation.

An instance is a finite binary outcome matrix: every hypothesis answers 0 or
1 on every test, and no two hypotheses share an outcome row (identifiability).
The outcomes are kept in two forms: the validated '0'/'1' strings, which
decide equality and are what gets written, and `outcomes`, a read-only,
C-contiguous hypotheses x tests bool array parsed from them once, which
every computation reads.
"""

from __future__ import annotations

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
    """Validated, immutable hypothesis/test outcome matrix."""

    name: str
    family: str
    params: Mapping[str, Any]
    tests: tuple[TestRecord, ...]
    hypotheses: tuple[HypothesisRecord, ...]
    # Hypotheses x tests, read-only; the strings above already decide equality.
    outcomes: np.ndarray = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.hypotheses)

    @property
    def m_tests(self) -> int:
        return len(self.tests)

    @cached_property
    def test_index(self) -> dict[str, int]:
        return {t.id: i for i, t in enumerate(self.tests)}

    @cached_property
    def hypothesis_index(self) -> dict[str, int]:
        return {h.id: i for i, h in enumerate(self.hypotheses)}


def validate_instance(raw: Mapping[str, Any]) -> Instance:
    """Check an instance document and build the indexed Instance.

    Raises MalformedInstance, EmptyInstance, DuplicateId, RowLengthMismatch,
    InvalidOutcome, DuplicateOutcomeRow, or InvalidMeta; anything that passes
    satisfies all instance invariants.
    """
    tests_raw = _records(raw, "tests")
    hyps_raw = _records(raw, "hypotheses")

    tests = []
    seen_test_ids: set[str] = set()
    for entry in tests_raw:
        tid = str(entry["id"])
        if tid in seen_test_ids:
            raise DuplicateId(f"duplicate test id {tid!r}")
        seen_test_ids.add(tid)
        meta = entry.get("meta")
        tests.append(TestRecord(tid, dict(meta) if meta else None))

    m_tests = len(tests)
    hypotheses = []
    seen_hyp_ids: set[str] = set()
    seen_rows: dict[str, str] = {}
    for entry in hyps_raw:
        hid = str(entry["id"])
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
        meta = entry.get("meta")
        hypotheses.append(HypothesisRecord(hid, outcomes, dict(meta) if meta else None))

    _check_meta(tests, hypotheses)
    params = raw.get("params") or {}
    if not isinstance(params, Mapping):
        raise MalformedInstance("'params' must be an object")

    # Encoded as one fixed-width byte string per row, then '0'/'1' -> 0/1 in place.
    codes = np.array([h.outcomes for h in hypotheses], dtype=f"S{m_tests}").view(np.uint8)
    codes -= ord("0")
    matrix = codes.reshape(-1, m_tests).view(bool)
    matrix.flags.writeable = False

    return Instance(
        name=str(raw.get("name", "")),
        family=str(raw.get("family", "")),
        params=dict(params),
        tests=tuple(tests),
        hypotheses=tuple(hypotheses),
        outcomes=matrix,
    )


def _is_mapping(value: Any) -> bool:
    # The exact-type test first: the ABC check costs far more per call.
    return type(value) is dict or isinstance(value, Mapping)


def _records(raw: Mapping[str, Any], key: str) -> list:
    """The nonempty list under `key`, each entry an object with an "id"."""
    entries = raw.get(key)
    if not entries:
        raise EmptyInstance(f"instance has no {key}")
    if not isinstance(entries, (list, tuple)):
        raise MalformedInstance(f"{key!r} must be a list of objects")
    for position, entry in enumerate(entries):
        if not _is_mapping(entry) or "id" not in entry:
            raise MalformedInstance(f"{key}[{position}] must be an object with an 'id'")
        meta = entry.get("meta")
        if meta and not _is_mapping(meta):
            raise MalformedInstance(f"{key}[{position}]: 'meta' must be an object")
    return entries


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_meta(tests, hypotheses) -> None:
    """Coordinates are int lists of one dimension; cycle indices are ints."""
    dim = None
    for rec in (*tests, *hypotheses):
        meta = rec.meta or {}
        if "cycle_index" in meta and not _is_int(meta["cycle_index"]):
            raise InvalidMeta(f"record {rec.id!r}: cycle_index must be an integer")
        if "coords" not in meta:
            continue
        coords = meta["coords"]
        if not isinstance(coords, list) or not all(_is_int(c) for c in coords):
            raise InvalidMeta(f"record {rec.id!r}: coords must be a list of integers")
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise InvalidMeta(
                f"record {rec.id!r}: coords dimension {len(coords)} != {dim}"
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
