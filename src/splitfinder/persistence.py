"""Canonical on-disk formats: instances, reports, transcripts, summaries.

All JSON is UTF-8 with sorted keys and LF endings, newline-terminated, so a
given object always serializes to identical bytes and content digests are
stable.  Rationals are written as "num/den" strings (never floats); floats
are rounded to 12 significant digits; unbounded bounds serialize as the
literal string "unbounded".

One recursive encoder, ``_encode``, writes every document.  Its bytes are
those of ``json.dumps(document, sort_keys=True, indent=1) + "\\n"`` in
UTF-8, and its text goes to the output buffer a group of strings at a time,
so its temporaries stay bounded whatever the document's size.  Its list
branch is the only loop over a list's items; a ``_Rows`` hands it an item
writer in place of ``_encode``.  ``instance_bytes`` writes an instance's
records straight from its columns, and ``write_report`` a report's edges
straight from its ``EdgeReport``s, one template string per edge, so no dict
is built per record or edge.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
from collections.abc import Callable, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

from .analysis import (
    DIAG_DISCONNECTED,
    DIAG_UNVERIFIED,
    FALSIFIED_WITNESS,
    UNKNOWN_SAMPLED,
    VERIFIED_EXHAUSTIVE,
    AnalysisReport,
    BoundSet,
    CoherenceCertificate,
    EdgeReport,
)
from .core import (
    Instance,
    parse_rational,
    rational_text,
    validate_instance,
)
from .engine import CostStats, Transcript

SCHEMA_VERSION = 1


class PersistenceError(Exception):
    pass


class ParseError(PersistenceError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        position = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{position}")
        self.line = line
        self.column = column


class UnsupportedSchemaVersion(PersistenceError):
    pass


class SinkFailure(PersistenceError):
    pass


class EmptySummary(PersistenceError):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def _float12(value: float | None) -> float | str:
    if value is None:
        return "unbounded"
    return float(f"{value:.12g}")


def _parse_float12(value: Any) -> float | None:
    """A report's bound: ``"unbounded"`` or a finite JSON number, never a bool or string."""
    if value == "unbounded":
        return None
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"a bound must be 'unbounded' or a finite number, got {value!r}")
    return float(value)


# Encoded strings held before they are joined and written to the output
# buffer.  Few enough that the join's temporaries stay small next to the
# buffer, even when each is a 4 KB outcome row.
_CHUNK_GROUP = 128


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# The text of a value of exactly one of these types; instances of subclasses
# take ``_encode``'s isinstance tests instead.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _spill(parts: list[str], out: io.BytesIO) -> None:
    out.write("".join(parts).encode("utf-8"))
    parts.clear()


class _Rows(NamedTuple):
    """A JSON list whose items ``_encode`` hands to a writer of their own.

    ``writer`` is called once per list with the line the items start on, so
    it builds its key strings once, and returns an item writer with
    ``_encode``'s signature.
    """

    items: Sequence
    writer: Callable[[str], Callable[[str, Any, str, list[str], io.BytesIO], None]]


def _encode(prefix: str, value, newline: str, parts: list[str], out: io.BytesIO) -> None:
    """Append ``prefix`` and the ``sort_keys=True, indent=1`` JSON text of ``value``.

    ``prefix`` goes in front of the value, in one string with a scalar's
    text.  ``newline`` is a line break and the indent of the line ``value``
    starts on.  After each item of a list or dict, once ``parts`` holds
    ``_CHUNK_GROUP`` strings they are joined and written to ``out``.  A
    ``_Rows`` is written as a list whose items its own writer appends, so
    this list branch is the one loop that frames a list.  Scalars of the
    exact JSON types are looked up in ``_SCALAR_TEXT``; subclasses of str,
    int and float, tested last so that containers pay for no extra test,
    are written as the stdlib writes them, and any other value raises
    TypeError as it does.
    Every document the program writes keys its objects by strings, so a key
    of any other type raises TypeError rather than being converted.  No
    class can derive from two of dict, list, tuple, str, int and float, so
    the order of the tests below changes no output.
    """
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        parts.append(prefix + scalar(value))
    elif isinstance(value, dict):
        if not value:
            parts.append(prefix + "{}")
            return
        inner = newline + " "
        separator = prefix + "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            _encode(separator + encode_basestring_ascii(key) + ": ", item, inner, parts, out)
            if len(parts) >= _CHUNK_GROUP:
                _spill(parts, out)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        items, writer = value if type(value) is _Rows else (value, None)
        if not items:
            parts.append(prefix + "[]")
            return
        inner = newline + " "
        write = _encode if writer is None else writer(inner)
        separator = prefix + "[" + inner
        for item in items:
            write(separator, item, inner, parts, out)
            if len(parts) >= _CHUNK_GROUP:
                _spill(parts, out)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, str):
        parts.append(prefix + encode_basestring_ascii(value))
    elif isinstance(value, int):
        parts.append(prefix + int.__repr__(value))
    elif isinstance(value, float):
        parts.append(prefix + _float_text(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def canonical_bytes(document: dict) -> bytes:
    """``(json.dumps(document, sort_keys=True, indent=1) + "\\n").encode("utf-8")``.

    With ``indent`` the stdlib encodes in pure Python, one generator step
    per token, and ``json.dumps`` keeps every token in a list before joining
    them, several times the output's size.  ``_encode`` appends the same
    text to one list, which is written as UTF-8 into one buffer every
    ``_CHUNK_GROUP`` strings, so the temporaries stay bounded.  A value JSON
    cannot hold raises before anything is returned.
    """
    out = io.BytesIO()
    parts: list[str] = []
    _encode("", document, "\n", parts, out)
    parts.append("\n")
    _spill(parts, out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Instances


def _records(ids: tuple[str, ...], metas: tuple, rows: tuple[str, ...] | None = None) -> _Rows:
    """An instance's tests or hypotheses, each written as its document object.

    Keys are in sorted order ("id", "meta", "outcomes"); a record without
    meta has no "meta" key.  Ids and rows are strings, so each is escaped
    directly.  Each item is a record's index.
    """

    def writer(newline: str):
        key = newline + " "
        head, meta_key, row_key = "{" + key + '"id": ', "," + key + '"meta": ', "," + key + '"outcomes": '
        close = newline + "}"

        def write(prefix: str, index: int, newline: str, parts: list[str], out: io.BytesIO) -> None:
            parts.append(prefix + head + encode_basestring_ascii(ids[index]))
            meta = metas[index]
            if meta:
                _encode(meta_key, meta, key, parts, out)
            if rows is not None:
                parts.append(row_key + encode_basestring_ascii(rows[index]))
            parts.append(close)

        return write

    return _Rows(range(len(ids)), writer)


def instance_bytes(instance: Instance) -> bytes:
    """The instance's canonical bytes, encoded straight from its columns.

    ``_records`` writes each record as its document object, so no dict and
    no record object is built per test or hypothesis.
    """
    return canonical_bytes(
        {
            "schema_version": SCHEMA_VERSION,
            "name": instance.name,
            "family": instance.family,
            "params": dict(instance.params),
            "tests": _records(instance.test_ids, instance.test_meta),
            "hypotheses": _records(instance.hypothesis_ids, instance.hypothesis_meta, instance.rows),
        }
    )


def instance_digest(instance: Instance) -> str:
    return hashlib.sha256(instance_bytes(instance)).hexdigest()


def _write_bytes(payload: bytes, sink) -> int:
    try:
        if isinstance(sink, (str, os.PathLike)):
            with open(sink, "wb") as handle:
                handle.write(payload)
        else:
            sink.write(payload)
    except OSError as exc:
        raise SinkFailure(str(exc)) from exc
    return len(payload)


def _read_document(source) -> dict:
    """Read and parse one JSON object whose ``schema_version`` this build reads."""
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "rb") as handle:
                text = handle.read().decode("utf-8")
        else:
            text = source.read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    if not isinstance(document, dict):
        raise ParseError("top-level JSON value must be an object")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise UnsupportedSchemaVersion(
            f"schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )
    return document


def write_instance(instance: Instance, sink, digest=None) -> int:
    """Write the instance's canonical bytes; returns how many were written.

    ``digest``, a hashlib object such as ``hashlib.sha256()``, is updated
    with those bytes, so a caller gets ``instance_digest`` without encoding
    the instance a second time.  Like ``write_report``, it encodes in full
    before the sink is opened, so a failed encode leaves a file as it was.
    """
    payload = instance_bytes(instance)
    if digest is not None:
        digest.update(payload)
    return _write_bytes(payload, sink)


def read_instance(source) -> Instance:
    return validate_instance(_read_document(source))


# ---------------------------------------------------------------------------
# Reports, transcripts, cost statistics


def _certificate_to_doc(instance: Instance, cert: CoherenceCertificate) -> dict:
    return {
        "distribution": {
            instance.test_ids[x]: rational_text(w)
            for x, w in sorted(cert.distribution.items())
        },
        "value": rational_text(cert.value),
    }


def _certificate_from_doc(
    instance: Instance, doc: dict, fraction: Callable[[Any], Fraction]
) -> CoherenceCertificate:
    dist = {
        instance.test_index[tid]: fraction(w)
        for tid, w in doc["distribution"].items()
    }
    return CoherenceCertificate(dist, fraction(doc["value"]))


def _whole(value: Any) -> int:
    """A JSON integer; a bool, float or string raises TypeError where ``int()`` would take it."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _one_of(value: Any, allowed: tuple) -> Any:
    if value not in allowed:
        raise ValueError(f"expected one of {allowed}, got {value!r}")
    return value


_STATUSES = (VERIFIED_EXHAUSTIVE, FALSIFIED_WITNESS, UNKNOWN_SAMPLED)


def _edge_from_doc(instance: Instance, doc: dict, fraction: Callable[[Any], Fraction]) -> EdgeReport:
    witness = doc.get("witness")
    if witness is not None and (type(witness) is not list or len(witness) < 2):
        raise TypeError(f"a witness must be null or a list of two or more ids, got {witness!r}")
    return EdgeReport(
        from_test=instance.test_index[doc["from"]],
        to_test=instance.test_index[doc["to"]],
        delta_size=_whole(doc["delta_size"]),
        status=_one_of(doc["status"], _STATUSES),
        edge_value=fraction(doc["edge_value"]),
        witness=None if witness is None else tuple(instance.hypothesis_index[h] for h in witness),
        samples_tried=_whole(doc["samples_tried"]),
    )


def _edges(edges: tuple[EdgeReport, ...], instance: Instance) -> _Rows:
    """A report's edges, each written from its ``EdgeReport`` as one template string.

    Each test and hypothesis id is escaped once per report.  An edge's value
    is written as ``"num/den"`` and its witness as null or a list of
    hypothesis ids.
    """
    tests = list(map(encode_basestring_ascii, instance.test_ids))
    hypotheses = list(map(encode_basestring_ascii, instance.hypothesis_ids))

    def writer(newline: str):
        key = newline + " "
        template = (
            "{" + key + '"delta_size": %s,' + key + '"edge_value": "%s/%s",' + key + '"from": %s,'
            + key + '"samples_tried": %s,' + key + '"status": %s,' + key + '"to": %s,'
            + key + '"witness": %s' + newline + "}"
        )
        opening, member, close = "[" + key + " ", "," + key + " ", key + "]"

        def write(prefix: str, edge: EdgeReport, newline: str, parts: list[str], out: io.BytesIO) -> None:
            witness = "null" if edge.witness is None else (
                opening + member.join([hypotheses[h] for h in edge.witness]) + close)
            fraction = edge.edge_value
            parts.append(prefix + template % (
                edge.delta_size, fraction.numerator, fraction.denominator, tests[edge.from_test],
                edge.samples_tried, encode_basestring_ascii(edge.status), tests[edge.to_test], witness,
            ))

        return write

    return _Rows(edges, writer)


def _report_document(report: AnalysisReport, instance: Instance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "analysis_report",
        "instance_name": instance.name,
        "instance_digest": instance_digest(instance),
        "k_min": report.k_min,
        "coherence": _certificate_to_doc(instance, report.coherence),
        "edges": _edges(report.edges, instance),
        "alpha_star": rational_text(report.alpha_star),
        "alpha_diagnostic": report.alpha_diagnostic,
        "beta": rational_text(report.beta),
        "lambda": rational_text(report.bounds.lam),
        "bound_nowak_worst": _float12(report.bounds.nowak_worst),
        "bound_split_worst": _float12(report.bounds.split_worst),
        "bound_split_average": _float12(report.bounds.split_average),
        "knobs": {
            "exhaustive_limit": report.exhaustive_limit,
            "samples": report.sample_count,
            "seed": report.seed,
            "edge_mode": report.edge_mode,
        },
    }


def report_from_document(document: dict, instance: Instance) -> AnalysisReport:
    """Rebuild a report; a missing field, unknown id or overflowing number
    raises PersistenceError.  Each distinct rational is parsed once per call."""
    fraction = functools.cache(_parse_fraction)
    try:
        return AnalysisReport(
            k_min=_whole(document["k_min"]),
            coherence=_certificate_from_doc(instance, document["coherence"], fraction),
            edges=tuple(_edge_from_doc(instance, e, fraction) for e in document["edges"]),
            alpha_star=fraction(document["alpha_star"]),
            alpha_diagnostic=_one_of(
                document.get("alpha_diagnostic"), (None, DIAG_UNVERIFIED, DIAG_DISCONNECTED)
            ),
            beta=fraction(document["beta"]),
            bounds=BoundSet(
                lam=fraction(document["lambda"]),
                nowak_worst=_parse_float12(document["bound_nowak_worst"]),
                split_worst=_parse_float12(document["bound_split_worst"]),
                split_average=_parse_float12(document["bound_split_average"]),
            ),
            exhaustive_limit=_whole(document["knobs"]["exhaustive_limit"]),
            sample_count=_whole(document["knobs"]["samples"]),
            seed=_whole(document["knobs"]["seed"]),
            edge_mode=_one_of(document["knobs"]["edge_mode"], ("all", "l1")),
        )
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed analysis report: {type(exc).__name__} {exc}") from None


def transcript_to_document(transcript: Transcript) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "transcript",
        "oracle_id": transcript.oracle_id,
        "steps": [[s.test_id, s.outcome, s.remaining] for s in transcript.steps],
        "identified": transcript.identified,
        "query_count": transcript.query_count,
    }


def stats_to_document(stats: CostStats) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cost_stats",
        "worst_case": stats.worst_case,
        "average": rational_text(stats.average),
        "per_oracle": dict(sorted(stats.per_oracle.items())),
    }


def write_report(
    payload: AnalysisReport | Transcript | CostStats,
    sink,
    instance: Instance | None = None,
) -> int:
    if isinstance(payload, AnalysisReport):
        if instance is None:
            raise ValueError("writing an analysis report needs its instance")
        document = _report_document(payload, instance)
    elif isinstance(payload, Transcript):
        document = transcript_to_document(payload)
    elif isinstance(payload, CostStats):
        document = stats_to_document(payload)
    else:
        raise TypeError(f"cannot serialize {type(payload).__name__}")
    return _write_bytes(canonical_bytes(document), sink)


def read_report_document(source) -> dict:
    document = _read_document(source)
    if document.get("kind") not in ("analysis_report", "transcript", "cost_stats"):
        raise ParseError(f"unknown report kind {document.get('kind')!r}")
    return document


# ---------------------------------------------------------------------------
# Batch summaries

CSV_COLUMNS = (
    "name",
    "n",
    "k_min",
    "coherence",
    "alpha_star",
    "beta",
    "bound_nowak_worst",
    "bound_split_worst",
    "bound_split_average",
    "worst_case",
    "average",
)


def _csv_cell(value: Any) -> str:
    if value is None:
        return "unbounded"
    if isinstance(value, Fraction):
        return f"{float(value):.12g}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv_summary(rows: list[dict], sink) -> int:
    """One header plus one row per instance, in a stable column order."""
    if not rows:
        raise EmptySummary("refusing to write a headerless, empty summary")
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in CSV_COLUMNS))
    return _write_bytes(("\n".join(lines) + "\n").encode("utf-8"), sink)
