"""Canonical serialization: round trips, digests, exact rationals, CSV."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dumps_canonical_bytes, instance_to_document
from test_engine import SMALL_FAMILY_INSTANCES

from splitfinder import analysis, engine, families, persistence
from splitfinder.core import validate_instance
from splitfinder.engine import CostStats, Step, Transcript
from splitfinder.persistence import (
    EmptySummary,
    ParseError,
    UnsupportedSchemaVersion,
    canonical_bytes,
    instance_digest,
    read_instance,
    read_report_document,
    report_from_document,
    stats_from_document,
    transcript_from_document,
    write_csv_summary,
    write_instance,
    write_report,
)


def roundtrip_instance(instance):
    buffer = io.BytesIO()
    write_instance(instance, buffer)
    buffer.seek(0)
    return read_instance(buffer)


class TestInstanceRoundTrip:
    def test_identity(self, pentagon, box_d2r11, disjunction_d4m2):
        for inst in (pentagon, box_d2r11, disjunction_d4m2):
            assert roundtrip_instance(inst) == inst

    def test_identical_writes_identical_digests(self, pentagon):
        a, b = io.BytesIO(), io.BytesIO()
        write_instance(pentagon, a)
        write_instance(pentagon, b)
        assert a.getvalue() == b.getvalue()
        assert instance_digest(pentagon) == instance_digest(pentagon)

    def test_regenerated_instance_same_digest(self):
        from splitfinder.families import gen_disjunction

        assert instance_digest(gen_disjunction(4, 2)) == instance_digest(
            gen_disjunction(4, 2)
        )

    def test_pentagon_document_shape(self, pentagon):
        doc = instance_to_document(pentagon)
        assert len(doc["tests"]) == 5
        assert len(doc["hypotheses"]) == 20
        assert doc["schema_version"] == 1

    def test_canonical_bytes_sorted_keys_lf(self, pentagon):
        payload = canonical_bytes(instance_to_document(pentagon))
        text = payload.decode("utf-8")
        assert "\r" not in text
        assert text.endswith("\n")
        assert text.index('"family"') < text.index('"hypotheses"') < text.index('"name"')

    def test_truncated_file_is_parse_error(self, pentagon, tmp_path):
        path = tmp_path / "broken.instance.json"
        write_instance(pentagon, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(ParseError):
            read_instance(path)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,\n "tests": [}]}')
        with pytest.raises(ParseError) as info:
            read_instance(path)
        assert info.value.line == 2

    def test_unknown_schema_rejected(self, pentagon, tmp_path):
        doc = instance_to_document(pentagon)
        doc["schema_version"] = 99
        path = tmp_path / "v99.instance.json"
        path.write_bytes(canonical_bytes(doc))
        with pytest.raises(UnsupportedSchemaVersion):
            read_instance(path)

    def test_text_mode_file_is_read(self, pentagon, tmp_path):
        path = tmp_path / "pentagon.instance.json"
        write_instance(pentagon, path)
        with open(path, encoding="utf-8") as handle:
            assert read_instance(handle) == pentagon


class TestReportRoundTrip:
    def test_exact_fields_survive(self, disjunction_d4m2):
        report = analysis.analyze_instance(disjunction_d4m2)
        buffer = io.BytesIO()
        write_report(report, buffer, disjunction_d4m2)
        doc = read_report_document(io.BytesIO(buffer.getvalue()))
        parsed = report_from_document(doc, disjunction_d4m2)
        assert parsed.beta == report.beta
        assert parsed.alpha_star == report.alpha_star
        assert parsed.coherence == report.coherence
        assert parsed.edges == report.edges
        assert parsed.k_min == report.k_min

    def test_each_distinct_rational_is_parsed_once(self, disjunction_d6m2, monkeypatch):
        report = analysis.analyze_instance(disjunction_d6m2)
        doc = persistence.report_to_document(report, disjunction_d6m2)
        parsed = []
        parse = persistence._parse_fraction
        monkeypatch.setattr(persistence, "_parse_fraction", lambda text: parsed.append(text) or parse(text))
        again = report_from_document(doc, disjunction_d6m2)
        assert again.edges == report.edges and again.coherence == report.coherence
        assert len(report.edges) > 10 * len(parsed)
        assert sorted(parsed) == sorted(set(parsed))
        report_from_document(doc, disjunction_d6m2)  # the cache lasts one call
        assert sorted(parsed) == sorted(2 * sorted(set(parsed)))

    def test_write_read_write_is_byte_stable(self, disjunction_d4m2):
        report = analysis.analyze_instance(disjunction_d4m2)
        first = io.BytesIO()
        write_report(report, first, disjunction_d4m2)
        doc = read_report_document(io.BytesIO(first.getvalue()))
        second = io.BytesIO()
        write_report(report_from_document(doc, disjunction_d4m2), second, disjunction_d4m2)
        assert first.getvalue() == second.getvalue()

    def test_rationals_written_exactly(self, disjunction_d4m2):
        report = analysis.analyze_instance(disjunction_d4m2)
        buffer = io.BytesIO()
        write_report(report, buffer, disjunction_d4m2)
        doc = json.loads(buffer.getvalue())
        assert doc["beta"] == "1/5"
        assert doc["coherence"]["value"] == "1/2"
        assert doc["instance_digest"] == instance_digest(disjunction_d4m2)

    def test_floats_rounded_to_12_digits(self, disjunction_d4m2):
        report = analysis.analyze_instance(disjunction_d4m2)
        buffer = io.BytesIO()
        write_report(report, buffer, disjunction_d4m2)
        doc = json.loads(buffer.getvalue())
        assert doc["bound_split_worst"] == float(f"{report.bounds.split_worst:.12g}")
        assert not math.isnan(doc["bound_nowak_worst"])

    def test_unbounded_sentinel(self, disjunction_d4m2):
        report = analysis.analyze_instance(disjunction_d4m2, exhaustive_limit=0, samples=10)
        buffer = io.BytesIO()
        write_report(report, buffer, disjunction_d4m2)
        doc = json.loads(buffer.getvalue())
        assert doc["bound_split_worst"] == "unbounded"
        parsed = report_from_document(doc, disjunction_d4m2)
        assert parsed.bounds.split_worst is None

    def test_transcript_round_trip(self, box_d1r2):
        transcript = engine.run_gbs(box_d1r2, engine.hypothesis_oracle(box_d1r2, 1), "z-1")
        buffer = io.BytesIO()
        write_report(transcript, buffer)
        doc = read_report_document(io.BytesIO(buffer.getvalue()))
        assert transcript_from_document(doc) == transcript
        assert doc["query_count"] == transcript.query_count

    def test_stats_round_trip_exact_average(self):
        stats = CostStats(worst_case=3, average=Fraction(33, 20), per_oracle={"a": 1, "b": 2})
        buffer = io.BytesIO()
        write_report(stats, buffer)
        doc = json.loads(buffer.getvalue())
        assert doc["average"] == "33/20"
        assert stats_from_document(doc) == stats

    def test_report_requires_instance(self, disjunction_d4m2):
        report = analysis.analyze_instance(disjunction_d4m2)
        with pytest.raises(ValueError):
            write_report(report, io.BytesIO())

    def test_unknown_schema_rejected(self, disjunction_d4m2):
        doc = persistence.report_to_document(analysis.analyze_instance(disjunction_d4m2), disjunction_d4m2)
        doc["schema_version"] = 99
        with pytest.raises(UnsupportedSchemaVersion, match="schema_version 99; this build reads 1"):
            read_report_document(io.BytesIO(canonical_bytes(doc)))


# Strings that need escapes: quotes, backslashes, control and non-ASCII characters.
escaped_text = st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aé\u2028中😀'))
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=1 << 64, max_value=1 << 200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()  # -0.0, nan and inf included
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.text()
    | escaped_text,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text() | escaped_text, children),
    max_leaves=40,
)


def report_shaped_document(edges: int) -> dict:
    """An analysis report's layout with ``edges`` edges, every other one with a 3-item witness."""
    return {
        "schema_version": 1,
        "kind": "analysis_report",
        "instance_name": "synthetic",
        "instance_digest": "0" * 64,
        "k_min": 2,
        "coherence": {"distribution": {"t0": "1/2", "t1": "1/2"}, "value": "1/2"},
        "edges": [
            {
                "from": f"t{k}",
                "to": f"t{k + 1}",
                "delta_size": 12,
                "status": "exhaustive",
                "edge_value": "1/3",
                "witness": [f"h{k}", f"h{k + 1}", f"h{k + 2}"] if k % 2 else None,
                "samples_tried": 0,
            }
            for k in range(edges)
        ],
        "alpha_star": "1/3",
        "beta": "1/4",
        "knobs": {"exhaustive_limit": 18, "samples": 10000, "seed": 0, "edge_mode": "all"},
    }


class TestCanonicalBytes:
    """``canonical_bytes`` against the one-call ``json.dumps`` encoding it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_matches_json_dumps_on_random_values(self, document):
        assert canonical_bytes(document) == dumps_canonical_bytes(document)

    @settings(max_examples=10, deadline=None)
    @given(json_values, st.integers(min_value=2, max_value=4))
    def test_matches_json_dumps_across_several_chunk_groups(self, value, groups):
        # Every list item is at least one encoder chunk.
        document = {"rows": [value] * (groups * persistence._CHUNK_GROUP), "tail": value}
        assert canonical_bytes(document) == dumps_canonical_bytes(document)

    @pytest.mark.parametrize("key", [1, 1.5, True, None])
    def test_a_key_that_is_not_a_string_is_refused(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            canonical_bytes({"meta": {key: 0}})

    @pytest.mark.parametrize("family", sorted(SMALL_FAMILY_INSTANCES))
    def test_matches_json_dumps_on_every_family(self, family):
        instance = SMALL_FAMILY_INSTANCES[family]()
        report = analysis.analyze_instance(instance)
        for document in (
            instance_to_document(instance),
            persistence.report_to_document(report, instance),
        ):
            assert canonical_bytes(document) == dumps_canonical_bytes(document)

    def test_peak_memory_stays_near_the_output_size(self):
        document = report_shaped_document(10_000)
        tracemalloc.start()
        try:
            payload = canonical_bytes(document)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(payload) >= 1 << 20
        assert peak < 2 * len(payload)


# Meta and params values: nested lists and dicts, non-ASCII text, floats, bools
# and None.  Keys the validator reads ("coords", "cycle_index") are left out.
meta_objects = st.dictionaries(
    (st.text() | escaped_text).filter(lambda key: key not in ("coords", "cycle_index")),
    json_values,
    max_size=3,
)


@st.composite
def written_instances(draw):
    """Valid instances with arbitrary ids, names, params and meta."""
    m_tests = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.integers(0, (1 << m_tests) - 1), min_size=1, max_size=5, unique=True))
    ids = st.text() | escaped_text
    test_ids = draw(st.lists(ids, min_size=m_tests, max_size=m_tests, unique=True))
    hyp_ids = draw(st.lists(ids, min_size=len(rows), max_size=len(rows), unique=True))
    metas = st.none() | meta_objects
    return validate_instance({
        "name": draw(ids),
        "family": draw(ids),
        "params": draw(meta_objects),
        "tests": [{"id": tid, "meta": draw(metas)} for tid in test_ids],
        "hypotheses": [
            {"id": hid, "outcomes": format(row, f"0{m_tests}b"), "meta": draw(metas)}
            for hid, row in zip(hyp_ids, rows)
        ],
    })


class TestInstanceWriter:
    """``instance_bytes`` against the per-record document it renders without building."""

    def assert_writes_its_document(self, instance):
        expected = dumps_canonical_bytes(instance_to_document(instance))
        assert persistence.instance_bytes(instance) == expected
        buffer, digest = io.BytesIO(), hashlib.sha256()
        assert write_instance(instance, buffer, digest) == len(expected)
        assert buffer.getvalue() == expected
        assert digest.hexdigest() == hashlib.sha256(expected).hexdigest()
        assert instance_digest(instance) == digest.hexdigest()

    @pytest.mark.parametrize("family", sorted(SMALL_FAMILY_INSTANCES))
    def test_matches_the_document_on_every_family(self, family):
        self.assert_writes_its_document(SMALL_FAMILY_INSTANCES[family]())

    @settings(max_examples=50, deadline=None)
    @given(written_instances())
    def test_matches_the_document_on_random_instances(self, instance):
        self.assert_writes_its_document(instance)

    def test_subclass_values_are_written_as_their_base_types(self):
        class Text(str):
            pass

        class Whole(int):
            pass

        class Real(float):
            pass

        meta = {"label": Text("é"), "count": Whole(7), "ratio": Real(0.25), "rows": [Whole(-1)]}
        instance = validate_instance({
            "name": "subclassed",
            "family": "",
            "params": {},
            "tests": [{"id": "t0", "meta": meta}, {"id": "t1"}],
            "hypotheses": [
                {"id": "h0", "outcomes": Text("01"), "meta": meta},
                {"id": "h1", "outcomes": Text("10")},
            ],
        })
        assert type(instance.hypotheses[0].outcomes) is Text
        self.assert_writes_its_document(instance)

    @pytest.mark.parametrize("group", [1, 7])
    def test_records_span_several_chunk_groups(self, monkeypatch, group):
        monkeypatch.setattr(persistence, "_CHUNK_GROUP", group)
        self.assert_writes_its_document(families.gen_convex_polygon(9, balanced=False))
        self.assert_writes_its_document(families.gen_box_localization((1, 2)))

    def test_peak_memory_stays_near_the_output_size(self, tmp_path):
        instance = families.gen_convex_polygon(80, balanced=False)
        tracemalloc.start()
        try:
            written = write_instance(instance, tmp_path / "polygon.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written >= 1 << 20
        assert peak < 2 * written


class Recorder(io.RawIOBase):
    """A file-like sink that records whether anything was written to it."""

    def __init__(self):
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return len(data)


class TestEncodeBeforeOpen:
    """A document JSON cannot hold fails before the sink is opened or written."""

    def unserializable_payloads(self, pentagon):
        stats = CostStats(worst_case=1, average=Fraction(1), per_oracle={"h0": Fraction(1, 2)})
        transcript = Transcript("h0", (Step({"p0"}, 1, 1),), "h0")
        instance = dataclasses.replace(pentagon, params={**pentagon.params, "r": {1, 2}})
        return [
            lambda sink: write_report(stats, sink),
            lambda sink: write_report(transcript, sink),
            lambda sink: write_instance(instance, sink),
        ]

    def test_an_existing_file_is_left_as_it_was(self, pentagon, tmp_path):
        path = tmp_path / "out.json"
        for write in self.unserializable_payloads(pentagon):
            path.write_bytes(b"earlier bytes\n")
            with pytest.raises(TypeError):
                write(path)
            assert path.read_bytes() == b"earlier bytes\n"

    def test_a_stream_sink_gets_no_write(self, pentagon):
        for write in self.unserializable_payloads(pentagon):
            sink = Recorder()
            with pytest.raises(TypeError):
                write(sink)
            assert sink.writes == 0


class TestCsvSummary:
    def test_single_row(self):
        buffer = io.BytesIO()
        write_csv_summary(
            [
                {
                    "name": "demo",
                    "n": 10,
                    "k_min": 4,
                    "coherence": Fraction(1, 2),
                    "alpha_star": Fraction(1, 3),
                    "beta": Fraction(1, 5),
                    "bound_nowak_worst": 12.629253136513338,
                    "bound_split_worst": 10.3188511585,
                    "bound_split_average": None,
                    "worst_case": 4,
                    "average": Fraction(17, 5),
                }
            ],
            buffer,
        )
        lines = buffer.getvalue().decode().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("name,n,k_min,coherence")
        cells = lines[1].split(",")
        assert cells[0] == "demo"
        assert cells[3] == "0.5"
        assert cells[8] == "unbounded"
        assert cells[10] == "3.4"

    def test_empty_rows_refused(self):
        with pytest.raises(EmptySummary):
            write_csv_summary([], io.BytesIO())
