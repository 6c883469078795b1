"""Canonical serialization: round trips, digests, exact rationals, CSV."""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import pytest

from splitfinder import analysis, engine, persistence
from splitfinder.engine import CostStats
from splitfinder.persistence import (
    EmptySummary,
    ParseError,
    UnsupportedSchemaVersion,
    canonical_bytes,
    instance_digest,
    instance_to_document,
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
