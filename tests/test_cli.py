"""Command-line workflows: exit codes, outputs, reproducibility."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import instance_to_document
from splitfinder import analysis, families, kernels, persistence
from splitfinder.cli import main
from splitfinder.core import validate_instance
from splitfinder.persistence import write_instance
from test_analysis import counting_kernels


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dj_instance(tmp_path, capsys):
    path = tmp_path / "dj.instance.json"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "disjunction",
        "--param", "d=4", "--param", "m=2", "--out", str(path),
    )
    assert code == 0
    return path, out


class TestGen:
    def test_prints_counts_and_digest(self, dj_instance):
        _, out = dj_instance
        assert "n=10" in out
        assert "m_tests=16" in out
        assert "digest=" in out

    def test_polygon_and_box_examples(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--family", "convex_polygon",
            "--param", "m=5", "--param", "balanced=false",
            "--out", str(tmp_path / "p.instance.json"),
        )
        assert code == 0 and "n=20" in out
        code, out, _ = run_cli(
            capsys, "gen", "--family", "box_localization",
            "--param", "r=1,2", "--out", str(tmp_path / "b.instance.json"),
        )
        assert code == 0 and "n=15" in out

    def test_bad_params_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--family", "disjunction",
            "--param", "d=3", "--param", "m=9",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert err.startswith("ERROR ")
        assert "\n" == err[err.index("\n") :]  # single line

    def test_empty_family_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--family", "discrete_linear",
            "--param", "d=1", "--param", "r=1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "ERROR EmptyFamily" in err

    @pytest.mark.parametrize(
        "family, params",
        [
            ("disjunction", ["d=40", "m=1"]),
            ("monotone_cnf", ["d=60", "m=1", "l=1"]),
            ("linear_kcase", ["d=1000000000"]),
            ("discrete_linear", ["d=1000000", "r=2"]),
            ("cx_disjunction", ["m=40"]),
            ("convex_polygon", ["m=100000"]),
            ("box_localization", ["r=100000,100000"]),
            ("cx_plus", ["d=100000", "l=100000"]),
            ("shape_localization", ["d=20", "l1_radius=3"]),
            ("shape_localization", ["d=6", "l1_radius=40"]),
            ("shape_localization",
             ["offsets=" + ";".join(",".join(map(str, p)) for p in families.plus_offsets(6, 20))]),
        ],
        ids=["disjunction", "cnf", "kcase", "linear", "cx-disjunction", "polygon", "box", "cx-plus",
             "shape-l1-d20", "shape-l1-r40", "shape-plus-arm20"],
    )
    def test_oversized_params_exit_3_before_building(self, tmp_path, capsys, family, params):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "gen", "--family", family,
            *[arg for param in params for arg in ("--param", param)],
            "--out", str(tmp_path / "x.json"),
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("ERROR InstanceTooLarge: ") and err.count("\n") == 1
        assert not (tmp_path / "x.json").exists()

    def test_digest_hashes_the_written_bytes_encoded_once(self, tmp_path, capsys, monkeypatch):
        encoded = []
        instance_bytes = persistence.instance_bytes
        monkeypatch.setattr(
            persistence, "instance_bytes", lambda inst: encoded.append(1) or instance_bytes(inst)
        )
        path = tmp_path / "cnf.instance.json"
        code, out, _ = run_cli(
            capsys, "gen", "--family", "monotone_cnf",
            "--param", "d=4", "--param", "m=1", "--param", "l=2", "--out", str(path),
        )
        assert code == 0 and len(encoded) == 1
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert out.split("digest=")[1] == digest + "\n"
        instance = families.generate("monotone_cnf", {"d": "4", "m": "1", "l": "2"})
        assert persistence.instance_digest(instance) == digest

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(capsys, "gen", "--family", "monotone_cnf",
                    "--param", "d=4", "--param", "m=1", "--param", "l=2",
                    "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestAnalyzeRunVerify:
    def test_full_workflow(self, dj_instance, tmp_path, capsys):
        instance_path, _ = dj_instance
        report_path = tmp_path / "dj.report.json"
        code, out, _ = run_cli(
            capsys, "analyze", "--in", str(instance_path),
            "--edges", "l1", "--out", str(report_path),
        )
        assert code == 0
        assert "coherence=1/2" in out
        assert "alpha_star=1/3" in out

        code, out, _ = run_cli(capsys, "run", "--in", str(instance_path), "--oracle", "all")
        assert code == 0
        assert "worst_case=" in out and "average=" in out

        code, out, _ = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 0
        assert "PASS worst_case<=split_worst" in out
        assert "FAIL" not in out

    def test_analyze_reruns_byte_identical(self, dj_instance, tmp_path, capsys):
        instance_path, _ = dj_instance
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (r1, r2):
            assert run_cli(capsys, "analyze", "--in", str(instance_path),
                           "--out", str(path))[0] == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_analyze_limit_zero_diagnostic(self, dj_instance, capsys):
        instance_path, _ = dj_instance
        code, out, _ = run_cli(
            capsys, "analyze", "--in", str(instance_path), "--limit", "0",
            "--samples", "20",
        )
        assert code == 0
        assert "alpha_star=0/1 (unverified_edges_dominate)" in out
        assert "split_worst=unbounded" in out

    @pytest.mark.parametrize("flag, value", [("--samples", "-3"), ("--limit", "-1"), ("--samples", "x")])
    def test_analyze_negative_or_non_integer_count_exit_2(self, dj_instance, tmp_path, capsys, flag, value):
        instance_path, _ = dj_instance
        report = tmp_path / "r.json"
        code, out, err = run_cli(
            capsys, "analyze", "--in", str(instance_path), flag, value, "--out", str(report),
        )
        assert code == 2 and out == "" and not report.exists()
        assert err == f"ERROR UsageError: argument {flag}: expected a non-negative integer, got '{value}'\n"

    def test_run_single_oracle_writes_transcript(self, dj_instance, tmp_path, capsys):
        instance_path, _ = dj_instance
        out_path = tmp_path / "one.transcript.json"
        code, out, _ = run_cli(
            capsys, "run", "--in", str(instance_path),
            "--oracle", "x1", "--out", str(out_path),
        )
        assert code == 0
        assert "identified=x1" in out
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "transcript"
        assert doc["identified"] == "x1"

    def test_interactive_is_an_ordinary_hypothesis_id(self, tmp_path, capsys):
        path = tmp_path / "named.instance.json"
        write_instance(validate_instance({
            "tests": [{"id": "t0"}, {"id": "t1"}],
            "hypotheses": [{"id": "interactive", "outcomes": "01"}, {"id": "other", "outcomes": "10"}],
        }), str(path))
        code, out, err = run_cli(capsys, "run", "--in", str(path), "--oracle", "interactive")
        assert (code, err) == (0, "")
        assert out == "oracle=interactive queries=1 identified=interactive\n"

    def test_run_unknown_oracle_exit_2(self, dj_instance, capsys):
        instance_path, _ = dj_instance
        code, _, err = run_cli(
            capsys, "run", "--in", str(instance_path), "--oracle", "nope"
        )
        assert code == 2 and "ERROR" in err

    def test_verify_mismatched_instance_exit_2(self, dj_instance, tmp_path, capsys):
        instance_path, _ = dj_instance
        report_path = tmp_path / "dj.report.json"
        run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))
        other = tmp_path / "other.instance.json"
        run_cli(capsys, "gen", "--family", "disjunction",
                "--param", "d=3", "--param", "m=1", "--out", str(other))
        code, _, err = run_cli(
            capsys, "verify", "--in", str(other), "--report", str(report_path)
        )
        assert code == 2
        assert "digest mismatch" in err

    def test_verify_doctored_bounds_exit_1(self, dj_instance, tmp_path, capsys):
        instance_path, _ = dj_instance
        report_path = tmp_path / "dj.report.json"
        run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))
        doc = json.loads(report_path.read_text())
        doc["bound_split_worst"] = 0.5
        report_path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        code, out, err = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 1
        assert "FAIL worst_case<=split_worst" in out
        assert "ERROR VerificationFailed" in err

    def test_verify_checks_the_least_chosen_split_exactly(self, dj_instance, tmp_path, capsys):
        instance_path, _ = dj_instance
        report_path = tmp_path / "dj.report.json"
        run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))
        code, out, _ = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 0
        assert "PASS min_chosen_split>=beta: observed=1/3 bound=1/5 margin=2/15\n" in out

    def test_verify_doctored_beta_exit_1(self, dj_instance, tmp_path, capsys):
        instance_path, _ = dj_instance
        report_path = tmp_path / "dj.report.json"
        run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))
        doc = json.loads(report_path.read_text())
        doc["beta"] = "1/2"
        report_path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        code, out, err = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL min_chosen_split>=beta: observed=1/3 bound=1/2 margin=-1/6"
        ]
        assert err == "ERROR VerificationFailed: min_chosen_split>=beta violated by 1/6\n"

    def test_verify_single_hypothesis_has_no_chosen_split(self, tmp_path, capsys):
        instance_path = tmp_path / "one.instance.json"
        report_path = tmp_path / "one.report.json"
        write_instance(validate_instance({
            "tests": [{"id": "t"}], "hypotheses": [{"id": "only", "outcomes": "1"}],
        }), str(instance_path))
        run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))
        code, out, _ = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 0
        assert "PASS worst_case<=split_worst: observed=0 bound=0 margin=0\n" in out
        assert "min_chosen_split" not in out

    @pytest.fixture()
    def polygon_report(self, tmp_path, capsys):
        instance_path = tmp_path / "polygon.instance.json"
        report_path = tmp_path / "polygon.report.json"
        run_cli(capsys, "gen", "--family", "convex_polygon",
                "--param", "m=8", "--param", "balanced=false", "--out", str(instance_path))
        assert run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))[0] == 0
        return instance_path, report_path

    def test_verify_rechecks_the_coherence_certificate(self, polygon_report, capsys):
        instance_path, report_path = polygon_report
        code, out, err = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 0 and err == ""
        assert "PASS coherence_certificate: claimed=1/8 achieved=1/8\n" in out

    def test_verify_overstated_certificate_exit_1(self, polygon_report, capsys):
        # A point mass on one test achieves 0, not the claimed 1/2.
        instance_path, report_path = polygon_report
        doc = json.loads(report_path.read_text())
        doc["coherence"] = {"distribution": {"p0": "1"}, "value": "1/2"}
        report_path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 1
        assert out == "FAIL coherence_certificate: certificate claims 1/2, achieves 0\n"
        assert err.startswith("ERROR VerificationFailed: coherence_certificate violated")
        assert err.count("\n") == 1

    def test_verify_certificate_not_a_distribution_exit_2(self, polygon_report, capsys):
        instance_path, report_path = polygon_report
        doc = json.loads(report_path.read_text())
        doc["coherence"]["distribution"] = {"p0": "1", "p1": "2"}
        report_path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 2 and out == ""
        assert err == "ERROR NotADistribution: weights must sum to 1\n"

    @pytest.mark.parametrize(
        "doctor",
        [
            lambda doc: doc.pop("beta"),
            lambda doc: doc["edges"][0].update({"from": "nope"}),
            lambda doc: doc["edges"].append(1),
        ],
        ids=["missing-beta", "unknown-test-id", "edge-not-an-object"],
    )
    def test_verify_malformed_report_exit_2(self, dj_instance, tmp_path, capsys, doctor):
        instance_path, _ = dj_instance
        report_path = tmp_path / "dj.report.json"
        run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))
        doc = json.loads(report_path.read_text())
        doctor(doc)
        report_path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 2 and out == ""
        assert err.startswith("ERROR PersistenceError: malformed analysis report")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "value, error",
        [
            ("1/x", "ParseError"),
            ("1/0", "ParseError"),
            ([1, 3], "PersistenceError"),
            ({"num": 1}, "PersistenceError"),
        ],
        ids=["not-a-rational", "zero-denominator", "unhashable-list", "unhashable-object"],
    )
    def test_verify_malformed_edge_value_exit_2(self, dj_instance, tmp_path, capsys, value, error):
        # The last edge repeats a value string that earlier edges already parsed.
        instance_path, _ = dj_instance
        report_path = tmp_path / "dj.report.json"
        run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))
        doc = json.loads(report_path.read_text())
        assert len({e["edge_value"] for e in doc["edges"]}) < len(doc["edges"])
        doc["edges"][-1]["edge_value"] = value
        report_path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert code == 2 and out == ""
        assert err.startswith(f"ERROR {error}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doctor",
        [
            lambda doc: doc["hypotheses"][0].pop("id"),
            lambda doc: doc.update({"tests": {"id": "t0"}}),
            lambda doc: doc["tests"].__setitem__(0, doc["tests"][0]["id"]),
        ],
        ids=["hypothesis-without-id", "tests-an-object", "test-a-bare-string"],
    )
    def test_run_malformed_instance_exit_2(self, dj_instance, capsys, doctor):
        instance_path, _ = dj_instance
        doc = json.loads(instance_path.read_text())
        doctor(doc)
        instance_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "run", "--in", str(instance_path))
        assert code == 2 and out == ""
        assert err.startswith("ERROR MalformedInstance: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "family, params, doctor",
        [
            ("box_localization", ["r=1"], lambda doc: doc["tests"][0]["meta"].update({"coords": 5})),
            ("box_localization", ["r=1"], lambda doc: doc["tests"][0]["meta"].update({"coords": ["a"]})),
            ("convex_polygon", ["m=5"], lambda doc: doc["tests"][0]["meta"].update({"cycle_index": "x"})),
            ("convex_polygon", ["m=5"], lambda doc: doc["tests"][0]["meta"].update({"cycle_index": True})),
        ],
        ids=["coords-a-number", "coords-not-integers", "cycle-index-a-string", "cycle-index-a-bool"],
    )
    def test_analyze_bad_meta_exit_2(self, tmp_path, capsys, family, params, doctor):
        path = tmp_path / "doctored.instance.json"
        params = [arg for param in params for arg in ("--param", param)]
        assert run_cli(capsys, "gen", "--family", family, *params, "--out", str(path))[0] == 0
        doc = json.loads(path.read_text())
        doctor(doc)
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "analyze", "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith("ERROR InvalidMeta: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("members", [65, 70])
    def test_exhaustive_edge_wider_than_64_exit_3(self, tmp_path, capsys, monkeypatch, members):
        # t0 answers 0 everywhere and t1 answers 1 on all but h0, so the
        # t0 -> t1 delta set has all other hypotheses; seven index bits keep
        # the rows distinct.
        path = tmp_path / "wide.instance.json"
        write_instance(validate_instance({
            "tests": [{"id": f"t{x}"} for x in range(9)],
            "hypotheses": [
                {"id": f"h{h}", "outcomes": "0" + ("1" if h else "0") + format(h, "07b")}
                for h in range(members + 1)
            ],
        }), path)

        def enumerate_subsets(masks, width):
            raise AssertionError(f"enumerated width {width}")

        monkeypatch.setattr(kernels, "min_subset_split", enumerate_subsets)
        code, out, err = run_cli(
            capsys, "analyze", "--in", str(path), "--edges", "all", "--limit", "100"
        )
        assert (code, out) == (3, "")
        assert err == (
            f"ERROR InstanceTooLarge: edge 't0' -> 't1' has {members} members;"
            " exhaustive enumeration takes at most 64\n"
        )

    def test_oversized_samples_exit_3_before_drawing(self, tmp_path, capsys):
        path = tmp_path / "polygon.instance.json"
        assert run_cli(capsys, "gen", "--family", "convex_polygon", "--param", "m=5",
                       "--param", "balanced=false", "--out", str(path))[0] == 0
        code, out, err = _timed_cli(
            capsys, "analyze", "--in", str(path), "--limit", "0", "--samples", "3000000"
        )
        assert (code, out) == (3, "")
        assert err.startswith("ERROR InstanceTooLarge: ") and err.count("\n") == 1

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--in", str(tmp_path / "nope.json"))
        assert code == 2 and err.startswith("ERROR ")

    @pytest.mark.parametrize("params", [[1, 2], 5, "abc"], ids=["a-list", "a-number", "a-string"])
    def test_params_not_an_object_exit_2(self, dj_instance, capsys, params):
        instance_path, _ = dj_instance
        doc = json.loads(instance_path.read_text())
        doc["params"] = params
        instance_path.write_text(json.dumps(doc))
        for command in ("analyze", "run"):
            code, out, err = run_cli(capsys, command, "--in", str(instance_path))
            assert (code, out) == (2, "")
            assert err == "ERROR MalformedInstance: 'params' must be an object\n"
        # A record fault is found first, as before the params check existed.
        doc["hypotheses"][1]["id"] = doc["hypotheses"][0]["id"]
        instance_path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "analyze", "--in", str(instance_path))
        assert code == 2 and err.startswith("ERROR DuplicateId: ") and err.count("\n") == 1

    def test_zero_denominator_alpha_hint_exit_2(self, dj_instance, capsys):
        instance_path, _ = dj_instance
        doc = json.loads(instance_path.read_text())
        doc["params"]["alpha_hint"] = "1/0"
        instance_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "analyze", "--in", str(instance_path))
        assert (code, out) == (2, "")
        assert err == "ERROR MalformedInstance: 'alpha_hint' must be a rational like 1/3, got '1/0'\n"

    def test_gen_zero_denominator_ratio_exit_2(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys, "gen", "--family", "discrete_linear", "--param", "d=3", "--param", "r=1/0",
            "--out", str(path),
        )
        assert (code, out) == (2, "") and not path.exists()
        assert err.startswith("ERROR BadParams: ") and err.count("\n") == 1

    def test_deeply_nested_json_exit_2(self, dj_instance, tmp_path, capsys):
        instance_path, _ = dj_instance
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for argv in (("analyze", "--in", str(deep)),
                     ("verify", "--in", str(instance_path), "--report", str(deep))):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "ERROR ParseError: JSON nested too deeply\n"


HUGE = "1e10000000"  # ten characters that Fraction would expand for seconds


def _gen(family, *params, out="{dir}/x.json"):
    pairs = [arg for param in params for arg in ("--param", param)]
    return ["gen", "--family", family, *pairs, "--out", out]


# Refusals as (argv, error type), all exit 2.  In argv "{dir}" is an empty
# directory, "{instance}" a disjunction d4 m2 instance, "{stats}" the
# `run --oracle all --out` file of that instance and "{listed}" a file
# holding the JSON list [1].
REFUSALS = {
    "verify-a-cost-stats-report": (
        ["verify", "--in", "{instance}", "--report", "{stats}"], "UsageError"),
    "param-without-equals": (_gen("disjunction", "d3"), "UsageError"),
    "grid-without-values": (
        ["sweep", "--family", "disjunction", "--param", "m=1", "--grid", "d=",
         "--out", "{dir}/x.csv"], "UsageError"),
    "balanced-maybe": (_gen("convex_polygon", "m=5", "balanced=maybe"), "BadParams"),
    "offsets-not-integers": (_gen("shape_localization", "offsets=0,a"), "BadParams"),
    "shape-without-a-shape": (_gen("shape_localization"), "BadParams"),
    "shape-with-no-offsets": (_gen("shape_localization", "offsets="), "BadParams"),
    "offsets-of-mixed-dimensions": (_gen("shape_localization", "offsets=0,0;1"), "BadParams"),
    "linear-ratio-zero": (_gen("discrete_linear", "d=2", "r=0"), "BadParams"),
    "box-center-of-another-dimension": (_gen("box_localization", "r=1,1", "center=0"), "BadParams"),
    "instance-not-an-object": (["analyze", "--in", "{listed}"], "ParseError"),
    "out-in-a-missing-directory": (
        _gen("disjunction", "d=3", "m=1", out="{dir}/missing/x.json"), "SinkFailure"),
    "out-a-directory": (_gen("disjunction", "d=3", "m=1", out="{dir}"), "SinkFailure"),
}


class TestRefusals:
    @pytest.mark.parametrize("argv, error", REFUSALS.values(), ids=REFUSALS)
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, argv, error):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        instance = inputs / "dj.instance.json"
        write_instance(families.gen_disjunction(4, 2), instance)
        stats = inputs / "dj.stats.json"
        assert main(["run", "--in", str(instance), "--out", str(stats)]) == 0
        listed = inputs / "listed.json"
        listed.write_text("[1]")
        empty = tmp_path / "empty"
        empty.mkdir()
        capsys.readouterr()
        argv = [a.format(dir=empty, instance=instance, stats=stats, listed=listed) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR {error}: ") and err.count("\n") == 1
        assert list(empty.iterdir()) == []

    def test_balanced_yes_builds_the_balanced_polygon(self, tmp_path, capsys):
        outputs = {}
        for balanced in ("true", "yes", "no"):
            path = tmp_path / f"{balanced}.instance.json"
            code, out, _ = run_cli(
                capsys, "gen", "--family", "convex_polygon", "--param", "m=6",
                "--param", f"balanced={balanced}", "--out", str(path),
            )
            assert code == 0
            outputs[balanced] = (out, json.loads(path.read_text())["name"])
        assert outputs["yes"] == outputs["true"] != outputs["no"]
        assert outputs["yes"][1] == "polygon_m6_balanced"

    def test_l1_edges_without_geometry_fall_back_to_all(self, tmp_path, capsys):
        # No coords, no cycle indices, and ids that are not bit strings.
        instance = validate_instance({
            "name": "plain",
            "family": "",
            "params": {},
            "tests": [{"id": tid} for tid in ("ta", "tb", "tc")],
            "hypotheses": [{"id": f"h{row}", "outcomes": row} for row in ("001", "010", "100", "111")],
        })
        instance_path, report = tmp_path / "plain.instance.json", tmp_path / "plain.report.json"
        write_instance(instance, instance_path)
        code, _, err = run_cli(
            capsys, "analyze", "--in", str(instance_path), "--edges", "l1", "--out", str(report))
        assert (code, err) == (0, "")
        assert json.loads(report.read_text())["knobs"]["edge_mode"] == "all"


def _timed_cli(capsys, *argv):
    start = time.perf_counter()
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2, argv[0]
    return result


class TestOutsideRationals:
    """Exponent notation and overflowing report numbers exit 2 at once, with one ERROR line."""

    def test_exponent_alpha_hint_exit_2(self, dj_instance, capsys):
        instance_path, _ = dj_instance
        doc = json.loads(instance_path.read_text())
        doc["params"]["alpha_hint"] = HUGE
        instance_path.write_text(json.dumps(doc))
        code, out, err = _timed_cli(capsys, "analyze", "--in", str(instance_path))
        assert (code, out) == (2, "")
        assert err == f"ERROR MalformedInstance: 'alpha_hint' must be a rational like 1/3, got '{HUGE}'\n"

    def test_exponent_ratio_exit_2(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        code, out, err = _timed_cli(
            capsys, "gen", "--family", "discrete_linear", "--param", "d=3", "--param", f"r={HUGE}",
            "--out", str(path),
        )
        assert (code, out) == (2, "") and not path.exists()
        assert err == "ERROR BadParams: param 'r' must be a rational like 2 or 3/2\n"

    def test_exponent_entropy_exit_2(self, capsys):
        code, out, err = _timed_cli(capsys, "entropy", "--p", HUGE)
        assert (code, out) == (2, "")
        assert err == f"ERROR UsageError: --p must be a rational like 1/5, got '{HUGE}'\n"

    @pytest.fixture()
    def report(self, dj_instance, tmp_path, capsys):
        instance_path, _ = dj_instance
        report_path = tmp_path / "dj.report.json"
        assert run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))[0] == 0
        return instance_path, report_path

    def test_exponent_edge_value_exit_2(self, report, capsys):
        instance_path, report_path = report
        doc = json.loads(report_path.read_text())
        doc["edges"][0]["edge_value"] = HUGE
        report_path.write_text(json.dumps(doc))
        code, out, err = _timed_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR ParseError: bad rational '{HUGE}': ") and err.count("\n") == 1

    @pytest.mark.parametrize("literal", ["Infinity", "1e400", "-1e400"])
    @pytest.mark.parametrize(
        "path, error",
        [
            (("k_min",), "PersistenceError"),
            (("knobs", "seed"), "PersistenceError"),
            (("edges", 0, "delta_size"), "PersistenceError"),
            (("edges", 0, "edge_value"), "ParseError"),
            (("beta",), "ParseError"),
            (("coherence", "value"), "ParseError"),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_overflowing_report_number_exit_2(self, report, capsys, path, error, literal):
        instance_path, report_path = report
        doc = json.loads(report_path.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = "@number@"
        report_path.write_text(json.dumps(doc).replace('"@number@"', literal))
        code, out, err = _timed_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR {error}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", '"inf"', '"nan"', "true"])
    @pytest.mark.parametrize("field", ["bound_nowak_worst", "bound_split_worst", "bound_split_average"])
    def test_non_finite_bound_exit_2(self, report, capsys, field, literal):
        """A bound that is not finite, or not a number, is bad input, never a pass or a fail."""
        instance_path, report_path = report
        doc = json.loads(report_path.read_text())
        doc[field] = "@number@"
        report_path.write_text(json.dumps(doc).replace('"@number@"', literal))
        code, out, err = _timed_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("ERROR PersistenceError: malformed analysis report: ValueError ")
        assert err.count("\n") == 1

    def test_bound_past_the_float_range_exit_2(self, report, capsys):
        instance_path, report_path = report
        doc = json.loads(report_path.read_text())
        doc["bound_split_worst"] = 10**400
        report_path.write_text(json.dumps(doc))
        code, out, err = _timed_cli(
            capsys, "verify", "--in", str(instance_path), "--report", str(report_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("ERROR PersistenceError: malformed analysis report: OverflowError ")
        assert err.count("\n") == 1


class TestGoldenReports:
    """Report bytes pinned by sha256, so a kernel change that drifts fails here.

    One instance repeats kernel inputs across most of its edges, three sample
    edges past the exhaustive limit (cnf d5 below it lowered, widths under
    32; cnf d7 at widths 20-28, one uint32 word; polygon m40 at widths up
    to 39, two words), and four have no all-0 and all-1 test pair, so their
    coherence comes from solving the game.  Box r=2,1 takes its edges from
    grid coords, and cnf d6 from every pair (``--edges all``).
    """

    @pytest.mark.parametrize(
        "family, params, flags, sha256",
        [
            ("disjunction", ["d=6", "m=2"], [],
             "c62404b16947f73da740b44a81983eb5f31f1c6623ba3b5d392879b4c2cf2648"),
            ("monotone_cnf", ["d=5", "m=2", "l=2"], ["--limit", "5", "--samples", "2000", "--seed", "7"],
             "5c5ab1b474f64bf44c254375cea4d7208032c14a3c88734746d7c47341d2634b"),
            ("convex_polygon", ["m=8", "balanced=false"], [],
             "440dd15aaeb3d6e3e9d40ff7b8b356f14ae209d75faac11fecc9c0bcd0098b16"),
            ("convex_polygon", ["m=16", "balanced=false"], [],
             "276e50461b9b454f241077c30799b2fb93c59817ebd2917ee69a5b8e3d813748"),
            ("discrete_linear", ["d=4", "r=3"], [],
             "66f5a4f740184c53aa44be263576cf072bb32490e8b11bc1e45df56c54c15e5e"),
            ("discrete_linear", ["d=5", "r=2"], [],
             "4db99f2fd81c85be74fa47661618caddde58bd57266cdc98e64612cde5dbc5c7"),
            ("monotone_cnf", ["d=7", "m=2", "l=2"], ["--seed", "5"],
             "fa0b649c428180b124e0eb24527c7177c51e23a27bd06e07a60aeca84896524e"),
            ("convex_polygon", ["m=40", "balanced=false"], ["--seed", "5"],
             "86e67c96a1995eba7c3672cb7203cecdffa7cb9d6988c05704764e928599b42e"),
            ("box_localization", ["r=2,1"], [],
             "8d8e83f54b4dd2bf7c3d1cb779d1ddccd4a2e41c456c48b03ca2ad6ab7463b68"),
            ("monotone_cnf", ["d=6", "m=2", "l=2"], ["--edges", "all", "--limit", "4", "--samples", "40"],
             "cbbdc5a501d8382b73e7e52a41bb9587aebba8edcc0454db7a17c6df745ef4f9"),
        ],
        ids=["disjunction-d6-m2", "cnf-d5-m2-l2-sampled", "polygon-m8",
             "polygon-m16", "linear-d4-r3", "linear-d5-r2",
             "cnf-d7-m2-l2-sampled", "polygon-m40-sampled-two-words",
             "box-r2-1-grid-coords", "cnf-d6-m2-l2-all-edges"],
    )
    def test_analyze_report_digest(self, tmp_path, capsys, family, params, flags, sha256):
        instance_path = tmp_path / "golden.instance.json"
        report_path = tmp_path / "golden.report.json"
        params = [arg for param in params for arg in ("--param", param)]
        assert run_cli(capsys, "gen", "--family", family, *params, "--out", str(instance_path))[0] == 0
        code, _, _ = run_cli(
            capsys, "analyze", "--in", str(instance_path), *flags, "--out", str(report_path)
        )
        assert code == 0
        assert hashlib.sha256(report_path.read_bytes()).hexdigest() == sha256


    def test_relabelled_kernel_inputs_are_enumerated_once(self, tmp_path, capsys, monkeypatch):
        """cnf d6's 83 distinct kernel inputs fall into 4 relabelling classes.

        Each class is enumerated once and every other input scans only up to
        its own first witness; the report keeps the bytes it had when all 83
        were enumerated.
        """
        calls = counting_kernels(monkeypatch)
        instance_path = tmp_path / "cnf.instance.json"
        report_path = tmp_path / "cnf.report.json"
        assert run_cli(capsys, "gen", "--family", "monotone_cnf", "--param", "d=6", "--param", "m=2",
                       "--param", "l=2", "--out", str(instance_path))[0] == 0
        assert run_cli(capsys, "analyze", "--in", str(instance_path), "--out", str(report_path))[0] == 0
        assert calls == {"min_subset_split": 4, "first_subset_at": 79}
        assert hashlib.sha256(report_path.read_bytes()).hexdigest() == (
            "22f0b41cdd8a81cbe6a1773e44c448301b8433f0a5a8c5772fc34044eb6a4abc"
        )

    def test_sampled_analyze_does_not_import_numpy_random(self, tmp_path):
        # numpy.random alone adds several MB of resident memory to a run.
        instance_path = tmp_path / "cnf.instance.json"
        script = (
            "import sys\n"
            "from splitfinder.cli import main\n"
            f"assert main(['gen', '--family', 'monotone_cnf', '--param', 'd=5', '--param', 'm=2',"
            f" '--param', 'l=2', '--out', {str(instance_path)!r}]) == 0\n"
            f"assert main(['analyze', '--in', {str(instance_path)!r}, '--limit', '5',"
            f" '--samples', '200', '--out', {str(tmp_path / 'cnf.report.json')!r}]) == 0\n"
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True False"


class TestGoldenRuns:
    """`run --oracle all` output pinned by sha256, recorded with the per-oracle loop."""

    @pytest.mark.parametrize(
        "family, params, stdout, sha256",
        [
            ("convex_polygon", ["m=16", "balanced=false"],
             "oracles=240 worst_case=15 average=333/40 (8.325)\n",
             "1489b3ec6dd79d6a2e62f9de15e95f7fc51caea942bc81b9348b94d94aef0ed3"),
            ("box_localization", ["r=3,3"],
             "oracles=49 worst_case=6 average=279/49 (5.69387755102)\n",
             "2465ea0bca7f89471b00a1c0b738ef18b810a516f714164085d240fa900ea58a"),
        ],
        ids=["polygon-m16", "box-r3-3"],
    )
    def test_run_all_digest(self, tmp_path, capsys, family, params, stdout, sha256):
        instance_path = tmp_path / "golden.instance.json"
        out_path = tmp_path / "golden.stats.json"
        params = [arg for param in params for arg in ("--param", param)]
        assert run_cli(capsys, "gen", "--family", family, *params, "--out", str(instance_path))[0] == 0
        code, out, _ = run_cli(
            capsys, "run", "--in", str(instance_path), "--oracle", "all", "--out", str(out_path)
        )
        assert (code, out) == (0, stdout)
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == sha256


class TestGoldenSingleRuns:
    """`run --oracle ID --out` and `interactive --out` bytes pinned by sha256.

    Recorded with the earlier int-bitset loop, so the numpy greedy step must
    ask the same questions in the same order.  The interactive answers
    alternate 1, 0, 1, ...; the stdout digest covers every QUERY line.
    """

    @pytest.mark.parametrize(
        "family, params, oracle, stdout, run_sha256, session_sha256, transcript_sha256",
        [
            ("convex_polygon", ["m=8", "balanced=false"], "arc4+1",
             "oracle=arc4+1 queries=7 identified=arc4+1\n",
             "59a7245165c363a2be257cc552d6fbabe8d37c9cefe11992376ca15d87c84b60",
             "6d788141554bed911f8c00e98cdd7fd09b960231c29543422d664a866d604b94",
             "0ccbe871b1e750c41810ef9a576c6fe2e3fdbe9e582ad6e7e322e13bd658313d"),
            ("disjunction", ["d=6", "m=2"], "x1|x6",
             "oracle=x1|x6 queries=5 identified=x1|x6\n",
             "d9db4d3a74aca25520978994f7d1a4c3ef53201b1849fe3441c999ec31e95d39",
             "620506637bd9adb35a61f670baff4d51a7dd6d6277f2c7947dbc3414d7e822b0",
             "a92153f51964de11afbc6ec0e6de19ced95ebe8740e29508a4b88f35d91ece2e"),
        ],
        ids=["polygon-m8", "disjunction-d6-m2"],
    )
    def test_single_oracle_and_interactive_digests(
        self, tmp_path, capsys, monkeypatch, family, params, oracle, stdout,
        run_sha256, session_sha256, transcript_sha256,
    ):
        instance_path = tmp_path / "golden.instance.json"
        params = [arg for param in params for arg in ("--param", param)]
        assert run_cli(capsys, "gen", "--family", family, *params, "--out", str(instance_path))[0] == 0
        run_path = tmp_path / "run.transcript.json"
        code, out, _ = run_cli(
            capsys, "run", "--in", str(instance_path), "--oracle", oracle, "--out", str(run_path)
        )
        assert (code, out) == (0, stdout)
        assert hashlib.sha256(run_path.read_bytes()).hexdigest() == run_sha256
        session_path = tmp_path / "session.transcript.json"
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\n0\n" * 64))
        code, out, _ = run_cli(capsys, "interactive", "--in", str(instance_path), "--out", str(session_path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == session_sha256
        assert hashlib.sha256(session_path.read_bytes()).hexdigest() == transcript_sha256


class TestSmallCommands:
    def test_optimal(self, dj_instance, capsys):
        instance_path, _ = dj_instance
        code, out, _ = run_cli(capsys, "optimal", "--in", str(instance_path))
        assert code == 0
        assert out.strip() == "4"

    def test_optimal_cap_exit_3(self, tmp_path, capsys):
        path = tmp_path / "big.instance.json"
        run_cli(capsys, "gen", "--family", "convex_polygon",
                "--param", "m=5", "--param", "balanced=false", "--out", str(path))
        code, _, err = run_cli(capsys, "optimal", "--in", str(path), "--cap", "12")
        assert code == 3
        assert "ERROR InstanceTooLarge" in err

    @pytest.mark.parametrize("command, value", [("verify", "-1"), ("optimal", "-5"), ("optimal", "x")])
    def test_cap_is_a_count(self, dj_instance, tmp_path, capsys, command, value):
        instance_path, _ = dj_instance
        report = ("--report", str(tmp_path / "unread.json")) if command == "verify" else ()
        code, out, err = run_cli(capsys, command, "--in", str(instance_path), *report, "--cap", value)
        assert (code, out) == (2, "")
        assert err == f"ERROR UsageError: argument --cap: expected a non-negative integer, got '{value}'\n"

    def test_entropy_values(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--p", "1/2")
        assert code == 0 and out.strip() == "1.0"
        code, out, _ = run_cli(capsys, "entropy", "--p", "0/1")
        assert code == 0 and out.strip() == "0.0"
        code, out, _ = run_cli(capsys, "entropy", "--p", "1/5")
        assert code == 0 and abs(float(out) - 0.721928094887) < 1e-9

    def test_entropy_rejects_bad_input(self, capsys):
        assert run_cli(capsys, "entropy", "--p", "3/2")[0] == 2
        assert run_cli(capsys, "entropy", "--p", "zebra")[0] == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--p", "1/2", "--frobnicate")
        assert code == 2 and "ERROR UsageError" in err


class TestSweep:
    def test_grid_produces_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "disjunction",
            "--grid", "d=4,5,6", "--param", "m=2", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("name,")
        assert "disjunction_d5_m2" in lines[2]

    @pytest.mark.parametrize("flag", ["--samples", "--limit"])
    def test_negative_count_exit_2(self, tmp_path, capsys, flag):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--family", "disjunction", "--grid", "d=3", "--param", "m=1",
            flag, "-2", "--out", str(out_path),
        )
        assert code == 2 and not out_path.exists()
        assert err.startswith(f"ERROR UsageError: argument {flag}: ") and err.count("\n") == 1

    def test_sweep_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "sweep", "--family", "disjunction",
                                 "--grid", "m=1,2", "--param", "d=4", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


def _paths(value, prefix=()):
    """Every key or index path into a JSON document, at any depth."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(document, path, value):
    """A deep copy of a JSON document with the value at ``path`` replaced."""
    document = json.loads(json.dumps(document))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


_TINY = families.generate("convex_polygon", {"m": "3"})
_TINY_DOCUMENTS = {
    "instance": instance_to_document(_TINY),
    "report": persistence.report_to_document(analysis.analyze_instance(_TINY), _TINY),
}


def _target_groups(documents):
    """Every (document name, path), grouped by name and depth, so that a
    shallow field is drawn as often as a deep one."""
    groups: dict[tuple[str, int], list] = {}
    for kind, document in documents.items():
        for path in _paths(document):
            groups.setdefault((kind, len(path)), []).append((kind, path))
    return list(groups.values())


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


class TestFuzz:
    """Arbitrary JSON anywhere in a valid instance or report keeps the exit contract."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        """A directory holding the valid instance and report, as written once."""
        root = tmp_path_factory.mktemp("fuzz")
        for kind, document in _TINY_DOCUMENTS.items():
            (root / f"valid.{kind}.json").write_text(json.dumps(document))
        return root

    @settings(max_examples=300, deadline=None)
    @given(
        target=st.sampled_from(_target_groups(_TINY_DOCUMENTS)).flatmap(st.sampled_from),
        value=_JSON,
    )
    @example(target=("instance", ("params",)), value=[1, 2])
    @example(target=("instance", ("params",)), value=5)
    @example(target=("instance", ("params",)), value="abc")
    @example(target=("instance", ("params", "alpha_hint")), value="1/0")
    @example(target=("instance", ("params", "alpha_hint")), value=HUGE)
    @example(target=("report", ("edges", 0, "edge_value")), value=HUGE)
    @example(target=("report", ("k_min",)), value=float("inf"))
    @example(target=("report", ("knobs", "seed")), value=float("inf"))
    @example(target=("report", ("edges", 0, "delta_size")), value=float("inf"))
    @example(target=("report", ("edges", 0, "edge_value")), value=float("inf"))
    @example(target=("report", ("beta",)), value=float("inf"))
    @example(target=("report", ("coherence", "value")), value=float("inf"))
    @example(target=("report", ("bound_split_worst",)), value=10**400)
    def test_one_replaced_field_exits_by_the_contract(self, workdir, target, value):
        kind, path = target
        paths = {name: workdir / f"valid.{name}.json" for name in _TINY_DOCUMENTS}
        paths[kind] = workdir / f"fuzzed.{kind}.json"
        paths[kind].write_text(json.dumps(_replaced(_TINY_DOCUMENTS[kind], path, value)))
        instance, report = str(paths["instance"]), str(paths["report"])
        if kind == "instance":
            runs = [(["analyze", "--in", instance, "--out", str(workdir / "out.json")], {0, 2, 3}),
                    (["run", "--in", instance], {0, 2, 3})]
        else:
            runs = [(["verify", "--in", instance, "--report", report], {0, 1, 2, 3})]
        for argv, codes in runs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue()
            assert code in codes, (argv[0], code, err)
            if code:
                assert err.startswith("ERROR ") and err.count("\n") == 1, err
            else:
                assert err == ""


class TestInteractiveSubprocess:
    def test_protocol_round(self, tmp_path):
        instance_path = tmp_path / "dj31.instance.json"
        assert subprocess.run(
            [sys.executable, "-m", "splitfinder.cli", "gen", "--family", "disjunction",
             "--param", "d=3", "--param", "m=1", "--out", str(instance_path)],
            capture_output=True,
        ).returncode == 0
        proc = subprocess.run(
            [sys.executable, "-m", "splitfinder.cli", "interactive", "--in", str(instance_path)],
            input="1\n0\n1\n0\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("QUERY ")
        assert lines[-1].startswith("IDENTIFIED ")

    def test_out_writes_the_session_transcript(self, tmp_path, capsys, monkeypatch):
        instance_path = tmp_path / "dj31.instance.json"
        out_path = tmp_path / "session.transcript.json"
        assert run_cli(capsys, "gen", "--family", "disjunction", "--param", "d=3",
                       "--param", "m=1", "--out", str(instance_path))[0] == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\n0\n1\n0\n"))
        code, out, _ = run_cli(capsys, "interactive", "--in", str(instance_path),
                               "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "transcript" and doc["oracle_id"] == "interactive"
        assert out.splitlines()[-1] == f"IDENTIFIED {doc['identified']}"
        assert len(doc["steps"]) == out.count("QUERY ")
