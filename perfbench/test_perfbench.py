"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402
import worker  # noqa: E402

from splitfinder import analysis  # noqa: E402

TINY = suite.Workload(
    "tiny", "sub-second check", (suite.Instance("disjunction-d4-m2", "disjunction", (("d", "4"), ("m", "2"))),),
    analyze=True,
)


def test_self_time_of_nested_spans():
    spans_ = [
        ("outer", 1, None, 0.0, 10.0),
        ("mid", 1, 0, 1.0, 4.0),
        ("leaf", 1, 1, 2.0, 3.0),
        ("mid", 1, 0, 5.0, 7.0),
    ]
    assert spans.self_times(spans_) == [5.0, 2.0, 1.0, 2.0]
    table = spans.summarize(spans_)
    assert table["mid"] == {"calls": 2, "self_s": 4.0, "total_s": 5.0}
    assert table["outer"]["total_s"] == 10.0


def test_self_time_counts_overlapping_children_once():
    spans_ = [("p", 1, None, 0.0, 10.0), ("c", 2, 0, 1.0, 6.0), ("c", 3, 0, 4.0, 8.0), ("c", 4, 0, 9.0, 12.0)]
    assert spans.self_times(spans_)[0] == 10.0 - 7.0 - 1.0


def test_self_time_keeps_threads_apart():
    # Two threads overlap in time; each span is reduced only by its own thread's children.
    spans_ = [
        ("a", 1, None, 0.0, 10.0),
        ("a.child", 1, 0, 2.0, 4.0),
        ("b", 2, None, 1.0, 9.0),
        ("b.child", 2, 2, 3.0, 8.0),
    ]
    assert spans.self_times(spans_) == [8.0, 2.0, 3.0, 5.0]


def test_tracer_keeps_one_stack_per_thread():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=10)
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")

    def outer_body():
        barrier.wait()  # both outer spans are open at once
        return inner()

    outer = tracer.wrap(outer_body, "outer")
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    recorded = tracer.spans()
    assert sorted(s[0] for s in recorded) == ["inner", "inner", "outer", "outer"]
    for name, thread, parent, _start, _end in recorded:
        if name == "outer":
            assert parent is None
        else:
            assert recorded[parent][0] == "outer" and recorded[parent][1] == thread
    assert all(own >= 0 for own in spans.self_times(recorded))


def test_wrapped_functions_return_identical_outputs(tmp_path):
    plain = worker.run_sequence(TINY, tmp_path / "plain", 3)
    original = analysis.coherence
    tracer = spans.Tracer()
    with tracer.installed(worker.targets()):
        traced = worker.run_sequence(TINY, tmp_path / "traced", 3)
    assert analysis.coherence is original
    assert [c["code"] for c in plain["commands"]] == [0, 0, 0, 0]
    assert run.outputs(traced) == run.outputs(plain)
    assert (tmp_path / "plain" / "disjunction-d4-m2.report.json").read_bytes() == (
        tmp_path / "traced" / "disjunction-d4-m2.report.json").read_bytes()

    reports = [suite.report_path(tmp_path / "traced", "disjunction-d4-m2")]
    layers = worker.layer_metrics(tracer, tracer.spans(), reports)
    assert layers["kernels.min_subset_split.calls"] > 0
    assert layers["analysis.edge_alpha.calls"] == (
        layers["analysis.edges_exhaustive"] + layers["analysis.edges_sampled"])
    assert layers["engine.run_gbs.calls"] == 2 * 10  # run and verify each sweep all 10 hypotheses
    traced["layers"] = layers
    metrics = run.per_layer([plain], [traced])
    assert list(metrics) == [name for name, _unit, _better in suite.PER_LAYER]


def test_metric_names_are_valid_and_match_benchmark_json():
    names = [name for name, _unit, _better in suite.END_TO_END + suite.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert suite.METRIC_NAME.fullmatch(name), name
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    as_config = lambda rows: [{"name": n, "unit": u, "better": b} for n, u, b in rows]  # noqa: E731
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in config["end_to_end"]] == as_config(suite.END_TO_END)
    assert config["per_layer"] == as_config(suite.PER_LAYER)
    assert config["workloads"] == [{"name": w.name, "why": w.why} for w in suite.WORKLOADS.values()]


def _reference_iteration(reference: dict, aseed: int) -> dict:
    commands = []
    for command in suite.commands(suite.WORKLOADS["edge-exhaustive"], Path("unused"), aseed):
        observed = suite.expected(command.kind, reference, command.instance, aseed)
        commands.append({"kind": command.kind, "instance": command.instance, "code": 0, "observed": observed})
    return {"commands": commands}


def test_gate_counts_a_wrong_reference_digest_as_a_failure():
    reference = suite.load_reference()
    iteration = _reference_iteration(reference, 5)
    assert run.gate([iteration], reference, 5) == (8, [])

    wrong = copy.deepcopy(reference)
    wrong["instances"]["cnf-d6-m2-l2"]["reports"][5] = "0" * 64
    attempted, problems = run.gate([iteration], wrong, 5)
    assert attempted == 8 and len(problems) == 1 and problems[0].startswith("analyze cnf-d6-m2-l2")


def test_gate_counts_exit_codes_and_verify_failures():
    reference = suite.load_reference()
    iteration = _reference_iteration(reference, 0)
    iteration["commands"][1]["code"] = 2
    iteration["commands"][-1]["observed"] = {"fail_lines": ["FAIL average<=split_average: ..."]}
    _attempted, problems = run.gate([iteration], reference, 0)
    assert len(problems) == 2
