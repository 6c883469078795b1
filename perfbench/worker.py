"""One benchmark iteration: a fresh process that drives the splitfinder CLI.

``run.py`` starts this file once per iteration.  It imports the package from
``src/``, calls ``splitfinder.cli.main(argv)`` for each command of the
workload in turn and writes what it saw to a JSON file: per-command exit
code, seconds and compared outputs, the monotonic time at which set-up (every
``gen``) ended, the sequence's wall time, peak RSS and provenance.  With
``--trace 1`` it also wraps the layers' public functions (see ``targets``)
and adds span summaries and work counts.

Usage: python3 perfbench/worker.py --workload NAME --analysis-seed N
       --trace 0|1 --workdir DIR --result FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402
import spans as spanlib  # noqa: E402
import suite  # noqa: E402

from splitfinder import analysis, cli, engine, families, kernels, persistence  # noqa: E402


def _count_bytes(counter: str):
    def hook(tracer, _args, _kwargs, written):
        tracer.add(counter, written)
    return hook


def _game_size(tracer, args, _kwargs, _result):
    matrix = args[0]
    tracer.add("analysis.matrix_game_value.game_rows", len(matrix))
    tracer.add("analysis.matrix_game_value.game_cols", len(matrix[0]))


def _subset_kernel(tracer, args, _kwargs, _result):
    masks, width = args
    tracer.distinct("kernels.min_subset_split", (width, tuple(masks)))
    tracer.add("kernels.min_subset_split.subsets", (1 << width) - width - 1)


def _batch_kernel(tracer, args, _kwargs, _result):
    tracer.add("kernels.batch_min_split.samples", len(args[1]))


def _gbs_queries(tracer, _args, _kwargs, transcript):
    tracer.add("engine.gbs_queries", len(transcript.steps))


def targets():
    """(module, attribute, span name, hook) for every wrapped layer entry point."""
    return (
        (families, "generate", "families.generate", None),
        (families, "validate_instance", "core.validate_instance", None),
        (persistence, "validate_instance", "core.validate_instance", None),
        (persistence, "read_instance", "persistence.read_instance", None),
        (persistence, "write_instance", "persistence.write_instance", _count_bytes("persistence.instance_bytes")),
        (persistence, "write_report", "persistence.write_report", _count_bytes("persistence.report_bytes")),
        (analysis, "min_k", "analysis.min_k", None),
        (analysis, "coherence", "analysis.coherence", None),
        (analysis, "matrix_game_value", "analysis.matrix_game_value", _game_size),
        (analysis, "candidate_edges", "analysis.candidate_edges", None),
        (analysis, "edge_alpha", "analysis.edge_alpha", None),
        (analysis, "_restricted_masks", "analysis._restricted_masks", None),
        (kernels, "min_subset_split", "kernels.min_subset_split", _subset_kernel),
        (kernels, "batch_min_split", "kernels.batch_min_split", _batch_kernel),
        (analysis, "alpha_star", "analysis.alpha_star", None),
        (engine, "run_gbs", "engine.run_gbs", _gbs_queries),
        (engine, "best_split_test", "engine.best_split_test", None),
        (engine, "restrict", "engine.restrict", None),
    )


def layer_metrics(tracer: spanlib.Tracer, span_list, reports: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (``cli.*`` and ``trace.*`` come from run.py)."""
    table = spanlib.summarize(span_list)

    def stat(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    calls = stat("kernels.min_subset_split", "calls")
    distinct = len(tracer.keys["kernels.min_subset_split"])
    edges = [e for path in reports if path.exists()
             for e in json.loads(path.read_text(encoding="utf-8"))["edges"]]
    out = {
        "kernels.min_subset_split.distinct_inputs": distinct,
        "kernels.min_subset_split.repeat_share": 1 - distinct / calls if calls else 0.0,
        "analysis.edges_exhaustive": sum(e["status"] == analysis.VERIFIED_EXHAUSTIVE for e in edges),
        "analysis.edges_sampled": sum(e["samples_tried"] > 0 for e in edges),
    }
    for name, _unit, _better in suite.PER_LAYER:
        if name in out or name.startswith(("cli.", "trace.")):
            continue
        layer, _, key = name.rpartition(".")
        if key in ("self_s", "total_s", "calls") and layer in table:
            out[name] = stat(layer, key)
        else:
            out[name] = tracer.counts.get(name, 0)
    return out


def call(argv: tuple[str, ...]) -> tuple[object, str, str, float]:
    """Run one CLI command in this process; returns (exit code, stdout, stderr, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
    except Exception:  # noqa: BLE001 - a crash is recorded as a failed command
        code = "exception: " + traceback.format_exc(limit=3)
    return code, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - start


def run_sequence(workload: suite.Workload, workdir: Path, aseed: int, setup_only: bool = False) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    for inst in workload.instances:  # no output of an earlier iteration may pass for this one's
        suite.instance_path(workdir, inst.key).unlink(missing_ok=True)
        suite.report_path(workdir, inst.key).unlink(missing_ok=True)
    results = []
    setup_done = None
    start = None
    for command in suite.commands(workload, workdir, aseed):
        if command.kind != "gen" and setup_done is None:
            setup_done = time.monotonic()
            start = time.perf_counter()
            if setup_only:
                break
        code, stdout, stderr, seconds = call(command.argv)
        results.append({"kind": command.kind, "instance": command.instance, "code": code,
                        "stdout": stdout, "stderr": stderr[-500:], "seconds": seconds})
    wall = time.perf_counter() - start
    for result in results:
        sha = None
        if result["kind"] == "analyze":
            path = suite.report_path(workdir, result["instance"])
            sha = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        result["observed"] = suite.observe(result["kind"], result.pop("stdout"), sha)
    return {"setup_done": setup_done, "wall_s": wall, "commands": results}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--analysis-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true", help="stop after every gen")
    args = parser.parse_args(argv)
    workload = suite.WORKLOADS[args.workload]

    tracer = spanlib.Tracer()
    with tracer.installed(targets() if args.trace else ()):
        outcome = run_sequence(workload, args.workdir, args.analysis_seed, args.setup_only)
    outcome["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome["provenance"] = {
        "backend": kernels.BACKEND,
        "threads": cli._resolve_threads(None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.trace:
        span_list = tracer.spans()
        reports = [suite.report_path(args.workdir, i.key) for i in workload.instances if workload.analyze]
        outcome["layers"] = layer_metrics(tracer, span_list, reports)
        if args.spans is not None:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump(span_list, handle, separators=(",", ":"))
    args.result.write_text(json.dumps(outcome), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
