"""End-to-end and per-layer benchmark of the splitfinder CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

For ``--seconds`` seconds it repeats one workload (see ``suite.WORKLOADS``),
each iteration a fresh Python process (``worker.py``) that runs the CLI
commands one after another with the shipped defaults: no ``--threads`` flag,
and ``SPLITFINDER_THREADS`` / ``SPLITFINDER_KERNEL`` removed from its
environment.  Every command's exit code and outputs are checked against the
reference digests in ``reference.json``.

``--trace 0`` reports the end-to-end metrics, medians over the iterations:
``setup_s`` (process start to every instance generated and written),
``wall_s`` (the remaining commands) and ``peak_rss_mb``.  ``--trace 1``
alternates plain and traced iterations and reports the per-layer metrics
(``suite.PER_LAYER``): medians of the traced span summaries, per-command wall
times of the plain iterations, and ``trace.overhead_s``; traced outputs must
equal the plain ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with provenance and every sample, goes to ``.perfbench/BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402

WORKER = HERE / "worker.py"
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPLITFINDER_THREADS", None)
    env.pop("SPLITFINDER_KERNEL", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(workload: str, aseed: int, trace: bool, workdir: Path, spans: Path | None = None,
               setup_only: bool = False) -> dict:
    """Run one iteration in a fresh process; adds ``setup_s`` measured from before its start."""
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(WORKER), "--workload", workload, "--analysis-seed", str(aseed),
            "--trace", str(int(trace)), "--workdir", str(workdir), "--result", str(result)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()  # CLOCK_MONOTONIC, shared with the child on Linux
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    outcome = json.loads(result.read_text(encoding="utf-8"))
    outcome["setup_s"] = outcome.pop("setup_done") - started
    return outcome


def warm_up() -> None:
    """Import everything once, untimed, so no iteration pays for bytecode compilation."""
    proc = subprocess.run([sys.executable, str(WORKER), "--help"], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"cannot import the package: {proc.stderr.strip()[-2000:]}")


def git_head() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def command_seconds(iteration: dict, kind: str) -> float:
    return sum(c["seconds"] for c in iteration["commands"] if c["kind"] == kind)


def measure(workload: suite.Workload, aseed: int, trace: bool, seconds: float, workdir: Path,
            spans: Path) -> tuple[list[dict], list[dict], list[dict]]:
    """Repeat iterations while the next one is expected to end within ``seconds``.

    Returns (plain, traced, setup-only) iterations.  Without ``trace`` a
    set-up-only process precedes each plain iteration, because one set-up
    sample per iteration is too few for a short, noisy stage.  With ``trace``
    the iterations alternate plain and traced.  At least one iteration of each
    kind always runs.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        if not trace:
            setups.append(run_worker(workload.name, aseed, False, workdir, setup_only=True))
        outcome = run_worker(workload.name, aseed, tracing, workdir, spans if tracing else None)
        (traced if tracing else plain).append(outcome)
        elapsed = time.perf_counter() - start
        per_iteration = elapsed / (len(plain) + len(traced))
        if (not trace or traced) and elapsed + per_iteration > seconds:
            return plain, traced, setups


def gate(iterations: list[dict], reference: dict, aseed: int) -> tuple[int, list[str]]:
    """(commands attempted, reasons for each failed command) over all iterations."""
    attempted = 0
    problems = []
    for iteration in iterations:
        for c in iteration["commands"]:
            attempted += 1
            problem = suite.check(c["kind"], c["code"], c["observed"], reference, c["instance"], aseed,
                                  c.get("stderr", ""))
            if problem is not None:
                problems.append(problem)
    return attempted, problems


def outputs(iteration: dict) -> list:
    return [(c["kind"], c["instance"], c["code"], c["observed"]) for c in iteration["commands"]]


def end_to_end(plain: list[dict], setups: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median([i["setup_s"] for i in plain + setups]),
        "wall_s": median([i["wall_s"] for i in plain]),
        "peak_rss_mb": median([i["peak_rss_mb"] for i in plain]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {}
    for name, _unit, _better in suite.PER_LAYER:
        if name.startswith("cli."):
            out[name] = median([command_seconds(i, name.split(".")[1]) for i in plain])
        elif name == "trace.overhead_s":
            out[name] = median([i["wall_s"] for i in traced]) - median([i["wall_s"] for i in plain])
        else:
            out[name] = median([i["layers"][name] for i in traced])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "splitfinder" / "__init__.py").is_file():
        print(f"ERROR: no splitfinder package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[args.workload]
    aseed = suite.analysis_seed(args.seed)
    reference = suite.load_reference()
    label = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    workdir = OUT / f"work_{label}_{os.getpid()}"
    spans = OUT / f"spans_{workload.name}.json"  # one per workload: a traced run's file can be 13 MB
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up()
        plain, traced, setups = measure(workload, aseed, bool(args.trace), args.seconds, workdir, spans)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, problems = gate(plain + traced + setups, reference, aseed)
    failed = len(problems)
    if traced and any(outputs(t) != outputs(plain[0]) for t in traced):
        problems.append("traced outputs differ from untraced outputs")
    provenance = {
        **plain[0]["provenance"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_head": git_head(),
        "workload": workload.name,
        "seed": args.seed,
        "analysis_seed": aseed,
        "seconds": args.seconds,
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "setup_only_iterations": len(setups),
    }
    units = dict((name, unit) for name, unit, _ in suite.END_TO_END + suite.PER_LAYER)
    values = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    record = {
        "provenance": provenance,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": {
            "plain": [{k: i[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}
                      | {f"{kind}_s": command_seconds(i, kind) for kind in ("gen", "analyze", "run", "verify")}
                      for i in plain],
            "traced": [{"wall_s": i["wall_s"], **i["layers"]} for i in traced],
            "setup_only": [i["setup_s"] for i in setups],
        },
    }
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"FAIL {problem}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"iterations plain={len(plain)} traced={len(traced)}")
    if not args.trace:
        analyze_s = median([command_seconds(i, "analyze") for i in plain])
        run_all_s = median([command_seconds(i, "run") for i in plain])
        stage = f"analyze_s {analyze_s:.4f} s" if workload.analyze else f"run_all_s {run_all_s:.4f} s"
        print(stage)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {failed / attempted:.4g} ({failed} of {attempted} commands failed)")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
