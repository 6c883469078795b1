"""Workloads, metric names and the correctness gate of the splitfinder benchmark.

Each workload is one closed-loop caller: a fresh process that runs the CLI
commands below one after another, each waiting for the previous one.  The
instances are chosen so that each layer a later optimisation targets does
most of the work in one workload and almost none in another (see README.md).

The benchmark seed picks the ``analyze --seed`` value (edge sampling) from
``ANALYSIS_SEEDS`` reference seeds, so every input has a recorded reference
report digest.  ``oracle-sweep`` runs no sampling, so its inputs do not
depend on the seed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

ANALYSIS_SEEDS = 16


@dataclass(frozen=True)
class Instance:
    key: str
    family: str
    params: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[Instance, ...]
    analyze: bool  # gen + analyze + run + verify; otherwise gen + run only


@dataclass(frozen=True)
class Command:
    kind: str  # gen | analyze | run | verify
    instance: str
    argv: tuple[str, ...]


POLYGON_40 = Instance("polygon-m40", "convex_polygon", (("m", "40"), ("balanced", "false")))
POLYGON_80 = Instance("polygon-m80", "convex_polygon", (("m", "80"), ("balanced", "false")))
DISJUNCTION_10 = Instance("disjunction-d10-m2", "disjunction", (("d", "10"), ("m", "2")))
DISJUNCTION_12 = Instance("disjunction-d12-m3", "disjunction", (("d", "12"), ("m", "3")))
CNF_6 = Instance("cnf-d6-m2-l2", "monotone_cnf", (("d", "6"), ("m", "2"), ("l", "2")))
CNF_7 = Instance("cnf-d7-m2-l2", "monotone_cnf", (("d", "7"), ("m", "2"), ("l", "2")))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coherence-game",
            "polygon m=40: the rational coherence simplex is most of analyze; all 80 edges are sampled, "
            "so no exhaustive kernel runs",
            (POLYGON_40,),
            analyze=True,
        ),
        Workload(
            "edge-exhaustive",
            "disjunction d=10 and cnf d=6: coherence short-circuits; exhaustive edge kernels and mask "
            "restriction are all of analyze, with heavily repeated kernel inputs",
            (DISJUNCTION_10, CNF_6),
            analyze=True,
        ),
        Workload(
            "edge-sampled",
            "cnf d=7: edges past the 18-member exhaustive limit, so the sampled batch kernel over "
            "random, unrepeated subsets is most of analyze",
            (CNF_7,),
            analyze=True,
        ),
        Workload(
            "oracle-sweep",
            "polygon m=80 and disjunction d=12 via gen + run --oracle all only: the GBS loop and "
            "large-instance read/validate are all of the time",
            (POLYGON_80, DISJUNCTION_12),
            analyze=False,
        ),
    )
}

# (name, unit, better).  Every workload reports every metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("analysis.coherence.self_s", "s", "lower"),
    ("analysis.coherence.total_s", "s", "lower"),
    ("analysis.matrix_game_value.self_s", "s", "lower"),
    ("analysis.matrix_game_value.game_rows", "count", "lower"),
    ("analysis.matrix_game_value.game_cols", "count", "lower"),
    ("analysis._restricted_masks.self_s", "s", "lower"),
    ("analysis._restricted_masks.calls", "count", "lower"),
    ("kernels.min_subset_split.self_s", "s", "lower"),
    ("kernels.min_subset_split.calls", "count", "lower"),
    ("kernels.min_subset_split.distinct_inputs", "count", "lower"),
    ("kernels.min_subset_split.repeat_share", "ratio", "lower"),
    ("kernels.min_subset_split.subsets", "count", "lower"),
    ("kernels.batch_min_split.self_s", "s", "lower"),
    ("kernels.batch_min_split.calls", "count", "lower"),
    ("kernels.batch_min_split.samples", "count", "lower"),
    ("analysis.edge_alpha.calls", "count", "lower"),
    ("analysis.edges_exhaustive", "count", "higher"),
    ("analysis.edges_sampled", "count", "lower"),
    ("analysis.min_k.self_s", "s", "lower"),
    ("analysis.candidate_edges.self_s", "s", "lower"),
    ("analysis.alpha_star.self_s", "s", "lower"),
    ("engine.run_gbs.self_s", "s", "lower"),
    ("engine.run_gbs.total_s", "s", "lower"),
    ("engine.run_gbs.calls", "count", "lower"),
    ("engine.gbs_queries", "count", "lower"),
    ("engine.best_split_test.self_s", "s", "lower"),
    ("engine.best_split_test.calls", "count", "lower"),
    ("engine.restrict.calls", "count", "lower"),
    ("families.generate.self_s", "s", "lower"),
    ("core.validate_instance.self_s", "s", "lower"),
    ("persistence.read_instance.self_s", "s", "lower"),
    ("persistence.instance_bytes", "bytes", "lower"),
    ("persistence.report_bytes", "bytes", "lower"),
    ("cli.gen.wall_s", "s", "lower"),
    ("cli.analyze.wall_s", "s", "lower"),
    ("cli.run.wall_s", "s", "lower"),
    ("cli.verify.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def analysis_seed(seed: int) -> int:
    return seed % ANALYSIS_SEEDS


def instance_path(workdir: Path, key: str) -> Path:
    return workdir / f"{key}.instance.json"


def report_path(workdir: Path, key: str) -> Path:
    return workdir / f"{key}.report.json"


def commands(workload: Workload, workdir: Path, aseed: int) -> list[Command]:
    """The workload's CLI calls in order: every ``gen`` first (set-up), then the rest."""
    out = []
    for inst in workload.instances:
        params = [arg for key, value in inst.params for arg in ("--param", f"{key}={value}")]
        out.append(Command("gen", inst.key, (
            "gen", "--family", inst.family, *params, "--out", str(instance_path(workdir, inst.key)))))
    for inst in workload.instances:
        source = str(instance_path(workdir, inst.key))
        report = str(report_path(workdir, inst.key))
        if workload.analyze:
            out.append(Command("analyze", inst.key, (
                "analyze", "--in", source, "--out", report, "--seed", str(aseed))))
        out.append(Command("run", inst.key, ("run", "--in", source, "--oracle", "all")))
        if workload.analyze:
            out.append(Command("verify", inst.key, ("verify", "--in", source, "--report", report)))
    return out


_GEN = re.compile(r"\bdigest=([0-9a-f]{64})\b")
_RUN = re.compile(r"\bworst_case=(\d+) average=(\d+/\d+)\b")


def observe(kind: str, stdout: str, report_sha: str | None) -> dict:
    """The parts of one command's output that the gate compares."""
    if kind == "gen":
        match = _GEN.search(stdout)
        return {"digest": match.group(1) if match else None}
    if kind == "analyze":
        return {"report_sha256": report_sha}
    if kind == "run":
        match = _RUN.search(stdout)
        return {"worst_case": int(match.group(1)), "average": match.group(2)} if match else {}
    fails = [line for line in stdout.splitlines() if line.startswith("FAIL")]
    return {"fail_lines": fails}


def expected(kind: str, reference: dict, instance: str, aseed: int) -> dict:
    ref = reference["instances"][instance]
    if kind == "gen":
        return {"digest": ref["digest"]}
    if kind == "analyze":
        return {"report_sha256": ref["reports"][aseed]}
    if kind == "run":
        return {"worst_case": ref["worst_case"], "average": ref["average"]}
    return {"fail_lines": []}


def check(kind: str, code, observed: dict, reference: dict, instance: str, aseed: int,
          stderr: str = "") -> str | None:
    """Why one command failed, or None when its exit code and outputs are right."""
    if code != 0:
        return f"{kind} {instance}: exit code {code}: {stderr.strip()}"
    want = expected(kind, reference, instance, aseed)
    if observed != want:
        return f"{kind} {instance}: observed {observed}, expected {want}"
    return None


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
