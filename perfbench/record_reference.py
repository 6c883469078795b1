"""Record reference.json: the outputs every benchmark command must reproduce.

Runs each workload once per analysis seed (once in all for workloads that do
not analyze) through the same worker the benchmark uses and stores, per
instance, the ``gen`` digest, the ``run --oracle all`` worst case and
average, and the sha256 of the ``analyze`` report for every analysis seed.
Re-record only for a change that is meant to alter outputs, and say which
outputs change and why.

Usage (from the repository root): python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import suite


def main() -> int:
    instances: dict[str, dict] = {}
    workdir = run.OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run.warm_up()
        for workload in suite.WORKLOADS.values():
            seeds = range(suite.ANALYSIS_SEEDS) if workload.analyze else [0]
            for aseed in seeds:
                outcome = run.run_worker(workload.name, aseed, False, workdir)
                for c in outcome["commands"]:
                    if c["code"] != 0:
                        raise SystemExit(f"{workload.name} seed {aseed}: {c['kind']} {c['instance']} exited {c['code']}")
                    entry = instances.setdefault(c["instance"], {})
                    observed = c["observed"]
                    if c["kind"] == "gen":
                        entry["digest"] = observed["digest"]
                    elif c["kind"] == "run":
                        entry.update(observed)
                    elif c["kind"] == "analyze":
                        entry.setdefault("reports", []).append(observed["report_sha256"])
                    elif observed["fail_lines"]:
                        raise SystemExit(f"{workload.name} seed {aseed}: verify failed: {observed}")
                print(f"recorded {workload.name} analysis seed {aseed}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {"analysis_seeds": suite.ANALYSIS_SEEDS, "instances": dict(sorted(instances.items()))}
    suite.REFERENCE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
