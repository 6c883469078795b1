"""Names the benchmark harness in ``perfbench/`` wraps or reads must stay.

The harness replaces module attributes with timing wrappers and reads a few
more for provenance, so deleting or renaming one breaks a ``--trace 1`` run.
These tests load its worker read-only and fail first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from splitfinder import cli, kernels

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def load_worker(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker prepends its own directory
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_every_wrapped_layer_resolves(monkeypatch):
    targets = load_worker(monkeypatch).targets()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _span, _hook in targets
        if not callable(getattr(module, attr, None))
    ]
    assert targets
    assert missing == []


def test_provenance_names_exist():
    assert isinstance(kernels.BACKEND, str)
    assert cli._resolve_threads(None) == 1


def test_analyze_calls_the_subset_kernel_as_the_worker_hook_unpacks_it(monkeypatch, tmp_path, capsys):
    """``masks, width = args``: positional, a list of ascending distinct ints and an int."""
    worker = load_worker(monkeypatch)
    calls = []
    kernel = kernels.min_subset_split

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(kernels, "min_subset_split", recording)
    path = str(tmp_path / "cnf.instance.json")
    assert cli.main(["gen", "--family", "monotone_cnf", "--param", "d=5", "--param", "m=2",
                     "--param", "l=2", "--out", path]) == 0
    assert cli.main(["analyze", "--in", path]) == 0
    capsys.readouterr()
    assert calls
    tracer = worker.spanlib.Tracer()
    for args, kwargs in calls:
        assert kwargs == {}
        masks, width = args
        assert type(masks) is list and all(type(mask) is int for mask in masks)
        assert masks == sorted(set(masks)) and type(width) is int
        worker._subset_kernel(tracer, args, kwargs, None)
    assert len(tracer.keys["kernels.min_subset_split"]) == len(calls)
