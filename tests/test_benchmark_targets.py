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
