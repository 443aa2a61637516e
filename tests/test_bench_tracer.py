"""bench/tracer.py wraps package functions by rebinding names in the
modules that call them.  A name it targets that the package no longer
binds would break every traced benchmark run, so each must resolve, and
each must be put back as it was."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_targets_resolve_and_are_restored(tracer):
    targets = [(module, attr) for module, attr, _, _ in tracer._TARGETS]
    targets.append((tracer.cli, "generate_diagrams"))
    missing = [f"{m.__name__}.{attr}" for m, attr in targets if not hasattr(m, attr)]
    assert missing == []
    before = [getattr(module, attr) for module, attr in targets]
    with tracer.Recorder().installed():
        during = [getattr(module, attr) for module, attr in targets]
    after = [getattr(module, attr) for module, attr in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
