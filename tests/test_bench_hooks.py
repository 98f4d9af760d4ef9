"""The benchmark's tracing hooks still find every callable they patch.

``bench/tracing.py`` wraps functions of ``mice.pipeline`` and friends by
name; a rename under ``src/`` would otherwise surface only in the
benchmark's own tests.
"""
import importlib
from pathlib import Path

import mice.pipeline

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_tracing_instrument_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    original = mice.pipeline.complete_many
    with tracing.instrument(tracing.Recorder()):
        assert mice.pipeline.complete_many is not original
    assert mice.pipeline.complete_many is original
