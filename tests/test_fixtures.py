"""``scripts/make_fixtures.py`` regenerates the committed fixtures byte for byte.

The generator imports ``build_request``, ``export_records``, ``save_corpus``,
``Template`` and ``HashingEmbedder`` from ``mice``; a change there that moved
any generated file (the acceptance oracle's ``expectations.json``, the wire
and export goldens) would otherwise go unnoticed.
"""
import importlib.util
import sys
from pathlib import Path

from conftest import FIXTURES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py"
# Written by hand or by other tools, not by the generator.
NOT_GENERATED = {"combiner_pins.json", "loopback_cert.pem", "loopback_key.pem"}


def test_generator_reproduces_the_committed_fixtures(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.FIXTURES = tmp_path
    generator.main()
    written = sorted(path.name for path in tmp_path.iterdir())
    committed = sorted(path.name for path in FIXTURES.iterdir() if path.name not in NOT_GENERATED)
    assert written == committed
    assert len(written) == 15
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
