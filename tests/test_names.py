"""Names that code outside the package reaches by name: everything in
`gjcodec.__all__`, and the functions and methods that the benchmark's
tracer (gjbench/tracing.py) rebinds."""

from pathlib import Path

import gjcodec


def test_every_public_name_resolves():
    assert [n for n in gjcodec.__all__ if not hasattr(gjcodec, n)] == []


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    """The tracer looks up each hooked name with getattr, so a hooked name
    that no longer exists fails its install here."""
    from gjcodec import pipelines
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "gjbench"))
    from tracing import Tracer

    original = pipelines.run_record
    tracer = Tracer()
    try:
        tracer.install()
        assert pipelines.run_record is not original
    finally:
        tracer.uninstall()
    assert pipelines.run_record is original
