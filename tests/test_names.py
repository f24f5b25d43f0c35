"""Names that code reaches by name: everything in `gjcodec.__all__`, the
functions and methods that the benchmark's tracer (gjbench/tracing.py)
rebinds, and the names one gjcodec module imports from another."""

import ast
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


def test_no_module_imports_a_private_name_of_another():
    """Each format and bound has one owning module, which makes it public
    when another module reads it; no module imports an underscore name of
    another gjcodec module."""
    package = Path(gjcodec.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith("gjcodec"))):
                private += [f"{path.name}: {node.module}.{a.name}"
                            for a in node.names if a.name.startswith("_")]
    assert private == []
