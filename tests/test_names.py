"""Names that code reaches by name: everything in `gjcodec.__all__`, the
functions and methods that the benchmark's tracer (gjbench/tracing.py)
rebinds, and the names one gjcodec module imports from another; and no
import that nothing reads."""

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


def test_no_module_imports_a_name_it_never_uses():
    """A name a module imports is read somewhere in that module, so code
    moved between modules leaves no import behind.  `__init__.py` imports
    to re-export, and a `from __future__` import is a compiler directive."""
    package = Path(gjcodec.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                unused += [f"{path.name}: {name}" for name in (
                    a.asname or a.name.split(".")[0] for a in node.names)
                    if name not in read]
    assert unused == []


def test_every_source_file_parses_as_python_3_10():
    """The oldest Python the project supports parses every file of the
    package, the tests and the benchmark (syntax only: a newer standard
    library name still passes)."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted(path for part in ("src", "tests", "gjbench")
                   for path in (root / part).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))
