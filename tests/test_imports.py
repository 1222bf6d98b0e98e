"""The package has no runtime dependencies: every import in its modules
is package-relative or names a standard-library module."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "knotgraph"


def _outside_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


def test_every_import_is_relative_or_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    bad = [(m.name, line, name) for m in modules
           for line, name in _outside_imports(m)]
    assert bad == []
