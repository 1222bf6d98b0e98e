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


KERNEL = {"_terms", "_times", "_divmod", "_exact_div", "_gcd"}


def test_private_names_stay_in_their_module():
    """A module imports another's underscore names only for ring's Laurent
    kernel, which the engine and graph evaluation share."""
    bad = []
    for m in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(m.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                bad += [(m.name, node.module, alias.name)
                        for alias in node.names
                        if alias.name.startswith("_")
                        and not (node.module == "ring"
                                 and alias.name in KERNEL)]
    assert bad == []
