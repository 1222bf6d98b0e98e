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


# spinnet's tensor diagrams have a validate of their own
OWN_VALIDATE = {"spinnet.py": "td.validate()"}


def test_only_the_diagram_module_checks_diagrams():
    """A Diagram checks itself when it is built (Diagram.__post_init__
    runs validate), so every Diagram a module is handed is well formed.
    A second check elsewhere would only repeat the first, and a consumer
    that relied on its own check could forget it, so no other module
    calls require_valid or validate."""
    bad = []
    for m in sorted(SRC.glob("*.py")):
        if m.name == "diagram.py":
            continue
        text = m.read_text(encoding="utf-8")
        own = OWN_VALIDATE.get(m.name)
        calls = text.count(".validate(") - (text.count(own) if own else 0)
        if "require_valid(" in text or calls:
            bad.append(m.name)
    assert bad == []
