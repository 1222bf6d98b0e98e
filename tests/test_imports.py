"""The package has no runtime dependencies: every import in its modules
is package-relative or names a standard-library module."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "knotgraph"


def _imports(path):
    """(line, module name) of each absolute import in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name


def test_every_import_is_relative_or_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    bad = [(m.name, line, name) for m in modules
           for line, name in _imports(m)
           if name.split(".")[0] not in sys.stdlib_module_names]
    assert bad == []


def test_no_module_imports_dataclasses_or_inspect():
    """dataclasses imports inspect, which costs every command several
    milliseconds of its start; the value classes are plain __slots__
    classes on ring.Value instead."""
    bad = [(m.name, line, name) for m in sorted(SRC.glob("*.py"))
           for line, name in _imports(m)
           if name.split(".")[0] in ("dataclasses", "inspect")]
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
    """A Diagram checks itself when it is built (Diagram.__init__ runs
    validate), so every Diagram a module is handed is well formed.
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


def test_the_package_registers_every_module_but_cli():
    """Importing knotgraph puts each module but cli into sys.modules
    without running it.  A module left out of the registry would be
    missing from sys.modules where only knotgraph.cli was imported, and
    the benchmark's tracer, which finds every traced layer's module
    there, would fail only in a traced run."""
    code = ("import sys, types, knotgraph\n"
            "print(sorted((n, type(m) is types.ModuleType)\n"
            "             for n, m in sys.modules.items()\n"
            "             if n.startswith('knotgraph.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ,
                                              PYTHONPATH=str(SRC.parent)))
    assert done.returncode == 0, done.stderr
    files = {p.stem for p in SRC.glob("*.py")} - {"__init__", "cli"}
    assert done.stdout.strip() == str(sorted(("knotgraph." + f, False)
                                             for f in files))


def _named_at():
    """Each name that is a NAME token in src/, perfbench/, demos/ or
    scripts/, with the (file, line) of each place: a word in a string, a
    docstring or a comment is not a NAME token."""
    at = {}
    for d in ("src", "perfbench", "demos", "scripts"):
        for p in sorted((ROOT / d).rglob("*.py")):
            with p.open(encoding="utf-8") as f:
                for tok in tokenize.generate_tokens(f.readline):
                    if tok.type == tokenize.NAME:
                        at.setdefault(tok.string, set()).add((p, tok.start[0]))
    return at


def _unnamed(defs_of):
    """'module:line name' of each def or class that defs_of(module tree)
    yields, dunder hooks excepted, whose name _named_at finds nowhere but
    on its own def line.  tests/ does not count: a helper that only tests
    reach is a tool of the tests, and lives there."""
    at = _named_at()
    unnamed = []
    for m in sorted(SRC.glob("*.py")):
        for node in defs_of(ast.parse(m.read_text(encoding="utf-8"))):
            if re.fullmatch(r"__\w+__", node.name):
                continue
            if not at.get(node.name, set()) - {(m, node.lineno)}:
                unnamed.append("%s:%d %s" % (m.name, node.lineno, node.name))
    return unnamed


def test_every_top_level_def_and_class_is_named_elsewhere():
    """A top-level helper that no program path names is dead code, or
    a test's tool.  Dunder hooks (a module's __dir__) are named by the
    interpreter."""
    assert _unnamed(lambda tree: (
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)))) == []


def test_every_method_is_named_elsewhere():
    """A method of a top-level class that nothing names is dead code, by
    the same rule; dunder methods are named by the interpreter."""
    assert _unnamed(lambda tree: (
        node for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef))) == []
