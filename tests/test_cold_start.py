"""Cold start: a fresh ``python -m knotgraph.cli`` process runs only the
modules its verb uses.  The package registers its modules lazily, so a
registered module sits in sys.modules before it runs; a module has run
once its type is the plain module type again."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import knotgraph

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "knotgraph" / "corpus_data"

# Written as sitecustomize.py into a directory put first on PYTHONPATH:
# at exit it records which knotgraph modules ran, the verb's own
# __main__ (knotgraph.cli under -m) included.
_HOOK = '''
import atexit, json, os, sys, types

def _record():
    ran = [n for n, m in sys.modules.items()
           if n.startswith("knotgraph") and type(m) is types.ModuleType]
    spec = getattr(sys.modules["__main__"], "__spec__", None)
    if spec is not None:
        ran.append(spec.name)
    path = os.path.join(os.path.dirname(__file__), "ran.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sorted(ran), fh)

atexit.register(_record)
'''

BASE = {"cli", "diagram", "ring", "bracket"}


def _run_verb(tmp_path, argv):
    """(exit code, stdout, stderr, the knotgraph modules that ran)."""
    (tmp_path / "sitecustomize.py").write_text(_HOOK, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path),
                                                       str(SRC)]))
    done = subprocess.run([sys.executable, "-W", "error", "-m",
                           "knotgraph.cli"] + argv, env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    ran = json.loads((tmp_path / "ran.json").read_text(encoding="utf-8"))
    assert "knotgraph" in ran
    modules = {n.split(".", 1)[1] for n in ran if n != "knotgraph"}
    return done.returncode, done.stdout, done.stderr, modules


@pytest.mark.parametrize("argv, out, extra", [
    (["eval", "trefoil+.dg"], "A^5 + A^-3 + -1*A^-7\n", set()),
    (["jones", "trefoil+.dg"], "A^-4 + A^-12 + -1*A^-16\n", set()),
    (["graph-eval", "gb_2vert.dg"], "A^10 + -1*A^2 + -1*A^-2 + A^-10\n",
     {"graphinv"}),
    (["check", "fierz"], "PASS fierz\nPASS tensor spinor identity\n",
     {"spinnet"}),
], ids=["eval", "jones", "graph-eval", "check-fierz"])
def test_each_verb_runs_only_its_modules(tmp_path, argv, out, extra):
    argv = [str(DATA / a) if a.endswith(".dg") else a for a in argv]
    code, stdout, stderr, ran = _run_verb(tmp_path, argv)
    assert (code, stdout, stderr) == (0, out, "")
    assert ran == BASE | extra


def test_an_unreadable_file_runs_no_extra_module(tmp_path):
    code, stdout, stderr, ran = _run_verb(tmp_path, ["eval", "missing.dg"])
    assert code == 1 and stdout == ""
    assert stderr == ("error: cannot read missing.dg: No such file or "
                      "directory\n")
    assert ran == BASE


# A fresh interpreter that imports only knotgraph.cli, as the benchmark's
# workloads do, then traces one item; prints what the tracer recorded and
# every tracer wrapper left behind after restore.
_TRACE = '''
import json, sys
import knotgraph.cli
import knotgraph
from knotgraph import graphinv
from perfbench.tracing import Tracer

tracer = Tracer()
tracer.install()
tracer.item = "one"
knotgraph.p_eval(knotgraph.parse_diagram(open(sys.argv[1]).read()))
graphinv.eval_graph(knotgraph.parse_diagram(open(sys.argv[2]).read()),
                    graphinv.VASSILIEV)
tracer.item = None
tracer.restore()

def wrappers(ns):
    for val in ns.values():
        val = getattr(val, "__func__", val)
        if getattr(val, "__qualname__", "").startswith("Tracer._wrap"):
            yield val
        elif isinstance(val, type) and val.__module__.startswith("knotgraph"):
            yield from wrappers(vars(val))

left = sum(1 for n, m in sys.modules.items() if n.startswith("knotgraph")
           for _ in wrappers(vars(m)))
print(json.dumps({"p_eval": tracer.calls("bracket.p_eval"),
                  "eval_graph": tracer.calls("graphinv.eval_graph"),
                  "left": left}))
'''


def test_the_tracer_installs_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC),
                                                       str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", _TRACE,
                           str(DATA / "trefoil+.dg"),
                           str(DATA / "gb_2vert.dg")],
                          env=env, cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"p_eval": 1, "eval_graph": 1,
                                       "left": 0}


def test_star_import_binds_exactly_the_public_names():
    ns = {}
    exec("from knotgraph import *", ns)
    assert set(ns) - {"__builtins__"} == set(knotgraph.__all__)
    assert len(set(knotgraph.__all__)) == len(knotgraph.__all__)


def test_each_public_name_is_its_home_module_object():
    mods = [importlib.import_module("knotgraph." + p.stem)
            for p in sorted((SRC / "knotgraph").glob("*.py"))
            if p.stem != "__init__"]
    for name in knotgraph.__all__:
        obj = getattr(knotgraph, name)
        homes = [m for m in mods if name in vars(m)]
        assert homes and all(vars(m)[name] is obj for m in homes), name


def test_unknown_names_raise_and_dir_lists_the_exports():
    with pytest.raises(AttributeError, match="no_such_name"):
        knotgraph.no_such_name
    assert set(knotgraph.__all__) <= set(dir(knotgraph))
