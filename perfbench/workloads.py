"""How each workload runs one item and checks its output.

A workload turns the generator's items into runnables.  `run(i)` is the
timed call and returns the output; `check(i, output)` runs outside the
timed region and returns None or the reason the output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
from typing import List, Optional

from knotgraph import bracket, cli, graphinv, vassiliev
from knotgraph.diagram import parse_diagram

from perfbench import checks
from perfbench.gen import Item

# Items above the program's default crossing cap run with this one; it
# is set in the benchmark's own environment only.
MAX_CROSSINGS = "64"
# One in this many graph items is also checked against the
# per-resolution route.
ORACLE_EVERY = 6
CHILD_TIMEOUT_S = 120


def parse_inputs(items: List[Item]) -> list:
    diagrams = []
    for it in items:
        d = parse_diagram(it.text())
        d.require_valid()
        diagrams.append(d)
    return diagrams


class Links:
    def __init__(self, items: List[Item]) -> None:
        self.items = items
        self.diagrams = parse_inputs(items)

    def run(self, i: int):
        return bracket.p_eval(self.diagrams[i])

    def check(self, i: int, out) -> Optional[str]:
        return checks.check_link(self.items[i], out, self.diagrams[i])

    def close(self) -> None:
        pass


class Graphs:
    def __init__(self, items: List[Item]) -> None:
        self.items = items
        self.diagrams = parse_inputs(items)

    def run(self, i: int):
        op, g = self.items[i].op, self.diagrams[i]
        if op == "vassiliev_p":
            return graphinv.eval_graph(g, graphinv.VASSILIEV, level="p")
        if op == "casimir_z":
            return graphinv.eval_graph(g, graphinv.CASIMIR_PLAIN, level="z")
        if op == "general_p":
            return graphinv.eval_graph(g, checks.GENERAL, level="p")
        return vassiliev.vassiliev_series(g, 8)

    def check(self, i: int, out) -> Optional[str]:
        item = self.items[i]
        bad = checks.check_graph(item, out)
        if bad is None and i % ORACLE_EVERY == 0 and item.op != "series8":
            if checks.graph_oracle(item, self.diagrams[i]) != out:
                bad = "differs from resolve_vertices(...).evaluate(...)"
        return bad

    def close(self) -> None:
        pass


class Cli:
    """Fresh ``python -m knotgraph.cli`` processes, or `cli.main(argv)`
    in-process when `inprocess` is set (the traced run)."""

    def __init__(self, items: List[Item], workdir: str, src: str,
                 inprocess: bool = False) -> None:
        self.items = items
        self.inprocess = inprocess
        self.env = child_env(src)
        self.argvs = []
        for it in items:
            path = os.path.join(workdir, it.name + ".dg")
            if "{file}" in it.argv:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(it.text())
            self.argvs.append([path if a == "{file}" else a
                               for a in it.argv])
        self.workdir = workdir

    def run(self, i: int):
        argv = self.argvs[i]
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:   # argparse rejected the argv
                    rc = exc.code if isinstance(exc.code, int) else 1
            return rc, out.getvalue(), err.getvalue()
        return run_child([sys.executable, "-m", "knotgraph.cli"] + argv,
                         self.env, self.workdir)

    def check(self, i: int, out) -> Optional[str]:
        return checks.check_cli(self.items[i], *out)

    def close(self) -> None:
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


def run_child(argv: List[str], env: dict, cwd: str):
    """(exit code, stdout, stderr) of a child process.

    subprocess.run's timeout would make Popen.wait poll with sleeps of
    up to 50 ms, which lands in the timings; a timer kills a child that
    runs too long instead, and the wait blocks."""
    with subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out, err = proc.communicate()
        finally:
            killer.cancel()
    return proc.returncode, out, err


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    env["MAX_CROSSINGS"] = MAX_CROSSINGS
    return env
