"""scripts/ab_bench.py refuses trees whose bytecode caches differ and
fewer than one pair, leaves no child or temporary directory behind when
it is terminated, shows every declared metric in each pair's line, and
gives each end-to-end metric a no-regression verdict."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"


def _tree(root, pyc):
    tree = root / ("with" if pyc else "without")
    (tree / "src" / "knotgraph" / "__pycache__").mkdir(parents=True)
    if pyc:
        (tree / "src" / "knotgraph" / "__pycache__" / "ring.pyc").write_bytes(
            b"")
    return tree


def test_refuses_trees_with_different_bytecode(tmp_path):
    base, new = _tree(tmp_path, False), _tree(tmp_path, True)
    for argv in ((base, new), (new, base)):
        done = subprocess.run(
            [sys.executable, str(SCRIPT), *map(str, argv), "--workload",
             "links", "--seed", "1", "--pairs", "1"],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and "ring.pyc" in lines[0], lines


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_refuses_fewer_than_one_pair_before_any_run(tmp_path, pairs):
    trees = []
    for name in ("base", "new"):
        tree = tmp_path / name
        (tree / "src").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "run.py").write_text(
            "import pathlib; pathlib.Path('ran').write_text('')")
        (tree / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": []}))
        trees.append(tree)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, trees), "--workload",
         "links", "--seed", "1", "--pairs", pairs],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: ")
    assert done.stderr.endswith("error: --pairs must be at least 1\n")
    assert "Traceback" not in done.stderr
    assert not any((tree / "ran").exists() for tree in trees)


# a benchmark runner that records its pid and its --out path, then sleeps
_SLEEPER = """import os, sys, time
out = sys.argv[sys.argv.index("--out") + 1]
with open(os.environ["AB_PIDFILE"] + ".tmp", "w") as f:
    f.write("%d %s" % (os.getpid(), out))
os.replace(os.environ["AB_PIDFILE"] + ".tmp", os.environ["AB_PIDFILE"])
time.sleep(60)
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_ends_the_child_and_removes_the_temporary_directory(
        tmp_path):
    trees = []
    for name in ("base", "new"):
        tree = tmp_path / name
        (tree / "src").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "run.py").write_text(_SLEEPER)
        (tree / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": []}))
        trees.append(str(tree))
    pidfile = tmp_path / "child"
    bench = subprocess.Popen(
        [sys.executable, str(SCRIPT), *trees, "--workload", "links",
         "--seed", "1", "--pairs", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=dict(os.environ, AB_PIDFILE=str(pidfile)))
    pid = None
    try:
        deadline = time.monotonic() + 30
        while not pidfile.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        text = pidfile.read_text().split(" ", 1)
        pid, out = int(text[0]), Path(text[1])
        assert out.parent.is_dir()
        bench.send_signal(signal.SIGTERM)
        assert bench.wait(timeout=30) == 128 + signal.SIGTERM
        assert not _alive(pid)
        assert not out.parent.exists()
    finally:
        bench.kill()
        bench.wait()
        if pid is not None and _alive(pid):
            os.kill(pid, signal.SIGKILL)


# a benchmark runner that reports, for each metric its tree's
# BENCHMARK.json declares, the next value of that metric in values.json
_FAKE = """import json, pathlib
values = json.loads(pathlib.Path("values.json").read_text())
spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
count = pathlib.Path("count")
k = int(count.read_text()) if count.exists() else 0
count.write_text(str(k + 1))
print(json.dumps({"metrics": {m["name"]: {"value": values[m["name"]][k]}
                              for m in spec["end_to_end"]},
                  "failed": 0, "attempted": 1}))
"""


def _fake_trees(tmp_path, metrics, values):
    """base and new trees whose runners report values[side][metric]."""
    trees = []
    for name in ("base", "new"):
        tree = tmp_path / name
        (tree / "src").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "run.py").write_text(_FAKE)
        (tree / "values.json").write_text(json.dumps(values[name]))
        (tree / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": [
                {"name": metric, "better": better, "bound": 0.15}
                for metric, better in metrics]}))
        trees.append(str(tree))
    return trees


def _ab_bench(trees, pairs):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *trees, "--workload", "links",
         "--seed", "1", "--pairs", str(pairs)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()

_STEADY = [100, 101, 99, 100]
_SPREAD = [70, 100, 130, 100]   # quartiles 77.5 and 122.5: wider than 15%


@pytest.mark.parametrize("metric, better, base, new, expect", [
    ("items_per_s", "higher", _STEADY, [98, 100, 99, 101], "ok"),
    ("items_per_s", "higher", _STEADY, [80, 81, 79, 80], "WORSE"),
    ("items_per_s", "lower", _STEADY, [120, 121, 119, 120], "WORSE"),
    ("items_per_s", "higher", _SPREAD, [100, 101, 99, 100], "unresolved"),
    ("items_per_s", "higher", _SPREAD, [140, 150, 145, 141], "ok"),
    ("items_per_s", "lower", _SPREAD, [60, 65, 62, 61], "ok"),
    ("m", "lower", _STEADY, [98, 100, 99, 101], "ok"),
], ids=["ok", "worse", "worse-lower", "unresolved", "beats-every-run",
        "beats-every-run-lower", "metric-m"])
def test_verdict_against_the_bound(tmp_path, metric, better, base, new,
                                   expect):
    trees = _fake_trees(tmp_path, [(metric, better)],
                        {"base": {metric: base}, "new": {metric: new}})
    lines = _ab_bench(trees, len(base))
    assert lines[1] == "pair 1 (base first): %s base %.4g, new %.4g" % (
        metric, base[0], new[0])
    row = next(line for line in lines if line.startswith(metric + " "))
    assert row.split()[-1] == expect
    counts = {v: int(v == expect) for v in ("ok", "WORSE", "unresolved")}
    assert lines[-1] == ("no-regression verdicts: %(ok)d ok, %(WORSE)d "
                         "WORSE, %(unresolved)d unresolved" % counts)


def test_each_pair_line_shows_every_declared_metric(tmp_path):
    trees = _fake_trees(
        tmp_path, [("items_per_s", "higher"), ("setup_s", "lower")],
        {"base": {"items_per_s": [1432, 1416], "setup_s": [0.1314, 0.125]},
         "new": {"items_per_s": [1421, 1402], "setup_s": [0.0943, 0.097]}})
    assert _ab_bench(trees, 2)[1:3] == [
        "pair 1 (base first): items_per_s base 1432, new 1421; "
        "setup_s base 0.1314, new 0.0943",
        "pair 2 (new first): items_per_s base 1416, new 1402; "
        "setup_s base 0.125, new 0.097"]
