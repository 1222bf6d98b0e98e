"""scripts/ab_bench.py refuses trees whose bytecode caches differ."""

import subprocess
import sys
from pathlib import Path

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
