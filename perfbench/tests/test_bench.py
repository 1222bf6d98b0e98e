"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -t .
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
SCRATCH = ROOT / ".bench_out"

from knotgraph import bracket, catalog                      # noqa: E402
from knotgraph.diagram import parse_diagram                  # noqa: E402
from knotgraph.ring import ONE, LaurentPoly                  # noqa: E402

from perfbench import checks, gen, run, stats, workloads     # noqa: E402
from perfbench.tracing import Tracer                         # noqa: E402


def small(items, limit=14):
    return [it for it in items if len(it.braid.word) <= limit]


def setUpModule():
    SCRATCH.mkdir(exist_ok=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_text(self):
        for wl in run.WORKLOADS:
            a = [(it.name, it.argv, it.text()) for it in gen.items_for(wl, 5)]
            b = [(it.name, it.argv, it.text()) for it in gen.items_for(wl, 5)]
            c = [(it.name, it.argv, it.text()) for it in gen.items_for(wl, 6)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

    def test_item_counts_give_a_p90(self):
        for wl in run.WORKLOADS:
            self.assertEqual(stats.tail_percentile(
                len(gen.items_for(wl, 1))), 90)

    def test_braid_text_matches_the_package_closure(self):
        word = ((1, 1), (2, -1), (1, 1), (3, -1), (2, 1))
        b = gen.Braid(4, word)
        mine = parse_diagram(b.text("x"))
        self.assertTrue(mine.same_as(catalog.braid_closure(4, word)))
        self.assertEqual(b.components(), mine.components())
        self.assertEqual(b.writhe(), mine.writhe())

    def test_graph_components_and_vertex_count(self):
        for it in small(gen.items_for("graphs", 3), 12):
            g = parse_diagram(it.text())
            self.assertEqual(it.braid.components(), g.components())
            self.assertEqual(len(g.vertices()), it.k)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.items = small(gen.items_for("links", 2), 12)
        cls.wl = workloads.Links(cls.items)

    def test_right_outputs_pass(self):
        failed = {}
        run.check_all(self.wl, [self.wl.run(i) for i in
                                range(len(self.items))], failed)
        self.assertEqual(failed, {})

    def test_wrong_result_is_a_failure(self):
        outs = [self.wl.run(i) for i in range(len(self.items))]
        outs[0] = outs[0] + ONE
        outs[1] = outs[1].shift(4)
        outs[2] = ("raised", "DiagramError: boom")
        failed = {}
        run.check_all(self.wl, outs, failed)
        self.assertEqual(sorted(failed), [0, 1, 2])

    def test_torus_recurrence_matches_z_eval(self):
        for n in range(0, 7):
            d = catalog.braid_closure(2, [(1, 1)] * n)
            self.assertEqual(checks.torus_z(n), bracket.z_eval(d))

    def test_wrong_cli_output_is_a_failure(self):
        item = next(it for it in gen.items_for("cli", 1)
                    if it.argv[0] == "jones")
        self.assertIsNotNone(checks.check_cli(item, 0, "3*A^2\n", ""))
        self.assertIsNotNone(checks.check_cli(item, 1, "", "error: x\n"))
        corpus = next(it for it in gen.items_for("cli", 1)
                      if it.argv[0] == "corpus")
        self.assertIsNotNone(checks.check_cli(
            corpus, 0, "50/51 corpus entries passed\n", ""))

    def test_rendered_values_at_one(self):
        p = LaurentPoly.from_dict({3: -1, -2: 2, 0: 5})
        self.assertEqual(checks.rendered_at_one(p.render()), 6)
        self.assertEqual(checks.rendered_at_one("(A^2 + 1)/(2*A + -1)"), 2)


class PercentileTest(unittest.TestCase):
    def test_rule(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(99), 50)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(999), 90)
        self.assertEqual(stats.tail_percentile(1000), 99)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(stats.nearest_rank(values, 90), 90)
        self.assertEqual(stats.nearest_rank(values, 50), 50)
        self.assertEqual(sum(v > 90 for v in values), 10)


class TraceTest(unittest.TestCase):
    def traced_pass(self, wl, items, inputs):
        originals = (bracket.z_eval, LaurentPoly.__mul__)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            metrics, outs, failed, passes = run.traced(
                wl, items, 0, Path(tmp) / "t.jsonl.gz", inputs,
                run.in_process_clock())
        self.assertEqual((bracket.z_eval, LaurentPoly.__mul__), originals)
        self.assertEqual(failed, {})
        self.assertEqual(passes, 1)
        self.assertEqual(metrics["bracket.bracket_naive.calls"], 0)
        return metrics

    def test_links_traced_outputs_match(self):
        items = small(gen.items_for("links", 4))
        m = self.traced_pass(workloads.Links(items), items,
                             workloads.parse_inputs)
        self.assertEqual(m["bracket.z_eval.calls"], len(items))
        self.assertEqual(m["graphinv.eval_graph.calls"], 0)
        self.assertEqual(m["diagram.parse.calls"], len(items))

    def test_graphs_traced_outputs_match(self):
        items = [it for it in small(gen.items_for("graphs", 4), 10)
                 if it.k <= 2]
        m = self.traced_pass(workloads.Graphs(items), items,
                             workloads.parse_inputs)
        self.assertGreater(m["graphinv.z_evals_per_graph"], 1)
        self.assertGreater(m["ring.rf_make.calls"], 0)

    def test_cli_traced_outputs_match(self):
        items = [it for it in gen.items_for("cli", 4)
                 if it.argv[0] in ("eval", "jones", "graph-eval", "resolve",
                                   "vassiliev")][:12]
        items.append(next(it for it in gen.items_for("cli", 4)
                          if it.argv[:2] == ("check", "fierz")))
        workdir = tempfile.mkdtemp(dir=SCRATCH)
        wl = workloads.Cli(items, workdir, str(ROOT / "src"), inprocess=True)
        try:
            m = self.traced_pass(wl, items, None)
        finally:
            wl.close()
        self.assertEqual(m["graphinv.eval_graph.calls"] > 0, True)
        self.assertGreater(m["cli.main.self_s"], 0)
        self.assertGreater(m["spinnet.checks.self_s"], 0)

    def test_tracer_records_nothing_outside_an_item(self):
        d = catalog.braid_closure(3, [(1, 1), (2, -1), (1, 1)])
        with Tracer() as t:
            bracket.p_eval(d)
            self.assertEqual(t.calls("bracket.z_eval"), 0)
            t.item = "x"
            bracket.p_eval(d)
            t.item = None
        self.assertEqual(t.calls("bracket.z_eval"), 1)
        self.assertEqual(t.spans[-1][1], "bracket.p_eval")


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "links",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
