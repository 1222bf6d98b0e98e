"""The benchmark's own code on a few of its items: each workload's run
and check, and the tracer's patching of every traced layer.  A name the
benchmark calls that the package no longer has fails here, not only in
a benchmark run.  Reads perfbench/ and writes nothing there."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from conftest import absorbed  # noqa: E402
from knotgraph import bracket  # noqa: E402
from perfbench import checks, gen, tracing, workloads  # noqa: E402

SEED = 101


def _run_and_check(workload, indices):
    for i in indices:
        bad = workload.check(i, workload.run(i))
        assert bad is None, (workload.items[i].name, bad)


def _spliced(d):
    """How many twists of net twist 0 the pass splices out of braid
    closure d: with every crossing positive no twist of a braid has net
    twist 0, so the pass leaves one node more for each."""
    tables = {i: bracket.CROSSING_TABLES[k] for i, k in d.nodes}
    positive = dict.fromkeys(tables, bracket.CROSSING_TABLES["XPos"])
    return (len(absorbed(positive, d.arcs)[0])
            - len(absorbed(tables, d.arcs)[0]))


def test_links_items_pass_their_checks():
    """Every 7th item of at most 12 crossings, and every such item in
    which the twist pass splices a twist of net twist 0 out; those of at
    most 10 crossings are also compared with bracket_naive."""
    items = [it for it in gen.items_for("links", SEED)
             if len(it.braid.word) <= 12]
    spliced = [_spliced(d) > 0 for d in workloads.parse_inputs(items)]
    assert sum(spliced) >= 20
    assert any(len(it.braid.word) <= checks.NAIVE_MAX
               for it, cut in zip(items, spliced) if cut)
    small = [it for i, it in enumerate(items) if spliced[i] or i % 7 == 0]
    links = workloads.Links(small)
    _run_and_check(links, range(len(small)))


def test_graph_items_pass_their_checks_and_the_oracle():
    """The first 12 items of at most two vertices that the check also
    compares with resolve_vertices(...).evaluate(...)."""
    items = gen.items_for("graphs", SEED)
    picked = [i for i, it in enumerate(items)
              if it.k <= 2 and i % workloads.ORACLE_EVERY == 0][:12]
    assert any(items[i].op != "series8" for i in picked)
    _run_and_check(workloads.Graphs(items), picked)


def test_one_cli_item_per_argv_passes_in_process(tmp_path):
    """The first item of each distinct argv, so that every check name
    and the corpus run too."""
    items = gen.items_for("cli", SEED)
    first = {}
    for it in items:
        first.setdefault(tuple(it.argv), it)
    assert {argv[0] for argv in first} == {
        "eval", "jones", "graph-eval", "resolve", "vassiliev", "check",
        "corpus"}
    assert {argv[1] for argv in first if argv[0] == "check"} == {
        "spinor", "four-term", "fierz", "projector", "reidemeister"}
    workdir = tmp_path / "cli"
    workdir.mkdir()
    cli = workloads.Cli(list(first.values()), str(workdir), str(ROOT / "src"),
                        inprocess=True)
    try:
        _run_and_check(cli, range(len(first)))
    finally:
        cli.close()


def test_every_traced_layer_resolves():
    naive = bracket.bracket_naive
    with tracing.Tracer():
        assert bracket.bracket_naive is not naive
    assert bracket.bracket_naive is naive
