"""Tests for the diagram model, codec and local surgery."""

import glob
import hashlib
import os
import random

import pytest

from conftest import (disjoint_union, mirror, random_braid_link,
                      random_vertex_graph, reverse_component,
                      trace_components)
from oracles import crossing_sign, well_formed
from knotgraph import catalog, diagram
from knotgraph.graphinv import CASIMIR_PLAIN, VASSILIEV, resolve_vertices
from knotgraph.diagram import (Diagram, DiagramError, parse, parse_diagram,
                               replace_kind, serialize, splice_node,
                               vertex_ports)


def test_validate_accepts_all_catalog_diagrams():
    for name in catalog.NAMES:
        assert catalog.named_diagram(name).validate() == []


def test_validate_rejects_duplicate_port_use():
    with pytest.raises(DiagramError, match="duplicate port"):
        Diagram.make({"n": "XPos"},
                     [(("n", 2), ("n", 1)), (("n", 2), ("n", 0))])


def test_validate_rejects_broken_orientation():
    # both ports of the 0-2 strand used as heads
    with pytest.raises(DiagramError, match="orientation"):
        Diagram.make({"n": "XPos", "m": "XPos"},
                     [(("m", 2), ("n", 0)), (("m", 3), ("n", 2)),
                      (("n", 1), ("m", 0)), (("n", 3), ("m", 1))])


def test_validate_rejects_unknown_kind_and_bad_port():
    with pytest.raises(DiagramError, match="unknown kind"):
        Diagram.make({"n": "Weird"}, [])
    with pytest.raises(DiagramError, match="out of range"):
        Diagram.make({"n": "XPos"}, [(("n", 5), ("n", 0)),
                                     (("n", 2), ("n", 1)),
                                     (("n", 3), ("n", 4))])


# the 0-2 strand of a leaves at port 2 and nothing enters it at port 0
_BROKEN_TEXT = "node a XPos\narc a.2 -> a.1\n"


_ILL_FORMED = {
    "raw": lambda: Diagram((("a", "XPos"),), ((("a", 2), ("a", 1)),)),
    "make": lambda: Diagram.make({"a": "XPos"}, [(("a", 2), ("a", 1))]),
    "parse": lambda: parse_diagram(_BROKEN_TEXT),
    "replace_kind": lambda: replace_kind(catalog.named_diagram("hopf+"),
                                         "n0", "Weird"),
}


@pytest.mark.parametrize("build", _ILL_FORMED.values(),
                         ids=_ILL_FORMED.keys())
def test_every_way_of_building_checks_the_diagram(build):
    with pytest.raises(DiagramError, match="orientation|unknown kind"):
        build()


def test_require_valid_is_a_no_op():
    d = catalog.named_diagram("trefoil+")
    assert d.require_valid() is None
    assert "validate" in Diagram.__dict__


def test_component_counts():
    assert catalog.named_diagram("unknot").components() == 1
    assert catalog.named_diagram("two-circles").components() == 2
    assert catalog.named_diagram("trefoil+").components() == 1
    assert catalog.named_diagram("hopf+").components() == 2
    assert catalog.named_diagram("figure-eight").components() == 1


def test_components_count_the_traced_loops_and_the_braid_cycles():
    """components walks the strands without listing their arcs: it equals
    the number of loops trace_components lists plus the free loops, and
    for a braid closure the number of cycles of the braid's permutation."""
    rng = random.Random(61)
    for _ in range(60):
        strands = rng.randint(1, 6)
        word = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 12) if strands > 1 else 0)]
        d = catalog.braid_closure(strands, word)
        perm = list(range(strands))
        for i, _ in word:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        cycles, seen = 0, set()
        for start in range(strands):
            cycles += start not in seen
            while start not in seen:
                seen.add(start)
                start = perm[start]
        assert d.components() == cycles
        g = random_vertex_graph(rng, rng.randint(0, 3))
        for e in (d, g, Diagram.make(g.node_map(), g.arcs, 2)):
            assert e.components() == len(trace_components(e)) + e.free_loops


def test_writhe_values():
    assert catalog.named_diagram("trefoil+").writhe() == 3
    assert catalog.named_diagram("trefoil-").writhe() == -3
    assert catalog.named_diagram("figure-eight").writhe() == 0
    assert catalog.named_diagram("kink+").writhe() == 1
    assert catalog.named_diagram("kink-").writhe() == -1
    assert catalog.named_diagram("hopf+").writhe() == 2
    assert catalog.named_diagram("hopf-").writhe() == -2


def test_writhe_is_the_sum_of_the_crossing_signs():
    """writhe reads the in-port ends once; the crossing_sign oracle turns
    the strands' directions.  They agree on links, their mirrors and their
    component reversals, and on vertex graphs, where a vertex adds 0."""
    rng = random.Random(29)
    diagrams = []
    for _ in range(40):
        d = random_braid_link(rng, 12, 5)
        diagrams += [d, mirror(d)]
        diagrams += [reverse_component(d, i)
                     for i in range(len(trace_components(d)))]
    diagrams += [random_vertex_graph(rng, rng.randint(0, 3))
                 for _ in range(20)]
    diagrams += [catalog.named_diagram(name) for name in catalog.NAMES]
    assert any(d.vertices() for d in diagrams)
    for d in diagrams:
        assert d.writhe() == sum(crossing_sign(d, i) for i in d.node_ids())


def test_writhe_builds_no_port_map_per_node(monkeypatch):
    """writhe signs each crossing from one set of in-port ends; it calls
    neither strand_ports nor in_ports, which build a dict per node and
    per diagram."""
    def refuse(*args):
        raise AssertionError("writhe built a port map")
    monkeypatch.setattr(diagram, "strand_ports", refuse)
    monkeypatch.setattr(Diagram, "in_ports", refuse)
    rng = random.Random(31)
    for _ in range(10):
        d = random_braid_link(rng, 12, 5)
        assert d.writhe() == -mirror(d).writhe()
    assert catalog.named_diagram("trefoil+").writhe() == 3


def test_mirror_flips_writhe_and_is_involutive():
    for name in ("trefoil+", "figure-eight", "hopf-"):
        d = catalog.named_diagram(name)
        assert mirror(d).writhe() == -d.writhe()
        assert mirror(mirror(d)) == d


def test_serialize_parse_roundtrip():
    for name in catalog.NAMES:
        d = catalog.named_diagram(name)
        got_name, got = parse(serialize(d, name))
        assert got_name == name
        assert got == d


def test_parse_reports_bad_lines():
    with pytest.raises(DiagramError):
        parse_diagram("node a XPos\nwhat is this\n")
    with pytest.raises(DiagramError):
        parse_diagram("arc a.0 -> b.1\n")          # undefined nodes
    with pytest.raises(DiagramError):
        parse_diagram("node a Quux\n")


def test_parse_rejects_a_repeated_node():
    with pytest.raises(DiagramError, match="defined twice"):
        parse_diagram("node a XPos\nnode a Vert\n")


def test_canonical_form_ignores_node_names():
    rng = random.Random(7)
    for _ in range(10):
        d = random_braid_link(rng)
        names = d.node_ids()
        rng.shuffle(names)
        rename = {n: "q%d" % i for i, n in enumerate(names)}
        renamed = Diagram.make(
            {rename[i]: k for i, k in d.nodes},
            [((rename[a], p), (rename[b], q)) for (a, p), (b, q) in d.arcs],
            d.free_loops)
        assert renamed.same_as(d)


def test_canonical_form_separates_distinct_diagrams():
    names = ("unknot", "kink+", "kink-", "hopf+", "trefoil+", "trefoil-",
             "figure-eight", "G_a_vertex", "G_b_vertex", "G_b_cvert")
    forms = {catalog.named_diagram(n).canonical_form() for n in names}
    assert len(forms) == len(names)


def _canonical_form_cases():
    """Every catalog diagram, unions of two of them (several parts, free
    loops), and each term of the resolutions of seeded vertex graphs."""
    rng = random.Random(41)
    yield from (catalog.named_diagram(n) for n in catalog.NAMES)
    for _ in range(20):
        yield disjoint_union(*(catalog.named_diagram(n)
                               for n in rng.sample(catalog.NAMES, 2)))
    for _ in range(30):
        g = random_vertex_graph(rng, rng.randint(0, 3))
        for scheme in (VASSILIEV, CASIMIR_PLAIN):
            yield from (d for _, d in resolve_vertices(g, scheme).terms())


def test_canonical_forms_keep_their_strings():
    """canonical_form strings order FormalSum's terms and print in
    resolve, so they are frozen: one sha256 over all the cases."""
    digest = hashlib.sha256()
    for d in _canonical_form_cases():
        digest.update((d.canonical_form() + "\n").encode())
    assert digest.hexdigest() == ("925d22fb20397da8c382d57c9b1094b7"
                                  "ce0106cb301002195cb236643215d323")


def test_trefoil_presentations_differ_as_diagrams():
    # same knot, different diagrams: canonical forms must not collide
    a = catalog.named_diagram("trefoil+")
    b = catalog.named_diagram("trefoil+_alt")
    assert not a.same_as(b)


def test_replace_kind():
    d = catalog.named_diagram("hopf+")
    g = replace_kind(d, "n0", "Vert")
    assert g.node_map() == {"n0": "Vert", "n1": "XPos"}
    with pytest.raises(DiagramError):
        replace_kind(d, "zz", "Vert")


@pytest.mark.parametrize("build, message", [
    (lambda: catalog.braid_closure(3, [(1, 1), (3, -1)]),
     "braid position 3 out of range"),
    (lambda: catalog.braid_closure(2, [(0, 1)]),
     "braid position 0 out of range"),
    (lambda: catalog.named_diagram("trefoil"),
     "unknown diagram name 'trefoil'"),
    (lambda: catalog.four_term_quadruple("clasp3"),
     "unknown closure 'clasp3'"),
], ids=["braid-above", "braid-below", "name", "closure"])
def test_catalog_refuses_what_it_cannot_build(build, message):
    with pytest.raises(DiagramError) as exc:
        build()
    assert str(exc.value) == message


def test_plain_vertices_leave_out_crossings_and_marked_vertices():
    d = replace_kind(catalog.named_diagram("hopf+"), "n0", "Vert")
    assert d.plain_vertices() == ["n0"]
    assert replace_kind(d, "n0", "CVert").plain_vertices() == []
    g = replace_kind(catalog.named_diagram("gb_2vert"), "n0", "CVert")
    assert (g.plain_vertices(), g.vertices()) == (["n1"], ["n0", "n1"])


def test_splice_node_oriented_smoothing():
    # unfolding one crossing of the positive Hopf link merges the circles
    d = catalog.named_diagram("hopf+")
    p = vertex_ports(d, "n0")
    out = splice_node(d, "n0", {p["in_a"]: p["out_b"], p["in_b"]: p["out_a"]})
    assert out.validate() == []
    assert out.components() == 1


def test_splice_node_can_create_free_loops():
    d = catalog.named_diagram("kink+")
    p = vertex_ports(d, "n")
    out = splice_node(d, "n", {p["in_a"]: p["out_b"], p["in_b"]: p["out_a"]})
    assert out.nodes == ()
    assert out.components() == out.free_loops == 2


def test_splice_node_checks_port_cover():
    d = catalog.named_diagram("kink+")
    with pytest.raises(DiagramError):
        splice_node(d, "n", {0: 0})


def test_vertex_ports_roles():
    g = catalog.named_diagram("G_b_vertex")
    p = vertex_ports(g, "n0")
    assert sorted((p["in_a"], p["out_a"])) in ([0, 2],)
    assert sorted((p["in_b"], p["out_b"])) in ([1, 3],)


# every message of the text codec, pinned whole
_PARSE_ERRORS = {
    "endpoint": ("node a XPos\narc a0 -> a.1\n", "line 2: bad endpoint 'a0'"),
    "tail-first": ("node a XPos\narc a.x -> a1\n", "line 2: bad number 'x'"),
    "sign": ("node a XPos\narc a.+1 -> a.0\n", "line 2: bad number '+1'"),
    "underscore": ("node a XPos\narc a.2 -> a.1_0\n",
                   "line 2: bad number '1_0'"),
    "superscript": ("node a XPos\narc a.² -> a.0\n",
                    "line 2: bad number '²'"),
    "too-long": ("node a XPos\narc a.2 -> a.%s\n" % ("9" * 5000),
                 "line 2: number too long in '%s" % ("9" * 39)),
    "kind": ("node a Quux\n", "line 1: unknown node kind 'Quux'"),
    "twice": ("node a XPos\nnode a Vert\n", "line 2: node 'a' defined twice"),
    "cannot-parse": ("node a XPos\nwhat is this\n",
                     "line 2: cannot parse 'what is this'"),
    "loop": ("loop -1\n", "line 1: bad number '-1'"),
    "comment": ("# head\nnode a XPos # a crossing\nbogus # tail\n",
                "line 3: cannot parse 'bogus'"),
    "ill-formed": (_BROKEN_TEXT,
                   "node a strand (0, 2): orientation through node broken "
                   "(free,out); node a strand (1, 3): orientation through "
                   "node broken (in,free)"),
}


@pytest.mark.parametrize("text, message", _PARSE_ERRORS.values(),
                         ids=_PARSE_ERRORS.keys())
def test_parse_error_messages(text, message):
    with pytest.raises(DiagramError) as exc:
        parse_diagram(text)
    assert str(exc.value) == message


# (nodes, arcs, free loops, message) of ill-formed diagrams; node ids go
# through str() for the raw constructor, so ids 1 and "1" clash in both
_INVALID = {
    "duplicate-id": ([(1, "XPos"), ("1", "Vert")], [], 0,
                     "duplicate node id"),
    "kind": ([("n", "Weird")], [], 0, "node n: unknown kind Weird"),
    "unknown-node": ([], [(("b", 0), ("b", 2))], 0,
                     "arc endpoint at unknown node b; "
                     "arc endpoint at unknown node b"),
    "port-range": ([("n", "XPos")], [(("n", 5), ("n", 0)),
                                     (("n", 2), ("n", 1)),
                                     (("n", 3), ("n", 4))], 0,
                   "node n: port 4 out of range; node n: port 5 out of range"),
    "duplicate-port": ([("n", "XPos")], [(("n", 2), ("n", 1)),
                                         (("n", 2), ("n", 0))], 0,
                       "node n port 2: duplicate port use"),
    "orientation": ([("m", "XPos"), ("n", "XPos")],
                    [(("m", 2), ("n", 0)), (("m", 3), ("n", 2)),
                     (("n", 1), ("m", 0)), (("n", 3), ("m", 1))], 0,
                    "node n strand (0, 2): orientation through node broken "
                    "(in,in); node n strand (1, 3): orientation through node "
                    "broken (out,out)"),
    "negative-loops": ([], [], -1, "negative free loop count"),
    "multi-fault": ([("a", "Weird"), ("c", "Vert")],
                    [(("a", 0), ("b", 7)), (("c", -1), ("a", 2))], -3,
                    "node a: unknown kind Weird; arc endpoint at unknown "
                    "node b; node b: port 7 out of range; node c: port -1 "
                    "out of range"),
}

_BUILDERS = {
    "raw": lambda nodes, arcs, loops: Diagram(
        tuple((str(i), k) for i, k in nodes), tuple(sorted(arcs)), loops),
    "make": lambda nodes, arcs, loops: Diagram.make(dict(nodes), arcs, loops),
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
@pytest.mark.parametrize("nodes, arcs, loops, message", _INVALID.values(),
                         ids=_INVALID.keys())
def test_validate_error_messages(build, nodes, arcs, loops, message):
    with pytest.raises(DiagramError) as exc:
        build(nodes, arcs, loops)
    assert str(exc.value) == message


def test_lines_end_only_at_line_feeds_and_carriage_returns():
    """The other characters str.splitlines breaks at are whitespace inside
    a line, as in an editor, so an error names the line it is on."""
    for text, message in (
            ("node a XPos\x0cnode a XNeg\n",
             "line 1: cannot parse 'node a XPos\\x0cnode a XNeg'"),
            ("node a XPos\nnode b XPos\x85arc a.9 -> b.0\nbogus\n",
             "line 2: cannot parse 'node b XPos\\x85arc a.9 -> b.0'"),
            ("node a XPos\n# a\u2028b\x1ec\x0bd\nbogus\n",
             "line 3: cannot parse 'bogus'"),
            ("node a XPos\rbogus\r", "line 2: cannot parse 'bogus'"),
            ("node a XPos\r\n\r\nbogus\r\n", "line 3: cannot parse 'bogus'")):
        with pytest.raises(DiagramError) as exc:
            parse_diagram(text)
        assert str(exc.value) == message


def test_carriage_return_text_parses():
    for name in ("trefoil+", "G_b_vertex", "two-circles"):
        d = catalog.named_diagram(name)
        text = serialize(d, name)
        for newline in ("\r", "\r\n"):
            assert parse(text.replace("\n", newline)) == (name, d)


def _corrupted(rng: random.Random, d: Diagram):
    """d's nodes, arcs and loop count with one fault of the kinds below
    put in, which may leave the diagram well formed."""
    nodes, arcs, loops = list(d.nodes), list(d.arcs), d.free_loops
    k = rng.randrange(len(arcs))
    (a, p), (b, q) = arcs[k]
    fault = rng.choice(("drop", "duplicate", "reverse", "port 4",
                        "unknown node", "kind", "negate"))
    if fault == "drop":
        del arcs[k]
    elif fault == "duplicate":
        arcs.append(arcs[k])
    elif fault == "reverse":
        arcs[k] = ((b, q), (a, p))
    elif fault == "port 4":
        arcs[k] = rng.choice((((a, 4), (b, q)), ((a, p), (b, 4))))
    elif fault == "unknown node":
        arcs[k] = rng.choice(((("?", p), (b, q)), ((a, p), ("?", q))))
    elif fault == "kind":
        j = rng.randrange(len(nodes))
        nodes[j] = (nodes[j][0], rng.choice(diagram.KINDS + ("Weird",)))
    else:
        loops = -loops
    return fault, nodes, arcs, loops


def _raises(build, *args) -> bool:
    try:
        build(*args)
    except DiagramError:
        return True
    return False


def test_construction_agrees_with_the_well_formed_oracle():
    rng = random.Random(37)
    faults, valid = set(), []
    for trial in range(400):
        d = (random_braid_link(rng, 8, 4) if trial % 2
             else random_vertex_graph(rng, rng.randint(0, 2)))
        fault, nodes, arcs, loops = _corrupted(rng, d)
        good = well_formed(nodes, arcs, loops)
        faults.add((fault, good))
        assert _raises(Diagram, tuple(nodes), tuple(arcs), loops) != good
        assert _raises(Diagram.make, dict(nodes), arcs, loops) != good
        if good:
            valid.append(Diagram.make(dict(nodes), arcs, loops))
    assert {f for f, good in faults if not good} == {
        "drop", "duplicate", "reverse", "port 4", "unknown node", "kind",
        "negate"}
    assert {f for f, good in faults if good} >= {"kind", "negate"}
    shipped = glob.glob(os.path.join(os.path.dirname(diagram.__file__),
                                     "corpus_data", "*.dg"))
    assert shipped
    for d in valid + [diagram.read_diagram(path) for path in shipped]:
        assert parse_diagram(serialize(d)) == d == Diagram.make(
            d.node_map(), d.arcs, d.free_loops)
