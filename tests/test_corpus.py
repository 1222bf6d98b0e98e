"""Tests for the shipped regression corpus."""

import importlib.util
import os
from pathlib import Path

import pytest

from knotgraph import catalog, corpus, graphinv
from knotgraph.bracket import bracket_naive, z_eval
from knotgraph.cli import main
from knotgraph.corpus import (DATA_DIR, CorpusError, corpus_diagrams,
                              load_manifest, report_lines, run_corpus)
from knotgraph.diagram import DiagramError, replace_kind, serialize
from knotgraph.ring import RF_ONE
from knotgraph.spinnet import SpinNetError


def test_manifest_is_well_formed():
    entries = load_manifest()
    assert len(entries) >= 40
    names = [(e.name, e.op) for e in entries]
    assert len(set(names)) == len(names)
    for e in entries:
        assert e.tag in ("known", "derived", "trivial")
        assert e.anchor.strip(), e.name
        if e.file != "-":
            assert os.path.exists(os.path.join(DATA_DIR, e.file)), e.file


def test_all_corpus_entries_pass():
    results = run_corpus()
    failing = [r for r in results if not r.passed]
    assert failing == [], report_lines(failing)


def test_report_lines_format():
    results = run_corpus()
    lines = report_lines(results)
    assert lines[-1] == "%d/%d corpus entries passed" % (len(results),
                                                         len(results))
    assert all(line.startswith("PASS ") for line in lines[:-1])


def test_diagram_files_parse_and_validate():
    diagrams = corpus_diagrams()
    assert len(diagrams) >= 20
    for name, d in diagrams.items():
        assert d.validate() == [], name


def test_engines_agree_on_all_corpus_diagrams():
    # cross-check the dynamic-programming evaluator against the naive
    # state-sum enumeration, resolving any vertices both ways
    for name, d in corpus_diagrams().items():
        if len(d.crossings()) + len(d.vertices()) > 8:
            continue
        for kind in ("XPos", "XNeg"):
            g = d
            for v in d.vertices():
                g = replace_kind(g, v, kind)
            assert z_eval(g) == bracket_naive(g), (name, kind)


def test_missing_corpus_dir_is_reported(tmp_path):
    with pytest.raises(CorpusError):
        load_manifest(str(tmp_path))


def test_broken_manifest_lines_are_reported(tmp_path):
    (tmp_path / "manifest.txt").write_text("a | b | c\n")
    with pytest.raises(CorpusError):
        load_manifest(str(tmp_path))
    (tmp_path / "manifest.txt").write_text(
        "n | f.dg | z | - | 1 | badtag | note\n")
    with pytest.raises(CorpusError):
        load_manifest(str(tmp_path))


def test_manifest_lines_end_only_at_line_feeds_and_carriage_returns(
        tmp_path):
    (tmp_path / "manifest.txt").write_bytes(
        b"a | b | c | d | e | known | g\x0cbad\n"
        b"x | x | x | x | x | known | x\nbogus\n")
    with pytest.raises(CorpusError) as exc:
        load_manifest(str(tmp_path))
    assert str(exc.value) == "manifest line 3: expected 7 fields"


@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_carriage_return_corpus_files_read(tmp_path, capsys, newline):
    for name, text in (
            ("manifest.txt", "# entries\n"
             "loop | c.dg | z | - | A^2 + A^-2 | trivial | loop value\n"
             "ring | t.td | tensor | - | -2 | known | epsilon pair\n"),
            ("c.dg", "diagram c\nloop 2\n"),
            ("t.td", "# pair\nepsU a b\n\nepsL a b\n")):
        (tmp_path / name).write_bytes(text.replace("\n", newline).encode())
    assert main(["corpus", "--dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "PASS loop/z -> A^2 + A^-2\nPASS ring/tensor -> -2\n"
        "2/2 corpus entries passed\n")


_BAD_ARGS = {
    "order-abc": "vassiliev_valuation | order=abc",
    "order-negative": "vassiliev_valuation | order=-1",
    "order-plus": "vassiliev_valuation | order=+4",
    "order-underscore": "vassiliev_valuation | order=1_0",
    "order-arabic-indic": "vassiliev_valuation | order=\u0664",
    "n-plus": "projector | n=+2",
    "steps-underscore": "graph_moves | steps=1_0",
    "steps-x": "graph_moves | steps=x",
    "steps-too-long": "graph_moves | steps=" + "9" * 5000,
    "steps-above-limit": "graph_moves | steps=101",
    "perm-no-n": "perm | kind=skew",
    "perm-no-kind": "perm | n=2",
    "perm-bad-kind": "perm | kind=odd,n=2",
    "projector-no-n": "projector | -",
    "projector-bad-n": "projector | n=three",
    "four-term-no-files": "four_term | -",
    "six-valent-two-files": "six_valent | c.dg c.dg",
}


@pytest.mark.parametrize("op_args", _BAD_ARGS.values(), ids=_BAD_ARGS.keys())
def test_malformed_entry_args_are_corpus_errors(tmp_path, capsys, op_args):
    (tmp_path / "manifest.txt").write_text(
        "e | c.dg | %s | 0 | known | note\n" % op_args)
    (tmp_path / "c.dg").write_text("diagram c\nloop 2\n")
    with pytest.raises(CorpusError):
        run_corpus(str(tmp_path))
    assert main(["corpus", "--dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1


_ERRORS = {    # id -> (manifest line, error class, message)
    "manifest-fields": ("e | c.dg | z\n", CorpusError,
                        "manifest line 1: expected 7 fields"),
    "strand-bound": ("e | - | perm | n=6,kind=sym | 0 | known | note\n",
                     SpinNetError, "strand count 6 out of range 1..5"),
    "spinor-marked-vertex": ("e | c.dg | spinor | - | 0 | known | note\n",
                             CorpusError, "spinor wants a plain vertex"),
    "unknown-op": ("e | c.dg | no_such_op | - | 0 | known | note\n",
                   CorpusError, "unknown corpus op 'no_such_op'"),
}


@pytest.mark.parametrize("line, cls, message", _ERRORS.values(),
                         ids=_ERRORS.keys())
def test_entry_errors_are_diagram_errors_with_their_message(
        tmp_path, capsys, line, cls, message):
    (tmp_path / "manifest.txt").write_text(line)
    (tmp_path / "c.dg").write_text(
        serialize(catalog.named_diagram("G_b_cvert"), "c"))
    with pytest.raises(cls) as exc:
        run_corpus(str(tmp_path))
    assert isinstance(exc.value, DiagramError) and str(exc.value) == message
    assert main(["corpus", "--dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: %s\n" % message


def test_a_nonzero_spinor_residual_fails_its_entry(monkeypatch):
    """Negative control: a nonzero residual at a graph's last plain vertex
    makes its spinor entry read nonzero and fail."""
    real = graphinv.check_spinor

    def stand_in(g, vertex):
        rep = real(g, vertex)
        if vertex == g.plain_vertices()[-1]:
            rep["residual"] = RF_ONE
        return rep

    monkeypatch.setattr(graphinv, "check_spinor", stand_in)
    results = [r for r in run_corpus() if r.entry.op == "spinor"]
    assert report_lines(results) == [
        "FAIL %s/spinor -> nonzero  (expected %s)" % pair for pair in (
            ("spinor-case1", "case=1 residual=0"),
            ("spinor-case2", "case=2 residual=0"),
            ("spinor-2vert-petal", "case=1,1 residual=0"),
            ("spinor-2vert-loops", "case=2,2 residual=0"),
            ("spinor-flower", "case=1,1,1 residual=0"))] + [
        "0/5 corpus entries passed"]


def test_every_op_has_a_shipped_entry():
    """The op table has no dead op; an op not in it is the error
    unknown-op above."""
    assert {e.op for e in load_manifest()} == set(corpus._OPS)


def test_series_order_above_200_is_an_error(tmp_path, capsys):
    (tmp_path / "manifest.txt").write_text(
        "e | c.dg | vassiliev_valuation | order=201 | 0 | known | note\n")
    (tmp_path / "c.dg").write_text("diagram c\nloop 2\n")
    assert main(["corpus", "--dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "0..200" in err
    assert len(err.splitlines()) == 1


def test_a_tensor_diagram_above_the_label_limit_is_an_error(tmp_path, capsys):
    """No longer an error: a tensor diagram of any number of labels is
    evaluated, here a ring of 13 deltas."""
    (tmp_path / "manifest.txt").write_text(
        "e | t.td | tensor | - | 2 | known | note\n")
    (tmp_path / "t.td").write_text("".join(
        "delta i%d i%d\n" % (k, (k + 1) % 13) for k in range(13)))
    assert main(["corpus", "--dir", str(tmp_path)]) == 0
    assert capsys.readouterr() == (
        "PASS e/tensor -> 2\n1/1 corpus entries passed\n", "")


def test_corpus_in_another_directory(tmp_path, capsys):
    (tmp_path / "manifest.txt").write_text(
        "loop | c.dg | z | - | A^2 + A^-2 | trivial | loop value\n")
    (tmp_path / "c.dg").write_text("diagram c\nloop 2\n")
    results = run_corpus(str(tmp_path))
    assert len(results) == 1 and results[0].passed
    assert main(["corpus", "--dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "PASS loop/z -> A^2 + A^-2\n1/1 corpus entries passed\n")


def _entry(fname, op):
    return ("e | %s | %s | - | 0 | known | note\n" % (fname, op)).encode()


# a node whose 0-2 strand has no in-port: every line parses, but the
# diagram is ill formed
_BROKEN = b"diagram b\nnode a XPos\narc a.2 -> a.1\n"

_BAD_INPUTS = {       # file name -> bytes, or None for a directory
    "dg-not-utf8": {"manifest.txt": _entry("c.dg", "z"),
                    "c.dg": b"diagram \xff\nloop 2\n"},
    "dg-directory": {"manifest.txt": _entry("x.dg", "z"), "x.dg": None},
    "dg-name-with-nul": {"manifest.txt": _entry("c\0.dg", "z")},
    "td-missing": {"manifest.txt": _entry("t.td", "tensor")},
    "td-not-utf8": {"manifest.txt": _entry("t.td", "tensor"),
                    "t.td": b"delta i \xff\n"},
    "td-malformed": {"manifest.txt": _entry("t.td", "tensor"),
                     "t.td": b"bogus i i\n"},
    "manifest-not-utf8": {"manifest.txt": _entry("c.dg", "z") + b"# \xff\n",
                          "c.dg": b"diagram c\nloop 2\n"},
    "stats-broken": {"manifest.txt": _entry("b.dg", "stats"), "b.dg": _BROKEN},
    "writhe-broken": {"manifest.txt": _entry("b.dg", "writhe"),
                      "b.dg": _BROKEN},
}


@pytest.mark.parametrize("files", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_corpus_inputs_are_one_error_line(tmp_path, capsys, files):
    for fname, data in files.items():
        if data is None:
            (tmp_path / fname).mkdir()
        else:
            (tmp_path / fname).write_bytes(data)
    assert main(["corpus", "--dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_corpus_diagrams_are_validated(tmp_path):
    (tmp_path / "manifest.txt").write_bytes(_entry("b.dg", "spinor"))
    (tmp_path / "b.dg").write_bytes(_BROKEN)
    with pytest.raises(DiagramError):
        corpus_diagrams(str(tmp_path))


def test_generator_writes_the_shipped_diagram_files():
    # the frozen inputs and the catalog they were built from must agree
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "generate_corpus.py"
    spec = importlib.util.spec_from_file_location("generate_corpus", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    shipped = {p.name: p.read_bytes() for p in Path(DATA_DIR).glob("*.dg")}
    written = {f: t.encode("utf-8") for f, t in gen.diagram_texts().items()}
    assert written == shipped
