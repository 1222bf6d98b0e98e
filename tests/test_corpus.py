"""Tests for the shipped regression corpus."""

import importlib.util
import os
from pathlib import Path

import pytest

from knotgraph.bracket import bracket_naive, z_eval
from knotgraph.cli import main
from knotgraph.corpus import (DATA_DIR, CorpusError, corpus_diagrams,
                              load_manifest, report_lines, run_corpus)
from knotgraph.diagram import DiagramError, replace_kind


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


_BAD_ARGS = {
    "order-abc": "vassiliev_valuation | order=abc",
    "order-negative": "vassiliev_valuation | order=-1",
    "steps-x": "graph_moves | steps=x",
    "steps-too-long": "graph_moves | steps=" + "9" * 5000,
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


def test_series_order_above_200_is_an_error(tmp_path, capsys):
    (tmp_path / "manifest.txt").write_text(
        "e | c.dg | vassiliev_valuation | order=201 | 0 | known | note\n")
    (tmp_path / "c.dg").write_text("diagram c\nloop 2\n")
    assert main(["corpus", "--dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "0..200" in err
    assert len(err.splitlines()) == 1


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
