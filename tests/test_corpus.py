"""Tests for the shipped regression corpus."""

import os

import pytest

from knotgraph.bracket import bracket_naive, z_eval
from knotgraph.cli import main
from knotgraph.corpus import (CorpusError, corpus_dir, corpus_diagrams,
                              load_manifest, report_lines, run_corpus)
from knotgraph.diagram import replace_kind


def test_manifest_is_well_formed():
    entries = load_manifest()
    assert len(entries) >= 40
    names = [(e.name, e.op) for e in entries]
    assert len(set(names)) == len(names)
    base = corpus_dir()
    for e in entries:
        assert e.tag in ("known", "derived", "trivial")
        assert e.anchor.strip(), e.name
        if e.file != "-":
            assert os.path.exists(os.path.join(base, e.file)), e.file


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


def test_corpus_env_override(tmp_path, monkeypatch):
    (tmp_path / "manifest.txt").write_text(
        "loop | c.dg | z | - | A^2 + A^-2 | trivial | loop value\n")
    (tmp_path / "c.dg").write_text("diagram c\nloop 2\n")
    monkeypatch.setenv("KNOTGRAPH_CORPUS", str(tmp_path))
    results = run_corpus()
    assert len(results) == 1 and results[0].passed
