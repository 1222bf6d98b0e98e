"""Tests for the command front end."""

import itertools
import os
import shutil
import subprocess
import sys

import pytest

from knotgraph import catalog
from knotgraph import graphinv as gi
from knotgraph import spinnet as sn
from knotgraph.bracket import LEVELS, max_crossings
from knotgraph.cli import main
from knotgraph.corpus import DATA_DIR
from knotgraph.diagram import DiagramError, serialize
from knotgraph.ring import RF_ONE


@pytest.fixture
def dg(tmp_path):
    def write(name):
        p = tmp_path / (name.replace("+", "p").replace("-", "m") + ".dg")
        p.write_text(serialize(catalog.named_diagram(name), "d"))
        return str(p)
    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_verb(dg, capsys):
    code, out, _ = run(capsys, ["eval", dg("trefoil+")])
    assert code == 0
    assert out.strip() == "A^5 + A^-3 + -1*A^-7"


def test_jones_verb(dg, capsys):
    code, out, _ = run(capsys, ["jones", dg("trefoil+")])
    assert code == 0
    assert out.strip() == "A^-4 + A^-12 + -1*A^-16"


def test_graph_eval_verb(dg, capsys):
    code, out, _ = run(capsys, ["graph-eval", dg("G_b_vertex"),
                                "--scheme", "casimir", "--level", "z"])
    assert code == 0
    assert out.strip() == "A^3 + A^-3"


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_graph_eval_takes_every_level_of_the_table(dg, capsys, level):
    value = gi.eval_graph(catalog.named_diagram("G_b_vertex"), gi.VASSILIEV,
                          level=level)
    assert run(capsys, ["graph-eval", dg("G_b_vertex"), "--level", level]) \
        == (0, value.render() + "\n", "")


def test_graph_eval_refuses_an_unknown_level_before_reading_the_file(
        tmp_path, capsys):
    code, out, err = run(capsys, ["graph-eval", str(tmp_path / "none.dg"),
                                  "--level", "P"])
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --level: invalid choice: ")
    assert len(err.splitlines()) == 1 and "none.dg" not in err


def test_graph_eval_custom_scheme(dg, capsys):
    code, out, _ = run(capsys, ["graph-eval", dg("G_b_vertex"),
                                "--scheme", "1,-1,0"])
    vas_code, vas_out, _ = run(capsys, ["graph-eval", dg("G_b_vertex"),
                                        "--scheme", "vassiliev"])
    assert code == vas_code == 0
    assert out == vas_out


def test_resolve_verb(dg, capsys):
    code, out, _ = run(capsys, ["resolve", dg("G_b_vertex")])
    assert code == 0
    assert out.startswith("terms: 2")
    assert "coefficient" in out and "node" in out


def test_resolve_refuses_a_graph_above_the_node_cap(tmp_path, capsys):
    """A chain of 30 petal vertices is above the default cap of 20
    nodes: resolve refuses it as graph-eval does, with one error line,
    instead of expanding its 3^30 resolutions."""
    path = tmp_path / "chain.dg"
    path.write_text(serialize(catalog._petal_chain(30), "chain"))
    for verb in ("graph-eval", "resolve"):
        code, out, err = run(capsys, [verb, str(path)])
        assert code == 1 and out == ""
        assert _one_error_line(err) and "MAX_CROSSINGS limit 20" in err


def test_resolve_refuses_more_resolutions_than_its_limit(tmp_path, capsys):
    """13 petal vertices are under the node cap but make 2^13 resolved
    diagrams, above the limit of 4096: resolve refuses them at once with
    one error line, while graph-eval, one contraction, gives the value."""
    path = tmp_path / "chain.dg"
    path.write_text(serialize(catalog._petal_chain(13), "chain"))
    code, out, err = run(capsys, ["resolve", str(path)])
    assert code == 1 and out == ""
    assert _one_error_line(err) and "8192 resolved diagrams" in err
    code, out, err = run(capsys, ["graph-eval", str(path)])
    assert code == 0 and out.strip() == "0" and err == ""


def test_vassiliev_verb(dg, capsys):
    code, out, _ = run(capsys, ["vassiliev", dg("gb_2vert"), "--order", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 + 0*h + 48*h^2 + 0*h^3 + 320*h^4"
    assert lines[1] == "vanishing order: 2"


def test_vassiliev_none_order(dg, capsys):
    code, out, _ = run(capsys, ["vassiliev", dg("G_a_vertex")])
    assert code == 0
    assert out.strip().splitlines()[1] == "vanishing order: none"


def test_check_spinor(dg, capsys):
    code, out, _ = run(capsys, ["check", "spinor", dg("gb_2vert")])
    assert code == 0
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_check_four_term(capsys):
    code, out, _ = run(capsys, ["check", "four-term"])
    assert code == 0
    assert out.count("PASS") == 3


def test_check_four_term_from_dir(tmp_path, capsys):
    quad = catalog.four_term_quadruple("clasp")
    for label, d in quad.items():
        (tmp_path / ("quad_%s.dg" % label)).write_text(serialize(d, label))
    code, out, _ = run(capsys, ["check", "four-term", str(tmp_path)])
    assert code == 0 and "PASS" in out


def _write_quad(path, sources="NSEW"):
    """The corpus four-term quadruple in path, its N, S, E and W files
    copied from the given labels."""
    path.mkdir()
    for label, source in zip("NSEW", sources):
        shutil.copy(os.path.join(DATA_DIR, "ft_%s.dg" % source),
                    path / ("ft_%s.dg" % label))


@pytest.mark.parametrize("decoy", [False, True], ids=["alone", "decoy"])
def test_check_four_term_reads_the_directory_name_literally(tmp_path, capsys,
                                                           decoy):
    """A directory named q[1] is read as itself, not as the pattern q[1]
    that matches q1; a decoy q1 holds a failing quadruple."""
    _write_quad(tmp_path / "q[1]")
    if decoy:
        _write_quad(tmp_path / "q1", "SNEW")
    path = str(tmp_path / "q[1]")
    assert run(capsys, ["check", "four-term", path]) == (
        0, "PASS %s residual: 0\n" % path, "")


def test_check_four_term_refuses_a_directory_without_a_label(tmp_path,
                                                            capsys):
    _write_quad(tmp_path / "q")
    os.remove(tmp_path / "q" / "ft_E.dg")
    path = str(tmp_path / "q")
    assert run(capsys, ["check", "four-term", path]) == (
        1, "", "error: directory %s needs exactly one *E.dg file\n" % path)


@pytest.mark.parametrize("target", ["file", "missing"])
def test_check_four_term_refuses_a_path_that_is_not_a_directory(
        dg, tmp_path, capsys, target):
    path = dg("ft_N") if target == "file" else str(tmp_path / "nowhere")
    assert run(capsys, ["check", "four-term", path]) == (
        1, "", "error: %s is not a directory; check four-term reads a "
        "directory of *N.dg, *S.dg, *E.dg and *W.dg files\n" % path)


def test_check_fierz_and_projector(capsys):
    assert run(capsys, ["check", "fierz"])[0] == 0
    code, out, _ = run(capsys, ["check", "projector"])
    assert code == 0
    assert out.count("PASS") == 4


def test_check_reidemeister_on_file(dg, capsys):
    code, out, _ = run(capsys, ["check", "reidemeister", dg("trefoil+")])
    assert code == 0 and "PASS" in out


_SCOPES = {"reidemeister": "check reidemeister walks diagrams of at most 6 "
                           "crossings and no marked vertex",
           "spinor": "check spinor checks plain vertices only"}


@pytest.mark.parametrize("what,name,why", [
    ("reidemeister", "braid8", "more than 6 crossings"),
    ("reidemeister", "G_b_cvert", "a marked vertex"),
    ("spinor", "braid8", "no plain vertex"),
    ("spinor", "G_b_cvert", "no plain vertex"),
    ("fierz", "trefoil+", "takes no file"),
    ("projector", "trefoil+", "takes no file")])
def test_check_refuses_a_file_it_does_not_check(tmp_path, capsys, what, name,
                                                why):
    d = (catalog.braid_closure(3, [(1, 1), (2, -1)] * 4) if name == "braid8"
         else catalog.named_diagram(name))
    path = tmp_path / "d.dg"
    path.write_text(serialize(d, "d"))
    code, out, err = run(capsys, ["check", what, str(path)])
    assert code == 1 and out == ""
    assert err == "error: %s\n" % (
        "%s has %s; %s" % (path, why, _SCOPES[what]) if what in _SCOPES else
        "check %s takes no file; it checks fixed identities, not a diagram"
        % what)


def test_check_four_term_fails_on_a_swapped_quadruple(tmp_path, capsys):
    """N and S of the corpus quadruple swapped: the residual is nonzero, so
    the one row is a FAIL and the check exits 1."""
    for label, source in zip("NSEW", "SNEW"):
        shutil.copy(os.path.join(DATA_DIR, "ft_%s.dg" % source),
                    tmp_path / ("ft_%s.dg" % label))
    code, out, err = run(capsys, ["check", "four-term", str(tmp_path)])
    assert (code, err) == (1, "")
    assert out == ("FAIL %s residual: 2*A^-2 + 2*A^-4 + -6*A^-6 + -8*A^-8 + "
                   "4*A^-10 + 12*A^-12 + 4*A^-14 + -8*A^-16 + -6*A^-18 + "
                   "2*A^-20 + 2*A^-22\n" % tmp_path)


def _fierz_fails():
    return {"ok": False, "failures": ["f%d" % k for k in range(1, 8)]}


def _projector_fails_at_3(n, real=sn.check_projector):
    return dict(real(n), ok=n != 3)


def _spinor_off_by_one(g, v, real=gi.check_spinor):
    rep = real(g, v)
    return dict(rep, residual=rep["residual"] + RF_ONE)


@pytest.mark.parametrize("module,name,fake,argv,rows", [
    (sn, "check_fierz", _fierz_fails, ["fierz"],
     ["FAIL fierz: f1; f2; f3; f4; f5", "PASS tensor spinor identity"]),
    (sn, "check_spinor_tensor_identity", lambda: {"ok": False}, ["fierz"],
     ["PASS fierz", "FAIL tensor spinor identity"]),
    (sn, "check_projector", _projector_fails_at_3, ["projector"],
     ["PASS projector n=1 skew_vanishes=False",
      "PASS projector n=2 skew_vanishes=False",
      "FAIL projector n=3 skew_vanishes=True",
      "PASS projector n=4 skew_vanishes=True"]),
    (gi, "check_spinor", _spinor_off_by_one, ["spinor", "gb_2vert"],
     ["FAIL {path} vertex n0 case 2 residual: 1",
      "FAIL {path} vertex n1 case 2 residual: 1"]),
    (gi, "eval_graph", lambda *a, _n=itertools.count(): next(_n),
     ["reidemeister", "trefoil+"],
     ["FAIL {path} move walk value unchanged"])],
    ids=["fierz", "tensor-identity", "projector", "spinor", "reidemeister"])
def test_check_prints_fail_rows_and_exits_1(dg, capsys, monkeypatch, module,
                                            name, fake, argv, rows):
    """With the identity behind a check made to fail, the check prints a
    FAIL row for it, keeps the other rows, and exits 1."""
    files = [dg(diagram) for diagram in argv[1:]]
    monkeypatch.setattr(module, name, fake)
    code, out, err = run(capsys, ["check", argv[0]] + files)
    assert (code, err) == (1, "")
    assert out.splitlines() == [row.format(path=files and files[0])
                                for row in rows]


def test_check_prints_its_rows_before_a_later_error(capsys, monkeypatch):
    """A check prints each row as it is computed: under a cap of 3 nodes,
    check spinor prints the rows of the corpus graphs under the cap
    before the first graph above it stops it."""
    monkeypatch.setenv("MAX_CROSSINGS", "3")
    code, out, err = run(capsys, ["check", "spinor"])
    assert code == 1
    assert out.splitlines() == [
        "PASS G_a_composite.dg vertex v0 case 1 residual: 0",
        "PASS G_a_vertex.dg vertex v0 case 1 residual: 0",
        "PASS G_b_vertex.dg vertex n0 case 2 residual: 0",
        "PASS flower3.dg vertex v0 case 1 residual: 0",
        "PASS flower3.dg vertex v1 case 1 residual: 0",
        "PASS flower3.dg vertex v2 case 1 residual: 0"]
    assert err == ("error: diagram has 7 nodes and free loops, above the "
                   "MAX_CROSSINGS limit 3\n")


def test_check_messages(capsys):
    code, out, err = run(capsys, ["check", "fierz", "x.dg"])
    assert code == 1 and out == ""
    assert err == ("error: check fierz takes no file; it checks fixed "
                   "identities, not a diagram\n")
    code, out, err = run(capsys, ["check", "bogus"])
    assert code == 1 and out == ""
    assert _one_error_line(err)
    assert err.startswith("error: argument what: invalid choice: 'bogus'")
    names = ["spinor", "four-term", "fierz", "projector", "reidemeister"]
    assert sorted(names, key=err.index) == names


@pytest.mark.parametrize("what", ["fierz", "projector"])
def test_check_refuses_a_file_without_reading_it(tmp_path, capsys, what):
    code, out, err = run(capsys, ["check", what, str(tmp_path / "no.dg")])
    assert code == 1 and out == ""
    assert _one_error_line(err) and "takes no file" in err


def test_corpus_verb_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["corpus"])
    code2, out2, _ = run(capsys, ["corpus"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "corpus entries passed" in out1
    assert "FAIL" not in out1


def test_corpus_verb_output_is_stable_across_processes():
    cmd = [sys.executable, "-c",
           "from knotgraph.cli import main; raise SystemExit(main(['corpus']))"]
    a, b = (subprocess.run(cmd, capture_output=True, text=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("0", "1"))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_missing_file_exits_nonzero(capsys):
    code, _, err = run(capsys, ["eval", "/nonexistent/file.dg"])
    assert code == 1
    assert "error:" in err


def test_bad_scheme_exits_nonzero(dg, capsys):
    code, _, err = run(capsys, ["graph-eval", dg("G_b_vertex"),
                                "--scheme", "1,2"])
    assert code == 1
    assert "error:" in err


def _one_error_line(err):
    return (len(err.splitlines()) == 1 and err.startswith("error:")
            and "Traceback" not in err)


@pytest.mark.parametrize("scheme", ["1-A,1,0", "2A,1,0", "A^x,1,0",
                                    "1/0*A,1,0", "1,,0", "1.5,1,0",
                                    "A^1000000000+1,0,0"])
def test_malformed_scheme_polynomial_is_one_error_line(dg, capsys, scheme):
    code, out, err = run(capsys, ["graph-eval", dg("G_b_vertex"),
                                  "--scheme", scheme])
    assert code == 1 and out == ""
    assert _one_error_line(err)


@pytest.mark.parametrize("argv", [
    ["eval", "LOOPS"], ["graph-eval", "FILE", "--level", "q"], ["bogus"],
    ["vassiliev", "FILE", "--order", "x"], ["eval"], [],
    ["check", "nope"], ["corpus", "--dir"], ["eval", "LONG_LOOPS"],
    ["eval", "LONG_PORT"], ["eval", "SUP_LOOPS"], ["eval", "SUP_PORT"]])
def test_bad_input_is_one_error_line(dg, tmp_path, capsys, argv):
    # a one-crossing kink: LOOPS with a free-loop count far above the cap,
    # LONG_* with more digits than int() converts, SUP_* with a digit that
    # str.isdigit() accepts but int() does not
    digits = "9" * 5000
    kinks = {"LOOPS": ("1", "loop 99999999999"),
             "LONG_LOOPS": ("1", "loop " + digits), "LONG_PORT": (digits, ""),
             "SUP_LOOPS": ("1", "loop \u00b2"), "SUP_PORT": ("\u00b2", "")}
    files = {"FILE": dg("G_b_vertex")}
    for name, (port, tail) in kinks.items():
        path = tmp_path / (name + ".dg")
        path.write_text("diagram k\nnode n0 XPos\narc n0.2 -> n0.%s\n"
                        "arc n0.3 -> n0.0\n%s\n" % (port, tail),
                        encoding="utf-8")
        files[name] = str(path)
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert code == 1 and out == ""
    assert _one_error_line(err)


@pytest.mark.parametrize("cap", ["abc", "2.5", "9" * 5000, "-3", "+5",
                                 "1_000", "\uff12\uff10", " 20 "],
                         ids=["letters", "fraction", "too-many-digits",
                              "negative", "plus-sign", "underscore",
                              "fullwidth-digits", "spaces"])
def test_malformed_crossing_cap_is_one_error_line(dg, capsys, monkeypatch,
                                                  cap):
    monkeypatch.setenv("MAX_CROSSINGS", cap)
    with pytest.raises(DiagramError, match="MAX_CROSSINGS"):
        max_crossings()
    code, out, err = run(capsys, ["eval", dg("trefoil+")])
    assert code == 1 and out == ""
    assert _one_error_line(err) and "MAX_CROSSINGS" in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_directory_as_file_is_one_error_line(tmp_path, capsys):
    code, _, err = run(capsys, ["eval", str(tmp_path)])
    assert code == 1
    assert _one_error_line(err)


def test_negative_series_order_is_rejected(dg, capsys):
    code, out, err = run(capsys, ["vassiliev", dg("gb_2vert"), "--order", "-1"])
    assert code == 1 and out == ""
    assert _one_error_line(err)
    code, out, _ = run(capsys, ["vassiliev", dg("gb_2vert"), "--order", "0"])
    assert code == 0
    assert out.splitlines()[0] == "0"


_BAD_ORDERS = {"plus": ("+4", "bad number '+4'"),
               "underscore": ("1_0", "bad number '1_0'"),
               "arabic-indic": ("\u0664", "bad number '\u0664'"),
               "space": (" 4", "bad number ' 4'"),
               "decimal": ("4.0", "bad number '4.0'"),
               "empty": ("", "bad number ''"),
               "too-long": ("9" * 5000, "number too long in '" + "9" * 39)}


@pytest.mark.parametrize("order,message", _BAD_ORDERS.values(),
                         ids=_BAD_ORDERS.keys())
def test_series_order_is_ascii_digits_only(dg, capsys, order, message):
    """int() reads the first four as 4, 10, 4 and 4; whole_number, as the
    diagram parser does, refuses every one of these, and the error line
    gives its rule, not the name of a Python function."""
    code, out, err = run(capsys, ["vassiliev", dg("gb_2vert"), "--order",
                                  order])
    assert code == 1 and out == ""
    assert err == "error: argument --order: %s\n" % message
    assert "whole_number" not in err


def test_series_order_above_200_is_rejected(dg, capsys):
    code, out, err = run(capsys, ["vassiliev", dg("gb_2vert"),
                                  "--order", "201"])
    assert code == 1 and out == ""
    assert _one_error_line(err) and "0..200" in err
    code, out, _ = run(capsys, ["vassiliev", dg("gb_2vert"),
                                "--order", "200"])
    assert code == 0
    assert out.splitlines()[0].endswith("*h^200")


def test_vertex_diagram_rejected_by_eval(dg, capsys):
    code, _, err = run(capsys, ["eval", dg("G_b_vertex")])
    assert code == 1
    assert "error:" in err
