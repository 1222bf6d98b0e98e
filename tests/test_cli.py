"""Tests for the command front end."""

import os
import subprocess
import sys

import pytest

from knotgraph import catalog
from knotgraph.bracket import max_crossings
from knotgraph.cli import main
from knotgraph.diagram import DiagramError, serialize


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


def test_check_fierz_and_projector(capsys):
    assert run(capsys, ["check", "fierz"])[0] == 0
    code, out, _ = run(capsys, ["check", "projector"])
    assert code == 0
    assert out.count("PASS") == 4


def test_check_reidemeister_on_file(dg, capsys):
    code, out, _ = run(capsys, ["check", "reidemeister", dg("trefoil+")])
    assert code == 0 and "PASS" in out


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
    assert _one_error_line(err) and why in err


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


_BAD_ORDERS = {"plus": "+4", "underscore": "1_0", "arabic-indic": "\u0664",
               "space": " 4", "decimal": "4.0", "empty": "",
               "too-long": "9" * 5000}


@pytest.mark.parametrize("order", _BAD_ORDERS.values(), ids=_BAD_ORDERS.keys())
def test_series_order_is_ascii_digits_only(dg, capsys, order):
    """int() reads the first four as 4, 10, 4 and 4; whole_number, as the
    diagram parser does, refuses every one of these."""
    code, out, err = run(capsys, ["vassiliev", dg("gb_2vert"), "--order",
                                  order])
    assert code == 1 and out == ""
    assert _one_error_line(err) and "--order" in err


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
