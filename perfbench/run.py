"""Benchmark of knotgraph: seeded closed-loop workloads, one item at a time.

    python3 perfbench/run.py --workload links --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare base.jsonl new.jsonl

Workloads (inputs come from perfbench/gen.py and the seed only):
  links   p_eval of T(2,n) torus links and 3-5 strand braid closures of
          10-40 crossings; the ring and the contraction do the work.
  graphs  rigid-vertex braid closures under the Vassiliev (p), plain
          Casimir (z) and (A, 2, -3A^-1) (p) schemes and
          vassiliev_series at order 8; resolution and RationalFunc work.
  cli     fresh ``python -m knotgraph.cli`` processes over a seeded mix
          of every verb; interpreter start, import and argument handling.

An untraced run (--trace 0) passes over the item set in rounds until
--seconds have gone, at least once.  Every time is scaled to a reference
machine speed by a calibration loop timed around it (see Clock).  Each
item's time is the median of its rounds; items_per_s is the item count
over the sum of those medians, and the percentiles are taken over them.
setup_s is the median over several fresh interpreters of importing
knotgraph and parsing and validating the inputs (the import alone for
cli).  Every output of the first round is checked after the clock
stops, and later rounds must repeat it.  The unscaled wall-clock values
go to the results file beside the reported ones.

A traced run (--trace 1) alternates an untraced and a traced pass (cli
in-process through cli.main) and reports per-layer calls and self time
per pass; see perfbench/tracing.py.

The last line of standard output is one JSON object; a fuller record
goes to .bench_out/results.jsonl (or --out) for the compare mode, and
the spans of a traced run to .bench_out/trace-<workload>-<seed>.jsonl.gz.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
WORKLOADS = ("links", "graphs", "cli")

END_TO_END = (("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

_TIMED = ("ring.poly_mul", "ring.poly_add", "ring.poly_pow", "bracket.z_eval",
          "ring.rf_make", "graphinv.resolve_vertices", "graphinv.eval_graph",
          "diagram.canonical_form", "diagram.surgery", "diagram.validate",
          "diagram.writhe", "diagram.components", "diagram.parse",
          "ring.series_at_exp", "vassiliev.vassiliev_series",
          "moves.applicable_moves", "moves.apply_move")
_SELF_ONLY = ("ring.poly_exact_div", "spinnet.checks", "corpus.run_corpus",
              "graphinv.eval_with_casimir_marks", "cli.main")
PER_LAYER = tuple(
    [(n + ".calls", "count") for n in _TIMED]
    + [(n + ".self_s", "s") for n in _TIMED + _SELF_ONLY]
    + [("ring.max_coeff_bits", "bits"), ("graphinv.z_evals_per_graph", "ratio"),
       ("bracket.bracket_naive.calls", "count"), ("cli.interp_s", "s"),
       ("cli.import_s", "s"), ("trace.overhead_ratio", "ratio")])


def fraction_loop() -> None:
    """Calibrates in-process work: products of two fixed Laurent
    polynomials held as dicts of small Fractions, the kind of work the
    program does, written with the stdlib only."""
    a = {e: Fraction(e % 5 - 2) for e in range(-6, 7)}
    b = {e: Fraction(1 - e % 3) for e in range(-4, 5)}
    for _ in range(2):
        out: Dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        tuple(sorted((e, c) for e, c in out.items() if c))


def bare_interpreter(env: dict) -> None:
    """``python -c pass``: calibrates fresh-process work."""
    from perfbench.workloads import run_child
    rc, _, err = run_child([sys.executable, "-c", "pass"], env, str(ROOT))
    if rc != 0:
        raise RuntimeError("bare interpreter failed: %s" % err[-500:])


class Clock:
    """Times calls and scales them to a reference machine speed.

    This machine's speed drifts by a factor of two within seconds (other
    tenants share the hardware; the process is never descheduled, so CPU
    time drifts the same way).  A calibration timed right before and
    right after each call tracks the drift: the call's wall time times
    `ref_s` over the mean of the two calibration times is what the call
    would take at the reference speed.  Neither calibration runs
    knotgraph code, so a change to the program cannot move them.  The
    Fraction loop tracks in-process work; fresh processes spend their
    time in interpreter start and imports, which a bare interpreter
    tracks far better.
    """

    def __init__(self, name: str, probe: Callable[[], None],
                 ref_s: float) -> None:
        self.name = name
        self.probe = probe
        self.ref_s = ref_s
        self.calib = [self._calibrate()]

    def _calibrate(self) -> float:
        t0 = perf_counter()
        self.probe()
        return perf_counter() - t0

    def time(self, fn, *args):
        """(result, wall seconds, scale factor to the reference speed)."""
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        self.calib.append(self._calibrate())
        return out, wall, self.ref_s * 2 / (self.calib[-2] + self.calib[-1])


def in_process_clock() -> Clock:
    return Clock("fraction_loop", fraction_loop, 0.001)


def fresh_process_clock(env: dict) -> Clock:
    return Clock("bare_interpreter",
                 functools.partial(bare_interpreter, env), 0.05)


# --- fresh-interpreter probes -------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Runs in a child: time the import plus parsing and validating the
    workload's inputs, and say which knotgraph was imported."""
    from perfbench import gen
    texts = ([] if workload == "cli"
             else [it.text() for it in gen.items_for(workload, seed)])
    t0 = perf_counter()
    import knotgraph.cli
    from knotgraph.diagram import parse_diagram
    t1 = perf_counter()
    for text in texts:
        parse_diagram(text).require_valid()
    t2 = perf_counter()
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0,
                      "file": knotgraph.__file__}))
    return 0


def run_probe(args: List[str], env: dict) -> dict:
    from perfbench.workloads import run_child
    rc, out, err = run_child([sys.executable] + args, env, str(ROOT))
    if rc != 0:
        raise RuntimeError("probe %s failed: %s" % (args, err[-500:]))
    return json.loads(out.strip().splitlines()[-1])


def probe_setup(workload: str, seed: int, env: dict, clock: Clock):
    """SETUP_SAMPLES fresh interpreters; each record gains the scale
    factor measured around it."""
    out = []
    for _ in range(SETUP_SAMPLES):
        rec, _, factor = clock.time(run_probe, [
            str(Path(__file__)), "--setup-probe", "--workload", workload,
            "--seed", str(seed)], env)
        if Path(rec["file"]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError("child imported knotgraph from %s"
                               % rec["file"])
        rec["factor"] = factor
        out.append(rec)
    return out


# --- running items ---------------------------------------------------------------


def safe_run(wl, i: int):
    try:
        return wl.run(i)
    except Exception as exc:   # an item that raises is a failed item
        return ("raised", "%s: %s" % (type(exc).__name__, exc))


def check_all(wl, outputs: list, failed: Dict[int, str]) -> None:
    for i, out in enumerate(outputs):
        if i in failed:
            continue
        if isinstance(out, tuple) and out[:1] == ("raised",):
            failed[i] = out[1]
            continue
        try:
            bad = wl.check(i, out)
        except Exception as exc:
            bad = "check raised %s: %s" % (type(exc).__name__, exc)
        if bad:
            failed[i] = bad


def measure(wl, n: int, seconds: float, clock: Clock):
    """Rounds over the items until `seconds` have gone (at least one
    full round).  Returns each item's wall and scaled times, the
    first-round outputs, items whose later output differed, and the
    number of rounds begun."""
    walls: List[List[float]] = [[] for _ in range(n)]
    scaled: List[List[float]] = [[] for _ in range(n)]
    outputs: list = [None] * n
    failed: Dict[int, str] = {}
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        for i in range(n):
            out, wall, factor = clock.time(safe_run, wl, i)
            walls[i].append(wall)
            scaled[i].append(wall * factor)
            if rounds == 0:
                outputs[i] = out
            elif out != outputs[i]:
                failed.setdefault(i, "output changed between rounds")
            if rounds and perf_counter() - start >= seconds:
                break
        rounds += 1
    return walls, scaled, outputs, failed, rounds


def end_to_end(samples, setup_s: List[float], rss_mb: float) -> dict:
    """The end-to-end values from per-item samples (seconds)."""
    from perfbench.stats import nearest_rank, tail_percentile
    per_item = [statistics.median(s) for s in samples]
    if tail_percentile(len(per_item)) != 90:
        raise RuntimeError("%d items: p90 is not the tail percentile"
                           % len(per_item))
    return {
        "items_per_s": len(per_item) / sum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1000,
        "item_p90_ms": nearest_rank(per_item, 90) * 1000,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_mb,
    }


def traced(wl, items, seconds: float, trace_path: Path, inputs,
           clock: Clock):
    """Alternate untraced and traced passes; per-layer totals per pass."""
    from perfbench.tracing import Tracer
    n = len(items)
    tracer = Tracer()
    sums = [0.0, 0.0]   # scaled time of the untraced and traced passes
    first: list = []
    failed: Dict[int, str] = {}
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        plain = []
        for i in range(n):
            out, wall, factor = clock.time(safe_run, wl, i)
            plain.append(out)
            sums[0] += wall * factor
        with tracer:
            if inputs is not None:
                tracer.item = "setup"
                inputs(items)
                tracer.item = None
            for i in range(n):
                tracer.item = items[i].name
                out, wall, factor = clock.time(safe_run, wl, i)
                tracer.item = None
                sums[1] += wall * factor
                if out != plain[i]:
                    failed.setdefault(i, "traced output differs from "
                                         "untraced")
        if not first:
            first = plain
        passes += 1
    tracer.write(str(trace_path))
    metrics = {}
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = tracer.calls(layer) / passes
        elif stat == "self_s":
            metrics[name] = tracer.self_s(layer) / passes
    evals = tracer.calls("graphinv.eval_graph")
    metrics["graphinv.z_evals_per_graph"] = (
        tracer.calls("bracket.z_eval") / evals if evals else 0.0)
    metrics["ring.max_coeff_bits"] = tracer.max_coeff_bits
    metrics["trace.overhead_ratio"] = sums[1] / sums[0]
    return metrics, first, failed, passes


# --- one run -------------------------------------------------------------------


def run(args) -> int:
    import knotgraph
    if Path(knotgraph.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError("imported knotgraph from %s" % knotgraph.__file__)
    from perfbench import gen, workloads
    os.environ["MAX_CROSSINGS"] = workloads.MAX_CROSSINGS

    env = workloads.child_env(str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    # Fill the bytecode cache once so that no timed import compiles.
    workloads.run_child([sys.executable, "-c", "import knotgraph.cli"], env,
                        str(ROOT))
    setup_clock = fresh_process_clock(env)
    setup = probe_setup(args.workload, args.seed, env, setup_clock)
    clock = (fresh_process_clock(env)
             if args.workload == "cli" and not args.trace
             else in_process_clock())
    items = gen.items_for(args.workload, args.seed)
    if args.workload == "links":
        wl = workloads.Links(items)
    elif args.workload == "graphs":
        wl = workloads.Graphs(items)
    else:
        wl = workloads.Cli(items, tempfile.mkdtemp(prefix="cli-",
                                                   dir=str(OUT_DIR)),
                           str(SRC), inprocess=bool(args.trace))
    raw = None
    try:
        if args.trace:
            trace_path = OUT_DIR / ("trace-%s-%d.jsonl.gz"
                                    % (args.workload, args.seed))
            inputs = None if args.workload == "cli" else workloads.parse_inputs
            values, outputs, failed, rounds = traced(
                wl, items, args.seconds, trace_path, inputs, clock)
            # The setup clock's calibrations are bare interpreters.
            values["cli.interp_s"] = statistics.median(setup_clock.calib)
            values["cli.import_s"] = statistics.median(
                r["import_s"] for r in setup)
            units = PER_LAYER
        else:
            walls, scaled, outputs, failed, rounds = measure(
                wl, len(items), args.seconds, clock)
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
                   else resource.RUSAGE_SELF)
            rss_mb = resource.getrusage(who).ru_maxrss / 1024
            values = end_to_end(
                scaled, [r["setup_s"] * r["factor"] for r in setup], rss_mb)
            raw = end_to_end(walls, [r["setup_s"] for r in setup], rss_mb)
            units = END_TO_END
        check_all(wl, outputs, failed)
    finally:
        wl.close()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}

    attempted = len(items)
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": rounds,
        "failed_ratio": len(failed) / attempted,
        "calib": clock.name,
        "calib_ms": statistics.median(clock.calib) * 1000,
        "calib_ref_ms": clock.ref_s * 1000,
        "wall": raw,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "failures": {items[i].name: why for i, why in sorted(failed.items())},
        "result": result,
    }
    with open(args.out or OUT_DIR / "results.jsonl", "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print("workload %s seed %d: %d items, %d rounds, failed_ratio %.4f"
          % (args.workload, args.seed, attempted, rounds,
             record["failed_ratio"]))
    for name, why in record["failures"].items():
        print("  FAILED %s: %s" % (name, why))
    print("  calib_ms %.4f (%s; reference %.4f; diagnostic)"
          % (record["calib_ms"], record["calib"], record["calib_ref_ms"]))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


# --- compare mode ----------------------------------------------------------------


def load_runs(path: str) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def compare(base_path: str, new_path: str) -> int:
    """One row per workload and end-to-end metric: each side's median
    and quartiles over its runs, and the ratio of the medians."""
    from perfbench.stats import quartiles
    base, new = load_runs(base_path), load_runs(new_path)
    for label, runs in (("base", base), ("new", new)):
        machines = {json.dumps(r["machine"], sort_keys=True)
                    for rs in runs.values() for r in rs}
        calib: Dict[str, List[float]] = {}
        for rs in runs.values():
            for r in rs:
                calib.setdefault(r["calib"], []).append(r["calib_ms"])
        print("%s: %s; calib_ms median %s" % (
            label, "; ".join(sorted(machines)),
            ", ".join("%s %.4g" % (k, statistics.median(v))
                      for k, v in sorted(calib.items()))))
    print("%-8s %-14s %5s %-32s %-32s %7s" % (
        "workload", "metric", "runs", "base median [q1, q3]",
        "new median [q1, q3]", "ratio"))
    for wl in WORKLOADS:
        if wl not in base or wl not in new:
            continue
        metrics = [name for name, _ in END_TO_END] + ["failed_ratio"]
        for name in metrics:
            cells = []
            for runs in (base[wl], new[wl]):
                vals = [r["failed_ratio"] if name == "failed_ratio"
                        else r["result"]["metrics"][name]["value"]
                        for r in runs]
                cells.append(quartiles(vals))
            (b1, bm, b3), (n1, nm, n3) = cells
            ratio = "%7.3f" % (nm / bm) if bm else "      -"
            print("%-8s %-14s %2d/%-2d %-32s %-32s %s" % (
                wl, name, len(base[wl]), len(new[wl]),
                "%.4g [%.4g, %.4g]" % (bm, b1, b3),
                "%.4g [%.4g, %.4g]" % (nm, n1, n3), ratio))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    worst = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        worst = max(worst, subprocess.call(argv))
    return worst


def parse_args(argv: Optional[List[str]]):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="results file to append to")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two results files")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.compare and not args.workload:
        p.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT))
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "knotgraph" / "__init__.py").is_file():
        print("error: no knotgraph source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
