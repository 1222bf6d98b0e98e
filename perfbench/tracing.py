"""Spans around the program's layers, recorded from the benchmark's side.

`Tracer.install` wraps the public functions of each layer in place: the
class attribute for methods, and every knotgraph module namespace that
bound the function by name (``graphinv``, ``corpus``, ``cli`` and
``vassiliev`` import ``z_eval``, ``p_eval`` or ``eval_graph`` directly).
`Tracer.restore` puts the originals back.

A call records nothing unless an item is active, so checks and setup
work outside `Tracer.item` stay out of the numbers.  Layer calls become
spans (name, start, end, parent, item); the hot ring calls are only
counted, aggregated under their parent span.  A span's self time is its
duration minus the time its wrapped children took.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (layer name, module, owner attribute path, hot)
#   owner "Class.method" patches a class attribute; a bare name patches a
#   module function wherever knotgraph bound it.
LAYERS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("ring.poly_mul", "ring", "LaurentPoly.__mul__", True),
    ("ring.poly_add", "ring", "LaurentPoly.__add__", True),
    ("ring.poly_add", "ring", "LaurentPoly.__sub__", True),
    ("ring.poly_pow", "ring", "LaurentPoly.__pow__", True),
    ("ring.poly_exact_div", "ring", "poly_exact_div", True),
    ("ring.rf_make", "ring", "RationalFunc.make", True),
    ("ring.series_at_exp", "ring", "series_at_exp", False),
    ("bracket.z_eval", "bracket", "z_eval", False),
    ("bracket.p_eval", "bracket", "p_eval", False),
    ("bracket.bracket_naive", "bracket", "bracket_naive", False),
    ("diagram.parse", "diagram", "parse", False),
    ("diagram.validate", "diagram", "Diagram.validate", False),
    ("diagram.writhe", "diagram", "Diagram.writhe", False),
    ("diagram.components", "diagram", "Diagram.components", False),
    ("diagram.canonical_form", "diagram", "Diagram.canonical_form", False),
    ("diagram.surgery", "diagram", "replace_kind", False),
    ("diagram.surgery", "diagram", "splice_node", False),
    ("graphinv.resolve_vertices", "graphinv", "resolve_vertices", False),
    ("graphinv.eval_graph", "graphinv", "eval_graph", False),
    ("graphinv.eval_with_casimir_marks", "graphinv",
     "eval_with_casimir_marks", False),
    ("vassiliev.vassiliev_series", "vassiliev", "vassiliev_series", False),
    ("moves.applicable_moves", "moves", "applicable_moves", False),
    ("moves.apply_move", "moves", "apply_move", False),
    ("spinnet.checks", "spinnet", "check_fierz", False),
    ("spinnet.checks", "spinnet", "check_projector", False),
    ("spinnet.checks", "spinnet", "check_spinor_tensor_identity", False),
    ("spinnet.checks", "spinnet", "eval_tensor_diagram", False),
    ("corpus.run_corpus", "corpus", "run_corpus", False),
    ("cli.main", "cli", "main", False),
)


def coeff_bits(poly) -> int:
    best = 0
    for _, c in poly.terms:
        best = max(best, abs(c.numerator).bit_length(),
                   c.denominator.bit_length())
    return best


class Tracer:
    def __init__(self) -> None:
        self.item: Optional[str] = None
        # span id, name, start, end, parent span id (0 = none), item
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        self.hot: Dict[Tuple[int, str], List[float]] = {}   # calls, self_s
        self.totals: Dict[str, List[float]] = {}            # calls, self_s
        self.max_coeff_bits = 0
        # frames of the open calls: [span id, time taken by children]
        self._stack: List[List[float]] = []
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []

    # --- recording

    def _wrap(self, name: str, fn: Callable, hot: bool) -> Callable:
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0])
        measure_bits = name == "ring.poly_mul"

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if hot:
                frame = [parent[0] if parent else 0, 0.0]
            else:
                frame = [self._next_id, 0.0]
                self._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            own = t1 - t0 - frame[1]
            totals[0] += 1
            totals[1] += own
            if hot:
                agg = self.hot.setdefault((frame[0], name), [0, 0.0])
                agg[0] += 1
                agg[1] += own
            else:
                self.spans.append((frame[0], name, t0, t1,
                                   parent[0] if parent else 0, self.item))
            if measure_bits:
                self.max_coeff_bits = max(self.max_coeff_bits,
                                          coeff_bits(result))
            if parent is not None:
                # The bit count is the tracer's own work: keep it out of
                # the parent's self time too.
                parent[1] += perf_counter() - t0
            return result

        return wrapper

    # --- patching

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == "knotgraph" or n.startswith("knotgraph.")}
        for name, modname, attr, hot in LAYERS:
            home = mods["knotgraph." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__, hot))
                else:
                    new = self._wrap(name, raw, hot)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(home, attr)
            new = self._wrap(name, orig, hot)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, new)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # --- results

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "item": item}) + "\n")
            for (parent, name), (calls, own) in sorted(self.hot.items()):
                fh.write(json.dumps({"hot": name, "parent": parent,
                                     "calls": calls, "self_s": own}) + "\n")
