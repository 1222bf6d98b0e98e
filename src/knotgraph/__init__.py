"""Exact invariants of knot, link and rigid-vertex graph diagrams.

The package computes the bracket state sum and its writhe-corrected
form over exact Laurent polynomials, evaluates 4-valent rigid-vertex
graphs under configurable vertex resolution schemes, expands the result
as an exponential-parameter series whose truncations are finite-type
invariants, and mechanically verifies the algebraic identities relating
these constructions (skein and curl relations, vertex unfolding, the
generator-insertion identity, the four-term relation, and the matrix
identities behind them).

Importing the package runs none of its modules: every module but ``cli``
is registered lazily and runs on first use, and the public names below
resolve through ``__getattr__`` from one table of home modules.
"""

import importlib.util
import sys

# home module -> the public names it exports; every module but cli
_EXPORTS = {
    "bracket": "bracket_naive max_crossings p_eval z_eval",
    "catalog": "",
    "corpus": "CorpusEntry EntryResult corpus_diagrams load_manifest "
              "run_corpus",
    "diagram": "Diagram DiagramError parse_diagram serialize",
    "graphinv": "CASIMIR_MARKED CASIMIR_PLAIN VASSILIEV FormalSum "
                "ResolutionScheme casimir_decompose check_four_term "
                "check_spinor derive_prop31 eval_graph eval_with_casimir_marks"
                " resolve_vertices six_valent_eval vertex_to_crossing "
                "vertex_unfold",
    "moves": "MoveError MoveSpec applicable_moves apply_move",
    "ring": "LOOP LaurentPoly RationalFunc RingError Series parse_poly rf "
            "series_at_exp",
    "spinnet": "GaussianRational PermElement SpinNetError TensorDiagram "
               "antisymmetrizer check_fierz check_projector "
               "check_spinor_tensor_identity eval_tensor_diagram "
               "parse_tensor_diagram symmetrizer",
    "vassiliev": "VassilievReport vanishing_order_check vassiliev_series",
}
_HOME = {n: mod for mod, names in _EXPORTS.items() for n in names.split()}

__version__ = "0.1.0"
__all__ = list(_HOME)

for _mod in _EXPORTS:
    _spec = importlib.util.find_spec(__name__ + "." + _mod)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_mod] = \
        importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_mod])
del _mod, _spec


def __getattr__(name):
    # not cached, so that a function patched in its home module shows here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
