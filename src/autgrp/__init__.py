"""Word-problem solvers for automaton groups and nilpotent instance groups.

``nilpotent`` and ``bench`` need numpy, so importing the package does not run
them: both are registered in ``sys.modules`` as lazy modules whose code (and
numpy) loads on the first attribute read, and their exported names are
served by the module ``__getattr__``.  ``autgrp.nilpotent.build_instance``
and ``from autgrp import build_instance`` work as for any other module.
"""

import importlib
import importlib.util
import sys

from . import catalog, errors

# The public names, by the submodule that defines them.
_EXPORTS = {
    "automata": (
        "InverseClosure",
        "MealyAutomaton",
        "Permutation",
        "Word",
        "alphabet_power",
        "apply",
        "inverse_closure",
        "invert",
        "minimize",
        "parse_automaton",
        "perm_of_word",
        "section_of_word",
        "serialize_automaton",
    ),
    "words": (
        "CayleyBall",
        "GrowthTable",
        "SectionTable",
        "are_equal",
        "canonical_key",
        "cayley_ball",
        "growth",
        "is_identity_oracle",
        "sections_closure",
        "word_length",
    ),
    "contraction": (
        "ActivityClass",
        "ContractionCertificate",
        "ItemCheck",
        "activity_count",
        "build_certificate",
        "check_item",
        "check_item_sampled",
        "classify_activity",
        "find_certificate",
        "load_certificate",
        "loopify",
        "serialize_certificate",
    ),
    "solvers": (
        "StepReport",
        "TapeWord",
        "best_certificate",
        "mx_step",
        "solve_auto",
        "solve_bounded",
        "solve_contracting",
        "solve_oracle",
        "solve_polynomial",
    ),
    "nilpotent": (
        "NilpotentInstance",
        "TableCheck",
        "build_instance",
        "coset_scan",
        "halve",
        "instance_with_letters",
        "random_trivial_word",
        "random_word",
        "solve_nilpotent",
        "verify_table_closure",
    ),
    "bench": (
        "FAMILIES",
        "BenchFamily",
        "BenchRow",
        "FitResult",
        "bench_report",
        "csv_text",
        "fit_complexity",
        "get_family",
        "lower_bound_curve",
        "report_json",
        "run_bench",
        "write_csv",
    ),
    "cli": ("cli_main",),
}
_LAZY = ("nilpotent", "bench")


def _lazy_module(name: str):
    # registered now, run on first use: code that looks the package's
    # modules up in sys.modules (perfbench's tracer does) still finds them
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name, _names in _EXPORTS.items():
    if _name in _LAZY:
        globals()[_name] = _lazy_module(_name)
    else:
        _module = importlib.import_module(f".{_name}", __name__)
        globals().update((n, getattr(_module, n)) for n in _names)
del _name, _names, _module

_LAZY_NAMES = {n: m for m in _LAZY for n in _EXPORTS[m]}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))


__all__ = [n for names in _EXPORTS.values() for n in names] + ["catalog", "errors"]
