"""Word-problem solvers for automaton groups and nilpotent instance groups.

``nilpotent`` and ``bench`` need numpy, and ``cli`` is only for the command
line, so importing the package does not run them: all three are registered
in ``sys.modules`` unexecuted, with their ``__file__`` and ``__spec__``, and
with a module ``__getattr__`` that runs the module's code (and numpy, or
argparse) on the first read of any other attribute.  The package's
``__getattr__`` serves their exported names, so
``autgrp.nilpotent.build_instance`` and ``from autgrp import
build_instance`` work as for any other module.

A cold process loads only what its command runs.  The report classes are
``typing.NamedTuple`` classes, as ``typing`` loads anyway; ``fractions``
loads with the first certificate and ``json`` with the first ``--report
json``; and ``bench`` loads ``nilpotent`` only when a halving family's row
runs.
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
        "csv_text",
        "growth",
        "is_identity_oracle",
        "lower_bound_curve",
        "sections_closure",
        "word_length",
        "write_csv",
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
        "fit_complexity",
        "get_family",
        "report_json",
        "run_bench",
    ),
    "cli": ("cli_main",),
}
_LAZY = ("nilpotent", "bench", "cli")


def _lazy_module(name: str):
    # registered now, run on first use: sys.modules lookups (perfbench's
    # tracer) find it, and reading __file__ or __spec__ (inspect.getmodule
    # does, on every module) runs nothing
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)

    def __getattr__(attr: str):  # PEP 562: asked only for what the module lacks
        del module.__getattr__
        try:
            spec.loader.exec_module(module)
        except BaseException:  # run again on the next read
            module.__getattr__ = __getattr__
            raise
        return getattr(module, attr)

    module.__getattr__ = __getattr__
    sys.modules[spec.name] = module
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
