"""Benchmark families and complexity-model fitting.

Step counts, not wall-clock times, are the measured quantity.  A family maps
an index m to one input word (deterministically, given the seed) and runs a
fixed solver on it.  The fitter then names the leading term of the step
column: each candidate shape is fitted together with the next-lower shape on
a fixed ladder, with nonnegative coefficients, and the best-fitting candidate
whose leading term carries at least ``LEADING_SHARE`` of the fitted value at
the largest input wins.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import catalog
from .contraction import build_certificate
from .errors import AutomatonFormatError, BudgetExceeded, UnknownLetter
from .solvers import StepReport, solve_bounded, solve_polynomial
from .words import DEFAULT_BALL_BUDGET


class BenchRow(NamedTuple):
    m: int
    n: int
    stages: int
    steps: int

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.m, self.n, self.stages, self.steps)


class BenchFamily:
    """One benchmark series: index m -> input word -> solver StepReport."""

    def __init__(
        self,
        name: str,
        description: str,
        default_range: range,
        runner: Callable[[int, int], StepReport],
    ):
        self.name = name
        self.description = description
        self.default_range = default_range
        self._runner = runner

    def run(self, m: int, seed: int = 0) -> StepReport:
        return self._runner(m, seed)

    def __repr__(self):
        r = self.default_range
        return f"BenchFamily({self.name!r}, m={r.start}..{r.stop - 1})"


def _basilica_runner(m: int, seed: int) -> StepReport:
    return solve_bounded(catalog.get("basilica"), _basilica_cert(), "ab" * 2**m)


@functools.cache
def _basilica_cert():
    # weak total-shrink cell (block 1, power 1): the family words always
    # reject before the no-progress hazard of that mode can bite, and the
    # small cell keeps per-stage work proportional to the tape
    return build_certificate(catalog.get("basilica"), 1, 1, "item2")


def _poly1_runner(m: int, seed: int) -> StepReport:
    A = catalog.get("poly1")
    return solve_polynomial(A, 1, "babA" * 2**m)


def _halving_runner(group: str):
    # nilpotent loads and the instance is built on the first run
    # (build_instance is memoized), so registering the family costs nothing
    def run(m: int, seed: int) -> StepReport:
        from .nilpotent import build_instance, random_trivial_word, solve_nilpotent

        inst = build_instance(group)
        rng = random.Random(f"{seed}:{group}:{m}")
        word = random_trivial_word(inst, 2**m, rng)
        return solve_nilpotent(inst, word)

    return run


FAMILIES: dict[str, BenchFamily] = {}


def _register(name, description, default_range, runner):
    FAMILIES[name] = BenchFamily(name, description, default_range, runner)


_register(
    "basilica-ab",
    "(ab)^(2^m) on the two-state torsion-free automaton, certificate-driven solver; "
    "bounded (activity degree 0): n log n",
    range(4, 15),
    _basilica_runner,
)
_register(
    "poly1-comm",
    "(b a b a^-1)^(2^m) on the linear-activity automaton, reset-rule solver; "
    "activity degree 1, so n (log n)^d with d = degree + 1 = 2: n log^2 n",
    range(3, 12),
    _poly1_runner,
)
_register(
    "z4-halving",
    "seeded trivial words of length 2^m over the rank-1 instance, halving solver",
    range(4, 14),
    _halving_runner("z4"),
)
_register(
    "heis-halving",
    "seeded trivial words of length 2^m over the Heisenberg instance, halving solver",
    range(4, 12),
    _halving_runner("heis"),
)


def get_family(name: str) -> BenchFamily:
    fam = FAMILIES.get(name)
    if fam is None:
        raise UnknownLetter(name, "bench family")
    return fam


def run_bench(
    family: Union[str, BenchFamily],
    m_range: Optional[Iterable[int]] = None,
    seed: int = 0,
) -> list[BenchRow]:
    """Run one family over the index range and collect (m, n, stages, steps).
    An index with 2**m past ``DEFAULT_BALL_BUDGET`` raises BudgetExceeded
    before any word is built."""
    if isinstance(family, str):
        family = get_family(family)
    ms = list(family.default_range if m_range is None else m_range)
    if any(m < 0 for m in ms):  # a family's word has about 2**m letters
        raise AutomatonFormatError(f"bench index m must be >= 0, got {min(ms)}")
    if any(m >= DEFAULT_BALL_BUDGET.bit_length() for m in ms):
        raise BudgetExceeded(DEFAULT_BALL_BUDGET, "bench index")
    rows = []
    for m in ms:
        rep = family.run(m, seed)
        rows.append(BenchRow(m, rep.input_length, rep.stages, rep.steps))
    return rows


# ---- complexity fitting ----

# The shapes in growth order; this order is the ladder from which each
# candidate takes its lower-order term.
MODELS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "1": np.ones_like,
    "n": lambda n: n,
    "n log n": lambda n: n * np.log2(n),
    "n log^2 n": lambda n: n * np.log2(n) ** 2,
    "n log^3 n": lambda n: n * np.log2(n) ** 3,
    "n^2": lambda n: n * n,
}

_LADDER = tuple(MODELS)

DEFAULT_MODELS = ("n", "n log n", "n log^2 n", "n^2")

# A candidate can win only if its leading term carries at least this share of
# its fitted value at the largest n; below it the fit is really the lower shape.
LEADING_SHARE = 0.1


def _lower_shape(name: str) -> Optional[str]:
    """The next-lower shape on the ladder, or None at its bottom."""
    i = _LADDER.index(name)
    return _LADDER[i - 1] if i else None


class FitResult(NamedTuple):
    """Two-term nonnegative fits of step counts, one per candidate shape.

    Each candidate f is fitted as ``a * f(n) + lower * g(n)`` with g its
    next-lower shape on the ladder.  ``residuals``, ``lower`` and ``shares``
    are keyed by candidate; ``constant`` is the winner's leading coefficient a.
    """

    residuals: dict[str, float]
    winner: str
    constant: float
    lower: dict[str, float]
    shares: dict[str, float]

    def advantage(self, model: str) -> float:
        """The given model's residual divided by the winner's.

        Below 1 for a candidate that fits more closely than the winner but was
        ruled out because its leading share is under ``LEADING_SHARE``.
        """
        best = self.residuals[self.winner]
        if best == 0:
            return math.inf if self.residuals[model] > 0 else 1.0
        return self.residuals[model] / best

    def detail_lines(self) -> list[str]:
        """Residual lines, then share lines, each sorted by candidate name."""
        lines = [f"residual {n} = {r:.6g}" for n, r in sorted(self.residuals.items())]
        for name, share in sorted(self.shares.items()):
            g = _lower_shape(name)
            tail = f", lower {g} coefficient {self.lower[name]:.4g}" if g else ""
            lines.append(f"share {name} = {share:.4g}{tail}")
        lines.append(f"rule: least residual among shares >= {LEADING_SHARE}")
        return lines

    def to_dict(self) -> dict:
        return {
            "winner": self.winner,
            "constant": self.constant,
            "residuals": dict(self.residuals),
            "lower": dict(self.lower),
            "shares": dict(self.shares),
            "min_share": LEADING_SHARE,
        }


def _extract_points(rows) -> list[tuple[int, int]]:
    pts = []
    for row in rows:  # a BenchRow is a 4-tuple (m, n, stages, steps)
        seq = tuple(row)
        if len(seq) == 4:
            pts.append((int(seq[1]), int(seq[3])))
        elif len(seq) == 2:
            pts.append((int(seq[0]), int(seq[1])))
        else:
            raise AutomatonFormatError(f"cannot read (n, steps) from row {row!r}")
    return pts


def _nonnegative_fit(columns: Sequence[np.ndarray], y: np.ndarray) -> np.ndarray:
    """Coefficients >= 0 minimising the summed squared relative error to y.

    The constrained optimum is the unconstrained least-squares solution on
    its own support, so solving every nonempty support (three for two
    columns) and keeping the best nonnegative one is exact.
    """
    X = np.column_stack(columns) / y[:, None]
    target = np.ones_like(y)
    best, best_err = None, math.inf
    for k in range(len(columns), 0, -1):
        for support in itertools.combinations(range(len(columns)), k):
            sub = np.linalg.lstsq(X[:, support], target, rcond=None)[0]
            if (sub < 0).any():
                continue
            coef = np.zeros(len(columns))
            coef[list(support)] = sub
            err = float(np.sum((X @ coef - target) ** 2))
            if err < best_err:
                best, best_err = coef, err
    return best


def fit_complexity(rows: Sequence, models: Optional[Iterable[str]] = None) -> FitResult:
    """Name the leading complexity term of the step counts.

    Each candidate shape f is fitted together with the next-lower shape g on
    the fixed ladder 1 < n < n log n < n log^2 n < n log^3 n < n^2, as
    ``a*f(n) + b*g(n)`` with ``a, b >= 0`` chosen by relative-error least
    squares; the bottom shape 1 is fitted alone.  The residual is the mean
    squared log2 error of that curve, and the leading share is
    ``a*f(n) / (a*f(n) + b*g(n))`` at the largest n.  The winner is the
    candidate with the smallest residual among those whose share is at least
    ``LEADING_SHARE`` (among all candidates if none is), so a large
    lower-order term neither hides the leading one nor lets a higher shape
    with a vanishing coefficient win.
    """
    pts = _extract_points(rows)
    if len({p[0] for p in pts}) < 2:
        raise AutomatonFormatError("need rows with at least two distinct n to fit")
    names = tuple(models) if models is not None else DEFAULT_MODELS
    if not names:
        raise AutomatonFormatError("no complexity model to fit")
    for name in names:
        if name not in MODELS:
            raise UnknownLetter(name, "complexity model")
    n = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    last = int(np.argmax(n))
    residuals, leading, lower, shares = {}, {}, {}, {}
    for name in names:
        f = MODELS[name](n)
        bad = (f <= 0) | (y <= 0)
        if bad.any():
            raise AutomatonFormatError(f"model {name} or steps nonpositive at n={int(n[bad.argmax()])}")
        g_name = _lower_shape(name)
        columns = [f] if g_name is None else [f, MODELS[g_name](n)]
        coef = _nonnegative_fit(columns, y)
        terms = coef[:, None] * np.array(columns)
        fitted = terms.sum(axis=0)
        residuals[name] = float(np.mean((np.log2(fitted) - np.log2(y)) ** 2))
        leading[name] = float(coef[0])
        lower[name] = float(coef[1]) if g_name is not None else 0.0
        shares[name] = float(terms[0, last] / fitted[last])
    eligible = [m for m in names if shares[m] >= LEADING_SHARE] or names
    winner = min(eligible, key=residuals.get)
    return FitResult(residuals, winner, leading[winner], lower, shares)


# ---- reports ----

def bench_report(
    family: Union[str, BenchFamily],
    rows: Sequence[BenchRow],
    seed: int,
    fit: Optional[FitResult] = None,
) -> dict:
    name = family if isinstance(family, str) else family.name
    return {
        "family": name,
        "seed": seed,
        "rows": [row.astuple() for row in rows],
        "fit": fit.to_dict() if fit is not None else None,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
