"""Instrumented word-problem solvers driven by contraction certificates.

Each solver simulates a staged tape machine.  A stage reads the tape of
``#``-separated segments, decides segments shorter than the block length by a
ball lookup, rejects when a segment permutes a branch of the power alphabet,
rewrites every surviving segment into one section per branch using the
certificate tables, and copies the branch tapes back as the next stage's
tape.  A word's action is its root permutation plus its sections, so the
rows that spell a segment's sections also give the branch each branch ends
on: both engines read the permutation check there.  Every symbol read or
written on any simulated tape counts as one elementary step; those counts,
not wall-clock time, are what the benchmark fitter consumes.

One driver, ``_drive``, runs the stage loop and counts every step; two
engines supply the tape and its phases (drop the short segments, rewrite
the rest), so they report identical counts.  The Python tape here holds one
list per segment; the array tape of ``vectorized`` runs each phase as numpy
passes over the whole tape.  The engine is chosen per stage: the array
engine takes tapes of at least ``_VECTOR_MIN_LETTERS`` letters for every
certificate whose table cells fit int32 and whose branch maps generate at
most 256 permutations (a table above the budget is filled with the blocks
its tapes meet), and hands the tape to the Python loop for the rest of the
solve once a stage leaves it shorter; everything else stays on the Python
tape from the start.

Every staged solver reads a ``ContractionCertificate``'s table.  The
reset-rule solver without a certificate builds its own, of block 1 and
power 1 over the automaton flattened by ``loopify``, with mode None.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .automata import MealyAutomaton, WordLike, _spell, inverse_closure
from .contraction import ContractionCertificate, _ScanContext, best_certificate, classify_activity, loopify
from .errors import (
    AutomatonFormatError,
    CertificateMismatch,
    NoIdentityState,
    NonTermination,
    StageGuardExceeded,
)
from .words import DEFAULT_ORACLE_BUDGET, _closure_walk


class StageRecord(NamedTuple):
    """One pass of a stage loop: the tape entering it (letters plus
    separators), its longest segment, the steps of each phase it ran, in
    order, and the table reads of its rewrite.

    A staged pass's phases are the short-segment check, the
    branch-permutation check (0 where the first scan holds it), the block
    rewrite and the copy-back; a halving pass's are the identity sweep, the
    coset scan, and the rewrite sweep with its writes; the oracle's one
    record has one phase, its closure walks.  A pass that ends the solve
    lists only the phases it ran.
    """

    tape: int
    max_segment: int
    phases: tuple[int, ...] = ()
    table_reads: int = 0


class StepReport(NamedTuple):
    """Outcome and cost of one solver run.

    ``stage_tape`` holds the tape length (letters plus separators) entering
    each pass of the main loop, so ``stage_tape[0]`` is the input length with
    separators and the list may end with 0 on acceptance.  ``stages`` counts
    rewrite passes actually executed, so ``stages == len(stage_tape) - 1``
    for every solver.  Every solver builds its report with ``of`` from its
    ``ledger``, one ``StageRecord`` per pass, and ``steps`` is the sum of
    the ledger's phase steps; the ledger stays out of ``to_dict``.
    """

    method: str
    verdict: bool
    input_length: int
    steps: int
    stages: int
    stage_tape: tuple[int, ...]
    stage_max_segment: tuple[int, ...]
    detail: dict
    ledger: tuple[StageRecord, ...] = ()

    @classmethod
    def of(cls, method: str, verdict: bool, input_length: int, ledger: list, detail: dict) -> StepReport:
        """The report whose counts are read off ``ledger``."""
        tapes, longest, phases, _ = zip(*ledger)
        steps = sum(map(sum, phases))
        return cls(method, verdict, input_length, steps, len(ledger) - 1, tapes, longest, detail, tuple(ledger))

    @property
    def accepted(self) -> bool:
        return self.verdict

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "verdict": "accept" if self.verdict else "reject",
            "input_length": self.input_length,
            "steps": self.steps,
            "stages": self.stages,
            "stage_tape": list(self.stage_tape),
            "stage_max_segment": list(self.stage_max_segment),
            **({"detail": self.detail} if self.detail else {}),
        }


class TapeWord:
    """Segments of state names; text form separates segments with ``#``.

    Normalization drops empty segments, so the text form never has leading,
    trailing, or doubled separators.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Sequence[Sequence[str]]):
        self.segments = tuple(tuple(seg) for seg in segments if len(seg))

    @property
    def total_letters(self) -> int:
        return sum(len(s) for s in self.segments)

    def text(self) -> str:
        return "#".join(map(_spell, self.segments))

    def __repr__(self):
        return f"TapeWord({self.text()!r})"


TapeLike = Union[str, TapeWord, Sequence]


def _parse_tape(parse, tape: TapeLike) -> list[list[int]]:
    if isinstance(tape, TapeWord):
        segs = [parse(list(seg)) for seg in tape.segments]
    elif isinstance(tape, str):
        segs = [parse(part) for part in tape.split("#")]
    else:
        segs = [parse(tape)]
    return [list(s) for s in segs if s]


def _require_cert(A: MealyAutomaton, cert: ContractionCertificate) -> None:
    if not isinstance(cert, ContractionCertificate) or cert.source != A:
        raise CertificateMismatch("certificate was built for a different automaton")


def _contracting_cap(cert: ContractionCertificate, n: int) -> int:
    ln = math.log2(max(n, 2))
    if cert.mode == "item2":
        # the weak mode has no proven per-stage shrink factor; hard cap
        return math.ceil(4 * (ln + 1) ** 2)
    return math.ceil(ln / cert.stage_bits) + 8


def mx_step(cert: ContractionCertificate, x: int, w: WordLike) -> tuple[str, ...]:
    """One branch rewrite: the table row of each full block, then the literal
    section of the short tail.  The result equals the x-section of w as a
    group element.  It adds no table reads, which count solves only."""
    seg = cert.closure.parse(w)
    try:
        x = operator.index(x)  # no truncation: 1.5 is no branch
    except TypeError:
        x = -1
    if not 0 <= x < cert.branches:
        raise AutomatonFormatError(f"branch index must be an integer in 0..{cert.branches - 1}")
    return tuple(cert.automaton.states[s] for s in cert.sections(seg, strip=False)[0][x])


@functools.lru_cache(maxsize=32)
def _literal_sections(A: MealyAutomaton) -> ContractionCertificate:
    """The reset-rule solver's table without a certificate: each letter's
    next state in the flattened automaton, on each branch, and its output
    letter.  Raises NotPolynomial when A's activity is exponential."""
    flat = loopify(A)[0]
    return ContractionCertificate(flat, _ScanContext(flat, 1, 1), None, 0)


class _Rules(NamedTuple):
    """What differs between the solvers that share the stage driver.

    ``cap`` maps the input length to the stage cap.  The rest follows from
    ``method``: every method but ``contracting`` strips identity letters
    from rewritten tails, and ``polynomial`` applies the reset rule and
    raises ``StageGuardExceeded`` past its cap where the others raise
    ``NonTermination``.
    """

    method: str
    cap: Callable[[int], int]
    detail: tuple = ()


# Below this many letters a stage is cheaper as Python lists than as a
# fixed sequence of numpy calls; the two cross near 256 letters for the
# catalog certificates.  Short words (certificate search, the CLI's
# examples) therefore never load the array engine or build a dense table,
# and a long word's stages move to the lists once its tape shrinks below.
_VECTOR_MIN_LETTERS = 256


def _long_tape(tape: TapeLike) -> bool:
    """Whether the tape has at least ``_VECTOR_MIN_LETTERS`` letters, read
    without parsing it; False for a tape without a length (an iterator, or a
    bad word).  A string's whitespace and ``#`` are no letters, which is exact
    for one-character names, and a head with enough letters decides alone."""
    if isinstance(tape, TapeWord):
        return tape.total_letters >= _VECTOR_MIN_LETTERS
    if isinstance(tape, str):
        texts = (tape[: 2 * _VECTOR_MIN_LETTERS], tape)
        return any(sum(map(len, t.split())) - t.count("#") >= _VECTOR_MIN_LETTERS for t in texts)
    try:
        return len(tape) >= _VECTOR_MIN_LETTERS
    except TypeError:
        return False


def _run_stages(rw, rules: _Rules, tape: TapeLike) -> StepReport:
    """Pick the engine: the array engine, when the rewriter has a table,
    on tapes of at least ``_VECTOR_MIN_LETTERS`` letters, until a stage
    leaves fewer, and the Python tape otherwise.  A solve that starts on
    the Python tape stays there, however long its tape grows."""
    if _long_tape(tape):
        from . import vectorized

        table = vectorized.dense_table(rw)
        if table is not None:
            letters, lens = table.parse(tape)
            if len(letters) >= _VECTOR_MIN_LETTERS:
                return _drive(rw, vectorized._ArrayTape(table, letters, lens, hand_off=True), rules)
    # the Python tape reads its own lists, also of a tape the table parsed
    return _drive(rw, _ListTape(_parse_tape(rw.closure.parse, tape)), rules)


class _ListTape:
    """The Python tape: one list of letters per segment."""

    __slots__ = ("lists", "letters", "segments")

    def __init__(self, lists: list[list[int]]):
        self.lists = lists
        self.letters = sum(map(len, lists))
        self.segments = len(lists)

    def max_segment(self) -> int:
        return max(map(len, self.lists), default=0)

    def blocks(self, L: int) -> int:
        return sum(len(seg) // L for seg in self.lists)

    def drop_short(self, rw) -> Optional[_ListTape]:
        """The segments of at least a block, or None when a shorter one is
        nontrivial by the ball walk."""
        keep = []
        for seg in self.lists:
            if len(seg) >= rw.block:
                keep.append(seg)
            elif not rw.ball.is_trivial_word(seg):
                return None
        return _ListTape(keep)

    def rewrite(self, rw, rules: _Rules) -> Optional[_ListTape]:
        """The nonempty sections of every segment, branch by branch, or None
        when a segment's rows do not end every branch on itself."""
        strip = rules.method != "contracting"
        reset = rules.method == "polynomial"
        branch_tapes: list[list[list[int]]] = [[] for _ in range(rw.branches)]
        for seg in self.lists:
            rewritten = rw.sections(seg, strip, moved=False)
            if rewritten is None:
                return None
            for tape_x, out in zip(branch_tapes, rewritten[0]):
                if out and not (reset and out == seg):
                    tape_x.append(out)
        return _ListTape([out for tape_x in branch_tapes for out in tape_x])


def _drive(rw, tape, rules: _Rules) -> StepReport:
    """The stage loop of every staged solver, over either engine's tape: a
    ``_ListTape`` or a ``vectorized._ArrayTape``, which may hand the solve
    to a ``_ListTape`` after any rewrite.

    Each pass appends one ``StageRecord`` to the ledger the report is read
    off.  Its phases charge one scan of the tape for the short-segment check,
    one of the kept letters for the branch-permutation check (folded into
    the first scan for a table without a mode, the reset rule's literal
    one), one more for reading the blocks, one per output letter and per
    (segment, branch) written, and two per letter and separator copied back.
    The charges model the tape machine, not the simulation, whose engines
    read that check off the rewrite.  A rewrite also reads one table row per
    full block and branch, which its record adds to the rewriter's
    ``table_reads``."""
    n = tape.letters
    cap = rules.cap(n)
    ledger = []
    while True:
        total, longest = tape.letters + max(0, tape.segments - 1), tape.max_segment()
        if not tape.segments:
            ledger.append(StageRecord(total, longest))
            verdict = True
            break
        if len(ledger) > cap:
            raise (StageGuardExceeded if rules.method == "polynomial" else NonTermination)(len(ledger), cap)
        tape = tape.drop_short(rw)
        if tape is None or not tape.segments:
            ledger.append(StageRecord(total, longest, (total,)))
            verdict = tape is not None  # or every segment was short and trivial
            break
        kept, segments, blocks = tape.letters, tape.segments, tape.blocks(rw.block)
        check = kept if rw.mode is not None else 0
        tape = tape.rewrite(rw, rules)
        if tape is None:
            ledger.append(StageRecord(total, longest, (total, check)))
            verdict = False
            break
        rewrite, copy = kept + rw.branches * segments + tape.letters, 2 * (tape.letters + tape.segments)
        ledger.append(StageRecord(total, longest, (total, check, rewrite, copy), rw.branches * blocks))
        rw.table_reads += ledger[-1].table_reads
    return StepReport.of(rules.method, verdict, n, ledger, {**dict(rules.detail), "stage_cap": cap})


def _polynomial_cap(n: int, degree: int) -> int:
    try:
        return math.ceil(4 * (math.log2(max(n, 2)) + 1) ** (degree + 1))
    except OverflowError:
        raise AutomatonFormatError(f"the stage cap of degree {degree} does not fit a float") from None


def _plan(
    A: MealyAutomaton,
    method: str,
    cert: Optional[ContractionCertificate] = None,
    degree: int = 0,
    stage_cap: Optional[int] = None,
) -> tuple:
    """The rewriter and the rules of one solver: ``contracting``,
    ``bounded``, or ``polynomial`` with or without a certificate."""
    if stage_cap is not None:
        cap = lambda n: stage_cap
    elif method == "polynomial":
        cap = functools.partial(_polynomial_cap, degree=degree)
    else:
        cap = functools.partial(_contracting_cap, cert)
    if method == "polynomial" and cert is None:
        B, detail = A, (("degree", degree),)
    else:
        _require_cert(A, cert)
        B, detail = cert.automaton, (("mode", cert.mode), ("block", cert.block), ("power", cert.power))
    if method != "contracting" and B.identity is None:  # before flattening, which checks it too
        raise NoIdentityState(f"the {method} solver strips identity letters and needs an identity state")
    rw = _literal_sections(A) if cert is None else cert
    return rw, _Rules(method, cap, detail)


def solve_contracting(
    A: MealyAutomaton,
    cert: ContractionCertificate,
    tape: TapeLike,
    stage_cap: Optional[int] = None,
) -> StepReport:
    """Certificate-driven staged rewriting; identity letters survive in tails."""
    return _run_stages(*_plan(A, "contracting", cert, stage_cap=stage_cap), tape)


def solve_bounded(
    A: MealyAutomaton,
    cert: ContractionCertificate,
    tape: TapeLike,
    stage_cap: Optional[int] = None,
) -> StepReport:
    """Contracting run that strips identity letters from every rewrite,
    keeping the tape near the count of genuinely active letters."""
    return _run_stages(*_plan(A, "bounded", cert, stage_cap=stage_cap), tape)


def solve_polynomial(
    A: MealyAutomaton,
    degree: int,
    tape: TapeLike,
    cert: Optional[ContractionCertificate] = None,
    stage_cap: Optional[int] = None,
) -> StepReport:
    """Reset-rule solver for automata of polynomial activity.

    Without a certificate the solver flattens A first (``loopify``), so that
    every nontrivial simple cycle is a self-loop, and raises NotPolynomial
    when A's activity is exponential.  Each stage replaces a segment by its
    stripped literal section per branch, except that a section spelling the
    segment itself becomes empty.  The reset is sound by induction on depth: the branch
    permutations were already checked trivial, and every other branch is
    verified on its own tape, so a self-reproducing segment acts trivially
    if and only if the rest of the run accepts.

    With a certificate supplied, which fixes the automaton, block
    rewriting, stripping, and the reset rule are combined under this mode's
    stage guard.

    The paper's bound for polynomial automata, ``n (log n)^d``, has
    ``d = degree + 1`` in this convention: degree 0 (bounded) gives
    ``n log n`` and degree 1 (``poly1``) gives ``n log^2 n``.
    """
    if degree < 0:
        raise AutomatonFormatError("degree must be >= 0")
    return _run_stages(*_plan(A, "polynomial", cert, degree, stage_cap), tape)


def solve_oracle(A: MealyAutomaton, tape: TapeLike, budget: int = DEFAULT_ORACLE_BUDGET) -> StepReport:
    """Exponential-time reference: closure walk per segment, counting every
    computed section letter as a step.  Every section word keeps its
    segment's length, so a segment of length l whose walk computes the
    sections of k words costs ``|X| * l * k`` steps.  Raises BudgetExceeded
    when a segment's closure would grow past ``budget`` letters."""
    ic = inverse_closure(A)
    B = ic.automaton
    tape = _ListTape(_parse_tape(ic.parse, tape))
    m = len(B.letters)
    steps = 0
    verdict = True
    for seg in tape.lists:
        words, bad = _closure_walk(B, tuple(seg), budget)
        steps += m * len(seg) * (len(words) if bad is None else bad + 1)
        if bad is not None:
            verdict = False
            break
    # one pass over the tape _drive's first pass reads, letters plus separators
    record = StageRecord(tape.letters + max(0, tape.segments - 1), tape.max_segment(), (steps,))
    return StepReport.of("oracle", verdict, tape.letters, [record], {})


def _auto_plan(A: MealyAutomaton, search_block: int, search_power: int) -> Callable:
    """solve_auto's dispatch for one automaton and box, as a function of
    (A, tape).  Each solver is looked up when the plan runs, so a wrapper
    set on this module's name later still sees every call."""
    cert = best_certificate(A, search_block, search_power)
    # the weak item2 mode caps stages instead of guaranteeing progress, so a
    # word it maps to other words of the same length never gets a verdict
    if cert is not None and cert.mode != "item2":
        if A.identity is not None and classify_activity(A).is_bounded:
            return lambda A, tape: solve_bounded(A, cert, tape)
        return lambda A, tape: solve_contracting(A, cert, tape)
    if A.identity is not None:
        cls = classify_activity(A)
        if cls.kind != "exponential":  # bounded is degree 0
            return lambda A, tape: solve_polynomial(A, cls.degree, tape)
    return lambda A, tape: solve_oracle(A, tape)


def solve_auto(
    A: MealyAutomaton,
    tape: TapeLike,
    search_block: int = 4,
    search_power: int = 2,
) -> StepReport:
    """Dispatch: certificate search, then activity classification, then the
    exponential oracle as a last resort.

    The dispatch is worked out once per automaton and box and kept on the
    automaton's ``InverseClosure``, so later words reuse the certificate
    (its dense table and memoized rows included); ``inverse_closure.cache_clear()``
    drops it.  A search that raises keeps nothing."""
    plans = inverse_closure(A).plans
    box = (search_block, search_power)
    plan = plans.get(box)
    if plan is None:
        plan = plans[box] = _auto_plan(A, search_block, search_power)
    return plan(A, tape)
