"""Instrumented word-problem solvers driven by contraction certificates.

Each solver simulates a staged tape machine.  A stage reads the tape of
``#``-separated segments, decides segments shorter than the block length by a
ball lookup, rejects when a segment permutes a branch of the power alphabet,
rewrites every surviving segment into one section per branch using the
certificate tables, and copies the branch tapes back as the next stage's
tape.  Every symbol read or written on any simulated tape counts as one
elementary step; those counts, not wall-clock time, are what the benchmark
fitter consumes.

One driver, ``_drive``, runs the stage loop and counts every step; two
engines supply the tape and its phases (drop the short segments, rewrite
the rest), so they report identical counts.  The Python tape here holds one
list per segment; the array tape of ``vectorized`` runs each phase as numpy
passes over the whole tape.  The array engine takes certificates whose
table is dense over every block on tapes of at least ``_VECTOR_MIN_LETTERS``
letters; everything else, certificates above the table budget included,
stays on the Python tape.

Every staged solver reads a ``ContractionCertificate``'s table.  The
reset-rule solver without a certificate builds its own, of block 1 and
power 1 over the automaton flattened by ``loopify``, with mode None.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .automata import MealyAutomaton, WordLike, inverse_closure
from .contraction import ContractionCertificate, _ScanContext, best_certificate, classify_activity, loopify
from .errors import (
    AutomatonFormatError,
    CertificateMismatch,
    NoIdentityState,
    NonTermination,
    StageGuardExceeded,
)
from .words import DEFAULT_ORACLE_BUDGET, _closure_walk


@dataclass
class StepReport:
    """Outcome and cost of one solver run.

    ``stage_tape`` holds the tape length (letters plus separators) entering
    each pass of the main loop, so ``stage_tape[0]`` is the input length with
    separators and the list may end with 0 on acceptance.  ``stages`` counts
    rewrite passes actually executed.
    """

    method: str
    verdict: bool
    input_length: int
    steps: int
    stages: int
    stage_tape: tuple[int, ...]
    stage_max_segment: tuple[int, ...]
    detail: dict = field(default_factory=dict)

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
        parts = []
        for seg in self.segments:
            parts.append("".join(seg) if all(len(t) == 1 for t in seg) else " ".join(seg))
        return "#".join(parts)

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
    lam = float(cert.stage_ratio)
    return math.ceil(ln / math.log2(1.0 / lam)) + 8


def _mx(cert: ContractionCertificate, seg: list[int], x: int, strip: bool) -> list[int]:
    """Rewrite one segment for one branch: table entry per full block, then
    the literal section of the short tail."""
    L = cert.block
    out: list[int] = []
    i = 0
    n = len(seg)
    while i + L <= n:
        rep, x = cert.entry(tuple(seg[i : i + L]), x)
        out.extend(rep)
        i += L
    if i < n:
        tail, x = cert.tail_section(seg[i:], x)
        if strip:
            ident = cert.automaton.identity
            out.extend(t for t in tail if t != ident)
        else:
            out.extend(tail)
    return out


def mx_step(cert: ContractionCertificate, x: int, w: WordLike) -> tuple[str, ...]:
    """One branch rewrite: table entry per full block, literal section of the
    short tail.  The result equals the x-section of w as a group element."""
    seg = list(cert.closure.parse(w))
    branches = cert.branches
    if not 0 <= int(x) < branches:
        raise AutomatonFormatError(f"branch index out of range 0..{branches - 1}")
    out = _mx(cert, seg, int(x), strip=False)
    B = cert.automaton
    return tuple(B.states[s] for s in out)


@functools.lru_cache(maxsize=32)
def _literal_sections(A: MealyAutomaton) -> ContractionCertificate:
    """The reset-rule solver's table without a certificate: each letter's
    next state in the flattened automaton, on each branch, and its output
    letter.  Raises NotPolynomial when A's activity is exponential."""
    flat = loopify(A)[0]
    return ContractionCertificate(flat, _ScanContext(flat, 1, 1), None, 0)


def _fixes_every_branch(rw, seg) -> bool:
    """True iff the segment permutes no branch: ``rw.outputs[s][x]`` is the
    branch letter s hands on from branch x."""
    out = rw.outputs
    for x in range(rw.branches):
        cur = x
        for s in seg:
            cur = out[s][cur]
        if cur != x:
            return False
    return True


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
# examples) therefore never load the array engine or build a dense table.
_VECTOR_MIN_LETTERS = 256


def _run_stages(rw, rules: _Rules, tape: TapeLike) -> StepReport:
    """Pick the engine: the array engine for dense tables on tapes of at
    least ``_VECTOR_MIN_LETTERS`` letters, the Python tape otherwise."""
    if not (isinstance(tape, str) and len(tape) < _VECTOR_MIN_LETTERS):
        from . import vectorized

        table = vectorized.dense_table(rw)
        if table is not None:
            letters, lens = table.parse(tape)
            if len(letters) >= _VECTOR_MIN_LETTERS:
                return vectorized.run_stages(rw, table, letters, lens, rules)
    # the Python tape reads its own lists, also of a tape the table parsed
    return _python_stages(rw, _parse_tape(rw.closure.parse, tape), rules)


class _ListTape:
    """The Python tape: one list of letters per segment."""

    __slots__ = ("lists", "letters", "segments")

    def __init__(self, lists: list[list[int]]):
        self.lists = lists
        self.letters = sum(map(len, lists))
        self.segments = len(lists)

    def max_segment(self) -> int:
        return max(map(len, self.lists), default=0)

    def drop_short(self, rw) -> Optional[_ListTape]:
        """The segments of at least a block, or None when a shorter one is
        nontrivial by the ball walk."""
        keep = []
        for seg in self.lists:
            if len(seg) >= rw.block:
                keep.append(seg)
            elif not rw.is_trivial_short(seg):
                return None
        return _ListTape(keep)

    def rewrite(self, rw, rules: _Rules) -> Optional[_ListTape]:
        """The nonempty sections of every segment, branch by branch, or None
        when a segment permutes a branch."""
        if not all(_fixes_every_branch(rw, seg) for seg in self.lists):
            return None
        strip = rules.method != "contracting"
        reset = rules.method == "polynomial"
        branch_tapes: list[list[list[int]]] = [[] for _ in range(rw.branches)]
        for seg in self.lists:
            for x, tape_x in enumerate(branch_tapes):
                out = _mx(rw, seg, x, strip)
                if out and not (reset and out == seg):
                    tape_x.append(out)
        return _ListTape([out for tape_x in branch_tapes for out in tape_x])


def _drive(rw, tape, rules: _Rules) -> StepReport:
    """The stage loop of every staged solver, over either engine's tape: a
    ``_ListTape`` or a ``vectorized._ArrayTape``.

    Each stage charges one scan of the tape for the short-segment check,
    one of the kept letters for the branch-permutation check (folded into
    the first scan for a table without a mode, the reset rule's literal
    one), one more for reading the blocks, one per output letter and per
    (segment, branch) written, and two per letter and separator copied back."""
    n = tape.letters
    cap = rules.cap(n)
    steps = 0
    stages = 0
    stage_tape = []
    stage_maxseg = []
    while True:
        total = tape.letters + max(0, tape.segments - 1)
        stage_tape.append(total)
        stage_maxseg.append(tape.max_segment())
        if not tape.segments:
            verdict = True
            break
        if stages > cap:
            raise (StageGuardExceeded if rules.method == "polynomial" else NonTermination)(stages, cap)
        steps += total
        tape = tape.drop_short(rw)
        if tape is None or not tape.segments:
            verdict = tape is not None  # or every segment was short and trivial
            break
        kept, segments = tape.letters, tape.segments
        if rw.mode is not None:
            steps += kept
        tape = tape.rewrite(rw, rules)
        if tape is None:
            verdict = False
            break
        steps += kept + rw.branches * segments + 3 * tape.letters + 2 * tape.segments
        stages += 1
    detail = {**dict(rules.detail), "stage_cap": cap}
    return StepReport(rules.method, verdict, n, steps, stages, tuple(stage_tape), tuple(stage_maxseg), detail)


def _python_stages(rw, segments: list[list[int]], rules: _Rules) -> StepReport:
    """The stage loop on the Python tape."""
    return _drive(rw, _ListTape(segments), rules)


def _polynomial_cap(n: int, degree: int) -> int:
    return math.ceil(4 * (math.log2(max(n, 2)) + 1) ** (degree + 1))


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
    when a segment's closure would grow past ``budget`` words."""
    ic = inverse_closure(A)
    B = ic.automaton
    segments = _parse_tape(ic.parse, tape)
    n = sum(len(s) for s in segments)
    m = len(B.letters)
    steps = 0
    verdict = True
    for seg in segments:
        words, bad = _closure_walk(B, tuple(seg), budget)
        steps += m * len(seg) * (len(words) if bad is None else bad + 1)
        if bad is not None:
            verdict = False
            break
    return StepReport("oracle", verdict, n, steps, 0, (n,), (max((len(s) for s in segments), default=0),), {})


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
