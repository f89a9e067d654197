"""Contraction certificates and activity classification.

A certificate fixes a block length and an alphabet power and witnesses, by
exhaustive enumeration, that sections of every block are short in one of
three senses:

* ``item1``: every single section is strictly shorter than the block;
* ``item2``: the sections of a block have total length at most the block;
* ``item3``: the sections of a block have total length strictly below it.

Section lengths are geodesic lengths over the inverse-closed state set,
looked up in a Cayley ball of radius equal to the block length.  Enumeration
runs over words without the identity letter, in the merged automaton's state
order, and a failing check always reports the lexicographically least
witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

from .automata import (
    MealyAutomaton,
    Word,
    _power_tables,
    alphabet_power,
    inverse_closure,
)
from .errors import (
    AutomatonFormatError,
    CertificateNotFound,
    NoIdentityState,
    NotPolynomial,
    UnknownLetter,
)
from .words import DEFAULT_BALL_BUDGET, CayleyBall, cayley_ball

MODES = ("item1", "item2", "item3")
DEFAULT_TABLE_BUDGET = 250_000


# ---- scan machinery ----

class _ScanContext:
    """Precomputed walk tables for one (automaton, block, power) cell.

    A branch is tracked as a single code ``x * ball_size + element``: the
    current branch letter of the power alphabet together with the ball
    element accumulated by the section letters seen so far.
    """

    def __init__(self, A: MealyAutomaton, block: int, power: int):
        ic = inverse_closure(A)
        B = ic.automaton
        self.closure = ic
        self.automaton = B
        self.block = block
        self.power = power
        self.enum = [s for s in range(len(B.states)) if s != B.identity]
        self.ball = cayley_ball(B, block, DEFAULT_BALL_BUDGET)
        self.seck, self.outk = _power_tables(B, power)
        self.branches = len(B.letters) ** power
        nb = self.ball.size
        ident = B.identity
        pos = self.ball.gen_pos
        edges = self.ball.edges
        self.trans = {}
        for s in range(len(B.states)):
            row = [-1] * (self.branches * nb)
            sec_row, out_row = self.seck[s], self.outk[s]
            for x in range(self.branches):
                nx = out_row[x] * nb
                g = sec_row[x]
                base = x * nb
                if g == ident:
                    for el in range(nb):
                        row[base + el] = nx + el
                else:
                    gp = pos[g]
                    for el in range(nb):
                        e_row = edges[el]
                        if e_row is not None:
                            row[base + el] = nx + e_row[gp]
            self.trans[s] = row
        self.len_code = [self.ball.length[c % nb] for c in range(self.branches * nb)]

    def start_codes(self) -> list[int]:
        return [x * self.ball.size for x in range(self.branches)]

    def walk_word(self, word) -> list[int]:
        codes = self.start_codes()
        for s in word:
            row = self.trans[s]
            codes = [row[c] for c in codes]
        return codes

    def rep_of_code(self, code: int) -> Word:
        return self.ball.reps[code % self.ball.size]

    def branch_of_code(self, code: int) -> int:
        return code // self.ball.size


def _leaf_eval(mode: str, block: int, lengths) -> tuple[bool, Optional[int]]:
    """(passes, offending branch index or None)."""
    if mode == "item1":
        for x, l in enumerate(lengths):
            if l >= block:
                return False, x
        return True, None
    total = sum(lengths)
    if mode == "item2":
        return total <= block, None
    return total < block, None


@dataclass(frozen=True)
class ItemCheck:
    """Outcome of one exhaustive or sampled block scan."""

    passed: bool
    mode: str
    block: int
    power: int
    words_checked: int
    max_section: int
    max_section_sum: int
    witness: Optional[tuple[str, ...]] = None
    witness_branch: Optional[str] = None

    def __bool__(self) -> bool:
        return self.passed


def _branch_str(B: MealyAutomaton, power: int, xcode: int) -> str:
    m = len(B.letters)
    return B.letters_str(xcode // m**i % m for i in reversed(range(power)))


def _validate_cell(block: int, power: int, mode: Optional[str] = None) -> None:
    if mode is not None and mode not in MODES:
        raise AutomatonFormatError(f"unknown mode {mode!r}")
    if block < 1 or power < 1:
        raise AutomatonFormatError("block length and alphabet power must be >= 1")


def check_item(
    A: MealyAutomaton,
    block: int,
    power: int,
    mode: str,
) -> ItemCheck:
    """Exhaustively scan every identity-free block of the given length.

    Returns the lexicographically least failing witness (in the merged
    automaton's state order) or a passing summary carrying the maximal
    single-section length and section-length sum seen anywhere.
    """
    _validate_cell(block, power, mode)
    return _scan_exhaustive(_ScanContext(A, block, power), (mode,))[mode]


def _all_blocks(ctx: _ScanContext):
    """Every identity-free block in enumeration order, as (digits into
    ``ctx.enum``, branch codes); the digit list is reused between blocks."""
    n_enum = len(ctx.enum)
    if n_enum == 0:
        return
    block = ctx.block
    trans = [ctx.trans[s] for s in ctx.enum]
    digits = [0] * block
    rows = [ctx.start_codes()] + [None] * block
    refill_from = 0
    while True:
        for d in range(refill_from, block):
            row = trans[digits[d]]
            rows[d + 1] = [row[c] for c in rows[d]]
        yield digits, rows[block]
        d = block - 1
        while d >= 0 and digits[d] == n_enum - 1:
            digits[d] = 0
            d -= 1
        if d < 0:
            return
        digits[d] += 1
        refill_from = d


def _scan(ctx: _ScanContext, modes, blocks) -> dict:
    """Judge every mode in ``modes`` on each block's section lengths.

    A mode that fails records its ``ItemCheck`` as of the failing block and
    drops out; the scan stops once every mode has failed.  Modes alive at the
    end pass with the maxima over all blocks.
    """
    B = ctx.automaton
    block = ctx.block
    len_code = ctx.len_code
    live = list(modes)
    results = {}
    max_sec = max_sum = words = 0
    for digits, leaf in blocks:
        lengths = [len_code[c] for c in leaf]
        words += 1
        top = max(lengths)
        tot = sum(lengths)
        if top > max_sec:
            max_sec = top
        if tot > max_sum:
            max_sum = tot
        if tot >= block:  # below it every mode passes
            for mode in tuple(live):
                ok, bad_x = _leaf_eval(mode, block, lengths)
                if not ok:
                    word = tuple(B.states[ctx.enum[d]] for d in digits)
                    branch = None if bad_x is None else _branch_str(B, ctx.power, bad_x)
                    results[mode] = ItemCheck(False, mode, block, ctx.power, words, max_sec, max_sum, word, branch)
                    live.remove(mode)
            if not live:
                return results
    for mode in live:
        results[mode] = ItemCheck(True, mode, block, ctx.power, words, max_sec, max_sum)
    return results


def _scan_exhaustive(ctx: _ScanContext, modes) -> dict:
    """One walk over the whole cell for all ``modes`` (see ``_scan``)."""
    return _scan(ctx, modes, _all_blocks(ctx))


def check_item_sampled(
    A: MealyAutomaton,
    block: int,
    power: int,
    mode: str,
    samples: int = 10_000,
    seed: int = 0,
) -> ItemCheck:
    """Same predicate on seeded random identity-free blocks (CI-scale variant)."""
    _validate_cell(block, power, mode)
    if samples < 1:
        raise AutomatonFormatError("a sampled check needs at least one sample")
    ctx = _ScanContext(A, block, power)
    rng = Random(seed)
    n_enum = len(ctx.enum)
    draws = ([rng.choice(range(n_enum)) for _ in range(block)] for _ in range(samples if n_enum else 0))
    blocks = ((digits, ctx.walk_word(ctx.enum[d] for d in digits)) for digits in draws)
    return _scan(ctx, (mode,), blocks)[mode]


# ---- certificates ----

class ContractionCertificate:
    """Verified block-rewrite table for one contraction mode.

    The table maps (block, branch code) to the shortest representative of the
    block's section and the branch code it hands to the next block.  A block's
    row, every branch at once, is walked through the Cayley ball on first use
    and memoized; ``load_certificate`` seeds the rows with the file's, so a
    table loaded unchecked rewrites as it reads.  Blocks holding identity
    letters are answered the same way, but ``serialize_certificate`` writes
    only the identity-free blocks, so solving never changes what it writes.

    Mode None marks the reset-rule solver's literal table, block 1 and power
    1 over a flattened automaton, for which no mode is verified.
    """

    def __init__(self, source, ctx: _ScanContext, mode: Optional[str], shrink_num: int, rows: Optional[dict] = None):
        self.source = source
        self.closure = ctx.closure
        self.automaton = ctx.automaton
        self.mode = mode
        self.block = ctx.block
        self.power = ctx.power
        self.shrink_ratio = Fraction(shrink_num, ctx.block)
        self.outputs = ctx.outk  # branch handed on, per state and branch
        self._ctx = ctx
        self._memo = rows if rows is not None else {}
        self.table_reads = 0
        self.dense_table = None  # array form, built by the first vectorized solve

    @property
    def ball(self) -> CayleyBall:
        return self._ctx.ball

    @property
    def branches(self) -> int:
        return self._ctx.branches

    @property
    def eager(self) -> bool:
        """Whether the identity-free table fits ``DEFAULT_TABLE_BUDGET``,
        which a serialized certificate must."""
        return len(self._ctx.enum) ** self.block * self.branches <= DEFAULT_TABLE_BUDGET

    @property
    def stage_ratio(self) -> Fraction:
        """Per-stage length bound: halfway between the table ratio and 1."""
        lam = self.shrink_ratio
        return lam + Fraction(1 - lam, 2)

    def _row(self, word: Word) -> tuple:
        """Every branch's (section, next branch code) for one block."""
        row = self._memo.get(word)
        if row is None:
            ctx = self._ctx
            row = tuple((ctx.rep_of_code(c), ctx.branch_of_code(c)) for c in ctx.walk_word(word))
            self._memo[word] = row
        return row

    def entry(self, word: Word, xcode: int) -> tuple[Word, int]:
        """Rewrite one block: (shortest section word, next branch code)."""
        self.table_reads += 1
        row = self._memo.get(word)  # no call on a hit: this is the solvers' inner loop
        if row is None:
            row = self._row(word)
        return row[xcode]

    def tail_section(self, word, xcode: int) -> tuple[list[int], int]:
        """Literal section of a short tail (identity letters retained)."""
        seck, outk = self._ctx.seck, self._ctx.outk
        out = []
        x = xcode
        for s in word:
            out.append(seck[s][x])
            x = outk[s][x]
        return out, x

    def is_trivial_short(self, word) -> bool:
        """Ball decision for segments shorter than the block."""
        return self.ball.walk(word) == 0

    def __repr__(self):
        return (
            f"ContractionCertificate({self.mode}, block={self.block}, power={self.power}, "
            f"ratio={self.shrink_ratio})"
        )


def _package(A: MealyAutomaton, ctx: _ScanContext, res: ItemCheck) -> ContractionCertificate:
    """The certificate of a passing scan."""
    shrink = res.max_section if res.mode == "item1" else res.max_section_sum
    return ContractionCertificate(A, ctx, res.mode, shrink)


def build_certificate(
    A: MealyAutomaton,
    block: int,
    power: int,
    mode: str,
) -> ContractionCertificate:
    """Scan one cell and package the result; raises if the scan fails."""
    _validate_cell(block, power, mode)
    ctx = _ScanContext(A, block, power)
    res = _scan_exhaustive(ctx, (mode,))[mode]
    if not res.passed:
        raise CertificateNotFound(block, power)
    return _package(A, ctx, res)


# The strict total shrink carries the strongest runtime guarantee; the weak
# total bound only caps stages, so it comes last.
_PREFERENCE = ("item3", "item1", "item2")


def _first_cells(A: MealyAutomaton, max_block: int, max_power: int) -> dict:
    """Each mode's first passing cell in (power, block) order, as the tail
    of ``_package``'s arguments.  Every cell is scanned once, for the live
    modes: those preferred over every mode already placed."""
    _validate_cell(max_block, max_power)
    placed: dict = {}
    live = _PREFERENCE
    for power in range(1, max_power + 1):
        for block in range(1, max_block + 1):
            ctx = _ScanContext(A, block, power)
            for mode, res in _scan_exhaustive(ctx, live).items():
                if res.passed:
                    placed[mode] = (ctx, res)
            live = _PREFERENCE[: min(map(_PREFERENCE.index, placed), default=len(_PREFERENCE))]
            if not live:
                return placed
    return placed


def best_certificate(
    A: MealyAutomaton,
    search_block: int = 4,
    search_power: int = 2,
) -> Optional[ContractionCertificate]:
    """Certificate search that avoids the weak total-shrink mode when it can.

    The weak mode caps stages instead of guaranteeing progress, so it is
    taken only when nothing else passes in the box: the strict total shrink
    wins at its first cell, else the per-section shrink at its first cell,
    else the weak mode at its first cell.  Each cell is scanned once, for all
    modes still in question.  Returns None when nothing in the box certifies.
    """
    cells = _first_cells(A, search_block, search_power)
    if not cells:
        return None
    return _package(A, *cells[min(cells, key=_PREFERENCE.index)])


# ---- certificate files ----

def serialize_certificate(cert: ContractionCertificate) -> str:
    """Text form: header ``mode block power num/den``, then one ``sect:`` line
    per table entry.  Words are '.'-joined state names, '-' when empty.  A
    row the certificate holds (a loaded one, say) is written as it is; any
    other is read off the walk and not kept."""
    if not cert.eager:
        raise AutomatonFormatError("table is above the eager budget; cannot serialize")
    B = cert.automaton
    ctx = cert._ctx
    lam = cert.shrink_ratio
    lines = [f"{cert.mode} {cert.block} {cert.power} {lam.numerator}/{lam.denominator}"]
    branches = [_branch_str(B, cert.power, x) for x in range(cert.branches)]
    for digits, codes in _all_blocks(ctx):
        word = tuple(ctx.enum[d] for d in digits)
        row = cert._memo.get(word)
        sections = [ctx.rep_of_code(c) for c in codes] if row is None else [out for out, _ in row]
        w = ".".join(B.states[s] for s in word)
        for xtext, out_word in zip(branches, sections):
            wx = ".".join(B.states[s] for s in out_word) or "-"
            lines.append(f"sect: {w} {xtext} -> {wx}")
    return "\n".join(lines) + "\n"


def _parse_branch(B: MealyAutomaton, power: int, text: str) -> int:
    if "." in text:
        parts = text.split(".")
    elif all(len(x) == 1 for x in B.letters):
        parts = list(text)
    else:
        parts = [text]
    if len(parts) != power:
        raise AutomatonFormatError(f"branch {text!r} is not {power} letters")
    code = 0
    for p in parts:
        if p not in B._lix:
            raise UnknownLetter(p)
        code = code * len(B.letters) + B._lix[p]
    return code


def load_certificate(text: str, A: MealyAutomaton, validate: bool = True) -> ContractionCertificate:
    """Parse and (by default) re-verify a serialized certificate against A."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise AutomatonFormatError("empty certificate")
    mode, block, power, lam = _parse_header(lines[0])

    ctx = _ScanContext(A, block, power)
    B = ctx.automaton
    six = {s: i for i, s in enumerate(B.states)}
    rows = {}  # block word -> (section, next branch code) per branch, None until read
    filled = 0
    # each block text recurs once per branch, each branch text once per
    # block: parse (and walk) every distinct token text once
    blocks = {}  # block text -> (one walk code per branch, its row)
    branch_codes = {}  # branch text -> branch code
    sections = {"-": ()}  # section text -> word
    nb, reps = ctx.ball.size, ctx.ball.reps
    for ln in lines[1:]:
        if not ln.startswith("sect:"):
            raise AutomatonFormatError(f"unexpected line {ln!r}")
        toks = ln[5:].split()
        if len(toks) != 4 or toks[2] != "->":
            raise AutomatonFormatError(f"expected 'sect: w x -> w_x', got {ln!r}")
        wtext, xtext, _, otext = toks
        parsed = blocks.get(wtext)
        if parsed is None:
            wtoks = wtext.split(".")
            if any(t not in six for t in wtoks):
                raise UnknownLetter(wtext, "block word")
            word = tuple(six[t] for t in wtoks)
            if len(word) != block:
                raise AutomatonFormatError(f"block {wtext!r} is not {block} letters")
            if B.identity in word:
                raise AutomatonFormatError(f"block {wtext!r} holds the identity letter")
            row = rows[word] = [None] * ctx.branches
            parsed = blocks[wtext] = (ctx.walk_word(word), row)
        codes, row = parsed
        xcode = branch_codes.get(xtext)
        if xcode is None:
            xcode = branch_codes[xtext] = _parse_branch(B, power, xtext)
        out_word = sections.get(otext)
        if out_word is None:
            otoks = otext.split(".")
            if any(t not in six for t in otoks):
                raise UnknownLetter(otext, "section word")
            out_word = sections[otext] = tuple(six[t] for t in otoks)
        code = codes[xcode]
        if validate and out_word != reps[code % nb]:
            raise AutomatonFormatError(
                f"entry for ({wtext}, {xtext}) does not match the recomputed section"
            )
        filled += row[xcode] is None
        row[xcode] = (out_word, code // nb)

    expected = len(ctx.enum) ** block * ctx.branches
    if filled != expected:
        raise AutomatonFormatError(f"certificate has {filled} entries; expected {expected}")
    if validate:
        # every entry equals its recomputed section, so the cell scan judges
        # the table itself: the header must state its mode and its ratio
        res = _scan_exhaustive(ctx, (mode,))[mode]
        if not res.passed:
            raise AutomatonFormatError(f"block {'.'.join(res.witness)} breaks the header's mode {mode}")
        shrink = res.max_section if mode == "item1" else res.max_section_sum
        if Fraction(shrink, block) != lam:
            raise AutomatonFormatError(
                f"header ratio {lam} does not match the table's ratio {Fraction(shrink, block)}"
            )
    rows = {word: tuple(row) for word, row in rows.items()}
    return ContractionCertificate(A, ctx, mode, int(lam * block), rows)


def _parse_header(line: str) -> tuple[str, int, int, Fraction]:
    head = line.split()
    if len(head) != 4 or head[0] not in MODES:
        raise AutomatonFormatError("certificate header must be 'mode block power num/den'")
    mode = head[0]
    num, _, den = head[3].partition("/")
    try:
        block, power = int(head[1]), int(head[2])
        lam = Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise AutomatonFormatError(f"bad number in certificate header {line!r}") from None
    _validate_cell(block, power)
    if not 0 <= lam <= 1 or (lam == 1 and mode != "item2"):
        raise AutomatonFormatError(f"shrink ratio {lam} out of range for mode {mode}")
    return mode, block, power, lam


# ---- activity classification ----

@dataclass(frozen=True)
class ActivityClass:
    """Growth class of per-level nontrivial-section counts.

    ``bounded`` carries the uniform bound; ``polynomial`` carries the degree
    (bounded is exactly degree 0 and is reported as bounded).
    """

    kind: str
    degree: Optional[int] = None
    bound: Optional[int] = None

    @property
    def is_bounded(self) -> bool:
        return self.kind == "bounded"

    def __str__(self):
        if self.kind == "bounded":
            return f"bounded (C={self.bound})"
        if self.kind == "polynomial":
            return f"polynomial (degree {self.degree})"
        return "exponential"


def _cycle_structure(A: MealyAutomaton):
    """(exponential?, cycle lengths, most cycles on one path), read off the
    sets of nontrivial states each nontrivial state reaches in one or more moves."""
    ident = A.identity
    reach = {}
    for s in range(len(A.states)):
        if s == ident:
            continue
        seen, todo = set(), [s]
        while todo:
            for t in A._next[todo.pop()]:
                if t != ident and t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach[s] = seen
    cycle = {s: {t for t in seen if s in reach[t]} for s, seen in reach.items() if s in seen}
    # moves counted per letter: a double self-loop already shares its state
    if any(sum(t in cycle[s] for t in A._next[s]) >= 2 for s in cycle):
        return True, [], 0
    # a cycle reachable from another has a strictly smaller reach set, so in
    # this order every cycle below s is finished before s
    chain = {}
    for s in sorted(cycle, key=lambda s: len(reach[s])):
        chain[s] = 1 + max((chain[t] for t in reach[s] - cycle[s] if t in cycle), default=0)
    lengths = [len(c) for s, c in cycle.items() if s == min(c)]
    return False, lengths, max(chain.values(), default=0)


def classify_activity(A: MealyAutomaton) -> ActivityClass:
    """Bounded / polynomial / exponential per-level section counts.

    Expects a minimal automaton with an identity state: cycle structure is
    read off the literal transition graph of the nontrivial states (Sidki's
    circuit criterion).  Two cycles sharing a state make it exponential;
    otherwise the degree is the number of cycles on the longest chain of
    cycles minus one, and degree 0 is bounded.
    """
    if A.identity is None:
        raise NoIdentityState("classification needs an identity state")
    exponential, sizes, max_cycles = _cycle_structure(A)
    if exponential:
        return ActivityClass("exponential")
    if max_cycles >= 2:
        return ActivityClass("polynomial", degree=max_cycles - 1)
    horizon = len(A.states) * math.lcm(*sizes) if sizes else len(A.states)
    bound = 0
    for s in range(len(A.states)):
        if s == A.identity:
            continue
        for n in range(horizon + 1):
            bound = max(bound, activity_count(A, s, n))
    return ActivityClass("bounded", degree=0, bound=bound)


def activity_count(A: MealyAutomaton, s, n: int) -> int:
    """Number of depth-n branches below which the state still acts."""
    if isinstance(s, str):
        s = A._six.get(s, s)
    if s not in range(len(A.states)):
        raise UnknownLetter(s, "state")
    if n < 0:
        raise AutomatonFormatError("level must be >= 0")
    ident = A.identity
    vec = {s: 1}
    for _ in range(n):
        new = {}
        for st, cnt in vec.items():
            for t in A._next[st]:
                if t != ident:
                    new[t] = new.get(t, 0) + cnt
        vec = new
    return sum(cnt for st, cnt in vec.items() if st != ident)


def loopify(A: MealyAutomaton) -> tuple[MealyAutomaton, int]:
    """Power the alphabet so every nontrivial simple cycle is a self-loop.

    The power is the lcm of the simple-cycle lengths among nontrivial states;
    raises NotPolynomial when cycles share a state (exponential activity).
    """
    if A.identity is None:
        raise NoIdentityState("loopification needs an identity state")
    exponential, sizes, _ = _cycle_structure(A)
    if exponential:
        raise NotPolynomial("simple cycles share a state; no flattening power exists")
    k = math.lcm(*sizes) if sizes else 1
    return alphabet_power(A, k), k
