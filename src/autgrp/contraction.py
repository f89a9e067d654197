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
witness.  A block's sections depend only on the element its prefix spells,
so the exhaustive scan walks each distinct prefix once and costs about the
ball's size, not ``|S| ** L`` blocks.
"""

from __future__ import annotations

import math
from random import Random
from typing import NamedTuple, Optional

from .automata import (
    MealyAutomaton,
    Word,
    _branch_name,
    _power_tables,
    alphabet_power,
    inverse_closure,
)
from .errors import (
    AutomatonFormatError,
    BudgetExceeded,
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

    ``trans[s]`` maps every code to the code after state ``s``, or to -1
    where the walk leaves the ball; ``len_code`` maps it to its element's
    length.  Each is one list of ``branches * ball_size`` entries, built by
    slices: a branch whose section is the identity copies its target
    branch's codes, any other reads them through the section generator's
    column of the ball's edges.  A cell whose table would exceed
    ``DEFAULT_BALL_BUDGET`` codes raises ``BudgetExceeded`` before any is
    allocated.
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
        size = self.branches * nb
        if size > DEFAULT_BALL_BUDGET:
            raise BudgetExceeded(DEFAULT_BALL_BUDGET, "scan table")
        ident = B.identity
        pos = self.ball.gen_pos
        edges = self.ball.edges
        # one tuple per generator: its product with each element inside the
        # ball (the edge rows come first, the sphere's are None), then slot nb,
        # the -1 after each branch's codes, for every element on the sphere
        inner = nb - edges.count(None)
        off = (nb,) * (nb - inner)
        columns = [col + off for col in zip(*edges[:inner])]
        code = list(range(size))  # one int object per code, shared by every row
        self.trans = {} if ident is None else {ident: code}  # the identity fixes every code
        for s in self.enum:
            row = [-1] * size
            sec_row, out_row = self.seck[s], self.outk[s]
            for x in range(self.branches):
                nx = out_row[x] * nb
                g = sec_row[x]
                if g == ident:
                    row[x * nb : (x + 1) * nb] = code[nx : nx + nb]
                else:
                    row[x * nb : (x + 1) * nb] = map((code[nx : nx + nb] + [-1]).__getitem__, columns[pos[g]])
            self.trans[s] = row
        self.len_code = self.ball.length * self.branches

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


class ItemCheck(NamedTuple):
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
    """A branch spelled as ``alphabet_power`` names its letters."""
    m = len(B.letters)
    return _branch_name(B.letters, [B.letters[xcode // m**i % m] for i in reversed(range(power))])


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


def _judge(ctx: _ScanContext, blocks, live: list, results: dict, words: int, at) -> tuple[int, int, int]:
    """Judge ``blocks``, each given by its branch codes, in turn, the first
    after ``words`` others: a mode of ``live`` that fails records in ``results``
    its ``ItemCheck`` as of the failing block, the k-th, whose digits and whose
    predecessors' maxima ``at(k)`` gives, and drops out.  Returns the blocks
    judged, up to the last failure if none is live, and their maxima."""
    L, length, B = ctx.block, ctx.len_code.__getitem__, ctx.automaton
    k = max_sec = max_sum = 0
    for k, codes in enumerate(blocks, 1):
        lengths = list(map(length, codes))
        top, tot = max(lengths), sum(lengths)
        if top > max_sec:
            max_sec = top
        if tot > max_sum:
            max_sum = tot
        if tot >= L:  # below it every mode passes
            fails = {"item1": top >= L, "item2": tot > L, "item3": True}
            for mode in [m for m in live if fails[m]]:
                digits, sec, sums = at(k)
                sec, sums, word = max(sec, max_sec), max(sums, max_sum), tuple(B.states[ctx.enum[d]] for d in digits)
                x = next(x for x, l in enumerate(lengths) if l >= L) if mode == "item1" else None
                branch = None if x is None else _branch_str(B, ctx.power, x)
                results[mode] = ItemCheck(False, mode, L, ctx.power, words + k, sec, sums, word, branch)
                live.remove(mode)
            if not live:
                break
    return k, max_sec, max_sum


def _scan(ctx: _ScanContext, modes, blocks) -> dict:
    """Judge every mode in ``modes`` on each block in turn: a mode that fails
    records its ``ItemCheck`` as of the failing block and drops out, and the
    scan stops once every mode has; the rest pass with the maxima of all."""
    live, results = list(modes), {}
    last = [None]  # the digits of the block last judged
    leaves = (leaf for last[0], leaf in blocks)
    words, max_sec, max_sum = _judge(ctx, leaves, live, results, 0, lambda k: (last[0], 0, 0))
    for mode in live:
        results[mode] = ItemCheck(True, mode, ctx.block, ctx.power, words, max_sec, max_sum)
    return results


def _scan_exhaustive(ctx: _ScanContext, modes) -> dict:
    """``_scan`` of every block, as an in-order depth-first walk of the block
    tree.  The blocks below a node, the branch codes after a prefix, depend on
    nothing else, so a finished node's maxima are kept per depth and a node met
    again is folded in, not walked: the scan costs about the Cayley ball's size,
    not ``len(enum) ** block``.  A failure ends its mode, so no fold needs one."""
    L, n = ctx.block, len(ctx.enum)
    if L <= 2 or n == 0:  # no prefix to share
        return _scan(ctx, modes, _all_blocks(ctx))
    trans = [ctx.trans[s] for s in ctx.enum]
    live, results = list(modes), {}
    seen = [{} for _ in range(L - 1)]  # none at depth L - 1: only leaves lie below it
    stack = [[None, n, 0, 0], [tuple(ctx.start_codes()), 0, 0, 0]]  # codes, next digit, maxima; a base, the root
    words = 0

    def at(k):  # the digits of the k-th block two levels below the last open node's child, and every open maximum
        return [f[1] - 1 for f in stack[1:]] + [*divmod(k - 1, n)], max(f[2] for f in stack), max(f[3] for f in stack)

    while len(stack) > 1:
        node, d = stack[-1], len(stack) - 2
        codes, i = node[0], node[1]
        if i == n:  # finished: keep its maxima and pass them up
            stack.pop()
            seen[d][codes] = (node[2], node[3])
            stack[-1][2:] = map(max, stack[-1][2:], node[2:])
            continue
        node[1] = i + 1
        child = tuple(map(trans[i].__getitem__, codes))
        known = seen[d + 1].get(child)
        if known is None and d + 1 < L - 2:
            stack.append([child, 0, 0, 0])
            continue
        if known is None:  # two levels above the leaves: judge them
            leaves = (map(b.__getitem__, mid) for a in trans for mid in [[a[c] for c in child]] for b in trans)
            known = _judge(ctx, leaves, live, results, words, at)[1:]
            if not live:  # a partial summary is never kept
                return results
            seen[d + 1][child] = known
        words += n ** (L - 1 - d)
        node[2], node[3] = max(node[2], known[0]), max(node[3], known[1])
    for mode in live:
        results[mode] = ItemCheck(True, mode, L, ctx.power, words, stack[0][2], stack[0][3])
    return results


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
    block's section and the branch code it hands to the next block, so
    ``sections`` returns a segment's end branches, the solvers' permutation
    check, with its sections.  The table is the walk of the cell through the
    Cayley ball, and nothing else: a block's row, every branch at once, is
    walked on first use and memoized, and a loaded certificate is the one
    ``build_certificate`` returns for the file's cell.  Blocks holding
    identity letters are answered the same way, but ``serialize_certificate``
    writes only the identity-free blocks, so solving never changes what it
    writes.

    Mode None marks the reset-rule solver's literal table, block 1 and power
    1 over a flattened automaton, for which no mode is verified.
    """

    def __init__(self, source, ctx: _ScanContext, mode: Optional[str], shrink_num: int):
        from fractions import Fraction

        self.source = source
        self.closure = ctx.closure
        self.automaton = ctx.automaton
        self.mode = mode
        self.block = ctx.block
        self.power = ctx.power
        self.shrink_ratio = Fraction(shrink_num, ctx.block)
        self._ctx = ctx
        self._memo = {}  # block word -> row, filled as blocks are read
        self.table_reads = 0  # branches times blocks rewritten, added by solvers._drive
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
        return _table_fits(self.automaton, self.block, self.power)

    @property
    def stage_ratio(self) -> Fraction:
        """Per-stage length bound: halfway between the table ratio and 1."""
        lam = self.shrink_ratio
        return lam + (1 - lam) / 2

    def _row(self, word: Word) -> tuple:
        """Every branch's (section, next branch code) for one block."""
        row = self._memo.get(word)
        if row is None:
            ctx = self._ctx
            row = tuple((ctx.rep_of_code(c), ctx.branch_of_code(c)) for c in ctx.walk_word(word))
            self._memo[word] = row
        return row

    def sections(self, seg, strip: bool, moved: bool = True) -> Optional[tuple[list[list[int]], list[int]]]:
        """Every branch's section of one segment, and the branch code it ends
        on.  Each full block's row is read once, for all branches; the short
        tail is threaded letter by letter, its identity letters dropped when
        ``strip`` is set.  Each branch is threaded once, its section and end
        together: with ``moved`` off, a segment that ends a branch elsewhere
        gets None and no later branch's section is built."""
        L, memo, ctx = self.block, self._memo, self._ctx
        # one iterator zipped L times: the full blocks; no call on a memo hit, the solvers' inner loop
        rows = [memo.get(word) or self._row(word) for word in zip(*[iter(seg)] * L)]
        tail = seg[len(rows) * L :]
        seck, outk = ctx.seck, ctx.outk
        drop = self.automaton.identity if strip else None
        outs, ends = [], []
        for x in range(ctx.branches):
            cur = x
            out = []
            for row in rows:
                rep, cur = row[cur]
                out += rep
            for s in tail:
                if seck[s][cur] != drop:
                    out.append(seck[s][cur])
                cur = outk[s][cur]
            if cur != x and not moved:
                return None
            outs.append(out)
            ends.append(cur)
        return outs, ends

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

def _table_fits(B: MealyAutomaton, block: int, power: int) -> bool:
    """Whether B's identity-free table, blocks times branches, fits
    ``DEFAULT_TABLE_BUDGET``.  Each exponent is capped where a base of 2
    already exceeds the budget, so no huge power is computed."""
    cap = DEFAULT_TABLE_BUDGET.bit_length()
    n_enum = len(B.states) - (B.identity is not None)
    return n_enum ** min(block, cap) * len(B.letters) ** min(power, cap) <= DEFAULT_TABLE_BUDGET


def _entries(ctx: _ScanContext):
    """Every identity-free block in enumeration order, as its text and each
    branch's section text: words are '.'-joined state names, '-' when empty.
    Each ball element's text is joined once.  ``serialize_certificate``
    writes these entries, and ``load_certificate`` reads a file against them."""
    B = ctx.automaton
    names = [B.states[s] for s in ctx.enum]
    texts = [".".join([B.states[s] for s in rep]) or "-" for rep in ctx.ball.reps] * ctx.branches
    for digits, codes in _all_blocks(ctx):
        yield ".".join([names[d] for d in digits]), list(map(texts.__getitem__, codes))


def serialize_certificate(cert: ContractionCertificate) -> str:
    """Text form: header ``mode block power num/den``, then one ``sect:`` line
    per table entry, from ``_entries``.  The rows are read off the walk and
    not kept."""
    if not cert.eager:
        raise AutomatonFormatError("table is above the eager budget; cannot serialize")
    lam = cert.shrink_ratio
    lines = [f"{cert.mode} {cert.block} {cert.power} {lam.numerator}/{lam.denominator}"]
    branches = [_branch_str(cert.automaton, cert.power, x) for x in range(cert.branches)]
    for w, secs in _entries(cert._ctx):
        lines += [f"sect: {w} {x} -> {sec}" for x, sec in zip(branches, secs)]
    return "\n".join(lines) + "\n"


def _parse_branch(B: MealyAutomaton, power: int, text: str) -> int:
    """The code of a branch spelled as ``_branch_str`` spells it; one-character
    letters may also be '.'-joined, and a letter may hold dots itself."""
    parts = list(text) if "." not in text and all(len(x) == 1 for x in B.letters) else text.split(".")
    width = 1 + max(x.count(".") for x in B.letters)  # the most parts one letter spans
    reach = {0: 0}  # parts read -> the code of the letters they spell
    for _ in range(power):
        reach = {
            j: code * len(B.letters) + B._lix[w]
            for i, code in reach.items()
            for j in range(i + 1, min(i + width, len(parts)) + 1)
            if (w := ".".join(parts[i:j])) in B._lix
        }
    code = reach.get(len(parts))
    if code is None and width == 1 and len(parts) == power:
        raise UnknownLetter(next(p for p in parts if p not in B._lix))
    if code is None:
        raise AutomatonFormatError(f"branch {text!r} is not {power} letters")
    return code


def load_certificate(text: str, A: MealyAutomaton) -> ContractionCertificate:
    """Parse a serialized certificate and verify it against A.

    A cell's table is its walk, so each file line is looked up in the
    entries ``serialize_certificate`` writes for the header's cell, and the
    cell is scanned, as ``build_certificate`` scans it, for the header's mode
    and ratio.  What loads is the certificate ``build_certificate`` returns
    for that cell."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise AutomatonFormatError("empty certificate")
    mode, block, power, lam = _parse_header(lines[0])
    if not _table_fits(inverse_closure(A).automaton, block, power):
        raise AutomatonFormatError(f"a ({block}, {power}) table is above the eager budget; no file holds one")

    ctx = _ScanContext(A, block, power)
    B, six = ctx.automaton, ctx.automaton._six
    index = dict(_entries(ctx))  # block text -> each branch's section text
    branch_codes = {}  # branch text -> branch code, each text parsed once
    given = set()  # (block text, branch code) of every entry read
    for ln in lines[1:]:
        if not ln.startswith("sect:"):
            raise AutomatonFormatError(f"unexpected line {ln!r}")
        toks = ln[5:].split()
        if len(toks) != 4 or toks[2] != "->":
            raise AutomatonFormatError(f"expected 'sect: w x -> w_x', got {ln!r}")
        wtext, xtext, _, otext = toks
        secs = index.get(wtext)
        if secs is None:
            wtoks = wtext.split(".")
            if any(t not in six for t in wtoks):
                raise UnknownLetter(wtext, "block word")
            if len(wtoks) != block:
                raise AutomatonFormatError(f"block {wtext!r} is not {block} letters")
            raise AutomatonFormatError(f"block {wtext!r} holds the identity letter")
        x = branch_codes.get(xtext)
        if x is None:
            x = branch_codes[xtext] = _parse_branch(B, power, xtext)
        if secs[x] != otext:
            if otext != "-" and any(t not in six for t in otext.split(".")):
                raise UnknownLetter(otext, "section word")
            if (wtext, x) in given:
                raise AutomatonFormatError(f"entry for ({wtext}, {xtext}) is given twice with different sections")
            xtext = _branch_str(B, power, x)
            raise AutomatonFormatError(f"entry for ({wtext}, {xtext}) does not match the recomputed section")
        given.add((wtext, x))
    if len(given) != len(index) * ctx.branches:
        raise AutomatonFormatError(f"certificate has {len(given)} entries; expected {len(index) * ctx.branches}")

    res = _scan_exhaustive(ctx, (mode,))[mode]
    if not res.passed:
        raise AutomatonFormatError(f"block {'.'.join(res.witness)} breaks the header's mode {mode}")
    cert = _package(A, ctx, res)
    if cert.shrink_ratio != lam:
        raise AutomatonFormatError(f"header ratio {lam} does not match the table's ratio {cert.shrink_ratio}")
    return cert


def _parse_header(line: str) -> tuple[str, int, int, Fraction]:
    head = line.split()
    if len(head) != 4 or head[0] not in MODES:
        raise AutomatonFormatError("certificate header must be 'mode block power num/den'")
    from fractions import Fraction

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

class ActivityClass(NamedTuple):
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
