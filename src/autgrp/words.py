"""Exact word-problem machinery: section closures, the exponential-time
oracle, canonical element keys, word length, growth tables, and the CSV
form of their rows.

Section words keep identity letters so that every member of a closure has the
same length; that fixed length is what makes the closure finite.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

from .automata import MealyAutomaton, Word, WordLike, _partition, inverse_closure
from .errors import AutomatonFormatError, BudgetExceeded, NotInBall

DEFAULT_ORACLE_BUDGET = 2_000_000
DEFAULT_BALL_BUDGET = 1_000_000


@dataclass(frozen=True)
class SectionTable:
    """All distinct section words reachable from a root word.

    ``children[i][x]`` is the index of word i's section at letter x;
    ``perms[i]`` is its first-level permutation as an image tuple.
    """

    automaton: MealyAutomaton
    root: Word
    words: tuple[Word, ...]
    children: tuple[tuple[int, ...], ...]
    perms: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.words)


def _closure_walk(A: MealyAutomaton, word: Word, budget: int, known=frozenset(), tables=None):
    """Breadth-first walk over single-letter sections, from ``word``.

    Returns the words met, in walk order, and None.  Without ``tables`` the
    walk stops after the sections of the first word whose permutation is not
    the identity and returns that word's index in place of None; with
    ``tables = (children, perms)`` it covers the whole closure and appends
    each word's child indexes and image tuple.  Words in ``known`` are
    neither added nor walked.  Raises BudgetExceeded when a new word's index
    would reach ``budget``.
    """
    nxt, out = A._next, A._out
    letters = range(len(A.letters))
    ident = list(letters)
    index = {word: 0}
    words = [word]
    for i, w in enumerate(words):  # grows while it is walked
        row = []
        img = []
        for x in letters:
            cur = x
            sec = []
            for s in w:
                sec.append(nxt[s][cur])
                cur = out[s][cur]
            img.append(cur)
            sec = tuple(sec)
            j = index.get(sec)
            if j is None and sec not in known:
                j = len(words)
                if j >= budget:
                    raise BudgetExceeded(budget, "section closure")
                index[sec] = j
                words.append(sec)
            row.append(j)
        if tables is not None:
            tables[0].append(tuple(row))
            tables[1].append(tuple(img))
        elif img != ident:
            return words, i
    return words, None


def sections_closure(A: MealyAutomaton, w: WordLike, budget: int = DEFAULT_ORACLE_BUDGET) -> SectionTable:
    word = A.parse_word(w)
    children, perms = [], []
    words, _ = _closure_walk(A, word, budget, tables=(children, perms))
    return SectionTable(A, word, tuple(words), tuple(children), tuple(perms))


class _OracleMemo:
    """Per-automaton cache of words already known (non)trivial.

    A completed closure scan with no nontrivial permutation proves every
    visited word trivial, so whole closures are shared across queries.
    """

    __slots__ = ("trivial", "nontrivial")

    def __init__(self):
        self.trivial = set()
        self.nontrivial = set()


@functools.lru_cache(maxsize=32)
def _oracle_memo(A: MealyAutomaton) -> _OracleMemo:
    return _OracleMemo()


def is_identity_oracle(A: MealyAutomaton, w: WordLike, budget: int = DEFAULT_ORACLE_BUDGET) -> bool:
    """True iff the word acts trivially: no reachable section permutes letters."""
    word = A.parse_word(w)
    memo = _oracle_memo(A)
    if word in memo.trivial:
        return True
    if word in memo.nontrivial:
        return False
    words, bad = _closure_walk(A, word, budget, known=memo.trivial)
    if bad is not None:
        memo.nontrivial.add(word)
        memo.nontrivial.add(words[bad])
        return False
    memo.trivial.update(words)
    return True


def are_equal(A: MealyAutomaton, u: WordLike, v: WordLike, budget: int = DEFAULT_ORACLE_BUDGET) -> bool:
    """Equality in the group: u v^-1 acts trivially (checked over the
    inverse-closed automaton, so u and v may mention inverse spellings)."""
    ic = inverse_closure(A)
    uu = ic.parse(u)
    vv = ic.parse(v)
    return is_identity_oracle(ic.automaton, uu + ic.inverse_word(vv), budget)


# ---- canonical keys ----

def canonical_key(A: MealyAutomaton, w: WordLike, budget: int = DEFAULT_ORACLE_BUDGET) -> tuple:
    """Serialization of the minimized transducer generated by the word.

    Keys are equal iff the words define the same transformation: states of
    the transducer are the closure's section words, merged by behavior, then
    numbered breadth-first from the root so the result is deterministic.
    """
    children, perms = [], []
    _closure_walk(A, A.parse_word(w), budget, tables=(children, perms))
    return _minimal_keys(len(A.letters), children, perms, (0,))[0]


def _minimal_keys(m: int, children: list, perms: list, roots: Iterable[int]) -> list:
    """Key of each root's transformation in a transducer whose every state is
    reachable from a root: Moore refinement merges states of equal behavior,
    then each root's classes are numbered breadth-first from its own.

    ``children[i][x]`` is state i's next state at letter x and ``perms[i]``
    its output images.  The minimal transducer of a transformation is unique
    up to isomorphism, so any transducer of it gives the same key.
    """
    cls = _partition(children, perms)
    rep = dict(zip(cls, range(len(cls))))  # any member stands for its class
    keys = []
    for root in roots:
        order = {cls[root]: 0}
        queue = [cls[root]]
        flat = [m]
        for c in queue:  # grows while it is walked
            i = rep[c]
            for j in children[i]:
                cj = cls[j]
                k = order.get(cj)
                if k is None:
                    k = order[cj] = len(queue)
                    queue.append(cj)
                flat.append(k)
            flat += perms[i]
        keys.append(tuple(flat))
    return keys


def _times_states(A: MealyAutomaton, key: tuple, gens: Sequence[int]) -> list:
    """Keys of h*g (h acts first) for each state g in ``gens``, from h's key.

    The key lays out h's minimal transducer: class c has its children at
    ``key[1+2mc : 1+2mc+m]`` and its images in the next m entries.  In the
    product with A, state (c, q) at letter x goes to (child_c[x], q's next
    state at perm_c[x]) and outputs q's output at perm_c[x].  The product is
    explored breadth-first from every root (0, g) at once and minimized
    once, so the generators share the pairs they reach.
    """
    m = key[0]
    nxt, out = A._next, A._out
    S = len(nxt)
    index = {}  # pair (c, q) as c*S + q; class 0 is h's root
    pairs = []
    for g in gens:
        if g not in index:
            index[g] = len(pairs)
            pairs.append(g)
    roots = [index[g] for g in gens]
    children = []
    perms = []
    for p in pairs:  # grows while it is walked
        c, q = divmod(p, S)
        base = 1 + 2 * m * c
        perm = key[base + m : base + 2 * m]
        nq = nxt[q]
        row = []
        for kid, y in zip(key[base : base + m], perm):
            pair = kid * S + nq[y]
            j = index.get(pair)
            if j is None:
                j = index[pair] = len(pairs)
                pairs.append(pair)
            row.append(j)
        children.append(row)
        perms.append(tuple(map(out[q].__getitem__, perm)))
    return _minimal_keys(m, children, perms, roots)


# ---- balls and growth ----

class CayleyBall:
    """Ball of a given radius in the group generated by an automaton's states.

    Holds one shortest representative word per element, element lengths, and
    multiplication edges ``element * generator`` for every element strictly
    inside the ball, which is exactly what is needed to walk any word of
    length <= radius starting at the identity.
    """

    __slots__ = ("automaton", "gens", "radius", "keys", "reps", "length", "edges", "gen_pos")

    def __init__(self, automaton, gens, radius, keys, reps, length, edges):
        self.automaton = automaton
        self.gens = gens
        self.radius = radius
        self.keys = keys
        self.reps = reps
        self.length = length
        self.edges = edges
        self.gen_pos = {g: i for i, g in enumerate(gens)}

    @property
    def size(self) -> int:
        return len(self.reps)

    def walk(self, word: Iterable[int], start: int = 0) -> Optional[int]:
        """Element index reached by multiplying the word's letters; None if
        the walk leaves the edge-covered region (word longer than radius)."""
        cur = start
        edges = self.edges
        pos = self.gen_pos
        ident = self.automaton.identity
        for s in word:
            if s == ident:
                continue
            row = edges[cur]
            if row is None:
                return None
            cur = row[pos[s]]
        return cur

    def is_trivial_word(self, word: Iterable[int]) -> bool:
        return self.walk(word) == 0


def _nontrivial_states(A: MealyAutomaton) -> list[int]:
    return [s for s in range(len(A.states)) if s != A.identity]


class _BallLayers:
    """One automaton's breadth-first ball, grown a layer at a time.

    BFS numbers elements layer by layer, so the ball of radius r is the first
    ``bounds[r+1]`` elements of any larger ball, with the edge rows of layer
    r (``bounds[r]`` onwards) cut to None.  ``edges`` holds the rows of every
    layer but the outermost.  The keys of an element's neighbours are
    composed from its own key.
    """

    __slots__ = ("automaton", "gens", "budget", "keys", "reps", "length", "edges", "bounds")

    def __init__(self, A: MealyAutomaton, budget: int):
        root = canonical_key(A, ())
        self.automaton = A
        self.gens = tuple(_nontrivial_states(A))
        self.budget = budget
        self.keys = {root: 0}  # in index order
        self.reps = [()]
        self.length = [0]
        self.edges = []
        self.bounds = [0, 1]

    def cut(self, radius: int) -> CayleyBall:
        """The ball of a radius the store has reached."""
        inner, n = self.bounds[radius], self.bounds[radius + 1]
        # copying keeps each key's stored hash; rebuilding rehashes every key
        keys = self.keys.copy() if n == len(self.keys) else dict(islice(self.keys.items(), n))
        return CayleyBall(
            self.automaton,
            self.gens,
            radius,
            keys,
            self.reps[:n],
            self.length[:n],
            self.edges[:inner] + [None] * (n - inner),
        )

    def grow(self) -> None:
        """Add the next layer.  A layer that stops part-way, over the budget
        or otherwise, is taken back whole, so a retry starts from the same
        state."""
        A, gens, budget = self.automaton, self.gens, self.budget
        keys, reps, length = self.keys, self.reps, self.length
        lo, hi = self.bounds[-2], self.bounds[-1]
        dist = len(self.bounds) - 1
        rows = []
        try:
            for i, h in enumerate(list(islice(keys, lo, hi)), lo):
                rep = reps[i]
                row = []
                for g, key in zip(gens, _times_states(A, h, gens)):
                    j = keys.get(key)
                    if j is None:
                        j = len(reps)
                        if j >= budget:
                            raise BudgetExceeded(budget, "ball BFS")
                        keys[key] = j
                        reps.append(rep + (g,))
                        length.append(dist)
                    row.append(j)
                rows.append(tuple(row))
        except BaseException:
            for key in list(islice(keys, hi, None)):
                del keys[key]
            del reps[hi:], length[hi:]
            raise
        self.edges += rows
        self.bounds.append(len(reps))


@functools.lru_cache(maxsize=16)
def _ball_layers(A: MealyAutomaton, budget: int) -> _BallLayers:
    return _BallLayers(A, budget)


def _layers_to(A: MealyAutomaton, radius: int, budget: int) -> _BallLayers:
    """The store of (A, budget), grown to ``radius``."""
    if radius < 0:
        raise AutomatonFormatError(f"radius must be >= 0, got {radius}")
    layers = _ball_layers(A, budget)
    while len(layers.bounds) < radius + 2:
        layers.grow()
    return layers


@functools.lru_cache(maxsize=16)
def cayley_ball(A: MealyAutomaton, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> CayleyBall:
    """Breadth-first ball over the nontrivial states as generators.

    Every radius is cut from one store of layers per (automaton, budget),
    which grows only by the layers it lacks, so asking for radii 1..r costs
    one BFS to radius r.  The 16 most recent stores are kept, and
    ``cayley_ball.cache_clear()`` drops them with the balls cut from them.
    """
    return _layers_to(A, radius, budget).cut(radius)


_clear_cut_balls = cayley_ball.cache_clear


def _clear_balls() -> None:
    """``cayley_ball.cache_clear``: the balls cut so far and the layers behind them."""
    _clear_cut_balls()
    _ball_layers.cache_clear()


cayley_ball.cache_clear = _clear_balls


def word_length(A: MealyAutomaton, w: WordLike, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> int:
    """Length of the shortest state word equal to w in the group; searches
    the ball of the given radius and raises NotInBall beyond it."""
    key = canonical_key(A, w)
    ball = cayley_ball(A, radius, budget)
    i = ball.keys.get(key)
    if i is None:
        raise NotInBall(radius)
    return ball.length[i]


@dataclass(frozen=True)
class GrowthTable:
    """gamma[d] = number of distinct elements spelled by words of length <= d."""

    label: str
    radius: int
    gamma: tuple[int, ...]

    def __getitem__(self, d: int) -> int:
        return self.gamma[d]


def growth(A: MealyAutomaton, n: int, budget: int = DEFAULT_BALL_BUDGET, label: str = "") -> GrowthTable:
    """gamma(d) for d <= n, read off the ball store's layer bounds."""
    gamma = tuple(_layers_to(A, n, budget).bounds[1 : n + 2])
    return GrowthTable(label or f"{len(A.states)}-state automaton", n, gamma)


def lower_bound_curve(growth_table, n_range: Iterable[int]) -> list[tuple[int, float]]:
    """Rows (n, n * log2(gamma(n))): the single-tape time floor implied by growth."""
    return [(n, n * math.log2(growth_table[n])) for n in n_range]


# ---- CSV rows ----

def write_csv(rows, out, header: Sequence[str], seed: Optional[int] = None) -> None:
    """Write rows (tuples, or objects with ``astuple``) as CSV with an
    optional leading ``# seed=`` comment."""
    if seed is not None:
        out.write(f"# seed={seed}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        tup = row.astuple() if hasattr(row, "astuple") else tuple(row)
        out.write(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in tup) + "\n")


def csv_text(rows, header: Sequence[str], seed: Optional[int] = None) -> str:
    buf = io.StringIO()
    write_csv(rows, buf, header, seed)
    return buf.getvalue()
