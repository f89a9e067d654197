"""Exact word-problem machinery: section closures, the exponential-time
oracle, canonical element keys, word length, and growth tables.

Section words keep identity letters so that every member of a closure has the
same length; that fixed length is what makes the closure finite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .automata import MealyAutomaton, Word, WordLike, inverse_closure
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


def _closure_scan(A: MealyAutomaton, word: Word, budget: int, collect: bool):
    """BFS over single-letter sections.

    With ``collect`` False, returns True as soon as the closure is complete
    and every permutation is trivial, or False on the first nontrivial one.
    With ``collect`` True, returns the full table data.
    """
    nxt, out = A._next, A._out
    m = len(A.letters)
    ident = tuple(range(m))
    index = {word: 0}
    words = [word]
    children = [] if collect else None
    perms = [] if collect else None
    i = 0
    while i < len(words):
        w = words[i]
        row = []
        img = []
        for x in range(m):
            cur = x
            sec = []
            for s in w:
                sec.append(nxt[s][cur])
                cur = out[s][cur]
            img.append(cur)
            sec = tuple(sec)
            j = index.get(sec)
            if j is None:
                j = len(words)
                if j >= budget:
                    raise BudgetExceeded(budget, "section closure")
                index[sec] = j
                words.append(sec)
            row.append(j)
        if not collect and tuple(img) != ident:
            return False
        if collect:
            children.append(tuple(row))
            perms.append(tuple(img))
        i += 1
    if not collect:
        return True
    return words, children, perms


def sections_closure(A: MealyAutomaton, w: WordLike, budget: int = DEFAULT_ORACLE_BUDGET) -> SectionTable:
    word = A.parse_word(w)
    words, children, perms = _closure_scan(A, word, budget, collect=True)
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
    nxt, out = A._next, A._out
    m = len(A.letters)
    ident = tuple(range(m))
    index = {word}
    todo = [word]
    i = 0
    while i < len(todo):
        cur_w = todo[i]
        i += 1
        row_imgs = []
        for x in range(m):
            cur = x
            sec = []
            for s in cur_w:
                sec.append(nxt[s][cur])
                cur = out[s][cur]
            row_imgs.append(cur)
            sec = tuple(sec)
            if sec not in index and sec not in memo.trivial:
                if len(index) >= budget:
                    raise BudgetExceeded(budget, "section closure")
                index.add(sec)
                todo.append(sec)
        if tuple(row_imgs) != ident:
            memo.nontrivial.add(word)
            memo.nontrivial.add(cur_w)
            return False
    memo.trivial.update(index)
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
    word = A.parse_word(w)
    _, children, perms = _closure_scan(A, word, budget, collect=True)
    return _minimal_keys(len(A.letters), children, perms, (0,))[0]


def _minimal_keys(m: int, children: list, perms: list, roots: Iterable[int]) -> list:
    """Key of each root's transformation in a transducer whose every state is
    reachable from a root: Moore refinement merges states of equal behavior,
    then each root's classes are numbered breadth-first from its own.

    ``children[i][x]`` is state i's next state at letter x and ``perms[i]``
    its output images.  The minimal transducer of a transformation is unique
    up to isomorphism, so any transducer of it gives the same key.
    """
    n = len(children)
    ids = {}
    cls = [ids.setdefault(p, len(ids)) for p in perms]
    count = len(ids)
    if count < n:
        # one signature per state and round: its class and its children's
        getters = [itemgetter(*row) for row in children]
        while True:
            ids = {}
            cls = [ids.setdefault((c, get(cls)), len(ids)) for c, get in zip(cls, getters)]
            if len(ids) == count:
                break
            count = len(ids)

    rep = dict(zip(cls, range(n)))  # any member stands for its class
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


@functools.lru_cache(maxsize=16)
def cayley_ball(A: MealyAutomaton, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> CayleyBall:
    """Breadth-first ball over the nontrivial states as generators.  The keys
    of an element's neighbours are composed from its own key."""
    if radius < 0:
        raise AutomatonFormatError(f"radius must be >= 0, got {radius}")
    gens = _nontrivial_states(A)
    root = canonical_key(A, ())
    keys = {root: 0}
    elements = [root]  # index -> key
    reps = [()]
    length = [0]
    edges = [None]
    frontier = [0]
    for dist in range(1, radius + 1):
        new_frontier = []
        for i in frontier:
            rep = reps[i]
            row = []
            for g, key in zip(gens, _times_states(A, elements[i], gens)):
                j = keys.get(key)
                if j is None:
                    j = len(reps)
                    if j >= budget:
                        raise BudgetExceeded(budget, "ball BFS")
                    keys[key] = j
                    elements.append(key)
                    reps.append(rep + (g,))
                    length.append(dist)
                    edges.append(None)
                    new_frontier.append(j)
                row.append(j)
            edges[i] = tuple(row)
        frontier = new_frontier
    return CayleyBall(A, tuple(gens), radius, keys, reps, length, edges)


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
    ball = cayley_ball(A, n, budget)
    counts = [0] * (n + 1)
    for d in ball.length:
        counts[d] += 1
    gamma = []
    total = 0
    for d in range(n + 1):
        total += counts[d]
        gamma.append(total)
    return GrowthTable(label or f"{len(A.states)}-state automaton", n, tuple(gamma))
