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
from typing import Iterable, NamedTuple, Optional, Sequence

from .automata import MealyAutomaton, Word, WordLike, _partition, inverse_closure
from .errors import AutomatonFormatError, BudgetExceeded, NotInBall

DEFAULT_ORACLE_BUDGET = 2_000_000  # letters in one section closure
DEFAULT_BALL_BUDGET = 1_000_000


class SectionTable(NamedTuple):
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
    neither added nor walked.  ``budget`` counts stored letters: every
    section word has the root's length, so BudgetExceeded is raised when a
    new word would take the closure past ``budget`` letters.
    """
    cap = budget // max(1, len(word))
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
                if j >= cap:
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
    """The whole section closure of ``w``, as a table; raises BudgetExceeded
    past ``budget`` stored letters."""
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
    """True iff the word acts trivially: no reachable section permutes letters.
    The closure walked may hold at most ``budget`` letters."""
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
    The closure may hold at most ``budget`` letters.
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
    rep = dict(zip(cls, range(len(cls)))).values()  # any member stands for its class, in class order
    kids = [[cls[j] for j in children[i]] for i in rep]
    images = [perms[i] for i in rep]
    return [_bfs_key(m, kids, images, cls[root]) for root in roots]


def _bfs_key(m: int, children, perms, root) -> tuple:
    """Key of ``root`` in a transducer whose states all act differently: its
    states numbered breadth-first from the root, each laid out as its
    children's numbers and then its images, after the alphabet size."""
    order = {root: 0}
    queue = [root]
    flat = [m]
    for i in queue:  # grows while it is walked
        for j in children[i]:
            k = order.get(j)
            if k is None:
                k = order[j] = len(queue)
                queue.append(j)
            flat.append(k)
        flat += perms[i]
    return tuple(flat)


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
    length <= radius starting at the identity.  ``keys`` maps each element's
    canonical key to its index, in index order.

    A ball cut from the layer store builds ``reps`` and ``keys`` on first
    read.  Each element is numbered at its first product ``h*g`` in (h, g)
    order, so its word is h's word and g, read off the edge rows; its key is
    a breadth-first walk over the section ids the store gave the ball.
    """

    __slots__ = ("automaton", "gens", "radius", "_keys", "_reps", "_sections", "length", "edges", "gen_pos")

    def __init__(self, automaton, gens, radius, keys, reps, length, edges):
        self.automaton = automaton
        self.gens = gens
        self.radius = radius
        self._keys = keys
        self._reps = reps
        self._sections = None  # (root permutations, section ids) while the keys are unbuilt
        self.length = length
        self.edges = edges
        self.gen_pos = {g: i for i, g in enumerate(gens)}

    @property
    def size(self) -> int:
        return len(self.length)

    @property
    def reps(self) -> list:
        if self._reps is None:
            reps = [()]
            for rep, row in zip(reps, self.edges):  # grows while it is walked
                if row is None:
                    break
                for g, v in zip(self.gens, row):
                    if v == len(reps):
                        reps.append(rep + (g,))
            self._reps = reps
        return self._reps

    @property
    def keys(self) -> dict:
        if self._keys is None:
            perm, sec = self._sections
            m = len(self.automaton.letters)
            self._keys = {_bfs_key(m, sec, perm, i): i for i in range(self.size)}
            self._sections = None
        return self._keys

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


_PENDING = -1  # a product of the layer being grown whose sections are being resolved


class _BallLayers:
    """One automaton's breadth-first ball, grown a layer at a time by the
    wreath recursion.

    BFS numbers elements layer by layer, each new element at its first
    product ``h*g`` in (h, g) order, so the ball of radius r is the first
    ``bounds[r+1]`` elements of any larger ball, with the edge rows of layer
    r (``bounds[r]`` onwards) cut to None.  ``edges`` holds the rows of every
    layer but the outermost.

    The store never holds two equal elements, so an element is fixed by its
    signature: its root permutation ``perm[i]`` (one shared tuple per
    permutation) and its first-level section ids ``sec[i]``.  ``index[p]``
    is ``(p, {section ids: element})``; a permutation keeps its entry once
    met, and ``times[p]`` its products with the generators.  With h acting
    first, ``(h*g)|x = h|x * g|h(x)``: a section of h times a state, which
    is an edge row of a stored element or another product of the growing
    layer, resolved first.  A product whose sections lead back to itself
    lies on a section cycle and has no signature to look up before it is
    known; it is composed from h's key by ``_times_states`` and named class
    by class (``_identify``).  Elements on a section cycle are also kept by
    canonical key in ``cycle_keys``; no other element is, since every
    section of an element met by its signature was stored before it.
    """

    __slots__ = ("automaton", "gens", "budget", "perm", "sec", "index", "times", "cycle_keys", "edges", "bounds")

    def __init__(self, A: MealyAutomaton, budget: int):
        m = len(A.letters)
        root, zero = tuple(range(m)), (0,) * m
        self.automaton = A
        self.gens = tuple(_nontrivial_states(A))
        self.budget = budget
        self.index = {root: (root, {zero: 0})}
        self.times = {}
        self.perm = [root]
        self.sec = [zero]
        self.cycle_keys = {canonical_key(A, ()): 0}
        self.edges = []
        self.bounds = [0, 1]

    def cut(self, radius: int) -> CayleyBall:
        """The ball of a radius the store has reached."""
        bounds = self.bounds
        inner, n = bounds[radius], bounds[radius + 1]
        length = [d for d in range(radius + 1) for _ in range(bounds[d], bounds[d + 1])]
        edges = self.edges[:inner] + [None] * (n - inner)
        ball = CayleyBall(self.automaton, self.gens, radius, None, None, length, edges)
        ball._sections = (self.perm[:n], self.sec[:n])
        return ball

    def grow(self) -> None:
        """Add the next layer.  A layer that stops part-way, over the budget
        or otherwise, is taken back whole, so a retry starts from the same
        state."""
        lo, hi = self.bounds[-2], self.bounds[-1]
        self.edges += [[None] * len(self.gens) for _ in range(lo, hi)]  # filled in place
        try:
            self._renumber(lo, hi, self._resolve(lo, hi))
        except BaseException:
            del self.edges[lo:], self.perm[hi:], self.sec[hi:]
            for _, elements in self.index.values():
                for secs in [secs for secs, v in elements.items() if v >= hi]:
                    del elements[secs]
            for key in [key for key, v in self.cycle_keys.items() if v >= hi]:
                del self.cycle_keys[key]
            raise
        self.bounds.append(len(self.sec))

    def _resolve(self, lo: int, hi: int) -> dict:
        """Fill in the products of layer lo..hi in (h, g) order, each after
        the products of the layer its sections wait on (depth first, on an
        explicit stack).  New elements get ids in the order they are found;
        returns their BFS ids, by first product, keyed by found id."""
        perm, sec, edges, times, gens = self.perm, self.sec, self.edges, self.times, self.gens
        first = {}
        for h in range(lo, hi):
            row = edges[h]
            for k in range(len(gens)):
                if row[k] is None:
                    row[k] = _PENDING
                    stack = [(h, k)]
                    while stack:
                        i, j = stack[-1]
                        products = times.get(perm[i]) or self._products(perm[i])
                        (p, elements), follow = products[j]
                        secs = []
                        for s, t in zip(sec[i], follow):
                            if t >= 0:  # the section times a generator
                                u = edges[s][t]
                                if u is None:  # a product of this layer, resolved first
                                    edges[s][t] = _PENDING
                                    stack.append((s, t))
                                    break
                                if u == _PENDING:  # on the stack: the product lies on a section cycle
                                    stack.pop()
                                    key = _bfs_key(len(self.automaton.letters), sec, perm, i)
                                    edges[i][j] = self._identify(_times_states(self.automaton, key, (gens[j],))[0])
                                    break
                                s = u
                            secs.append(s)
                        else:
                            stack.pop()
                            secs = tuple(secs)
                            u = elements.get(secs)
                            edges[i][j] = self._add(p, elements, secs) if u is None else u
                v = row[k]
                if v >= hi and v not in first:
                    first[v] = hi + len(first)
        return first

    def _products(self, p: tuple) -> tuple:
        """``times[p]``: for each generator g, the index entry of the
        permutation of h*g and, for each letter x, the position of g|h(x)
        among the generators (-1 for the identity), for any h with root
        permutation p."""
        A = self.automaton
        pos = {g: k for k, g in enumerate(self.gens)}
        row = []
        for g in self.gens:
            q = tuple([A._out[g][y] for y in p])
            row.append((self.index.setdefault(q, (q, {})), tuple([pos.get(A._next[g][y], -1) for y in p])))
        row = self.times[p] = tuple(row)
        return row

    def _add(self, p: tuple, elements: dict, secs) -> int:
        """A new element of the growing layer, numbered in the order found."""
        v = len(self.sec)
        if v >= self.budget:
            raise BudgetExceeded(self.budget, "ball BFS")
        self.perm.append(p)
        self.sec.append(secs)
        elements[secs] = v
        return v

    def _identify(self, key: tuple) -> int:
        """The element with canonical key ``key``, each class of whose
        transducer is stored or in the growing layer.  A class whose children
        are named is named by its signature.  When every class left waits on
        another, one on a section cycle may be stored, found by its key, and
        name every class below it; if none is, the classes left are new."""
        m = key[0]
        w = 2 * m
        kids = [key[i : i + m] for i in range(1, len(key), w)]
        perms = [key[i + m : i + w] for i in range(1, len(key), w)]
        ids = [None] * len(kids)
        left = list(range(len(kids) - 1, -1, -1))  # children mostly follow their parents
        while left:
            waiting = []
            for c in left:
                secs = tuple([ids[j] for j in kids[c]])
                if None in secs:
                    waiting.append(c)
                    continue
                p, elements = self.index.setdefault(perms[c], (perms[c], {}))
                v = elements.get(secs)
                ids[c] = self._add(p, elements, secs) if v is None else v
            if len(waiting) < len(left):
                left = waiting
                continue
            for c in left:
                v = self.cycle_keys.get(_bfs_key(m, kids, perms, c))
                if v is not None:
                    break
            else:
                base = len(self.sec)
                for n, c in enumerate(left):
                    ids[c] = base + n
                for c in left:
                    p, elements = self.index.setdefault(perms[c], (perms[c], {}))
                    self._add(p, elements, tuple([ids[j] for j in kids[c]]))
                    own = _bfs_key(m, kids, perms, c)
                    if any(0 in own[i : i + m] for i in range(1, len(own), w)):  # c is its own section
                        self.cycle_keys[own] = ids[c]
                break
            ids[c] = v
            named = [c]
            for d in named:  # grows while it is walked
                for j, t in zip(kids[d], self.sec[ids[d]]):
                    if ids[j] is None:
                        ids[j] = t
                        named.append(j)
            left = [c for c in left if ids[c] is None]
        return ids[0]

    def _renumber(self, lo: int, hi: int, first: dict) -> None:
        """Give the new layer its BFS ids and freeze its edge rows, one
        element and one row at a time so that the old ones are freed as the
        new ones are made."""
        perm, sec, edges, index = self.perm, self.sec, self.edges, self.index
        new = first.get
        if any(v != i for v, i in first.items()):
            found = list(zip(perm[hi:], sec[hi:]))
            del perm[hi:], sec[hi:]
            for p, secs in found:
                del index[p][1][secs]
            for v, i in first.items():
                p, secs = found[v - hi]
                found[v - hi] = None
                secs = tuple([new(j, j) for j in secs])
                index[p][1][secs] = i
                perm.append(p)
                sec.append(secs)
            for key, v in self.cycle_keys.items():
                if v >= hi:
                    self.cycle_keys[key] = first[v]
        for h in range(lo, hi):
            edges[h] = tuple([new(v, v) for v in edges[h]])


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


class GrowthTable(NamedTuple):
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
