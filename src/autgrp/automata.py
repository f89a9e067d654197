"""Invertible Mealy automata and the word/section/permutation calculus.

Composition convention
----------------------
Words act letter by letter, **left to right**: for a word ``w = s1 s2 ... sn``
the image of a string ``v`` is produced by feeding ``v`` through ``s1``,
feeding the result through ``s2``, and so on.  Permutations compose the same
way (``perm_of_word`` returns "s1 first, then s2, ...").  Group-theory sources
disagree on this choice; every function in this package uses the
left-to-right rule.

Sections
--------
``w|_x`` is the word, of the same length as ``w``, describing what ``w`` does
to strings below the branch ``x``.  It is computed by threading ``x`` through
the letters of ``w``: each letter advances to its next state and rewrites the
carried branch letter.
"""

from __future__ import annotations

import functools
from itertools import product
from operator import index, itemgetter
from typing import Iterable, Sequence, Union

from .errors import (
    AutomatonFormatError,
    BudgetExceeded,
    DuplicateState,
    MissingTransition,
    NonInvertibleState,
    UnknownLetter,
)

# A word is an interned tuple of state indexes.
Word = tuple[int, ...]
WordLike = Union[str, Sequence[Union[int, str]]]
# cap on the digits threaded by an alphabet power's tables, the size of
# words.DEFAULT_BALL_BUDGET
_POWER_BUDGET = 1_000_000


def _check_name(name: str, kind: str, allow_dot: bool = False) -> None:
    if not name or name == "-":
        raise AutomatonFormatError(f"empty or reserved {kind} name {name!r}")
    if "->" in name or any(ch.isspace() or ch in "#:" for ch in name):
        raise AutomatonFormatError(f"bad character in {kind} name {name!r}")
    if not allow_dot and "." in name:
        raise AutomatonFormatError(f"'.' not allowed in {kind} name {name!r}")


def _inverse_name(name: str) -> str:
    if name.endswith("^-1"):
        return name[:-3]
    if len(name) == 1 and name.isalpha():
        return name.swapcase()
    return name + "^-1"


def _parse_seq(seq, names: Sequence[str], ixmap: dict, kind: str) -> tuple[int, ...]:
    """The one parser of automaton and halving words, in the forms
    ``MealyAutomaton.parse_word`` lists: ``ixmap`` maps each accepted name to
    its index, an index lies in ``range(len(names))``, an unknown name or
    index raises UnknownLetter of ``kind`` and what is no word at all
    AutomatonFormatError."""
    if isinstance(seq, str):
        txt = seq.strip()
        if not txt or txt == "-":
            return ()
        toks = txt.split()
        if len(toks) == 1 and toks[0] not in ixmap and len(toks[0]) > 1:
            toks = toks[0]  # run-together one-character names
        try:
            return tuple(map(ixmap.__getitem__, toks))
        except KeyError as exc:  # map stops at the first bad letter
            raise UnknownLetter(exc.args[0], kind) from None
    if getattr(seq, "ndim", 1) != 1:  # an array of another shape
        raise AutomatonFormatError(f"a word must be one-dimensional, not {seq.ndim}-dimensional")
    try:
        items = iter(seq)
    except TypeError:
        raise AutomatonFormatError(f"a word is a string or a sequence, not {type(seq).__name__}") from None
    out = []
    for item in items:
        if isinstance(item, str):
            if item not in ixmap:
                raise UnknownLetter(item, kind)
            out.append(ixmap[item])
        else:
            try:
                i = index(item)  # no truncation: 1.9 is no index
            except TypeError:
                raise UnknownLetter(item, kind) from None
            if i < 0 or i >= len(names):
                raise UnknownLetter(i, kind)
            out.append(i)
    return tuple(out)


def _spell(names: Sequence[str]) -> str:
    """Names run together when each is one character, else space-separated;
    the empty word spells as ""."""
    return "".join(names) if all(len(s) == 1 for s in names) else " ".join(names)


def _branch_name(letters: Sequence[str], names: Sequence[str]) -> str:
    """A branch word over ``letters``: its letter names run together when
    every letter is one character, else '.'-joined."""
    return ("" if all(len(x) == 1 for x in letters) else ".").join(names)


class Permutation:
    """Permutation of alphabet indexes; ``then`` composes left to right.
    Immutable: ``image`` is set once, by the constructor."""

    __slots__ = ("image",)

    def __init__(self, image: tuple[int, ...]):
        if sorted(image) != list(range(len(image))):
            raise AutomatonFormatError(f"not a permutation: {image}")
        object.__setattr__(self, "image", image)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return self.image == other.image if type(other) is Permutation else NotImplemented

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"Permutation(image={self.image!r})"

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not setattr
        return Permutation, (self.image,)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __len__(self) -> int:
        return len(self.image)

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.image))

    def then(self, other: "Permutation") -> "Permutation":
        return Permutation(tuple(other.image[v] for v in self.image))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))


class MealyAutomaton:
    """Finite invertible letter-to-letter transducer.

    States and letters are interned to integer indexes at construction; the
    readable names live in ``states`` and ``letters``.  ``identity`` is the
    index of a state that stays put and echoes every letter, or ``None``.
    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("letters", "states", "identity", "_next", "_out", "_lix", "_six", "_hash")

    def __init__(
        self,
        letters: Sequence[str],
        states: Sequence[str],
        next_states: Sequence[Sequence[int]],
        out_letters: Sequence[Sequence[int]],
        identity: Union[int, str, None] = None,
    ):
        letters = tuple(str(x) for x in letters)
        states = tuple(str(s) for s in states)
        if not letters or not states:
            raise AutomatonFormatError("alphabet and state set must be nonempty")
        for x in letters:
            _check_name(x, "letter", allow_dot=True)
        if len(set(letters)) != len(letters):
            raise AutomatonFormatError("duplicate letter name")
        seen = set()
        for s in states:
            _check_name(s, "state")
            if s in seen:
                raise DuplicateState(s)
            seen.add(s)

        m, n = len(letters), len(states)
        nxt = tuple(tuple(int(v) for v in row) for row in next_states)
        out = tuple(tuple(int(v) for v in row) for row in out_letters)
        if len(nxt) != n or len(out) != n or any(len(r) != m for r in nxt + out):
            raise AutomatonFormatError("transition tables must be |S| rows of |X| entries")
        for s in range(n):
            if any(t < 0 or t >= n for t in nxt[s]):
                raise AutomatonFormatError(f"next-state out of range in row {states[s]!r}")
            if sorted(out[s]) != list(range(m)):
                raise NonInvertibleState(states[s])

        self.letters = letters
        self.states = states
        self._next = nxt
        self._out = out
        self._lix = {x: i for i, x in enumerate(letters)}
        self._six = {s: i for i, s in enumerate(states)}
        self._hash = None

        if identity is None:
            self.identity = self._detect_identity()
        else:
            if isinstance(identity, str):
                if identity not in self._six:
                    raise UnknownLetter(identity, "state")
                identity = self._six[identity]
            identity = int(identity)
            if not self._acts_trivially(identity):
                raise AutomatonFormatError(
                    f"declared identity state {states[identity]!r} does not act trivially"
                )
            self.identity = identity

    def _acts_trivially(self, s: int) -> bool:
        m = len(self.letters)
        return self._next[s] == (s,) * m and self._out[s] == tuple(range(m))

    def _detect_identity(self):
        for s in range(len(self.states)):
            if self._acts_trivially(s):
                return s
        return None

    def parse_word(self, w: WordLike) -> Word:
        """Intern a word over the states.

        Accepts a string (single-character names run together, otherwise
        whitespace-separated tokens, padding ignored), an iterable of names,
        or an iterable of indexes.  ``"-"`` and ``""`` denote the empty
        word.  An index must be an integer (a float raises UnknownLetter,
        never truncates).  Anything else (None, a number, an array that is
        not one-dimensional) raises AutomatonFormatError.
        """
        return _parse_seq(w, self.states, self._six, "state")

    def parse_letters(self, v: WordLike) -> tuple[int, ...]:
        """Intern a string over the alphabet; same input forms as parse_word."""
        return _parse_seq(v, self.letters, self._lix, "letter")

    def word_names(self, w: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.states[s] for s in w)

    def word_str(self, w: Iterable[int]) -> str:
        return _spell(self.word_names(w)) or "-"

    def letters_str(self, v: Iterable[int]) -> str:
        return _spell([self.letters[x] for x in v])

    def step(self, s: int, x: int) -> tuple[int, int]:
        """One transducer move: (state, letter) -> (next state, output letter)."""
        return self._next[s][x], self._out[s][x]

    @property
    def identity_name(self):
        return None if self.identity is None else self.states[self.identity]

    def __eq__(self, other):
        if not isinstance(other, MealyAutomaton):
            return NotImplemented
        return (
            self.letters == other.letters
            and self.states == other.states
            and self.identity == other.identity
            and self._next == other._next
            and self._out == other._out
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.letters, self.states, self.identity, self._next, self._out))
        return self._hash

    def __repr__(self):
        return f"MealyAutomaton({len(self.states)} states over {len(self.letters)} letters)"


# ---- file format ----

def parse_automaton(text: str) -> MealyAutomaton:
    """Parse the line-oriented automaton format.

    ``alphabet:`` and ``states:`` list names; optional ``identity:`` names the
    trivial state; one ``trans: s x -> t y`` line per (state, letter) pair.
    ``#`` starts a comment.
    """
    letters = states = None
    identity = None
    trans = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise AutomatonFormatError(f"line {lineno}: expected 'key: ...'")
        key, rest = key.strip(), rest.strip()
        if key == "alphabet":
            letters = rest.split()
        elif key == "states":
            states = rest.split()
        elif key == "identity":
            toks = rest.split()
            if len(toks) != 1:
                raise AutomatonFormatError(f"line {lineno}: identity takes one state name")
            identity = toks[0]
        elif key == "trans":
            toks = rest.split()
            if len(toks) != 5 or toks[2] != "->":
                raise AutomatonFormatError(f"line {lineno}: expected 'trans: s x -> t y'")
            s, x, _, t, y = toks
            if (s, x) in trans:
                raise AutomatonFormatError(f"line {lineno}: transition ({s}, {x}) declared twice")
            trans[(s, x)] = (t, y)
        else:
            raise AutomatonFormatError(f"line {lineno}: unknown key {key!r}")

    if letters is None or states is None:
        raise AutomatonFormatError("file must declare 'alphabet:' and 'states:'")
    if len(set(states)) != len(states):
        for s in states:
            if states.count(s) > 1:
                raise DuplicateState(s)
    lix = {x: i for i, x in enumerate(letters)}
    six = {s: i for i, s in enumerate(states)}
    for (s, x), (t, y) in trans.items():
        for name, kind, known in ((s, "state", six), (x, "letter", lix), (t, "state", six), (y, "letter", lix)):
            if name not in known:
                raise UnknownLetter(name, kind)
    nxt = [[None] * len(letters) for _ in states]
    out = [[None] * len(letters) for _ in states]
    for s, sname in enumerate(states):
        for x, xname in enumerate(letters):
            if (sname, xname) not in trans:
                raise MissingTransition(sname, xname)
            t, y = trans[(sname, xname)]
            nxt[s][x] = six[t]
            out[s][x] = lix[y]
    return MealyAutomaton(letters, states, nxt, out, identity=identity)


def serialize_automaton(A: MealyAutomaton) -> str:
    """Normalized file form (sorted transitions); round-trips bit-exactly."""
    lines = [
        "alphabet: " + " ".join(A.letters),
        "states: " + " ".join(A.states),
    ]
    if A.identity is not None:
        lines.append("identity: " + A.states[A.identity])
    for s, sname in enumerate(A.states):
        for x, xname in enumerate(A.letters):
            lines.append(
                f"trans: {sname} {xname} -> {A.states[A._next[s][x]]} {A.letters[A._out[s][x]]}"
            )
    return "\n".join(lines) + "\n"


# ---- structural operations ----

def invert(A: MealyAutomaton) -> MealyAutomaton:
    """Automaton of the inverse transformations.

    State s^-1 undoes s: wherever s reads x and writes y, the inverse state
    reads y and writes x, advancing to the inverse of s's next state.
    """
    n, m = len(A.states), len(A.letters)
    taken = set()
    names = []
    for s in A.states:
        c = _inverse_name(s)
        while c in taken:
            c += "'"
        taken.add(c)
        names.append(c)
    nxt = [[0] * m for _ in range(n)]
    out = [[0] * m for _ in range(n)]
    for s in range(n):
        for x in range(m):
            y = A._out[s][x]
            nxt[s][y] = A._next[s][x]
            out[s][y] = x
    return MealyAutomaton(A.letters, names, nxt, out, identity=A.identity)


def _partition(children: Sequence[Sequence[int]], perms: Sequence[Sequence[int]]) -> list[int]:
    """Moore refinement: each state's class under equal behavior, classes
    numbered by their first member.  ``children[i][x]`` is state i's next
    state at letter x and ``perms[i]`` its tuple of output images."""
    ids = {}
    cls = [ids.setdefault(p, len(ids)) for p in perms]
    count = len(ids)
    if count < len(cls):
        # one signature per state and round: its class and its children's
        getters = [itemgetter(*row) for row in children]
        while True:
            ids = {}
            cls = [ids.setdefault((c, get(cls)), len(ids)) for c, get in zip(cls, getters)]
            if len(ids) == count:
                break
            count = len(ids)
    return cls


def _quotient(A: MealyAutomaton, cls: list[int]) -> MealyAutomaton:
    k = max(cls) + 1
    rep = [None] * k
    for i, c in enumerate(cls):
        if rep[c] is None:
            rep[c] = i
    states = [A.states[rep[c]] for c in range(k)]
    nxt = [[cls[A._next[rep[c]][x]] for x in range(len(A.letters))] for c in range(k)]
    out = [list(A._out[rep[c]]) for c in range(k)]
    identity = None if A.identity is None else cls[A.identity]
    return MealyAutomaton(A.letters, states, nxt, out, identity=identity)


def minimize(A: MealyAutomaton) -> MealyAutomaton:
    """Merge states inducing the same transformation (partition refinement)."""
    cls = _partition(A._next, A._out)
    if max(cls) + 1 == len(A.states):
        return A
    return _quotient(A, cls)


def _power_tables(A: MealyAutomaton, k: int) -> tuple[list[list[int]], list[list[int]]]:
    """Per-state section and output tables over length-k branch words.

    Branch words are encoded as base-|X| integers, first letter most
    significant, matching lexicographic enumeration order.  Raises
    BudgetExceeded if the tables would thread more than ``_POWER_BUDGET``
    digits in all (|S| * |X|^k * k, with |X|^k never computed for large k).
    """
    m = len(A.letters)
    if len(A.states) * k * m ** min(k, 64) > _POWER_BUDGET:
        raise BudgetExceeded(_POWER_BUDGET, "alphabet power")
    mk = m**k
    secs, outs = [], []
    for s in range(len(A.states)):
        rs = [0] * mk
        ro = [0] * mk
        for code in range(mk):
            digits = []
            c = code
            for _ in range(k):
                digits.append(c % m)
                c //= m
            digits.reverse()
            cur, oc = s, 0
            for x in digits:
                oc = oc * m + A._out[cur][x]
                cur = A._next[cur][x]
            rs[code] = cur
            ro[code] = oc
        secs.append(rs)
        outs.append(ro)
    return secs, outs


def alphabet_power(A: MealyAutomaton, k: int) -> MealyAutomaton:
    """Same states over the alphabet of length-k branch words."""
    if k < 1:
        raise AutomatonFormatError("alphabet power requires k >= 1")
    if k == 1:
        return A
    secs, outs = _power_tables(A, k)
    letters = [_branch_name(A.letters, t) for t in product(A.letters, repeat=k)]
    return MealyAutomaton(letters, A.states, secs, outs, identity=A.identity)


# ---- word calculus ----

def perm_of_word(A: MealyAutomaton, w: WordLike) -> Permutation:
    """First-level permutation of the word, letters composed left to right."""
    word = A.parse_word(w)
    nxt, out = A._next, A._out
    img = []
    for x in range(len(A.letters)):
        cur = x
        for s in word:
            cur = out[s][cur]
        img.append(cur)
    return Permutation(tuple(img))


def _run(A: MealyAutomaton, word, xs) -> tuple[list[int], list[int]]:
    """Thread the letters xs through the word, one after the other: the
    image of each letter, and the section of the word below xs."""
    nxt, out = A._next, A._out
    images = []
    for x in xs:
        nw = []
        cur = x
        for s in word:
            nw.append(nxt[s][cur])
            cur = out[s][cur]
        images.append(cur)
        word = nw
    return images, word


def section_of_word(A: MealyAutomaton, w: WordLike, x: WordLike) -> tuple[str, ...]:
    """The same-length word acting below the branch x (x may be several letters)."""
    word = A.parse_word(w)
    xs = A.parse_letters(x)
    if not xs:
        raise AutomatonFormatError("branch word must be nonempty")
    return A.word_names(_run(A, word, xs)[1])


def apply(A: MealyAutomaton, w: WordLike, v: WordLike) -> str:
    """Image of the string v under the word w; always the same length as v."""
    return A.letters_str(_run(A, A.parse_word(w), A.parse_letters(v))[0])


# ---- formal inverses ----

class InverseClosure:
    """An automaton together with its inverse states, merged and minimized.

    ``automaton`` contains one state per distinct transformation among the
    original states and their inverses (involutions collapse onto
    themselves).  Words over the original states, their formal-inverse
    spellings (``a`` -> ``A``, or ``name^-1``), or the merged automaton's own
    state names all parse to words over the merged automaton.
    """

    def __init__(self, source: MealyAutomaton):
        n = len(source.states)
        m = len(source.letters)
        inv = invert(source)
        taken = set(source.states)
        inames = []
        for c in inv.states:
            while c in taken:
                c += "'"
            taken.add(c)
            inames.append(c)
        states = list(source.states) + inames
        nxt = [list(r) for r in source._next] + [[t + n for t in r] for r in inv._next]
        out = [list(r) for r in source._out] + [list(r) for r in inv._out]
        union = MealyAutomaton(source.letters, states, nxt, out, identity=source.identity)
        cls = _partition(union._next, union._out)
        merged = _quotient(union, cls)

        self.source = source
        self.automaton = merged
        self.to_merged = tuple(cls[i] for i in range(n))
        self.inv_to_merged = tuple(cls[n + i] for i in range(n))
        inv_state = [0] * len(merged.states)
        for i in range(n):
            inv_state[cls[i]] = cls[n + i]
            inv_state[cls[n + i]] = cls[i]
        self.inverse_state = tuple(inv_state)

        names = {s: i for i, s in enumerate(merged.states)}
        for i, s in enumerate(source.states):
            names.setdefault(s, self.to_merged[i])
            names.setdefault(_inverse_name(s), self.inv_to_merged[i])
        self._names = names
        # solve_auto's dispatch per (search_block, search_power), filled by
        # solvers on first use and dropped with inverse_closure.cache_clear()
        self.plans: dict = {}

    def parse(self, w: WordLike) -> Word:
        """Word over the merged states; accepts formal-inverse spellings."""
        return _parse_seq(w, self.automaton.states, self._names, "state")

    def inverse_word(self, w: Iterable[int]) -> Word:
        """Formal inverse: reversed word of inverse states."""
        return tuple(self.inverse_state[s] for s in reversed(tuple(w)))


@functools.lru_cache(maxsize=32)
def inverse_closure(A: MealyAutomaton) -> InverseClosure:
    return InverseClosure(A)
