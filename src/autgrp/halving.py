"""Halving on coordinate tuples, without numpy: the instance groups' laws, the
one stage loop of every halving solve, and a solver for short words.

Each group is one law class here.  It multiplies, inverts, applies phi and
phi^-1, takes right-coset representatives of phi(G) and numbers them, on a
tuple with one entry per coordinate.  An entry may be a Python int or a
numpy array: the same code runs on a single element here and, in
``nilpotent``, on whole arrays of elements at once, which is how the dense
tables are built and checked.  The class's array folds (``fold``,
``pair_reps``) and ``seed_letters``, which only the table path reads, use
ndarray methods, so this module imports no numpy.  The transition
(a, b, x) -> (c, y) is y = rep(x a b) and c = phi^-1(x a b y^-1), the entry
those tables hold for every letter pair and representative; here it is
computed on first use and memoized in the group's one law object
(``_make_law``), which every solve and instance of the group shares.
``run_stages`` is the stage loop.  ``nilpotent.solve_nilpotent`` runs it with
array folds on long stages and ``_list_fold`` from the first stage under
``_LIST_MAX`` live letters; ``solve_short`` runs it with ``_list_fold`` from
the start, so a command-line solve of a short word loads no numpy and builds
no table.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from .errors import ClosureFailure, NonTermination, UnknownLetter
from .solvers import StageRecord, StepReport

# A stage with fewer live letters, and every stage after it, runs as a
# Python pair loop (``_list_fold``), which undercuts a stage's fixed numpy
# calls.  Compaction and fold on a 2-vCPU x86 Xeon: heis 33.5 us as arrays
# against 20.6 us as a list at 128 letters, 35 against 39 at 256; z4 12.4
# against 10.3 at 128.  The halving corpus timed the same with the cut at
# 64, 128 and 256.
_LIST_MAX = 128


def _nonzero(v) -> bool:
    """Whether an int, or any entry of an array, is nonzero (an array has no
    single truth value)."""
    return bool(v.any()) if hasattr(v, "any") else v != 0


class _Moves(dict):
    """(a, b, x) -> (c, y) of one group law, each computed on first use."""

    def __init__(self, law):
        super().__init__()
        self.law = law

    def __missing__(self, key):
        move = self[key] = self.law.transition(*key)
        return move


class _Law:
    """What every group law shares: the identity, the generators' names,
    letter names and the memoized transitions (at most one per letter pair
    and representative).  Each law takes and gives one entry per coordinate,
    ints or broadcastable arrays, and only ``unphi``'s image check reads an
    array whole; ``rep_at`` inverts ``rep_index``."""

    def __init__(self):
        self.identity = (0,) * self.dim
        # a generator and its inverse by coordinates, named by the generator
        # and its upper case; the first generator keeps a tuple two spell
        self.named = {}
        for gname, g in self.gens:
            self.named.setdefault(tuple(g), gname)
            self.named.setdefault(self.inverse(g), gname.upper())
        self.spelled = {name: g for g, name in self.named.items()}  # read by solve_short
        self.moves = _Moves(self)

    def letter_name(self, g: tuple[int, ...]) -> str:
        """``e``, a generator's name, its upper case for the generator's
        inverse, or else the coordinates, each after the generator in its
        place: ``b-1`` is coordinate -1 on b's axis, which is b^-1 only when
        b is a unit vector."""
        if not any(g):
            return "e"
        name = self.named.get(g)
        if name is not None:
            return name
        return "".join(f"{gname}{v}" for (gname, _), v in zip(self.gens, g) if v)

    def transition(self, a, b, x):
        """(c, y): y the representative of x a b and c = phi^-1(x a b y^-1)."""
        p = self.product(self.product(x, a), b)
        y = self.rep(p)
        return self.unphi(self.product(p, self.inverse(y))), y


class _AbelianLaw(_Law):
    """Z^d with phi = multiplication by 4 and reps {0..3}^d.

    ``coord_bound`` is the largest letter coordinate M, in magnitude, whose
    table build and check stay in int64: x a b and x a b y^-1 are at most
    2M + 6 in magnitude and the check's phi(c) y at most 4M + 3, so every
    value stays below 8M = 2^62."""

    residue_mask = 3  # a representative reads each coordinate mod 4
    coord_bound = 2**59

    def __init__(self, name, dim, n_reps, gens):
        self.name = name
        self.dim = dim
        self.n_reps = n_reps
        self.gens = gens  # ordered [(name, coords), ...] of input generators
        super().__init__()

    def product(self, g, h):
        return tuple(u + v for u, v in zip(g, h))

    def inverse(self, g):
        return tuple(-v for v in g)

    def phi(self, g):
        return tuple(4 * v for v in g)

    def rep(self, g):
        return tuple(v & 3 for v in g)  # v mod 4: a mask, which numpy runs faster than %

    def rep_index(self, r):
        """The index of representative r, coordinate d in bits 2d and 2d + 1."""
        return sum(v << 2 * d for d, v in enumerate(r))

    def rep_at(self, i):
        """The representative whose index is i."""
        return tuple((i >> 2 * d) & 3 for d in range(self.dim))

    def unphi(self, g):
        if any(_nonzero(v & 3) for v in g):
            raise ClosureFailure("element is not in the endomorphism image")
        return tuple(v >> 2 for v in g)

    def fold(self, coords):
        """Running products g_1, g_1 g_2, ... of an (n, dim) array's rows."""
        return coords.cumsum(axis=0)

    def pair_reps(self, cols, prefix):
        """rep_index of each running product, as uint8, from one uint8
        residue column per coordinate and ``prefix``, the inclusive prefix sum
        ``nilpotent._prefix_sum``, which wraps mod 256 or 16: exact mod 4."""
        idx = prefix(cols[0]) & 3
        for d in range(1, self.dim):
            idx += (prefix(cols[d]) & 3) << (2 * d)
        return idx

    def seed_letters(self) -> list[tuple[int, ...]]:
        # coordinate box of radius 3; the rewrite maps it into the radius-2
        # box, so the very first verification pass goes through
        return list(itertools.product(range(-3, 4), repeat=self.dim))


class _HeisenbergLaw(_Law):
    """Integer Heisenberg group, (x1,y1,z1)(x2,y2,z2) = (x1+x2, y1+y2, z1+z2+x1*y2),
    with phi(x, y, z) = (4x, 4y, 16z) and reps {0..3}^2 x {0..15}.

    ``coord_bound`` is the largest letter coordinate M, in magnitude, whose
    table build and check stay in int64: z picks up x y terms, so x a b has
    z up to M^2 + 8M + 15, x a b y^-1 up to M^2 + 16M + 40, and the check's
    phi(c) y is at most 28M + 15; for M = 2^29 all stay below 2M^2 = 2^59."""

    name = "heis"
    dim = 3
    n_reps = 256
    residue_mask = 15  # x mod 16 fixes x // 4 mod 4, and z's x_before * y_pair mod 16
    coord_bound = 2**29
    gens = [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))]

    def product(self, g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def inverse(self, g):
        return (-g[0], -g[1], g[0] * g[1] - g[2])

    def phi(self, g):
        return (4 * g[0], 4 * g[1], 16 * g[2])

    def rep(self, g):
        # mod 4, floor division by 4 and mod 16 as masks and a shift, which
        # numpy runs several times faster than % and //
        y = g[1] & 3
        return (g[0] & 3, y, (g[2] - 4 * (g[0] >> 2) * y) & 15)

    def rep_index(self, r):
        """The index x + 4y + 16z of representative r = (x, y, z)."""
        return r[0] + 4 * r[1] + 16 * r[2]

    def rep_at(self, i):
        """The representative whose index is i."""
        return (i & 3, (i >> 2) & 3, i >> 4)

    def unphi(self, g):
        if _nonzero(g[0] & 3 | g[1] & 3 | g[2] & 15):
            raise ClosureFailure("element is not in the endomorphism image")
        return (g[0] >> 2, g[1] >> 2, g[2] >> 4)

    def fold(self, coords):
        """Running products g_1, g_1 g_2, ... of an (n, 3) array's rows."""
        out = coords.cumsum(axis=0)
        x_before = out[:, 0] - coords[:, 0]
        out[:, 2] = (coords[:, 2] + x_before * coords[:, 1]).cumsum()
        return out

    def pair_reps(self, cols, prefix):
        """rep_index of each running product, as uint8, from one uint8
        residue column per coordinate and ``prefix``, the inclusive prefix sum
        ``nilpotent._prefix_sum``.

        Every value wraps mod 256, a multiple of 16, and each prefix sum mod
        256 or 16.  So all a representative reads stays exact: x mod 16,
        y mod 4, z's increment x_before * y_pair mod 16, and ``rep``'s
        z - 4 (x >> 2) y mod 16, as (x mod 256) >> 2 agrees with x >> 2 mod
        4; 4 (x >> 2) is x & ~3, and ``<< 4`` drops what lies above mod 16.
        """
        xs, ys, zs = cols
        x = prefix(xs)
        t = (x - xs) * ys
        t += zs
        t &= 15  # the packed scan sums values below 16
        z = prefix(t)
        y = prefix(ys) & 3
        return (x & 3) + (y << 2) + ((z - (x & 12) * y) << 4)

    def seed_letters(self) -> list[tuple[int, ...]]:
        """The identity, the generators and their inverses."""
        seed = {self.identity}
        for _, g in self.gens:
            seed.update((g, self.inverse(g)))
        return sorted(seed)


_LAWS = {
    "z4": _AbelianLaw("z4", 1, 4, [("a", (1,))]),
    "z2": _AbelianLaw("z2", 2, 16, [("a", (1, 0)), ("b", (0, 1))]),
    "heis": _HeisenbergLaw(),
}
_KINDS = {"z4": "z4", "z": "z4", "z2": "z2", "z2x4": "z2", "heis": "heis", "heisenberg": "heis"}


def _canonical_kind(kind: str) -> str:
    """z4, z2 or heis for any of their names, in any case and spacing."""
    key = _KINDS.get(kind.strip().lower())
    if key is None:
        raise UnknownLetter(kind, "instance kind")
    return key


def _make_law(kind: str):
    """The one law object of z4, z2 or heis under any of their names, which
    ``solve_short`` and every instance of the group share, memo included."""
    return _LAWS[_canonical_kind(kind)]


def _list_fold(law, live: list) -> tuple[tuple[int, ...], Optional[list]]:
    """One stage over the live letters, coordinate tuples in tape order, a
    pair at a time: pair i is (live[2i], live[2i+1]), an odd last letter
    paired with the identity, read under the representative of the product
    of the pairs before it.  Returns the representative of their product
    and, if it is the identity's, the pairs' c letters other than the
    identity, else None."""
    e, moves = law.identity, law.moves
    pairs = iter(live + [e] if len(live) % 2 else live)
    x = e
    out = []
    for a, b in zip(pairs, pairs):
        c, x = moves[a, b, x]
        if c != e:
            out.append(c)
    return x, (out if x == e else None)


def run_stages(law, n: int, live, fold) -> StepReport:
    """Decide a word of n letters by halving from its non-identity letters
    ``live``, counting tape-machine steps in one ``StageRecord`` per stage:
    three sweeps of the n cells plus one write per rewritten symbol.

    ``fold(live)`` folds one stage, as ``_list_fold`` does: it returns the
    coordinates of the representative of the live letters' product and,
    when that is the identity's, the next stage's live letters, else None.
    """
    ledger = []
    detail = {"group": law.name, "stage_nontrivial": []}
    guard = 2 * (n + 1).bit_length() + 16
    while True:
        detail["stage_nontrivial"].append(len(live))
        if len(live) == 0:
            ledger.append(StageRecord(n, n, (n,)))
            verdict = True
            break
        x, c = fold(live)
        if c is None:
            ledger.append(StageRecord(n, n, (n, n)))
            verdict = False
            detail["coset"] = law.letter_name(x)
            break
        if len(ledger) > guard:
            raise NonTermination(len(ledger), guard)
        ledger.append(StageRecord(n, n, (n, n, n + len(live))))  # the rewrite sweep, and 2k + odd symbols written
        live = c
    return StepReport.of("nilpotent", verdict, n, ledger, detail)


def solve_short(kind: str, word: str) -> Optional[StepReport]:
    """``solve_nilpotent(build_instance(kind), word)`` for ``kind`` z4, z2,
    heis or any alias ``build_instance`` takes, and a word of fewer than
    ``_LIST_MAX`` characters, each ``e``, a generator's name or its upper
    case; None for any other word, which needs the instance's parser
    (whitespace, longer letter names, ``-``).  An unknown kind raises
    UnknownLetter, as ``build_instance`` does."""
    law = _make_law(kind)
    if len(word) >= _LIST_MAX:
        return None
    try:
        live = [law.spelled[ch] for ch in word if ch != "e"]
    except KeyError:
        return None
    return run_stages(law, len(word), live, functools.partial(_list_fold, law))
