"""Halving solvers for instance groups carrying an expanding endomorphism.

Each instance fixes a group with integer coordinates, an injective
endomorphism phi that stretches word length, a finite letter set N closed
under inversion, and right-coset representatives X for phi(G).  Deciding a
word runs in stages: accept when the tape is all identity letters, reject
when the coset scan lands outside phi(G), otherwise rewrite consecutive
non-identity pairs through the (a, b, x) -> (e, c, y) table, which divides
the non-identity letter count by two per stage.

The rewrite pass carries the coset representative left to right: writing e
over the first letter of a pair and c over the second keeps the tape length
fixed while the written word spells the preimage of the input under phi.

``steps`` counts that one-tape machine, one ``StageRecord`` per stage with
three phases, each a sweep of all n cells: the identity sweep, which finds
whether any letter is not e; the coset scan; and the rewrite sweep, which
also charges one write per rewritten symbol.  ``halving.run_stages`` is the
stage loop that keeps that count.  The simulation does not pay it: it keeps
only the non-identity letters in tape order and folds them once per stage, a
pair at a time, for both the coset scan and the pair rewrite, and so does
O(n) array work per word in all, since the live letters halve each stage.
The fold reads each pair's product a*b from one uint8 column per coordinate
over all letter pairs, reduced mod 4 (Z^d) or mod 16 (heis): a
representative depends only on those residues of the running product, and
they depend only on the residues of its factors, so 1-D prefix sums give
every representative, and it reads each c letter from ``c_tab``.  The sums
run in uint8, which wraps mod 256, a multiple of 16, so every residue a
representative reads stays exact.  From ``_PACKED_MIN`` = 2,048 pairs up,
where the two broke even, they run on packed bytes, eight residues to a
64-bit word, and below that as a byte cumsum.  A stage under ``_LIST_MAX`` =
128 live letters, and every later one, reads no table: it folds the letters'
coordinate tuples in Python through the group law's memoized transitions
(``halving._list_fold``), where a pair loop costs less than a stage's fixed
numpy calls.

Each group is one law class in ``autgrp.halving``, written on a tuple with
one entry per coordinate, which runs unchanged on ints and on arrays:
``_derive`` runs it on one numpy array per coordinate over every letter pair
and representative to build the tables, and ``_check_tables`` to check them.
The class also holds the array and pair folds and the seed letters, so this
module adds only the tables and the prefix sums (``_prefix_sum``).  An
instance's ``ops`` is the group's one law object, ``halving._make_law``.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Optional, Sequence, Union

import numpy as np

from .automata import _parse_seq, _spell
from .errors import AutomatonFormatError, BudgetExceeded, ClosureFailure, UnknownLetter
from .halving import _LIST_MAX, _canonical_kind, _list_fold, _make_law, run_stages
from .solvers import StepReport
from .words import DEFAULT_BALL_BUDGET

_CLOSURE_ROUNDS = 12
_MAX_LETTERS = 4096
# Residue arrays from this length up are prefix-summed on packed bytes
# (``_packed_prefix``), shorter ones by a uint8 cumsum, a scalar loop at
# about 3 ns a value.  On a 2-vCPU x86 Xeon the two broke even at 2,048
# values (6.1 and 6.2 us); the packed scan took 5.4 against 1.3 us at 256 and
# 22 against 88 us at 32,768.
_PACKED_MIN = 2048
_BYTE_ONES = np.uint64(0x0101010101010101)
_LOW_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)


def _packed_prefix(v: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums mod 16 of uint8 values below 16, as uint8.

    Eight values make one little-endian word.  Multiplying it by 0x0101...01
    leaves in byte i the sum of bytes 0..i, at most 8 * 15 = 120, so no byte
    carries into the next, and the top byte holds the word's total.  A uint8
    cumsum over those totals, an eighth as long, carries from word to word:
    masked mod 16 and multiplied back by 0x0101...01 it adds to every byte
    of the next word (at most 120 + 15 each), and a last mask keeps each
    byte mod 16.  A length that is no multiple of 8 is padded with zeros, at
    the cost of a copy.
    """
    n = len(v)
    if n % 8:
        v = np.concatenate([v, np.zeros(8 - n % 8, dtype=np.uint8)])
    w = (v.view("<u8") * _BYTE_ONES).astype("<u8", copy=False)
    carry = np.add.accumulate(w.view(np.uint8)[7::8], dtype=np.uint8)
    carry &= 15
    w[1:] += carry[:-1] * _BYTE_ONES
    w &= _LOW_NIBBLES
    return w.view(np.uint8)[:n]


def _prefix_sum(v: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of uint8 values below 16, as uint8, exact in
    their low four bits: the packed scan from ``_PACKED_MIN`` values up (the
    pair fold pads those to whole words), else a uint8 cumsum, which wraps
    mod 256 (``np.add.accumulate``: ``np.cumsum``'s wrapper adds about 2 us
    a call)."""
    if len(v) < _PACKED_MIN:
        return np.add.accumulate(v, dtype=np.uint8)
    return _packed_prefix(v)


class TableCheck:
    """Result of re-deriving the rewrite table from coordinates."""

    __slots__ = ("passed", "witnesses")

    def __init__(self, passed: bool, witnesses: list):
        self.passed = passed
        self.witnesses = witnesses

    def __bool__(self) -> bool:
        return self.passed

    def __repr__(self):
        if self.passed:
            return "TableCheck(passed)"
        return f"TableCheck(failed, {len(self.witnesses)} witnesses, first={self.witnesses[0]!r})"


class NilpotentInstance:
    """Letters, coset representatives, and rewrite tables for one group."""

    __slots__ = (
        "name",
        "ops",
        "letters",
        "coords",
        "letter_names",
        "e_index",
        "inverse_index",
        "gen_index",
        "act",
        "c_tab",
        "y_tab",
        "pair_cols",
        "_name_index",
        "_coord_index",
        "_byte_index",
    )

    def __init__(self, ops, letter_coords: list[tuple[int, ...]]):
        self.name = ops.name
        self.ops = ops
        try:
            self.letters = tuple(tuple(map(operator.index, c)) for c in letter_coords)
        except TypeError:
            raise AutomatonFormatError("a letter's coordinates must be integers") from None
        for c in self.letters:
            if len(c) != ops.dim:
                raise AutomatonFormatError(f"letter {c} has {len(c)} coordinates, {ops.name} takes {ops.dim}")
            if any(abs(v) > ops.coord_bound for v in c):
                raise AutomatonFormatError(f"letter {c} is past {ops.name}'s bound {ops.coord_bound} for 64-bit tables")
        self.coords = np.asarray(self.letters, dtype=np.int64)
        self.coords.flags.writeable = False
        self._coord_index = {c: i for i, c in enumerate(self.letters)}
        if len(self._coord_index) != len(self.letters):
            raise AutomatonFormatError("duplicate letters")
        self.letter_names = tuple(map(ops.letter_name, self.letters))
        self._name_index = {n: i for i, n in enumerate(self.letter_names)}
        # one-character letter names by byte value, -1 for everything else
        self._byte_index = np.full(256, -1, dtype=np.int64)
        for n, i in self._name_index.items():
            if len(n) == 1 and n.isascii():
                self._byte_index[ord(n)] = i
        self.e_index = self._coord_index.get(ops.identity)
        if self.e_index is None:
            raise AutomatonFormatError(f"letter set has no identity letter {ops.identity}")
        inv_idx = []
        for g in self.letters:
            key = ops.inverse(g)
            got = self._coord_index.get(key)
            if got is None:
                raise AutomatonFormatError(f"letter set is not closed under inversion: missing {key}")
            inv_idx.append(got)
        self.inverse_index = np.asarray(inv_idx, dtype=np.int64)
        self.gen_index = {}
        for gname, gcoords in ops.gens:
            gi = self._coord_index.get(tuple(gcoords))
            if gi is None:
                raise ClosureFailure(f"generator {gname} missing from letter set")
            self.gen_index[gname] = gi
            self.gen_index[gname.upper()] = int(self.inverse_index[gi])
        self.gen_index["e"] = self.e_index
        self.act = self.c_tab = self.y_tab = self.pair_cols = None

    # -- word handling -------------------------------------------------

    @property
    def n_letters(self) -> int:
        return len(self.letters)

    @property
    def n_reps(self) -> int:
        return self.ops.n_reps

    @property
    def rep_e(self) -> int:
        return 0

    def rep_name(self, idx: int) -> str:
        return self.ops.letter_name(self.ops.rep_at(int(idx)))

    def parse(self, word: Union[str, Sequence]) -> np.ndarray:
        """Letter indices of a word, as a new int64 array.

        An integer array and a string of one-character ASCII letters have
        fast paths; every other word goes to the automata's parser
        (``automata._parse_seq``), in the forms ``MealyAutomaton.parse_word``
        takes.  Raises UnknownLetter for a name or index that is not a
        letter, AutomatonFormatError for what is no word.
        """
        out = self._indices(word)
        return out.copy() if out is word else out

    def _indices(self, word) -> np.ndarray:
        """``parse`` that hands back a checked int64 array word itself, not a copy."""
        if isinstance(word, np.ndarray) and word.dtype.kind in "iu":
            if word.ndim != 1:
                raise AutomatonFormatError(f"integer word must be a 1-D array, not shape {word.shape}")
            out = word.astype(np.int64, copy=False)
            if len(out) and not 0 <= out.min() <= out.max() < self.n_letters:  # the first bad letter is named
                raise UnknownLetter(int(word[np.flatnonzero((out < 0) | (out >= self.n_letters))[0]]))
            return out
        if isinstance(word, str) and word.isascii():
            out = self._byte_index.take(np.frombuffer(word.encode("ascii"), np.uint8))
            if (out >= 0).all():
                return out
            # whitespace, a multi-character name or a bad character
        return np.array(_parse_seq(word, self.letter_names, self._name_index, "letter"), dtype=np.int64)

    def word_names(self, word) -> tuple[str, ...]:
        idxs = self.parse(word)
        return tuple(self.letter_names[int(i)] for i in idxs)

    def word_str(self, word) -> str:
        return _spell(self.word_names(word)) or "-"

    # -- coordinate oracle ----------------------------------------------

    def word_value(self, word) -> tuple[int, ...]:
        idxs = self.parse(word)
        if len(idxs) == 0:
            return self.ops.identity
        return tuple(self.ops.fold(self.coords.take(idxs, axis=0))[-1].tolist())

    def is_trivial(self, word) -> bool:
        return all(v == 0 for v in self.word_value(word))


def _letter_index(inst: NilpotentInstance, C) -> np.ndarray:
    """Letter index of every element of C, one array per coordinate, -1 where
    the element is no letter.

    Each coordinate is read by its rank among the letters' distinct values on
    that axis (``_rank``), a value that is none of them ranking one past
    them all; one int64 table over that rank box, -1 in every slot no letter
    fills, gives the index, so an element off the letters' values can never
    alias a letter.  A rank box past ``DEFAULT_BALL_BUDGET`` slots raises
    BudgetExceeded before it is allocated.
    """
    cols = list(inst.coords.T)
    # not np.unique: its first call imports numpy.ma, about 9 ms of set-up
    axes = [np.array(sorted(set(v.tolist())), dtype=v.dtype) for v in cols]
    shape = [len(u) + 1 for u in axes]
    if math.prod(shape) > DEFAULT_BALL_BUDGET:
        raise BudgetExceeded(DEFAULT_BALL_BUDGET, "letter box")
    table = np.full(shape, -1, dtype=np.int64)
    table[tuple(_rank(v, u) for v, u in zip(cols, axes))] = np.arange(inst.n_letters)
    key = np.zeros(C[0].shape, dtype=np.int64)
    for v, u, n in zip(C, axes, shape):
        key *= n
        key += _rank(v, u)
    return table.reshape(-1).take(key)


def _rank(v: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Each value's index in the sorted distinct ``axis``, len(axis) if absent."""
    r = np.searchsorted(axis, v)
    r[axis.take(r, mode="clip") != v] = len(axis)
    return r


def _columns(inst: NilpotentInstance, dtype) -> tuple[np.ndarray, ...]:
    """The letters' coordinates, one contiguous array per coordinate."""
    return tuple(np.ascontiguousarray(inst.coords.T, dtype=dtype))


def _derive(inst: NilpotentInstance):
    """What the tables and their check read, each element one array per
    coordinate from the group law run on arrays: x*a*b for every letter pair
    (a, b) and representative x, the representative Y of x*a*b, the letter
    index of its c = phi^-1(x*a*b*Y^-1) (-1 outside the set), and the sorted
    coordinates of the c's that are no letter.

    The arrays are int32 when the letters' coordinates are small enough for
    every product to fit.
    """
    law = inst.ops
    dtype = np.int32 if np.abs(inst.coords).max() < 2**12 else np.int64
    letters = _columns(inst, dtype)
    x = law.rep_at(np.arange(law.n_reps, dtype=dtype))
    XA = law.product(x, tuple(v[:, None] for v in letters))  # [a, x]
    T = law.product(tuple(v[:, None] for v in XA), tuple(v[None, :, None] for v in letters))  # [a, b, x]
    Y = law.rep(T)
    C = law.unphi(law.product(T, law.inverse(Y)))
    c_idx = _letter_index(inst, C)
    outside = c_idx < 0
    missing = sorted(set(zip(*(v[outside].tolist() for v in C))))  # few elements: sort only those
    return T, Y, c_idx, missing


def _fill_tables(inst: NilpotentInstance, derived=None) -> tuple[list[tuple[int, ...]], tuple]:
    """Populate y_tab/c_tab/pair_cols from ``_derive(inst)``, or from
    ``derived`` when the caller already holds it, and act, the coset action
    x -> rep(x a), which is y_tab's identity column: x a e = x a.

    Returns the coordinates of any produced letter that falls outside the set
    (those entries get the identity as a placeholder, which
    verify_table_closure then flags) and the x*a*b cube the tables came from.
    """
    law = inst.ops
    T, Y, c_idx, missing = derived or _derive(inst)
    inst.y_tab = law.rep_index(Y).astype(np.int32)
    inst.act = inst.y_tab[:, inst.e_index, :].T.copy()  # (nX, nN), C order
    inst.c_tab = np.where(c_idx < 0, inst.e_index, c_idx).astype(np.int32)
    # a*b for every pair a nN + b, the cube under the identity, as uint8 residues
    inst.pair_cols = tuple((v[:, :, inst.rep_e] & law.residue_mask).astype(np.uint8, order="C").ravel() for v in T)
    return missing, T


def build_instance(kind: str) -> NilpotentInstance:
    """Construct letters, coset action, and rewrite tables for z4, z2, or heis.

    Starts from the generators and grows the letter set until every c of the
    rewrite table lies in it, each round finding the c's letters by a dense
    lookup over the set's coordinate box; only the round that finds them all
    builds the tables, and it verifies them.  Gives up after a bounded number
    of rounds.  Memoized per kind, aliases included: every caller shares one
    instance, whose tables are read-only.
    """
    return _shared_instance(_canonical_kind(kind))


@functools.lru_cache(maxsize=None)
def _shared_instance(kind: str) -> NilpotentInstance:
    ops = _make_law(kind)
    letters = ops.seed_letters()
    for _ in range(_CLOSURE_ROUNDS):
        inst = NilpotentInstance(ops, letters)
        derived = _derive(inst)
        missing = derived[-1]
        if not missing:
            _fill_tables(inst, derived)
            if _check_tables(inst, derived):
                for table in (inst.act, inst.c_tab, inst.y_tab, inst.inverse_index, *inst.pair_cols):
                    table.flags.writeable = False
                return inst
        grown = set(letters).union(missing, map(ops.inverse, missing))
        if len(grown) > _MAX_LETTERS:
            raise ClosureFailure(f"letter set exceeded {_MAX_LETTERS} elements")
        if len(grown) == len(letters):
            raise ClosureFailure("table verification failed on a stable letter set")
        letters = sorted(grown)
    raise ClosureFailure(f"letter set failed to close in {_CLOSURE_ROUNDS} rounds")


build_instance.cache_info = _shared_instance.cache_info


def instance_with_letters(kind: str, letter_coords) -> NilpotentInstance:
    """Build an instance over a caller-chosen letter set without growing it.

    Out-of-set rewrite results are stored as the identity, so the result may
    be semantically wrong; run verify_table_closure to find out.  Meant for
    probing verification, not for solving.
    """
    inst = NilpotentInstance(_make_law(kind), letter_coords)
    _fill_tables(inst)
    return inst


def verify_table_closure(inst: NilpotentInstance) -> TableCheck:
    """Re-derive every (a, b, x) entry from coordinates and confirm the stored
    pair satisfies phi(c)*y = x*a*b, with y the representative of x*a*b and c
    inside the letter set."""
    return _check_tables(inst, _derive(inst))


def _check_tables(inst: NilpotentInstance, derived) -> TableCheck:
    """verify_table_closure against ``derived``, ``_derive(inst)``: its x*a*b
    cube T, their representatives Y and the letter index of each c; the
    stored c and y are gathered a coordinate at a time."""
    law = inst.ops
    T, Y, c_idx, _ = derived
    dtype = T[0].dtype
    phi_c = tuple(v.take(inst.c_tab) for v in law.phi(_columns(inst, dtype)))
    y = tuple(v.take(inst.y_tab) for v in law.rep_at(np.arange(law.n_reps, dtype=dtype)))
    lhs = law.product(phi_c, y)
    good = (c_idx >= 0) & (inst.y_tab == law.rep_index(Y))
    for u, v in zip(lhs, T):
        good &= u == v
    if good.all():
        return TableCheck(True, [])
    witnesses = []
    bad = np.argwhere(~good)
    for ai, bi, xi in bad[:16]:
        witnesses.append(
            (inst.letter_names[int(ai)], inst.letter_names[int(bi)], inst.rep_name(int(xi)))
        )
    return TableCheck(False, witnesses)


def coset_scan(inst: NilpotentInstance, word) -> str:
    """Name of the coset representative of the word's image.

    The tape machine threads the representative left to right through the
    action table ``act``, one letter at a time (``act[x, a]`` is
    ``y_tab[a, e, x]``, the representative of x*a); this reads the same
    representative off one pair fold of the non-identity letters
    (``_pair_fold``), that of their whole product.
    """
    idxs = inst._indices(word)
    live = idxs.take(np.flatnonzero(idxs != inst.e_index))
    return inst.rep_name(_pair_fold(inst, live)[0] if len(live) else inst.rep_e)


def _pair_fold(inst: NilpotentInstance, live: np.ndarray) -> tuple[int, Optional[np.ndarray]]:
    """One stage over the non-identity letters ``live``, folded pair by pair.

    Returns the coset representative index of their product and, if that is
    the identity's, the c letter of every pair in tape order, else None.
    Pair i is (live[2i], live[2i+1]), an odd last letter paired with e, read
    under the representative of the product of the pairs before it; its
    entry of the flattened c_tab is (a nN + b) nX + x.  The pair codes are
    int64 (``take`` casts any other index dtype to intp first), padded for
    the packed scan to whole words of 8 with the (e, e) code; a prefix sum
    reads nothing after its place, so no representative read moves.
    """
    k = (len(live) + 1) // 2
    pair = np.empty(k if k < _PACKED_MIN else -(-k // 8) * 8, dtype=np.int64)
    np.multiply(live[0::2], inst.n_letters, out=pair[:k])
    pair[: len(live) // 2] += live[1::2]
    if len(live) % 2:
        pair[k - 1] += inst.e_index
    pair[k:] = inst.e_index * (inst.n_letters + 1)
    reps = inst.ops.pair_reps([col.take(pair) for col in inst.pair_cols], _prefix_sum)
    x = int(reps[k - 1])
    if x != inst.rep_e:
        return x, None
    pair = pair[:k]
    pair *= inst.n_reps
    pair[1:] += reps[: k - 1]
    return x, inst.c_tab.take(pair)


def _live(inst: NilpotentInstance, letters: np.ndarray):
    """The non-identity letters of an index array, in tape order: an index
    array from ``_LIST_MAX`` letters up, else the coordinate tuples
    ``_list_fold`` reads."""
    # take, not letters[mask]: boolean indexing is several times slower here
    live = letters.take(np.flatnonzero(letters != inst.e_index))
    if len(live) < _LIST_MAX:
        return list(map(inst.letters.__getitem__, live.tolist()))
    return live


def halve(inst: NilpotentInstance, word) -> tuple[str, ...]:
    """Rewrite a word in the endomorphism image to one spelling its preimage;
    the output has the same length and about half the non-identity letters."""
    idxs = inst.parse(word)
    at = np.flatnonzero(idxs != inst.e_index)
    if len(at):
        _, c = _pair_fold(inst, idxs[at])
        if c is None:
            raise AutomatonFormatError("word is not in the endomorphism image")
        idxs[at] = inst.e_index
        # each c letter lands on its pair's second letter, or on the lone last one
        idxs[at[np.minimum(np.arange(1, len(at) + 1, 2), len(at) - 1)]] = c
    return tuple(map(inst.letter_names.__getitem__, idxs.tolist()))


def solve_nilpotent(inst: NilpotentInstance, word) -> StepReport:
    """Decide triviality by repeated halving, counting tape-machine steps in
    one ``StageRecord`` per stage (``halving.run_stages``): three scans of the
    full tape plus one write per rewritten symbol.

    Only the live (non-identity) letters are simulated: each stage folds them
    once, a pair at a time, for both the coset scan and the pair rewrite (see
    ``_pair_fold``), and the next stage keeps the non-identity c letters.
    Once a stage has fewer than ``_LIST_MAX`` live letters, it and every
    later stage fold their coordinate tuples in Python (``_list_fold``)
    instead.  An int64 array word is read in place, not copied.
    """
    word = inst._indices(word)

    def fold(live):
        if isinstance(live, list):
            return _list_fold(inst.ops, live)
        x, c = _pair_fold(inst, live)
        return inst.ops.rep_at(x), None if c is None else _live(inst, c)

    return run_stages(inst.ops, len(word), _live(inst, word), fold)


def random_word(inst: NilpotentInstance, length: int, rng) -> str:
    """Uniform word over the instance's input generators and their inverses."""
    pool = ["e"]
    for gname, _ in inst.ops.gens:
        pool.extend([gname, gname.upper()])
    return "".join(rng.choices(pool, k=length))


def random_trivial_word(inst: NilpotentInstance, length: int, rng) -> str:
    """Trivial word of the requested length (rounded down to even): a random
    half followed by its reversed formal inverse."""
    half = rng.choices([g for g, _ in inst.ops.gens], k=length // 2)
    flips = rng.choices((False, True), k=len(half))
    names = [g.upper() if f else g for g, f in zip(half, flips)]
    invs = [g if f else g.upper() for g, f in zip(half, flips)]
    return "".join(names) + "".join(reversed(invs))
