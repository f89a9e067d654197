"""The array stage engine: the phases of a stage of the staged solvers as
numpy passes over the tape.

The tape is one letter array plus an array of segment lengths.  The
rewrite phase cuts the kept segments into units (full blocks and tail
letters), composes their branch maps by a prefix scan over the whole tape,
rejects on a segment whose map is not the identity, and spells each
branch's output from a table of units and branches, branch by branch so
that temporaries stay one unit array wide.  A table within
``DEFAULT_TABLE_BUDGET`` holds every unit from its build; a larger one,
whose cells still fit int32, holds the units rewrites have met, found
through a sorted code index, and walks the block codes it lacks when a
rewrite meets them.  Steps and table reads are counted once, by
``solvers._drive``, for both engines.

Gathers go through ``take`` and selections through ``compress``: on the
int16 index arrays and data-dependent masks of a stage, subscripting was
1.7x (gathers) and 4x (masks) slower, and the branch-map scan packs its
flags into bytes so that its sequential part runs over an eighth of them.

``solvers`` imports this module on the first tape long enough to use it,
so short words and commands that never solve one do not load it.  The
engine is chosen per stage: once a rewrite leaves fewer than
``solvers._VECTOR_MIN_LETTERS`` letters, ``_ArrayTape.lists`` hands the
tape to the Python loop for the rest of the solve.
"""

from __future__ import annotations

import ctypes
import itertools
import os
from typing import Optional, Union

import numpy as np

from .contraction import DEFAULT_TABLE_BUDGET, ContractionCertificate
from .solvers import _VECTOR_MIN_LETTERS, TapeLike, _ListTape, _parse_tape, _Rules

# Branch maps compose through the product table of the permutation group
# they generate; a larger group keeps its certificate on the Python tape.
_MAX_BRANCH_GROUP = 256
# Unit codes times branches must fit int32; past that no table is built.
_MAX_CELLS = 2**31 - 1

# glibc malloc thresholds, fixed at the ceilings its dynamic thresholds
# grow to on 64-bit hosts: arrays below 32 MiB come from the heap, and up
# to 64 MiB freed at its top stays there for reuse.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20
_MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


def _keep_freed_arrays() -> None:
    """Keep the memory of freed arrays in the process heap.

    Every stage frees the previous tape and its temporaries, a few hundred
    KB to a few MB.  Under glibc's dynamic thresholds the top of the heap
    went back to the kernel after a stage and was faulted in, zeroed, again
    by the next: 700 to 2100 minor page faults, by the heap's history, per
    pass over the benchmark's stage-rewrite corpus, at 2-3 us each on a
    2-vCPU KVM guest.  With the thresholds fixed a pass takes a handful.
    Not done when the environment sets malloc's own parameters, nor off
    glibc.
    """
    if any(v in os.environ for v in _MALLOC_ENV) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


_keep_freed_arrays()


def _byte_scans() -> tuple[np.ndarray, np.ndarray]:
    """Per byte of ``np.packbits`` order (first flag in the top bit): the
    byte of its inclusive prefix parities, and its parity."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    prefix = np.bitwise_xor.accumulate(bits, axis=1)
    return np.packbits(prefix, axis=1).ravel(), prefix[:, 7].copy()


_BYTE_PREFIX, _BYTE_PARITY = _byte_scans()


def _prefix_parity(flags: np.ndarray) -> np.ndarray:
    """Inclusive prefix xor of 0/1 flags, as uint8.  The sequential scan
    runs over packed bytes, an eighth of the flags."""
    packed = np.packbits(flags)
    carry = np.bitwise_xor.accumulate(_BYTE_PARITY.take(packed))
    scan = _BYTE_PREFIX.take(packed)
    scan[1:] ^= carry[:-1] * np.uint8(255)
    return np.unpackbits(scan, count=len(flags))


class DenseTable:
    """A rewriter's table in array form: one row per unit code it holds,
    and one cell per row and branch.

    A unit is a full block, coded base |S| with its first letter most
    significant (identity letters included), or a single tail letter, coded
    ``|S|**L + letter``.  ``spelled`` holds one letter table per strip mode,
    tail identities kept or stripped: cell ``row * branches + x`` is the
    section of the row's unit on branch x, padded with -1 to the longest.
    Each row also carries the id of its unit's branch map in the group those
    maps generate.

    A table built ``whole`` holds every code, so a code is its own row and
    ``keys`` is None.  Otherwise ``keys`` lists the codes held, ascending,
    and ``order`` the row of each: the tail units from the start, and each
    block code from the first rewrite that meets it, which ``rows`` walks
    and appends after the ``held`` rows, in arrays whose capacity doubles,
    so a fill copies only the index and not the rows held before.
    """

    def __init__(self, rw, whole: bool):
        ctx = rw._ctx
        B = rw.automaton
        n_states = len(B.states)
        R = rw.branches
        self.closure = rw.closure
        self.block = rw.block
        self.branches = R
        self.n_states = n_states
        self.n_codes = n_states**rw.block
        n_cells = (self.n_codes + n_states) * R
        self.dtype = np.int16 if n_states < 2**15 else np.int32
        self.cell_dtype = np.int16 if n_cells < 2**15 else np.int32
        self._reps, self._nb = ctx.ball.reps, ctx.ball.size
        self._trans = np.array([ctx.trans[s] for s in range(n_states)], dtype=np.int32)

        tails = np.asarray(ctx.seck, dtype=self.dtype).reshape(-1, 1)
        stripped = tails.copy()
        if B.identity is not None:
            stripped[tails == B.identity] = -1
        self.spelled = (tails, stripped)
        self.maxlen = 1
        self.held = n_states
        self.keys = np.arange(self.n_codes, self.n_codes + n_states, dtype=self.cell_dtype)
        self.order = np.arange(n_states, dtype=self.cell_dtype)
        self._init_group(ctx.outk)
        self._init_short_walk(rw)
        self._init_byte_index(rw.closure)
        if whole and self.group_order <= _MAX_BRANCH_GROUP:
            cells, gid = self._walk(np.arange(self.n_codes))
            self.spelled = tuple(np.concatenate((cells, t)) for t in self.spelled)
            self.unit_gid = np.concatenate((gid, self.unit_gid))
            self.held += self.n_codes
            self.keys = self.order = self._trans = None

    def _init_group(self, tail_maps: list) -> None:
        """Close the tail units' branch maps, which generate every unit's,
        under composition and number the group: id 0 is the identity;
        ``prod[a * G + b]`` is "a, then b"."""
        R = self.branches
        gens = {tuple(m) for m in tail_maps}
        ident = tuple(range(R))
        elems = {ident: 0}
        todo = [ident]
        while todo and len(elems) <= _MAX_BRANCH_GROUP:
            a = todo.pop()
            for g in gens:
                ag = tuple(g[v] for v in a)
                if ag not in elems:
                    elems[ag] = len(elems)
                    todo.append(ag)
        self.group_order = G = len(elems)
        if G > _MAX_BRANCH_GROUP:
            return
        self._elems = elems
        self.unit_gid = np.array([elems[tuple(m)] for m in tail_maps], dtype=np.uint8)
        img = list(elems)
        self.prod = np.array(
            [elems[tuple(b[v] for v in a)] for a in img for b in img], dtype=np.int16
        )
        self.image_t = np.array(img, dtype=self.cell_dtype).T.copy()  # image_t[x, g] = g(x)

    def _walk(self, codes: np.ndarray):
        """The cells and branch-map ids of block ``codes``: the walk of each
        through the certificate's ball, every branch at once, as
        ``ContractionCertificate.sections`` reads it.  Cells longer than the
        held ones widen the held tables first."""
        n, L, R, nb = self.n_states, self.block, self.branches, self._nb
        cur = np.tile(np.arange(R, dtype=np.int32) * nb, (len(codes), 1))
        for d in range(L):
            cur = self._trans[(codes // n ** (L - 1 - d) % n)[:, None], cur]
        elem = (cur % nb).ravel()
        used = np.zeros(nb, dtype=bool)
        used[elem] = True
        used = np.flatnonzero(used)
        remap = np.zeros(nb, dtype=np.int32)
        remap[used] = np.arange(len(used))
        reps = [self._reps[e] for e in used.tolist()]
        width = max(1, max(map(len, reps)))
        if width > self.maxlen:
            pad = ((0, 0), (0, width - self.maxlen))
            self.spelled = tuple(np.pad(t, pad, constant_values=-1) for t in self.spelled)
            self.maxlen = width
        padded = np.full((len(reps), self.maxlen), -1, dtype=self.dtype)
        for i, r in enumerate(reps):
            padded[i, : len(r)] = r
        cells = padded.take(remap.take(elem), axis=0)
        gid = np.array([self._elems[m] for m in map(tuple, (cur // nb).tolist())], dtype=np.uint8)
        return cells, gid

    def _fill(self, codes: np.ndarray) -> None:
        """Append the rows of block ``codes``, ascending and none held yet,
        and index them."""
        cells, gid = self._walk(codes)
        R, start, end = self.branches, self.held, self.held + len(codes)
        if end > len(self.unit_gid):
            cap = min(max(2 * len(self.unit_gid), end), self.n_codes + self.n_states)
            self.spelled = tuple(_grown(t, cap * R) for t in self.spelled)
            self.unit_gid = _grown(self.unit_gid, cap)
        for t in self.spelled:
            t[start * R : end * R] = cells
        self.unit_gid[start:end] = gid
        self.held = end
        at = self.keys.searchsorted(codes)
        self.keys = np.insert(self.keys, at, codes)
        self.order = np.insert(self.order, at, np.arange(start, end, dtype=self.cell_dtype))

    def rows(self, code: np.ndarray) -> np.ndarray:
        """The row of each unit code, first filling the rows of block codes
        not held: the codes themselves on a table built whole."""
        if self.keys is None:
            return code
        at = self.keys.searchsorted(code)  # the tail codes, largest of all, are always held
        new = self.keys.take(at) != code
        if new.any():
            self._fill(np.unique(code.compress(new)))
            at = self.keys.searchsorted(code)
        return self.order.take(at)

    def _init_short_walk(self, rw) -> None:
        """``step[element, letter]``: the ball walk of segments shorter than
        a block (identity letters stay put)."""
        if self.block == 1:
            return
        ball = rw.ball
        B = rw.automaton
        step = np.full((ball.size, self.n_states), -1, dtype=np.int32)
        inner = [el for el, edges in enumerate(ball.edges) if edges is not None]
        step[np.ix_(inner, ball.gens)] = [ball.edges[el] for el in inner]
        if B.identity is not None:
            step[:, B.identity] = np.arange(ball.size)
        self.step = step

    def _init_byte_index(self, ic) -> None:
        """A 256-entry map from ASCII codes to letters, -2 for '#'; left
        None when some longer name is spelled by one-character names, since
        such a segment parses as that one name."""
        single = {n: i for n, i in ic._names.items() if len(n) == 1 and n.isascii()}
        self.byte_index = None
        if any(len(n) > 1 and all(ch in single for ch in n) for n in ic._names):
            return
        self.byte_index = np.full(256, -1, dtype=self.dtype)
        for n, i in single.items():
            self.byte_index[ord(n)] = i
        self.byte_index[ord("#")] = -2

    def parse(self, tape: TapeLike) -> tuple[np.ndarray, np.ndarray]:
        """Letters of every nonempty segment, concatenated, and the segment
        lengths.  ASCII strings of one-character names go through the byte
        index; anything else, or a string it cannot read, through
        ``InverseClosure.parse``, which names the first bad letter."""
        if self.byte_index is not None and isinstance(tape, str) and tape.isascii():
            codes = self.byte_index.take(np.frombuffer(tape.encode("ascii"), np.uint8))
            if not (codes == -1).any():
                seps = np.flatnonzero(codes == -2)
                bounds = np.concatenate(([-1], seps, [len(codes)]))
                lens = (np.diff(bounds) - 1).astype(np.int32)
                return (np.compress(codes != -2, codes) if len(seps) else codes), np.compress(lens > 0, lens)
        segments = _parse_tape(self.closure.parse, tape)
        n = sum(len(s) for s in segments)
        letters = np.fromiter(itertools.chain.from_iterable(segments), self.dtype, count=n)
        return letters, np.array([len(s) for s in segments], dtype=np.int32)

    def short_trivial(self, letters: np.ndarray, lens: np.ndarray, short: np.ndarray) -> bool:
        """Whether every segment shorter than a block walks the ball back
        to the identity."""
        starts = (np.cumsum(lens) - lens)[short]
        todo = lens[short]
        cur = np.zeros(len(todo), dtype=np.int32)
        for j in range(int(todo.max())):
            live = todo > j
            cur[live] = self.step[cur[live], letters[starts[live] + j]]
        return not cur.any()

    def units(self, letters: np.ndarray, lens: np.ndarray):
        """Unit codes and units per segment of a tape whose segments are all
        at least a block long.

        Block codes come from L - 1 multiply-adds of shifted letter arrays:
        strided over the blocks of a one-segment tape, and at every letter
        of a longer one, whose units are then picked by their start, the
        sum of the sizes of the units before (L for a block, 1 for a tail
        letter); only the tail units are counted per segment."""
        L, n_states, dtype = self.block, self.n_states, self.cell_dtype
        if L == 1:
            return letters.astype(dtype), lens
        blocks = lens // L
        tail = lens - blocks * L
        units = blocks + tail
        if len(lens) == 1:
            cut = int(blocks[0]) * L
            code = letters[0:cut:L].astype(dtype)
            for d in range(1, L):
                code *= n_states
                code += letters[d:cut:L]
            tail_code = letters[cut:].astype(dtype)
            tail_code += self.n_codes
            return np.concatenate((code, tail_code)), units
        n = len(letters)
        block_code = np.zeros(n, dtype=dtype)  # the block starting at each letter; 0 where none fits
        head = block_code[: n - L + 1]
        head[:] = letters[: n - L + 1]
        for d in range(1, L):
            head *= n_states
            head += letters[d : n - L + 1 + d]
        last = np.cumsum(units, dtype=np.int32) - 1
        tail_unit = np.concatenate([last.compress(tail > t) - t for t in range(L - 1)])
        size = np.full(int(last[-1]) + 1, L, dtype=np.int32)
        size.put(tail_unit, 1)
        start = np.cumsum(size, dtype=np.int32)
        start -= size
        code = block_code.take(start)
        tail_code = letters.take(start.take(tail_unit)).astype(dtype)
        tail_code += self.n_codes
        code.put(tail_unit, tail_code)
        return code, units

    def branch_prefix(self, code: np.ndarray, last: np.ndarray):
        """Per unit, the id of the branch map of the units before it in its
        segment; None when some segment's whole map is not the identity.

        The scan runs over the whole tape: the product up to a segment's
        end is the product of the segment totals so far, so it is the
        identity at every segment end exactly when every total is, and then
        the whole-tape prefix is the prefix within each segment."""
        gid = self.unit_gid.take(code)
        if self.group_order <= 2:  # ids 0 and 1 multiply as xor
            acc = _prefix_parity(gid)
            if acc.take(last).any():
                return None
            acc ^= gid
            return acc
        G = self.group_order
        acc = gid.astype(np.int32)
        d = 1
        while d < len(acc):  # inclusive prefix products by doubling
            acc[d:] = self.prod.take(acc[:-d] * G + acc[d:])
            d *= 2
        if acc.take(last).any():
            return None
        before = np.zeros_like(gid)
        before[1:] = acc[:-1]
        return before

    def spell(self, cells: np.ndarray, first: np.ndarray, strip: bool):
        """The letters of ``cells`` concatenated, and their total length
        per segment."""
        out = self.spelled[strip].take(cells, axis=0)
        kept = (out >= 0).ravel()
        return np.compress(kept, out), np.add.reduceat(kept, first * self.maxlen, dtype=np.int32)


def _grown(held: np.ndarray, n: int) -> np.ndarray:
    """``held`` in a first axis of length ``n``; the entries past it are
    unset until rows are appended there."""
    out = np.empty((n,) + held.shape[1:], dtype=held.dtype)
    out[: len(held)] = held
    return out


def _cert_table(cert: ContractionCertificate) -> Optional[DenseTable]:
    """The table of a certificate whose cells fit int32 and whose branch
    maps generate at most ``_MAX_BRANCH_GROUP`` permutations: built whole
    when every block code times the branches fits ``DEFAULT_TABLE_BUDGET``,
    and filled as rewrites meet block codes otherwise."""
    n_codes = len(cert.automaton.states) ** cert.block
    if (n_codes + len(cert.automaton.states)) * cert.branches > _MAX_CELLS:
        return None
    table = DenseTable(cert, whole=n_codes * cert.branches <= DEFAULT_TABLE_BUDGET)
    return table if table.group_order <= _MAX_BRANCH_GROUP else None


def dense_table(rw) -> Optional[DenseTable]:
    """The rewriter's table, built on first use and kept on the rewriter;
    None when its cells pass int32 or its branch group is too big."""
    if rw.dense_table is None:
        rw.dense_table = _cert_table(rw) or False
    return rw.dense_table or None


class _ArrayTape:
    """The array tape: the letters of every segment in one array, and the
    segment lengths.  With ``hand_off``, which only ``solvers._run_stages``
    sets, a rewrite that leaves fewer than ``_VECTOR_MIN_LETTERS`` letters
    returns the Python engine's tape for the rest of the solve."""

    __slots__ = ("table", "array", "lens", "letters", "segments", "hand_off")

    def __init__(self, table: DenseTable, array: np.ndarray, lens: np.ndarray, hand_off: bool = False):
        self.table = table
        self.array = array
        self.lens = lens
        self.letters = len(array)
        self.segments = len(lens)
        self.hand_off = hand_off

    def max_segment(self) -> int:
        return int(self.lens.max()) if self.segments else 0

    def lists(self) -> _ListTape:
        """The same tape as the Python engine's lists of letters."""
        flat = self.array.tolist()
        lists, start = [], 0
        for n in self.lens.tolist():
            lists.append(flat[start : start + n])
            start += n
        return _ListTape(lists)

    def blocks(self, L: int) -> int:
        return int((self.lens // L).sum())

    def drop_short(self, rw) -> Optional[_ArrayTape]:
        """The segments of at least a block, or None when a shorter one is
        nontrivial by the ball walk."""
        table, letters, lens = self.table, self.array, self.lens
        L = table.block
        if L == 1 or lens.min() >= L:
            return self
        short = lens < L
        if not table.short_trivial(letters, lens, short):
            return None
        return _ArrayTape(table, np.compress(np.repeat(~short, lens), letters), np.compress(~short, lens), self.hand_off)

    def rewrite(self, rw, rules: _Rules) -> Union[_ArrayTape, _ListTape, None]:
        """One block-rewrite pass: the nonempty outputs in branch-major
        order, or None when some segment permutes a branch.  Branches are
        spelled one at a time, so temporaries stay one unit array wide."""
        table, letters, lens = self.table, self.array, self.lens
        code, units = table.units(letters, lens)
        code = table.rows(code)
        last = np.cumsum(units) - 1
        before = table.branch_prefix(code, last)
        if before is None:
            return None
        strip = rules.method != "contracting"
        reset = rules.method == "polynomial"
        R = table.branches
        first = last - units + 1
        code *= R
        chunks, seg_lens = [], []
        for x in range(R):
            cells = table.image_t[x].take(before)  # the branch entering each unit
            cells += code
            out, seg_len = table.spell(cells, first, strip)
            del cells
            if reset:
                out, seg_len = _reset(out, seg_len, letters, lens)
            chunks.append(out)
            seg_lens.append(seg_len)
        del code, before
        seg_len = np.concatenate(seg_lens)
        out = _ArrayTape(table, np.concatenate(chunks), np.compress(seg_len > 0, seg_len), self.hand_off)
        return out.lists() if self.hand_off and out.letters < _VECTOR_MIN_LETTERS else out


def _reset(out: np.ndarray, seg_len: np.ndarray, letters: np.ndarray, lens: np.ndarray):
    """The reset rule on one branch: an output spelling its input segment
    becomes empty."""
    cand = np.flatnonzero(seg_len == lens)
    if not len(cand):
        return out, seg_len
    clen = seg_len[cand]
    off = np.cumsum(clen) - clen
    within = np.arange(int(clen.sum()), dtype=np.int32) - np.repeat(off.astype(np.int32), clen)
    out_at = np.repeat((np.cumsum(seg_len) - seg_len)[cand], clen) + within
    in_at = np.repeat((np.cumsum(lens) - lens)[cand], clen) + within
    same = np.logical_and.reduceat(out.take(out_at) == letters.take(in_at), off)
    if not same.any():
        return out, seg_len
    keep = np.ones(len(seg_len), dtype=bool)
    keep[cand[same]] = False
    return np.compress(np.repeat(keep, seg_len), out), np.where(keep, seg_len, 0)
