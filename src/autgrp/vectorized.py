"""The array stage engine: the phases of a stage of the staged solvers as
numpy passes over the tape.

The tape is one letter array plus an array of segment lengths.  The
rewrite phase cuts the kept segments into units (full blocks and tail
letters), composes their branch maps by a prefix scan over the whole tape,
rejects on a segment whose map is not the identity, and spells each
branch's output from a dense table of every unit and branch, branch by
branch so that temporaries stay one unit array wide.  Steps are counted
once, by ``solvers._drive``, for both engines; this module counts only the
table reads, ``branches`` per full block, as ``ContractionCertificate.entry``
counts them on the Python tape.

Gathers go through ``take`` and selections through ``compress``: on the
int16 index arrays and data-dependent masks of a stage, subscripting was
1.7x (gathers) and 4x (masks) slower, and the branch-map scan packs its
flags into bytes so that its sequential part runs over an eighth of them.

``solvers`` imports this module on the first tape long enough to use it,
so short words and commands that never solve one do not load it.
"""

from __future__ import annotations

import ctypes
import itertools
import os
from typing import Optional

import numpy as np

from .contraction import DEFAULT_TABLE_BUDGET, ContractionCertificate
from .solvers import StepReport, TapeLike, _drive, _parse_tape, _Rules

# Branch maps compose through the product table of the permutation group
# they generate; a larger group keeps its certificate on the Python tape.
_MAX_BRANCH_GROUP = 256

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
    """A rewriter's table in array form, over every unit code and branch.

    A unit is a full block, coded base |S| with its first letter most
    significant (identity letters included), or a single tail letter, coded
    ``|S|**L + letter``.  A cell ``code * branches + x`` holds the row of the
    unit's representative in the padded table ``reps`` and its length, with
    tail identities kept or stripped; when no representative is longer than
    one letter, ``letter`` holds it directly (-1 for the empty word).  Each
    unit code also carries the id of its branch map in the group those maps
    generate.
    """

    def __init__(self, rw, row: np.ndarray, nxt: np.ndarray, reps: list, tail_sec, tail_out):
        B = rw.automaton
        n_states = len(B.states)
        R = rw.branches
        self.closure = rw.closure
        self.block = rw.block
        self.branches = R
        self.n_states = n_states
        self.n_codes = len(row)
        n_cells = (self.n_codes + n_states) * R
        self.dtype = np.int16 if n_states < 2**15 else np.int32
        self.cell_dtype = np.int16 if n_cells < 2**15 else np.int32

        index = {rep: i for i, rep in enumerate(reps)}
        tail_sec = np.asarray(tail_sec, dtype=np.int64).reshape(n_states, R)
        tail_rows = [[index.setdefault((t,), len(index)) for t in srow] for srow in tail_sec.tolist()]
        self.row = np.concatenate([row, np.array(tail_rows, dtype=np.int32)]).ravel()
        reps = list(index)
        rep_len = np.array([len(r) for r in reps])
        self.maxlen = maxlen = max(1, int(rep_len.max()))
        padded = np.zeros((len(reps), maxlen), dtype=self.dtype)
        for i, r in enumerate(reps):
            padded[i, : len(r)] = r
        self.reps = padded.ravel()
        full = rep_len[self.row].astype(np.uint8 if maxlen < 256 else np.int32)
        stripped = full.copy()
        if B.identity is not None:
            stripped[self.n_codes * R :][(tail_sec == B.identity).ravel()] = 0
        self.length = (full, stripped)
        if maxlen == 1:
            first = padded[self.row, 0]
            self.letter = tuple(np.where(ln > 0, first, -1).astype(self.dtype) for ln in self.length)
        self._init_group(np.concatenate([nxt, tail_out]).astype(np.int64))
        self._init_short_walk(rw)
        self._init_byte_index(rw.closure)

    def _init_group(self, maps: np.ndarray) -> None:
        """Close the branch maps under composition and number the group:
        id 0 is the identity; ``prod[a * G + b]`` is "a, then b"."""
        R = self.branches
        gens = {tuple(m) for m in maps[self.n_codes :].tolist()}
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
        self.unit_gid = np.array([elems[m] for m in map(tuple, maps.tolist())], dtype=np.uint8)
        img = list(elems)
        self.prod = np.array(
            [elems[tuple(b[v] for v in a)] for a in img for b in img], dtype=np.int16
        )
        self.image_t = np.array(img, dtype=self.cell_dtype).T.copy()  # image_t[x, g] = g(x)

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
        """Unit codes, units per segment, and full blocks of a tape whose
        segments are all at least a block long."""
        L = self.block
        if L == 1:
            return letters.astype(self.cell_dtype), lens, len(letters)
        starts = (np.cumsum(lens) - lens).astype(np.int32)
        cut = lens // L * L
        local = np.arange(len(letters), dtype=np.int32) - np.repeat(starts, lens)
        in_block = local < np.repeat(cut, lens)
        head = np.flatnonzero(~in_block | (local % L == 0))
        del local
        blk = in_block.take(head)
        code = letters.take(head).astype(self.cell_dtype)
        # every unit is read as a block; a tail letter's reading runs past
        # its segment (clipped at the tape's end) and is replaced below
        block_code = code.copy()
        for d in range(1, L):
            block_code *= self.n_states
            block_code += letters.take(head + d, mode="clip")
        code += self.n_codes
        np.copyto(code, block_code, where=blk)
        return code, lens // L + (lens - cut), int(np.count_nonzero(blk))

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
        """The representatives of ``cells`` concatenated, and their total
        length per segment."""
        if self.maxlen == 1:
            out = self.letter[strip].take(cells)
            nonempty = out >= 0
            return np.compress(nonempty, out), np.add.reduceat(nonempty, first, dtype=np.int32)
        lens = self.length[strip].take(cells)
        rows = self.row.take(cells)
        starts = np.cumsum(lens, dtype=np.int32) - lens
        within = np.arange(int(starts[-1]) + int(lens[-1]), dtype=np.int32) - np.repeat(starts, lens)
        out = self.reps.take(np.repeat(rows, lens) * self.maxlen + within)
        return out, np.add.reduceat(lens, first, dtype=np.int32)


def _cert_table(cert: ContractionCertificate) -> Optional[DenseTable]:
    """Dense table of a certificate whose every block code over all |S|
    states fits the table budget.  Rows the certificate has memoized, loaded
    ones included, override the ball walk, so a table loaded without
    validation rewrites as it reads; every other row is the walk, as
    ``ContractionCertificate.entry`` computes it.  Next branches always
    follow the walk, which is how every entry's next branch was made."""
    ctx = cert._ctx
    n_states = len(cert.automaton.states)
    L, R = cert.block, cert.branches
    n_codes = n_states**L
    if n_codes * R > DEFAULT_TABLE_BUDGET:
        return None
    nb = ctx.ball.size
    trans = np.array([ctx.trans[s] for s in range(n_states)], dtype=np.int32)
    codes = np.arange(n_codes)
    cur = np.tile(np.arange(R, dtype=np.int32) * nb, (n_codes, 1))
    for d in range(L):
        cur = trans[(codes // n_states ** (L - 1 - d) % n_states)[:, None], cur]
    elem = cur % nb
    used = np.zeros(nb, dtype=bool)
    used[elem] = True
    used = np.flatnonzero(used)
    remap = np.zeros(nb, dtype=np.int32)
    remap[used] = np.arange(len(used))
    row = remap[elem]
    ball_reps = ctx.ball.reps
    index = {ball_reps[e]: i for i, e in enumerate(used.tolist())}
    elem_rows = elem.tolist()
    for word, cert_row in cert._memo.items():
        code = 0
        for s in word:
            code = code * n_states + s
        for x, (rep, _) in enumerate(cert_row):
            if rep != ball_reps[elem_rows[code][x]]:
                row[code, x] = index.setdefault(rep, len(index))
    return DenseTable(cert, row, cur // nb, list(index), ctx.seck, ctx.outk)


def dense_table(rw) -> Optional[DenseTable]:
    """The rewriter's dense table, built on first use and kept on the
    rewriter; None when the table is too large or its branch group too
    big."""
    if rw.dense_table is None:
        table = _cert_table(rw)
        usable = table is not None and table.group_order <= _MAX_BRANCH_GROUP
        rw.dense_table = table if usable else False
    return rw.dense_table or None


class _ArrayTape:
    """The array tape: the letters of every segment in one array, and the
    segment lengths."""

    __slots__ = ("table", "array", "lens", "letters", "segments")

    def __init__(self, table: DenseTable, array: np.ndarray, lens: np.ndarray):
        self.table = table
        self.array = array
        self.lens = lens
        self.letters = len(array)
        self.segments = len(lens)

    def max_segment(self) -> int:
        return int(self.lens.max()) if self.segments else 0

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
        return _ArrayTape(table, np.compress(np.repeat(~short, lens), letters), np.compress(~short, lens))

    def rewrite(self, rw, rules: _Rules) -> Optional[_ArrayTape]:
        """One block-rewrite pass: the nonempty outputs in branch-major
        order, or None when some segment permutes a branch.  Branches are
        spelled one at a time, so temporaries stay one unit array wide."""
        table, letters, lens = self.table, self.array, self.lens
        code, units, blocks = table.units(letters, lens)
        last = np.cumsum(units) - 1
        before = table.branch_prefix(code, last)
        if before is None:
            return None
        strip = rules.method != "contracting"
        reset = rules.method == "polynomial"
        R = table.branches
        rw.table_reads += R * blocks
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
        return _ArrayTape(table, np.concatenate(chunks), np.compress(seg_len > 0, seg_len))


def run_stages(rw, table: DenseTable, letters: np.ndarray, lens: np.ndarray, rules: _Rules) -> StepReport:
    """The stage loop on the array tape."""
    return _drive(rw, _ArrayTape(table, letters, lens), rules)


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
