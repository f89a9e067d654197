"""The pair fold of the halving solver against the full-tape reference.

``solve_nilpotent`` and ``halve`` read each pair's product from one uint8
residue column per coordinate (mod 4 for Z^d, mod 16 for heis) and fold the
pairs by 1-D prefix sums in bytes, packed eight to a word on long stages;
``solve_nilpotent`` folds short stages as a Python list.  These words push
the running products far outside that window and past 255, keep an odd live
count at every stage, sit at either size cut, or are as short as a tape gets.
"""

import itertools
import json
import random

import numpy as np
import pytest

from autgrp import NilpotentInstance, halve, nilpotent, solve_nilpotent
from autgrp.errors import AutomatonFormatError
from autgrp.halving import _AbelianLaw
from test_halving_reference import reference_halve_inplace, reference_solve

GENS = {"z4": "aAe", "z2": "aAbBe", "heis": "aAbBcCe"}


def _same_as_reference(inst, word):
    got = solve_nilpotent(inst, word)
    want = reference_solve(inst, word)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), (inst.name, word)
    assert got.verdict == inst.is_trivial(word), (inst.name, word)
    w = inst.parse(word)
    try:
        halved = halve(inst, word)
    except AutomatonFormatError:
        assert any(inst.ops.rep(inst.word_value(w))), (inst.name, word)
    else:
        reference_halve_inplace(inst, w)
        assert halved == tuple(inst.letter_names[int(i)] for i in w), (inst.name, word)
    return got


def test_powers_leave_the_residue_window(z4, z2, heis):
    for inst in (z4, z2, heis):
        for k in range(13):
            for letter in ("a", "A", "B", "C"):
                if letter.lower() in GENS[inst.name]:
                    _same_as_reference(inst, letter * 2**k)
                    _same_as_reference(inst, letter * 2**k + "e" * k + letter.swapcase())


def test_heisenberg_coordinates_pass_sixteen_both_ways(heis):
    words = []
    for p, q in ((17, 20), (20, 17), (33, 5), (16, 16), (40, 40)):
        for x, y in ("ab", "Ab", "aB", "AB", "ba", "BA"):
            X, Y = x.swapcase(), y.swapcase()
            comm = x * p + y * q + X * p + Y * q  # z = ±pq
            words.append(comm + "C" * 7)
            words.append(comm + Y * q + X * p + y * q + x * p)  # the commutator times its inverse
            words.append(X * 3 + comm + "c" * 19 + x * 3)
    reach = np.zeros((2, 2), dtype=bool)
    for word in words:
        runs = heis.ops.fold(np.take(heis.coords, heis.parse(word), axis=0))  # every prefix
        reach |= [runs[:, [0, 2]].min(axis=0) < -16, runs[:, [0, 2]].max(axis=0) > 16]
        _same_as_reference(heis, word)
    assert reach.all()  # x and z each go past +16 and below -16


def _written(inst, letters):
    """The live letters one rewrite writes from pairs of ``letters`` or a lone one."""
    out = np.union1d(inst.c_tab[np.ix_(letters, letters)], inst.c_tab[letters, inst.e_index])
    return out[out != inst.e_index]


def _unhalve(inst, u, letters, rng):
    """A word over ``letters``, of odd length and in phi(G), whose rewrite
    writes the letters of ``u`` in order with identity letters between them.

    Between two letters of u, and before the lone last letter that writes e
    and closes the coset, the word walks a shortest path of pairs that write
    e, from its representative to one where the next letter can be written.
    """
    e = inst.e_index
    a, b = (g.ravel() for g in np.meshgrid(letters, letters, indexing="ij"))
    c_of, y_of = inst.c_tab[a, b].T, inst.y_tab[a, b].T  # [x, pair]
    closes = (inst.c_tab[letters, e].T == e) & (inst.y_tab[letters, e].T == inst.rep_e)  # [x, letter]
    quiet = c_of == e
    dists = {}

    def dist(target):
        """Pairs writing e needed from each representative to write target."""
        if target not in dists:
            d = np.where(closes.any(1) if target is None else (c_of == target).any(1), 0, -1)
            for k in range(1, inst.n_reps):
                hit = (quiet & (d[y_of] == k - 1)).any(1) & (d < 0)
                if not hit.any():
                    break
                d[hit] = k
            dists[target] = d
        return dists[target]

    w, x = [], inst.rep_e
    for target in [*u, None]:
        d = dist(target)
        if d[x] < 0:
            return None
        while d[x] > 0:
            i = rng.choice(np.flatnonzero(quiet[x] & (d[y_of[x]] == d[x] - 1)))
            w += [int(a[i]), int(b[i])]
            x = int(y_of[x, i])
        if target is None:
            return w + [int(rng.choice(letters[closes[x]]))]
        i = rng.choice(np.flatnonzero(c_of[x] == target))
        w += [int(a[i]), int(b[i])]
        x = int(y_of[x, i])


def test_odd_live_count_at_every_stage(z4, z2, heis):
    # the word of stage j is written by j rewrites, so its letters lie in
    # levels[j]; two rewrites leave z4 only a and A, and an odd word over
    # those is outside phi(Z), so z4 goes no deeper than three stages
    rng = np.random.default_rng(21)
    for inst, depth in ((z4, 2), (z2, 4), (heis, 3)):
        levels = [np.setdiff1d(np.arange(inst.n_letters), [inst.e_index])]
        for _ in range(depth):
            levels.append(_written(inst, levels[-1]))
        grown = []
        while len(grown) < 4:
            word = rng.choice(levels[-1], size=rng.choice((1, 3, 5)))
            if not all(k % 2 for k in solve_nilpotent(inst, word).detail["stage_nontrivial"] if k):
                continue
            for letters in reversed(levels[:-1]):
                word = _unhalve(inst, word, letters, rng)
                if word is None:
                    break
            else:
                grown.append(np.asarray(word, dtype=np.int64))
        for word in grown:
            rep = _same_as_reference(inst, word)
            counts = [k for k in rep.detail["stage_nontrivial"] if k]
            assert len(counts) > depth and all(k % 2 for k in counts), (inst.name, counts)


def test_every_word_of_length_up_to_three(z4, z2, heis):
    for inst in (z4, z2, heis):
        for n in range(4):
            for letters in itertools.product(GENS[inst.name], repeat=n):
                rep = _same_as_reference(inst, "".join(letters))
                assert rep.input_length == n


def test_integer_dtypes(z4, z2, heis):
    rng = random.Random(8)
    for inst in (z4, z2, heis):
        for _ in range(20):
            word = "".join(rng.choice(GENS[inst.name]) * rng.randint(1, 30) for _ in range(rng.randint(0, 9)))
            want = json.dumps(reference_solve(inst, word).to_dict())
            for dtype in (np.int8, np.uint16, np.int64):
                arr = inst.parse(word).astype(dtype)
                assert json.dumps(solve_nilpotent(inst, arr).to_dict()) == want
                if inst.is_trivial(word):
                    assert halve(inst, arr) == halve(inst, word)


def test_caller_int64_word_is_left_alone(heis):
    word = heis.parse("ABabC" * 50 + "eaA" * 7)
    kept = word.copy()
    assert solve_nilpotent(heis, word).accepted
    assert (word == kept).all()
    halve(heis, word)  # halve rewrites its own copy
    assert (word == kept).all()
    word.flags.writeable = False  # a read-only word is read, never written
    assert solve_nilpotent(heis, word).to_dict() == solve_nilpotent(heis, kept).to_dict()
    assert heis.parse(word) is not word and heis.parse(word).flags.writeable


def test_pair_columns_are_read_only_residues(z4, z2, heis):
    for inst in (z4, z2, heis):
        nN, mask = inst.n_letters, inst.ops.residue_mask
        products = inst.ops.product(
            tuple(np.repeat(inst.coords, nN, axis=0).T), tuple(np.tile(inst.coords, (nN, 1)).T)
        )
        assert len(inst.pair_cols) == inst.ops.dim
        for d, col in enumerate(inst.pair_cols):
            assert col.dtype == np.uint8 and col.flags.c_contiguous and len(col) == nN * nN
            assert (col == products[d] & mask).all()
            with pytest.raises(ValueError):
                col[0] = 0
        flat = inst.c_tab.reshape(-1)
        assert np.shares_memory(flat, inst.c_tab)
        with pytest.raises(ValueError):
            flat[0] = 0


def test_letters_named_by_generator_coordinates():
    # b is not a unit vector; (0, -1) is no generator's inverse
    ops = _AbelianLaw("t", 2, 16, [("a", (1, 0)), ("b", (1, 1))])
    inst = NilpotentInstance(ops, list(itertools.product((-1, 0, 1), repeat=2)))
    names = dict(zip(inst.letters, inst.letter_names))
    assert (names[(1, 0)], names[(1, 1)], names[(-1, 0)], names[(-1, -1)]) == ("a", "b", "A", "B")
    assert len(set(inst.letter_names)) == len(inst.letters)
    assert [inst.letters[i] for i in inst.parse("ab")] == [(1, 0), (1, 1)]
    assert inst.word_value("B") == (-1, -1)
    assert inst.word_value("abAB") == (0, 0)
    assert names[(0, -1)] not in ("B", "b")


def test_packed_scan_equals_the_byte_cumsum():
    rng = np.random.default_rng(15)
    for n in [*range(81), 2**15 + 3]:
        for v in (rng.integers(0, 16, n, dtype=np.uint8), np.full(n, 15, dtype=np.uint8)):
            want = np.cumsum(v, dtype=np.uint8) & 15
            got = nilpotent._packed_prefix(v)
            assert got.dtype == np.uint8 and (got == want).all(), n
            assert (nilpotent._prefix_sum(v) & 15 == want).all(), n


def test_running_sums_wrap_the_byte_on_every_axis(z4, z2, heis):
    m = 300  # heis: a^m b^m A^m B^m = c^(m^2)
    cases = [
        (z4, "a" * 40000, "A" * 40000),
        (z2, "ab" * 30000, "BA" * 30000),
        (heis, "a" * m + "b" * m, "A" * m + "B" * m + "C" * m**2),
    ]
    for inst, head, tail in cases:
        runs = inst.ops.fold(np.take(inst.coords, inst.parse(head), axis=0))
        assert (runs.max(axis=0) > 255).all()
        assert _same_as_reference(inst, head + tail).accepted
        # one letter short is off the image; 16 short is in it, off its preimage
        for cut, in_image in ((1, False), (16, True)):
            rep = _same_as_reference(inst, head + tail[:-cut])
            assert not rep.accepted and (rep.stages > 0) == in_image


# relator pieces of two letters and of an odd length, so any live count is spelt
PIECES = {
    "z4": (["a", "A"], ["a", "a", "a-2"]),
    "z2": (["b", "B"], ["a", "a", "a-2"]),
    "heis": (["a", "A"], list("ABabC")),
}


def _trivial_with_live(inst, n, rng):
    """A trivial word of exactly n non-identity letters: conjugates of
    relator pieces by random words, finished by pieces, with identity letters
    among them."""
    two, odd = PIECES[inst.name]
    gens = GENS[inst.name].replace("e", "")
    names = []
    while True:
        u = rng.choices(gens, k=rng.randint(0, 6))
        part = u + rng.choice((two, odd)) + [g.swapcase() for g in reversed(u)]
        if len(names) + len(part) > n - 8:
            break
        names += part
    rest = n - len(names)
    if rest % 2:
        names += odd
        rest -= len(odd)
    names += two * (rest // 2)
    out = []
    for name in names:
        out += ["e"] * (rng.random() < 0.2) + [name]
    return inst.parse(out)


def _spy(monkeypatch, name, lengths):
    """Record the length of the last argument of every call to ``name``."""
    real = getattr(nilpotent, name)

    def spy(*args):
        lengths.append(len(args[-1]))
        return real(*args)

    monkeypatch.setattr(nilpotent, name, spy)


def test_live_counts_cross_both_cuts(z4, z2, heis, monkeypatch):
    # the list finish takes the first stage under _LIST_MAX live letters and
    # every one after it; the packed scan takes folds of at least _PACKED_MIN
    # pairs, from 2 _PACKED_MIN - 1 live letters; first stages of counts on
    # both sides of each cut, odd ones at the crossing, trivial and rejected
    folds, lists, packed = [], [], []
    _spy(monkeypatch, "_pair_fold", folds)
    _spy(monkeypatch, "_list_fold", lists)
    _spy(monkeypatch, "_packed_prefix", packed)
    rng = random.Random(16)
    cut, wide = nilpotent._LIST_MAX, 2 * nilpotent._PACKED_MIN - 1
    for inst in (z4, z2, heis):
        a = inst.gen_index["a"]
        for n in [*range(cut - 2, cut + 3), *range(wide - 2, wide + 3)]:
            trivial = _trivial_with_live(inst, n, rng)
            off_image = np.append(_trivial_with_live(inst, n - 1, rng), a)
            in_image = np.append(_trivial_with_live(inst, n - 4, rng), [a] * 4)
            for word in (trivial, off_image, in_image):
                for seen in (folds, lists, packed):
                    seen.clear()
                rep = solve_nilpotent(inst, word)
                counts = rep.detail["stage_nontrivial"]
                assert counts[0] == n and rep.accepted == (word is trivial)
                assert folds + lists == counts[: len(counts) - rep.accepted]
                assert min(folds, default=cut) >= cut > max(lists, default=0)
                pairs = [(k + 1) // 2 for k in folds]
                words = [-(-k // 8) * 8 for k in pairs if k >= nilpotent._PACKED_MIN]
                assert packed == [m for m in words for _ in range(inst.ops.dim)]
                assert _same_as_reference(inst, word).to_dict() == rep.to_dict()
