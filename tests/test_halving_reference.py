"""The halving solver against a full-tape reference, on words that run several stages.

The reference below is the direct simulation of the one-tape machine: every
stage counts the live letters, folds the whole tape for the coset scan, and
rewrites the pairs in place, so identity letters stay on the tape.  The
solver keeps only the live letters; its reports must be identical.
"""

import json
import random

import numpy as np

from autgrp import StepReport, halve, solve_nilpotent
from autgrp.errors import NonTermination

RELATORS = {
    "z4": ("aA", "Aa", "e"),
    "z2": ("abAB", "baBA", "aA", "bB", "e"),
    # [a, b] = c with c central
    "heis": ("ABabC", "abABC", "cC", "aA", "bB", "e"),
}
GENS = {"z4": "aAe", "z2": "aAbBe", "heis": "aAbBcCe"}
INVERSE = str.maketrans("abcABC", "ABCabc")


def _rep(inst, rows):
    return inst.ops.rep_index(inst.ops.rep(tuple(rows.T))).astype(np.int64)


def reference_halve_inplace(inst, w):
    """One rewrite pass over the whole tape; returns the symbols written."""
    letters = np.asarray(inst.letters, dtype=np.int64)
    nz = np.flatnonzero(w != inst.e_index)
    if len(nz) == 0:
        return 0
    fold = inst.ops.fold(letters[w[nz]])
    k, odd = divmod(len(nz), 2)
    zero = np.zeros((1, inst.ops.dim), dtype=np.int64)
    if k:
        starts = 2 * np.arange(k)
        prefix = np.concatenate([zero, fold[starts[1:] - 1]]) if k > 1 else zero
        c = inst.c_tab[w[nz[starts]], w[nz[starts + 1]], _rep(inst, prefix)]
        w[nz[starts]] = inst.e_index
        w[nz[starts + 1]] = c
    if odd:
        x = int(_rep(inst, fold[-2][None, :] if len(nz) > 1 else zero)[0])
        w[nz[-1]] = int(inst.c_tab[int(w[nz[-1]]), inst.e_index, x])
    return 2 * k + odd


def reference_solve(inst, word):
    """Three full sweeps of the tape per stage: count, coset scan, rewrite."""
    letters = np.asarray(inst.letters, dtype=np.int64)
    w = inst.parse(word)
    n = len(w)
    steps = stages = 0
    live_counts = []
    detail = {"group": inst.name, "stage_nontrivial": live_counts}
    guard = 2 * int(np.ceil(np.log2(n + 2))) + 16
    while True:
        live_counts.append(int((w != inst.e_index).sum()))
        steps += n
        if live_counts[-1] == 0:
            verdict = True
            break
        steps += n
        x = int(_rep(inst, inst.ops.fold(letters[w])[-1:])[0])
        if x != inst.rep_e:
            verdict = False
            detail["coset"] = inst.rep_name(x)
            break
        if stages > guard:
            raise NonTermination(stages, guard)
        steps += n
        steps += reference_halve_inplace(inst, w)
        stages += 1
    tapes = (n,) * len(live_counts)
    return StepReport("nilpotent", verdict, n, steps, stages, tapes, tapes, detail)


def _planted_trivial(g, n, rng):
    """Product of relator conjugates u r u^-1, padded with identity letters to n.

    The conjugators are runs of one letter, so their products stray far from
    the identity and take several halvings to come back.
    """
    parts, length = [], 0
    while True:
        u = "".join(rng.choice(GENS[g]) * rng.randint(1, 60) for _ in range(rng.randint(0, 8)))
        part = u + rng.choice(RELATORS[g]) + u[::-1].translate(INVERSE)
        if length + len(part) > n:
            break
        parts.append(part)
        length += len(part)
    pad = ["e"] * (n - length)
    for part in parts:  # identity letters scattered between the conjugates
        pad.insert(rng.randint(0, len(pad)), part)
    return "".join(pad)


def _corpus(g, rng):
    words = ["", "e", "eeeeeee", "a", "aA", "Aa", "aaaa", "aaaaA", "aAe", "eaeAe", "aaaa" * 5]
    for _ in range(14):
        words.append(_planted_trivial(g, rng.randint(2, 3000), rng))
    for j in range(1, 5):
        # a^(4^j) lies in the image j times over, so these reject at stage j
        base = _planted_trivial(g, rng.randint(0, 400), rng)
        words.append(base + "a" * 4**j)
        words.append(base + "a" * 4**j + "a")  # odd tail
    for _ in range(10):
        words.append("".join(rng.choices(GENS[g], k=rng.randint(0, 300))))
    return words


def test_solver_matches_full_tape_reference(z4, z2, heis):
    rng = random.Random(2024)
    for inst in (z4, z2, heis):
        stages = []
        for word in _corpus(inst.name, rng):
            got = solve_nilpotent(inst, word)
            want = reference_solve(inst, word)
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), (inst.name, word)
            assert got.verdict == inst.is_trivial(word), (inst.name, word)
            stages.append(got.stages)
        # the planted words run the stage loop well past the first scan
        assert max(stages) >= 5 and sum(s >= 4 for s in stages) >= 10, (inst.name, stages)


def test_halve_matches_in_place_reference(z4, z2, heis):
    rng = random.Random(7)
    for inst in (z4, z2, heis):
        for word in _corpus(inst.name, rng):
            w = inst.parse(word)
            if any(inst.ops.rep(inst.word_value(w))):
                continue  # outside the image; halve refuses it
            reference_halve_inplace(inst, w)
            assert halve(inst, word) == tuple(inst.letter_names[int(i)] for i in w)
