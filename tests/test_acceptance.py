"""End-to-end acceptance runs at full stated scales, one check per concern.

Every test here either runs a documented command line or replays a claim
against an independent recomputation; nothing is sampled down unless the
check explicitly names a sampled variant.
"""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from autgrp import (
    apply,
    canonical_key,
    catalog,
    check_item,
    classify_activity,
    cli_main,
    fit_complexity,
    growth,
    is_identity_oracle,
    lower_bound_curve,
    random_word,
    run_bench,
    section_of_word,
    solve_bounded,
    solve_contracting,
    solve_nilpotent,
    verify_table_closure,
)


# 1 ----------------------------------------------------------------------

def test_criterion_01_strong_contraction_full_scan(capsys):
    # every one of the 4^10 identity-free words has section lengths over the
    # third-level alphabet summing below the word's own length
    rc = cli_main([
        "certify", "--automaton", "grigorchuk",
        "-L", "10", "-k", "3", "--mode", "item3",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "words=1048576" in out


def test_criterion_01_strong_contraction_sampled(capsys):
    rc = cli_main([
        "certify", "--automaton", "grigorchuk",
        "-L", "10", "-k", "3", "--mode", "item3",
        "--sample", "10000", "--seed", "0",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "words=10000" in out


# 2 ----------------------------------------------------------------------

def test_criterion_02_solvers_match_oracle_exhaustively(grig, grig_cert):
    disagreements = 0
    for tup in itertools.product("abcd", repeat=8):
        w = "".join(tup)
        want = is_identity_oracle(grig, w)
        if solve_contracting(grig, grig_cert, w).verdict != want:
            disagreements += 1
        if solve_bounded(grig, grig_cert, w).verdict != want:
            disagreements += 1
    assert disagreements == 0


# 3 ----------------------------------------------------------------------

def test_criterion_03_relations(grig, grig_cert):
    accepted = ("aa", "bb", "cc", "dd", "bcd", "ab" * 16)
    rejected = ("a", "b", "ab", "ab" * 8)
    for w in accepted:
        assert is_identity_oracle(grig, w), w
        assert solve_bounded(grig, grig_cert, w).accepted, w
    for w in rejected:
        assert not is_identity_oracle(grig, w), w
        assert not solve_bounded(grig, grig_cert, w).accepted, w


# 4 ----------------------------------------------------------------------

def test_criterion_04_positive_words_all_distinct(basilica):
    keys = set()
    count = 0
    for n in range(1, 11):
        for tup in itertools.product("ab", repeat=n):
            keys.add(canonical_key(basilica, "".join(tup)))
            count += 1
    assert count == 2**11 - 2
    assert len(keys) == count


# 5 ----------------------------------------------------------------------

def test_criterion_05_quasilinear_scaling():
    rows = run_bench("basilica-ab", range(4, 15))
    fit = fit_complexity(rows)
    assert fit.winner == "n log n", fit.residuals
    assert fit.advantage("n") >= 2, fit.residuals
    assert fit.advantage("n^2") >= 2, fit.residuals


# 6 ----------------------------------------------------------------------

def test_criterion_06a_degree1_fit_shape():
    rows = run_bench("poly1-comm", range(3, 12))
    fit = fit_complexity(rows, models=("n", "n log n", "n log^2 n"))
    assert fit.winner == "n log^2 n", (
        "expected the extra log factor to win the fit, but the measured step "
        f"curve of this family fits one log factor: residuals "
        f"{ {k: round(v, 4) for k, v in fit.residuals.items()} } "
        f"(winner {fit.winner!r})"
    )


def test_criterion_06b_degree1_superlinear_trend():
    rows = run_bench("poly1-comm", range(3, 12))
    norm = [r.steps / (r.n * math.log2(r.n)) for r in rows[-5:]]
    assert all(a < b for a, b in zip(norm, norm[1:])), norm


# 7 ----------------------------------------------------------------------

def test_criterion_07_activity_classification(grig, basilica, poly1, flip):
    assert classify_activity(grig).kind == "bounded"
    assert classify_activity(basilica).kind == "bounded"
    cls = classify_activity(poly1)
    assert (cls.kind, cls.degree) == ("polynomial", 1)
    assert classify_activity(flip).kind == "exponential"


# 8 ----------------------------------------------------------------------

def test_criterion_08_rank1_agreement_and_scaling(z4):
    rng = random.Random(80)
    for _ in range(10_000):
        w = random_word(z4, rng.randint(0, 10_000), rng)
        assert solve_nilpotent(z4, w).accepted == z4.is_trivial(w)
    fit = fit_complexity(run_bench("z4-halving", range(4, 14)))
    assert fit.winner == "n log n", fit.residuals
    assert fit.residuals["n log n"] < fit.residuals["n^2"], fit.residuals


def test_criterion_08_heisenberg_agreement(heis):
    rng = random.Random(81)
    for _ in range(10_000):
        w = random_word(heis, rng.randint(0, 2000), rng)
        assert solve_nilpotent(heis, w).accepted == heis.is_trivial(w)


# 9 ----------------------------------------------------------------------

def _decoded_tables(inst):
    letters = np.asarray(inst.letters, dtype=np.int64)
    nN, nX = inst.n_letters, inst.n_reps
    reps = np.stack(inst.ops.rep_at(np.arange(nX, dtype=np.int64)), axis=-1)
    a = letters[:, None, None, :]
    b = letters[None, :, None, :]
    x = reps[None, None, :, :]
    c = letters[inst.c_tab]
    y = reps[inst.y_tab.astype(np.int64)]
    dims = (nN, nN, nX)
    return tuple(np.broadcast_to(t, dims + (letters.shape[1],)) for t in (a, b, x)) + (c, y)


def test_criterion_09_rewrite_tables_sound(z4, z2, heis):
    for inst in (z4, z2, heis):
        assert verify_table_closure(inst).passed, inst.name

    # test-local group law: phi(c) * y must equal x * a * b entrywise
    for inst in (z4, z2):
        a, b, x, c, y = _decoded_tables(inst)
        assert (4 * c + y == x + a + b).all(), inst.name

    a, b, x, c, y = _decoded_tables(heis)

    def mult(u, v):
        return np.stack(
            [u[..., 0] + v[..., 0], u[..., 1] + v[..., 1],
             u[..., 2] + v[..., 2] + u[..., 0] * v[..., 1]],
            axis=-1,
        )

    phi_c = np.stack([4 * c[..., 0], 4 * c[..., 1], 16 * c[..., 2]], axis=-1)
    assert (mult(phi_c, y) == mult(mult(x, a), b)).all()


def test_criterion_09_rank1_entries_by_hand(z4):
    # all 196 cells in plain integers, no array code shared with the library
    for ai, acoord in enumerate(z4.letters):
        for bi, bcoord in enumerate(z4.letters):
            for x in range(4):
                total = x + acoord[0] + bcoord[0]
                c = z4.letters[z4.c_tab[ai, bi, x]][0]
                y = int(z4.y_tab[ai, bi, x])
                assert 4 * c + y == total
                assert y == total % 4


# 10 ---------------------------------------------------------------------

def test_criterion_10_growth(grig, adding):
    gt_add = growth(adding, 50)
    assert all(gt_add[n] == 2 * n + 1 for n in range(51))

    # recount ball sizes through the action on depth-12 leaves alone
    level = 12
    leaves = ["".join(p) for p in itertools.product("01", repeat=level)]
    index = {leaf: i for i, leaf in enumerate(leaves)}
    tabs = {
        s: np.array([index[apply(grig, s, leaf)] for leaf in leaves], dtype=np.int32)
        for s in "abcd"
    }
    ident = np.arange(len(leaves), dtype=np.int32)
    seen = {hashlib.blake2b(ident.tobytes(), digest_size=16).digest()}
    frontier = [ident]
    recount = [1]
    for _ in range(6):
        nxt = []
        for perm in frontier:
            for s in "abcd":
                child = tabs[s][perm]
                h = hashlib.blake2b(child.tobytes(), digest_size=16).digest()
                if h not in seen:
                    seen.add(h)
                    nxt.append(child)
        frontier = nxt
        recount.append(len(seen))
    assert recount == list(growth(grig, 6).gamma)

    for gt in (gt_add, growth(grig, 6)):
        curve = lower_bound_curve(gt, range(gt.radius + 1))
        values = [v for _, v in curve]
        assert values == sorted(values)


# 11 ---------------------------------------------------------------------

def test_criterion_11_self_similarity_identity():
    rng = random.Random(411)
    names = catalog.names()
    per = 100_000 // len(names) + 1
    for name in names:
        B = catalog.get(name)
        for _ in range(per):
            w = "".join(rng.choice(B.states) for _ in range(rng.randrange(0, 9)))
            x = rng.choice(B.letters)
            v = "".join(rng.choice(B.letters) for _ in range(rng.randrange(0, 7)))
            assert apply(B, w, x + v) == apply(B, w, x) + apply(
                B, section_of_word(B, w, x), v
            )
