"""The coordinate short path against the table path.

``halving.solve_short`` decides a word of fewer than ``_LIST_MAX`` one-character
letters on coordinate tuples through each group law's memoized transitions;
``solve_nilpotent`` decides every word from the instance's tables and hands
its short stages to the same list fold.  Both must give the same report, the
coset name of a reject included, and the command line must print what it
printed when every word went through the tables.
"""

import json
import math
import random

import numpy as np
import pytest

from autgrp import build_instance, cli_main, instance_with_letters, random_trivial_word, random_word, solve_nilpotent
from autgrp.errors import NonTermination, UnknownLetter
from autgrp.halving import _LIST_MAX, _make_law, run_stages, solve_short

KINDS = ("z4", "z2", "heis")


@pytest.mark.parametrize("kind", KINDS)
def test_transitions_equal_the_tables(kind):
    # every (a, b, x) entry of c_tab and y_tab, re-derived by the scalar law
    inst = build_instance(kind)
    law = _make_law(kind)
    reps = [law.rep_at(x) for x in range(law.n_reps)]
    assert reps == list(zip(*(v.tolist() for v in inst.ops.rep_at(np.arange(law.n_reps)))))
    c_tab, y_tab = inst.c_tab.tolist(), inst.y_tab.tolist()
    for i, a in enumerate(inst.letters):
        assert law.inverse(a) == inst.letters[inst.inverse_index[i]]
        for j, b in enumerate(inst.letters):
            for x, rep in enumerate(reps):
                c, y = law.transition(a, b, rep)
                assert (c, y) == (inst.letters[c_tab[i][j][x]], reps[y_tab[i][j][x]]), (a, b, rep)


@pytest.mark.parametrize("kind", KINDS)
def test_short_words_match_the_table_path(kind):
    inst = build_instance(kind)
    rng = random.Random(f"short:{kind}")
    words = ["", "e" * (_LIST_MAX - 1), "a" * (_LIST_MAX - 1), "A" * 4]
    for length in range(_LIST_MAX):
        words.append(random_word(inst, length, rng))
        words.append(random_trivial_word(inst, length, rng))
        # a trivial word with identity letters among it, and one letter off it
        w = list(random_trivial_word(inst, length - length // 4, rng))
        for _ in range(length // 4):
            w.insert(rng.randrange(len(w) + 1), "e")
        words.append("".join(w))
        words.append("".join(w[:-1]))
    rejects = 0
    for w in words:
        assert len(w) < _LIST_MAX
        want = solve_nilpotent(inst, w).to_dict()
        assert solve_short(kind, w).to_dict() == want, (kind, w)
        rejects += "coset" in want["detail"]
    assert rejects > len(words) // 4  # the coset names are compared too


def test_short_reject_names_its_coset():
    assert solve_short("z4", "aaa").detail == {"group": "z4", "stage_nontrivial": [3], "coset": "a3"}
    assert solve_short("z2", "aab").detail["coset"] == "a2b1"
    assert solve_short("heis", "aaaa").detail == {"group": "heis", "stage_nontrivial": [4, 1], "coset": "a"}


@pytest.mark.parametrize("alias", ["z4", "z", "Z4", " z2 ", "z2x4", "heis", "heisenberg", "HEIS"])
def test_every_alias_solves_as_its_instance(alias):
    inst = build_instance(alias)
    assert _make_law(alias).name == inst.name
    rng = random.Random(f"alias:{alias}")
    words = ["", "aA", "aaa", "a" * 16 + "A" * 16]
    words += [random_word(inst, n, rng) for n in range(0, 40, 3)]
    words += [random_trivial_word(inst, n, rng) for n in range(0, 40, 3)]
    for w in words:
        assert solve_short(alias, w).to_dict() == solve_nilpotent(inst, w).to_dict(), (alias, w)


ALIASES = {"z4": ("z4", "z", "Z4"), "z2": ("z2", "z2x4", " Z2X4 "), "heis": ("heis", "heisenberg", "HEIS")}


@pytest.mark.parametrize("kind", KINDS)
def test_one_law_per_group(kind):
    law = _make_law(kind)
    inst = build_instance(kind)
    for alias in ALIASES[kind]:
        assert _make_law(alias) is law
        assert build_instance(alias).ops is law
        assert instance_with_letters(alias, inst.letters).ops is law
    # the short path and the list-fold tail of a long solve fill one memo
    rng = random.Random(f"one-law:{kind}")
    law.moves.clear()
    short = random_trivial_word(inst, 40, rng)
    solve_short(kind, short)
    seen = dict(law.moves)
    assert seen
    solve_nilpotent(inst, short)  # the table path's list fold reads the same memo
    assert law.moves == seen
    law.moves.clear()
    word = random_trivial_word(inst, 4 * _LIST_MAX, rng)
    live = solve_nilpotent(inst, word).detail["stage_nontrivial"]
    assert live[0] >= _LIST_MAX and any(0 < k < _LIST_MAX for k in live)
    assert law.moves  # from the long solve's list-fold tail


def test_unknown_kind_is_a_typed_error():
    for call in (build_instance, _make_law, lambda kind: solve_short(kind, "aA")):
        with pytest.raises(UnknownLetter):
            call("bogus")
    with pytest.raises(UnknownLetter):
        solve_short("bogus", "a" * _LIST_MAX)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 7, 2**20 - 2, 2**20 - 1, 2**48 - 2, 2**48 - 1])
def test_guard_counts_in_integers(n):
    # a fold that never halves trips the guard 2 ceil(log2(n + 2)) + 16, kept
    # in integers as 2 bit_length(n + 1) + 16
    with pytest.raises(NonTermination) as exc:
        run_stages(_make_law("z4"), n, [(1,)], lambda live: ((0,), live))
    assert exc.value.cap == 2 * math.ceil(math.log2(n + 2)) + 16 == exc.value.stages - 1


@pytest.mark.parametrize(
    "kind, word",
    [("z4", "-"), ("z2", "a A"), ("heis", "a\tA"), ("z4", "a2"), ("z2", "aX"), ("heis", "ab" * 64), ("heis", "d")],
)
def test_short_path_declines(kind, word):
    # the instance's parser owns spaces, '-', longer letter names, unknown
    # letters and every word from _LIST_MAX letters up
    assert solve_short(kind, word) is None


# Output and exit code of ``autgrp solve --group KIND --word WORD`` when every
# word went through build_instance and solve_nilpotent.
CLI_CASES = [
    ("z4", "", 0, "accept method=nilpotent n=0 stages=0 steps=0\n", ""),
    ("z2", "-", 0, "accept method=nilpotent n=0 stages=0 steps=0\n", ""),
    ("heis", "a A", 0, "accept method=nilpotent n=2 stages=1 steps=10\n", ""),
    ("z4", "a2", 1, "reject method=nilpotent n=1 stages=0 steps=2\n", ""),
    ("heis", "aX", 2, "", "error: unknown letter: 'X'\n"),
    ("heis", "ab" * 64, 1, "reject method=nilpotent n=128 stages=1 steps=768\n", ""),
    ("z2", "ab" * 64, 1, "reject method=nilpotent n=128 stages=3 steps=1556\n", ""),
    ("heis", "ABabC", 0, "accept method=nilpotent n=5 stages=2 steps=42\n", ""),
    ("z4", "aaa", 1, "reject method=nilpotent n=3 stages=0 steps=6\n", ""),
]


@pytest.mark.parametrize("kind, word, code, out, err", CLI_CASES)
def test_cli_output_unchanged(capsys, kind, word, code, out, err):
    assert cli_main(["solve", "--group", kind, "--word", word]) == code
    got = capsys.readouterr()
    assert (got.out, got.err) == (out, err)


def test_cli_json_names_the_coset(capsys):
    for kind, word, detail in (
        ("z4", "a2", {"coset": "a2", "group": "z4", "stage_nontrivial": [1]}),
        ("z2", "aab", {"coset": "a2b1", "group": "z2", "stage_nontrivial": [3]}),
        ("heis", "ab" * 64, {"coset": "c2", "group": "heis", "stage_nontrivial": [128, 22]}),
    ):
        cli_main(["solve", "--group", kind, "--word", word, "--report", "json"])
        out = capsys.readouterr().out
        assert json.loads(out)["detail"] == detail
