"""Halving solver over finitely generated nilpotent groups."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from autgrp import (
    NilpotentInstance,
    build_instance,
    coset_scan,
    halve,
    instance_with_letters,
    nilpotent,
    random_trivial_word,
    random_word,
    solve_nilpotent,
    verify_table_closure,
)
from autgrp.automata import _parse_seq
from autgrp.errors import AutgrpError, AutomatonFormatError, BudgetExceeded, UnknownLetter


Z4_LETTERS = [(j,) for j in range(-3, 4)]


# ------------------------------------------------------------------ building

def test_instance_shapes(z4, z2, heis):
    assert (z4.name, z4.n_letters, z4.n_reps) == ("z4", 7, 4)
    assert (z2.name, z2.n_letters, z2.n_reps) == ("z2", 49, 16)
    assert (heis.name, heis.n_letters, heis.n_reps) == ("heis", 25, 256)
    assert sorted(z4.letter_names) == ["A", "a", "a-2", "a-3", "a2", "a3", "e"]


def test_kind_aliases():
    assert build_instance("z").name == "z4"
    assert build_instance("z2x4").name == "z2"
    assert build_instance("heisenberg").name == "heis"
    with pytest.raises(ValueError):
        build_instance("zz")


def test_instances_are_shared_per_kind():
    assert build_instance("heis") is build_instance("heisenberg")
    assert build_instance("z") is build_instance("z4")
    assert build_instance(" Z2X4 ") is build_instance("z2")
    assert instance_with_letters("z4", Z4_LETTERS) is not instance_with_letters("z4", Z4_LETTERS)


def test_shared_tables_are_read_only(z4, z2, heis):
    for inst in (z4, z2, heis):
        for table in (inst.coords, inst.act, inst.c_tab, inst.y_tab, inst.inverse_index):
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0


# sha1 of letters (int64 coordinates), act, c_tab and y_tab (int32)
TABLE_SHA1 = {
    "z4": (
        "4418e0e12e21255f1955374a5da0e283167438d8",
        "a1b48a7e4d74d30caacdbc21787369c9c3172dba",
        "d7a4b632fe33ca57620f19b0ba13cc6abcd00219",
        "ba0dc0636f702bc0ce6cff235993dcaa6cbecedf",
    ),
    "z2": (
        "aa2771f32c6e04a94e87ffad19bca59dc317bd3d",
        "6b82d166fa3c3f696a1db86fb17691a066b2ac83",
        "8932be96d47774fd3f64da848935266a1b4a2be5",
        "3bdd410a5b9619b3b1df5e3ecbb4461a543adda5",
    ),
    "heis": (
        "a7d439b199cca290653328357d5aa84691e8add3",
        "fa0a2f643abab9fe9d7ab073c278448e87e21d75",
        "4494c400ce5994aaae3e894e1b3165862979550a",
        "9ef56b8a0717c54382e64bce9c444476c3be6b22",
    ),
}


def test_tables_frozen(z4, z2, heis):
    for inst in (z4, z2, heis):
        arrays = (np.asarray(inst.letters, dtype=np.int64), inst.act, inst.c_tab, inst.y_tab)
        got = tuple(hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays)
        assert got == TABLE_SHA1[inst.name]
        assert inst.coords.dtype == np.int64 and (inst.coords == arrays[0]).all()


def test_letters_closed_under_inversion(z4):
    with pytest.raises(ValueError):
        NilpotentInstance(z4.ops, [(0,), (1,)])


@pytest.mark.parametrize(
    "letters, problem",
    [([(1,), (-1,)], "no identity letter"), ([(0, 0)], "has 2 coordinates"), ([("x",)], "must be integers")],
    ids=["no-identity", "coordinate-count", "non-integer"],
)
def test_bad_letter_sets_raise_format_errors(letters, problem):
    with pytest.raises(AutomatonFormatError, match=problem):
        instance_with_letters("z4", letters)


def test_letter_coordinates_the_tables_cannot_hold():
    with pytest.raises(AutomatonFormatError, match="64-bit"):
        instance_with_letters("z4", [(0,), (2**63,), (-2**63,)])
    # letters 2^40 apart take a five-slot rank box: 2^40 = phi(2^38),
    # and 2^38 is no letter
    far = instance_with_letters("z4", [(0,), (1,), (-1,), (2**40,), (-2**40,)])
    assert verify_table_closure(far).witnesses[0] == ("e", "a1099511627776", "e")
    # 1,001 distinct values on each axis: a 1,002^2-slot rank box
    letters = {(1, 0), (0, 1), (-1, 0), (0, -1), *((i, i) for i in range(-500, 501))}
    wide = NilpotentInstance(build_instance("z2").ops, sorted(letters))
    with pytest.raises(BudgetExceeded) as err:
        nilpotent._letter_index(wide, tuple(wide.coords.T))
    assert err.value.what == "letter box"


def test_parse_rejects_unknown(z4):
    with pytest.raises(UnknownLetter):
        z4.parse("aq")


def test_parse_spellings_agree(heis):
    want = heis.parse(list("ABabCe"))
    for spelling in ("ABabCe", "A B a b C e", np.array(want, dtype=np.int32), list(want)):
        assert (heis.parse(spelling) == want).all()
    assert len(heis.parse("")) == len(heis.parse("-")) == 0
    name = next(n for n in heis.letter_names if len(n) > 1)
    assert heis.letter_names[heis.parse(name)[0]] == name


def _differential_words(inst, rng):
    """Valid words in every spelling the instance takes: run-together,
    space-separated and padded strings, lists of names, Python and numpy
    ints, and 1-D integer arrays."""
    names = inst.letter_names
    one = [n for n in names if len(n) == 1]
    words = ["", "-", " - ", "\t", [], np.array([], dtype=np.int32)]
    for _ in range(60):
        idx = rng.choices(range(len(names)), k=rng.randrange(1, 20))
        picked = [names[i] for i in idx]
        run = "".join(rng.choices(one, k=len(idx)))
        words += [run, " ".join(picked), f"  {run}\n", f"\t{' '.join(picked)} ", picked, idx]
        words += [[np.int64(i) for i in idx], [np.uint8(i) for i in idx]]
        words += [np.array(idx, dtype=dtype) for dtype in (np.int8, np.uint16, np.int32, np.int64)]
    return words


def test_parse_matches_the_shared_parser(z4, z2, heis):
    rng = random.Random(30)
    for inst in (z4, z2, heis):
        for word in _differential_words(inst, rng):
            want = _parse_seq(word, inst.letter_names, inst._name_index, "letter")
            got = inst.parse(word)
            assert got.dtype == np.int64 and got.tolist() == list(want), word
        # a bad word fails with the same letter named either way
        dtypes = (np.int8, np.uint16, np.int32, np.int64)
        bad_arrays = [np.array([0, inst.n_letters, 1], dtype=dtype) for dtype in dtypes]
        for word in ("ab q", " aq ", "a-", ["a", "q"], [0, inst.n_letters], [-1], np.array([-1]), *bad_arrays):
            with pytest.raises(UnknownLetter) as want:
                _parse_seq(word, inst.letter_names, inst._name_index, "letter")
            with pytest.raises(UnknownLetter) as got:
                inst.parse(word)
            assert got.value.name == want.value.name
    assert (heis.parse(" ab ") == heis.parse("ab")).all()


@pytest.mark.parametrize("bad", [None, 5, 3.5, np.int64(1)], ids=["None", "int", "float", "np.int64"])
def test_non_words_raise_format_errors(heis, bad):
    calls = (heis.parse, lambda w: solve_nilpotent(heis, w), lambda w: coset_scan(heis, w), lambda w: halve(heis, w))
    for call in calls:
        with pytest.raises(AutomatonFormatError) as err:
            call(bad)
        assert type(err.value) is AutomatonFormatError


def test_parse_names_first_bad_letter(heis):
    for word, bad in (("abqzc", "q"), ("ab\u00e9c", "\u00e9"), ("a b q", "q"), ("a-", "-")):
        with pytest.raises(UnknownLetter) as err:
            heis.parse(word)
        assert err.value.name == bad


def test_integer_words_are_range_checked(z4):
    for bad in (-1, z4.n_letters):
        for word in (np.array([0, bad]), [0, bad]):
            with pytest.raises(UnknownLetter):
                z4.parse(word)
            with pytest.raises(UnknownLetter):
                solve_nilpotent(z4, word)
    assert (z4.parse(np.array([z4.n_letters - 1], dtype=np.uint8)) == [z4.n_letters - 1]).all()


def test_integer_words_must_be_one_dimensional(z4):
    for bad in (np.array([[1, 2], [3, 4]]), np.array(3), np.zeros((0, 2), dtype=np.int32)):
        for call in (z4.parse, lambda w: solve_nilpotent(z4, w), lambda w: halve(z4, w)):
            with pytest.raises(AutgrpError, match="1-D"):
                call(bad)


# -------------------------------------------------------------------- tables

def test_rewrite_table_entries(z4):
    # x * a * b = phi(c) * y, checked on the three smallest cells
    ia = int(z4.parse("a")[0])
    ie = z4.e_index
    r2 = z4.ops.rep_index((2,))
    assert z4.rep_name(z4.rep_e) == "e"
    assert [z4.rep_name(i) for i in range(4)] == ["e", "a", "a2", "a3"]

    def cell(a, b, x):
        return z4.letter_names[z4.c_tab[a, b, x]], z4.rep_name(z4.y_tab[a, b, x])

    assert cell(ia, ia, z4.rep_e) == ("e", "a2")
    assert cell(ia, ia, r2) == ("a", "e")
    assert cell(ie, ie, z4.rep_e) == ("e", "e")


def test_table_closure_all_instances(z4, z2, heis):
    for inst in (z4, z2, heis):
        chk = verify_table_closure(inst)
        assert chk
        assert chk.passed
        assert chk.witnesses == []


def test_shrunken_letter_set_is_caught():
    # drop the +-2 powers: squares of the extreme letters fall outside
    shrunk = [c for c in Z4_LETTERS if c not in ((2,), (-2,))]
    bad = instance_with_letters("z4", shrunk)
    chk = verify_table_closure(bad)
    assert not chk
    assert ("a-3", "a-3", "e") in chk.witnesses


# ------------------------------------------------------------------- scans

def test_coset_scan_values(z4):
    assert coset_scan(z4, "aaa") == "a3"
    assert coset_scan(z4, "aaaa") == "e"
    assert coset_scan(z4, "ee") == "e"
    assert coset_scan(z4, "") == "e"


def test_coset_scan_matches_direct_arithmetic(z4, heis):
    # the letter-by-letter action table against one closed-form product
    rng = random.Random(3)
    for inst in (z4, heis):
        ops = inst.ops
        for _ in range(80):
            w = random_word(inst, rng.randint(0, 40), rng)
            want = inst.rep_name(ops.rep_index(ops.rep(inst.word_value(w))))
            assert coset_scan(inst, w) == want


def test_coset_scan_of_long_words(z4, z2, heis):
    # about 2^14 letters, identity letters among them, against the closed form
    rng = random.Random(14)
    for inst in (z4, z2, heis):
        ops = inst.ops
        for _ in range(3):
            w = random_word(inst, 2**14 + rng.randint(0, 9), rng)
            want = inst.rep_name(ops.rep_index(ops.rep(inst.word_value(w))))
            assert coset_scan(inst, w) == want
        w = random_trivial_word(inst, 2**14, rng)
        assert coset_scan(inst, w) == coset_scan(inst, inst.parse(w)) == "e"


def test_heisenberg_values_do_not_commute(heis):
    assert heis.word_value("ab") == (1, 1, 1)
    assert heis.word_value("ba") == (1, 1, 0)


# ------------------------------------------------------------------- halving

def test_halve_examples(z4):
    assert halve(z4, "aaaa") == ("e", "e", "e", "a")
    assert halve(z4, "eee") == ("e", "e", "e")
    assert halve(z4, "aA") == ("e", "e")
    with pytest.raises(ValueError):
        halve(z4, "aaa")  # not a multiple of the image


def test_halve_is_semantic_exhaustive_small(z4):
    # every {a, A, e} word up to length 7: in-image words quarter their value,
    # everything else is refused
    unphi = z4.ops.unphi
    for n in range(8):
        for w in itertools.product("aAe", repeat=n):
            total = z4.word_value(w)
            if total[0] % 4 == 0:
                out = z4.word_value(halve(z4, w))
                assert out[0] * 4 == total[0]
            else:
                with pytest.raises(ValueError):
                    halve(z4, w)
    assert unphi((8,)) == (2,)


def _heis_padding(inst, w):
    """Letters sending w's value into the image of the scaling map."""
    x, y, z = inst.ops.rep(inst.word_value(w))
    k = int(z) - int(x) * int(y)
    pad = ("c" if k < 0 else "C") * abs(k)
    pad += "B" * int(y) + "A" * int(x)
    return tuple(w) + tuple(pad)


def test_halve_is_semantic_heisenberg_sampled(heis):
    rng = random.Random(17)
    ops = heis.ops
    for _ in range(300):
        w = _heis_padding(heis, random_word(heis, rng.randint(0, 240), rng))
        assert coset_scan(heis, w) == "e"
        assert heis.word_value(halve(heis, w)) == ops.unphi(heis.word_value(w))


# ------------------------------------------------------------------- solving

def test_solve_frozen_reports(z4):
    r = solve_nilpotent(z4, "aaaa")  # a^4 = phi(a), not the identity
    assert not r.accepted
    assert (r.stages, r.steps) == (1, 24)
    assert r.detail == {"group": "z4", "stage_nontrivial": [4, 1], "coset": "a"}

    r = solve_nilpotent(z4, "aaa")
    assert (r.accepted, r.stages, r.detail["coset"]) == (False, 0, "a3")

    r = solve_nilpotent(z4, "a" * 8 + "A" * 8)
    assert r.accepted
    assert (r.stages, r.steps) == (2, 132)
    assert r.detail["stage_nontrivial"] == [16, 4, 0]

    r = solve_nilpotent(z4, "")
    assert (r.accepted, r.steps) == (True, 0)


def test_solve_heisenberg_commutator(heis):
    # [a, b] = c, so the commutator times C vanishes
    assert solve_nilpotent(heis, "ABabC").accepted
    r = solve_nilpotent(heis, "ABab")
    assert not r.accepted
    assert r.detail["coset"] == "c"


def test_solve_agrees_with_value_oracle(z4, heis):
    rng = random.Random(29)
    for inst in (z4, heis):
        for _ in range(150):
            w = random_word(inst, rng.randint(0, 60), rng)
            assert solve_nilpotent(inst, w).accepted == inst.is_trivial(w)


def test_stage_population_halves(z4, heis):
    # non-identity letters at stage k, at most n / 2^k plus slack
    rng = random.Random(41)
    for inst in (z4, heis):
        for n in (64, 200, 500):
            w = random_trivial_word(inst, n, rng)
            r = solve_nilpotent(inst, w)
            assert r.accepted
            for k, live in enumerate(r.detail["stage_nontrivial"]):
                assert live <= n / 2**k + 2


def test_word_generators(z4, heis):
    w1 = random_word(z4, 20, random.Random(5))
    w2 = random_word(z4, 20, random.Random(5))
    assert w1 == w2
    assert len(w1) == 20
    tw = random_trivial_word(heis, 30, random.Random(9))
    assert len(tw) == 30
    assert heis.is_trivial(tw)
    assert solve_nilpotent(heis, tw).accepted


def test_integer_words_name_their_first_bad_letter(z4):
    n = z4.n_letters
    for word, bad in (([0, n, -1], n), ([0, -1, n], -1), ([n + 5, 1, n], n + 5)):
        with pytest.raises(UnknownLetter) as err:
            z4.parse(np.array(word))
        assert err.value.name == bad
    huge = np.array([1, 2**63 + 1], dtype=np.uint64)  # wraps below zero as int64
    with pytest.raises(UnknownLetter) as err:
        z4.parse(huge)
    assert err.value.name == 2**63 + 1
    assert len(z4.parse(np.array([], dtype=np.int64))) == 0
