import copy
import pickle
import random

import pytest

from autgrp import catalog
from autgrp.automata import (
    Permutation,
    alphabet_power,
    apply,
    inverse_closure,
    invert,
    minimize,
    parse_automaton,
    perm_of_word,
    section_of_word,
    serialize_automaton,
)
from autgrp.errors import (
    AutomatonFormatError,
    DuplicateState,
    MissingTransition,
    NonInvertibleState,
    UnknownLetter,
)


def test_grigorchuk_transitions(grig):
    # a swaps and dies; b, c, d cycle with one live branch each
    assert grig.step(grig.parse_word("a")[0], 0) == (grig.parse_word("e")[0], 1)
    assert grig.step(grig.parse_word("a")[0], 1) == (grig.parse_word("e")[0], 0)
    for s, branch, target in (("b", 0, "a"), ("c", 0, "a"), ("d", 0, "e")):
        si = grig.parse_word(s)[0]
        assert grig.step(si, branch) == (grig.parse_word(target)[0], branch)
    assert section_of_word(grig, "b", "1") == ("c",)
    assert section_of_word(grig, "c", "1") == ("d",)
    assert section_of_word(grig, "d", "1") == ("b",)


def test_basilica_transitions(basilica):
    assert section_of_word(basilica, "a", "0") == ("e",)
    assert section_of_word(basilica, "a", "1") == ("b",)
    assert apply(basilica, "a", "0") == "1"
    assert apply(basilica, "a", "1") == "0"
    assert section_of_word(basilica, "b", "0") == ("e",)
    assert section_of_word(basilica, "b", "1") == ("a",)
    assert apply(basilica, "b", "01") == "01"


def test_section_threads_left_to_right(grig):
    # the first state transforms the letter before the next state reads it
    assert section_of_word(grig, "ad", "0") == ("e", "b")
    assert apply(grig, "ad", "0") == "1"


def test_perm_of_word(grig):
    p = perm_of_word(grig, "ab")
    assert (p(0), p(1)) == (1, 0)
    assert perm_of_word(grig, "b").is_identity
    assert not perm_of_word(grig, "a").is_identity


def test_permutation_is_an_immutable_value(grig):
    p = perm_of_word(grig, "a")
    assert repr(p) == "Permutation(image=(1, 0))"
    assert p == Permutation((1, 0)) and hash(p) == hash(Permutation((1, 0))) and p != (1, 0)
    with pytest.raises(AttributeError):
        p.image = (0, 1)
    with pytest.raises(AutomatonFormatError):
        Permutation((0, 0))
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert twin == p and twin.image == (1, 0)


def test_apply_frozen_values(grig, adding):
    assert apply(grig, "a", "01") == "11"
    # the odometer adds one with carry: 111 -> 000
    assert apply(adding, "a", "111") == "000"
    assert apply(adding, "a", "011") == "111"
    assert apply(adding, "", "0101") == "0101"


def test_apply_is_injective_per_length(grig):
    for w in ("a", "ab", "abcd"):
        images = {apply(grig, w, format(v, "06b")) for v in range(64)}
        assert len(images) == 64


def test_self_similarity_sampled():
    rng = random.Random(11)
    for name in catalog.names():
        A = catalog.get(name)
        for _ in range(150):
            w = "".join(rng.choice(A.states) for _ in range(rng.randrange(0, 7)))
            x = rng.choice(A.letters)
            v = "".join(rng.choice(A.letters) for _ in range(rng.randrange(0, 6)))
            lhs = apply(A, w, x + v)
            rhs = apply(A, w, x) + apply(A, section_of_word(A, w, x), v)
            assert lhs == rhs


def test_serialize_round_trip():
    for name in catalog.names():
        A = catalog.get(name)
        B = parse_automaton(serialize_automaton(A))
        assert A == B


def test_invert_odometer(adding):
    inv = invert(adding)
    # applying a then its inverse over the doubled automaton is the identity
    ic = inverse_closure(adding)
    B = ic.automaton
    w = ic.parse("aA")
    assert apply(B, w, "0110") == "0110"


def test_inverse_closure_parse(basilica):
    ic = inverse_closure(basilica)
    spelled = ic.parse("aAbB")
    assert len(spelled) == 4
    assert ic.inverse_word(ic.parse("a")) == ic.parse("A")
    with pytest.raises(UnknownLetter):
        ic.parse("z")


def test_minimize_collapses_clones():
    text = """\
alphabet: 0 1
states: e a a2
identity: e
trans: e 0 -> e 0
trans: e 1 -> e 1
trans: a 0 -> e 1
trans: a 1 -> a 0
trans: a2 0 -> e 1
trans: a2 1 -> a2 0
"""
    A = parse_automaton(text)
    M = minimize(A)
    assert len(M.states) == 2
    assert len(minimize(catalog.get("grigorchuk")).states) == 5


def test_alphabet_power(grig):
    P = alphabet_power(grig, 2)
    assert len(P.letters) == 4
    assert len(P.states) == len(grig.states)
    # one step on a block letter equals two steps on plain letters
    for v in range(4):
        blk = format(v, "02b")
        assert apply(P, "ab", (blk,)) == apply(grig, "ab", blk)


def test_parse_errors():
    with pytest.raises(MissingTransition):
        parse_automaton("alphabet: 0 1\nstates: s\ntrans: s 0 -> s 0\n")
    with pytest.raises(NonInvertibleState):
        parse_automaton(
            "alphabet: 0 1\nstates: s\ntrans: s 0 -> s 0\ntrans: s 1 -> s 0\n"
        )
    with pytest.raises(DuplicateState):
        parse_automaton(
            "alphabet: 0 1\nstates: s s\ntrans: s 0 -> s 0\ntrans: s 1 -> s 1\n"
        )
    with pytest.raises(UnknownLetter):
        catalog.get("grigorchuk").parse_word("axe")


def test_empty_word_spellings(grig):
    assert grig.parse_word("") == ()
    assert grig.parse_word("-") == ()
    assert apply(grig, "-", "0101") == "0101"


def test_alphabet_power_past_the_budget_raises_before_building(grig):
    import time

    from autgrp.contraction import check_item
    from autgrp.errors import BudgetExceeded

    one_letter = parse_automaton("alphabet: 0\nstates: e\nidentity: e\ntrans: e 0 -> e 0\n")
    start = time.perf_counter()
    # |S| * |X|^k * k digits: 5 * 2^14 * 14 and, with one letter, 10^9 * 1
    for call in (lambda: alphabet_power(grig, 14), lambda: alphabet_power(grig, 10**9),
                 lambda: alphabet_power(one_letter, 10**9), lambda: check_item(grig, 1, 24, "item1")):
        with pytest.raises(BudgetExceeded) as err:
            call()
        assert (err.value.budget, err.value.what) == (10**6, "alphabet power")
    assert time.perf_counter() - start < 1.0
    assert len(alphabet_power(grig, 3).letters) == 8
