"""What ``load_certificate`` refuses, by error type and message, and the
spellings it reads back: comments, blank lines, '.'-joined branches, and
multi-character or dotted letters."""

import pytest

from autgrp import (
    MealyAutomaton,
    alphabet_power,
    best_certificate,
    build_certificate,
    check_item,
    load_certificate,
    serialize_certificate,
)
from autgrp.errors import AutomatonFormatError, UnknownLetter


@pytest.fixture(scope="module")
def grig_lines(grig):
    lines = serialize_certificate(build_certificate(grig, 2, 1, "item1")).splitlines()
    assert lines[:3] == ["item1 2 1 1/2", "sect: a.a 0 -> -", "sect: a.a 1 -> -"]
    assert len(lines) == 1 + 32
    return lines


def _refused(text, A, error, message):
    with pytest.raises(error) as err:
        load_certificate(text, A)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize(
    "extra, error, message",
    [
        ("hello", AutomatonFormatError, "unexpected line 'hello'"),
        ("sect: a.b 0 ->", AutomatonFormatError, "expected 'sect: w x -> w_x', got 'sect: a.b 0 ->'"),
        ("sect: a.b 0 => c", AutomatonFormatError, "expected 'sect: w x -> w_x', got 'sect: a.b 0 => c'"),
        ("sect: a.b 0 -> c d", AutomatonFormatError, "expected 'sect: w x -> w_x', got 'sect: a.b 0 -> c d'"),
        ("sect: a.b 00 -> c", AutomatonFormatError, "branch '00' is not 1 letters"),
        ("sect: a.b 2 -> c", UnknownLetter, "unknown letter: '2'"),
        ("sect: a 0 -> c", AutomatonFormatError, "block 'a' is not 2 letters"),
        ("sect: a.b.c 0 -> c", AutomatonFormatError, "block 'a.b.c' is not 2 letters"),
        ("sect: a.z 0 -> c", UnknownLetter, "unknown block word: 'a.z'"),
        ("sect: ab 0 -> c", UnknownLetter, "unknown block word: 'ab'"),
        ("sect: a.e 0 -> c", AutomatonFormatError, "block 'a.e' holds the identity letter"),
        ("sect: a.b 0 -> c.z", UnknownLetter, "unknown section word: 'c.z'"),
    ],
)
def test_load_refuses_a_bad_line(grig, grig_lines, extra, error, message):
    # each bad line refused wherever it stands among the good ones
    for at in (1, len(grig_lines)):
        _refused("\n".join(grig_lines[:at] + [extra] + grig_lines[at:]), grig, error, message)


def test_load_refuses_missing_entries(grig, grig_lines):
    _refused("\n".join(grig_lines[:-1]), grig, AutomatonFormatError, "certificate has 31 entries; expected 32")
    _refused(grig_lines[0], grig, AutomatonFormatError, "certificate has 0 entries; expected 32")
    _refused("# nothing\n\n", grig, AutomatonFormatError, "empty certificate")


def test_load_reads_comments_and_blank_lines(grig, grig_lines):
    text = "\n".join(
        ["# grigorchuk, (2, 1)", "", grig_lines[0] + "  # header"]
        + [ln + " # entry" for ln in grig_lines[1:]]
        + ["   ", "# end"]
    )
    assert serialize_certificate(load_certificate(text, grig)).splitlines() == grig_lines


def test_load_reads_dotted_branches(basilica):
    text = serialize_certificate(build_certificate(basilica, 3, 2, "item1"))
    assert "sect: a.a.a 01 -> a" in text.splitlines()
    # one-character letters read run together or '.'-joined, in one file
    mixed = text.replace(" 01 ", " 0.1 ", 5)
    assert mixed != text
    assert serialize_certificate(load_certificate(mixed, basilica)) == text
    # the same entry in both spellings is one entry
    dup = text + "sect: a.a.a 0.1 -> a\n"
    assert serialize_certificate(load_certificate(dup, basilica)) == text
    _refused(
        text + "sect: a.a.a 0.1 -> b\n",
        basilica,
        AutomatonFormatError,
        "entry for (a.a.a, 0.1) is given twice with different sections",
    )


def _renamed(A, names):
    return MealyAutomaton(names, A.states, A._next, A._out, identity=A.identity)


def test_multi_character_letters_round_trip(basilica):
    x = _renamed(basilica, ["x0", "x1"])
    text = serialize_certificate(build_certificate(x, 3, 2, "item1"))
    # the basilica's table, letter for letter, its branches '.'-joined
    plain = serialize_certificate(build_certificate(basilica, 3, 2, "item1"))
    spelled = {"00": "x0.x0", "01": "x0.x1", "10": "x1.x0", "11": "x1.x1"}
    want = [" ".join(spelled.get(t, t) for t in ln.split(" ")) for ln in plain.splitlines()]
    assert text.splitlines() == want
    assert serialize_certificate(load_certificate(text, x)) == text
    # a failing scan names its witness branch in the same spelling
    assert check_item(basilica, 1, 2, "item1").witness_branch == "11"
    assert check_item(x, 1, 2, "item1").witness_branch == "x1.x1"


def test_dotted_letters_round_trip(basilica):
    x = _renamed(basilica, ["x0", "x1"])
    power = alphabet_power(x, 2)
    assert power.letters == ("x0.x0", "x0.x1", "x1.x0", "x1.x1")
    cert = best_certificate(power, 3, 1)
    assert (cert.block, cert.power) == (3, 1)
    text = serialize_certificate(cert)
    assert "sect: a.a.a x0.x1 -> a" in text.splitlines()  # a power-1 branch whose letter holds a dot
    assert serialize_certificate(load_certificate(text, power)) == text
    # at power 2 each branch is two dotted letters, four '.'-joined parts:
    # the entries of the basilica's (2, 4) table, letter for letter
    cert = build_certificate(power, 2, 2, "item2")
    text = serialize_certificate(cert)
    plain = serialize_certificate(build_certificate(basilica, 2, 4, "item2")).splitlines()
    spelled = lambda t: ".".join("x" + ch for ch in t) if len(t) == 4 and set(t) <= set("01") else t
    assert text.splitlines()[1:] == [" ".join(map(spelled, ln.split(" "))) for ln in plain[1:]]
    assert text.splitlines()[2] == "sect: a.a x0.x0.x0.x1 -> -"
    back = load_certificate(text, power)
    assert serialize_certificate(back) == text
    assert back.shrink_ratio == cert.shrink_ratio
    _refused(
        text + "sect: a.a x0.x0.x0 -> a\n",
        power,
        AutomatonFormatError,
        "branch 'x0.x0.x0' is not 2 letters",
    )
