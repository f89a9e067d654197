"""Block-shrink checks, certificates, and activity classification."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from autgrp import (
    activity_count,
    best_certificate,
    build_certificate,
    check_item,
    check_item_sampled,
    classify_activity,
    load_certificate,
    loopify,
    mx_step,
    serialize_certificate,
    solvers,
)
from autgrp.automata import _power_tables
from autgrp.errors import (
    AutomatonFormatError,
    NotPolynomial,
)


# ---------------------------------------------------------------- check_item

def test_grig_shrinks_every_pair(grig):
    r = check_item(grig, 2, 1, "item1")
    assert r.passed
    assert (r.mode, r.block, r.power) == ("item1", 2, 1)
    assert r.words_checked == 16  # 4 non-identity states, squared
    assert r.max_section == 1
    assert r.witness is None


def test_grig_pair_fails_total_sum(grig):
    # the same cell under the harsher total-length reading has a witness
    r = check_item(grig, 2, 1, "item3")
    assert not r.passed
    assert r.witness == ("a", "b")


def test_basilica_strong_cell(basilica):
    r = check_item(basilica, 3, 2, "item1")
    assert r.passed
    assert r.max_section == 2  # 2/3 shrink
    assert r.words_checked == 64


def test_basilica_weak_cell(basilica):
    # single letters never grow, but 'a' maps to 'b' with no progress
    assert check_item(basilica, 1, 1, "item2").passed
    r = check_item(basilica, 1, 1, "item1")
    assert not r.passed
    assert r.witness == ("a",)
    assert r.witness_branch == "1"


def test_poly1_never_shrinks(poly1):
    assert check_item(poly1, 3, 1, "item1").witness == ("a", "b", "b")
    assert check_item(poly1, 3, 1, "item2").witness == ("a", "a", "b")


def test_sampled_check_agrees_with_exhaustive(grig):
    r = check_item_sampled(grig, 2, 1, "item1", samples=500, seed=7)
    assert r.passed
    assert r.words_checked == 500


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_check_needs_a_sample(basilica, samples):
    # no block was looked at, so there is nothing to pass
    with pytest.raises(AutomatonFormatError, match="at least one sample"):
        check_item_sampled(basilica, 1, 1, "item1", samples=samples)


# -------------------------------------------------------------- certificates

def test_find_certificate_grig(grig_cert):
    assert (grig_cert.mode, grig_cert.block, grig_cert.power) == ("item1", 2, 1)
    assert grig_cert.shrink_ratio == Fraction(1, 2)
    assert grig_cert.stage_ratio == Fraction(3, 4)


def test_best_certificate_avoids_weak_mode(grig, basilica, poly1):
    c = best_certificate(basilica, 4, 2)
    assert (c.mode, c.block, c.power) == ("item1", 3, 2)
    assert c.shrink_ratio == Fraction(2, 3)
    assert c.stage_ratio == Fraction(5, 6)
    g = best_certificate(grig, 4, 2)
    assert (g.mode, g.block, g.power) == ("item1", 2, 1)
    assert best_certificate(poly1, 4, 2) is None


def test_mx_step_rewrites_blocks(grig_cert, basilica_cert, basilica_weak_cert):
    assert mx_step(basilica_weak_cert, 0, "ab") == ("a",)
    assert mx_step(basilica_weak_cert, 1, "ab") == ("b",)
    assert mx_step(basilica_cert, 0, "abbaab") == ("b",)
    assert mx_step(grig_cert, 0, "abab") == ("c", "a")
    assert mx_step(grig_cert, 1, "abab") == ("a", "c")
    assert mx_step(grig_cert, np.int64(1), "abab") == ("a", "c")
    with pytest.raises(AutomatonFormatError, match="integer"):
        mx_step(grig_cert, 1.5, "ab")  # no truncation to branch 1


def _threaded_ends(rw, seg):
    """Each branch threaded through the segment letter by letter by the
    power alphabet's output table: the branch-permutation check the Python
    tape made before it read the end branches off the table rows."""
    out = _power_tables(rw.automaton, rw.power)[1]
    ends = []
    for x in range(rw.branches):
        cur = x
        for s in seg:
            cur = out[s][cur]
        ends.append(cur)
    return ends


def test_section_ends_are_the_threaded_branches(grig, basilica, poly1, grig_cert, basilica_cert, basilica_weak_cert):
    rewriters = {
        "grig item1 (2,1)": grig_cert,
        "basilica item1 (3,2)": basilica_cert,
        "basilica item2 (1,1)": basilica_weak_cert,
        "poly1 reset rule": solvers._literal_sections(poly1),
        "basilica reset rule": solvers._literal_sections(basilica),
        "grig loaded": load_certificate(serialize_certificate(grig_cert), grig),
        "basilica loaded": load_certificate(serialize_certificate(basilica_cert), basilica),
    }
    rng = random.Random(16)
    for name, rw in rewriters.items():
        letters = range(len(rw.automaton.states))  # the identity among them
        fixed = list(range(rw.branches))
        permuting = 0
        for _ in range(150):
            seg = rng.choices(letters, k=rng.randrange(3 * rw.block + 2))  # every tail length
            ends = _threaded_ends(rw, seg)
            permuting += ends != fixed
            for strip in (False, True):
                assert rw.sections(seg, strip)[1] == ends, (name, seg, strip)
        assert 0 < permuting < 150, name  # both verdicts of the check are seen


def test_serialize_round_trip(grig, grig_cert):
    text = serialize_certificate(grig_cert)
    assert text.splitlines()[0] == "item1 2 1 1/2"
    assert text.splitlines()[1].startswith("sect: ")
    back = load_certificate(text, grig)
    assert serialize_certificate(back) == text
    assert (back.mode, back.block, back.power) == ("item1", 2, 1)
    assert back.shrink_ratio == Fraction(1, 2)
    assert back.eager
    # the reloaded table rewrites identically
    assert mx_step(back, 0, "abab") == ("c", "a")


def test_load_validates_against_automaton(basilica, grig_cert):
    text = serialize_certificate(grig_cert)
    with pytest.raises(AutomatonFormatError):
        load_certificate(text, basilica)


# ------------------------------------------------------------ classification

def test_activity_grig(grig):
    assert [activity_count(grig, "a", n) for n in range(6)] == [1, 0, 0, 0, 0, 0]
    assert [activity_count(grig, "b", n) for n in range(6)] == [1, 2, 2, 1, 2, 2]


def test_activity_basilica(basilica):
    assert [activity_count(basilica, "a", n) for n in range(6)] == [1] * 6


def test_activity_poly1(poly1):
    assert [activity_count(poly1, "b", n) for n in range(6)] == [1, 2, 3, 4, 5, 6]


def test_classify_catalog(grig, basilica, poly1, flip, adding):
    for A, kind, degree, bound in (
        (grig, "bounded", 0, 2),
        (basilica, "bounded", 0, 1),
        (adding, "bounded", 0, 1),
        (poly1, "polynomial", 1, None),
        (flip, "exponential", None, None),
    ):
        c = classify_activity(A)
        assert (c.kind, c.degree, c.bound) == (kind, degree, bound)


def test_loopify_flattens_cycles(grig, basilica, poly1):
    for A, k, n_states in ((grig, 3, 5), (basilica, 2, 3), (poly1, 1, 3)):
        flat, power = loopify(A)
        assert power == k
        assert len(flat.states) == n_states
        assert len(flat.letters) == len(A.letters) ** k


def test_loopify_rejects_exponential(flip):
    with pytest.raises(NotPolynomial):
        loopify(flip)


def test_round_trip_after_solving(grig):
    # solving rewrites blocks holding the identity letter; they are memoized
    # apart from the table, so the file keeps its 32 identity-free entries
    from autgrp import solve_contracting

    cert = build_certificate(grig, 2, 1, "item1")
    before = serialize_certificate(cert)
    solve_contracting(grig, cert, "eeab")
    solve_contracting(grig, cert, "aebe" * 8)
    text = serialize_certificate(cert)
    assert text == before
    assert len(text.splitlines()) == 1 + 32
    assert serialize_certificate(load_certificate(text, grig)) == text


# sha1 of serialize_certificate's text for fixed catalog cells, computed
# when the table was still built eagerly as one sorted entry dict: the rows
# are written block by block in enumeration order, byte for byte as before
SERIALIZED_SHA1 = {
    ("grigorchuk", 2, 1, "item1"): "9a2a200903375bcdeb9c112c3a2a8635353cace8",
    ("grigorchuk", 3, 2, "item1"): "f4238e4afd35465f11f73a13c3795ccf160d93b3",
    ("basilica", 1, 1, "item2"): "0482c64f20d2140180f997387af02269970f041c",
    ("basilica", 3, 2, "item1"): "af6ba38b6e2e9fa4e6a8fc478f3b6ed9962420f5",
    ("basilica", 6, 2, "item1"): "e4ea4ec2f741de107c4efa81419cb7197fe9f32a",
    ("adding", 2, 1, "item1"): "a8f920398fc76fed040944752b9604e838526d8c",
    ("flip", 2, 1, "item3"): "1144701ca5fec710c745157696916e6c82b028d2",
    ("trivial", 1, 1, "item3"): "26a9af99a21e80a689e7f52497e7f4c995f9b4ac",
}


def _sha1(text):
    return hashlib.sha1(text.encode()).hexdigest()


@pytest.mark.parametrize("cell", SERIALIZED_SHA1, ids=lambda cell: "-".join(map(str, cell)))
def test_serialized_tables_are_pinned(cell):
    from autgrp import catalog

    name, block, power, mode = cell
    A = catalog.get(name)
    text = serialize_certificate(build_certificate(A, block, power, mode))
    assert _sha1(text) == SERIALIZED_SHA1[cell]
    assert serialize_certificate(load_certificate(text, A)) == text


def test_unvalidated_table_serializes_as_it_reads(grig):
    # no table loads unchecked: grigorchuk's (2, 1) table with one section
    # edited is refused, naming the entry, while its lines reversed load
    # and are written back in enumeration order
    lines = serialize_certificate(build_certificate(grig, 2, 1, "item1")).splitlines()
    for edit in ("-> d.b", "-> b"):
        edited = [ln.replace("-> c", edit) if ln.startswith("sect: a.b 0 ") else ln for ln in lines]
        assert edited != lines
        with pytest.raises(AutomatonFormatError, match=r"entry for \(a\.b, 0\) does not match"):
            load_certificate("\n".join(edited[:1] + edited[:0:-1]), grig)
    back = load_certificate("\n".join(lines[:1] + lines[:0:-1]), grig)
    text = serialize_certificate(back)
    assert text.splitlines() == lines
    assert _sha1(text) == SERIALIZED_SHA1[("grigorchuk", 2, 1, "item1")]


def test_load_takes_a_repeated_entry_only_as_given(grig):
    # a line given twice loads when it repeats the first, and is refused
    # when it gives the entry another section
    lines = serialize_certificate(build_certificate(grig, 2, 1, "item1")).splitlines()
    entry = next(ln for ln in lines if ln.startswith("sect: a.b 0 "))
    assert entry == "sect: a.b 0 -> c"
    back = load_certificate("\n".join(lines + [entry]), grig)
    assert serialize_certificate(back).splitlines() == lines
    with pytest.raises(AutomatonFormatError, match=r"\(a\.b, 0\) is given twice"):
        load_certificate("\n".join(lines + ["sect: a.b 0 -> b"]), grig)


def test_serializing_keeps_no_rows(basilica, grig):
    # rows are read off the walk and not kept on the certificate; rows a
    # solve memoized are the walk's, so they write the same text
    cert = build_certificate(basilica, 6, 2, "item1")
    serialize_certificate(cert)
    assert cert._memo == {}
    from autgrp import solve_contracting

    cert = build_certificate(grig, 2, 1, "item1")
    solve_contracting(grig, cert, "ab" * 8)
    held = dict(cert._memo)
    text = serialize_certificate(cert)
    assert held and cert._memo == held
    loaded = load_certificate(text, grig)
    assert loaded._memo == {}  # a loaded certificate holds no rows either
    assert serialize_certificate(loaded) == text
    assert loaded._memo == {}


def test_table_above_the_budget_is_not_serialized(grig):
    # 4^8 blocks of 4 branches is above DEFAULT_TABLE_BUDGET
    cert = build_certificate(grig, 8, 2, "item1")
    assert not cert.eager
    with pytest.raises(AutomatonFormatError, match="eager budget"):
        serialize_certificate(cert)


def _with_header(cert, header):
    lines = serialize_certificate(cert).splitlines()
    return "\n".join([header] + lines[1:]) + "\n"


def test_load_recomputes_the_header(basilica):
    weak = build_certificate(basilica, 1, 1, "item2")
    assert serialize_certificate(weak).splitlines()[0] == "item2 1 1 1/1"
    # the weak table claimed as a per-section shrink: 'a' keeps length 1
    with pytest.raises(AutomatonFormatError, match="mode item1"):
        load_certificate(_with_header(weak, "item1 1 1 0/1"), basilica)
    with pytest.raises(AutomatonFormatError, match="ratio"):
        load_certificate(_with_header(weak, "item2 1 1 1/2"), basilica)
    strong = build_certificate(basilica, 3, 2, "item1")
    with pytest.raises(AutomatonFormatError, match="ratio"):
        load_certificate(_with_header(strong, "item1 3 2 1/3"), basilica)
    back = load_certificate(serialize_certificate(strong), basilica)
    assert back.shrink_ratio == Fraction(2, 3)


@pytest.mark.parametrize(
    "header",
    ["item2 1 1 1/0", "item2 x 1 1/1", "item2 1 1 abc", "item2 1 1 1", "item2 1 y 1/1", "item2 1 1 3/2"],
)
def test_malformed_header_numbers(basilica, header):
    weak = build_certificate(basilica, 1, 1, "item2")
    with pytest.raises(AutomatonFormatError):
        load_certificate(_with_header(weak, header), basilica)


def test_load_rejects_identity_in_a_block(basilica):
    # the weak (1, 1) table with block a's two lines spelled with e instead
    text = serialize_certificate(build_certificate(basilica, 1, 1, "item2"))
    lines = text.splitlines()
    assert [ln for ln in lines if ln.startswith("sect: a ")] == ["sect: a 0 -> -", "sect: a 1 -> b"]
    swapped = [ln for ln in lines if not ln.startswith("sect: a ")] + ["sect: e 0 -> -", "sect: e 1 -> -"]
    with pytest.raises(AutomatonFormatError, match="identity"):
        load_certificate("\n".join(swapped) + "\n", basilica)


def test_load_walks_each_block_once(basilica, monkeypatch):
    from autgrp import contraction
    from autgrp.contraction import _ScanContext

    text = serialize_certificate(build_certificate(basilica, 6, 2, "item1"))
    assert len(text.splitlines()) == 1 + 4**6 * 4  # 4,096 blocks of 4 branches
    walks, passes = [], []
    walk, all_blocks = _ScanContext.walk_word, contraction._all_blocks

    def spy(self, word):
        walks.append(word)
        return walk(self, word)

    def blocks(ctx):
        passes.append(0)
        for item in all_blocks(ctx):
            passes[-1] += 1
            yield item

    monkeypatch.setattr(_ScanContext, "walk_word", spy)
    monkeypatch.setattr(contraction, "_all_blocks", blocks)
    back = load_certificate(text, basilica)
    assert walks == []  # the entries are checked on the cell's walk
    assert passes == [4096]  # which goes over the cell once
    monkeypatch.undo()
    assert serialize_certificate(back) == text


@pytest.mark.parametrize("header", ["item1 1000000000 1 1/2", "item1 24 1 1/2"])
def test_load_refuses_a_header_above_the_budget(grig, header):
    # no file serialize_certificate writes exceeds DEFAULT_TABLE_BUDGET, so
    # such a header is refused before any ball is grown for its cell
    from autgrp import words

    words.cayley_ball.cache_clear()
    with pytest.raises(AutomatonFormatError, match="eager budget"):
        load_certificate(f"{header}\nsect: a.a 0 -> -\n", grig)
    assert words._ball_layers.cache_info().currsize == 0


def test_load_parses_each_branch_text_once(basilica, monkeypatch):
    from autgrp import contraction

    text = serialize_certificate(build_certificate(basilica, 3, 2, "item1"))
    parsed = []
    parse_branch = contraction._parse_branch
    monkeypatch.setattr(contraction, "_parse_branch", lambda *a: parsed.append(a[2]) or parse_branch(*a))
    back = load_certificate(text, basilica)
    assert sorted(parsed) == ["00", "01", "10", "11"]
    assert serialize_certificate(back) == text


def test_load_rejects_unknown_section_letters(basilica):
    from autgrp.errors import UnknownLetter

    lines = serialize_certificate(build_certificate(basilica, 1, 1, "item2")).splitlines()
    assert lines[-1] == "sect: B 1 -> A"
    for bad in ("z", "a.z", "a..b"):
        text = "\n".join(lines[:-1] + [f"sect: B 1 -> {bad}"]) + "\n"
        with pytest.raises(UnknownLetter, match="section word"):
            load_certificate(text, basilica)


# every branch's rewrite of words whose tails hold identity letters, as
# computed when each (block, branch) entry and each tail were read apart
MX_TAILS = {
    "grig": {
        "abe": [("c", "e"), ("a", "e")],
        "aebda": [("d", "e"), ("a", "e")],
        "eae": [("e",), ("e",)],
        "dcbae": [("a", "a", "e"), ("c", "c", "e")],
    },
    "basilica": {
        "abAe": [("e",), ("b", "e"), ("e",), ("e",)],
        "aBeb": [("B", "b"), ("e",), ("e",), ("a", "e")],
        "ebab": [("e",), ("b",), ("a", "e"), ("b", "e")],
        "abeBa": [("e", "e"), ("b", "B", "a"), ("e", "e"), ("a", "e", "e")],
        "AeabB": [("e", "e"), ("e", "e"), ("e", "e"), ("b", "B")],
        "babAB": [("e", "e"), ("b", "e", "e"), ("a", "A", "e"), ("b", "e", "B")],
    },
}


@pytest.mark.parametrize("name", MX_TAILS)
def test_mx_step_keeps_tail_identity_letters(name, grig_cert, basilica_cert):
    cert = {"grig": grig_cert, "basilica": basilica_cert}[name]
    reads = cert.table_reads
    for word, sections in MX_TAILS[name].items():
        assert [mx_step(cert, x, word) for x in range(cert.branches)] == sections, word
    assert cert.table_reads == reads  # a single rewrite is no solve


def test_a_moved_branch_gets_no_sections(grig_cert, basilica_cert, basilica_weak_cert):
    # with moved off, the ends are threaded first and a segment that moves a
    # branch gets None; one that moves none gets the full call's answer
    rng = random.Random(20)
    for rw in (grig_cert, basilica_cert, basilica_weak_cert):
        letters = range(len(rw.automaton.states))
        fixed = list(range(rw.branches))
        moved = 0
        for _ in range(100):
            seg = rng.choices(letters, k=rng.randrange(3 * rw.block + 2))
            for strip in (False, True):
                outs, ends = rw.sections(seg, strip)
                assert rw.sections(seg, strip, moved=False) == ((outs, ends) if ends == fixed else None)
            moved += ends != fixed
        assert 0 < moved < 100
    a = grig_cert.automaton.states.index("a")
    assert grig_cert.sections([a] * 3, True)[1] == [1, 0]  # a^3 = a swaps the branches
    assert grig_cert.sections([a] * 3, True, moved=False) is None
