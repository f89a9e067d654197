"""Block-shrink checks, certificates, and activity classification."""

import hashlib
from fractions import Fraction

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
)
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
    # grigorchuk's (2, 1) table with one section edited and its lines
    # reversed, loaded unchecked: it is written back from the file's rows,
    # in enumeration order
    lines = serialize_certificate(build_certificate(grig, 2, 1, "item1")).splitlines()
    edited = [ln.replace("-> c", "-> d.b") if ln.startswith("sect: a.b 0 ") else ln for ln in lines]
    loose = load_certificate("\n".join(edited[:1] + edited[:0:-1]), grig, validate=False)
    text = serialize_certificate(loose)
    assert text.splitlines() == edited
    assert _sha1(text) == "e8c130c70af3eb141d7405e5c73ecbbee6dad971"


def test_serializing_keeps_no_rows(basilica, grig):
    # rows the certificate holds are written as they are; the rest are read
    # off the walk and not kept on the certificate
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
    held = dict(loaded._memo)
    assert serialize_certificate(loaded) == text
    assert loaded._memo == held and len(held) == 16


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
        load_certificate(_with_header(weak, header), basilica, validate=False)


@pytest.mark.parametrize("validate", [True, False])
def test_load_rejects_identity_in_a_block(basilica, validate):
    # the weak (1, 1) table with block a's two lines spelled with e instead
    text = serialize_certificate(build_certificate(basilica, 1, 1, "item2"))
    lines = text.splitlines()
    assert [ln for ln in lines if ln.startswith("sect: a ")] == ["sect: a 0 -> -", "sect: a 1 -> b"]
    swapped = [ln for ln in lines if not ln.startswith("sect: a ")] + ["sect: e 0 -> -", "sect: e 1 -> -"]
    with pytest.raises(AutomatonFormatError, match="identity"):
        load_certificate("\n".join(swapped) + "\n", basilica, validate=validate)


def test_load_walks_each_block_once(basilica, monkeypatch):
    from autgrp.contraction import _ScanContext

    text = serialize_certificate(build_certificate(basilica, 6, 2, "item1"))
    assert len(text.splitlines()) == 1 + 4**6 * 4  # 4,096 blocks of 4 branches
    walks = []
    walk = _ScanContext.walk_word

    def spy(self, word):
        walks.append(word)
        return walk(self, word)

    monkeypatch.setattr(_ScanContext, "walk_word", spy)
    back = load_certificate(text, basilica)
    assert len(walks) <= 4096
    assert serialize_certificate(back) == text


def test_load_parses_each_branch_text_once(basilica, monkeypatch):
    from autgrp import contraction

    text = serialize_certificate(build_certificate(basilica, 3, 2, "item1"))
    parsed = []
    parse_branch = contraction._parse_branch
    monkeypatch.setattr(contraction, "_parse_branch", lambda *a: parsed.append(a[2]) or parse_branch(*a))
    back = load_certificate(text, basilica)
    assert sorted(parsed) == ["00", "01", "10", "11"]
    assert serialize_certificate(back) == text


@pytest.mark.parametrize("validate", [True, False])
def test_load_rejects_unknown_section_letters(basilica, validate):
    from autgrp.errors import UnknownLetter

    lines = serialize_certificate(build_certificate(basilica, 1, 1, "item2")).splitlines()
    assert lines[-1] == "sect: B 1 -> A"
    for bad in ("z", "a.z", "a..b"):
        text = "\n".join(lines[:-1] + [f"sect: B 1 -> {bad}"]) + "\n"
        with pytest.raises(UnknownLetter, match="section word"):
            load_certificate(text, basilica, validate=validate)
