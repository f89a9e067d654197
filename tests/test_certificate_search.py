"""Certificate search: one scan per cell, judged against a plain reference.

The reference walks every identity-free block with ``itertools.product``
and ``_ScanContext.walk_word`` and reads section lengths off the ball's
representatives, one mode at a time; the package's scan must agree with it
field by field, and the searches must pick the cells its grid prescribes.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from autgrp import catalog, contraction, parse_automaton
from autgrp.contraction import (
    MODES,
    ItemCheck,
    _ScanContext,
    best_certificate,
    build_certificate,
    check_item,
)
from autgrp.errors import CertificateNotFound
from autgrp.words import DEFAULT_BALL_BUDGET

# Off the catalog: a passes item1 at (3, 1) and item2 nowhere in the (4, 2)
# box, so item2 must drop out of the search once item1 is placed.
TRI = """\
alphabet: 0 1 2
states: e a
identity: e
trans: e 0 -> e 0
trans: e 1 -> e 1
trans: e 2 -> e 2
trans: a 0 -> a 1
trans: a 1 -> e 2
trans: a 2 -> a 0
"""
NAMES = catalog.names() + ("tri",)
BOXES = ((4, 2), (6, 2), (3, 3), (5, 1))


def _fails(mode, block, lengths):
    """(fails?, offending branch or None), written out per mode."""
    if mode == "item1":
        bad = [x for x, l in enumerate(lengths) if l >= block]
        return bool(bad), (bad[0] if bad else None)
    total = sum(lengths)
    return (total > block if mode == "item2" else total >= block), None


@functools.lru_cache(maxsize=None)
def automaton(name):
    return parse_automaton(TRI) if name == "tri" else catalog.get(name)


@functools.lru_cache(maxsize=None)
def reference(name, block, power, mode):
    A = automaton(name)
    ctx = _ScanContext(A, block, power)
    B = ctx.automaton
    branch_names = [B.letters_str(d) for d in itertools.product(range(len(B.letters)), repeat=power)]
    max_sec = max_sum = words = 0
    for word in itertools.product(ctx.enum, repeat=block):
        lengths = [len(ctx.rep_of_code(c)) for c in ctx.walk_word(word)]
        words += 1
        max_sec = max(max_sec, max(lengths))
        max_sum = max(max_sum, sum(lengths))
        failed, x = _fails(mode, block, lengths)
        if failed:
            witness = tuple(B.states[s] for s in word)
            branch = None if x is None else branch_names[x]
            return ItemCheck(False, mode, block, power, words, max_sec, max_sum, witness, branch)
    return ItemCheck(True, mode, block, power, words, max_sec, max_sum)


def _box(max_block, max_power):
    return [(b, p) for p in range(1, max_power + 1) for b in range(1, max_block + 1)]


def _first(name, mode, box):
    return next((cell for cell in _box(*box) if reference(name, *cell, mode).passed), None)


def _expected(name, box):
    """(mode, block, power) the preference rule prescribes on the reference grid."""
    firsts = {mode: _first(name, mode, box) for mode in MODES}
    mode = next((m for m in ("item3", "item1", "item2") if firsts[m] is not None), None)
    return None if mode is None else (mode, *firsts[mode])


def _assert_matches_reference(name, cert):
    res = reference(name, cert.block, cert.power, cert.mode)
    shrink = res.max_section if cert.mode == "item1" else res.max_section_sum
    assert cert.shrink_ratio == Fraction(shrink, cert.block)
    if cert.eager:
        ctx = cert._ctx
        for word in itertools.product(ctx.enum, repeat=cert.block):
            row = tuple((ctx.rep_of_code(c), ctx.branch_of_code(c)) for c in ctx.walk_word(word))
            assert cert._row(word) == row, word


@pytest.mark.parametrize("name", NAMES)
def test_check_item_equals_reference(name):
    A = automaton(name)
    for block, power, mode in itertools.product(range(1, 5), range(1, 3), MODES):
        assert check_item(A, block, power, mode) == reference(name, block, power, mode), (block, power, mode)


@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize("name", NAMES)
def test_searches_follow_the_preference_rules(name, box):
    A = automaton(name)
    want = _expected(name, box)
    cert = best_certificate(A, *box)
    if want is None:
        assert cert is None
    else:
        assert (cert.mode, cert.block, cert.power) == want
        _assert_matches_reference(name, cert)


@pytest.mark.parametrize("name", NAMES)
def test_each_cell_is_scanned_once_for_the_live_modes(name, monkeypatch):
    scans = []
    scan = contraction._scan_exhaustive

    def spy(ctx, modes):
        scans.append((ctx.block, ctx.power, tuple(modes)))
        return scan(ctx, modes)

    monkeypatch.setattr(contraction, "_scan_exhaustive", spy)
    box = (4, 2)
    best_certificate(automaton(name), *box)
    # the live modes: those preferred over every mode already placed
    preference = ("item3", "item1", "item2")
    live, want = preference, []
    for cell in _box(*box):
        want.append((*cell, live))
        passed = [m for m in live if reference(name, *cell, m).passed]
        live = live[: min(map(preference.index, passed), default=len(live))]
        if not live:
            break
    assert scans == want


@pytest.mark.parametrize("name", NAMES)
def test_one_context_per_cell(name, monkeypatch):
    built = []
    init = _ScanContext.__init__

    def counting(self, *args):
        built.append(args[1:3])
        init(self, *args)

    monkeypatch.setattr(_ScanContext, "__init__", counting)
    A = automaton(name)
    best_certificate(A, 4, 2)
    assert len(built) <= 8
    assert len(set(built)) == len(built)
    built.clear()
    check_item(A, 2, 1, "item1")
    assert len(built) == 1
    built.clear()
    try:
        build_certificate(A, 2, 1, "item2")
    except CertificateNotFound:
        pass
    assert len(built) == 1

