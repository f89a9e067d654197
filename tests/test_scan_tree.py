"""The certificate scan's depth-first walk against the block-by-block one.

``_scan(ctx, modes, _all_blocks(ctx))`` judges every identity-free block in
enumeration order and is the reference: ``_scan_exhaustive`` must return the
same ``ItemCheck`` for every mode set, field by field, while it walks about
the Cayley ball's size instead of every block.
"""

import itertools
import random
import sys
from collections import Counter

import pytest
from test_fuzz import _random_automaton

from autgrp import catalog
from autgrp.contraction import MODES, _all_blocks, _scan, _scan_exhaustive, _ScanContext

MODE_SETS = [ms for r in range(1, 4) for ms in itertools.combinations(MODES, r)]
CATALOG_CELLS = [(b, 1) for b in range(1, 7)] + [(b, 2) for b in range(1, 5)]
FUZZ_CELLS = ((1, 1), (2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2))


def _assert_same_scans(A, cells, label):
    for block, power in cells:
        ctx = _ScanContext(A, block, power)
        for modes in MODE_SETS:
            want = _scan(ctx, modes, _all_blocks(ctx))
            assert _scan_exhaustive(ctx, modes) == want, (label, block, power, modes)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_cells_match_the_block_scan(name):
    _assert_same_scans(catalog.get(name), CATALOG_CELLS, name)


@pytest.mark.parametrize("seeds", [range(12), pytest.param(range(12, 300), marks=pytest.mark.slow)])
def test_fuzz_cells_match_the_block_scan(seeds):
    for seed in seeds:
        _assert_same_scans(_random_automaton(random.Random(seed)), FUZZ_CELLS, seed)


class _CountedRow(list):
    """A transition row that counts its reads and stops the scan past a cap."""

    reads = 0
    cap = 0

    def __getitem__(self, i):
        _CountedRow.reads += 1
        if _CountedRow.reads > _CountedRow.cap:
            raise AssertionError("the scan reads more rows than the ball allows")
        return list.__getitem__(self, i)


def test_walk_expands_about_the_ball(grig):
    # a node below which only leaves lie is not kept, so its children are
    # walked once per parent: the nodes expanded are at most the balls of
    # radius 0..L-2 plus |enum| times the one of radius L-2, where per-block
    # walking would expand |enum|^L nodes
    L = 10
    ctx = _ScanContext(grig, L, 1)
    n = len(ctx.enum)
    lengths = Counter(ctx.ball.length)
    ball = [sum(lengths[j] for j in range(r + 1)) for r in range(L + 1)]
    bound = sum(ball[: L - 1]) + n * ball[L - 2]
    assert bound < n**L // 500
    ctx.trans = {s: _CountedRow(row) for s, row in ctx.trans.items()}
    _CountedRow.reads, _CountedRow.cap = 0, bound * n * ctx.branches  # one read per child and branch
    res = _scan_exhaustive(ctx, MODES)
    assert res["item1"].passed and res["item1"].words_checked == n**L
    assert _CountedRow.reads <= _CountedRow.cap


def test_walk_needs_no_recursion(adding):
    # 2^150 blocks, walked without Python recursion: the limit sits 100
    # frames above the caller
    ctx = _ScanContext(adding, 150, 1)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        res = _scan_exhaustive(ctx, ("item1",))["item1"]
    finally:
        sys.setrecursionlimit(limit)
    assert res.passed and res.words_checked == 2**150


def test_scan_stops_at_the_last_failure(grig):
    # every mode fails on the first blocks of (1, 1), so the walk stops there
    ctx = _ScanContext(grig, 1, 1)
    res = _scan_exhaustive(ctx, MODES)
    assert res == _scan(ctx, MODES, _all_blocks(ctx))
    assert not any(r.passed for r in res.values())
    assert max(r.words_checked for r in res.values()) < len(ctx.enum)
