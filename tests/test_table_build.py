"""The halving table build: closure check, missing letters, rebuilt tables.

``verify_table_closure`` re-derives every (a, b, x) cell from coordinates;
these tests corrupt single cells, shrink letter sets so that some c falls
outside them (one of them outside the set's coordinate bounding box), and
rebuild the shared tables over the same letters.
"""

import numpy as np
import pytest

from autgrp import NilpotentInstance, build_instance, instance_with_letters, verify_table_closure
from autgrp import nilpotent
from autgrp.errors import AutomatonFormatError
from autgrp.nilpotent import _fill_tables

TABLES = ("act", "c_tab", "y_tab", "inverse_index")


def _cell_name(inst, a, b, x):
    return (inst.letter_names[a], inst.letter_names[b], inst.rep_name(x))


def _reference_c(inst):
    """c = phi^-1(x*a*b*y^-1) of every cell in c_tab's order, by the scalar
    law on Python ints, which cannot overflow."""
    law = inst.ops
    reps = [law.rep_at(x) for x in range(law.n_reps)]
    return [law.transition(a, b, x)[0] for a in inst.letters for b in inst.letters for x in reps]


@pytest.mark.parametrize("kind", ["z2", "heis"])
@pytest.mark.parametrize("table", ["c_tab", "y_tab"])
def test_one_corrupt_cell_is_the_only_witness(kind, table):
    inst = instance_with_letters(kind, build_instance(kind).letters)
    assert verify_table_closure(inst)
    nN, nX = inst.n_letters, inst.n_reps
    for a, b, x in ((1, nN - 2, nX - 1), (nN - 1, 0, 3), (inst.e_index, inst.e_index, 0)):
        tab = getattr(inst, table)
        old = int(tab[a, b, x])
        tab[a, b, x] = (old + 1) % (nN if table == "c_tab" else nX)
        chk = verify_table_closure(inst)
        assert not chk
        assert chk.witnesses == [_cell_name(inst, a, b, x)]
        tab[a, b, x] = old
    assert verify_table_closure(inst)


def test_missing_letters_of_shrunk_heis_sets(heis):
    # (1, -1, -2) is the only letter with z = -2; without it the set's box
    # stops at z = -1, so the c that needs it lies outside the box
    drop = [(1, -1, -2), (-1, 1, 1)]
    letters = [c for c in heis.letters if c not in drop]
    assert min(c[2] for c in letters) == -1
    missing, _ = _fill_tables(NilpotentInstance(heis.ops, letters))
    assert missing == [(-1, 1, 1), (1, -1, -2)]

    letters = [c for c in heis.letters if c not in ((0, 1, 1), (0, -1, -1))]
    missing, _ = _fill_tables(NilpotentInstance(heis.ops, letters))
    assert missing == [(0, -1, -1), (0, 1, 1)]

    missing, _ = _fill_tables(NilpotentInstance(heis.ops, heis.ops.seed_letters()))
    assert missing == [
        (-1, -1, 0), (-1, -1, 1), (-1, 0, -1), (-1, 0, 1), (-1, 1, -1), (-1, 1, 0),
        (0, -1, -1), (0, -1, 1), (0, 1, -1), (0, 1, 1),
        (1, -1, -1), (1, -1, 0), (1, 0, -1), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    ]

    missing, _ = _fill_tables(NilpotentInstance(heis.ops, heis.letters))
    assert missing == []


@pytest.mark.parametrize("kind", ["z4", "z2", "heis"])
def test_rebuilt_tables_match_the_shared_ones(kind):
    shared = build_instance(kind)
    inst = instance_with_letters(kind, shared.letters)
    assert inst is not shared and inst.letters == shared.letters
    pairs = [(getattr(inst, t), getattr(shared, t)) for t in TABLES]
    pairs += list(zip(inst.pair_cols, shared.pair_cols))
    assert len(inst.pair_cols) == inst.ops.dim
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        assert got.flags.c_contiguous


@pytest.mark.parametrize(
    "kind, extra",
    [("z4", [(5000,), (-5000,)]), ("heis", [(0, 0, 5000), (0, 0, -5000), (4096, 1, 0), (-4096, -1, 4096)])],
)
def test_large_coordinates_match_the_int64_reference(kind, extra):
    # coordinates past 2**12 build the cube in int64
    shared = build_instance(kind)
    inst = NilpotentInstance(shared.ops, list(shared.letters) + extra)
    missing, _ = _fill_tables(inst)
    rows = _reference_c(inst)
    assert missing == sorted(set(rows) - set(inst.letters))
    index = {c: i for i, c in enumerate(inst.letters)}
    want = [index.get(r, inst.e_index) for r in rows]
    assert inst.c_tab.reshape(-1).tolist() == want
    assert not verify_table_closure(inst)


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("z4", lambda m: [(m,), (-m,)]),
        ("heis", lambda m: [(m, 0, m), (-m, 0, -m), (0, m, -m), (0, -m, m), (m, 1, 0), (-m, -1, m)]),
    ],
    ids=["z4", "heis"],
)
def test_coordinates_at_the_bound_match_the_int64_reference(kind, extra):
    # at a law's coord_bound every product of the build and check fits in
    # int64 (heis's z reaches 2^58 here); one past it the letter is refused
    shared = build_instance(kind)
    bound = shared.ops.coord_bound
    inst = NilpotentInstance(shared.ops, list(shared.letters) + extra(bound))
    missing, _ = _fill_tables(inst)
    rows = _reference_c(inst)
    assert missing == sorted(set(rows) - set(inst.letters))
    index = {c: i for i, c in enumerate(inst.letters)}
    assert inst.c_tab.reshape(-1).tolist() == [index.get(r, inst.e_index) for r in rows]
    with pytest.raises(AutomatonFormatError, match=f"past {kind}'s bound {bound} for 64-bit tables"):
        NilpotentInstance(shared.ops, list(shared.letters) + extra(bound + 1))


def test_letters_whose_tables_would_wrap_are_refused():
    # 2^62 + 2^62 wraps to -2^63 in int64, and the check re-derived the
    # same wrapped value, so the table stored c = -2^61 for (2^62, 2^62, e)
    letters = [(0,), (1,), (-1,), (2**61,), (-(2**61),), (2**62,), (-(2**62),)]
    with pytest.raises(AutomatonFormatError, match="64-bit"):
        instance_with_letters("z4", letters)


def test_rows_outside_the_box_are_no_letter(heis):
    lo, hi = heis.coords.min(axis=0), heis.coords.max(axis=0)
    for d in range(heis.ops.dim):
        for v in (lo[d] - 1, hi[d] + 1, lo[d] - 2**20, hi[d] + 2**20):
            rows = heis.coords.copy()
            rows[:, d] = v
            assert (nilpotent._letter_index(heis, tuple(rows.T)) == -1).all(), (d, v)
    got = nilpotent._letter_index(heis, tuple(heis.coords.T.astype(np.int32)))
    assert got.tolist() == list(range(heis.n_letters))


def test_a_table_cube_past_the_budget_is_refused_before_allocation():
    # 5,001 z4 letters make a 5001 x 5001 x 4 cube, 382 MiB per coordinate:
    # refused before any is allocated, under a 512 MB address limit
    import os
    import subprocess
    import sys

    import autgrp

    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, resource.RLIM_INFINITY))\n"
        "from autgrp import instance_with_letters\n"
        "from autgrp.errors import BudgetExceeded\n"
        "try:\n"
        "    instance_with_letters('z4', [(k,) for k in range(-2500, 2501)])\n"
        "except BudgetExceeded as e:\n"
        "    print(e.budget, e.what)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1000000 table cube"]
