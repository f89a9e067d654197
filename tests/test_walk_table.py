"""Each scan cell's walk table against an element-by-element build.

``_ScanContext`` builds a state's row of ``trans`` branch by branch, from
slices of the identity row and columns of the ball's edges.
``_reference_tables`` is the per-element loop that slicing replaced: every
row and ``len_code`` must equal it entry for entry, with -1 exactly at the
codes whose walk leaves the ball, and every entry must be one of the int
objects of the identity row, so the rows share them.  A cell whose table is
above ``DEFAULT_BALL_BUDGET`` codes raises ``BudgetExceeded`` before it is
built, checked in a child process under its own address-space limit.
"""

import os
import resource
import subprocess
import sys

import pytest

import autgrp
from autgrp import catalog
from autgrp.automata import MealyAutomaton
from autgrp.contraction import _ScanContext

CATALOG_CELLS = [(b, k) for b in range(1, 7) for k in (1, 2)]
# two states, no identity state; nor has its inverse closure one
LAMPLIGHTER = MealyAutomaton(("0", "1"), ("a", "b"), [[1, 0], [1, 0]], [[1, 0], [0, 1]])
EXTRA_CELLS = [("grigorchuk", 10, 3), ("basilica", 8, 2), ("adding", 150, 1)]


def _reference_tables(ctx):
    """``trans`` and ``len_code`` built one code at a time."""
    B, ball = ctx.automaton, ctx.ball
    nb, ident, pos, edges = ball.size, B.identity, ball.gen_pos, ball.edges
    size = ctx.branches * nb
    code = list(range(size))
    trans = {} if ident is None else {ident: code}
    for s in ctx.enum:
        row = [-1] * size
        sec_row, out_row = ctx.seck[s], ctx.outk[s]
        for x in range(ctx.branches):
            nx = out_row[x] * nb
            g = sec_row[x]
            base = x * nb
            if g == ident:
                for el in range(nb):
                    row[base + el] = code[nx + el]
            else:
                gp = pos[g]
                for el in range(nb):
                    e_row = edges[el]
                    if e_row is not None:
                        row[base + el] = code[nx + e_row[gp]]
        trans[s] = row
    return trans, [ball.length[c % nb] for c in range(size)]


def _assert_tables(A, block, power, label):
    ctx = _ScanContext(A, block, power)
    ident, nb = ctx.automaton.identity, ctx.ball.size
    size = ctx.branches * nb
    trans, len_code = _reference_tables(ctx)
    assert ctx.trans.keys() == trans.keys(), label
    assert type(ctx.len_code) is list and ctx.len_code == len_code, label
    sphere = [el for el, e_row in enumerate(ctx.ball.edges) if e_row is None]
    shared = ctx.trans.get(ident)  # the identity row, whose int objects every row holds
    first = {}  # without one: the first object met for each code
    for s, row in ctx.trans.items():
        assert type(row) is list and len(row) == size and row == trans[s], (label, s)
        if s != ident:
            off = {x * nb + el for x in range(ctx.branches) if ctx.seck[s][x] != ident for el in sphere}
            assert {c for c, v in enumerate(row) if v == -1} == off, (label, s)
        for v in row:
            if v != -1:
                assert v is (first.setdefault(v, v) if shared is None else shared[v]), (label, s, v)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_cells_match_the_reference(name):
    for block, power in CATALOG_CELLS:
        _assert_tables(catalog.get(name), block, power, (name, block, power))


@pytest.mark.parametrize("name, block, power", EXTRA_CELLS)
def test_large_cells_match_the_reference(name, block, power):
    _assert_tables(catalog.get(name), block, power, (name, block, power))


def test_cells_without_an_identity_match_the_reference():
    for block, power in CATALOG_CELLS:
        ctx = _ScanContext(LAMPLIGHTER, block, power)
        assert ctx.automaton.identity is None
        _assert_tables(LAMPLIGHTER, block, power, ("lamplighter", block, power))


# basilica's (9, 12) cell: a ball of 18,973 elements, inside its budget, and
# power tables inside theirs, but 4,096 branches: 77.7 M codes in each of 5 rows
OVER_BUDGET = ("basilica", 9, 12)
ADDRESS_LIMIT = 1_000_000_000  # bytes: a third of the unbudgeted cell's identity row alone


def _limited_run(args):
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))

    return subprocess.run([sys.executable, *args], env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120)


def test_over_budget_cell_raises_before_building():
    name, block, power = OVER_BUDGET
    code = (
        "import resource\n"
        "from autgrp import catalog\n"
        "from autgrp.contraction import best_certificate, build_certificate, check_item, check_item_sampled\n"
        "from autgrp.errors import BudgetExceeded\n"
        f"A, L, k = catalog.get({name!r}), {block}, {power}\n"
        "calls = (\n"
        "    lambda: check_item(A, L, k, 'item1'),\n"
        "    lambda: check_item_sampled(A, L, k, 'item1', samples=10),\n"
        "    lambda: build_certificate(A, L, k, 'item3'),\n"
        "    lambda: best_certificate(A, L, k),\n"  # the box reaches a cell above the budget first
        ")\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except BudgetExceeded as e:\n"
        "        print(e.what, e.budget)\n"
        "    else:\n"
        "        print('built')\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    proc = _limited_run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    *whats, peak_kb = proc.stdout.split("\n")[:-1]
    assert whats == ["scan table 1000000"] * 4
    assert int(peak_kb) < 300_000  # about 90 MB: the ball and the cells below the budget


def test_over_budget_cell_exits_2_on_the_cli():
    name, block, power = OVER_BUDGET
    proc = _limited_run(["-m", "autgrp", "certify", "--automaton", name, "-L", str(block), "-k", str(power), "--mode", "item1"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "scan table exceeded budget of 1000000 entries" in proc.stderr
