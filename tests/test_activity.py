"""Activity classification read off reach sets.

``contraction._cycle_structure`` decides exponential activity and the degree
from the sets of nontrivial states each nontrivial state reaches.  It is
judged against a local copy of the strongly-connected-component pass it
replaced, on seeded random automata, the catalog and hand-written cases.
"""

import random

import pytest

from autgrp import catalog
from autgrp import contraction
from autgrp.automata import MealyAutomaton
from autgrp.contraction import _cycle_structure, activity_count, classify_activity, loopify
from autgrp.errors import BudgetExceeded, NotPolynomial, UnknownLetter


# ---- the former component pass, kept as the reference ----

def _former_nontrivial_graph(A):
    ident = A.identity
    nodes = [s for s in range(len(A.states)) if s != ident]
    adj = {s: [] for s in nodes}
    for s in nodes:
        for t in A._next[s]:
            if t != ident:
                adj[s].append(t)
    return nodes, adj


def _former_sccs(nodes, adj):
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _former_cycle_structure(A):
    nodes, adj = _former_nontrivial_graph(A)
    comps = _former_sccs(nodes, adj)
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    cyclic = [False] * len(comps)
    sizes = []
    for i, comp in enumerate(comps):
        members = set(comp)
        internal = {v: sum(1 for t in adj[v] if t in members) for v in comp}
        if any(c >= 2 for c in internal.values()):
            return True, [], 0
        if sum(internal.values()):
            cyclic[i] = True
            sizes.append(len(comp))
    best = [0] * len(comps)
    for i, comp in enumerate(comps):
        children = {comp_of[t] for v in comp for t in adj[v]} - {i}
        best[i] = max((best[j] for j in children), default=0) + (1 if cyclic[i] else 0)
    return False, sizes, max(best, default=0)


def _key(structure):
    exponential, sizes, chain = structure
    return exponential, sorted(sizes), chain


# ---- automata ----

def _automaton(letters, rows, identity="e"):
    """``rows`` maps each state name to (next state names, output letters);
    the identity state is added."""
    states = [identity] + list(rows)
    ix = {name: i for i, name in enumerate(states)}
    nxt = [[0] * len(letters)] + [[ix[t] for t in rows[s][0]] for s in rows]
    out = [list(range(len(letters)))] + [list(rows[s][1]) for s in rows]
    return MealyAutomaton(letters, states, nxt, out, identity=identity)


def _random_automaton(rng):
    m = rng.choice((2, 3))
    n = rng.randint(1, 7)
    ident = rng.randrange(n + 1)
    nxt, out = [], []
    for s in range(n + 1):
        if s == ident:
            nxt.append([ident] * m)
            out.append(list(range(m)))
        else:
            # lean toward the identity so that bounded and polynomial
            # automata are common, not only exponential ones
            nxt.append([ident if rng.random() < 0.4 else rng.randrange(n + 1) for _ in range(m)])
            out.append(rng.sample(range(m), m))
    return MealyAutomaton([str(x) for x in range(m)], [f"s{i}" for i in range(n + 1)], nxt, out, identity=ident)


def _cycles(letters, lengths, links=()):
    """Disjoint cycles ``c<i>_0 -> ... -> c<i>_0`` on the first letter, each
    state swapping the first two letters; ``links`` adds moves between
    cycles on the second letter as (cycle, position, cycle, position)."""
    rows = {}
    for i, n in enumerate(lengths):
        for j in range(n):
            nexts = [f"c{i}_{(j + 1) % n}"] + ["e"] * (len(letters) - 1)
            rows[f"c{i}_{j}"] = (nexts, [1, 0] + list(range(2, len(letters))))
    for i, j, k, l in links:
        rows[f"c{i}_{j}"][0][1] = f"c{k}_{l}"
    return _automaton(letters, rows)


FIGURE_EIGHT = _automaton("01", {
    "a": (["b", "c"], [1, 0]),
    "b": (["a", "e"], [0, 1]),
    "c": (["a", "e"], [1, 0]),
})
# ROADMAP item 5's poly2: the odometer a, b = (a, b), c = (b, c)
POLY2 = _automaton("01", {
    "a": (["e", "a"], [1, 0]),
    "b": (["a", "b"], [0, 1]),
    "c": (["b", "c"], [0, 1]),
})
DISJOINT_2_3 = _cycles("01", (2, 3))
CHAIN_5_7 = _cycles("01", (5, 7), links=[(0, 0, 1, 0)])

HAND = {
    "figure-eight": (FIGURE_EIGHT, (True, [], 0)),
    "flip": (catalog.get("flip"), (True, [], 0)),
    "poly1": (catalog.get("poly1"), (False, [1, 1], 2)),
    "poly2": (POLY2, (False, [1, 1, 1], 3)),
    "disjoint-2-3": (DISJOINT_2_3, (False, [2, 3], 1)),
}


def _corpus():
    rng = random.Random(2000)
    hand = [A for A, _ in HAND.values()]
    return [_random_automaton(rng) for _ in range(2000)] + [catalog.get(name) for name in catalog.names()] + hand


# ---- the reach-set pass against the former one ----

def test_cycle_structure_matches_the_former_pass():
    wants = []
    for A in _corpus():
        want = _key(_former_cycle_structure(A))
        assert _key(_cycle_structure(A)) == want
        wants.append(want)
    # the corpus reaches every branch: shared cycles, bounded and long chains
    assert 500 < sum(w[0] for w in wants) < 1500
    assert {w[2] for w in wants} == {0, 1, 2, 3}


@pytest.mark.parametrize("name", sorted(HAND))
def test_hand_cases(name):
    A, want = HAND[name]
    assert _key(_cycle_structure(A)) == want
    assert _key(_former_cycle_structure(A)) == want


def test_classification_and_power_match_the_former_pass(monkeypatch):
    corpus = _corpus()

    def outcome(A):
        try:
            power = loopify(A)[1]
        except (NotPolynomial, BudgetExceeded) as exc:
            power = type(exc)
        return classify_activity(A), power

    new = [outcome(A) for A in corpus]
    monkeypatch.setattr(contraction, "_cycle_structure", _former_cycle_structure)
    assert new == [outcome(A) for A in corpus]
    assert {got[0].kind for got in new} == {"bounded", "polynomial", "exponential"}
    assert {got[1] for got in new} >= {1, 2, 6, NotPolynomial}


def test_hand_classes():
    assert classify_activity(FIGURE_EIGHT).kind == "exponential"
    assert classify_activity(POLY2).degree == 2
    assert classify_activity(catalog.get("poly1")).degree == 1
    assert classify_activity(DISJOINT_2_3).is_bounded
    assert loopify(DISJOINT_2_3)[1] == 6
    assert loopify(catalog.get("grigorchuk"))[1] == 3
    for A in (FIGURE_EIGHT, catalog.get("flip")):
        with pytest.raises(NotPolynomial):
            loopify(A)


# ---- budgets and bad input ----

def test_loopify_power_past_the_budget_raises():
    assert classify_activity(CHAIN_5_7).degree == 1
    with pytest.raises(BudgetExceeded) as err:
        loopify(CHAIN_5_7)
    assert err.value.what == "alphabet power"


def test_activity_count_rejects_bad_state_indexes():
    g = catalog.get("grigorchuk")
    assert activity_count(g, 1, 2) == activity_count(g, g.states[1], 2)
    for bad in (99, len(g.states), -1, "z"):
        for n in (0, 1):
            with pytest.raises(UnknownLetter) as err:
                activity_count(g, bad, n)
            assert str(err.value) == f"unknown state: {bad!r}"


def _lcm_cycles(lengths):
    """Disjoint cycles on the letter 0, every other move to the identity;
    only each cycle's first state swaps the two letters."""
    rows = {}
    for i, n in enumerate(lengths):
        for j in range(n):
            rows[f"c{i}_{j}"] = ([f"c{i}_{(j + 1) % n}", "e"], [1, 0] if j == 0 else [0, 1])
    return _automaton("01", rows)


def _counted_levels(monkeypatch):
    """Wrap the level walk; the returned list gets each vector's entries."""
    walked, levels = [], contraction._activity_levels

    def counted(A, s):
        for vec in levels(A, s):
            walked.append(len(vec))
            yield vec

    monkeypatch.setattr(contraction, "_activity_levels", counted)
    return walked


def test_bound_walks_each_state_once(monkeypatch):
    # 18 states: a horizon of 18 * lcm(2, 3, 5, 7) = 3,780 levels, which a
    # walk from the root for every level took 31 s to cover; each state's
    # walk now stops within 2 * 8 + 1 vectors, its vector's period being 7
    walked = _counted_levels(monkeypatch)
    A = _lcm_cycles((2, 3, 5, 7))
    assert classify_activity(A) == ("bounded", 0, 1)
    assert len(walked) <= 17 * 17
    s = A.states.index("c3_0")
    assert [activity_count(A, s, n) for n in (0, 1, 6, 7, 3780)] == [1, 1, 1, 1, 1]


def test_each_walk_stops_at_its_first_repeated_vector(monkeypatch):
    # an 11-cycle more: each state's level vector repeats within 11 levels,
    # where walking |S| * lcm = 29 * 2310 levels per state passed the budget;
    # Brent's detection stops each walk within 2 * 16 + 1 vectors
    walked = _counted_levels(monkeypatch)
    A = _lcm_cycles((2, 3, 5, 7, 11))
    assert classify_activity(A) == ("bounded", 0, 1)
    assert len(walked) <= 28 * 33


def _fan_out_cycles(lengths):
    """``_lcm_cycles`` entered from the leaves of a binary tree of states
    over both letters, so the root's level vector runs through every cycle
    at once; tree states swap nothing."""
    rows = {}
    leaves = [f"c{i}_0" for i in range(len(lengths))]
    depth = 0
    while len(leaves) > 1:
        depth += 1
        pairs = [leaves[k : k + 2] for k in range(0, len(leaves), 2)]
        leaves = [f"t{depth}_{k}" for k in range(len(pairs))]
        rows.update({name: (pair * (3 - len(pair)), [0, 1]) for name, pair in zip(leaves, pairs)})
    rows = dict(reversed(rows.items()))  # the root first
    for i, n in enumerate(lengths):
        for j in range(n):
            rows[f"c{i}_{j}"] = ([f"c{i}_{(j + 1) % n}", "e"], [1, 0] if j == 0 else [0, 1])
    return _automaton("01", rows)


def test_activity_horizon_past_the_budget_raises(tmp_path, capsys, monkeypatch):
    # the root's vector runs through cycles of every prime length up to 19
    # at once, a period of lcm = 9,699,690 levels of 8 entries each; the
    # walk stops once the entries walked pass the budget
    from autgrp import cli_main
    from autgrp.automata import serialize_automaton

    walked = _counted_levels(monkeypatch)
    A = _fan_out_cycles((2, 3, 5, 7, 11, 13, 17, 19))
    assert _cycle_structure(A) == (False, [2, 3, 5, 7, 11, 13, 17, 19], 1)
    with pytest.raises(BudgetExceeded) as err:
        classify_activity(A)
    assert err.value.what == "activity horizon"
    assert contraction.DEFAULT_BALL_BUDGET < sum(walked) <= contraction.DEFAULT_BALL_BUDGET + 2 * len(A.states)
    path = tmp_path / "cycles.aut"
    path.write_text(serialize_automaton(A), encoding="utf-8")
    assert cli_main(["classify", "--automaton", str(path)]) == 2
    assert "activity horizon exceeded budget" in capsys.readouterr().err
    # below the root, each tree state's cycles have a period within the budget
    B = _fan_out_cycles((2, 3, 5, 7))
    assert classify_activity(B) == ("bounded", 0, 4)
