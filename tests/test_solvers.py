"""Staged rewriting solvers: verdicts, costs, guards, dispatch."""

import random

import numpy as np
import pytest

from autgrp import (
    TapeWord,
    build_certificate,
    is_identity_oracle,
    solve_auto,
    solve_bounded,
    solve_contracting,
    solve_oracle,
    solve_polynomial,
)
from autgrp.errors import BudgetExceeded, CertificateMismatch, NonTermination


def test_accept_square(grig, grig_cert):
    r = solve_bounded(grig, grig_cert, "aa")
    assert r.accepted
    assert (r.stages, r.steps) == (1, 8)
    assert r.stage_tape == (2, 0)
    assert r.stage_max_segment == (2, 0)
    assert r.to_dict()["verdict"] == "accept"


def test_reject_single_letter(grig, grig_cert):
    r = solve_bounded(grig, grig_cert, "a")
    assert not r.accepted
    assert r.stages == 0  # decided by the ball walk, no rewrite pass


def test_separators_split_the_problem(grig, grig_cert):
    # cdb spells the identity, but cd and b separately do not
    assert solve_bounded(grig, grig_cert, "cdb").accepted
    assert not solve_bounded(grig, grig_cert, "cd#b").accepted


def test_short_segments_never_touch_the_table(grig):
    cert = build_certificate(grig, 2, 1, "item1")
    r = solve_bounded(grig, cert, "a#b#c")
    assert not r.accepted
    assert cert.table_reads == 0


def test_commutator_power(grig, grig_cert):
    r = solve_bounded(grig, grig_cert, "ab" * 16)
    assert r.accepted
    assert r.stages == 4
    assert r.stage_tape == (32, 33, 35, 23, 0)
    assert not solve_bounded(grig, grig_cert, "ab" * 8).accepted


def test_max_segment_obeys_stage_ratio(grig, grig_cert, basilica, basilica_cert):
    for A, cert, word in (
        (grig, grig_cert, "ab" * 16),
        (basilica, basilica_cert, "ab" * 24),
    ):
        r = solve_bounded(A, cert, word)
        n = r.input_length
        lam = cert.stage_ratio
        for k, seg in enumerate(r.stage_max_segment):
            assert seg <= n * lam**k


def test_weak_certificate_can_spin(basilica, basilica_weak_cert):
    # aA cycles to bB and back; the hard cap fires instead of looping forever
    with pytest.raises(NonTermination):
        solve_bounded(basilica, basilica_weak_cert, "aA")


def test_basilica_inverse_words(basilica, basilica_cert):
    r = solve_bounded(basilica, basilica_cert, "aabBAA")
    assert r.accepted
    assert r.stages == 2
    assert r.stage_tape == (6, 7, 2)
    assert solve_bounded(basilica, basilica_cert, "ABba").accepted
    assert not solve_bounded(basilica, basilica_cert, "ab").accepted


def test_polynomial_reset_rule(poly1):
    r = solve_polynomial(poly1, 1, "BbAa")
    assert r.accepted
    assert r.stages == 3
    assert r.stage_tape == (4, 7, 2, 0)
    assert not solve_polynomial(poly1, 1, "bb").accepted
    with pytest.raises(ValueError):
        solve_polynomial(poly1, -1, "bb")


def test_polynomial_certificate_path_agrees(grig, grig_cert):
    # bounded automata are the degree-0 case; both paths must match the oracle
    rng = random.Random(11)
    for _ in range(150):
        w = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
        with_cert = solve_polynomial(grig, 0, w, cert=grig_cert).verdict
        plain = solve_bounded(grig, grig_cert, w).verdict
        assert with_cert == plain == is_identity_oracle(grig, w)


def test_certificate_for_wrong_automaton(basilica, grig_cert):
    with pytest.raises(CertificateMismatch):
        solve_bounded(basilica, grig_cert, "ab")


def test_conjugation_invariance(basilica, basilica_cert):
    rng = random.Random(23)
    letters = "abAB"
    for _ in range(100):
        w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 10)))
        v = solve_bounded(basilica, basilica_cert, w).verdict
        assert solve_bounded(basilica, basilica_cert, "ab" + w + "BA").verdict == v


def test_oracle_solver(grig, adding):
    assert solve_oracle(grig, "cdb").accepted
    assert not solve_oracle(grig, "ad").accepted
    r = solve_oracle(adding, "a" * 8 + "A" * 8)
    assert r.accepted
    assert r.method == "oracle"


def test_oracle_solver_budget(adding):
    # a^40 acts trivially on the first levels, so its closure (a^20, a^10,
    # a^5, ...) outgrows a three-word budget before the verdict is known
    assert not solve_oracle(adding, "a" * 40).accepted
    with pytest.raises(BudgetExceeded):
        solve_oracle(adding, "a" * 40, budget=3)


def test_auto_dispatch(grig, basilica, poly1, adding, flip):
    cases = (
        (grig, "abab", "bounded", False),
        (basilica, "aA", "bounded", True),
        (adding, "aA", "bounded", True),
        (poly1, "BbAa", "polynomial", True),
        # duplicated plain cycles classify as exponential, yet the involution
        # still certifies, so the generic contracting path takes over
        (flip, "ss", "contracting", True),
    )
    for A, w, method, verdict in cases:
        r = solve_auto(A, w)
        assert (r.method, r.verdict) == (method, verdict)


def test_contracting_keeps_identity_letters(grig, grig_cert):
    # same verdicts as the stripping variant, only the tape stays fatter
    for w in ("aa", "cdb", "ab" * 16, "adad"):
        assert (
            solve_contracting(grig, grig_cert, w).verdict
            == solve_bounded(grig, grig_cert, w).verdict
        )


def test_tape_word_normalizes():
    tw = TapeWord([[], ["a", "b"], [], ["c"]])
    assert tw.segments == (("a", "b"), ("c",))
    assert tw.total_letters == 3
    assert tw.text() == "ab#c"
    assert "ab#c" in repr(tw)


def test_tape_word_round_trips_through_solver(grig, grig_cert):
    tw = TapeWord([["c", "d"], ["b"]])
    assert (
        solve_bounded(grig, grig_cert, tw).verdict
        == solve_bounded(grig, grig_cert, "cd#b").verdict
    )


# ---------------------------------------------- the reset rule's own table

def _reset_rule_words(A, seed):
    """Seeded trivial ``u u^-1`` words, random words, and ``aA``-style
    pairs, short enough for the oracle, over the inverse closure's names."""
    from autgrp import inverse_closure

    ic = inverse_closure(A)
    names = ic.automaton.states
    gens = [s for s in range(len(names)) if s != ic.automaton.identity]
    rng = random.Random(seed)
    words = [" ".join((names[g], names[ic.inverse_word([g])[0]])) for g in gens]
    for _ in range(12):
        u = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
        words.append(" ".join(names[s] for s in u + list(ic.inverse_word(u))))
        words.append(" ".join(names[s] for s in rng.choices(gens, k=rng.randint(1, 10))))
    return words


def test_solve_polynomial_flattens_the_automaton(basilica, grig, adding):
    from test_fuzz import THREE_CYCLE

    from autgrp import classify_activity, loopify

    assert solve_polynomial(basilica, 0, "aA").accepted
    for seed, A in enumerate((basilica, grig, adding, THREE_CYCLE)):
        flat, power = loopify(A)
        degree = classify_activity(A).degree
        assert power > 1 or A is adding
        for w in _reset_rule_words(A, seed):
            report = solve_polynomial(A, degree, w)
            assert report.to_dict() == solve_polynomial(flat, degree, w).to_dict(), w
            assert report.verdict == solve_oracle(A, w).verdict, w
        long_word = " ".join(_reset_rule_words(A, seed)[::2] * 8)
        assert solve_polynomial(A, degree, long_word) == solve_polynomial(flat, degree, long_word)


def test_solve_polynomial_rejects_exponential_activity(flip):
    from autgrp.errors import NotPolynomial

    with pytest.raises(NotPolynomial):
        solve_polynomial(flip, 0, "ss")


def test_solve_polynomial_needs_an_identity_state():
    from autgrp.automata import MealyAutomaton
    from autgrp.errors import NoIdentityState

    lamplighter = MealyAutomaton(("0", "1"), ("a", "b"), [[1, 0], [1, 0]], [[1, 0], [0, 1]])
    with pytest.raises(NoIdentityState, match="the polynomial solver strips identity letters"):
        solve_polynomial(lamplighter, 0, "ab")


def test_solve_polynomial_refuses_a_cap_past_float_range(poly1):
    from autgrp.errors import AutomatonFormatError

    with pytest.raises(AutomatonFormatError, match="degree 1000000"):
        solve_polynomial(poly1, 10**6, "babA")


# sha1 of the reset-rule solver's dense table arrays over the flattened
# automaton: each cell's letters in both strip modes, the branch group and
# the byte index
RESET_TABLE_SHA1 = {
    "poly1": "f7d576a609a002f3272a3c274cd577d488adcfbb",
    "basilica": "e88e5be4f0e0a88867ed5a0508caa6c7a2e072a6",
    "grigorchuk": "9411d9576fbae44f5b332440261624b38dd03c52",
    "adding": "5bcdbb19e79a7ac6cbdeef752b6c0ca79e3fb6bd",
}


@pytest.mark.parametrize("name", RESET_TABLE_SHA1)
def test_reset_rule_tables_are_pinned(name):
    import hashlib

    import numpy as np

    from autgrp import catalog, solvers, vectorized

    rw = solvers._literal_sections(catalog.get(name))
    assert rw.mode is None and (rw.block, rw.power) == (1, 1)
    t = vectorized.dense_table(rw)
    h = hashlib.sha1()
    for a in (*t.spelled, t.unit_gid, t.prod, t.image_t, t.byte_index):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(f"{t.block} {t.branches} {t.n_states} {t.n_codes} {t.maxlen} {t.group_order}".encode())
    assert h.hexdigest() == RESET_TABLE_SHA1[name]


# Table reads of fixed solves on fresh certificates, one per full block
# and branch rewritten, as the Python tape counted them entry by entry
def _lazy_basilica_word(k):
    u = "".join(random.Random(5).choices("abAB", k=k))
    return u + u[::-1].translate(str.maketrans("abAB", "ABab"))


# the basilica (8, 2) cell is above DEFAULT_TABLE_BUDGET: a 600-letter word
# runs on its indexed table, a 240-letter word on the Python tape
TABLE_READS = {
    "grig-python": ("grigorchuk", (2, 1, "item1"), "ab" * 16, True, 112),
    "grig-array": ("grigorchuk", (2, 1, "item1"), ("ab" * 16 + "ad" * 4 + "ac" * 8) * 6, True, 984),
    "lazy-basilica-array": ("basilica", (8, 2, "item1"), _lazy_basilica_word(300), True, 512),
    "lazy-basilica-python": ("basilica", (8, 2, "item1"), _lazy_basilica_word(120), True, 200),
    "permutes-python": ("grigorchuk", (2, 1, "item1"), "abab#ab", False, 0),
    "permutes-array": ("grigorchuk", (2, 1, "item1"), "ab" * 150 + "a", False, 0),
}


@pytest.mark.parametrize("case", TABLE_READS)
def test_table_reads_are_pinned(case):
    from autgrp import catalog

    name, cell, word, verdict, reads = TABLE_READS[case]
    A = catalog.get(name)
    cert = build_certificate(A, *cell)
    r = solve_bounded(A, cert, word)
    assert r.verdict == verdict
    assert cert.table_reads == reads
    assert bool(cert.dense_table) == case.endswith("array")  # built by the first long tape
    if not verdict:
        assert r.stages == 0  # rejected at the first branch-permutation scan


def test_reset_rule_table_reads_are_pinned(poly1):
    from autgrp import solvers

    rw = solvers._literal_sections(poly1)
    before = rw.table_reads
    assert not solve_polynomial(poly1, 1, "babA" * 64).accepted
    assert rw.table_reads - before == 13824


def test_short_tapes_never_load_the_array_engine():
    # a tape below the engine cutoff is sized before anything is parsed,
    # so it neither loads numpy nor builds the dense table
    import os
    import subprocess
    import sys

    import autgrp

    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys\n"
        "from autgrp import TapeWord, build_certificate, catalog, solve_bounded\n"
        "A = catalog.get('grigorchuk')\n"
        "cert = build_certificate(A, 2, 1, 'item1')\n"
        "print(solve_bounded(A, cert, list('cdb')).accepted)\n"
        "print(solve_bounded(A, cert, TapeWord(['cdb', 'ab' * 16])).accepted)\n"
        "spaced = solve_bounded(A, cert, ' '.join(['a'] * 130))\n"  # 259 characters, 130 letters
        "print(spaced.accepted, spaced.to_dict() == solve_bounded(A, cert, 'a' * 130).to_dict())\n"
        "print('numpy' in sys.modules, cert.dense_table is None)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "True", "True", "True", "False", "True"]


def test_long_tape_counts_letters_not_separators():
    from autgrp.solvers import _VECTOR_MIN_LETTERS as cut
    from autgrp.solvers import _long_tape

    assert _long_tape("ab" * cut) and not _long_tape("a" * (cut - 1))
    assert not _long_tape(" ".join("a" * (cut - 1)) + " \t\n" * 200)
    assert not _long_tape("#".join(["ab"] * (cut // 2 - 1)))
    assert _long_tape(" " * 3 * cut + "a" * cut)  # letters past a head of whitespace
    assert _long_tape(TapeWord([["a"] * cut])) and not _long_tape(iter("a" * cut))


def test_an_iterator_tape_is_parsed_once(grig, grig_cert):
    assert not solve_bounded(grig, grig_cert, iter("ab")).accepted
    assert solve_bounded(grig, grig_cert, iter("ab" * 16)).accepted


BAD_WORDS = {
    "floats": ([1.9, 1.2], "UnknownLetter"),
    "long-floats": ([1.9, 1.2] * 150, "UnknownLetter"),
    "float-array": (np.full(300, 1.5), "UnknownLetter"),
    "0-d-array": (np.array(3), "AutomatonFormatError"),
    "2-d-array": (np.array([[1, 2], [3, 4]]), "AutomatonFormatError"),
    "long-2-d-array": (np.ones((300, 2), dtype=int), "AutomatonFormatError"),
    "number": (5, "AutomatonFormatError"),
}


def _grig_solver(name, grig, grig_cert):
    return {
        "bounded": lambda w: solve_bounded(grig, grig_cert, w),
        "oracle": lambda w: solve_oracle(grig, w),
        "polynomial": lambda w: solve_polynomial(grig, 0, w),
    }[name]


@pytest.mark.parametrize("solver", ["bounded", "oracle", "polynomial"])
@pytest.mark.parametrize("form", BAD_WORDS)
def test_bad_index_words_raise_typed_errors(grig, grig_cert, solver, form):
    from autgrp import errors

    word, error = BAD_WORDS[form]
    with pytest.raises(errors.AutomatonFormatError) as info:
        _grig_solver(solver, grig, grig_cert)(word)
    # a float is no index: 1.9 used to be read as the letter a
    assert type(info.value) is getattr(errors, error)


@pytest.mark.parametrize("solver", ["bounded", "oracle", "polynomial"])
def test_integer_words_still_parse(grig, grig_cert, solver):
    solve = _grig_solver(solver, grig, grig_cert)
    a, b = grig.states.index("a"), grig.states.index("b")
    assert solve([a, a]).accepted
    assert solve(np.array([a, b] * 16)).accepted
    assert solve(np.array([a, b] * 160, dtype=np.int16)).accepted
    assert not solve([np.int64(a), b]).accepted
