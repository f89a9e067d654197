"""Staged rewriting solvers: verdicts, costs, guards, dispatch."""

import random

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
