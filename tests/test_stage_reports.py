"""Golden reports of the four staged plans.

Both stage engines charge their steps through one driver, so comparing the
engines with each other cannot catch a change in that shared accounting.
These reports pin it: every field of ``StepReport.to_dict()``, for one short
word (the Python tape) and one word of at least ``_VECTOR_MIN_LETTERS``
letters (the array tape) per plan, through the public solvers, and the error
each plan raises past a stage cap of 1.
"""

import pytest

from autgrp import solvers as S
from autgrp.errors import NonTermination, StageGuardExceeded


def free_trivial(u):
    """u followed by its inverse, over letters whose inverses are their
    other case."""
    return u + u[::-1].swapcase()


U = "abbaBAbbabABBabaaB" * 8
WORDS = {
    "contracting": (
        "ab" * 16 + "#adad#cdb#" + "ac" * 7 + "a",
        "#".join(["ab" * 64, "adad" * 30, "ac" * 24, "cdb" * 9]),
    ),
    "bounded": (free_trivial("abbaB") + "#aA#" + free_trivial("aab"), free_trivial(U) + "#" + free_trivial("aB" * 9)),
    "polynomial": (free_trivial("babAb") + "#" + free_trivial("bbA"), free_trivial(U) + "#" + free_trivial("babA" * 3)),
}
WORDS["polynomial-cert"] = WORDS["bounded"]

GRIG_DETAIL = {"mode": "item1", "block": 2, "power": 1}
BAS_DETAIL = {"mode": "item1", "block": 3, "power": 2}
EXPECTED = {
    "contracting": (
        {
            "method": "contracting",
            "verdict": "reject",
            "input_length": 54,
            "steps": 412,
            "stages": 1,
            "stage_tape": [57, 61],
            "stage_max_segment": [32, 16],
            "detail": {**GRIG_DETAIL, "stage_cap": 22},
        },
        {
            "method": "contracting",
            "verdict": "accept",
            "input_length": 323,
            "steps": 4096,
            "stages": 5,
            "stage_tape": [326, 267, 171, 78, 5, 0],
            "stage_max_segment": [128, 64, 32, 8, 2, 0],
            "detail": {**GRIG_DETAIL, "stage_cap": 29},
        },
    ),
    "bounded": (
        {
            "method": "bounded",
            "verdict": "accept",
            "input_length": 18,
            "steps": 175,
            "stages": 2,
            "stage_tape": [20, 18, 5],
            "stage_max_segment": [10, 4, 2],
            "detail": {**BAS_DETAIL, "stage_cap": 24},
        },
        {
            "method": "bounded",
            "verdict": "accept",
            "input_length": 324,
            "steps": 4890,
            "stages": 5,
            "stage_tape": [325, 299, 183, 130, 59, 8],
            "stage_max_segment": [288, 112, 38, 8, 4, 2],
            "detail": {**BAS_DETAIL, "stage_cap": 40},
        },
    ),
    "polynomial-cert": (
        {
            "method": "polynomial",
            "verdict": "accept",
            "input_length": 18,
            "steps": 175,
            "stages": 2,
            "stage_tape": [20, 18, 5],
            "stage_max_segment": [10, 4, 2],
            "detail": {**BAS_DETAIL, "stage_cap": 21},
        },
        {
            "method": "polynomial",
            "verdict": "accept",
            "input_length": 324,
            "steps": 4890,
            "stages": 5,
            "stage_tape": [325, 299, 183, 130, 59, 8],
            "stage_max_segment": [288, 112, 38, 8, 4, 2],
            "detail": {**BAS_DETAIL, "stage_cap": 38},
        },
    ),
    "polynomial": (
        {
            "method": "polynomial",
            "verdict": "accept",
            "input_length": 16,
            "steps": 653,
            "stages": 5,
            "stage_tape": [17, 29, 38, 36, 17, 0],
            "stage_max_segment": [10, 10, 8, 6, 2, 0],
            "detail": {"degree": 1, "stage_cap": 100},
        },
        {
            "method": "polynomial",
            "verdict": "accept",
            "input_length": 312,
            "steps": 38118,
            "stages": 12,
            "stage_tape": [313, 487, 663, 843, 1031, 911, 963, 1015, 903, 493, 169, 11, 0],
            "stage_max_segment": [288, 256, 208, 136, 84, 50, 42, 36, 34, 10, 4, 2, 0],
            "detail": {"degree": 1, "stage_cap": 345},
        },
    ),
}
CAP_ERRORS = {
    "contracting": NonTermination,
    "bounded": NonTermination,
    "polynomial-cert": StageGuardExceeded,
    "polynomial": StageGuardExceeded,
}


@pytest.fixture(scope="module")
def solve(grig, grig_cert, basilica, basilica_cert, poly1):
    """Plan name -> function of (word, stage_cap) calling its public solver."""
    return {
        "contracting": lambda w, cap=None: S.solve_contracting(grig, grig_cert, w, stage_cap=cap),
        "bounded": lambda w, cap=None: S.solve_bounded(basilica, basilica_cert, w, stage_cap=cap),
        "polynomial-cert": lambda w, cap=None: S.solve_polynomial(basilica, 0, w, basilica_cert, cap),
        "polynomial": lambda w, cap=None: S.solve_polynomial(poly1, 1, w, stage_cap=cap),
    }


@pytest.mark.parametrize("plan", sorted(EXPECTED))
def test_reports_are_pinned(solve, plan):
    short, long = WORDS[plan]
    assert len(short.replace("#", "")) < S._VECTOR_MIN_LETTERS <= len(long.replace("#", ""))
    assert [solve[plan](w).to_dict() for w in (short, long)] == list(EXPECTED[plan])


@pytest.mark.parametrize("plan", sorted(EXPECTED))
def test_stage_cap_errors_are_pinned(solve, plan):
    for word, expected in zip(WORDS[plan], EXPECTED[plan]):
        if expected["stages"] < 2:
            continue  # done within a cap of 1
        with pytest.raises(NonTermination, match=r"after 2 stages \(cap 1\)") as exc:
            solve[plan](word, 1)
        assert exc.type is CAP_ERRORS[plan]  # StageGuardExceeded subclasses NonTermination
