"""Bad arguments to the nilpotent, solver and fitting layers raise typed
errors: each is an ``AutgrpError`` (so the CLI exits with code 2) and still a
``ValueError``."""

import pytest

from autgrp.bench import fit_complexity
from autgrp.errors import AutgrpError, UnknownLetter
from autgrp.nilpotent import NilpotentInstance, build_instance, halve
from autgrp.solvers import mx_step, solve_polynomial


def test_unknown_instance_kind_names_it():
    with pytest.raises(UnknownLetter, match="instance kind: 'klein'"):
        build_instance("klein")


@pytest.mark.parametrize(
    "call",
    [
        lambda z4, cert, poly1: build_instance("klein"),
        lambda z4, cert, poly1: NilpotentInstance(z4.ops, [(0,), (1,), (-1,), (1,)]),  # duplicate
        lambda z4, cert, poly1: NilpotentInstance(z4.ops, [(0,), (1,)]),  # no inverse of a
        lambda z4, cert, poly1: halve(z4, "a"),  # a lies outside phi(Z)
        lambda z4, cert, poly1: mx_step(cert, cert.branches, "ab"),
        lambda z4, cert, poly1: solve_polynomial(poly1, -1, "b"),
        lambda z4, cert, poly1: fit_complexity([(1, 2, 3)]),  # neither (n, steps) nor a bench row
        lambda z4, cert, poly1: fit_complexity([(8, 100)]),  # one row
        lambda z4, cert, poly1: fit_complexity([(8, 100), (16, 0)]),  # nonpositive steps
    ],
    ids=[
        "kind", "duplicate-letters", "not-inverse-closed", "not-in-image", "branch-range",
        "negative-degree", "unreadable-row", "one-row", "nonpositive-steps",
    ],
)
def test_bad_arguments_raise_typed_errors(call, z4, grig_cert, poly1):
    with pytest.raises(AutgrpError) as err:
        call(z4, grig_cert, poly1)
    assert isinstance(err.value, ValueError)
