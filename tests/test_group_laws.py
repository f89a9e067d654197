"""Each halving group law, on ints and on arrays.

``autgrp.halving`` writes every law once, on a tuple with one entry per
coordinate.  The short path runs it on Python ints and the table build on
numpy arrays, one per coordinate, so both forms must give the same value
element by element, on coordinates either side of zero and past 2**12, where
the table build switches from int32 to int64.
"""

import random

import numpy as np
import pytest

from autgrp.errors import ClosureFailure
from autgrp.halving import _make_law

KINDS = ("z4", "z2", "heis")


def _element(law, rng):
    return tuple(rng.choice((rng.randint(-4, 4), rng.randint(-5000, 5000))) for _ in range(law.dim))


def _columns(elements, dtype):
    """The elements as one array per coordinate."""
    return tuple(np.array(v, dtype=dtype) for v in zip(*elements))


def _elementwise(got, dtype):
    """The elements of an array-form result, each as a tuple of ints."""
    assert all(v.dtype == dtype for v in got)
    return list(zip(*(v.tolist() for v in got)))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("kind", KINDS)
def test_ints_and_arrays_agree(kind, dtype):
    law = _make_law(kind)
    rng = random.Random(f"laws:{kind}")
    gs = [_element(law, rng) for _ in range(300)]
    hs = [_element(law, rng) for _ in range(300)]
    assert max(abs(v) for g in gs for v in g) > 2**12 and min(v for g in gs for v in g) < 0
    G, H = _columns(gs, dtype), _columns(hs, dtype)

    def same(got, want):
        assert _elementwise(got, dtype) == want

    same(law.product(G, H), [law.product(g, h) for g, h in zip(gs, hs)])
    same(law.inverse(G), [law.inverse(g) for g in gs])
    same(law.phi(G), [law.phi(g) for g in gs])
    same(law.rep(G), [law.rep(g) for g in gs])
    same(law.unphi(law.phi(G)), gs)
    assert [law.unphi(law.phi(g)) for g in gs] == gs

    reps = [law.rep(g) for g in gs]
    index = law.rep_index(_columns(reps, dtype))
    assert index.dtype == dtype and index.tolist() == [law.rep_index(r) for r in reps]
    at = list(range(law.n_reps))
    same(law.rep_at(np.array(at, dtype=dtype)), [law.rep_at(i) for i in at])
    assert [law.rep_index(law.rep_at(i)) for i in at] == at
    assert law.rep_index(law.rep_at(np.array(at, dtype=dtype))).tolist() == at


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("kind", KINDS)
def test_unphi_refuses_both_forms(kind, dtype):
    # an element lies in phi(G) exactly when its representative is the identity
    law = _make_law(kind)
    rng = random.Random(f"unphi:{kind}")
    gs = [_element(law, rng) for _ in range(300)]
    outside = [g for g in gs if law.rep(g) != law.identity]
    assert len(outside) > 200
    for g in gs:
        if g in outside:
            with pytest.raises(ClosureFailure):
                law.unphi(g)
        else:
            assert law.phi(law.unphi(g)) == g
    images = [law.phi(g) for g in gs]
    for g in outside[:20]:
        # one element outside the image among images refuses the whole array
        with pytest.raises(ClosureFailure):
            law.unphi(_columns(images + [g], dtype))
        with pytest.raises(ClosureFailure):
            law.unphi(_columns([g], dtype))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_heisenberg_product_does_not_commute(dtype):
    law = _make_law("heis")
    a, b = (1, 0, 0), (0, 1, 0)
    assert law.product(a, b) == (1, 1, 1)
    assert law.product(b, a) == (1, 1, 0)
    A, B = _columns([a], dtype), _columns([b], dtype)
    assert _elementwise(law.product(A, B), dtype) == [(1, 1, 1)]
    assert _elementwise(law.product(B, A), dtype) == [(1, 1, 0)]
