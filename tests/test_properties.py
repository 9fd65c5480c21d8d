"""Property tests of the two fast kernels beyond desk scale: ranks 6-8, denominators <= 5.

Each law is checked on seeded, capped ``hypothesis`` examples against a route
that does not share the kernel's code: dominance against the rank condition,
``deg_nonneg`` against the tensor oracle, and ``deg_nonneg`` against itself
through additivity and duality.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hnbundles import canonicalize, deg_nonneg, deg_nonneg_oracle, rank_condition  # noqa: E402
from hnbundles import slopewise_dominates  # noqa: E402

MAX_DENOMINATOR = 5

# derandomize fixes the examples; no example database is written.
LAWS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


@st.composite
def bundles(draw, min_rank=6, max_rank=8):
    """A bundle of rank in [min_rank, max_rank], slopes p/q in [-3, 3] with q <= 5."""
    target = draw(st.integers(min_rank, max_rank))
    summands = []
    rank = 0
    while rank < target:
        q = draw(st.integers(1, min(MAX_DENOMINATOR, target - rank)))
        slope = Fraction(draw(st.integers(-3 * q, 3 * q)), q)
        summands.append((slope, 1))
        rank += slope.denominator
    return canonicalize(summands)


@LAWS
@given(bundles(), bundles(), st.integers(0, 2))
def test_dominance_agrees_with_the_rank_condition(f, e, drop):
    # A twist of F down, and a part of it, make sure that many pairs dominate.
    for sub in (e, f.twist(-drop), f.filter(Fraction(drop - 1, 2), ">=").twist(-drop)):
        assert slopewise_dominates(f, sub) == rank_condition(sub, f)
        assert slopewise_dominates(sub, f) == rank_condition(f, sub)


@LAWS
@given(bundles(), bundles())
def test_deg_nonneg_agrees_with_the_oracle(v, w):
    assert deg_nonneg(v, w) == deg_nonneg_oracle(v, w)


@LAWS
@given(bundles(), bundles(), bundles())
def test_deg_nonneg_is_additive(v, other, w):
    assert deg_nonneg(v.direct_sum(other), w) == deg_nonneg(v, w) + deg_nonneg(other, w)
    assert deg_nonneg(w, v.direct_sum(other)) == deg_nonneg(w, v) + deg_nonneg(w, other)


@LAWS
@given(bundles(), bundles())
def test_deg_nonneg_is_dual_symmetric(v, w):
    assert deg_nonneg(v, w) == deg_nonneg(w.dual(), v.dual())
