"""Property tests of the two fast kernels beyond desk scale: ranks 6-8, denominators <= 5.

Each law is checked on seeded, capped ``hypothesis`` examples against a route
that does not share the kernel's code: dominance against the rank condition,
``deg_nonneg`` against the tensor oracle, and ``deg_nonneg`` against itself
through additivity and duality.  The codimension built on ``deg_nonneg`` is
checked on triples at the same scale: the key inequality on every triple the
general conditions admit, and c_value = dim_hom - stratum_dim.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hnbundles import PreconditionError, c_value, canonicalize, deg_nonneg  # noqa: E402
from hnbundles import deg_nonneg_oracle, dim_hom, rank_condition  # noqa: E402
from hnbundles import slopewise_dominates, stratum_dim  # noqa: E402
from hnbundles.degeneration import general_violations  # noqa: E402

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


def _pieces(v):
    """The slopes of v's stable summands, one per summand."""
    return [slope for slope, mult in v.summands for _ in range(mult)]


@st.composite
def candidate_triples(draw):
    """(E, F, Q) with E as :func:`bundles` draws it, built so that most meet the general conditions.

    F raises each stable summand of E by 1 or 2 and may add a bundle of rank
    <= 2, so F dominates E; Q raises a proper part of E's summands by 0 or 1,
    so Q has smaller rank than E.  Nothing stops a common slope of E and F.
    """
    e = draw(bundles())
    pieces = _pieces(e)
    f = canonicalize([(slope + draw(st.integers(1, 2)), 1) for slope in pieces]
                     + [(slope, 1) for slope in _pieces(draw(bundles(0, 2)))])
    # Denominators <= 5 and rank >= 6: E has at least two summands.
    kept = draw(st.permutations(pieces))[:draw(st.integers(1, len(pieces) - 1))]
    q = canonicalize([(slope + draw(st.integers(0, 1)), 1) for slope in kept])
    return e, f, q


def test_the_key_inequality_holds_on_admissible_triples():
    admitted = []

    @LAWS
    @given(candidate_triples())
    def law(triple):
        if not general_violations(*triple):
            admitted.append(triple)
            assert c_value(*triple) > 0

    law()
    assert admitted


def test_c_value_is_dim_hom_minus_a_nonnegative_stratum():
    admitted = []

    @LAWS
    @given(candidate_triples())
    def law(triple):
        try:
            stratum = stratum_dim(*triple)
        except PreconditionError:
            return
        e, f, _ = triple
        assert c_value(*triple) == dim_hom(e, f) - stratum
        if not general_violations(*triple):
            admitted.append(triple)

    law()
    assert admitted
