"""Degree calculus: cross-product route, tensor oracle, dimensions, codimension."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hnbundles import (
    HNBundle,
    InternalConsistencyError,
    PreconditionError,
    UniverseSpec,
    ZERO,
    c_value,
    deg_nonneg,
    deg_nonneg_oracle,
    dim_hom,
    enumerate_bundles,
    image_term,
    is_quotient,
    parse_bundle,
    rank_condition,
    slopewise_dominates,
    stable,
    stratum_dim,
    stratum_report,
    verify_degeneration,
    verify_key_inequality,
    verify_stratification_dimension,
)
from hnbundles import degrees
from hnbundles.criteria import dominators

B = parse_bundle

SMALL = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=2)


def small_universe():
    return list(enumerate_bundles(SMALL, include_zero=True))


# ----------------------------------------------------------------------
# deg_nonneg

def test_deg_nonneg_examples():
    assert deg_nonneg(stable(1), stable(0)) == 0
    assert deg_nonneg(B("0,-2"), B("1,-1")) == 5
    assert deg_nonneg(stable(Fraction(1, 2)), stable(1)) == 1


def test_deg_nonneg_oracle_examples():
    assert deg_nonneg_oracle(stable(1), stable(0)) == 0
    assert deg_nonneg_oracle(B("0,-2"), B("1,-1")) == 5
    assert deg_nonneg_oracle(stable(Fraction(1, 2)), stable(1)) == 1
    assert deg_nonneg(B("1,-1"), B("1,-1")) == deg_nonneg_oracle(B("1,-1"), B("1,-1")) == 2
    assert deg_nonneg(ZERO, B("1")) == deg_nonneg(B("1"), ZERO) == 0


def test_deg_nonneg_agrees_with_oracle_exhaustively():
    pool = small_universe()
    for v, w in itertools.product(pool, repeat=2):
        assert deg_nonneg(v, w) == deg_nonneg_oracle(v, w)


def test_deg_nonneg_nonnegative_and_zero_plateau():
    pool = small_universe()
    for v, w in itertools.product(pool, repeat=2):
        value = deg_nonneg(v, w)
        assert value >= 0
        if not v.is_zero and not w.is_zero and v.mu_min >= w.mu_max:
            assert value == 0


def test_deg_nonneg_stretch_scaling():
    rng = random.Random(5)
    pool = small_universe()
    for _ in range(100):
        v, w = rng.choice(pool), rng.choice(pool)
        factor = rng.randint(1, 4)
        assert deg_nonneg(v.vertical_stretch(factor), w.vertical_stretch(factor)) \
            == factor * deg_nonneg(v, w)


def test_deg_nonneg_twist_invariance():
    rng = random.Random(6)
    pool = small_universe()
    for _ in range(100):
        v, w = rng.choice(pool), rng.choice(pool)
        shift = rng.randint(-3, 3)
        assert deg_nonneg(v.twist(shift), w.twist(shift)) == deg_nonneg(v, w)


def test_dominance_degree_bound():
    pool = small_universe()
    for e, f in itertools.product(pool, repeat=2):
        if slopewise_dominates(f, e):
            assert f.filter(0, ">=").degree >= e.filter(0, ">=").degree


# Denominators up to 3 make summands span 1, 2 or 3 units, so the stretches
# where neither polygon has a vertex seldom line up with either one's summands.
UNALIGNED = UniverseSpec(max_rank=5, slope_min=-1, slope_max=1, max_denominator=3)


def _unit_slopes(v):
    """The slope of v's HN polygon on each unit interval, in order."""
    return [slope for slope, m in v.summands for _ in range(slope.denominator * m)]


def test_the_kernels_match_their_definitions_where_unit_stretches_do_not_align():
    pool = list(enumerate_bundles(UNALIGNED, include_zero=True))
    assert len(pool) == 156
    units = {v: _unit_slopes(v) for v in pool}
    for v, w in itertools.product(pool, repeat=2):
        below, above = units[v], units[w]
        dominates = len(below) <= len(above) and all(b <= a for b, a in zip(below, above))
        assert slopewise_dominates(w, v) == dominates, (w, v)
        assert deg_nonneg(v, w) == deg_nonneg_oracle(v, w), (v, w)


def _rank_10_12_bundles():
    n = 10**12
    return [B(f"1/{n}"), B(f"0:{n}"), B(f"-1/{n}"), B(f"1:{n - 1},-1"), B(f"3/{n},-1:{n}")]


def test_the_kernels_read_only_the_key_at_rank_10_12():
    bundles = _rank_10_12_bundles()
    deg_nonneg.cache_clear()  # so every pair below runs the kernel
    for v, w in itertools.product(bundles, repeat=2):
        assert slopewise_dominates(w, v) == rank_condition(v, w), (w, v)
        assert deg_nonneg(v, w) == deg_nonneg_oracle(v, w), (v, w)
    assert deg_nonneg.cache_info().misses == len(bundles) ** 2
    assert not any("segment_vectors" in vars(v) for v in bundles)


def test_the_dominance_relation_reads_only_the_key_at_rank_10_12():
    bundles = [ZERO, *_rank_10_12_bundles()]
    relation = dominators([v._key for v in bundles])
    for (low, e), (high, f) in itertools.product(enumerate(bundles), repeat=2):
        assert (relation[low] >> high & 1) == slopewise_dominates(f, e), (f, e)


# ----------------------------------------------------------------------
# the deg_nonneg memo, keyed on the two bundles' keys

def test_clearing_the_memo_empties_it():
    deg_nonneg(B("1,-1"), B("2"))
    assert deg_nonneg.cache_info().currsize > 0
    deg_nonneg.cache_clear()
    assert deg_nonneg.cache_info().currsize == 0


def test_equal_but_distinct_bundles_hit_the_memo():
    deg_nonneg.cache_clear()
    v, w = B("1/2:2,-1"), B("2,0")
    first = deg_nonneg(v, w)
    twins = B("1/2:2,-1"), B("2,0")
    assert twins[0] is not v and twins[1] is not w
    assert deg_nonneg(*twins) == first
    info = deg_nonneg.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_the_triple_checks_one_after_another_hash_and_compare_no_bundle(monkeypatch):
    # The benchmark's call shape: each verify_* builds its own pool, so the later checks hit
    # the memo through equal but distinct bundles, and the keys answer for them.
    calls = {"__eq__": 0, "__hash__": 0}
    for name in calls:
        original = getattr(HNBundle, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(HNBundle, name, counted)
    deg_nonneg.cache_clear()
    small_int = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=1)
    for check in (verify_key_inequality, verify_degeneration, verify_stratification_dimension):
        assert check(small_int).passed
    assert calls == {"__eq__": 0, "__hash__": 0}
    info = deg_nonneg.cache_info()
    assert info.currsize > 0 and info.hits > 0


# ----------------------------------------------------------------------
# dimensions

def test_dim_hom_examples():
    assert dim_hom(stable(0), stable(2)) == 2
    assert dim_hom(stable(1), stable(0)) == 0
    assert dim_hom(B("0,-2"), B("1,-1")) == 5


def test_stratum_dim_examples():
    e, f = B("0,-2"), B("1,-1")
    assert stratum_dim(e, f, e) == dim_hom(e, f)
    assert stratum_dim(e, f, B("-1")) == 3
    assert stratum_dim(stable(0), B("1,-1"), stable(1)) == 1


def test_stratum_dim_negative_is_internal_error(monkeypatch):
    # Only for a Q that is a quotient of E; here the image term is forced one too high.
    assert stratum_dim(ZERO, ZERO, ZERO) == 0
    monkeypatch.setattr(degrees, "image_term", lambda qq, eq: qq - eq + 1)
    with pytest.raises(InternalConsistencyError, match=r"^stratum dimension formula gave -1 < 0"):
        stratum_dim(ZERO, ZERO, ZERO)


def test_a_negative_stratum_of_a_q_that_is_no_quotient_is_a_precondition():
    with pytest.raises(PreconditionError,
                       match=r"^Q=1,-1 is not a quotient of E=0, so no map has image Q$"):
        stratum_dim(ZERO, ZERO, B("1,-1"))
    # A quotient Q of E has image term <= 0, so its stratum is never negative, whatever F.
    pool = small_universe()
    quotients = [(e, q) for e, q in itertools.product(pool, repeat=2) if is_quotient(q, e)]
    assert len(quotients) > 1000
    assert all(image_term(deg_nonneg(q, q), deg_nonneg(e, q)) <= 0 for e, q in quotients)


# ----------------------------------------------------------------------
# codimension

def test_c_value_examples():
    assert c_value(stable(0), B("1,-1"), stable(1)) == 0
    assert c_value(B("0,-2"), B("1,-1"), B("-1")) == 2
    for e, f in [(B("1"), B("2")), (B("0,-2"), B("1,-1")), (ZERO, B("1"))]:
        assert c_value(e, f, e) == 0


def test_c_value_is_hom_minus_stratum():
    pool = small_universe()
    rng = random.Random(7)
    for _ in range(150):
        e, f, q = (rng.choice(pool) for _ in range(3))
        try:
            stratum = stratum_dim(e, f, q)
        except PreconditionError:
            continue
        assert c_value(e, f, q) == dim_hom(e, f) - stratum


def test_c_value_stretch_and_twist_laws():
    pool = small_universe()
    rng = random.Random(8)
    for _ in range(150):
        e, f, q = (rng.choice(pool) for _ in range(3))
        factor = rng.randint(1, 3)
        shift = rng.randint(-2, 2)
        base = c_value(e, f, q)
        assert c_value(*(v.vertical_stretch(factor) for v in (e, f, q))) == factor * base
        assert c_value(*(v.twist(shift) for v in (e, f, q))) == base


def test_stratum_report_consistency():
    e, f, q = B("0,-2"), B("1,-1"), B("-1")
    report = stratum_report(e, f, q)
    assert report.image == q
    assert report.stratum_dimension == 3
    assert report.c_value == dim_hom(e, f) - report.stratum_dimension == 2
