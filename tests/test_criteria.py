"""Decision procedures: rank condition, dominance, subbundle/quotient, common prefixes."""

from __future__ import annotations

import itertools

from hnbundles import (
    HNBundle,
    UniverseSpec,
    ZERO,
    decompose_mrs,
    enumerate_bundles,
    hn_common_prefix,
    is_quotient,
    is_subbundle,
    parse_bundle,
    rank_condition,
    slopewise_dominates,
    stable,
    strip_common_slopes,
)

B = parse_bundle

SMALL = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=2)


def small_universe():
    return list(enumerate_bundles(SMALL, include_zero=True))


# ----------------------------------------------------------------------
# the two criteria

def test_rank_condition_examples():
    assert rank_condition(stable(0), B("1,-1"))
    for v in small_universe():
        assert rank_condition(v, v)
    assert not rank_condition(stable(1), stable(0))


def test_slopewise_dominates_examples():
    assert slopewise_dominates(B("1,-1"), B("0,-2"))
    for v in small_universe():
        assert slopewise_dominates(v, v)
    assert not slopewise_dominates(stable(0), stable(1))


def test_zero_bundle_conventions():
    for v in small_universe():
        assert slopewise_dominates(v, ZERO)
        assert is_subbundle(ZERO, v)
        assert is_quotient(ZERO, v)
        if not v.is_zero:
            assert not slopewise_dominates(ZERO, v)


def test_dominance_at_huge_rank():
    n = 10**12 + 1
    assert slopewise_dominates(B(f"3/{n},0:{n}"), B(f"1/{n},-1:{n}"))
    # Only the last of the 10**12 unit intervals fails.
    assert not slopewise_dominates(B(f"1:{n - 1},-1"), B(f"0:{n}"))
    assert slopewise_dominates(B(f"1:{n - 1},0"), B(f"0:{n}"))


def test_rank_mismatch_forces_false():
    assert not slopewise_dominates(stable(1), B("1:2"))
    assert not rank_condition(B("1:2"), stable(1))


def test_dominance_reads_no_rank():
    # The keys are walked directly, so fresh bundles keep their rank property unfilled.
    pool = [HNBundle(v.summands) for v in small_universe()]
    for e, f in itertools.product(pool, repeat=2):
        slopewise_dominates(f, e)
    assert not any("rank" in vars(v) for v in pool)


def test_dominance_where_f_ends_inside_a_summand_of_e():
    # rank(E) > rank(F), and F's polygon ends strictly inside one of E's segments.
    assert not slopewise_dominates(B("1:2"), B("0:3"))
    assert not slopewise_dominates(B("1:3"), B("1/2:2"))
    pool = small_universe()
    cases = 0
    for e, f in itertools.product(pool, repeat=2):
        if e.rank > f.rank and f.rank not in {vertex.x for vertex in e.polygon}:
            cases += 1
            assert slopewise_dominates(f, e) == rank_condition(e, f) is False
    assert cases > 500


def test_equivalence_on_small_universe():
    pool = small_universe()
    for e, f in itertools.product(pool, repeat=2):
        assert rank_condition(e, f) == slopewise_dominates(f, e)


def test_dominance_is_partial_order_per_rank():
    pool = [v for v in small_universe() if not v.is_zero]
    by_rank: dict[int, list] = {}
    for v in pool:
        by_rank.setdefault(v.rank, []).append(v)
    for members in by_rank.values():
        for a, b in itertools.product(members, repeat=2):
            if slopewise_dominates(a, b) and slopewise_dominates(b, a):
                assert a == b
        for a, b, c in itertools.product(members, repeat=3):
            if slopewise_dominates(a, b) and slopewise_dominates(b, c):
                assert slopewise_dominates(a, c)


def test_equal_rank_duality():
    pool = small_universe()
    for e, f in itertools.product(pool, repeat=2):
        if e.rank == f.rank and slopewise_dominates(f, e):
            assert slopewise_dominates(e.dual(), f.dual())


# ----------------------------------------------------------------------
# subbundle / quotient

def test_is_subbundle_examples():
    assert is_subbundle(stable(0), B("1,-1"))
    assert is_subbundle(B("0,-2"), B("0,-2"))
    assert not is_subbundle(stable(1), stable(0))


def test_is_quotient_examples():
    assert is_quotient(B("-1"), B("0,-2"))
    assert is_quotient(B("0,-2"), B("0,-2"))
    assert not is_quotient(B("1:2"), stable(1))


def test_subbundle_quotient_duality():
    pool = small_universe()
    for e, f in itertools.product(pool, repeat=2):
        assert is_subbundle(e, f) == is_quotient(e.dual(), f.dual())


def test_subbundle_implies_rank_condition():
    pool = small_universe()
    for e, f in itertools.product(pool, repeat=2):
        if is_subbundle(e, f):
            assert rank_condition(e, f)


# ----------------------------------------------------------------------
# strip_common_slopes

def test_strip_common_slopes_examples():
    u, e2, f2 = strip_common_slopes(B("0,-1"), B("1,-1"))
    assert (u, e2, f2) == (B("-1"), B("0:1"), B("1"))
    u, e2, f2 = strip_common_slopes(B("1"), B("-1"))
    assert u == ZERO
    e = B("1,0,-1")
    assert strip_common_slopes(e, e) == (e, ZERO, ZERO)


def test_strip_common_slopes_properties():
    pool = small_universe()
    for e, f in itertools.product(pool, repeat=2):
        u, e2, f2 = strip_common_slopes(e, f)
        assert u + e2 == e and u + f2 == f
        assert not set(e2.slopes()) & set(f2.slopes())
        assert rank_condition(e, f) == rank_condition(e2, f2)
        assert is_subbundle(e, f) == is_subbundle(e2, f2)


# ----------------------------------------------------------------------
# the common HN polygon prefix

def test_hn_common_prefix():
    assert hn_common_prefix(B("2,0,-1"), B("2,1,-1")) == B("2")
    assert hn_common_prefix(B("2:3"), B("2:5,1")) == B("2:3")
    assert hn_common_prefix(B("2:5,-1"), B("2:3,0")) == B("2:3")
    assert hn_common_prefix(B("1"), B("2")) == ZERO
    assert hn_common_prefix(ZERO, B("1")) == ZERO


def test_decompose_mrs_invariants_on_dominating_pairs():
    pool = small_universe()
    checked = 0
    for e_i, q in itertools.product(pool, repeat=2):
        if e_i.rank != q.rank or not slopewise_dominates(e_i.dual(), q.dual()):
            continue
        checked += 1
        triple = decompose_mrs(e_i, q)
        m, r, s = triple.common, triple.q_complement, triple.e_complement
        assert m + r == q.dual() and m + s == e_i.dual()
        assert slopewise_dominates(s, r)
        assert (e_i == q) == s.is_zero == r.is_zero
        if not s.is_zero:
            assert s.mu_max > r.mu_max
            if not m.is_zero:
                assert m.mu_min >= s.mu_max
    assert checked > len(pool)
