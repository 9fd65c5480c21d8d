"""Core bundle algebra: canonical form, invariants, polygon, grammar."""

from __future__ import annotations

import copy
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from hnbundles import (
    PAIR_UNIVERSE,
    TRIPLE_UNIVERSE,
    BundleParseError,
    HNBundle,
    PreconditionError,
    UniverseSpec,
    ZERO,
    bundle_from_json,
    bundle_to_json,
    canonicalize,
    admissible_slopes,
    build_e1,
    decompose_mrs,
    enumerate_bundles,
    format_bundle,
    hn_common_prefix,
    max_slope_reduction,
    parse_bundle,
    stable,
    strip_common_slopes,
    summand_difference,
)

B = parse_bundle

SMALL = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=2)


def small_universe(include_zero: bool = True) -> list[HNBundle]:
    return list(enumerate_bundles(SMALL, include_zero=include_zero))


# ----------------------------------------------------------------------
# construction and canonical form

def test_stable_rank_degree():
    assert (stable(1).rank, stable(1).degree) == (1, 1)
    assert (stable(0).rank, stable(0).degree) == (1, 0)
    assert (stable("3/2").rank, stable("3/2").degree) == (2, 3)
    assert (stable(" 3/6 ").rank, stable(" 3/6 ").degree) == (2, 1)
    assert (stable(Fraction(-2, 3)).rank, stable(Fraction(-2, 3)).degree) == (3, -2)


def test_canonicalize_merges_sorts_drops():
    assert canonicalize([(1, 1), (1, 1)]) == B("1:2")
    assert canonicalize([(-1, 2), (0, 1)]) == B("0,-1:2")
    assert canonicalize([(2, 0)]) == ZERO
    assert canonicalize([]) == ZERO


def test_canonicalize_idempotent_order_insensitive():
    rng = random.Random(11)
    for bundle in small_universe():
        pairs = list(bundle.summands)
        rng.shuffle(pairs)
        assert canonicalize(pairs) == bundle
        assert canonicalize(bundle.summands) == bundle


def test_direct_constructor_rejects_noncanonical():
    with pytest.raises(ValueError):
        HNBundle(((Fraction(1), 1), (Fraction(1), 1)))
    with pytest.raises(ValueError):
        HNBundle(((Fraction(-1), 1), (Fraction(0), 1)))
    with pytest.raises(ValueError):
        HNBundle(((Fraction(1), 0),))


def test_canonicalize_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        canonicalize([(1, -1)])


def test_a_boolean_is_not_a_multiplicity():
    # bool is a subclass of int: True would pass as 1, and a False summand would vanish.
    for build in (HNBundle, canonicalize):
        for flag in (True, False):
            with pytest.raises(ValueError, match="multiplicity"):
                build([(1, flag)])


@pytest.mark.parametrize("bad", [True, False, 0.1, "1.5", "1e3", "+1", "1/0", "٣", "١/٢"])
def test_a_slope_is_an_int_a_fraction_or_a_grammar_token(bad):
    # A float would be read bit by bit (0.1 is a slope of rank 2^55), a bool as 0 or 1.
    for read in (lambda lam: HNBundle([(lam, 1)]), stable, lambda lam: canonicalize([(lam, 1)]),
                 lambda lam: B("1").filter(lam, ">="), B("1").twist):
        with pytest.raises(ValueError):
            read(bad)


# ----------------------------------------------------------------------
# rank, degree, slope

def test_rank_degree_slope_examples():
    v = B("1,-1")
    assert (v.rank, v.degree, v.slope) == (2, 0, 0)
    w = B("3/2:2")
    assert (w.rank, w.degree, w.slope) == (4, 6, Fraction(3, 2))
    o = stable(0)
    assert (o.rank, o.degree, o.slope) == (1, 0, 0)


def test_slope_and_mu_undefined_on_zero():
    for attr in ("slope", "mu_max", "mu_min"):
        with pytest.raises(PreconditionError):
            getattr(ZERO, attr)


def test_mu_max_mu_min():
    assert (B("1,-1").mu_max, B("1,-1").mu_min) == (1, -1)
    assert B("3/2,0").mu_max == Fraction(3, 2)
    semistable = B("2:3")
    assert semistable.mu_max == semistable.mu_min == 2


# ----------------------------------------------------------------------
# dual, direct sum, filter

def test_dual_examples():
    assert B("1,-2").dual() == B("2,-1")
    v = B("3/2,0:2")
    assert v.dual().dual() == v
    w = B("2,1,-1")
    assert w.filter(1, ">=").rank == w.dual().filter(-1, "<=").rank == 2


def test_dual_negates_degree_preserves_rank():
    for v in small_universe():
        assert v.dual().rank == v.rank
        assert v.dual().degree == -v.degree


def test_filtration_duality():
    probes = [Fraction(p, 2) for p in range(-5, 6)]
    for v in small_universe():
        for mu in probes:
            assert v.filter(mu, ">=").rank == v.dual().filter(-mu, "<=").rank


def test_direct_sum():
    assert stable(1) + stable(1) == B("1:2")
    for v in small_universe():
        assert v + ZERO == v
    assert stable(0) + stable(-2) == B("0,-2")
    a, b = B("1,0"), B("1,-1:2")
    assert (a + b).rank == a.rank + b.rank
    assert (a + b).degree == a.degree + b.degree


def test_filter_examples_and_partition():
    assert B("1,-1").filter(0, ">=") == stable(1)
    assert B("2,0,-2").filter(0, "<=") == B("0,-2")
    for v in small_universe():
        if not v.is_zero:
            assert v.filter(v.mu_min, ">=") == v
        for mu in (-1, 0, Fraction(1, 2)):
            assert v.filter(mu, ">=") + v.filter(mu, "<") == v
    with pytest.raises(ValueError):
        B("1").filter(0, "==")


# ----------------------------------------------------------------------
# twist, stretch, tensor

def test_twist_examples():
    assert B("2,-1").twist(-2) == B("0,-3")
    for v in small_universe():
        assert v.twist(0) == v
        assert v.twist(3).twist(-3) == v
    for v in small_universe(include_zero=False):
        if v.has_integer_slopes():
            assert v.twist(-v.mu_max).mu_max == 0
    assert B("1").twist(2).degree == B("1").degree + 2 * B("1").rank


def test_twist_rejects_fractions():
    with pytest.raises(PreconditionError):
        B("1").twist(Fraction(1, 2))


def test_vertical_stretch_examples():
    half = stable(Fraction(1, 2))
    stretched = half.vertical_stretch(2)
    assert stretched == B("1:2")
    assert (stretched.rank, stretched.degree) == (2, 2)
    assert B("1,-1").vertical_stretch(3) == B("3,-3")
    for v in small_universe():
        assert v.vertical_stretch(1) == v


def test_vertical_stretch_composes_and_preserves_widths():
    for v in small_universe():
        assert v.vertical_stretch(2).vertical_stretch(3) == v.vertical_stretch(6)
        assert v.vertical_stretch(5).rank == v.rank
    with pytest.raises(PreconditionError):
        B("1").vertical_stretch(0)
    with pytest.raises(PreconditionError):
        B("1").vertical_stretch(True)


def test_tensor_examples():
    assert stable(1).tensor(stable(-1)) == stable(0)
    product = stable(Fraction(1, 2)).tensor(stable(Fraction(1, 2)))
    assert product == B("1:4")
    assert (product.rank, product.slope) == (4, 1)
    assert B("2,0").tensor(B("1")).rank == B("2,0").rank * B("1").rank


def test_tensor_bilinear_commutative_associative():
    rng = random.Random(23)
    pool = small_universe(include_zero=False)
    for _ in range(40):
        v, w, u = (rng.choice(pool) for _ in range(3))
        vw = v.tensor(w)
        assert vw == w.tensor(v)
        assert vw.rank == v.rank * w.rank
        assert vw.degree == v.rank * w.degree + v.degree * w.rank
        assert v.tensor(w.tensor(u)) == vw.tensor(u)
    assert B("1,-1").tensor(ZERO) == ZERO


# ----------------------------------------------------------------------
# polygon

def test_polygon_examples():
    assert [tuple(p) for p in B("1,-1").polygon] == [(0, 0), (1, 1), (2, 0)]


def test_polygon_reconstruction():
    for v in small_universe():
        rebuilt = []
        for a, b in zip(v.polygon, v.polygon[1:]):
            lam = Fraction(b.y - a.y, b.x - a.x)
            width = b.x - a.x
            assert width % lam.denominator == 0
            rebuilt.append((lam, width // lam.denominator))
        assert HNBundle(tuple(rebuilt)) == v


def test_slope_pairs_are_the_reduced_slopes():
    for v in small_universe():
        assert v.slope_pairs == {(lam.numerator, lam.denominator) for lam in v.slopes()}


# ----------------------------------------------------------------------
# multiset difference

def test_summand_difference():
    assert summand_difference(B("1:2,0"), B("1")) == B("1,0")
    assert summand_difference(B("1"), B("1")) == ZERO
    with pytest.raises(ValueError):
        summand_difference(B("1"), B("0:1"))
    with pytest.raises(ValueError):
        summand_difference(B("1"), B("1:2"))


# ----------------------------------------------------------------------
# grammar and JSON

def test_parse_examples():
    assert B("1,-1") == stable(1) + stable(-1)
    assert B("3/2:2") == canonicalize([(Fraction(3, 2), 2)])
    assert B("0") == ZERO
    assert B("0:1") == stable(0)
    assert B(" -1 , 0 ") == B("0,-1")
    assert B("1,1") == B("1:2")


def test_format_is_canonical_and_round_trips():
    assert format_bundle(ZERO) == "0"
    assert format_bundle(stable(0)) == "0:1"
    assert format_bundle(B("0,-2")) == "0,-2"
    assert format_bundle(B("3/2:2")) == "3/2:2"
    for v in small_universe():
        assert parse_bundle(format_bundle(v)) == v
        assert str(v) == format_bundle(v)


def test_parse_rejects_garbage():
    # Digits are ASCII: int() would read the Arabic-Indic digits as 1/2:3.
    for bad in ("", "x", "1//2", "1:", "1:x", "0,", "1/0", "1.5", "+1", "--1",
                "١/٢:٣", "٣", "1/٢", "1:٣", "-١"):
        with pytest.raises(BundleParseError):
            parse_bundle(bad)


def test_json_round_trip():
    payload = bundle_to_json(B("3/2:2,-1"))
    assert payload == {"summands": [{"slope": "3/2", "mult": 2}, {"slope": "-1", "mult": 1}]}
    for v in small_universe():
        assert bundle_from_json(bundle_to_json(v)) == v
    assert bundle_to_json(ZERO) == {"summands": []}


def test_json_rejects_garbage():
    for bad in ({}, {"summands": 3}, {"summands": [{"slope": 1, "mult": 1}]},
                {"summands": [{"slope": "1"}]}, {"summands": [{"slope": "1", "mult": "2"}]},
                {"summands": [{"slope": "1", "mult": True}]},
                {"summands": [{"slope": "1", "mult": False}]},
                *({"summands": [{"slope": slope, "mult": 1}]} for slope in ("1/0", "1.5", "1e3"))):
        with pytest.raises(BundleParseError):
            bundle_from_json(bad)


def test_bundles_are_hashable_values():
    assert B("1,-1") == B("-1,1")
    assert len({B("1,-1"), B("-1,1"), B("2,-1")}) == 2
    assert hash(B("1,-1")) == hash(B("-1,1"))


# ----------------------------------------------------------------------
# identity: integer key, hash, memoized dual

def test_equal_values_by_every_route_hash_equal():
    v = B("3/2:2,0,-1/2")
    routes = [
        HNBundle(((Fraction(3, 2), 2), (Fraction(0), 1), (Fraction(-1, 2), 1))),
        HNBundle((("3/2", 2), (0, 1), ("-1/2", 1))),
        canonicalize([(0, 1), ("-1/2", 1), (Fraction(3, 2), 1), ("3/2", 1)]),
        canonicalize([(" 6/4 ", 2), ("0", 1), ("-2/4", 1)]),
        parse_bundle("-1/2,3/2:2,0"),
        bundle_from_json(bundle_to_json(v)),
        v.dual().dual(),
        B("-3/2:2,0,1/2").dual(),
        v.twist(0),
        v.vertical_stretch(1),
        stable("3/2") + stable("3/2") + stable(0) + stable("-1/2"),
    ]
    for other in routes:
        assert other == v
        assert hash(other) == hash(v)


@pytest.mark.parametrize("spec, size", [
    (UniverseSpec(max_rank=4, slope_min=-2, slope_max=2, max_denominator=1), 126),
    (TRIPLE_UNIVERSE, 330),
    (PAIR_UNIVERSE, 220),
])
def test_distinct_bundles_of_a_universe_hash_distinct(spec, size):
    # hash(-1) == hash(-2) in CPython, so a hash of the raw key would collide wherever two
    # bundles differ only in a numerator -1 against -2 (the first universe had 91 hashes).
    pool = list(enumerate_bundles(spec, include_zero=True))
    assert len(pool) == size
    assert len({hash(v) for v in pool}) == size


def test_dual_is_memoized_involution():
    for v in small_universe():
        assert v.dual() is v.dual()
        assert v.dual().dual() is v


def test_deepcopy_keeps_value_and_hash():
    for v in (ZERO, B("3/2:2,-1"), B("1,-1").dual()):
        clone = copy.deepcopy(v)
        assert clone == v
        assert hash(clone) == hash(v)
        assert clone.dual().dual() is clone


def test_bundle_never_equals_tuple_or_str():
    for v in (ZERO, stable(1), B("3/2:2,-1")):
        assert v != v.summands
        assert v != format_bundle(v)
        assert v != ()
        assert not v == str(v)


def test_library_results_are_canonical():
    """Every operation that skips validation returns exactly what validation would build."""
    spec = UniverseSpec(max_rank=4, max_denominator=2)
    universe = list(enumerate_bundles(spec, include_zero=True))
    fixed = B("3/2,0:2,-1")
    slopes = sorted({lam for v in universe for lam in v.slopes()})
    for v in universe:
        results = [v.dual(), v.twist(1), v.twist(-1), v.vertical_stretch(2),
                   v.direct_sum(fixed), fixed.direct_sum(v),
                   summand_difference(v.direct_sum(fixed), fixed),
                   summand_difference(v, hn_common_prefix(v, fixed)),
                   hn_common_prefix(v, fixed)]
        results += [v.filter(mu, mode) for mu in slopes for mode in (">=", ">", "<=", "<")]
        for r in results:
            assert HNBundle(r.summands) == r
            assert canonicalize(r.summands) == r
            assert parse_bundle(format_bundle(r)) == r


# ----------------------------------------------------------------------
# the integer algebra against its statement in Fraction slopes
#
# Each reference takes and returns summands as ((Fraction slope, multiplicity), ...),
# slope-descending; the bundle operations work on the integer key only.

def _descending(tally):
    return tuple(sorted(((lam, m) for lam, m in tally.items() if m), reverse=True))


def _ref_direct_sum(a, b):
    tally = Counter()
    for lam, m in a + b:
        tally[lam] += m
    return _descending(tally)


def _ref_filter(v, mu, mode):
    keep = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}[mode]
    return tuple((lam, m) for lam, m in v if keep(lam, mu))


def _ref_twist(v, n):
    return tuple((lam + n, m) for lam, m in v)


def _ref_vertical_stretch(v, factor):
    # Each segment keeps its width m * denominator.
    return tuple((lam * factor, m * lam.denominator // (lam * factor).denominator) for lam, m in v)


def _ref_tensor(a, b):
    tally = Counter()
    for x, mx in a:
        for y, my in b:
            tally[x + y] += mx * my * x.denominator * y.denominator // (x + y).denominator
    return _descending(tally)


def _ref_summand_difference(whole, part):
    tally = Counter(dict(whole))
    tally.subtract(dict(part))
    assert min(tally.values(), default=0) >= 0
    return _descending(tally)


def _ref_hn_common_prefix(a, b):
    shared = []
    for (x, mx), (y, my) in zip(a, b):
        if x != y:
            break
        shared.append((x, min(mx, my)))
        if mx != my:
            break
    return tuple(shared)


def test_unary_operations_match_their_fraction_statements():
    pool = list(enumerate_bundles(PAIR_UNIVERSE, include_zero=True))
    slopes = admissible_slopes(PAIR_UNIVERSE)
    probes = sorted(set(slopes) | {lam + Fraction(1, 3) for lam in slopes} | {Fraction(-5)})
    for v in pool:
        summands = v.summands
        for mu, mode in itertools.product(probes, (">=", ">", "<=", "<")):
            assert v.filter(mu, mode) == HNBundle(_ref_filter(summands, mu, mode))
        for n in range(-3, 4):
            assert v.twist(n) == HNBundle(_ref_twist(summands, n))
        for factor in range(1, 7):
            assert v.vertical_stretch(factor) == HNBundle(_ref_vertical_stretch(summands, factor))


def test_binary_operations_match_their_fraction_statements():
    # A seeded sample of the 48,400 PAIR_UNIVERSE pairs, so the Fraction statements stay quick.
    pool = list(enumerate_bundles(PAIR_UNIVERSE, include_zero=True))
    pairs = random.Random(31).sample(list(itertools.product(pool, repeat=2)), 4000)
    for v, w in pairs:
        a, b = v.summands, w.summands
        total = v.direct_sum(w)
        prefix = hn_common_prefix(v, w)
        assert total == HNBundle(_ref_direct_sum(a, b))
        assert v.tensor(w) == HNBundle(_ref_tensor(a, b))
        assert prefix == HNBundle(_ref_hn_common_prefix(a, b))
        assert summand_difference(total, w) == HNBundle(_ref_summand_difference(total.summands, b))
        unshared = _ref_summand_difference(a, prefix.summands)
        assert summand_difference(v, prefix) == HNBundle(unshared)


def _fractions_held(value, seen):
    """Every Fraction reachable from ``value`` through containers and bundle instances."""
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, Fraction):
        return [value]
    if isinstance(value, HNBundle):
        value = list(vars(value).values())
    if isinstance(value, (tuple, list, frozenset, set)):
        return [lam for item in value for lam in _fractions_held(item, seen)]
    return []


def test_no_bundle_holds_a_fraction():
    v, w = B("3/2:2,0,-1/2"), B("1/3:3,-1")
    values = [
        HNBundle(((Fraction(3, 2), 2), ("-1/2", 1), (-1, 1))), HNBundle(()), ZERO,
        stable("5/3"), stable(Fraction(-2, 7)),
        canonicalize([(0, 1), ("-1/2", 1), (Fraction(3, 2), 1), ("3/2", 1)]),
        parse_bundle("-1/2,3/2:2,0"), bundle_from_json(bundle_to_json(w)),
        v.dual(), v.direct_sum(w), v.filter(Fraction(1, 3), ">"), v.filter(0, "<="),
        v.twist(-2), v.vertical_stretch(6), v.tensor(w), summand_difference(v, stable(0)),
        hn_common_prefix(v, v.filter(0, ">=")), *strip_common_slopes(v, w.direct_sum(stable(0))),
        build_e1(B("0:2,-3")), max_slope_reduction(B("2,1,-1"), B("1,-1:2")),
        *vars(decompose_mrs(B("0,-2"), B("1,-1"))).values(),
    ]
    for value in values:
        # Read every view and cached property first: reading must not store a Fraction.
        if not value.is_zero:
            value.slope, value.mu_max, value.mu_min
        value.summands, value.slopes(), value.rank, value.degree, value.polygon
        value.segment_vectors, value.slope_pairs, value.has_integer_slopes(), str(value)
        value.multiplicity("3/2"), value.dual().dual(), hash(value)
        assert _fractions_held(value, set()) == [], repr(value)
        assert set(vars(value)) <= {"_key", "_hash", "_dual", "rank", "degree", "polygon",
                                    "segment_vectors", "slope_pairs", "_integer_slopes"}


def test_assigning_or_deleting_an_attribute_raises():
    v = B("3/2:2,-1")
    key, digest = v._key, hash(v)
    for name in ("_key", "_hash", "_dual", "summands", "rank", "slope", "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, ())
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v._key == key and hash(v) == digest and v == B("3/2:2,-1")
