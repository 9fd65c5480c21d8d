"""Enumeration and the verification harness itself."""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from hnbundles import (
    HNBundle,
    InternalConsistencyError,
    PAIR_UNIVERSE,
    PreconditionError,
    UniverseSpec,
    ZERO,
    admissible_slopes,
    c_value,
    canonicalize,
    deg_nonneg,
    deg_nonneg_oracle,
    degeneration_trace,
    dim_hom,
    enumerate_bundles,
    enumerate_candidate_images,
    is_quotient,
    is_subbundle,
    parse_bundle,
    rank_condition,
    run_checks,
    slopewise_dominates,
    stable,
    stratum_dim,
    verify_degeneration,
    verify_equivalence,
    verify_invariance,
    verify_key_inequality,
    verify_oracles,
    verify_stratification_dimension,
)
from hnbundles import bundle, cli, criteria, degeneration, degrees, verify
from hnbundles.degeneration import (
    GENERAL_CONDITIONS,
    PAIR_CONDITIONS,
    REDUCED_CONDITIONS,
    ConditionSet,
    DecompositionTriple,
    general_violations,
    reduced_violations,
)
from hnbundles.verify import CANDIDATE_POOL_LIMIT
from triples import admissible_triples

B = parse_bundle

TINY = UniverseSpec(max_rank=2, slope_min=-1, slope_max=1, max_denominator=1)
SMALL = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=2)
SMALL_INT = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=1)


def _count_by_rank(slopes, max_rank):
    """Independent universe count: DP over per-slope multiplicity choices."""
    counts = [1] + [0] * max_rank
    for lam in slopes:
        width = lam.denominator
        merged = [0] * (max_rank + 1)
        for base, ways in enumerate(counts):
            if not ways:
                continue
            total = base
            while total <= max_rank:
                merged[total] += ways
                total += width
        counts = merged
    return counts


# ----------------------------------------------------------------------
# universes

def test_universe_spec_validation():
    with pytest.raises(ValueError):
        UniverseSpec(max_rank=0)
    with pytest.raises(ValueError):
        UniverseSpec(slope_min=1, slope_max=0)
    with pytest.raises(ValueError):
        UniverseSpec(max_denominator=0)
    with pytest.raises(ValueError):
        UniverseSpec(sample_limit=0)
    with pytest.raises(ValueError):
        UniverseSpec(seed=-1)
    for slopes in ({"slope_min": "0.5"}, {"slope_max": 0.5}, {"slope_max": True},
                   {"slope_max": "1e3"}):
        with pytest.raises(ValueError):
            UniverseSpec(**slopes)
    # Sizes and the seed are ints, not bools, floats or strings.
    for name in ("max_rank", "max_denominator", "sample_limit", "seed"):
        for value in (2.5, 1.5, 1.0, True, "3", Fraction(2)):
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                UniverseSpec(**{name: value})


def test_admissible_slopes():
    assert admissible_slopes(TINY) == (1, 0, -1)
    slopes = admissible_slopes(SMALL)
    assert Fraction(1, 2) in slopes and Fraction(-3, 2) in slopes
    assert Fraction(2, 2) not in set(slopes) - {Fraction(1)}  # no duplicates
    assert list(slopes) == sorted(slopes, reverse=True)


def _slopes_by_brute_force(lo: Fraction, hi: Fraction, top: int) -> list[tuple[int, int]]:
    """Every p/q in lowest terms in [lo, hi] with q <= top, by q, then p, read q by q."""
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return [(p, q) for q in range(1, top + 1)
            for p in range(-(-a * q // b), c * q // d + 1) if math.gcd(p, q) == 1]


def test_the_slope_walk_matches_brute_force_with_its_jumps_on_both_sides():
    # Each narrow box forces one long jump: above the box, 1/0 to 1/333 on [1/1000, 3/1000],
    # and below it, 0/1 to 332/333 on [997/1000, 1].  The seeded boxes jump below 172 times
    # and above 468 times.
    rng = random.Random(20)
    boxes = [(Fraction(1, 1000), Fraction(3, 1000), 1000), (Fraction(997, 1000), Fraction(1), 1000)]
    for _ in range(400):
        lo = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        boxes.append((lo, lo + Fraction(rng.randint(0, 6), rng.randint(1, 12)), rng.randint(1, 30)))
    for lo, hi, top in boxes:
        spec = UniverseSpec(max_rank=1, slope_min=lo, slope_max=hi, max_denominator=top)
        expected = _slopes_by_brute_force(lo, hi, top)
        assert list(verify._reduced_slopes(spec)) == expected, (lo, hi, top)
        assert admissible_slopes(spec) == tuple(
            sorted(itertools.starmap(Fraction, expected), reverse=True))


def test_enumerate_counts_against_dp_oracle():
    for spec in (TINY, SMALL, SMALL_INT):
        slopes = admissible_slopes(spec)
        expected = sum(_count_by_rank(slopes, spec.max_rank)[1:])
        bundles = list(enumerate_bundles(spec))
        assert len(bundles) == expected
        assert len(set(bundles)) == expected


def _enumerate_by_scanning_every_slope(spec):
    """Every bundle of the universe in enumeration order, each frame scanning the whole slope list."""
    slopes = admissible_slopes(replace(spec, max_denominator=min(spec.max_denominator, spec.max_rank)))

    def rec(start, budget):
        yield ()
        for idx in range(start, len(slopes)):
            width = slopes[idx].denominator
            if width > budget:
                continue
            for mult in range(1, budget // width + 1):
                for tail in rec(idx + 1, budget - mult * width):
                    yield ((slopes[idx], mult),) + tail

    return [HNBundle(combo) for combo in rec(0, spec.max_rank) if combo]


def test_the_enumeration_steps_past_wide_slopes_in_the_scanning_order():
    # Denominators up to 3 in a rank-6 box: frames with budgets 1 and 2 skip slopes.
    spec = UniverseSpec(max_rank=6, slope_min=-1, slope_max=2, max_denominator=3)
    expected = _enumerate_by_scanning_every_slope(spec)
    assert len(expected) == 840 and any(lam.denominator == 3 for v in expected for lam in v.slopes())
    assert list(enumerate_bundles(spec)) == expected


def test_enumerate_tiny_example():
    assert len(list(enumerate_bundles(TINY))) == 9
    assert len(list(enumerate_bundles(TINY, include_zero=True))) == 10
    singleton = UniverseSpec(max_rank=1, slope_min=0, slope_max=0, max_denominator=1)
    assert list(enumerate_bundles(singleton)) == [stable(0)]


def test_enumerate_respects_bounds_and_is_deterministic():
    bundles = list(enumerate_bundles(SMALL))
    for v in bundles:
        assert 1 <= v.rank <= SMALL.max_rank
        for lam, _ in v.summands:
            assert SMALL.slope_min <= lam <= SMALL.slope_max
            assert lam.denominator <= SMALL.max_denominator
    assert bundles == list(enumerate_bundles(SMALL))
    half = stable(Fraction(1, 2))
    assert half in bundles and half.rank == 2


def test_enumerated_bundles_pass_the_validating_constructor():
    spec = UniverseSpec(max_rank=4, slope_min=-1, slope_max=1, max_denominator=3)
    bundles = list(enumerate_bundles(spec, include_zero=True))
    assert any(lam.denominator == 3 for v in bundles for lam in v.slopes())
    rebuilt = [HNBundle(v.summands) for v in bundles]
    assert rebuilt == bundles
    assert [v.summands for v in rebuilt] == [v.summands for v in bundles]


def test_candidate_images_example():
    e, f = stable(0), B("1,-1")
    candidates = set(enumerate_candidate_images(e, f, TINY))
    assert ZERO in candidates
    assert stable(0) in candidates
    assert stable(1) in candidates
    assert e in candidates
    for q in candidates:
        assert q.rank <= e.rank


def test_candidate_images_empty_universe_edge():
    narrow = UniverseSpec(max_rank=1, slope_min=0, slope_max=0, max_denominator=1)
    candidates = list(enumerate_candidate_images(B("1"), B("2"), narrow))
    assert candidates == [ZERO]  # the only universe member that qualifies


def test_candidate_pool_over_the_cap_raises_before_scanning():
    wide = UniverseSpec(max_rank=30, slope_min=0, slope_max=2, max_denominator=30)
    with pytest.raises(PreconditionError, match=str(CANDIDATE_POOL_LIMIT)):
        next(enumerate_candidate_images(B("0:30"), B("2:30"), wide))


# ----------------------------------------------------------------------
# every enumeration agrees with the one statement of the conditions

AGREE = UniverseSpec(max_rank=3, slope_min=-1, slope_max=1, max_denominator=2)


def _brute_force_triples(violations, spec=AGREE):
    bundles = list(enumerate_bundles(spec))
    images = sorted(enumerate_bundles(spec, include_zero=True), key=lambda b: b.rank)
    return [
        (e, f, q)
        for e in bundles
        for f in bundles
        for q in images
        if q.rank < e.rank and violations(e, f, q) == ()
    ]


def test_general_triples_agree_with_general_violations():
    assert len(list(enumerate_bundles(AGREE, include_zero=True))) == 28
    expected = _brute_force_triples(general_violations)
    assert len(expected) == 377
    assert list(admissible_triples(AGREE, GENERAL_CONDITIONS)) == expected


def test_reduced_triples_agree_with_reduced_violations():
    expected = _brute_force_triples(reduced_violations)
    assert len(expected) == 32
    assert list(admissible_triples(AGREE, REDUCED_CONDITIONS)) == expected


def test_candidate_images_agree_with_quotient_and_subbundle():
    pool = list(enumerate_bundles(AGREE, include_zero=True))
    for e, f in itertools.product(pool, repeat=2):
        expected = [q for q in pool if is_quotient(q, e) and is_subbundle(q, f)]
        assert list(enumerate_candidate_images(e, f, AGREE)) == expected


# ----------------------------------------------------------------------
# the checks themselves, desk scale kept small here

def test_verify_equivalence_passes():
    report = verify_equivalence(SMALL)
    assert report.passed
    assert report.instances_checked == (len(list(enumerate_bundles(SMALL))) + 1) ** 2


def test_verify_oracles_passes():
    assert verify_oracles(SMALL).passed


def test_verify_key_inequality_passes():
    report = verify_key_inequality(SMALL_INT)
    assert report.passed
    assert report.instances_checked > 0


def test_verify_degeneration_passes_without_findings():
    report = verify_degeneration(SMALL_INT)
    assert report.passed
    assert report.findings == ()
    assert report.instances_checked > 0


def test_verify_stratification_passes():
    assert verify_stratification_dimension(SMALL_INT).passed


def test_verify_invariance_passes():
    spec = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2,
                        max_denominator=2, sample_limit=300, seed=9)
    report = verify_invariance(spec)
    assert report.passed
    assert report.instances_checked == 300


def test_reports_are_deterministic():
    spec = UniverseSpec(max_rank=2, slope_min=-2, slope_max=2,
                        max_denominator=2, sample_limit=500, seed=42)
    first = verify_equivalence(spec)
    second = verify_equivalence(spec)
    assert first.instances_checked == second.instances_checked
    assert first.counterexamples == second.counterexamples
    assert first.property_name == second.property_name


def _every_fifth_non_self_bit_dropped(keys):
    dropped, seen = [], 0
    for lower, mask in enumerate(criteria.dominators(keys)):
        for upper in range(len(keys)):
            if upper != lower and mask >> upper & 1:
                seen += 1
                if seen % 5 == 0:
                    mask &= ~(1 << upper)
        dropped.append(mask)
    return dropped


def _no_rank_4_bundle_dominates_another(keys):
    rank_4 = [sum(q * m for _, q, m in key) == 4 for key in keys]
    uppers = sum(1 << upper for upper, flag in enumerate(rank_4) if flag)
    return [mask & ~(uppers & ~(1 << lower))
            for lower, mask in enumerate(criteria.dominators(keys))]


@pytest.mark.parametrize("mutant", [_every_fifth_non_self_bit_dropped,
                                    _no_rank_4_bundle_dominates_another])
def test_equivalence_catches_a_relation_that_drops_bits(monkeypatch, capsys, mutant):
    # Each mutant only shrinks the triple stream, which no triple check can notice;
    # equivalence reads the relation itself on every ordered pair.
    monkeypatch.setattr(verify, "dominators", mutant)
    assert cli.run(["verify", "--check", "equivalence", "--format", "json"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["instances"] == 220**2 and not report["passed"]
    assert report["counterexamples"]
    assert all(line.endswith(": dominators says False, the other two routes True")
               for line in report["counterexamples"])


def test_equivalence_names_the_route_that_disagrees(monkeypatch):
    def lying(f, e):
        return e == B("1") and f == B("0:1") or criteria.slopewise_dominates(f, e)

    monkeypatch.setattr(verify, "slopewise_dominates", lying)
    assert verify_equivalence(TINY).counterexamples == (
        "E=1 F=0:1: slopewise_dominates says True, the other two routes False",)


def test_a_random_sample_may_draw_as_many_pairs_or_triples_as_the_universe_has():
    spec = UniverseSpec(max_rank=1, slope_min=0, slope_max=1, max_denominator=1)  # 0, O(1), O
    for check, count in ((verify_equivalence, 9), (verify_oracles, 9), (verify_invariance, 27)):
        assert check(replace(spec, sample_limit=count)).instances_checked == count
        with pytest.raises(PreconditionError, match=f"exceeds the universe's {count} "):
            check(replace(spec, sample_limit=count + 1))


def test_invariance_checks_each_triple_of_a_small_universe_once(monkeypatch):
    recorded = []
    original = verify.c_value

    def recording(e, f, q):
        recorded.append((e, f, q))
        return original(e, f, q)

    monkeypatch.setattr(verify, "c_value", recording)
    tiny = UniverseSpec(max_rank=1, slope_min=0, slope_max=0, max_denominator=1)  # 0 and O
    for spec, size in ((tiny, 2), (TINY, 10)):
        pool = verify.bundle_pool(spec)
        assert len(pool) == size
        recorded.clear()
        report = verify_invariance(spec)
        assert report.passed and report.instances_checked == size ** 3
        # c_value of the triple, then of its stretch and of its twist.
        assert recorded[::3] == list(itertools.product(pool, repeat=3))
    # One bundle more, and the check draws its 1,000 triples as before.
    eleven = UniverseSpec(max_rank=1, slope_min=-4, slope_max=5, max_denominator=1)
    assert len(verify.bundle_pool(eleven)) == 11
    assert verify_invariance(eleven).instances_checked == 1000


def test_sampling_draws_from_exhaustive_universe():
    spec = UniverseSpec(max_rank=2, slope_min=-1, slope_max=1,
                        max_denominator=1, sample_limit=50, seed=3)
    sampled = verify_key_inequality(spec)
    exhaustive = verify_key_inequality(UniverseSpec(
        max_rank=2, slope_min=-1, slope_max=1, max_denominator=1))
    assert sampled.instances_checked == min(50, exhaustive.instances_checked)
    assert sampled.passed and exhaustive.passed


def test_report_json_shape():
    payload = verify_equivalence(TINY).to_json_dict()
    assert set(payload) == {"property", "instances", "counterexamples",
                            "elapsed", "findings", "passed"}
    assert payload["passed"] is True
    assert payload["property"] == "equivalence"


def test_run_checks_selection_and_unknown():
    reports = run_checks(["equivalence", "oracles"], TINY)
    assert [r.property_name for r in reports] == ["equivalence", "oracles"]
    with pytest.raises(ValueError):
        run_checks(["nonsense"], TINY)


def test_run_checks_times_each_body_alone_and_builds_its_report(monkeypatch):
    # A verify_* call runs the body registered in CHECKS through run_checks; the
    # universe build stays out of elapsed, and the lists come back sorted.
    def slow_universe(spec):
        time.sleep(0.4)
        return built(spec)

    def body(universe):
        assert universe.spec == TINY
        time.sleep(0.05)
        return 3, ["b", "a"], ["y", "x"]

    built = verify.Universe
    monkeypatch.setattr(verify, "Universe", slow_universe)
    monkeypatch.setitem(verify.CHECKS, "invariance", (body, PAIR_UNIVERSE))
    report = verify_invariance(TINY)
    assert (report.property_name, report.instances_checked) == ("invariance", 3)
    assert (report.counterexamples, report.findings) == (("a", "b"), ("x", "y"))
    assert 0.05 <= report.elapsed < 0.4


def test_run_checks_default_runs_everything():
    reports = run_checks(spec=TINY)
    assert [r.property_name for r in reports] == [
        "equivalence", "oracles", "key-inequality",
        "degeneration", "stratification", "invariance",
    ]
    assert all(r.passed for r in reports)


def test_counterexamples_would_be_replayable():
    # the report carries grammar strings; every bundle token in a
    # counterexample line must parse back (exercised here via findings-free
    # pass plus the formatting helper on a synthetic line)
    report = verify_equivalence(TINY)
    assert report.counterexamples == ()
    line = f"E={B('0,-2')} F={B('1,-1')}"
    fields = dict(part.split("=") for part in line.split())
    assert B(fields["E"]) == B("0,-2") and B(fields["F"]) == B("1,-1")


# ----------------------------------------------------------------------
# the checks that share work across triples report what per-triple checks report

def _reference_trace_problems(e, f, q, trace):
    """Every chain invariant of one trace, re-checked from scratch."""
    bad, notes = [], []
    chain, steps, c = trace.chain, trace.steps, trace.c_values
    r = trace.terminated_at
    if chain[0] != e or chain[-1] != q:
        bad.append("chain endpoints wrong")
    if r != len(chain) - 1 or len(steps) != r or len(c) != r + 1:
        bad.append("trace lengths inconsistent")
    if r > q.rank + 2:
        bad.append(f"chain length {r} exceeds rank bound {q.rank + 2}")
    if any(member.rank != q.rank for member in chain[1:]):
        bad.append("rank plateau broken")
    if any(c[i] != c_value(chain[i], f, q) for i in range(len(chain))):
        bad.append("recorded codimensions disagree with recomputation")
    if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
        bad.append(f"codimension increased along the chain: {list(c)}")
    if c[-1] != 0:
        bad.append(f"endpoint codimension {c[-1]} != 0")
    if r >= 2 and not c[0] > c[2]:
        bad.append(f"no strict drop across the first two steps: {list(c)}")
    if c[0] <= 0:
        bad.append(f"initial codimension {c[0]} not positive")
    first_drop = f.filter(0, ">=").degree - q.filter(0, ">=").degree
    if c[0] - c[1] != first_drop:
        bad.append(f"first-step drop {c[0] - c[1]} != deg(F)>=0 - deg(Q)>=0 = {first_drop}")
    for i in range(1, r + 1):
        member = chain[i]
        m, rr, s = steps[i - 1].common, steps[i - 1].q_complement, steps[i - 1].e_complement
        label = f"step {i}"
        if m.direct_sum(rr) != q.dual() or m.direct_sum(s) != member.dual():
            bad.append(f"{label}: decomposition does not reassemble the duals")
            continue
        if not slopewise_dominates(s, rr):
            bad.append(f"{label}: S={s} does not dominate R={rr}")
        if s.is_zero != rr.is_zero or s.is_zero != (member == q):
            bad.append(f"{label}: complement vanishing inconsistent")
        if not s.is_zero and not s.mu_max > rr.mu_max:
            bad.append(f"{label}: mu_max(S) <= mu_max(R)")
        if not m.is_zero and not s.is_zero and not m.mu_min >= s.mu_max:
            bad.append(f"{label}: mu_min(M) < mu_max(S)")
    for i in range(1, r):
        if c[i] == c[i + 1] and chain[i] != q:
            s_dual = steps[i - 1].e_complement.dual()
            if s_dual.rank != f.filter(s_dual.mu_min, ">").rank:
                bad.append(f"step {i}: codimension stalled without the rank equality")
    for i in range(r):
        if not slopewise_dominates(chain[i].dual(), chain[i + 1].dual()):
            notes.append(f"dual chain not degenerating at step {i}")
    return bad, notes


def _reference_degeneration(spec):
    """verify_degeneration's (instances, counterexamples, findings), one trace per triple."""
    triples = _brute_force_triples(reduced_violations, spec)
    cex, findings = [], []
    for e, f, q in triples:
        prefix = f"E={e} F={f} Q={q}"
        try:
            trace = degeneration_trace(e, f, q)
        except (PreconditionError, InternalConsistencyError) as exc:
            cex.append(f"{prefix}: trace failed: {exc}")
            continue
        bad, notes = _reference_trace_problems(e, f, q, trace)
        cex += [f"{prefix}: {item}" for item in bad]
        findings += [f"{prefix}: {item}" for item in notes]
    return len(triples), tuple(sorted(cex)), tuple(sorted(findings))


def _candidate_images(pool, e, f):
    return [q for q in pool if is_quotient(q, e) and is_subbundle(q, f)]


def _stratification_pairs(pool):
    return [(e, f) for e, f in itertools.product(pool, repeat=2)
            if not set(e.slopes()) & set(f.slopes()) and is_subbundle(e, f)]


def _reference_stratification(spec):
    """verify_stratification_dimension's (instances, counterexamples), one pool scan per pair."""
    pool = list(enumerate_bundles(spec, include_zero=True))
    pairs = _stratification_pairs(pool)
    cex = []
    for e, f in pairs:
        full = dim_hom(e, f)
        dims = {}
        for q in _candidate_images(pool, e, f):
            try:
                dims[q] = stratum_dim(e, f, q)
            except InternalConsistencyError as exc:
                cex.append(f"E={e} F={f} Q={q}: {exc}")
        if dims.get(e) != full:
            cex.append(f"E={e} F={f}: stratum at Q=E is {dims.get(e)}, dim hom is {full}")
        cex += [f"E={e} F={f} Q={q}: smaller-rank stratum {dim} reaches dim hom {full}"
                for q, dim in dims.items() if q.rank < e.rank and dim >= full]
        if max(dims.values(), default=None) != full:
            cex.append(f"E={e} F={f}: top stratum {max(dims.values(), default=None)} "
                       f"!= dim hom {full}")
    return len(pairs), tuple(sorted(cex))


def _reference_key_inequality(spec):
    """verify_key_inequality's (instances, counterexamples), one c_value per triple."""
    triples = _brute_force_triples(general_violations, spec)
    cex = [f"E={e} F={f} Q={q}: c={c}" for e, f, q in triples if (c := c_value(e, f, q)) <= 0]
    return len(triples), tuple(sorted(cex))


def _degeneration_outcome(report):
    return report.instances_checked, report.counterexamples, report.findings


def test_key_inequality_check_matches_one_c_value_per_triple():
    report = verify_key_inequality(SMALL_INT)
    expected = _reference_key_inequality(SMALL_INT)
    assert (report.instances_checked, report.counterexamples) == expected
    assert expected[0] > 0


def test_degeneration_check_matches_one_trace_per_triple():
    outcome = _degeneration_outcome(verify_degeneration(SMALL_INT))
    assert outcome == _reference_degeneration(SMALL_INT)
    assert outcome[0] > 0


def test_stratification_check_matches_one_pool_scan_per_pair():
    report = verify_stratification_dimension(SMALL_INT)
    expected = _reference_stratification(SMALL_INT)
    assert (report.instances_checked, report.counterexamples) == expected
    assert expected[0] > 0


DENOMINATOR_3 = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=3)


def test_the_triple_checks_match_the_references_with_denominators_up_to_3():
    # Slopes such as 2/3 and -1/3 enter E, F and Q: rank-3 stable summands.
    assert len(verify.bundle_pool(DENOMINATOR_3)) == 88
    key, chain, strata = run_checks(["key-inequality", "degeneration", "stratification"],
                                    DENOMINATOR_3)
    assert ((key.instances_checked, key.counterexamples)
            == _reference_key_inequality(DENOMINATOR_3) == (10_134, ()))
    assert _degeneration_outcome(chain) == _reference_degeneration(DENOMINATOR_3) == (479, (), ())
    assert ((strata.instances_checked, strata.counterexamples)
            == _reference_stratification(DENOMINATOR_3) == (1_348, ()))


def test_a_broken_chain_is_reported_for_each_of_its_triples(monkeypatch):
    triples = list(admissible_triples(SMALL_INT, REDUCED_CONDITIONS))
    chains = {(e, q): degeneration_trace(e, f, q).chain for e, f, q in triples}

    def visited_elsewhere(e, q, member):
        return any(member in chain[1:] for (e2, q2), chain in chains.items()
                   if q2 == q and e2 != e)

    # An (E, Q) whose first proper step starts from a member no other chain to Q visits.
    e, q = next((e, q) for (e, q), chain in chains.items()
                if len(chain) > 2 and not visited_elsewhere(e, q, chain[1]))
    targets = {f"E={e} F={f} Q={q2}" for e2, f, q2 in triples if (e2, q2) == (e, q)}
    assert 1 < len(targets) < len(triples)

    stuck = degeneration.decompose_mrs(chains[e, q][1], q)
    original = degeneration._next_member

    def broken(step):
        # Makes no progress from the chosen member, so that chain runs into its step bound.
        return chains[e, q][1] if step == stuck else original(step)

    monkeypatch.setattr(degeneration, "_next_member", broken)
    outcome = _degeneration_outcome(verify_degeneration(SMALL_INT))
    assert outcome == _reference_degeneration(SMALL_INT)
    assert {line.split(": ", 1)[0] for line in outcome[1]} == targets
    assert all("exceeded" in line for line in outcome[1])


def test_degeneration_check_takes_each_chain_step_once(monkeypatch):
    triples = list(admissible_triples(SMALL_INT, REDUCED_CONDITIONS))
    chains = {(e, q): degeneration_trace(e, f, q).chain for e, f, q in triples}
    steps = Counter({(member, q) for (e, q), chain in chains.items() for member in chain[1:]})
    peels = Counter({e for e, _ in chains})
    # Chains from different E merge, and an E has chains to several Q.
    assert len(steps) < sum(len(chain) - 1 for chain in chains.values())
    assert len(peels) < len(chains)

    decomposed, peeled = Counter(), Counter()
    advanced = []
    decompose_mrs, build_e1, next_member = (
        degeneration.decompose_mrs, degeneration.build_e1, degeneration._next_member)

    def decompose(e_i, q):
        decomposed[e_i, q] += 1
        return decompose_mrs(e_i, q)

    def peel(e):
        peeled[e] += 1
        return build_e1(e)

    def advance(step):
        advanced.append(step)
        return next_member(step)

    monkeypatch.setattr(degeneration, "decompose_mrs", decompose)
    monkeypatch.setattr(degeneration, "build_e1", peel)
    monkeypatch.setattr(degeneration, "_next_member", advance)
    assert verify_degeneration(SMALL_INT).passed
    assert decomposed == steps
    assert peeled == peels
    assert len(advanced) == sum(1 for member, q in steps if member != q)


def test_a_member_outside_the_pool_is_reported_as_by_the_reference(monkeypatch):
    pool = set(enumerate_bundles(SMALL_INT, include_zero=True))
    triples = list(admissible_triples(SMALL_INT, REDUCED_CONDITIONS))
    chains = {(e, q): degeneration_trace(e, f, q).chain for e, f, q in triples}
    e, q = next((e, q) for (e, q), chain in chains.items() if len(chain) > 3)
    stuck = degeneration.decompose_mrs(chains[e, q][1], q)
    original = degeneration._next_member
    # The right rank, but slopes below the universe: the chain leaves the pool and comes back.
    outside = original(stuck).twist(-10)
    assert outside not in pool

    def leaving(step):
        return outside if step == stuck else original(step)

    monkeypatch.setattr(degeneration, "_next_member", leaving)
    through = {f"E={e2} F={f} Q={q2}" for e2, f, q2 in triples
               if outside in degeneration_trace(e2, f, q2).chain}
    assert len(through) == 3
    # The universe does not grow: each chain through the stray fails with one line, and
    # every other triple reports what its own trace reports.
    count, cex, findings = _degeneration_outcome(verify_degeneration(SMALL_INT))
    ref_count, ref_cex, ref_findings = _reference_degeneration(SMALL_INT)
    assert count == ref_count

    def split(lines):
        """The lines of the triples through the stray, and the others."""
        ours = [line for line in lines if line.split(": ", 1)[0] in through]
        return ours, [line for line in lines if line not in ours]

    assert str(outside) == "-9:2"
    assert split(cex)[0] == sorted(
        f"{prefix}: trace failed: chain member -9:2 lies outside the universe" for prefix in through)
    assert split(cex)[1] == split(ref_cex)[1]
    assert list(findings) == split(ref_findings)[1]


def test_a_dual_chain_that_does_not_degenerate_is_a_finding_as_by_the_reference(monkeypatch):
    # Honest chains yield no finding.  From E_1 = O(-1) toward Q = O(2) the chain detours
    # through O(-2), and dual(O(-1)) = O(1) does not dominate dual(O(-2)) = O(2).
    detour = degeneration.decompose_mrs(B("-1"), B("2"))
    original = degeneration._next_member
    monkeypatch.setattr(degeneration, "_next_member",
                        lambda step: B("-2") if step == detour else original(step))
    outcome = _degeneration_outcome(verify_degeneration(SMALL_INT))
    assert outcome == _reference_degeneration(SMALL_INT)
    findings = outcome[2]
    assert len(findings) == 7
    assert all(line.startswith("E=0,-1 ") and " Q=2: " in line
               and line.endswith(": dual chain not degenerating at step 1") for line in findings)


def _q_reached_by_chains_of_different_lengths():
    """SMALL_INT's reduced triples, and a nonzero Q that chains of different lengths reach."""
    triples = list(admissible_triples(SMALL_INT, REDUCED_CONDITIONS))
    chains = {(e, q): degeneration_trace(e, f, q).chain for e, f, q in triples}
    q0 = next(q for _, q in chains if not q.is_zero
              and len({len(chain) for (_, q2), chain in chains.items() if q2 == q}) > 1)
    return triples, q0


def test_a_faulty_shared_step_is_labelled_by_each_chain(monkeypatch):
    _, q0 = _q_reached_by_chains_of_different_lengths()
    original = degeneration.decompose_mrs

    def faulty(e_i, q):
        # M = 0 and S = R = dual(Q) reassemble the duals but break the vanishing and mu_max rules.
        if (e_i, q) == (q0, q0):
            return DecompositionTriple(ZERO, q0.dual(), q0.dual())
        return original(e_i, q)

    monkeypatch.setattr(degeneration, "decompose_mrs", faulty)
    outcome = _degeneration_outcome(verify_degeneration(SMALL_INT))
    assert outcome == _reference_degeneration(SMALL_INT)
    labels = {line.split(": ")[1] for line in outcome[1] if "complement vanishing" in line}
    assert len(labels) > 1


def test_a_shared_step_that_raises_fails_every_chain_to_its_q(monkeypatch):
    # The raising step is kept by no table, so every chain that reaches it asks it again.
    triples, q0 = _q_reached_by_chains_of_different_lengths()
    original = degeneration.decompose_mrs

    def raising(e_i, q):
        if (e_i, q) == (q0, q0):
            raise InternalConsistencyError("injected")
        return original(e_i, q)

    monkeypatch.setattr(degeneration, "decompose_mrs", raising)
    outcome = _degeneration_outcome(verify_degeneration(SMALL_INT))
    assert outcome == _reference_degeneration(SMALL_INT)
    failed = {line for line in outcome[1] if line.endswith(": trace failed: injected")}
    assert failed == {f"E={e} F={f} Q={q0}: trace failed: injected"
                      for e, f, q in triples if q == q0}
    assert len(failed) > 1


def test_a_step_the_engine_refuses_to_leave_reports_its_own_problems(monkeypatch):
    triples = list(admissible_triples(SMALL_INT, REDUCED_CONDITIONS))
    chains = {(e, f, q): degeneration_trace(e, f, q).chain for e, f, q in triples}
    member, q0 = next((chain[2], q) for (_, _, q), chain in chains.items() if len(chain) > 3)
    original = degeneration.decompose_mrs

    def faulty(e_i, q):
        # Does not reassemble the duals, and the engine refuses to step on from it:
        # S = O(-1) does not dominate R = O(1).
        if (e_i, q) == (member, q0):
            return DecompositionTriple(ZERO, B("1"), B("-1"))
        return original(e_i, q)

    monkeypatch.setattr(degeneration, "decompose_mrs", faulty)
    through = {(e, f, q): chain.index(member) for (e, f, q), chain in chains.items()
               if q == q0 and member in chain[1:]}
    assert len(through) > 1
    report = verify_degeneration(SMALL_INT)
    assert set(report.counterexamples) == {
        f"E={e} F={f} Q={q}: step {i}: decomposition does not reassemble the duals"
        for (e, f, q), i in through.items()}
    assert report.findings == ()
    # The reference trace stops inside the engine, which names only its own refusal.
    _, cex, _ = _reference_degeneration(SMALL_INT)
    assert set(cex) == {f"E={e} F={f} Q={q}: trace failed: -1 does not slopewise dominate 1"
                        for e, f, q in through}


STALL = "codimension stalled without the rank equality"


def _stalled_steps():
    """SMALL_INT's (member, Q) at which some reduced triple's codimension stalls, member != Q."""
    stalled = set()
    for e, f, q in admissible_triples(SMALL_INT, REDUCED_CONDITIONS):
        trace = degeneration_trace(e, f, q)
        c, chain = trace.c_values, trace.chain
        stalled.update((chain[i], q) for i in range(1, trace.terminated_at)
                       if c[i] == c[i + 1] and chain[i] != q)
    return stalled


def _inject_at_stalls(monkeypatch, fault):
    """Decompose each stalled step as ``fault(decomposition)``; every chain still moves on as before."""
    stalled = _stalled_steps()
    assert stalled
    decompose_mrs, next_member = degeneration.decompose_mrs, degeneration._next_member
    originals = {}  # id of an injected decomposition -> (it, the engine's own)

    def faulty(e_i, q):
        triple = decompose_mrs(e_i, q)
        if (e_i, q) not in stalled:
            return triple
        injected = fault(triple)
        originals[id(injected)] = injected, triple
        return injected

    def advance(triple):
        return next_member(originals.get(id(triple), (None, triple))[1])

    monkeypatch.setattr(degeneration, "decompose_mrs", faulty)
    monkeypatch.setattr(degeneration, "_next_member", advance)


def test_a_stall_without_the_rank_equality_is_reported_as_by_the_reference(monkeypatch):
    # With the engine's decompositions the stall rule never reports.  M = 0, R = dual(Q) and
    # S = dual(member) still reassemble the duals, but give S another rank and top slope.
    _inject_at_stalls(monkeypatch, lambda triple: DecompositionTriple(
        ZERO, triple.common.direct_sum(triple.q_complement),
        triple.common.direct_sum(triple.e_complement)))
    outcome = _degeneration_outcome(verify_degeneration(SMALL_INT))
    assert outcome == _reference_degeneration(SMALL_INT)
    flagged = set()
    for e, f, q in admissible_triples(SMALL_INT, REDUCED_CONDITIONS):
        bad, _ = _reference_trace_problems(e, f, q, degeneration_trace(e, f, q))
        flagged.update(f"E={e} F={f} Q={q}: {item}" for item in bad if item.endswith(STALL))
    assert {line for line in outcome[1] if line.endswith(STALL)} == flagged
    assert len(flagged) > 1


def test_a_zero_s_at_a_stalled_member_raises_as_reading_its_dual_does(monkeypatch):
    _inject_at_stalls(monkeypatch, lambda triple: replace(triple, e_complement=ZERO))
    for run in (_reference_degeneration, verify_degeneration):
        with pytest.raises(PreconditionError, match="mu_min of the zero bundle is undefined"):
            run(SMALL_INT)


def test_the_degeneration_check_filters_no_bundle(monkeypatch):
    calls = []
    filter_ = HNBundle.filter
    monkeypatch.setattr(HNBundle, "filter",
                        lambda self, mu, mode: calls.append((self, mu, mode)) or filter_(self, mu, mode))
    assert B("1,-1").filter(0, ">") == B("1") and len(calls) == 1
    calls.clear()
    assert verify_degeneration(SMALL_INT).passed
    assert calls == []


def _reference_step_slope_problems(m, rr, s):
    """The slope rules of one chain step on its decomposition, read through Fraction slopes."""
    bad = []
    if not s.is_zero and not s.mu_max > rr.mu_max:  # raises when S is nonzero and R is zero
        bad.append("mu_max(S) <= mu_max(R)")
    if not m.is_zero and not s.is_zero and not m.mu_min >= s.mu_max:
        bad.append("mu_min(M) < mu_max(S)")
    return bad


def test_a_chain_step_compares_slopes_as_fractions_do(monkeypatch):
    # Any decomposition (M, R, S) that reassembles the duals of Q = dual(M + R) and
    # member = dual(M + S), fractional slopes and zero parts included.
    parts = list(enumerate_bundles(TINY, include_zero=True)) + [B("1/2"), B("-1/2,-3/2")]
    faults = {}
    monkeypatch.setattr(degeneration, "decompose_mrs", lambda member, q: faults[member, q])
    monkeypatch.setattr(degeneration, "_next_member", lambda triple: ZERO)
    checked = raised = 0
    for m, rr, s in itertools.product(parts, repeat=3):
        q, member = m.direct_sum(rr).dual(), m.direct_sum(s).dual()
        faults[member, q] = DecompositionTriple(m, rr, s)
        try:
            expected = _reference_step_slope_problems(m, rr, s)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError, match=str(exc)):
                verify._chain_step(member, q, lambda bundle: 0)
            raised += 1
            continue
        problems = verify._chain_step(member, q, lambda bundle: 0).problems
        assert [p for p in problems if p.startswith("mu_")] == expected
        checked += 1
    assert checked and raised


# ----------------------------------------------------------------------
# the one prefix split of a chain step, against the two dual polygons read unit by unit

def _unit_slopes(v):
    """The slope of each unit step of v's HN polygon, left to right: rank(v) slopes."""
    return [lam for lam, mult in v.summands for _ in range(lam.denominator * mult)]


def _bundle_of_units(units):
    """The bundle whose HN polygon takes these unit steps; a slope p/q takes a multiple of q."""
    counts = Counter(units)
    assert all(n % lam.denominator == 0 for lam, n in counts.items())
    return canonicalize([(lam, n // lam.denominator) for lam, n in counts.items()])


def _reference_prefix_split(a, b):
    """(M, A - M, B - M): the longest run of equal unit slopes that starts both polygons, and the rest."""
    mine, theirs = _unit_slopes(a), _unit_slopes(b)
    n = 0
    while n < min(len(mine), len(theirs)) and mine[n] == theirs[n]:
        n += 1
    return _bundle_of_units(mine[:n]), _bundle_of_units(mine[n:]), _bundle_of_units(theirs[n:])


@pytest.mark.parametrize("spec", [SMALL_INT, PAIR_UNIVERSE], ids=["SMALL_INT", "denominators_2"])
def test_the_prefix_split_matches_the_unit_polygons_on_every_chain_step(monkeypatch, spec):
    decompose_mrs, stepped = degeneration.decompose_mrs, {}

    def recording(e_i, q):
        stepped[e_i, q] = decompose_mrs(e_i, q)
        return stepped[e_i, q]

    monkeypatch.setattr(degeneration, "decompose_mrs", recording)
    assert verify_degeneration(spec).passed
    assert len(stepped) > 50
    for (member, q), triple in stepped.items():
        assert ((triple.common, triple.q_complement, triple.e_complement)
                == _reference_prefix_split(q.dual(), member.dual()))


def test_the_prefix_split_matches_the_unit_polygons_on_fractional_pairs():
    # Slopes such as 1/2 and -3/2 are rank-2 summands: M never ends inside one.
    pool = list(enumerate_bundles(SMALL, include_zero=True))
    assert any(not v.has_integer_slopes() for v in pool)
    for a, b in itertools.product(pool, repeat=2):
        expected = _reference_prefix_split(a, b)
        assert tuple(map(bundle._trusted, criteria._prefix_split(a._key, b._key))) == expected
        assert criteria.hn_common_prefix(a, b) == expected[0]


def test_decompose_mrs_keeps_its_error_texts(monkeypatch):
    with pytest.raises(PreconditionError, match=r"^rank mismatch: rank\(-1\) != rank\(-1,-2\)$"):
        degeneration.decompose_mrs(B("-1"), B("-1,-2"))
    with pytest.raises(PreconditionError,
                       match=r"^dual\(-1\) does not slopewise dominate dual\(-2\)$"):
        degeneration.decompose_mrs(B("-1"), B("-2"))
    # A split that leaves a complement empty although the two bundles differ.
    monkeypatch.setattr(degeneration, "_prefix_split", lambda a, b: ((), a, ()))
    with pytest.raises(InternalConsistencyError,
                       match=r"^distinct bundles -2, -1 produced an empty complement$"):
        degeneration.decompose_mrs(B("-2"), B("-1"))


def test_a_split_that_gives_m_one_unit_too_many_fails_the_check(monkeypatch):
    split = degeneration._prefix_split

    def one_too_many(a, b):
        common, a_rest, b_rest = split(a, b)
        if common:  # one more O(p) at M's last shared slope p, an integer on this universe
            p, q, m = common[-1]
            common = (*common[:-1], (p, q, m + 1))
        return common, a_rest, b_rest

    assert verify_degeneration(SMALL_INT).passed
    monkeypatch.setattr(degeneration, "_prefix_split", one_too_many)
    report = verify_degeneration(SMALL_INT)
    assert not report.passed
    assert any(line.endswith("decomposition does not reassemble the duals")
               for line in report.counterexamples)


def test_a_chain_step_builds_its_three_parts_and_the_next_member_only(monkeypatch):
    # Over the check's body: M, R and S per decomposition, the next member per step that
    # moves on, E_1 alone per E, and the dual of a pool member at most once per member;
    # no dual of a bundle built for one step.  No bundle is hashed or compared.
    universe = verify.Universe(SMALL_INT)
    monkeypatch.setattr(verify, "deg_nonneg",  # no memo, no hashing
                        lambda v, w: degrees._degree.__wrapped__(v._key, w._key))
    built, calls, peels = [], Counter(), []
    settle = bundle._settle
    monkeypatch.setattr(bundle, "_settle", lambda *args: built.append(args[1]) or settle(*args))

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("decompose_mrs", "_next_member"):
        counting(degeneration, name)
    for module in (degeneration, verify):
        counting(module, "slopewise_dominates")
    build_e1 = degeneration.build_e1

    def peel(e):
        before = len(built)
        e1 = build_e1(e)
        peels.append(len(built) - before)
        return e1

    monkeypatch.setattr(degeneration, "build_e1", peel)
    dual, dualized = HNBundle.dual, []
    monkeypatch.setattr(HNBundle, "dual", lambda self: (
        self._dual is None and dualized.append(self)) or dual(self))
    for name in ("__eq__", "__hash__"):
        counting(HNBundle, name)
    _, counterexamples, findings = verify.CHECKS["degeneration"][0](universe)
    assert not counterexamples and not findings
    decomposed, advanced = calls["decompose_mrs"], calls["_next_member"]
    assert decomposed > advanced > 0 and set(peels) == {1}
    pool = {id(v) for v in universe.pool}
    assert 0 < len({id(v) for v in dualized}) == len(dualized)
    assert all(id(v) in pool for v in dualized)
    # Zero is its own dual, so dualizing it builds nothing.
    assert len(built) == 3 * decomposed + advanced + sum(peels) + sum(1 for v in dualized if v._key)
    # One ask in decompose_mrs, S against R, and per step that moves on the reduction's own;
    # the degenerating flags are read off the dual relation, not asked.
    assert calls["slopewise_dominates"] == 2 * decomposed + advanced
    assert calls["__eq__"] == calls["__hash__"] == 0


# ----------------------------------------------------------------------
# which deg_nonneg values each triple check reads

def _patch_deg_nonneg(monkeypatch, fn):
    # c_value, stratum_dim and dim_hom read it from degrees; verify's tables read it from verify.
    monkeypatch.setattr(degrees, "deg_nonneg", fn)
    monkeypatch.setattr(verify, "deg_nonneg", fn)


def _counting_deg_nonneg(monkeypatch):
    calls = Counter()
    original = degrees.deg_nonneg

    def counting(v, w):
        calls[v, w] += 1
        return original(v, w)

    _patch_deg_nonneg(monkeypatch, counting)
    return calls


def _once_each(*roles):
    """Each distinct pair once, in whatever roles it is read: the reads of a check that looks every value up once."""
    return Counter(set().union(*roles))


def _lines(pool):
    """O(s) for every slope s of the pool: the lanes read each row through them."""
    return [stable(s) for s in {s for v in pool for s in v.slopes()}]


def _lane_degree_reads(*names):
    """What the lane route of the named checks asks of deg_nonneg in one run on SMALL_INT.

    Returns (rows, cells).  ``rows`` counts the asks of the lane rows: deg_nonneg(Q, Q) once per
    pool member, for the diagonal, and, over the slopes s of the pool, deg_nonneg(O(s), F) once
    per F and deg_nonneg(E, O(s)) once per E of a nonempty group of any of the checks.
    ``cells`` is the set of those (E, F), whose deg_nonneg(E, F) the per-cell table ``degrees``
    is asked once each.  The tables are separate, so a pair read in two roles is asked twice.
    """
    universe = verify.Universe(SMALL_INT)
    pool = universe.pool
    pairs = {(pool[ei], pool[fi]) for name in names
             for ei, fi, group in verify._lane_groups(universe, ASKED_CONDITIONS[name]) if group}
    lines = _lines(pool)
    rows = (Counter((q, q) for q in pool)
            + Counter((line, f) for f in {f for _, f in pairs} for line in lines)
            + Counter((e, line) for e in {e for e, _ in pairs} for line in lines))
    return rows, pairs


def _lane_degree_asks(name):
    rows, cells = _lane_degree_reads(name)
    return rows + Counter(cells)


def _degeneration_degree_reads():
    triples = list(admissible_triples(SMALL_INT, REDUCED_CONDITIONS))
    chains = {(e, q): degeneration_trace(e, f, q).chain for e, f, q in triples}
    # Every member V of a chain, E and Q included, is read into F and into Q.
    into_f = [(v, f) for e, f, q in triples for v in chains[e, q]]
    assert len(set(into_f)) < len(into_f)
    return _once_each(into_f, [(v, q) for (e, q), chain in chains.items() for v in chain])


DEGREE_READS = {
    "key-inequality": partial(_lane_degree_asks, "key-inequality"),
    "degeneration": _degeneration_degree_reads,
    "stratification": partial(_lane_degree_asks, "stratification"),
}


def test_key_inequality_reads_each_pair_once(monkeypatch):
    # Each row and each cell is one table entry, so each of its deg_nonneg reads is asked once,
    # and far fewer than the four per triple of the per-triple route.
    expected = _lane_degree_asks("key-inequality")
    assert sum(expected.values()) < len(list(admissible_triples(SMALL_INT, GENERAL_CONDITIONS)))
    calls = _counting_deg_nonneg(monkeypatch)
    assert verify_key_inequality(SMALL_INT).passed
    assert calls == expected


def test_degeneration_reads_each_pair_once(monkeypatch):
    expected = _degeneration_degree_reads()
    calls = _counting_deg_nonneg(monkeypatch)
    assert verify_degeneration(SMALL_INT).passed
    assert calls == expected


def test_stratification_reads_each_pair_once(monkeypatch):
    expected = _lane_degree_asks("stratification")
    calls = _counting_deg_nonneg(monkeypatch)
    assert verify_stratification_dimension(SMALL_INT).passed
    assert calls == expected


# ----------------------------------------------------------------------
# (i), (ii) and (iii) are bits of the universe's two dominance relations, never asked

def _counting_relation_builds(monkeypatch):
    """Record the keys of every dominance relation a universe builds."""
    built = []
    dominators = verify.dominators

    def counting(keys):
        built.append(list(keys))
        return dominators(keys)

    monkeypatch.setattr(verify, "dominators", counting)
    return built


def _refuse_dominance_asks(monkeypatch):
    """Make every one-pair route to dominance raise: the stream must read the relations instead."""
    def refused(*args):
        raise AssertionError(f"dominance asked of {args}")

    for module in (criteria, degeneration, verify):
        for name in ("slopewise_dominates", "is_quotient"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)


@pytest.mark.parametrize("name", ["key-inequality", "degeneration", "stratification"])
def test_each_image_verdict_is_computed_once_per_call(monkeypatch, name):
    # Every (i), (ii) and (iii) verdict is one bit of the two relations, which a call builds
    # once each, over the pool's keys and over its duals' keys.
    expected = _outcome(run_checks([name], SMALL_INT)[0])
    built = _counting_relation_builds(monkeypatch)
    if name != "degeneration":
        # Only the degeneration chains ask dominance one pair at a time.
        _refuse_dominance_asks(monkeypatch)
    assert _outcome(run_checks([name], SMALL_INT)[0]) == expected
    pool = verify.bundle_pool(SMALL_INT)
    assert built == [[v._key for v in pool], [v.dual()._key for v in pool]]


def _outcome(report):
    return report.property_name, report.instances_checked, report.counterexamples, report.findings


def test_one_run_shares_its_universe_between_the_triple_checks(monkeypatch):
    names = list(DEGREE_READS)
    alone = {name: _outcome(run_checks([name], SMALL_INT)[0]) for name in names}
    # The two lane checks share the lane tables, and all three share the per-cell table, so a
    # cell that a lane check and degeneration both read is asked once.
    rows, cells = _lane_degree_reads("key-inequality", "stratification")
    assert sum(rows.values()) + len(cells) < sum(sum(DEGREE_READS[name]().values())
                                                 for name in ("key-inequality", "stratification"))
    degree_reads = rows + Counter(cells | set(DEGREE_READS["degeneration"]()))
    enumerate_bundles = verify.enumerate_bundles
    for order in itertools.permutations(names):
        enumerated = []
        monkeypatch.setattr(verify, "enumerate_bundles", lambda *args, **kwargs: (
            enumerated.append(args) or enumerate_bundles(*args, **kwargs)))
        degree_calls = _counting_deg_nonneg(monkeypatch)
        built = _counting_relation_builds(monkeypatch)
        reports = run_checks(order, SMALL_INT)
        monkeypatch.undo()
        assert len(enumerated) == 1
        assert degree_calls == degree_reads
        # The dominance relation over the pool and the one over its duals, once each.
        assert len(built) == 2
        assert [_outcome(report) for report in reports] == [alone[name] for name in order]


def test_a_universe_is_freed_without_the_cycle_collector():
    # Its tables' fills close over its parts, never over the Universe, so refcounting frees it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        universe = verify.Universe(SMALL_INT)
        for name in DEGREE_READS:
            _, counterexamples, _ = verify.CHECKS[name][0](universe)
            assert not counterexamples
        assert universe.steps
        freed = weakref.ref(universe)
        del universe
        assert freed() is None
    finally:
        if collecting:
            gc.enable()


def test_a_chain_step_keeps_no_decomposition(monkeypatch):
    # The universe stays alive, so only its steps could hold a decomposition.
    decompose_mrs, made = degeneration.decompose_mrs, []

    def recording(e_i, q):
        triple = decompose_mrs(e_i, q)
        made.append(weakref.ref(triple))
        return triple

    monkeypatch.setattr(degeneration, "decompose_mrs", recording)
    universe = verify.Universe(SMALL_INT)
    _, counterexamples, _ = verify.CHECKS["degeneration"][0](universe)
    assert not counterexamples and universe.steps
    gc.collect()
    assert made and all(ref() is None for ref in made)


# ----------------------------------------------------------------------
# the stream asks no condition of a pair: it reads (iv), (v) and (vi) in bulk, and asks only
# the conditions on E, once per E

def _asks_of_e_refusing_pairs(monkeypatch):
    """Count each condition's asks by their one bundle; an ask of two bundles raises."""
    calls = Counter()

    def counting(condition):
        def test(*bundles):
            if len(bundles) > 1:
                raise AssertionError(f"{condition.name} asked of {bundles}")
            calls[condition.name, bundles[0]] += 1
            return condition.test(*bundles)

        return condition._replace(test=test)

    for name in ("GENERAL_CONDITIONS", "REDUCED_CONDITIONS"):
        groups = getattr(verify, name)
        monkeypatch.setattr(verify, name, type(groups)(*(tuple(map(counting, group))
                                                         for group in groups)))
    monkeypatch.setattr(verify, "PAIR_CONDITIONS", tuple(map(counting, verify.PAIR_CONDITIONS)))
    return calls


def _expected_asks_of_e(conditions):
    """Each E's asks, in entry order up to the first condition that fails."""
    asks = Counter()
    for e in enumerate_bundles(SMALL_INT, include_zero=True):
        for c in conditions.on_e:
            asks[c.name, e] += 1
            if not c.test(e):
                break
    return asks


ASKED_CONDITIONS = {
    "key-inequality": GENERAL_CONDITIONS,
    "degeneration": REDUCED_CONDITIONS,
    "stratification": ConditionSet((), PAIR_CONDITIONS, ()),
}


@pytest.mark.parametrize("name", list(ASKED_CONDITIONS))
def test_the_stream_asks_no_pair_and_each_e_condition_once_per_e(monkeypatch, name):
    expected = _outcome(run_checks([name], SMALL_INT)[0])
    calls = _asks_of_e_refusing_pairs(monkeypatch)
    assert _outcome(run_checks([name], SMALL_INT)[0]) == expected
    assert calls == _expected_asks_of_e(ASKED_CONDITIONS[name])
    assert set(calls.values()) <= {1}
    # Degeneration asks (vii) of every E and (vi) of the E that pass it; the others ask none.
    assert bool(calls) == (name == "degeneration")


def test_a_pair_condition_without_a_bulk_form_is_refused():
    bare = degeneration.Condition("(x)", "anything", lambda e, f: True)
    with pytest.raises(ValueError, match=r"condition \(x\) has no bulk form"):
        next(verify._lane_groups(verify.Universe(TINY), ConditionSet((), (bare,), ())))


def test_dominance_keeps_no_memo_across_the_triple_checks():
    # The stream reads dominance off the universe's relations and the chains ask theirs
    # once per step, so a memo would only hold its keys; the wrapper is a zero-size
    # lru_cache, which keeps none.
    slopewise_dominates.cache_clear()
    reports = run_checks(["key-inequality", "degeneration", "stratification"], SMALL_INT)
    assert all(report.passed for report in reports)
    info = slopewise_dominates.cache_info()
    assert info.misses > 0
    assert (info.currsize, info.hits) == (0, 0)


# ----------------------------------------------------------------------
# the relations keep the stream of a scan that asks every condition

TRIPLES_SHAPED = UniverseSpec(max_rank=4, slope_min=-2, slope_max=2, max_denominator=1)
RANK_5 = UniverseSpec(max_rank=5, slope_min=-3, slope_max=3, max_denominator=1)


def _scanned_groups(universe, conditions, limit=None):
    """The stream as a plain scan of every F in pool order, asking (i), (ii) and (iii) too."""
    pool = universe.pool
    by_rank = sorted(range(len(pool)), key=lambda i: pool[i].rank)
    remaining = limit
    for ei, e in enumerate(pool):
        if not all(c.test(e) for c in conditions.on_e):
            continue
        quotients = [qi for qi in by_rank if is_quotient(pool[qi], e)
                     and all(c.test(e, pool[qi]) for c in conditions.on_quotient)]
        for fi, f in enumerate(pool):
            if not (slopewise_dominates(f, e) and all(c.test(e, f) for c in conditions.on_pair)):
                continue
            group = [qi for qi in quotients if slopewise_dominates(f, pool[qi])]
            if remaining is not None:
                group = group[:remaining]
                remaining -= len(group)
            yield ei, fi, group
            if remaining == 0:
                return


@pytest.mark.parametrize("spec", [SMALL_INT, TRIPLES_SHAPED], ids=["small-int", "triples"])
@pytest.mark.parametrize("name", list(ASKED_CONDITIONS))
def test_the_relations_keep_the_stream(spec, name):
    # The stream holds the scan's groups as lane masks: with each group's Q in rank order, a
    # sample's cut falls where the scan's does.
    universe = verify.Universe(spec)
    pool, positions = universe.pool, universe.lanes.positions
    conditions = ASKED_CONDITIONS[name]
    for limit in (None, 1, 7, 100):
        streamed = [(ei, fi, sorted(positions(group), key=lambda qi: pool[qi].rank))
                    for ei, fi, group in verify._lane_groups(universe, conditions, limit)]
        assert streamed == list(_scanned_groups(universe, conditions, limit))


def test_the_relations_keep_the_rank_5_pairs():
    # One universe and one plain scan per distinct pair group keep this test to a few seconds.
    universe = verify.Universe(RANK_5)
    pool = universe.pool
    scanned = {}
    for conditions in ASKED_CONDITIONS.values():
        groups = conditions.on_e, conditions.on_pair
        if groups not in scanned:
            scanned[groups] = [
                (ei, fi) for ei, e in enumerate(pool) if all(c.test(e) for c in conditions.on_e)
                for fi, f in enumerate(pool)
                if slopewise_dominates(f, e) and all(c.test(e, f) for c in conditions.on_pair)]
        streamed = [(ei, fi) for ei, fi, _ in verify._lane_groups(universe, conditions)]
        assert streamed == scanned[groups]


# ----------------------------------------------------------------------
# duals across universes, and a pool that is not closed under duals

ASYMMETRIC = UniverseSpec(max_rank=4, slope_min=-3, slope_max=1, max_denominator=1)


def test_linked_duals_stay_an_involution_across_universes():
    first, second = verify.Universe(TRIPLES_SHAPED), verify.Universe(TRIPLES_SHAPED)
    # The second pool is built anew, but for the shared ZERO, and no dual crosses between pools.
    assert first.pool[1] is not second.pool[1]
    for v in (*first.pool, *second.pool, ZERO):
        assert v.dual().dual() is v
    assert all(v.dual() is not w for v in second.pool[1:] for w in first.pool)


def test_an_asymmetric_pool_keeps_the_triple_reports():
    reports = run_checks(["key-inequality", "degeneration", "stratification"], ASYMMETRIC)
    assert [_outcome(report) for report in reports] == [
        ("key-inequality", 14683, (), ()), ("degeneration", 2055, (), ()),
        ("stratification", 1167, (), ())]


# ----------------------------------------------------------------------
# the dominance relations against the fast route

FRACTIONAL_ASYMMETRIC = UniverseSpec(max_rank=4, slope_min=-1, slope_max=3, max_denominator=2)


@pytest.mark.parametrize("spec", [TINY, SMALL_INT, PAIR_UNIVERSE, ASYMMETRIC, FRACTIONAL_ASYMMETRIC],
                         ids=["tiny", "small-int", "pair", "asymmetric", "fractional-asymmetric"])
def test_the_dominance_relations_agree_with_the_fast_route(spec):
    universe = verify.Universe(spec)
    pool = universe.pool
    assert pool[0] is ZERO
    size = len(pool)
    for low, high in itertools.product(range(size), repeat=2):
        e, f = pool[low], pool[high]
        assert (universe.dominators[low] >> high & 1) == slopewise_dominates(f, e), (f, e)
        assert (universe.dual_dominators[low] >> high & 1) == is_quotient(e, f), (e, f)
    for i in range(size):
        for relation, flags in ((universe.dominators, universe.dominator_flags),
                                (universe.dual_dominators, universe.dual_dominator_flags)):
            assert flags[i] == bytes(relation[i] >> u & 1 for u in range(size))


@pytest.mark.parametrize("spec", [SMALL_INT, PAIR_UNIVERSE, DENOMINATOR_3],
                         ids=["small-int", "pair", "denominators-3"])
def test_each_bulk_form_agrees_with_its_condition(spec):
    universe = verify.Universe(spec)
    pool = universe.pool
    (no_common_slopes,) = PAIR_CONDITIONS
    (smaller_rank,) = GENERAL_CONDITIONS.on_quotient
    one_rank_less, integer_slopes = REDUCED_CONDITIONS.on_quotient
    for ei, e in enumerate(pool):
        assert (universe.integral >> ei & 1) == integer_slopes.test(e), e
        assert (integer_slopes.admits(universe, ei) >> ei & 1) == integer_slopes.test(e), e
        admitted = no_common_slopes.admits(universe, ei)
        for fi, f in enumerate(pool):
            shares = not no_common_slopes.test(e, f)
            assert (universe.sharing[ei] >> fi & 1) == shares, (e, f)
            assert (admitted >> fi & 1) != shares, (e, f)
            for condition in (smaller_rank, one_rank_less):
                assert (f.rank in condition.ranks(e.rank)) == condition.test(e, f), (
                    condition.requirement, e, f)


def _lane_reads(name):
    """Each (E, F) of a lane check, by its lines' prefix: the deg_nonneg pairs its rows read.

    Its group reads the diagonal at each candidate Q, the row deg_nonneg(., F) through the
    lines O(s) and the row deg_nonneg(E, .) through them too.
    """
    pool = verify.bundle_pool(SMALL_INT)
    if name == "key-inequality":
        groups = {}
        for e, f, q in admissible_triples(SMALL_INT, GENERAL_CONDITIONS):
            groups.setdefault((e, f), []).append(q)
    else:
        groups = {(e, f): _candidate_images(pool, e, f) for e, f in _stratification_pairs(pool)}
    lines = _lines(pool)
    return {f"E={e} F={f}": ({(q, q) for q in qs} | {(line, f) for line in lines}
                             | {(e, line) for line in lines})
            for (e, f), qs in groups.items()}


def _degeneration_reads():
    reads = {}
    for e, f, q in admissible_triples(SMALL_INT, REDUCED_CONDITIONS):
        chain = degeneration_trace(e, f, q).chain
        reads[f"E={e} F={f} Q={q}"] = ({(q, f), (q, q)} | {(m, f) for m in chain}
                                       | {(m, q) for m in chain})
    return reads


FAULTS = {
    # check -> (the deg_nonneg pairs each instance reads, by the prefix of its lines, the
    # per-instance reference, and the sign of a fault that every such read turns into a
    # counterexample)
    "key-inequality": (partial(_lane_reads, "key-inequality"), _reference_key_inequality, 1),
    "degeneration": (_degeneration_reads, _reference_degeneration, 1),
    "stratification": (partial(_lane_reads, "stratification"), _reference_stratification, -1),
}


def _prefix(line, width):
    return " ".join(line.split(": ", 1)[0].split()[:width])


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_wrong_degree_is_reported_by_every_instance_that_reads_it(monkeypatch, name):
    reads_of, reference, sign = FAULTS[name]
    if name == "degeneration":
        # A (Q, F) of a reduced triple that share a slope, with rank(F) > rank(Q).  Sharing a
        # slope keeps it from being an admissible pair (E, F), and the ranks keep it from being
        # read as deg(E, Q) or deg(Q, Q): each remaining read lowers a codimension.
        v0, w0 = next((q, f) for _, f, q in admissible_triples(SMALL_INT, REDUCED_CONDITIONS)
                      if not q.is_zero and f.rank > q.rank
                      and not q.slope_pairs.isdisjoint(f.slope_pairs))
        width = 3
    else:
        # A line O(s) into an F0 of rank 2 with slope s, so F0 is no line and no E of a pair
        # with F0 has slope s: only the row deg_nonneg(., F0) reads the pair, which the fault
        # pushes out of [0, cap], so every group of F0 reruns one triple at a time, and the
        # rerun reads the moved cell at Q = O(s).
        w0 = next(f for _, f, _ in admissible_triples(SMALL_INT, GENERAL_CONDITIONS) if f.rank >= 2)
        v0 = stable(w0.mu_max)
        width = 2
    reads = reads_of()
    readers = {instance for instance, pairs in reads.items() if (v0, w0) in pairs}
    assert 0 < len(readers) < len(reads)

    original = degrees.deg_nonneg

    def faulty(v, w):
        return original(v, w) + (sign * 10**6 if (v, w) == (v0, w0) else 0)

    _patch_deg_nonneg(monkeypatch, faulty)
    report = run_checks([name], SMALL_INT)[0]
    assert {_prefix(line, width) for line in report.counterexamples} == readers
    count, lines = reference(SMALL_INT)[:2]
    if name != "degeneration":
        # The per-triple route reads the pair at Q = O(s) alone, so a rerun group without it
        # passes there and is reported as a group the two routes disagree on.
        assert lines
        lines = tuple(sorted([*lines, *(
            f"{prefix}: the lane route fails this group, the per-triple route passes it"
            for prefix in readers - {_prefix(line, 2) for line in lines})]))
    assert (report.instances_checked, report.counterexamples) == (count, lines)
    if name == "stratification":
        assert any("stratum dimension formula gave" in line for line in report.counterexamples)


# ----------------------------------------------------------------------
# where the stream asks condition (vi), and a pair the stream gives no candidate

def test_integer_slopes_are_asked_of_one_bundle_at_a_time(monkeypatch):
    arities = Counter()

    def counting(condition):
        if condition.name != "(vi)":
            return condition

        def test(*bundles):
            arities[len(bundles)] += 1
            return condition.test(*bundles)

        return condition._replace(test=test)

    groups = verify.REDUCED_CONDITIONS
    monkeypatch.setattr(verify, "REDUCED_CONDITIONS",
                        type(groups)(*(tuple(map(counting, group)) for group in groups)))
    assert verify_degeneration(SMALL_INT).passed
    assert arities and 3 not in arities


def test_a_condition_failing_on_each_bundle_is_named_once():
    e, f, q = B("0,-1/2:2"), B("1/2:2"), B("-1/2:2")
    assert not any(v.has_integer_slopes() for v in (e, f, q))
    names = [name for name, _ in reduced_violations(e, f, q)]
    assert names.count("(vi)") == 1


def test_stratification_counts_a_pair_without_a_candidate():
    # With the dual relation emptied, (ii) admits no Q, so no pair of the stream has a candidate.
    universe = verify.Universe(SMALL_INT)
    universe.dual_dominators[:] = [0] * len(universe.pool)
    pairs = _stratification_pairs(list(enumerate_bundles(SMALL_INT, include_zero=True)))
    count, counterexamples, _ = verify.CHECKS["stratification"][0](universe)
    assert count == len(pairs) > 0
    assert sorted(counterexamples) == sorted(
        f"E={e} F={f}: top stratum None != dim hom {dim_hom(e, f)}" for e, f in pairs)


# ----------------------------------------------------------------------
# sampled runs: memory and which instances they check

@pytest.mark.parametrize("name", ["degeneration", "key-inequality", "stratification"])
def test_a_sampled_triple_check_makes_rows_only_for_the_f_it_reads(name):
    # 1,716 pool bundles: one full pool-by-pool table of cells is 1,716^2 * 8 bytes = 23.6 MB,
    # and a byte per pair of either relation 2.9 MB.
    spec = UniverseSpec(max_rank=6, slope_min=-3, slope_max=3, max_denominator=1, sample_limit=10)
    assert len(verify.bundle_pool(spec)) == 1716
    tracemalloc.start()
    try:
        (report,) = run_checks([name], spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.instances_checked == 10
    assert peak < 8_000_000, f"{peak / 1e6:.1f} MB traced"


def test_stratification_samples_the_first_pairs_with_their_whole_groups(monkeypatch):
    calls = []
    stream, stratum = verify._lane_groups, verify.stratum_dimension

    def pairs(*args):
        for ei, fi, group in stream(*args):
            calls.append(("pair", ei, fi, group))
            yield ei, fi, group

    def strata(*degrees):
        calls.append(("stratum", *degrees))
        return stratum(*degrees)

    monkeypatch.setattr(verify, "_lane_groups", pairs)
    monkeypatch.setattr(verify, "stratum_dimension", strata)
    samples = 100
    assert verify_stratification_dimension(SMALL).instances_checked > samples
    pair_starts = [i for i, call in enumerate(calls) if call[0] == "pair"]
    expected = calls[:pair_starts[samples]]
    calls.clear()
    sampled = verify_stratification_dimension(replace(SMALL, sample_limit=samples))
    assert sampled.passed and sampled.instances_checked == samples
    assert calls == expected
    # A cut inside a Q group would show: some of these pairs have several candidates.
    assert max(call[3].bit_count() for call in calls if call[0] == "pair") > 2


def test_sampled_key_inequality_checks_the_first_triples_of_the_stream():
    # A sample may end inside a group; the stream cuts that group's lane mask, so the sample is
    # its prefix of the stream, each triple once.
    universe = verify.Universe(SMALL_INT)
    for samples in (1, 7, 100, 1000):
        spec = replace(SMALL_INT, sample_limit=samples)
        report = verify_key_inequality(spec)
        triples = sum(group.bit_count() for _, _, group in
                      verify._lane_groups(universe, GENERAL_CONDITIONS, samples))
        assert report.passed and report.instances_checked == triples == samples


# ----------------------------------------------------------------------
# the oracle routes never take the fast routes

def test_oracle_routes_answer_with_the_fast_routes_refused(monkeypatch):
    pool = verify.bundle_pool(PAIR_UNIVERSE)
    pairs = random.Random(17).sample(list(itertools.product(pool, repeat=2)), 400)
    expected = [(deg_nonneg(v, w), slopewise_dominates(w, v)) for v, w in pairs]
    fast_routes = (degrees.deg_nonneg, criteria.slopewise_dominates, criteria.is_quotient)

    def refused(*args):
        raise AssertionError(f"an oracle route took a fast route on {args}")

    for name, module in list(sys.modules.items()):
        if name == "hnbundles" or name.startswith("hnbundles."):
            for attr, value in list(vars(module).items()):
                if any(value is route for route in fast_routes):
                    monkeypatch.setattr(module, attr, refused)
    assert [(deg_nonneg_oracle(v, w), rank_condition(v, w)) for v, w in pairs] == expected
