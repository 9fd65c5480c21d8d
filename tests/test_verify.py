"""Enumeration and the verification harness itself."""

from __future__ import annotations

import gc
import itertools
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

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
from hnbundles import criteria, degeneration, degrees, verify
from hnbundles.degeneration import (
    GENERAL_CONDITIONS,
    PAIR_CONDITIONS,
    QUOTIENT_CONDITIONS,
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


def test_admissible_slopes():
    assert admissible_slopes(TINY) == (1, 0, -1)
    slopes = admissible_slopes(SMALL)
    assert Fraction(1, 2) in slopes and Fraction(-3, 2) in slopes
    assert Fraction(2, 2) not in set(slopes) - {Fraction(1)}  # no duplicates
    assert list(slopes) == sorted(slopes, reverse=True)


def test_enumerate_counts_against_dp_oracle():
    for spec in (TINY, SMALL, SMALL_INT):
        slopes = admissible_slopes(spec)
        expected = sum(_count_by_rank(slopes, spec.max_rank)[1:])
        bundles = list(enumerate_bundles(spec))
        assert len(bundles) == expected
        assert len(set(bundles)) == expected


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
    assert through
    outcome = _degeneration_outcome(verify_degeneration(SMALL_INT))
    assert outcome == _reference_degeneration(SMALL_INT)
    assert {line.split(": ", 1)[0] for line in outcome[1]} >= through


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


def _key_inequality_degree_reads():
    triples = list(admissible_triples(SMALL_INT, GENERAL_CONDITIONS))
    assert len({(q, f) for _, f, q in triples}) < len(triples)
    return _once_each(
        [(e, f) for e, f, _ in triples], [(q, f) for _, f, q in triples],
        [(q, q) for _, _, q in triples], [(e, q) for e, _, q in triples])


def _degeneration_degree_reads():
    triples = list(admissible_triples(SMALL_INT, REDUCED_CONDITIONS))
    chains = {(e, q): degeneration_trace(e, f, q).chain for e, f, q in triples}
    # Every member V of a chain, E and Q included, is read into F and into Q.
    into_f = [(v, f) for e, f, q in triples for v in chains[e, q]]
    assert len(set(into_f)) < len(into_f)
    return _once_each(into_f, [(v, q) for (e, q), chain in chains.items() for v in chain])


def _stratification_degree_reads():
    pool = list(enumerate_bundles(SMALL_INT, include_zero=True))
    pairs = _stratification_pairs(pool)
    candidates = {(e, f): _candidate_images(pool, e, f) for e, f in pairs}
    expected = _once_each(
        pairs, [(q, f) for (e, f), qs in candidates.items() for q in qs],
        [(q, q) for qs in candidates.values() for q in qs],
        [(e, q) for (e, f), qs in candidates.items() for q in qs])
    assert len(expected) < sum(map(len, candidates.values()))
    return expected


DEGREE_READS = {
    "key-inequality": _key_inequality_degree_reads,
    "degeneration": _degeneration_degree_reads,
    "stratification": _stratification_degree_reads,
}


def test_key_inequality_reads_each_pair_once(monkeypatch):
    expected = _key_inequality_degree_reads()
    calls = _counting_deg_nonneg(monkeypatch)
    assert verify_key_inequality(SMALL_INT).passed
    assert calls == expected


def test_degeneration_reads_each_pair_once(monkeypatch):
    expected = _degeneration_degree_reads()
    calls = _counting_deg_nonneg(monkeypatch)
    assert verify_degeneration(SMALL_INT).passed
    assert calls == expected


def test_stratification_reads_each_pair_once(monkeypatch):
    expected = _stratification_degree_reads()
    calls = _counting_deg_nonneg(monkeypatch)
    assert verify_stratification_dimension(SMALL_INT).passed
    assert calls == expected


# ----------------------------------------------------------------------
# how often each check asks condition (iii), which reads only (F, Q)

def _counting_image_condition(monkeypatch):
    """Count the calls of condition (iii) by (F, Q), in every condition group the checks read."""
    calls = Counter()

    def counting(condition):
        if condition.name != "(iii)":
            return condition

        def test(*bundles):
            calls[bundles[-2:]] += 1
            return condition.test(*bundles)

        return condition._replace(test=test)

    for name in ("GENERAL_CONDITIONS", "REDUCED_CONDITIONS"):
        groups = getattr(verify, name)
        monkeypatch.setattr(verify, name, type(groups)(*(tuple(map(counting, group))
                                                         for group in groups)))
    monkeypatch.setattr(verify, "SUBBUNDLE_CONDITIONS",
                        tuple(map(counting, verify.SUBBUNDLE_CONDITIONS)))
    return calls


def _triple_image_questions(conditions):
    """The (F, Q) of every candidate triple that meets all conditions except possibly (iii)."""
    bundles = list(enumerate_bundles(SMALL_INT))
    images = list(enumerate_bundles(SMALL_INT, include_zero=True))
    return {(f, q) for e in bundles for f in bundles for q in images
            if q.rank < e.rank
            and {name for name, _ in conditions.violations(e, f, q)} <= {"(iii)"}}


def _stratification_image_questions():
    pool = list(enumerate_bundles(SMALL_INT, include_zero=True))
    return {(f, q) for e, f in _stratification_pairs(pool) for q in pool if is_quotient(q, e)}


IMAGE_QUESTIONS = {
    "key-inequality": lambda: _triple_image_questions(GENERAL_CONDITIONS),
    "degeneration": lambda: _triple_image_questions(REDUCED_CONDITIONS),
    "stratification": _stratification_image_questions,
}


@pytest.mark.parametrize("name", list(IMAGE_QUESTIONS))
def test_each_image_verdict_is_computed_once_per_call(monkeypatch, name):
    expected = IMAGE_QUESTIONS[name]()
    assert expected
    calls = _counting_image_condition(monkeypatch)
    assert run_checks([name], SMALL_INT)[0].passed
    assert calls == Counter(expected)


def _outcome(report):
    return report.property_name, report.instances_checked, report.counterexamples, report.findings


def test_one_run_shares_its_universe_between_the_triple_checks(monkeypatch):
    names = list(DEGREE_READS)
    alone = {name: _outcome(run_checks([name], SMALL_INT)[0]) for name in names}
    # Each check's expected set, and their union: what the run asks, since the checks overlap.
    per_check_reads = [set(reads()) for reads in DEGREE_READS.values()]
    per_check_questions = [questions() for questions in IMAGE_QUESTIONS.values()]
    degree_reads, image_questions = set().union(*per_check_reads), set().union(*per_check_questions)
    assert len(degree_reads) < sum(map(len, per_check_reads))
    assert len(image_questions) < sum(map(len, per_check_questions))
    enumerate_bundles = verify.enumerate_bundles
    for order in itertools.permutations(names):
        enumerated = []
        monkeypatch.setattr(verify, "enumerate_bundles", lambda *args, **kwargs: (
            enumerated.append(args) or enumerate_bundles(*args, **kwargs)))
        degree_calls = _counting_deg_nonneg(monkeypatch)
        image_calls = _counting_image_condition(monkeypatch)
        reports = run_checks(order, SMALL_INT)
        monkeypatch.undo()
        assert len(enumerated) == 1
        assert degree_calls == Counter(degree_reads)
        assert image_calls == Counter(image_questions)
        assert [_outcome(report) for report in reports] == [alone[name] for name in order]


def test_a_universe_is_freed_without_the_cycle_collector():
    # Its tables' fills close over its parts, never over the Universe, so refcounting frees it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        universe = verify.Universe(SMALL_INT)
        for name in DEGREE_READS:
            assert verify.CHECKS[name][0](universe).passed
        assert universe.steps
        freed = weakref.ref(universe)
        del universe
        assert freed() is None
    finally:
        if collecting:
            gc.enable()


# ----------------------------------------------------------------------
# how often the stream asks (i) and (ii): each group short-circuits in entry order, lazily

def _counting_asks(monkeypatch, names):
    """Count the calls of each named condition by its bundles, in every group the checks read."""
    calls = {name: Counter() for name in names}

    def counting(condition):
        if condition.name not in calls:
            return condition

        def test(*bundles):
            calls[condition.name][bundles] += 1
            return condition.test(*bundles)

        return condition._replace(test=test)

    for name in ("GENERAL_CONDITIONS", "REDUCED_CONDITIONS"):
        groups = getattr(verify, name)
        monkeypatch.setattr(verify, name, type(groups)(*(tuple(map(counting, group))
                                                         for group in groups)))
    for name in ("PAIR_CONDITIONS", "QUOTIENT_CONDITIONS"):
        monkeypatch.setattr(verify, name, tuple(map(counting, getattr(verify, name))))
    return calls


def _expected_asks(conditions):
    """The (E, F) asked (i) and the (E, Q) asked (ii) by a stream that short-circuits each group.

    Before any pair condition, the top-slope index leaves nonzero E only the nonzero F with
    mu_max(F) > mu_max(E); zero E keeps every F.
    """
    pool = list(enumerate_bundles(SMALL_INT, include_zero=True))

    def indexed(e, f):
        return e.is_zero or (not f.is_zero and f.mu_max > e.mu_max)

    def before(group, name):
        return group[:[c.name for c in group].index(name)]

    def holds(group, *bundles):
        return all(c.test(*bundles) for c in group)

    asked_i, asked_ii = [], []
    for e in pool:
        if not holds(conditions.on_e, e):
            continue
        asked_i += [(e, f) for f in pool
                    if indexed(e, f) and holds(before(conditions.on_pair, "(i)"), e, f)]
        if any(holds(conditions.on_pair, e, f) for f in pool):
            # The stream scans only Q with rank(Q) <= rank(E), which (ii) requires.
            asked_ii += [(e, q) for q in pool if q.rank <= e.rank
                         and holds(before(conditions.on_quotient, "(ii)"), e, q)]
    return Counter(asked_i), Counter(asked_ii)


ASKED_CONDITIONS = {
    "key-inequality": GENERAL_CONDITIONS,
    "degeneration": REDUCED_CONDITIONS,
    "stratification": ConditionSet((), PAIR_CONDITIONS, QUOTIENT_CONDITIONS),
}


@pytest.mark.parametrize("name", list(ASKED_CONDITIONS))
def test_each_pair_and_quotient_condition_is_asked_once_after_the_earlier_ones(monkeypatch, name):
    expected_i, expected_ii = _expected_asks(ASKED_CONDITIONS[name])
    assert expected_i and expected_ii
    calls = _counting_asks(monkeypatch, ("(i)", "(ii)"))
    assert run_checks([name], SMALL_INT)[0].passed
    assert calls["(i)"] == expected_i and set(expected_i.values()) == {1}
    assert all(e.slope_pairs.isdisjoint(f.slope_pairs) for e, f in calls["(i)"])
    assert calls["(ii)"] == expected_ii and set(expected_ii.values()) == {1}


def test_dominance_keeps_no_memo_across_the_triple_checks():
    # A universe asks each dominance question once per cell, so a memo would only
    # hold its keys; the wrapper is a zero-size lru_cache, which keeps none.
    slopewise_dominates.cache_clear()
    reports = run_checks(["key-inequality", "degeneration", "stratification"], SMALL_INT)
    assert all(report.passed for report in reports)
    info = slopewise_dominates.cache_info()
    assert info.misses > 0
    assert (info.currsize, info.hits) == (0, 0)


# ----------------------------------------------------------------------
# the top-slope index skips only pairs that (iv) and (i) reject

TRIPLES_SHAPED = UniverseSpec(max_rank=4, slope_min=-2, slope_max=2, max_denominator=1)
RANK_5 = UniverseSpec(max_rank=5, slope_min=-3, slope_max=3, max_denominator=1)


def _unindexed_groups(universe, conditions, limit=None):
    """The stream as a plain scan of every F in pool order, with the same condition groups."""
    pool = universe.pool
    by_rank = sorted(range(len(pool)), key=lambda i: pool[i].rank)
    remaining = limit
    for ei, e in enumerate(pool):
        if not all(c.test(e) for c in conditions.on_e):
            continue
        quotients = [qi for qi in by_rank
                     if all(c.test(e, pool[qi]) for c in conditions.on_quotient)]
        for fi, f in enumerate(pool):
            if not all(c.test(e, f) for c in conditions.on_pair):
                continue
            group = [qi for qi in quotients if slopewise_dominates(f, pool[qi])]
            if remaining is not None:
                group = group[:remaining]
                remaining -= len(group)
            yield ei, fi, group
            if remaining == 0:
                return


def test_the_top_slope_levels_order_the_pool_by_mu_max():
    universe = verify.Universe(SMALL)
    pool, levels = universe.pool, universe.levels
    assert pool[0].is_zero and levels[0] == -1
    assert sorted(set(levels[1:])) == list(range(len(set(levels[1:]))))
    for i, j in itertools.product(range(1, len(pool)), repeat=2):
        assert (levels[i] < levels[j]) == (pool[i].mu_max < pool[j].mu_max)


@pytest.mark.parametrize("spec", [SMALL_INT, TRIPLES_SHAPED], ids=["small-int", "triples"])
@pytest.mark.parametrize("name", list(ASKED_CONDITIONS))
def test_the_top_slope_index_keeps_the_stream(spec, name):
    universe = verify.Universe(spec)
    conditions = ASKED_CONDITIONS[name]
    for limit in (None, 1, 7, 100):
        streamed = list(verify._triple_groups(universe, conditions, limit))
        assert streamed == list(_unindexed_groups(universe, conditions, limit))


def test_the_top_slope_index_keeps_the_rank_5_pairs():
    # One universe and one plain scan per distinct pair group keep this test to a few seconds.
    universe = verify.Universe(RANK_5)
    pool = universe.pool
    unindexed = {}
    for conditions in ASKED_CONDITIONS.values():
        groups = conditions.on_e, conditions.on_pair
        if groups not in unindexed:
            unindexed[groups] = [
                (ei, fi) for ei, e in enumerate(pool) if all(c.test(e) for c in conditions.on_e)
                for fi, f in enumerate(pool) if all(c.test(e, f) for c in conditions.on_pair)]
        streamed = [(ei, fi) for ei, fi, _ in verify._triple_groups(universe, conditions)]
        assert streamed == unindexed[groups]


# ----------------------------------------------------------------------
# a universe links the duals of its pool

ASYMMETRIC = UniverseSpec(max_rank=4, slope_min=-3, slope_max=1, max_denominator=1)


def test_every_dual_of_a_symmetric_pool_is_a_pool_member():
    pool = verify.Universe(TRIPLES_SHAPED).pool
    members = {id(v) for v in pool}
    assert all(id(v.dual()) in members for v in pool)
    assert pool[0] is ZERO and ZERO.dual() is ZERO


def test_linked_duals_stay_an_involution_across_universes():
    first, second = verify.Universe(TRIPLES_SHAPED), verify.Universe(TRIPLES_SHAPED)
    # The second pool is built anew, but for the shared ZERO, and its duals are its own members.
    assert first.pool[1] is not second.pool[1]
    for v in (*first.pool, *second.pool, ZERO):
        assert v.dual().dual() is v
    assert all(v.dual() is not w for v in second.pool[1:] for w in first.pool)


def test_duals_outside_an_asymmetric_pool_are_left_alone():
    pool = verify.Universe(ASYMMETRIC).pool
    members = {id(v) for v in pool}
    unlinked = [v for v in pool if v._dual is None]
    # Slopes in [-3, 1]: exactly the members with a slope below -1 have their dual outside.
    assert 0 < len(unlinked) == sum(1 for v in pool if v._key and v._key[-1][0] < -1)
    assert all(v._key[-1][0] < -1 for v in unlinked)
    assert all(id(v.dual()) in members for v in pool if v._dual is not None)
    assert all(v.dual() not in pool and v.dual().dual() is v for v in unlinked)


def test_an_asymmetric_pool_keeps_the_triple_reports():
    reports = run_checks(["key-inequality", "degeneration", "stratification"], ASYMMETRIC)
    assert [_outcome(report) for report in reports] == [
        ("key-inequality", 14683, (), ()), ("degeneration", 2055, (), ()),
        ("stratification", 1167, (), ())]


def _key_inequality_reads():
    return {f"E={e} F={f} Q={q}": {(e, f), (q, q), (e, q), (q, f)}
            for e, f, q in admissible_triples(SMALL_INT, GENERAL_CONDITIONS)}


def _degeneration_reads():
    reads = {}
    for e, f, q in admissible_triples(SMALL_INT, REDUCED_CONDITIONS):
        chain = degeneration_trace(e, f, q).chain
        reads[f"E={e} F={f} Q={q}"] = ({(q, f), (q, q)} | {(m, f) for m in chain}
                                       | {(m, q) for m in chain})
    return reads


def _stratification_reads():
    pool = list(enumerate_bundles(SMALL_INT, include_zero=True))
    reads = {}
    for e, f in _stratification_pairs(pool):
        candidates = _candidate_images(pool, e, f)
        reads[f"E={e} F={f}"] = ({(e, f)} | {(q, f) for q in candidates}
                                 | {(q, q) for q in candidates} | {(e, q) for q in candidates})
    return reads


FAULTS = {
    # check -> (the deg_nonneg pairs each instance reads, the per-instance reference, and the
    # sign of a fault that every such read turns into a counterexample)
    "key-inequality": (_key_inequality_reads, _reference_key_inequality, 1),
    "degeneration": (_degeneration_reads, _reference_degeneration, 1),
    "stratification": (_stratification_reads, _reference_stratification, -1),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_wrong_degree_is_reported_by_every_instance_that_reads_it(monkeypatch, name):
    reads_of, reference, sign = FAULTS[name]
    # A (Q, F) of a reduced triple that share a slope, with rank(F) > rank(Q).  Sharing a slope
    # keeps it from being an admissible pair (E, F), and the ranks keep it from being read as
    # deg(E, Q) or deg(Q, Q): each remaining read moves a codimension the way the sign says.
    q0, f0 = next((q, f) for _, f, q in admissible_triples(SMALL_INT, REDUCED_CONDITIONS)
                  if not q.is_zero and f.rank > q.rank
                  and not q.slope_pairs.isdisjoint(f.slope_pairs))
    reads = reads_of()
    readers = {instance for instance, pairs in reads.items() if (q0, f0) in pairs}
    assert 0 < len(readers) < len(reads)

    original = degrees.deg_nonneg

    def faulty(v, w):
        return original(v, w) + (sign * 10**6 if (v, w) == (q0, f0) else 0)

    _patch_deg_nonneg(monkeypatch, faulty)
    report = run_checks([name], SMALL_INT)[0]
    width = 2 if name == "stratification" else 3
    reported = {" ".join(line.split(": ", 1)[0].split()[:width]) for line in report.counterexamples}
    assert reported == readers
    assert (report.instances_checked, report.counterexamples) == reference(SMALL_INT)[:2]
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


def test_stratification_counts_a_pair_without_a_candidate(monkeypatch):
    rejecting = tuple(c._replace(test=lambda e, q: False) for c in verify.QUOTIENT_CONDITIONS)
    monkeypatch.setattr(verify, "QUOTIENT_CONDITIONS", rejecting)
    pairs = _stratification_pairs(list(enumerate_bundles(SMALL_INT, include_zero=True)))
    report = verify_stratification_dimension(SMALL_INT)
    assert report.instances_checked == len(pairs) > 0
    assert report.counterexamples == tuple(sorted(
        f"E={e} F={f}: top stratum None != dim hom {dim_hom(e, f)}" for e, f in pairs))


# ----------------------------------------------------------------------
# sampled runs: memory and which instances they check

def test_sampled_degeneration_makes_rows_only_for_the_f_it_reads():
    # 1,716 pool bundles: one full pool-by-pool table of cells is 1,716^2 * 8 bytes = 23.6 MB.
    spec = UniverseSpec(max_rank=6, slope_min=-3, slope_max=3, max_denominator=1, sample_limit=10)
    assert len(verify.bundle_pool(spec)) == 1716
    tracemalloc.start()
    try:
        report = verify_degeneration(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.instances_checked == 10
    assert peak < 8_000_000, f"{peak / 1e6:.1f} MB traced"


def test_stratification_samples_the_first_pairs_with_their_whole_groups(monkeypatch):
    calls = []
    stream, stratum = verify._triple_groups, verify.stratum_dimension

    def pairs(*args):
        for ei, fi, group in stream(*args):
            calls.append(("pair", ei, fi))
            yield ei, fi, group

    def strata(*degrees):
        calls.append(("stratum", *degrees))
        return stratum(*degrees)

    monkeypatch.setattr(verify, "_triple_groups", pairs)
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
    assert max(b - a for a, b in zip(pair_starts, pair_starts[1:samples + 1])) > 2


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
