"""Degeneration engine: elementary moves, full traces, normalization pipeline."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from hnbundles import bundle, degeneration
from hnbundles import (
    HNBundle,
    PreconditionError,
    ZERO,
    build_e1,
    c_value,
    decompose_mrs,
    degeneration_chain,
    degeneration_step,
    degeneration_trace,
    enumerate_bundles,
    max_slope_reduction,
    normalize_triple,
    parse_bundle,
    slopewise_dominates,
)
from hnbundles.degeneration import (
    GENERAL_CONDITIONS, REDUCED_CONDITIONS, general_violations, reduced_violations,
)
from hnbundles.verify import UniverseSpec
from triples import admissible_triples

B = parse_bundle

WORKED = (B("0,-2"), B("1,-1"), B("-1"))


# ----------------------------------------------------------------------
# maximal slope reduction

def test_max_slope_reduction_examples():
    assert max_slope_reduction(B("3,2"), B("1")) == B("1:2")
    v = B("1,-1")
    assert max_slope_reduction(v, B("1,-2")) == v
    assert max_slope_reduction(B("2"), B("1")) == B("1")


def test_max_slope_reduction_postconditions():
    v, w = B("3,1,0"), B("1,0,-1")
    reduced = max_slope_reduction(v, w)
    assert reduced.mu_max == w.mu_max
    assert reduced.rank == v.rank
    assert slopewise_dominates(reduced, w)
    assert reduced.has_integer_slopes()


def test_max_slope_reduction_preconditions():
    with pytest.raises(PreconditionError):
        max_slope_reduction(ZERO, B("1"))
    with pytest.raises(PreconditionError):
        max_slope_reduction(B("1"), ZERO)
    with pytest.raises(PreconditionError):
        max_slope_reduction(B("1/2"), B("0:1"))
    with pytest.raises(PreconditionError):
        max_slope_reduction(B("0:1"), B("1"))


def test_next_member_builds_only_the_next_member(monkeypatch):
    spec = UniverseSpec(max_rank=4, slope_min=-2, slope_max=2, max_denominator=1)
    steps = {(member, q) for e, f, q in admissible_triples(spec, REDUCED_CONDITIONS)
             for member in degeneration_trace(e, f, q).chain[1:-1]}
    decompositions = [decompose_mrs(member, q) for member, q in steps]
    assert len(decompositions) > 100
    built, settled = [], []
    trusted, settle = degeneration._trusted, bundle._settle

    def counting_trusted(key):
        built.append(trusted(key))
        return built[-1]

    monkeypatch.setattr(degeneration, "_trusted", counting_trusted)
    # Every instance, however it is made, is settled once.
    monkeypatch.setattr(bundle, "_settle", lambda *args: settled.append(args) or settle(*args))
    for triple in decompositions:
        built.clear()
        settled.clear()
        following = degeneration._next_member(triple)
        assert built == [following] and len(settled) == 1


def _reference_max_slope_reduction(v, w):
    """The reduction built from filter and direct_sum, under the same preconditions."""
    if v.is_zero or w.is_zero:
        raise PreconditionError("maximal slope reduction requires nonzero bundles")
    if not (v.has_integer_slopes() and w.has_integer_slopes()):
        raise PreconditionError("maximal slope reduction requires integer slopes")
    if not slopewise_dominates(v, w):
        raise PreconditionError(f"{v} does not slopewise dominate {w}")
    top = w.mu_max
    flattened = v.filter(top, ">").rank
    return v.filter(top, "<=").direct_sum(HNBundle([(top, flattened)]) if flattened else ZERO)


def _result_or_error(reduce, v, w):
    try:
        return reduce(v, w)
    except PreconditionError as exc:
        return type(exc), str(exc), exc.condition


def test_max_slope_reduction_matches_filter_and_direct_sum():
    integral = list(enumerate_bundles(UniverseSpec(max_rank=4, slope_min=-3, slope_max=3,
                                                   max_denominator=1), include_zero=True))
    bundles = integral + [B("1/2"), B("-1/2"), B("3/2,-1"), B("1,-1/2")]
    reduced, merged, errors = 0, 0, Counter()
    for v, w in itertools.product(bundles, repeat=2):
        expected = _result_or_error(_reference_max_slope_reduction, v, w)
        assert _result_or_error(max_slope_reduction, v, w) == expected, (v, w)
        if isinstance(expected, tuple):
            errors[next(kind for kind in ("nonzero", "integer", "dominate") if kind in expected[1])] += 1
            continue
        reduced += 1
        # v already has a summand at mu_max(w), and something above it to merge into it.
        merged += v.mu_max > w.mu_max and v.multiplicity(w.mu_max) > 0
    assert reduced > 10_000 and merged > 100
    # Each precondition is met and broken: nonzero bundles, integer slopes, dominance.
    assert set(errors) == {"nonzero", "integer", "dominate"}


# ----------------------------------------------------------------------
# peeling

def test_build_e1_examples():
    assert build_e1(B("0,-2")) == B("-2")
    assert build_e1(B("0:3")) == B("0:2")
    with pytest.raises(PreconditionError):
        build_e1(B("-1"))
    with pytest.raises(PreconditionError):
        build_e1(B("1,0"))
    with pytest.raises(PreconditionError):
        build_e1(ZERO)


# ----------------------------------------------------------------------
# decompositions and single steps

def test_decompose_mrs_examples():
    triple = decompose_mrs(B("-2"), B("-1"))
    assert (triple.common, triple.q_complement, triple.e_complement) == (ZERO, B("1"), B("2"))
    q = B("-1,-2")
    triple = decompose_mrs(q, q)
    assert (triple.common, triple.q_complement, triple.e_complement) == (q.dual(), ZERO, ZERO)
    triple = decompose_mrs(B("-1,-3"), B("-1,-2"))
    assert triple.common == ZERO
    assert triple.q_complement == B("2,1")
    assert triple.e_complement == B("3,1")


def test_decompose_mrs_preconditions():
    with pytest.raises(PreconditionError):
        decompose_mrs(B("-1"), B("-1,-2"))
    with pytest.raises(PreconditionError):
        decompose_mrs(B("-1"), B("-2"))


def test_degeneration_step_examples():
    assert degeneration_step(B("-2"), B("-1")) == B("-1")
    q = B("-1,-2")
    assert degeneration_step(q, q) == q
    assert degeneration_step(B("-1,-3"), B("-1,-2")) == B("-1,-2")


# ----------------------------------------------------------------------
# full traces

def test_worked_trace():
    trace = degeneration_trace(*WORKED)
    assert [str(v) for v in trace.chain] == ["0,-2", "-2", "-1"]
    assert trace.c_values == (2, 1, 0)
    assert trace.terminated_at == 2
    assert trace.steps[0].common == ZERO
    assert trace.steps[0].q_complement == B("1")
    assert trace.steps[0].e_complement == B("2")
    assert trace.steps[1].common == B("1")
    assert trace.steps[1].q_complement == ZERO
    assert trace.steps[1].e_complement == ZERO


def test_trace_with_single_step():
    trace = degeneration_trace(B("0,-1"), B("1:2"), B("-1"))
    assert trace.terminated_at == 1
    assert trace.chain == (B("0,-1"), B("-1"))
    assert trace.c_values == (2, 0)


def test_trace_with_zero_image():
    trace = degeneration_trace(B("0:1"), B("1"), ZERO)
    assert trace.chain == (B("0:1"), ZERO)
    assert trace.c_values == (1, 0)


def test_one_chain_serves_every_f():
    e, _, q = WORKED
    chain, steps = degeneration_chain(e, q)
    for f in (B("1,-1"), B("2,-1"), B("1:2")):
        trace = degeneration_trace(e, f, q)
        assert (trace.chain, trace.steps) == (chain, steps)


@pytest.mark.parametrize("spec", [
    UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=1),
    UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=2),
], ids=["integer", "denominators_2"])
def test_chain_members_keep_rank_q_and_the_slopes_of_e_and_q(spec):
    # So every member of an honest chain lies in any universe that holds E and Q.
    triples = list(admissible_triples(spec, REDUCED_CONDITIONS))
    assert len(triples) > 100
    for e, f, q in triples:
        slopes = set(e.slopes()) | set(q.slopes())
        for member in degeneration_trace(e, f, q).chain[1:]:
            assert member.rank == q.rank, (e, f, q, member)
            assert set(member.slopes()) <= slopes, (e, f, q, member)


def test_trace_decomposes_each_member_once(monkeypatch):
    calls = []
    original = degeneration.decompose_mrs

    def counting(e_i, q):
        calls.append(e_i)
        return original(e_i, q)

    monkeypatch.setattr(degeneration, "decompose_mrs", counting)
    trace = degeneration_trace(*WORKED)
    assert calls == list(trace.chain[1:])
    assert trace.steps == tuple(original(member, WORKED[2]) for member in trace.chain[1:])


def test_trace_first_step_accounting():
    e, f, q = WORKED
    trace = degeneration_trace(e, f, q)
    drop = f.filter(0, ">=").degree - q.filter(0, ">=").degree
    assert trace.c_values[0] - trace.c_values[1] == drop


def test_trace_json_schema():
    payload = degeneration_trace(*WORKED).to_json_dict()
    assert set(payload) == {"chain", "c", "steps"}
    assert payload["chain"] == ["0,-2", "-2", "-1"]
    assert payload["c"] == [2, 1, 0]
    assert payload["steps"] == [
        {"M": "0", "R": "1", "S": "2"},
        {"M": "1", "R": "0", "S": "0"},
    ]


def test_trace_named_precondition_errors():
    cases = {
        "(i)": (B("0,-2"), B("1,-3"), B("-1")),
        "(ii)": (B("0,-2"), B("1,-1"), B("-3")),
        "(iii)": (B("0,-2"), B("1,-1"), B("2")),
        "(iv)": (B("0,-1"), B("1,-1"), B("0:1")),
        "(v)": (B("0,-2"), B("1,-1"), B("0,-2")),
        "(vi)": (B("0,-1/2"), B("1:3"), B("-1/2")),
        "(vii)": (B("-1,-2"), B("1,0"), B("-1")),
    }
    for name, (e, f, q) in cases.items():
        assert [v[0] for v in reduced_violations(e, f, q)] == [name]
        with pytest.raises(PreconditionError) as err:
            degeneration_trace(e, f, q)
        assert err.value.condition == name
        assert name in str(err.value)


# ----------------------------------------------------------------------
# normalization

def test_normalize_identity_transcript():
    e, f, q = WORKED
    result = normalize_triple(e, f, q)
    assert (result.e, result.f, result.q) == (e, f, q)
    assert result.transcript == ()
    assert result.initial_c == 2


def test_normalize_stretch_doubles_c():
    result = normalize_triple(B("-1/2"), B("1:2"), B("0:1"))
    assert result.initial_c == 3
    ops = [(step.op, step.amount, step.c_after) for step in result.transcript]
    assert ops == [("stretch", 2, 6), ("twist", 1, 6)]
    assert (result.e, result.f, result.q) == (B("0:2"), B("3:2"), B("1"))
    assert c_value(result.e, result.f, result.q) == 6


def test_normalize_rank_gap_two_peels_once():
    e, f, q = B("0,-1,-2"), B("1:3"), B("-1")
    result = normalize_triple(e, f, q)
    ops = [step.op for step in result.transcript]
    assert ops == ["peel", "twist"]
    assert result.initial_c == 11
    assert result.transcript[0].c_after == 8
    assert result.transcript[1].c_after == 8
    assert (result.e, result.f, result.q) == (B("0,-1"), B("2:3"), B("0:1"))
    assert reduced_violations(result.e, result.f, result.q) == ()


def test_normalize_deep_gap_and_fractions():
    e = B("-1/2,-3/2")
    f = B("1:2,1/2:2")
    q = B("-1")
    assert general_violations(e, f, q) == ()
    result = normalize_triple(e, f, q)
    assert reduced_violations(result.e, result.f, result.q) == ()
    assert result.q.rank == result.e.rank - 1
    ops = [step.op for step in result.transcript]
    assert ops[0] == "stretch"
    assert ops.count("peel") == e.rank - q.rank - 1
    # every recorded codimension stays consistent with direct recomputation
    assert result.transcript[-1].c_after == c_value(result.e, result.f, result.q)


def _assert_transcript_laws(e, f, q):
    """Normalize (E, F, Q), trace the result, and check the transcript against both ends."""
    result = normalize_triple(e, f, q)
    assert result.initial_c == c_value(e, f, q)
    previous = result.initial_c
    for step in result.transcript:
        if step.op == "stretch":
            assert step.c_after == previous * step.amount
        elif step.op == "twist":
            assert step.c_after == previous
        else:
            assert step.op == "peel"
            assert step.c_after <= previous
        previous = step.c_after
    trace = degeneration_trace(result.e, result.f, result.q)
    assert previous == trace.c_values[0] > 0
    assert result.initial_c > 0
    return result


def test_normalize_transcript_relations():
    _assert_transcript_laws(B("-1/2,-3/2"), B("1:2,1/2:2"), B("-1"))


def test_normalize_then_trace_on_every_general_triple():
    spec = UniverseSpec(max_rank=3, slope_min=-1, slope_max=1, max_denominator=2)
    triples = list(admissible_triples(spec, GENERAL_CONDITIONS))
    assert len(triples) == 377
    ops = Counter()
    for e, f, q in triples:
        ops.update(step.op for step in _assert_transcript_laws(e, f, q).transcript)
    assert ops["stretch"] and ops["twist"] and ops["peel"]


def test_normalize_named_general_violations():
    with pytest.raises(PreconditionError) as err:
        normalize_triple(B("1"), B("0:1"), ZERO)
    assert err.value.condition == "(i)"
    with pytest.raises(PreconditionError) as err:
        normalize_triple(B("0,-2"), B("1,-1"), B("0,-2"))
    assert err.value.condition == "(v)"


def test_degeneration_after_normalization():
    result = normalize_triple(B("-1/2"), B("1:2"), B("0:1"))
    trace = degeneration_trace(result.e, result.f, result.q)
    assert trace.c_values[0] == 6
    assert trace.c_values[-1] == 0
