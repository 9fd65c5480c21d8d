"""Fault rows for the fast routes the checks trust: each mutant, and the checks that kill it.

``ROWS`` mutate the bulk forms the triple stream reads.  A row rebinds one
bulk builder on ``verify`` (the slope-sharing relation of condition (iv),
the integral mask of (vi), or ``dominators``, which builds both dominance
relations that answer (i), (ii) and (iii)), runs the three triple checks on
one universe and names the checks that fail.  A row that no check kills is
a known gap: the stream shrinks and every check passes on fewer instances,
so only the instance counts tell.  The remedy for such a row is an audit of
every bulk answer a run reads against the condition's own test (ROADMAP
item 4); for a dominance row, ``equivalence`` already reads the relation as
its third route and fails on the same universe.

``ROUTE_ROWS`` mutate the other fast routes: ``deg_nonneg``, the
codimension, stratum and image-term formulas, ``slopewise_dominates``, the
enumeration and the dual dominance relation alone.  A row rebinds the
route on each module it names and runs all six checks on ``SMALL_INT``.
"""

from __future__ import annotations

import itertools

import pytest

from hnbundles import UniverseSpec, criteria, degeneration, run_checks, verify

SMALL_INT = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=1)
SMALL = UniverseSpec(max_rank=3, slope_min=-2, slope_max=2, max_denominator=2)
TRIPLE_CHECKS = ["key-inequality", "degeneration", "stratification"]


def _slope_0_never_shared(keys):
    """Over-admits (iv): a pair whose one common slope is 0 counts as sharing none."""
    return degeneration.slope_sharing([tuple(s for s in key if s[:2] != (0, 1)) for key in keys])


def _every_fifth_admitted_bit_dropped(keys):
    """Under-admits (iv): every 5th pair without a common slope counts as sharing one."""
    rows, seen = [], 0
    for row in degeneration.slope_sharing(keys):
        for f in range(len(keys)):
            if not row >> f & 1:
                seen += 1
                if seen % 5 == 0:
                    row |= 1 << f
        rows.append(row)
    return rows


def _every_member_integral(bundles):
    """Over-admits (vi): fractional F and Q join the reduced triples."""
    return (1 << len(bundles)) - 1


def _rank(key):
    return sum(q * m for _, q, m in key)


def _every_seventh_set_bit_dropped(keys):
    """Under-approves dominance: every 7th set bit of the relation, row by row, is cleared."""
    rows, seen = [], 0
    for row in criteria.dominators(keys):
        for u in range(len(keys)):
            if row >> u & 1:
                seen += 1
                if seen % 7 == 0:
                    row &= ~(1 << u)
        rows.append(row)
    return rows


def _nothing_dominates_itself(keys):
    """Under-approves dominance on the diagonal alone."""
    return [row & ~(1 << li) for li, row in enumerate(criteria.dominators(keys))]


def _no_rank_3_dominates_another(keys):
    """Under-approves dominance: a rank-3 bundle dominates itself and nothing else."""
    rank_3 = sum(1 << u for u, key in enumerate(keys) if _rank(key) == 3)
    return [row & ~(rank_3 & ~(1 << li)) for li, row in enumerate(criteria.dominators(keys))]


def _every_larger_rank_added(keys):
    """Over-approves dominance: every U with rank(U) >= rank(L) dominates L."""
    ranks = [_rank(key) for key in keys]
    return [row | sum(1 << u for u, r in enumerate(ranks) if r >= ranks[li])
            for li, row in enumerate(criteria.dominators(keys))]


# mutant -> (the builder it replaces, the universe, the checks that fail on it)
ROWS = {
    "slope 0 never shared": ("slope_sharing", _slope_0_never_shared, SMALL_INT,
                             {"key-inequality", "degeneration", "stratification"}),
    "every 5th admitted bit dropped": ("slope_sharing", _every_fifth_admitted_bit_dropped,
                                       SMALL_INT, set()),
    "every member integral": ("integral_members", _every_member_integral, SMALL,
                              {"degeneration"}),
    "every 7th set bit dropped": ("dominators", _every_seventh_set_bit_dropped, SMALL_INT,
                                  {"stratification"}),
    "no bundle dominates itself": ("dominators", _nothing_dominates_itself, SMALL_INT,
                                   {"stratification"}),
    "no rank-3 bundle dominates another": ("dominators", _no_rank_3_dominates_another,
                                           SMALL_INT, set()),
    "every U with rank(U) >= rank(L) added": ("dominators", _every_larger_rank_added, SMALL_INT,
                                              {"key-inequality", "degeneration",
                                               "stratification"}),
}


def _run(spec, checks=TRIPLE_CHECKS):
    return {report.property_name: report for report in run_checks(checks, spec)}


@pytest.mark.parametrize("row", list(ROWS))
def test_each_bulk_mutant_fails_the_checks_its_row_names(monkeypatch, row):
    builder, mutant, spec, killers = ROWS[row]
    honest = _run(spec)
    assert all(report.passed for report in honest.values())
    monkeypatch.setattr(verify, builder, mutant)
    mutated = _run(spec)
    assert {name for name, report in mutated.items() if not report.passed} == killers
    if not killers:
        # The known gap: a shrunken stream passes every check, and only the counts tell.
        for name in TRIPLE_CHECKS:
            assert mutated[name].instances_checked < honest[name].instances_checked, name
        if builder == "dominators":
            # equivalence reads the relation as its third route, so it kills the row.
            (audit,) = run_checks(["equivalence"], spec)
            assert not audit.passed


# ----------------------------------------------------------------------
# the other fast routes, each against all six checks

ALL_CHECKS = list(verify.CHECKS)


def _plus_one_at_slope_gap_4(deg_nonneg):
    """deg_nonneg + 1 when mu_max(W) - mu_min(V) = 4: only the extreme pairs of [-2, 2]."""
    return lambda v, w: deg_nonneg(v, w) + (not (v.is_zero or w.is_zero)
                                            and w.mu_max - v.mu_min == 4)


def _doubled_from_rank_3(deg_nonneg):
    return lambda v, w: deg_nonneg(v, w) * (2 if v.rank >= 3 else 1)


def _codimension_plus_one(codimension):
    return lambda ef, term, qf: codimension(ef, term, qf) + 1


def _codimension_minus_one_when_ef_exceeds_qf(codimension):
    return lambda ef, term, qf: codimension(ef, term, qf) - (ef > qf)


def _stratum_plus_one(stratum_dimension):
    return lambda qf, term: stratum_dimension(qf, term) + 1


def _image_term_plus_one(image_term):
    return lambda qq, eq: image_term(qq, eq) + 1


def _dominates_from_rank(slopewise_dominates):
    """Over-approves dominance: F dominates E whenever rank(F) >= rank(E)."""
    return lambda f, e: f.rank >= e.rank or slopewise_dominates(f, e)


def _every_ninth_dropped(enumerate_bundles):
    def dropping(spec, include_zero=False):
        for i, bundle in enumerate(enumerate_bundles(spec, include_zero)):
            if i % 9 != 8:
                yield bundle
    return dropping


def _one_bundle_twice(enumerate_bundles):
    def repeating(spec, include_zero=False):
        for i, bundle in enumerate(enumerate_bundles(spec, include_zero)):
            yield bundle
            if i == 5:
                yield bundle
    return repeating


def _dual_relation_drops_every_seventh_bit(dominators):
    """Under-approves the dual relation alone: a Universe's second build is the duals'."""
    builds = itertools.count()
    return lambda keys: (dominators(keys) if next(builds) % 2 == 0
                         else _every_seventh_set_bit_dropped(keys))


# mutant -> (the modules whose binding it replaces, the name, its maker from the original,
#            the checks that fail on SMALL_INT)
ROUTE_ROWS = {
    "deg_nonneg + 1 at slope gap 4": ((verify,), "deg_nonneg", _plus_one_at_slope_gap_4,
                                      {"oracles", "invariance"}),
    "deg_nonneg doubled from rank 3": ((verify,), "deg_nonneg", _doubled_from_rank_3,
                                       {"oracles", "degeneration"}),
    "codimension + 1": ((verify,), "codimension", _codimension_plus_one, {"degeneration"}),
    "codimension - 1 when ef > qf": ((verify,), "codimension",
                                     _codimension_minus_one_when_ef_exceeds_qf,
                                     {"key-inequality", "degeneration"}),
    "stratum dimension + 1": ((verify,), "stratum_dimension", _stratum_plus_one,
                              {"stratification"}),
    "image term + 1": ((verify,), "image_term", _image_term_plus_one,
                       {"degeneration", "stratification"}),
    "rank(F) >= rank(E) dominates": ((criteria, degeneration, verify), "slopewise_dominates",
                                     _dominates_from_rank, {"equivalence"}),
    # A chain through a dropped bundle leaves the universe, which is fixed at build.
    "every 9th bundle dropped": ((verify,), "enumerate_bundles", _every_ninth_dropped,
                                {"degeneration"}),
    "one bundle twice": ((verify,), "enumerate_bundles", _one_bundle_twice, set()),
    "dual relation drops every 7th bit": ((verify,), "dominators",
                                          _dual_relation_drops_every_seventh_bit,
                                          {"stratification"}),
}


@pytest.mark.parametrize("row", list(ROUTE_ROWS))
def test_each_route_mutant_fails_the_checks_its_row_names(monkeypatch, row):
    modules, name, make, killers = ROUTE_ROWS[row]
    honest = _run(SMALL_INT, ALL_CHECKS)
    assert all(report.passed for report in honest.values())
    mutant = make(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, mutant)
    mutated = _run(SMALL_INT, ALL_CHECKS)
    assert {check for check, report in mutated.items() if not report.passed} == killers
    if name == "enumerate_bundles" and killers:
        assert all(line.endswith("lies outside the universe")
                   for line in mutated["degeneration"].counterexamples)
    if name == "dominators":
        # The findings read the dual relation, so the dropped bits show there too.
        assert len(mutated["degeneration"].findings) == 168
    if not killers:
        # The known gap: a repeated bundle only adds instances, so only the counts tell.
        assert all(mutated[check].instances_checked >= honest[check].instances_checked
                   for check in ALL_CHECKS)
        assert mutated["equivalence"].instances_checked > honest["equivalence"].instances_checked
