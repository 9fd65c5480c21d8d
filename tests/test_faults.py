"""Fault rows for the bulk forms the triple stream reads: each mutant, and the checks that kill it.

A row rebinds one bulk builder on ``verify`` (the slope-sharing relation of
condition (iv), the integral mask of (vi), or ``dominators``, which builds
both dominance relations that answer (i), (ii) and (iii)), runs the three
triple checks on one universe and names the checks that fail.  A row that
no check kills is a known gap: the stream shrinks and every check passes on
fewer instances, so only the instance counts tell.  The remedy for such a
row is an audit of every bulk answer a run reads against the condition's
own test (ROADMAP item 4); for a dominance row, ``equivalence`` already
reads the relation as its third route and fails on the same universe.
"""

from __future__ import annotations

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


def _run(spec):
    return {report.property_name: report for report in run_checks(TRIPLE_CHECKS, spec)}


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
