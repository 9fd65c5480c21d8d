"""The admissible triples of a universe as bundles, for tests that compare a check against them."""

from __future__ import annotations

from typing import Iterator

from hnbundles import HNBundle, UniverseSpec
from hnbundles.degeneration import ConditionSet
from hnbundles.verify import Universe, _lane_groups


def admissible_triples(
    spec: UniverseSpec, conditions: ConditionSet
) -> Iterator[tuple[HNBundle, HNBundle, HNBundle]]:
    """The triples of the universe meeting every condition of ``conditions``, one by one.

    The same stream as ``verify._lane_groups`` (which the checks read), with
    each group's Q in rank order and the positions resolved to bundles.
    """
    universe = Universe(spec)
    pool, positions = universe.pool, universe.lanes.positions
    for ei, fi, group in _lane_groups(universe, conditions):
        for qi in sorted(positions(group), key=lambda qi: pool[qi].rank):
            yield pool[ei], pool[fi], pool[qi]
