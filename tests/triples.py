"""The admissible triples of a universe as bundles, for tests that compare a check against them."""

from __future__ import annotations

from typing import Iterator

from hnbundles import HNBundle, UniverseSpec
from hnbundles.degeneration import ConditionSet
from hnbundles.verify import Universe, _triple_groups


def admissible_triples(
    spec: UniverseSpec, conditions: ConditionSet
) -> Iterator[tuple[HNBundle, HNBundle, HNBundle]]:
    """The triples of the universe meeting every condition of ``conditions``, one by one.

    The same stream as ``verify._triple_groups`` (which the checks read),
    with the positions resolved to bundles.
    """
    universe = Universe(spec)
    pool = universe.pool
    for ei, fi, group in _triple_groups(universe, conditions):
        for qi in group:
            yield pool[ei], pool[fi], pool[qi]
