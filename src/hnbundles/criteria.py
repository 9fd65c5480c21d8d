"""Decision procedures for subbundles, quotients, and slopewise dominance.

Two equivalent tests decide whether E embeds into F as a subbundle, that
is, whether there is an injective bundle map E -> F; its cokernel may have
torsion, so the image need not be saturated:

* rank condition: rank(E^{>=mu}) <= rank(F^{>=mu}) for every rational mu;
* slopewise dominance: on each unit interval [i-1, i] with i <= rank(E),
  the HN polygon of E has slope <= that of F.

Both are implemented independently; their equivalence over entire bundle
universes is one of the harness's flagship exhaustive checks.

:func:`is_quotient` decides the dual criterion, dual(E) slopewise
dominating dual(Q).  That is necessary for Q to be a quotient of E but
not sufficient: dualizing a surjection E -> Q gives a *saturated*
injection dual(Q) -> dual(E), while dominance decides injections, which
may have torsion cokernels.  So it over-approves quotients: it holds for
Q = O(1), E = O (equal rank) and for Q = O(-1), E = O + O(-2), neither of
which is a quotient.

Conventions for degenerate inputs (the classification lives on nonzero
bundles; these are the unique extensions consistent with the rank
condition): the zero bundle is a subbundle and a quotient of everything,
nothing nonzero is dominated by the zero bundle, and dominance is false
whenever rank(E) > rank(F).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import and_, or_
from typing import Sequence

from .bundle import HNBundle, _DESCENDING, _trusted, summand_difference

__all__ = [
    "rank_condition",
    "slopewise_dominates",
    "dominators",
    "is_subbundle",
    "is_quotient",
    "strip_common_slopes",
    "hn_common_prefix",
]


def rank_condition(e: HNBundle, f: HNBundle) -> bool:
    """rank(e^{>=mu}) <= rank(f^{>=mu}) for every rational mu.

    rank(V^{>=mu}) is a step function of mu jumping only at slopes of V, so
    checking at the slopes occurring in either bundle, plus below both
    minima, where it is the whole rank, decides the condition for all mu.
    At a probe a/b it is the sum of the ranks q*m of the summands p/q with
    p*b >= a*q, read off the key.
    """
    if e.rank > f.rank:
        return False
    for a, b in e.slope_pairs | f.slope_pairs:
        if (sum([q * m for p, q, m in e._key if p * b >= a * q])
                > sum([q * m for p, q, m in f._key if p * b >= a * q])):
            return False
    return True


# No memo: a verify.Universe reads the triple conditions off its dominance relations
# (:func:`dominators`), and the degeneration chains ask each of theirs once per step,
# so a memo only kept its keys alive.  A zero-size lru_cache holds nothing and counts
# every call as a miss; it stays only for its cache_info() and cache_clear(), which the
# benchmark's cold-cache step reads, until that step stops reading lru_caches
# (ROADMAP items 2 and 3) and the decorator goes.
@lru_cache(maxsize=0)
def slopewise_dominates(f: HNBundle, e: HNBundle) -> bool:
    """True when the HN polygon of f runs above that of e on [0, rank(e)]."""
    # Both polygons are linear between vertices, so it suffices to compare the
    # two slopes p/q on each stretch where neither polygon has a vertex, by
    # cross-multiplying: O(number of summands), whatever the ranks, and no
    # rank is read.  e_left and f_left are the units (q*m per summand) still
    # ahead of the last vertex.
    f_summands = iter(f._key)
    f_left = 0
    for ep, eq, em in e._key:
        e_left = eq * em
        while e_left:
            if not f_left:
                following = next(f_summands, None)
                if following is None:
                    return False  # F runs out while E still has units: rank(e) > rank(f)
                fp, fq, fm = following
                f_left = fq * fm
            if ep * fq > fp * eq:
                return False
            if e_left < f_left:
                f_left -= e_left
                break
            e_left -= f_left
            f_left = 0
    return True


def dominators(keys: Sequence[tuple[tuple[int, int, int], ...]]) -> list[int]:
    """Slopewise dominance in bulk: bit U of entry L is set when bundle U dominates bundle L.

    The bundles are given by their keys.  The unit slopes of a polygon never
    increase, and L's are constant along each summand, so U dominates L
    exactly when, at the last unit r of each summand p/q of L, U's r-th
    unit slope is at least p/q (U has none when rank(U) < r): the rank
    condition at L's own slopes.  One scan of the keys per distinct such r
    buckets the bundles by their r-th unit slope; a running OR from the top
    slope down turns the buckets into threshold masks, and each bundle ANDs
    one mask per summand.  O(distinct r * bundles * summands) integer work
    and len(keys)**2 bits, whatever the ranks.
    """
    slopes = sorted({(p, q) for key in keys for p, q, _ in key}, key=_DESCENDING)
    index = {slope: i for i, slope in enumerate(slopes)}
    # Each bundle's vertices: (r, the index of the summand's slope) at the end of each summand.
    vertices = []
    for key in keys:
        r, ends = 0, []
        for p, q, m in key:
            r += q * m
            ends.append((r, index[p, q]))
        vertices.append(ends)
    at_least = {}  # r -> by slope index i, the mask of U whose r-th unit slope is >= slopes[i]
    for r in {r for ends in vertices for r, _ in ends}:
        buckets = [0] * len(slopes)
        for u, ends in enumerate(vertices):
            for end, i in ends:
                if end >= r:
                    buckets[i] |= 1 << u
                    break
        at_least[r] = list(accumulate(buckets, or_))
    everyone = (1 << len(keys)) - 1
    return [reduce(and_, [at_least[r][i] for r, i in ends], everyone) for ends in vertices]


def is_subbundle(e: HNBundle, f: HNBundle) -> bool:
    """Whether there is an injective bundle map e -> f; its cokernel may have torsion.

    The image need not be saturated (a direct summand locally): O(-1) is a
    subbundle of O in this sense, and so is every line bundle of smaller
    slope.
    """
    return slopewise_dominates(f, e)


def is_quotient(q: HNBundle, e: HNBundle) -> bool:
    """Whether dual(e) slopewise dominates dual(q): necessary for q to be a quotient of e.

    Not sufficient (see the module docstring for two false positives); the
    checks read it only as a necessary condition on candidate images.
    """
    return slopewise_dominates(e.dual(), q.dual())


def strip_common_slopes(e: HNBundle, f: HNBundle) -> tuple[HNBundle, HNBundle, HNBundle]:
    """Split off the maximal common direct summand supported on shared slopes.

    Returns (U, E', F') with e = U + E', f = U + F', where U takes the
    slopewise minimum of the multiplicities of the shared slopes; E' and F'
    share no slope, and the subbundle criterion holds for (e, f) exactly
    when it holds for (E', F').
    """
    theirs = {(p, q): m for p, q, m in f._key}
    common = _trusted(tuple([(p, q, min(m, theirs[p, q]))
                             for p, q, m in e._key if (p, q) in theirs]))
    return common, summand_difference(e, common), summand_difference(f, common)


def hn_common_prefix(a: HNBundle, b: HNBundle) -> HNBundle:
    """Largest initial portion shared by the HN polygons of a and b.

    It is the M of :func:`_prefix_split`, the one common-prefix
    decomposition, which ``degeneration.decompose_mrs`` also reads.
    """
    return _trusted(_prefix_split(a._key, b._key)[0])


_Key = tuple[tuple[int, int, int], ...]


def _prefix_split(a: _Key, b: _Key) -> tuple[_Key, _Key, _Key]:
    """The keys of M, A - M and B - M, where M is the common HN polygon prefix of A and B.

    A and B are given by their keys ``a`` and ``b``.  Leading summands are
    shared while they are equal; at the first pair where the slopes agree
    but the multiplicities differ, the smaller multiplicity is shared too
    and the larger keeps the rest.  One walk of the keys; the prefix is
    unique, so no tie-breaking arises.
    """
    i, shared = 0, min(len(a), len(b))
    while i < shared and a[i] == b[i]:
        i += 1
    if i < shared:
        (p, q, m), (p2, q2, n) = a[i], b[i]
        if p == p2 and q == q2:
            if m < n:
                return a[:i + 1], a[i + 1:], ((p, q, n - m),) + b[i + 1:]
            return b[:i + 1], ((p, q, m - n),) + a[i + 1:], b[i + 1:]
    return a[:i], a[i:], b[i:]
