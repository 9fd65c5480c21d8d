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

from functools import lru_cache

from .bundle import HNBundle, _trusted, summand_difference

__all__ = [
    "rank_condition",
    "slopewise_dominates",
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


# No memo: a verify.Universe asks each question once per table cell, and a memo
# only kept its keys alive.  A zero-size lru_cache holds nothing and counts every
# call as a miss; it stays only for its cache_info() and cache_clear(), which the
# benchmark's cold-cache step reads, until that step stops reading lru_caches
# (ROADMAP items 3 and 10) and the decorator goes.
@lru_cache(maxsize=0)
def slopewise_dominates(f: HNBundle, e: HNBundle) -> bool:
    """True when the HN polygon of f runs above that of e on [0, rank(e)]."""
    if not e._key:
        return True
    if e.rank > f.rank:
        return False
    # Both polygons are linear between vertices, so it suffices to compare the
    # two segment slopes on each stretch where neither polygon has a vertex:
    # O(number of summands), whatever the ranks.  e_left and f_left are the
    # widths of the current segments still ahead of the last vertex.
    f_segments = iter(f.segment_vectors)
    f_rank, f_degree = next(f_segments)
    f_left = f_rank
    for e_rank, e_degree in e.segment_vectors:
        e_left = e_rank
        while True:
            if e_degree * f_rank > f_degree * e_rank:
                return False
            if e_left < f_left:
                f_left -= e_left
                break
            e_left -= f_left
            # F's segment ends here.  rank(e) <= rank(f), so F runs out only
            # where E does, after its last segment; the default is never compared.
            f_rank, f_degree = next(f_segments, (1, 0))
            f_left = f_rank
            if not e_left:
                break
    return True


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

    Leading (slope, multiplicity) pairs are consumed while they agree; at
    the first pair where the slopes agree but the multiplicities differ,
    the smaller multiplicity still belongs to the shared portion.  The
    prefix is unique, so no tie-breaking arises.
    """
    shared: list[tuple[int, int, int]] = []
    for (pa, qa, ma), (pb, qb, mb) in zip(a._key, b._key):
        if (pa, qa) != (pb, qb):
            break
        shared.append((pa, qa, min(ma, mb)))
        if ma != mb:
            break
    return _trusted(tuple(shared))
