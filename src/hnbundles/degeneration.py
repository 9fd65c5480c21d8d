"""Degeneration engine: the constructive route to the codimension inequality.

For a reduced triple (E, F, Q) the engine builds a finite chain
E = E_0, E_1, ..., E_r = Q:

* E_1 peels one trivial summand O off E (possible since mu_max(E) = 0 and
  rank(Q) = rank(E) - 1), after which every chain member has rank(Q);
* each later step decomposes the duals of the current member and of Q into
  a shared HN polygon prefix M plus complements S (member side) and R
  (Q side), flattens the part of S above mu_max(R) down to mu_max(R)
  (the maximal slope reduction), and dualizes back.

The codimension c_value(E_i, F, Q) never increases along the chain, ends
at exactly 0, and drops strictly within the first two steps, which forces
c_value(E, F, Q) > 0.  The trace records every intermediate bundle, every
(M, R, S) decomposition, and every codimension so the harness can assert
each structural invariant per step.

A triple qualifies as *reduced* when seven individually named conditions
hold; ``normalize_triple`` turns any triple satisfying the five *general*
conditions into a reduced one by vertically stretching away denominators,
twisting the top slope of E to 0, and peeling trivial summands, recording
a transcript that ties the transformed codimension back to the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import lcm
from operator import or_
from typing import Any, Callable, NamedTuple, Sequence, TypeVar

from .bundle import (
    HNBundle,
    InternalConsistencyError,
    PreconditionError,
    _dual_key,
    _sum_key,
    _trusted,
    format_bundle,
)
from .criteria import _prefix_split, is_quotient, slopewise_dominates
from .degrees import c_value

__all__ = [
    "DecompositionTriple",
    "DegenerationTrace",
    "NormalizationStep",
    "NormalizedTriple",
    "Condition",
    "ConditionSet",
    "GENERAL_CONDITIONS",
    "REDUCED_CONDITIONS",
    "PAIR_CONDITIONS",
    "EMBEDDING_CONDITIONS",
    "QUOTIENT_CONDITIONS",
    "SUBBUNDLE_CONDITIONS",
    "slope_sharing",
    "integral_members",
    "general_violations",
    "reduced_violations",
    "max_slope_reduction",
    "build_e1",
    "decompose_mrs",
    "degeneration_step",
    "walk_chain",
    "degeneration_chain",
    "degeneration_trace",
    "normalize_triple",
]


@dataclass(frozen=True)
class DecompositionTriple:
    """Shared prefix and complements of dual(Q) and dual(E_i).

    dual(Q) = common + q_complement and dual(E_i) = common + e_complement.
    The e_complement (S) slopewise dominates the q_complement (R); when S
    is nonzero, mu_max(S) > mu_max(R); when additionally the common part M
    is nonzero, mu_min(M) >= mu_max(S).
    """

    common: HNBundle
    q_complement: HNBundle
    e_complement: HNBundle

    def to_json_dict(self) -> dict:
        return {
            "M": format_bundle(self.common),
            "R": format_bundle(self.q_complement),
            "S": format_bundle(self.e_complement),
        }


@dataclass(frozen=True)
class DegenerationTrace:
    """Full record of one degenerating chain.

    ``chain[0]`` is E, ``chain[terminated_at]`` is Q, and every member from
    index 1 on has rank(Q).  ``steps[i-1]`` is the (M, R, S) decomposition
    of (chain[i], Q) for 1 <= i <= terminated_at; ``c_values[i]`` is the
    codimension of the Q-stratum for (chain[i], F, Q).
    """

    chain: tuple[HNBundle, ...]
    steps: tuple[DecompositionTriple, ...]
    c_values: tuple[int, ...]
    terminated_at: int

    def to_json_dict(self) -> dict:
        return {
            "chain": [format_bundle(v) for v in self.chain],
            "c": list(self.c_values),
            "steps": [step.to_json_dict() for step in self.steps],
        }


# ----------------------------------------------------------------------
# named admissibility conditions
#
# Each condition is stated once, as a (name, requirement, test) entry.  The
# entries are grouped by the bundles their test reads, so an enumeration can
# test each group in the outermost loop that already holds those bundles; an
# entry that reads E, F and Q one at a time is placed in the E, (E, F) and
# (E, Q) groups and reads the last bundle it is given.  Within a group the
# cheap tests come first.  The tests look dominance (and is_quotient) up as
# module globals at call time, so a tracer that rebinds them sees every call.
# An entry of the (E, F) or (E, Q) group also carries its bulk form, whose
# table, if it reads one, is built by the function beside the entry.

class Condition(NamedTuple):
    """A named condition: its requirement, its test on one triple, and its bulk form.

    ``test`` is the one per-triple statement.  A pair or quotient condition
    also has one bulk form, which asks nothing of a pair: ``admits(universe,
    ei)``, the bitmask of the pool positions it admits beside the E at
    position ``ei`` of a ``verify.Universe``, or ``ranks(rank)``, the range
    of ranks it admits beside an E of that rank.
    """

    name: str
    requirement: str
    test: Callable[..., bool]
    admits: Callable[[Any, int], int] | None = None
    ranks: Callable[[int], range] | None = None


class ConditionSet(NamedTuple):
    """Conditions on E alone, on the pair (E, F) and on (E, Q); every set also holds (i)-(iii).

    The three dominance conditions, ``EMBEDDING_CONDITIONS`` (i),
    ``QUOTIENT_CONDITIONS`` (ii) and ``SUBBUNDLE_CONDITIONS`` (iii), are the
    (E, F), (E, Q) and (F, Q) tests of every triple.  An enumeration reads
    them off a universe's dominance relations (``verify.Universe``);
    :meth:`violations` asks them through ``slopewise_dominates``.  An entry
    placed in several groups is one condition and is named once among the
    violations.
    """

    on_e: tuple[Condition, ...]
    on_pair: tuple[Condition, ...]
    on_quotient: tuple[Condition, ...]

    def violations(self, e: HNBundle, f: HNBundle, q: HNBundle) -> tuple[tuple[str, str], ...]:
        """The failing conditions as (name, requirement) pairs, sorted by name."""
        failed = [c for c in self.on_e if not c.test(e)]
        failed += [c for c in (*self.on_pair, *EMBEDDING_CONDITIONS) if not c.test(e, f)]
        failed += [c for c in (*self.on_quotient, *QUOTIENT_CONDITIONS) if not c.test(e, q)]
        failed += [c for c in SUBBUNDLE_CONDITIONS if not c.test(f, q)]
        return tuple(sorted({(c.name, c.requirement) for c in failed}))


_TOP_SLOPE_ZERO = Condition(
    "(vii)", "mu_max(E) must be 0", lambda e: not e.is_zero and e.mu_max == 0)


def integral_members(bundles: Sequence[HNBundle]) -> int:
    """(vi) in bulk: the bitmask of the bundles with integer slopes only, each asked once."""
    return sum([1 << i for i, v in enumerate(bundles) if v.has_integer_slopes()])


_INTEGER_SLOPES = Condition(
    "(vi)", "all slopes of E, F and Q must be integers",
    lambda *bundles: bundles[-1].has_integer_slopes(),
    admits=lambda universe, ei: universe.integral)


def slope_sharing(keys: Sequence[tuple[tuple[int, int, int], ...]]) -> list[int]:
    """(iv) in bulk: bit F of entry E is set when bundles E and F have a slope in common.

    The bundles are given by their keys, each read once: one mask per slope
    of the bundles that have it, then one OR of those masks per bundle.
    """
    having: dict[tuple[int, int], int] = {}
    for i, key in enumerate(keys):
        for p, q, _ in key:
            having[p, q] = having.get((p, q), 0) | 1 << i
    return [reduce(or_, [having[p, q] for p, q, _ in key], 0) for key in keys]


PAIR_CONDITIONS = (
    Condition("(iv)", "E and F must have no common slopes",
              lambda e, f: e.slope_pairs.isdisjoint(f.slope_pairs),
              admits=lambda universe, ei: ~universe.sharing[ei]),
)

# The dominance conditions, which every ConditionSet holds.  E is a subbundle of F ...
EMBEDDING_CONDITIONS = (
    Condition("(i)", "F must slopewise dominate E", lambda e, f: slopewise_dominates(f, e)),
)
# ... and Q, to be the image of a map E -> F, must be a quotient of E ...
QUOTIENT_CONDITIONS = (
    Condition("(ii)", "dual(E) must slopewise dominate dual(Q)", lambda e, q: is_quotient(q, e)),
)
# ... and a subbundle of F.
SUBBUNDLE_CONDITIONS = (
    Condition("(iii)", "F must slopewise dominate Q", lambda f, q: slopewise_dominates(f, q)),
)

GENERAL_CONDITIONS = ConditionSet((), PAIR_CONDITIONS, (
    Condition("(v)", "rank(Q) must be smaller than rank(E)", lambda e, q: q.rank < e.rank,
              ranks=range),
))

REDUCED_CONDITIONS = ConditionSet((_TOP_SLOPE_ZERO, _INTEGER_SLOPES), (
    _INTEGER_SLOPES, *PAIR_CONDITIONS,
), (
    Condition("(v)", "rank(Q) must equal rank(E) - 1", lambda e, q: q.rank == e.rank - 1,
              ranks=lambda rank: range(rank - 1, rank)),
    _INTEGER_SLOPES,
))


def general_violations(e: HNBundle, f: HNBundle, q: HNBundle) -> tuple[tuple[str, str], ...]:
    """Violated conditions among the five general ones, as (name, text) pairs."""
    return GENERAL_CONDITIONS.violations(e, f, q)


def reduced_violations(e: HNBundle, f: HNBundle, q: HNBundle) -> tuple[tuple[str, str], ...]:
    """Violated conditions among the seven reduced ones, as (name, text) pairs."""
    return REDUCED_CONDITIONS.violations(e, f, q)


def _require(violations: tuple[tuple[str, str], ...]) -> None:
    if violations:
        name, text = violations[0]
        raise PreconditionError(f"condition {name} violated: {text}", condition=name)


# ----------------------------------------------------------------------
# elementary moves

def max_slope_reduction(v: HNBundle, w: HNBundle) -> HNBundle:
    """Flatten every slope of v above mu_max(w) down to mu_max(w).

    Requires v, w nonzero with integer slopes and v slopewise dominating w.
    Rank is preserved, the result still dominates w, and the result equals
    v exactly when mu_max(v) = mu_max(w); v itself is then returned.
    The result's key comes from :func:`_reduced_key`, and only the returned
    bundle is built.
    """
    key = _reduced_key(v, w)
    return v if key is v._key else _trusted(key)


def _reduced_key(v: HNBundle, w: HNBundle) -> tuple[tuple[int, int, int], ...]:
    """The key of max_slope_reduction(v, w), v's own key when nothing is flattened.

    Checks that function's preconditions on the keys, reading no cached
    property of v or w, then reads the result off v's key: its summands
    above mu_max(w) are a prefix, each of rank equal to its multiplicity,
    so the result is one summand at mu_max(w) (that prefix's rank plus v's
    own multiplicity there) followed by v's summands below it.
    """
    key, bound = v._key, w._key
    if not (key and bound):
        raise PreconditionError("maximal slope reduction requires nonzero bundles")
    for summands in (key, bound):
        for _, q, _ in summands:
            if q != 1:
                raise PreconditionError("maximal slope reduction requires integer slopes")
    if not slopewise_dominates(v, w):
        raise PreconditionError(f"{v} does not slopewise dominate {w}")
    top = bound[0][0]  # mu_max(w), an integer
    cut = flattened = 0
    while cut < len(key) and key[cut][0] > top:
        flattened += key[cut][2]
        cut += 1
    if not flattened:
        return key
    if cut < len(key) and key[cut][0] == top:
        flattened += key[cut][2]
        cut += 1
    return ((top, 1, flattened), *key[cut:])


def build_e1(e: HNBundle) -> HNBundle:
    """Remove one copy of the trivial summand O; requires mu_max(e) = 0.

    Which copy is immaterial: the bundle is a canonical multiset, so there
    is exactly one result.  E's key leads with O's summand ``(0, 1, m)``;
    one unit comes off it, and E_1 is the one bundle built.
    """
    if not _TOP_SLOPE_ZERO.test(e):
        raise PreconditionError("peeling requires mu_max(E) = 0 (a trivial summand present)")
    (_, _, m), *rest = e._key
    return _trusted(((0, 1, m - 1), *rest) if m > 1 else tuple(rest))


def decompose_mrs(e_i: HNBundle, q: HNBundle) -> DecompositionTriple:
    """Split dual(q) and dual(e_i) along their common HN polygon prefix.

    Requires rank(e_i) = rank(q) and dual(e_i) slopewise dominating
    dual(q).  When e_i differs from q, both complements are nonzero.  The
    keys of M, R and S come from one walk of the two dual keys
    (:func:`hnbundles.criteria._prefix_split`), e_i is told apart from q by
    key, and the three parts are the only bundles built.
    """
    if e_i.rank != q.rank:
        raise PreconditionError(f"rank mismatch: rank({e_i}) != rank({q})")
    q_dual = q.dual()
    e_dual = e_i.dual()
    if not slopewise_dominates(e_dual, q_dual):
        raise PreconditionError(f"dual({e_i}) does not slopewise dominate dual({q})")
    common, q_rest, e_rest = _prefix_split(q_dual._key, e_dual._key)
    if not (q_rest and e_rest) and e_i._key != q._key:
        raise InternalConsistencyError(
            f"distinct bundles {e_i}, {q} produced an empty complement"
        )
    return DecompositionTriple(_trusted(common), _trusted(q_rest), _trusted(e_rest))


def _next_member(triple: DecompositionTriple) -> HNBundle:
    """dual(M + max_slope_reduction(S, R)) for the decomposition of a member other than Q.

    The reduction, the sum and the dual are taken on integer keys, so the
    next member is the one bundle built.
    """
    reduced = _reduced_key(triple.e_complement, triple.q_complement)
    return _trusted(_dual_key(_sum_key(triple.common._key, reduced)))


def degeneration_step(e_i: HNBundle, q: HNBundle) -> HNBundle:
    """One chain step: dual(M + max_slope_reduction(S, R)); fixes q."""
    if e_i == q:
        return q
    return _next_member(decompose_mrs(e_i, q))


# ----------------------------------------------------------------------
# full pipeline

# What walk_chain's caller names a chain member and a decomposition by.
Member = TypeVar("Member")
Decomposition = TypeVar("Decomposition")


def walk_chain(e: HNBundle, q: HNBundle, first: Member, last: Member,
               decompose: Callable[[Member], Decomposition],
               advance: Callable[[Decomposition], Member],
               ) -> tuple[list[Member], list[Decomposition]]:
    """The members E_1, ..., E_r = Q of the chain of (E, Q), and the decomposition of each.

    ``first`` and ``last`` stand for E_1 and Q, as bundles or as any labels
    of them: ``decompose(member)`` returns the (M, R, S) decomposition of
    (member, Q) and ``advance(decomposition)`` the member after one other
    than Q.  :func:`degeneration_chain` walks bundles; a caller that walks
    many chains to one Q can label the members and look up the steps it
    has already taken; its ``advance`` may return None to stop before ``last``.
    Raises an :class:`InternalConsistencyError` if the walk does not reach
    ``last`` within rank(Q) + 2 steps (impossible for admissible input: the
    rank of the shared prefix grows strictly at every non-terminal step and
    is bounded by rank(Q)).
    """
    members = [first]
    decompositions = []
    while True:
        member = members[-1]
        if member != last and len(members) >= q.rank + 2:
            raise InternalConsistencyError(
                f"chain for E={e}, Q={q} exceeded {q.rank + 2} steps"
            )
        decompositions.append(decompose(member))
        following = None if member == last else advance(decompositions[-1])
        if following is None:
            return members, decompositions
        members.append(following)


def degeneration_chain(
    e: HNBundle, q: HNBundle
) -> tuple[tuple[HNBundle, ...], tuple[DecompositionTriple, ...]]:
    """The chain E = E_0, ..., E_r = Q and the (M, R, S) decomposition of each E_i, i >= 1.

    F plays no part in the chain, so one chain serves every F of a reduced
    triple (E, F, Q); :func:`degeneration_trace` checks the named
    conditions first.  Raises whatever :func:`build_e1`,
    :func:`decompose_mrs` and :func:`walk_chain` raise.
    """
    members, steps = walk_chain(e, q, build_e1(e), q,
                                lambda member: decompose_mrs(member, q), _next_member)
    return (e, *members), tuple(steps)


def degeneration_trace(e: HNBundle, f: HNBundle, q: HNBundle) -> DegenerationTrace:
    """Build the full chain from a reduced triple, with decompositions and codimensions.

    Raises a named :class:`PreconditionError` when any of the seven reduced
    conditions fails, and otherwise whatever :func:`degeneration_chain` raises.
    """
    _require(reduced_violations(e, f, q))
    chain, steps = degeneration_chain(e, q)
    c_values = tuple(c_value(member, f, q) for member in chain)
    return DegenerationTrace(chain, steps, c_values, len(chain) - 1)


@dataclass(frozen=True)
class NormalizationStep:
    """One recorded transformation with the codimension after it.

    ``op`` is "stretch" (amount = the vertical factor C, codimension
    multiplied by C), "twist" (amount = the integer slope shift,
    codimension unchanged) or "peel" (amount = 1 rank removed from E;
    the codimension drops by deg(F)^{>=0} - deg(Q)^{>=0}).
    """

    op: str
    amount: int
    c_after: int

    def to_json_dict(self) -> dict:
        return {"op": self.op, "amount": self.amount, "c": self.c_after}


@dataclass(frozen=True)
class NormalizedTriple:
    e: HNBundle
    f: HNBundle
    q: HNBundle
    initial_c: int
    transcript: tuple[NormalizationStep, ...]


def normalize_triple(e: HNBundle, f: HNBundle, q: HNBundle) -> NormalizedTriple:
    """Reduce a triple satisfying the five general conditions to a reduced one.

    Pipeline: one vertical stretch by the least common denominator of all
    slopes (skipped when already integral), then alternately twist
    mu_max(E) to 0 and peel a trivial summand until rank(E) - rank(Q) = 1,
    then a final twist to restore mu_max(E) = 0.  Identity inputs produce
    an empty transcript.  Positivity of the final codimension implies
    positivity of the original one: stretches scale it by C >= 1, twists
    preserve it, and peels never increase it.
    """
    _require(general_violations(e, f, q))
    transcript: list[NormalizationStep] = []
    initial_c = c_value(e, f, q)

    denominators = [den for v in (e, f, q) for _, den in v.slope_pairs]
    factor = lcm(*denominators) if denominators else 1
    if factor > 1:
        e, f, q = (v.vertical_stretch(factor) for v in (e, f, q))
        transcript.append(NormalizationStep("stretch", factor, c_value(e, f, q)))

    def twist_to_zero() -> None:
        nonlocal e, f, q
        shift = -e.mu_max
        if shift:
            e, f, q = (v.twist(shift) for v in (e, f, q))
            transcript.append(NormalizationStep("twist", int(shift), c_value(e, f, q)))

    while e.rank - q.rank > 1:
        twist_to_zero()
        e = build_e1(e)
        transcript.append(NormalizationStep("peel", 1, c_value(e, f, q)))
    twist_to_zero()

    remaining = reduced_violations(e, f, q)
    if remaining:
        raise InternalConsistencyError(
            f"normalization left conditions {[name for name, _ in remaining]} unsatisfied"
        )
    return NormalizedTriple(e, f, q, initial_c, tuple(transcript))
