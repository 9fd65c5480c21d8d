"""Enumeration of bundle universes and machine checks of every claimed law.

A universe is the finite set of canonical bundles whose rank and slopes fit
inside a :class:`UniverseSpec`.  The harness enumerates universes
exhaustively (or samples instances with a seeded generator), evaluates both
sides of every stated equivalence or inequality, and reports counterexamples
as replayable grammar strings.  Identical specs always produce identical
reports; counterexample lists are sorted canonically.

Checks:

* equivalence     - the rank-filtration condition, slopewise dominance
                    and the universe's bulk dominance relation agree on
                    every ordered pair;
* oracles         - the cross-product degree calculus agrees with the
                    tensor-expansion route on every ordered pair;
* key-inequality  - every admissible triple (five named conditions, with
                    rank(Q) < rank(E)) has strictly positive codimension;
* degeneration    - every reduced triple traces to Q within the step bound
                    with all per-step structural invariants intact;
* stratification  - the top stratum dimension over candidate images equals
                    the Hom-space dimension and is attained at Q = E;
* invariance      - vertical stretch scales codimensions by the factor and
                    integer twists preserve them, over random triples (or
                    every triple of a universe of at most 1,000).

Candidate images are an over-approximation by design: only the necessary
conditions (quotient of E, subbundle of F) are checked, which cannot create
false failures because extra candidates can only carry smaller strata.

Every check reads one :class:`Universe`: the pool (:func:`bundle_pool`),
each bundle's position in it, the dominance relations among its members,
built once, and tables by position that compute each value at its first
read and keep it, a row per first position.  Each row of ``degrees``,
``terms`` and ``steps`` is a small ``dict`` subclass whose ``__missing__``
computes a cell in one frame:

* ``degrees`` - deg_nonneg(V, W), by W, then V;
* ``terms``   - the F-free codimension term deg_nonneg(Q, Q) - deg_nonneg(V, Q),
                by V, then Q;
* ``nonneg``  - deg(V^{>=0}), by V, for degeneration's first-drop rule,
                summed off V's key;
* ``steps``   - degeneration's chain step from the member V to Q, by Q,
                then V.

:func:`run_checks` is the one runner: it builds one Universe per distinct
spec and hands it to every check body on that spec, so a run asks each of
these questions once, whichever checks read the answer; it times each body
and builds its report.  ``verify_X(spec)`` is ``run_checks([X], spec)[0]``.
The three triple checks read one stream, :func:`_triple_groups`, each with
its own conditions; it reads the dominance conditions (i), (ii) and (iii)
off the universe's relations, and (iv), (v) and (vi) off their bulk forms
(a slope-sharing relation, the rank order and an integral mask), and asks
only the conditions on E, once per E.  So per triple only table lookups
and the integer codimension formulas of :mod:`hnbundles.degrees` remain,
and no value is computed that a per-triple check would not compute.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from math import floor
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .bundle import (HNBundle, InternalConsistencyError, PreconditionError, ZERO, _DESCENDING,
                     _as_slope, _dual_key, _sum_key)
from .criteria import dominators, rank_condition, slopewise_dominates
from . import degeneration
from .degeneration import (
    GENERAL_CONDITIONS,
    PAIR_CONDITIONS,
    QUOTIENT_CONDITIONS,
    REDUCED_CONDITIONS,
    SUBBUNDLE_CONDITIONS,
    ConditionSet,
    integral_members,
    slope_sharing,
)
from .degrees import (
    _negative_stratum, c_value, codimension, deg_nonneg, deg_nonneg_oracle, image_term,
    stratum_dimension,
)

__all__ = [
    "UniverseSpec",
    "PAIR_UNIVERSE",
    "TRIPLE_UNIVERSE",
    "Universe",
    "VerificationReport",
    "admissible_slopes",
    "enumerate_bundles",
    "bundle_pool",
    "enumerate_candidate_images",
    "CANDIDATE_POOL_LIMIT",
    "verify_equivalence",
    "verify_oracles",
    "verify_key_inequality",
    "verify_degeneration",
    "verify_stratification_dimension",
    "verify_invariance",
    "CHECKS",
    "run_checks",
]


@dataclass(frozen=True)
class UniverseSpec:
    """Bounds of a finite bundle universe plus sampling controls.

    Enumeration covers every canonical bundle with rank <= max_rank whose
    slopes lie in [slope_min, slope_max] with denominator <=
    max_denominator.  When ``sample_limit`` is set, verification runs check
    that many seeded random instances (for the total properties) or the
    first that many admissible instances (for the filtered ones) instead of
    the full product; sampled instances are always drawn from the
    exhaustive universe.  A random sample larger than the universe's own
    count (pool² ordered pairs, or pool³ triples for invariance) raises
    :class:`PreconditionError` before the first draw.
    """

    max_rank: int = 4
    slope_min: Fraction = Fraction(-2)
    slope_max: Fraction = Fraction(2)
    max_denominator: int = 2
    sample_limit: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope_min", Fraction(*_as_slope(self.slope_min)))
        object.__setattr__(self, "slope_max", Fraction(*_as_slope(self.slope_max)))
        for name in ("max_rank", "max_denominator", "sample_limit", "seed"):
            value = getattr(self, name)
            if value is None and name == "sample_limit":
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if self.max_denominator < 1:
            raise ValueError("max_denominator must be >= 1")
        if self.slope_min > self.slope_max:
            raise ValueError("slope_min must not exceed slope_max")
        if self.sample_limit is not None and self.sample_limit < 1:
            raise ValueError("sample_limit must be >= 1 when given")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


PAIR_UNIVERSE = UniverseSpec(max_rank=4, slope_min=Fraction(-2), slope_max=Fraction(2), max_denominator=2)
TRIPLE_UNIVERSE = UniverseSpec(max_rank=4, slope_min=Fraction(-3), slope_max=Fraction(3), max_denominator=1)


def _reduced_slopes(spec: UniverseSpec) -> Iterator[tuple[int, int]]:
    """Every p/q in lowest terms in [slope_min, slope_max] with q <= max_denominator, by q, then p.

    The fractions come off the Stern-Brocot tree of the box shifted by an
    integer into [0, oo), every fraction but 0/1 once, in a heap by (q, p).
    A node is the open interval between two fractions and holds their
    mediant.  Where the box lies wholly on one side of a mediant, the
    descent takes every step to that side at once (a continued-fraction
    step), so each yield costs O(log max_denominator) nodes, however many
    q in between have no slope: a narrow box with a huge denominator bound
    is not walked q by q.
    """
    shift = floor(spec.slope_min)
    lo, hi = spec.slope_min - shift, spec.slope_max - shift  # 0 <= lo < 1
    lo_n, lo_d, hi_n, hi_d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    top = spec.max_denominator
    nodes: list[tuple[int, int, int, int, int, int]] = []

    def descend(a: int, b: int, c: int, d: int) -> None:
        # The interval (a/b, c/d) meets the box; find its first node whose mediant is inside.
        while b + d <= top:
            p, q = a + c, b + d
            if p * lo_d < lo_n * q:
                # Below the box: the largest k with (a + kc)/(b + kd) < lo.
                k = (lo_n * b - a * lo_d - 1) // (c * lo_d - lo_n * d)
                a, b = a + k * c, b + k * d
            elif p * hi_d > hi_n * q:
                # Above the box: the largest k with (ka + c)/(kb + d) > hi.
                k = (c * hi_d - hi_n * d - 1) // (hi_n * b - a * hi_d)
                c, d = c + k * a, d + k * b
            else:
                heapq.heappush(nodes, (q, p, a, b, c, d))
                return

    if lo_n == 0:
        yield shift, 1
    if hi_n > 0:
        descend(0, 1, 1, 0)
    while nodes:
        q, p, a, b, c, d = heapq.heappop(nodes)
        yield p + shift * q, q
        if p * lo_d > lo_n * q:
            descend(a, b, p, q)
        if p * hi_d < hi_n * q:
            descend(p, q, c, d)


def admissible_slopes(spec: UniverseSpec) -> tuple[Fraction, ...]:
    """All reduced slopes inside the universe bounds, in descending order."""
    return tuple(itertools.starmap(Fraction, sorted(_reduced_slopes(spec), key=_DESCENDING)))


def _member_spec(spec: UniverseSpec) -> UniverseSpec:
    """``spec`` with the denominators its bundles can use: q <= max_rank, as O(p/q) has rank q."""
    return replace(spec, max_denominator=min(spec.max_denominator, spec.max_rank))


def enumerate_bundles(spec: UniverseSpec, include_zero: bool = False) -> Iterator[HNBundle]:
    """Every canonical bundle of the universe, once, in deterministic order.

    The stream is always exhaustive; ``sample_limit`` only affects how the
    verification runs draw instances from it.
    """
    slopes = admissible_slopes(_member_spec(spec))
    widths = [lam.denominator for lam in slopes]
    widest = max(widths, default=1)
    # By budget, up to the widest slope, the ascending positions of the slopes that fit it,
    # so that a frame steps past every slope too wide for its budget by index.
    fitting = _Table(lambda budget: [i for i, width in enumerate(widths) if width <= budget])

    def rec(start: int, budget: int) -> Iterator[tuple[tuple[Fraction, int], ...]]:
        yield ()
        candidates = fitting[min(budget, widest)]
        for k in range(bisect_left(candidates, start), len(candidates)):
            idx = candidates[k]
            width = widths[idx]
            for mult in range(1, budget // width + 1):
                head = ((slopes[idx], mult),)
                for tail in rec(idx + 1, budget - mult * width):
                    yield head + tail

    if include_zero:
        yield ZERO
    for combo in rec(0, spec.max_rank):
        if combo:
            yield HNBundle(combo)


# Largest pool any check, ``hnb images`` or ``hnb enumerate`` reads.  The default
# ``hnb images`` pool roughly doubles with every +1 of rank(E): 394 bundles at
# rank 6, 1,701 at rank 8, 6,576 at rank 10; the cap stops it at rank 10
# instead of never.
CANDIDATE_POOL_LIMIT = 5_000


def bundle_pool(spec: UniverseSpec) -> list[HNBundle]:
    """Zero, then every bundle of the universe in enumeration order.

    Every check and every command that lists a universe reads it through
    this function.  A universe of more than :data:`CANDIDATE_POOL_LIMIT`
    bundles raises :class:`PreconditionError` as soon as the enumeration
    passes the cap, or before it starts when the slopes alone pass it:
    each slope p/q is a member, O(p/q), besides zero.
    """
    slopes = _reduced_slopes(_member_spec(spec))
    if next(itertools.islice(slopes, CANDIDATE_POOL_LIMIT - 1, None), None) is None:
        pool = list(itertools.islice(enumerate_bundles(spec, include_zero=True),
                                     CANDIDATE_POOL_LIMIT + 1))
        if len(pool) <= CANDIDATE_POOL_LIMIT:
            return pool
    raise PreconditionError(f"bundle pool exceeds the cap of {CANDIDATE_POOL_LIMIT} bundles")


def enumerate_candidate_images(e: HNBundle, f: HNBundle, spec: UniverseSpec) -> Iterator[HNBundle]:
    """Universe members satisfying the necessary conditions for a nonempty stratum.

    Yields every Q in the universe (zero included) that is a candidate
    image of a map e -> f: Q is a quotient of e (dual dominance) and a
    subbundle of f, forcing rank(Q) <= rank(e).  Necessary-only: candidacy
    does not certify that the stratum is nonempty.  A universe of more
    than :data:`CANDIDATE_POOL_LIMIT` bundles raises
    :class:`PreconditionError` before any candidate is yielded.
    """
    quotient_tests = [c.test for c in QUOTIENT_CONDITIONS]
    image_tests = [c.test for c in SUBBUNDLE_CONDITIONS]
    e_rank = e.rank
    for q in bundle_pool(spec):
        # The rank test is only a prune: (ii) already forces rank(Q) <= rank(E).
        if (q.rank <= e_rank and all(test(e, q) for test in quotient_tests)
                and all(test(f, q) for test in image_tests)):
            yield q


_BITS_TO_BYTES = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int, size: int) -> bytes:
    """Bits 0, ..., size - 1 of ``mask`` as one byte each: 1 where the bit is set, else 0."""
    return format(mask, f"0{size}b")[::-1].encode().translate(_BITS_TO_BYTES)


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)`` and keeps it, unless the fill raises."""

    __slots__ = ("_fill",)

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class _DegreeRow(dict):
    """W's row of ``Universe.degrees``: a missing V's cell is deg_nonneg(V, W), kept."""

    __slots__ = ("_pool", "_into")

    def __init__(self, pool: list[HNBundle], w: int) -> None:
        self._pool, self._into = pool, pool[w]

    def __missing__(self, v: int) -> int:
        value = self[v] = deg_nonneg(self._pool[v], self._into)
        return value


class _TermRow(dict):
    """V's row of ``Universe.terms``: a missing Q's cell is its image term, kept."""

    __slots__ = ("_degrees", "_v")

    def __init__(self, degrees: _Table, v: int) -> None:
        self._degrees, self._v = degrees, v

    def __missing__(self, q: int) -> int:
        into_q = self._degrees[q]
        value = self[q] = image_term(into_q[q], into_q[self._v])
        return value


class _StepRow(dict):
    """Q's row of ``Universe.steps``: a missing member's cell is its chain step, kept."""

    __slots__ = ("_pool", "_to", "_position")

    def __init__(self, pool: list[HNBundle], position: Callable[[HNBundle], int], q: int) -> None:
        self._pool, self._to, self._position = pool, pool[q], position

    def __missing__(self, v: int) -> ChainStep:
        value = self[v] = _chain_step(self._pool[v], self._to, self._position)
        return value


class Universe:
    """The pool of one spec, its dominance relations, and every table the checks on it share.

    :func:`run_checks` builds one per distinct spec, outside any check's clock.

    The universe is fixed when it is built.  From E_1 on, each member of
    the chain E = E_0, ..., E_r = Q of a reduced triple has rank(Q) and
    only slopes of E or Q, so it is a pool member.  ``position(bundle)``
    returns its pool position, found by its integer key, so a fresh bundle
    is neither hashed nor compared; a bundle outside the pool (only a
    faulty engine or enumeration makes one) raises
    :class:`InternalConsistencyError`, which fails every chain through it.
    Each table (see the module docstring) is a dict that fills a missing
    key by position; a row of ``degrees``, ``terms`` or ``steps``
    (:class:`_DegreeRow`, :class:`_TermRow`, :class:`_StepRow`) holds what
    its cells read and computes a missing cell in its own ``__missing__``.
    ``by_rank`` lists the pool positions stably sorted by rank, and
    ``ranks`` their ranks.

    ``dominators[L]`` is an int whose bit U is set when pool member U
    slopewise dominates L, and ``dual_dominators[L]`` the same over the
    duals, so its bit E says that L passes ``is_quotient(L, E)``; both are
    built once, from the keys (:func:`hnbundles.criteria.dominators`).
    ``dominator_flags[L]`` and ``dual_dominator_flags[L]`` decode a mask at
    its first read into one byte per pool position, 1 where the bit is set,
    so that a test of one cell is an index, not a shift of a pool-wide int.
    The triple stream reads dominance only from these, and so do the
    degeneration findings: a chain step from E_i degenerates when bit E_i
    of ``dual_dominators[E_{i+1}]`` is set.  ``slopewise_dominates`` is
    asked by the chain steps alone.  The ``equivalence`` check reads
    ``dominator_flags`` as its third route.

    The tables of conditions (iv) and (vi) are built once too, by the
    functions beside their entries in :mod:`hnbundles.degeneration`:
    ``sharing[E]``, whose bit F is set when E and F have a slope in common,
    and ``integral``, the mask of the members with integer slopes only.

    The ``degrees`` fills look ``deg_nonneg`` up on this module at call
    time, so a test or tracer that rebinds it sees every call.
    """

    def __init__(self, spec: UniverseSpec) -> None:
        self.spec = spec
        self.pool = pool = bundle_pool(spec)
        where = {bundle._key: i for i, bundle in enumerate(pool)}
        self.by_rank = sorted(range(len(pool)), key=lambda i: pool[i].rank)
        self.ranks = [pool[i].rank for i in self.by_rank]
        keys = [bundle._key for bundle in pool]
        self.dominators = dominating = dominators(keys)
        self.dual_dominators = dual_dominating = dominators([_dual_key(key) for key in keys])
        self.sharing = slope_sharing(keys)
        self.integral = integral_members(pool)
        size = len(pool)
        self.dominator_flags = _Table(lambda i: _flags(dominating[i], size))
        self.dual_dominator_flags = _Table(lambda i: _flags(dual_dominating[i], size))

        # The fills close over these locals, not over self, so a Universe forms no cycle.
        def position(bundle: HNBundle) -> int:
            i = where.get(bundle._key)
            if i is None:
                raise InternalConsistencyError(f"chain member {bundle} lies outside the universe")
            return i

        self.degrees = degrees = _Table(partial(_DegreeRow, pool))
        self.terms = _Table(partial(_TermRow, degrees))
        # deg(V^{>=0}) off the key: the degrees p*m of the summands p/q with p >= 0.
        self.nonneg = _Table(lambda v: sum([p * m for p, _, m in pool[v]._key if p >= 0]))
        self.steps = _Table(partial(_StepRow, pool, position))
        self.position = position


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check; it passes exactly when no counterexamples exist.

    ``findings`` carries observations outside the claimed laws (currently
    only the dually-degenerating chain property); they never fail a run.
    """

    property_name: str
    instances_checked: int
    counterexamples: tuple[str, ...]
    elapsed: float
    findings: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status} {self.property_name}: {self.instances_checked} instances, "
            f"{len(self.counterexamples)} counterexamples, {self.elapsed:.2f}s"
        )
        if self.findings:
            line += f", {len(self.findings)} findings"
        return line

    def to_json_dict(self) -> dict:
        return {
            "property": self.property_name,
            "instances": self.instances_checked,
            "counterexamples": list(self.counterexamples),
            "elapsed": self.elapsed,
            "findings": list(self.findings),
            "passed": self.passed,
        }


# What a check body returns: (instances, counterexamples, findings); run_checks sorts the lists.
_Outcome = tuple[int, list[str], list[str]]


def _samples(universe: Universe, arity: int, what: str, default: int | None = None,
             rng: random.Random | None = None) -> tuple[int, Iterable[tuple[int, ...]]]:
    """How many ``arity``-tuples of the pool a check reads, and the tuples, as pool positions.

    Every tuple in product order, unless ``sample_limit`` is set or the
    universe holds more than ``default``; else that many lazy draws with
    replacement from ``rng`` (seeded by the spec when not given).  A
    ``sample_limit`` above the universe's count of ``what`` raises
    :class:`PreconditionError` before the first draw, since the draws'
    cost grows with it and not with the universe.
    """
    positions, spec = range(len(universe.pool)), universe.spec
    total, draws = len(positions) ** arity, spec.sample_limit
    if draws is None:
        if default is None or total <= default:
            return total, itertools.product(positions, repeat=arity)
        draws = default
    elif draws > total:
        raise PreconditionError(f"a sample of {draws} exceeds the universe's {total} {what}")
    rng = rng or random.Random(spec.seed)
    return draws, (tuple(rng.choice(positions) for _ in range(arity)) for _ in range(draws))


def _equivalence(universe: Universe) -> _Outcome:
    cex: list[str] = []
    pool, flags = universe.pool, universe.dominator_flags
    count, pairs = _samples(universe, 2, "ordered pairs")
    for ei, fi in pairs:
        e, f = pool[ei], pool[fi]
        by_ranks = rank_condition(e, f)
        by_slopes = slopewise_dominates(f, e)
        in_bulk = flags[ei][fi] == 1
        if not by_ranks == by_slopes == in_bulk:
            # Two of the three answers agree; the line names the route that does not.
            agreed = by_ranks + by_slopes + in_bulk >= 2
            route = ("rank_condition" if by_ranks != agreed
                     else "slopewise_dominates" if by_slopes != agreed else "dominators")
            cex.append(f"E={e} F={f}: {route} says {not agreed}, the other two routes {agreed}")
    return count, cex, []


def verify_equivalence(spec: UniverseSpec) -> VerificationReport:
    """rank_condition(E, F), slopewise_dominates(F, E) and the bulk relation agree on all pairs.

    The bulk relation is bit F of the universe's ``dominators[E]``, the
    one the triple checks read (i) and (iii) from.
    """
    return run_checks(["equivalence"], spec)[0]


def _oracles(universe: Universe) -> _Outcome:
    cex: list[str] = []
    pool = universe.pool
    count, pairs = _samples(universe, 2, "ordered pairs")
    for vi, wi in pairs:
        v, w = pool[vi], pool[wi]
        fast = deg_nonneg(v, w)
        slow = deg_nonneg_oracle(v, w)
        if fast != slow:
            cex.append(f"V={v} W={w}: cross-product={fast} tensor-route={slow}")
    return count, cex, []


def verify_oracles(spec: UniverseSpec) -> VerificationReport:
    """Cross-product degree calculus agrees with the tensor route on all pairs."""
    return run_checks(["oracles"], spec)[0]


def _triple_groups(
    universe: Universe, conditions: ConditionSet, limit: int | None = None,
) -> Iterator[tuple[int, int, list[int]]]:
    """Every (E, F) meeting the E and (E, F) conditions, with the Q that complete its triples.

    E, F and Q are named by pool position.  E and F run over the pool in
    its order and Q over its rank order, so the flattened groups are the
    triples meeting every condition of ``conditions``, and (i), (ii) and
    (iii), in a fixed order.
    Only the conditions on E are asked, through their tests, once per E, in
    entry order up to the first that fails.  Every other condition is read
    in bulk, never asked of a pair: the F of E are the set bits of
    ``dominators[E]`` (i), ANDed with each (E, F) condition's ``admits``
    mask, such as the complement of ``sharing[E]`` for (iv); the Q
    candidates of E are the slice of the rank order that (ii), which forces
    rank(Q) <= rank(E), and each (E, Q) condition's ``ranks`` admit, such
    as rank(Q) < rank(E) for (v), kept where bit E of
    ``dual_dominators[Q]`` (ii) and each (E, Q) ``admits`` mask are set;
    and the group of (E, F) is the candidates Q with bit F of
    ``dominators[Q]`` (iii).  Every admissible (E, F) is yielded, with an
    empty group when no Q completes it; the groups hold at most ``limit``
    triples in all.  The conditions are read once per call, so a caller
    that rebinds a condition set or one of its entries sees every read.
    """
    e_tests = [c.test for c in conditions.on_e]
    for c in (*conditions.on_pair, *conditions.on_quotient):
        if c.admits is None and c.ranks is None:
            raise ValueError(f"condition {c.name} has no bulk form")
    pair_masks = [c.admits for c in conditions.on_pair]
    quotient_masks = [c.admits for c in conditions.on_quotient if c.admits is not None]
    quotient_ranks = [c.ranks for c in conditions.on_quotient if c.ranks is not None]
    pool, by_rank, ranks = universe.pool, universe.by_rank, universe.ranks
    dominating, dominating_flags = universe.dominators, universe.dominator_flags
    dual_dominating = universe.dual_dominator_flags
    size = len(pool)
    positions = range(size)
    member_flags = _Table(lambda mask: _flags(mask, size))
    everyone = (1 << size) - 1
    remaining = limit
    for ei, e in enumerate(pool):
        if not all(test(e) for test in e_tests):
            continue
        admitted = dominating[ei]
        for admits in pair_masks:
            admitted &= admits(universe, ei)
        if not admitted:
            continue
        rank = e.rank
        low, high = 0, rank + 1
        for admitted_ranks in quotient_ranks:
            span = admitted_ranks(rank)
            low, high = max(low, span.start), min(high, span.stop)
        members = everyone
        for admits in quotient_masks:
            members &= admits(universe, ei)
        kept = member_flags[members]
        quotients = [qi for qi in by_rank[bisect_left(ranks, low):bisect_left(ranks, high)]
                     if dual_dominating[qi][ei] and kept[qi]]
        # Each Q's flags by F, looked up once per E.
        above = [dominating_flags[qi] for qi in quotients]
        for fi in itertools.compress(positions, _flags(admitted, size)):
            group = list(itertools.compress(quotients, map(itemgetter(fi), above)))
            if remaining is not None:
                group = group[:remaining]
                remaining -= len(group)
            yield ei, fi, group
            if remaining == 0:
                return


def _key_inequality(universe: Universe) -> _Outcome:
    pool, degrees, terms = universe.pool, universe.degrees, universe.terms
    cex: list[str] = []
    count = 0
    for ei, fi, group in _triple_groups(universe, GENERAL_CONDITIONS, universe.spec.sample_limit):
        if not group:
            continue
        into_f, from_e = degrees[fi], terms[ei]
        ef_degree = into_f[ei]
        count += len(group)
        for qi in group:
            c = codimension(ef_degree, from_e[qi], into_f[qi])
            if c <= 0:
                cex.append(f"E={pool[ei]} F={pool[fi]} Q={pool[qi]}: c={c}")
    return count, cex, []


def verify_key_inequality(spec: UniverseSpec) -> VerificationReport:
    """c_value > 0 on every triple satisfying the five general conditions."""
    return run_checks(["key-inequality"], spec)[0]


class ChainStep(NamedTuple):
    """One step of the chains to one Q, from one member: what the checks read of it, without F.

    ``problems`` are the violations of decompose_mrs(member, Q) without
    their "step i" label; the decomposition itself is not kept, and no
    bundle a step builds (M, R, S and the next member) outlives it.
    ``following`` is the next member's pool position; it is None at Q,
    where the chain ends, and where the engine refuses to step on from a
    decomposition with problems, where the chain stops and reports them.
    Whether the dual chain degenerates at the step is not kept here: the
    chain reads it off the universe's dual relation.

    ``s_rank`` and ``s_top`` are the F-free half of the stall rule, as
    integers: rank(S), and mu_max(S) as its key's ``(p, q)``, None when S is
    zero.  dual(S) has the same rank and mu_min(dual(S)) = -p/q, so the rule
    compares ``s_rank`` with rank(F^{>-p/q}).
    """

    problems: tuple[str, ...]
    following: int | None
    s_rank: int
    s_top: tuple[int, int] | None


class ChainCheck(NamedTuple):
    """The chain of one (E, Q) and everything about it that does not read F.

    ``positions`` are those of E = E_0, E_1, ..., E_r = Q, ``terms`` their
    F-free terms with Q, and ``steps[i-1]`` is the step from E_i.  ``steps``
    is None when the chain could not be built, and ``violations`` then
    says why.
    """

    positions: tuple[int, ...]
    terms: tuple[int, ...]
    steps: tuple[ChainStep, ...] | None
    violations: tuple[str, ...]
    findings: tuple[str, ...]


def _chain_step(member: HNBundle, q: HNBundle, position: Callable[[HNBundle], int]) -> ChainStep:
    """Decompose (member, Q), check every invariant of the step that does not read F, and step on.

    ``position`` names the next member by its pool position, and raises
    for a member outside the pool.  The step's rules read the keys of the
    parts, and tell the member apart from Q by key.  The chain functions
    look the engine up on its module at call time, so a tracer or a test
    that rebinds it sees every call.
    """
    triple = degeneration.decompose_mrs(member, q)
    m, rr, s = triple.common, triple.q_complement, triple.e_complement
    m_key, r_key, s_key = m._key, rr._key, s._key
    at_q = member._key == q._key
    bad = []
    # Bundles are equal exactly when their keys are, so the sums are compared as keys, unbuilt.
    if _sum_key(m_key, r_key) != q.dual()._key or _sum_key(m_key, s_key) != member.dual()._key:
        bad.append("decomposition does not reassemble the duals")
    else:
        if not slopewise_dominates(s, rr):
            bad.append(f"S={s} does not dominate R={rr}")
        s_zero = not s_key
        if s_zero != (not r_key) or s_zero != at_q:
            bad.append("complement vanishing inconsistent")
        if s_key:
            # Slopes compared on the keys by cross-multiplying (denominators are positive).
            if not r_key:  # what reading rr.mu_max raises
                raise PreconditionError("mu_max of the zero bundle is undefined")
            (sp, sq, _), (rp, rq, _) = s_key[0], r_key[0]
            if sp * rq <= rp * sq:
                bad.append("mu_max(S) <= mu_max(R)")
            if m_key:
                mp, mq, _ = m_key[-1]
                if mp * sq < sp * mq:
                    bad.append("mu_min(M) < mu_max(S)")
    s_top = s_key[0][:2] if s_key else None
    # rank(S) off S's key: S is built for this step alone, so its rank property is never filled.
    s_rank = 0
    for _, width, mult in s_key:
        s_rank += width * mult
    following = None
    if not at_q:
        try:
            following = degeneration._next_member(triple)
        except PreconditionError:
            if not bad:
                raise
    return ChainStep(tuple(bad), None if following is None else position(following),
                     s_rank, s_top)


def _chain(universe: Universe, starts: _Table, ei: int, qi: int) -> ChainCheck:
    """Walk the chain of (E, Q) from E_1, ``starts[ei]``, and check it without F.

    The findings read the dual relation: step i degenerates when bit E_i
    of ``dual_dominators[E_{i+1}]`` is set.
    """
    pool = universe.pool
    e, q = pool[ei], pool[qi]
    try:
        walk, walked = degeneration.walk_chain(
            e, q, starts[ei], qi, universe.steps[qi].__getitem__, attrgetter("following"))
    except (PreconditionError, InternalConsistencyError) as exc:
        return ChainCheck((), (), None, (f"trace failed: {exc}",), ())
    positions = (ei, *walk)
    bad: list[str] = []
    # walk_chain decomposes each member once and ends at Q or at a step with problems.
    q_rank = q.rank
    for i in walk:
        if pool[i].rank != q_rank:
            bad.append("rank plateau broken")
            break
    for i, step in enumerate(walked, 1):
        for problem in step.problems:
            bad.append(f"step {i}: {problem}")
    if walk[-1] != qi:
        return ChainCheck((), (), None, tuple(bad), ())
    flags = universe.dual_dominator_flags
    notes = [f"dual chain not degenerating at step {i}"
             for i, (member, following) in enumerate(zip(positions, walk))
             if not flags[following][member]]
    terms = universe.terms
    return ChainCheck(positions, tuple([terms[i][qi] for i in positions]), tuple(walked),
                      tuple(bad), tuple(notes))


def _codimension_problems(pool: list[HNBundle], fi: int, qi: int, checked: ChainCheck,
                          into_f: dict[int, int], first_drop: int) -> list[str]:
    """Compute and re-check the codimensions of the triple (E, F, Q) along its chain.

    ``into_f`` is F's row of the universe's ``degrees``, deg_nonneg(V, F)
    by V's position, and ``first_drop`` is deg(F^{>=0}) - deg(Q^{>=0}).

    The stall rule, rank(dual(S)) = rank(F^{>mu_min(dual(S))}) wherever the
    codimension stalls at a member other than Q, reads the step's
    ``s_rank`` and ``s_top`` and sums rank(F^{>-p/q}) off F's key by
    cross-multiplying, as ``rank_condition`` does; no bundle is built.  A
    zero S there raises what reading mu_min(dual(S)) raises.
    """
    steps = checked.steps
    qf_degree = into_f[qi]
    c = []
    for i, term in zip(checked.positions, checked.terms):
        c.append(codimension(into_f[i], term, qf_degree))
    bad: list[str] = []
    r = len(steps)
    # Never increasing exactly when sorting it in descending order changes nothing.
    if c != sorted(c, reverse=True):
        bad.append(f"codimension increased along the chain: {c}")
    if c[-1] != 0:
        bad.append(f"endpoint codimension {c[-1]} != 0")
    if r >= 2 and not c[0] > c[2]:
        bad.append(f"no strict drop across the first two steps: {c}")
    if c[0] <= 0:
        bad.append(f"initial codimension {c[0]} not positive")
    if c[0] - c[1] != first_drop:
        bad.append(f"first-step drop {c[0] - c[1]} != deg(F)>=0 - deg(Q)>=0 = {first_drop}")
    for i in range(1, r):
        if c[i] == c[i + 1] and checked.positions[i] != qi:
            step = steps[i - 1]
            if step.s_top is None:
                raise PreconditionError("mu_min of the zero bundle is undefined")
            p, q = step.s_top
            # a/b > -p/q exactly when a*q > -p*b, since b, q > 0.
            if step.s_rank != sum([b * m for a, b, m in pool[fi]._key if a * q > -p * b]):
                bad.append(f"step {i}: codimension stalled without the rank equality")
    return bad


def _degeneration(universe: Universe) -> _Outcome:
    pool = universe.pool
    cex: list[str] = []
    findings: list[str] = []
    count = 0
    # E_1 is built once per E, at E's first triple, and named by its pool position.
    starts = _Table(lambda ei: universe.position(degeneration.build_e1(pool[ei])))
    degrees, nonneg = universe.degrees, universe.nonneg
    current = None
    for ei, fi, group in _triple_groups(universe, REDUCED_CONDITIONS, universe.spec.sample_limit):
        if not group:
            continue
        count += len(group)
        if ei != current:
            # The stream yields every group of one E before the next and never comes back,
            # so only the current E's chains, keyed by Q, are kept.
            current, from_e = ei, _Table(partial(_chain, universe, starts, ei))
        into_f = degrees[fi]
        for qi in group:
            checked = from_e[qi]
            bad, notes = checked.violations, checked.findings
            if checked.steps is not None:
                bad = (*bad, *_codimension_problems(pool, fi, qi, checked, into_f,
                                                    nonneg[fi] - nonneg[qi]))
            if bad or notes:
                prefix = f"E={pool[ei]} F={pool[fi]} Q={pool[qi]}"
                cex.extend(f"{prefix}: {item}" for item in bad)
                findings.extend(f"{prefix}: {item}" for item in notes)
    return count, cex, findings


def verify_degeneration(spec: UniverseSpec) -> VerificationReport:
    """Trace every reduced triple and re-check all chain invariants.

    The chain of a triple (E, F, Q) does not read F, so it is assembled once
    per (E, Q), and each step once per (member, Q), shared by every chain
    that reaches it.
    """
    return run_checks(["degeneration"], spec)[0]


def _stratification(universe: Universe) -> _Outcome:
    pool, degrees, terms = universe.pool, universe.degrees, universe.terms
    # Built at call time, so a test that rebinds a condition tuple sees every call.
    conditions = ConditionSet((), PAIR_CONDITIONS, ())
    cex: list[str] = []
    count = 0
    for ei, fi, group in itertools.islice(_triple_groups(universe, conditions),
                                          universe.spec.sample_limit):
        count += 1
        e, f = pool[ei], pool[fi]
        into_f, from_e = degrees[fi], terms[ei]
        full = into_f[ei]
        e_rank = e.rank
        best = None
        for qi in group:
            dim = stratum_dimension(into_f[qi], from_e[qi])
            if dim < 0:
                cex.append(f"E={e} F={f} Q={pool[qi]}: "
                           f"{_negative_stratum(e, f, pool[qi], dim)}")
                continue
            if best is None or dim > best:
                best = dim
            # Q = E has rank(E), so at most one of the two clauses applies.
            if qi == ei:
                if dim != full:
                    cex.append(f"E={e} F={f}: stratum at Q=E is {dim}, dim hom is {full}")
            elif dim >= full and pool[qi].rank < e_rank:
                cex.append(f"E={e} F={f} Q={pool[qi]}: smaller-rank stratum {dim} "
                           f"reaches dim hom {full}")
        if best != full:
            cex.append(f"E={e} F={f}: top stratum {best} != dim hom {full}")
    return count, cex, []


def verify_stratification_dimension(spec: UniverseSpec) -> VerificationReport:
    """Top stratum over candidate images equals dim hom, attained at Q = E.

    For every pair with no common slopes where F dominates E: the stratum
    at Q = E has the full Hom dimension, no candidate exceeds it, and
    (the key inequality in its stratum form) no candidate of strictly
    smaller rank attains it.  The pairs and their candidates come from the
    triple stream, read with (iv), (i), (ii) and (iii), zero included
    among E, F and Q; a pair without a candidate is counted and reported
    like any other.  With ``sample_limit`` set, the first that many pairs
    are checked, each against all of its candidates.
    """
    return run_checks(["stratification"], spec)[0]


# Triples the invariance check draws without ``sample_limit``; a universe of at most this
# many triples is checked whole instead, each triple once.
_INVARIANCE_TRIALS = 1000


def _invariance(universe: Universe) -> _Outcome:
    rng = random.Random(universe.spec.seed)
    # Each triple's draws precede its factor and shift.
    trials, triples = _samples(universe, 3, "triples", _INVARIANCE_TRIALS, rng)
    pool = universe.pool
    cex: list[str] = []
    for ei, fi, qi in triples:
        e, f, q = pool[ei], pool[fi], pool[qi]
        factor = rng.randint(1, 3)
        shift = rng.randint(-3, 3)
        prefix = f"E={e} F={f} Q={q}"
        base_pair = deg_nonneg(e, f)
        base_c = c_value(e, f, q)
        se, sf, sq = (v.vertical_stretch(factor) for v in (e, f, q))
        te, tf, tq = (v.twist(shift) for v in (e, f, q))
        if deg_nonneg(se, sf) != factor * base_pair:
            cex.append(f"{prefix}: stretch by {factor} broke the degree scaling")
        if deg_nonneg(te, tf) != base_pair:
            cex.append(f"{prefix}: twist by {shift} moved the degree")
        if c_value(se, sf, sq) != factor * base_c:
            cex.append(f"{prefix}: stretch by {factor} broke the codimension scaling")
        if c_value(te, tf, tq) != base_c:
            cex.append(f"{prefix}: twist by {shift} moved the codimension")
    return trials, cex, []


def verify_invariance(spec: UniverseSpec) -> VerificationReport:
    """Stretch scales degrees and codimensions by C; integer twists fix them.

    Without ``sample_limit``, 1,000 seeded triples are drawn, with
    replacement, or, when the universe has at most 1,000 triples, each
    triple is checked once, in product order; the factor and shift of
    every triple are seeded either way.
    """
    return run_checks(["invariance"], spec)[0]


# name -> (check body on a Universe, desk-scale default spec)
CHECKS: dict[str, tuple[Callable[[Universe], _Outcome], UniverseSpec]] = {
    "equivalence": (_equivalence, PAIR_UNIVERSE),
    "oracles": (_oracles, PAIR_UNIVERSE),
    "key-inequality": (_key_inequality, TRIPLE_UNIVERSE),
    "degeneration": (_degeneration, TRIPLE_UNIVERSE),
    "stratification": (_stratification, PAIR_UNIVERSE),
    "invariance": (_invariance, PAIR_UNIVERSE),
}


def run_checks(names: Iterable[str] | None = None,
               spec: UniverseSpec | None = None) -> list[VerificationReport]:
    """Run the named checks (all by default) on ``spec`` or desk-scale defaults.

    The one runner of every check: checks on the same spec share one
    :class:`Universe`, and each report is built here from its body's
    outcome, counterexamples and findings sorted.  A report's ``elapsed``
    covers its body alone, not the enumeration.
    """
    selected = list(names) if names is not None else list(CHECKS)
    universes: dict[UniverseSpec, Universe] = {}
    reports = []
    for name in selected:
        try:
            check, default_spec = CHECKS[name]
        except KeyError:
            raise ValueError(f"unknown check {name!r}; options: {', '.join(CHECKS)}")
        chosen = spec if spec is not None else default_spec
        if chosen not in universes:
            universes[chosen] = Universe(chosen)
        started = time.perf_counter()
        count, cex, findings = check(universes[chosen])
        elapsed = time.perf_counter() - started
        reports.append(VerificationReport(name, count, tuple(sorted(cex)), elapsed,
                                          tuple(sorted(findings))))
    return reports
