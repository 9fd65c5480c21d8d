"""Enumeration of bundle universes and machine checks of every claimed law.

A universe is the finite set of canonical bundles whose rank and slopes fit
inside a :class:`UniverseSpec`.  The harness enumerates universes
exhaustively (or samples instances with a seeded generator), evaluates both
sides of every stated equivalence or inequality, and reports counterexamples
as replayable grammar strings.  Identical specs always produce identical
reports; counterexample lists are sorted canonically.

Checks:

* equivalence     - the rank-filtration condition agrees with slopewise
                    dominance on every ordered pair;
* oracles         - the cross-product degree calculus agrees with the
                    tensor-expansion route on every ordered pair;
* key-inequality  - every admissible triple (five named conditions, with
                    rank(Q) < rank(E)) has strictly positive codimension;
* degeneration    - every reduced triple traces to Q within the step bound
                    with all per-step structural invariants intact;
* stratification  - the top stratum dimension over candidate images equals
                    the Hom-space dimension and is attained at Q = E;
* invariance      - vertical stretch scales codimensions by the factor and
                    integer twists preserve them, over random triples.

Candidate images are an over-approximation by design: only the necessary
conditions (quotient of E, subbundle of F) are checked, which cannot create
false failures because extra candidates can only carry smaller strata.

Every check reads one :class:`Universe`: the pool (:func:`bundle_pool`),
each bundle's position in it, and tables by position that compute each
value at its first read and keep it, a row per first position:

* ``degrees`` - deg_nonneg(V, W), by W, then V;
* ``images``  - condition (iii), "F dominates Q", by F, then Q;
* ``terms``   - the F-free codimension term deg_nonneg(Q, Q) - deg_nonneg(V, Q),
                by V, then Q;
* ``nonneg``  - deg(V^{>=0}), by V, for degeneration's first-drop rule;
* ``steps``   - degeneration's chain step from the member V to Q, by Q,
                then V.

A ``verify_*`` call builds its own Universe; :func:`run_checks` builds one
per distinct spec and hands it to every check on that spec, so a run asks
each of these questions once, whichever checks read the answer.  The three
triple checks read one stream, :func:`_triple_groups`, each with its own
conditions; per triple only table lookups and the integer codimension
formulas of :mod:`hnbundles.degrees` remain, and no value is computed that a
per-triple check would not compute.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from math import floor
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .bundle import (HNBundle, InternalConsistencyError, PreconditionError, ZERO, _as_slope,
                     _link_duals)
from .criteria import rank_condition, slopewise_dominates
from . import degeneration
from .degeneration import (
    GENERAL_CONDITIONS,
    PAIR_CONDITIONS,
    QUOTIENT_CONDITIONS,
    REDUCED_CONDITIONS,
    SUBBUNDLE_CONDITIONS,
    ConditionSet,
    DecompositionTriple,
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
    exhaustive universe.
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
    return tuple(sorted(itertools.starmap(Fraction, _reduced_slopes(spec)), reverse=True))


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

    def rec(start: int, budget: int) -> Iterator[tuple[tuple[Fraction, int], ...]]:
        yield ()
        for idx in range(start, len(slopes)):
            width = widths[idx]
            if width > budget:
                continue
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


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)`` and keeps it, unless the fill raises."""

    __slots__ = ("_fill",)

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class Universe:
    """The pool of one spec, and every table the checks on it share, by position.

    ``members`` is the pool, then any chain member outside it (only a
    faulty engine makes one), placed by ``position(bundle)``, which
    returns the bundle's position; each table (see the module docstring)
    is a dict that fills a missing key from there.  ``by_rank`` lists the
    pool positions stably sorted by rank, and ``ranks`` their ranks.

    ``levels`` is the top-slope index: by pool position, the dense rank of
    mu_max among the pool's top slopes, and -1 for zero, so that two
    levels compare as their mu_max do.  For nonzero E, (i) "F dominates
    E" compares the polygons on [0, 1] first, so F is nonzero and
    mu_max(F) >= mu_max(E); (iv) "no common slope" rules out equality.
    So every F that passes both has a level above E's, and
    :func:`_triple_groups` skips every other F by that integer compare.
    Zero E keeps every F, zero included: every F dominates it and shares
    no slope with it.

    Dominance has no memo: each question is asked once per cell of the
    universe.  The pool's duals are linked first: each member whose dual is
    also a member gets that member as ``dual()``, so ``dual()`` builds no
    second copy, and the ``deg_nonneg`` memo, keyed by pool members, hits
    by identity, without an ``__eq__`` call.

    A row of ``images`` is a list by Q position that :func:`_triple_groups`
    fills with ``image_tests``, the tests of ``SUBBUNDLE_CONDITIONS``.  The
    fills look ``deg_nonneg`` up on this module at call time and the tests
    are bound when the universe is built, so a test or tracer that rebinds
    either before then sees every call.
    """

    def __init__(self, spec: UniverseSpec) -> None:
        self.spec = spec
        self.pool = pool = bundle_pool(spec)
        _link_duals(pool)
        self.members = members = list(pool)
        where = {bundle: i for i, bundle in enumerate(pool)}
        self.by_rank = sorted(range(len(pool)), key=lambda i: pool[i].rank)
        self.ranks = [pool[i].rank for i in self.by_rank]
        tops = sorted({bundle._key[0][:2] for bundle in pool if bundle._key},
                      key=lambda top: Fraction(*top))
        level = {top: i for i, top in enumerate(tops)}
        self.levels = [level[bundle._key[0][:2]] if bundle._key else -1 for bundle in pool]
        self.image_tests = [c.test for c in SUBBUNDLE_CONDITIONS]
        # List rows: Q is always a pool position; dict rows made warm rank-5 key-inequality slower.
        self.images = _Table(lambda f: [None] * len(pool))

        # The fills close over these locals, not over self, so a Universe forms no cycle.
        def position(bundle: HNBundle) -> int:
            i = where.get(bundle)
            if i is None:
                i = where[bundle] = len(members)
                members.append(bundle)
            return i

        def term(v: int, q: int) -> int:
            into_q = degrees[q]
            return image_term(into_q[q], into_q[v])

        self.degrees = degrees = _Table(
            lambda w: _Table(lambda v: deg_nonneg(members[v], members[w])))
        self.terms = _Table(lambda v: _Table(lambda q: term(v, q)))
        self.nonneg = _Table(lambda v: members[v].filter(0, ">=").degree)
        self.steps = _Table(lambda q: _Table(
            lambda v: _chain_step(members[v], members[q], position)))
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


def _report(name: str, count: int, cex: list[str], started: float,
            findings: list[str] | None = None) -> VerificationReport:
    return VerificationReport(
        name,
        count,
        tuple(sorted(cex)),
        time.perf_counter() - started,
        tuple(sorted(findings or [])),
    )


def _pair_stream(universe: Universe) -> Iterator[tuple[HNBundle, HNBundle]]:
    pool, spec = universe.pool, universe.spec
    if spec.sample_limit is None:
        yield from itertools.product(pool, repeat=2)
    else:
        rng = random.Random(spec.seed)
        for _ in range(spec.sample_limit):
            yield rng.choice(pool), rng.choice(pool)


def _equivalence(universe: Universe) -> VerificationReport:
    started = time.perf_counter()
    cex: list[str] = []
    count = 0
    for e, f in _pair_stream(universe):
        count += 1
        by_ranks = rank_condition(e, f)
        by_slopes = slopewise_dominates(f, e)
        if by_ranks != by_slopes:
            cex.append(f"E={e} F={f}: rank_condition={by_ranks} slopewise_dominates={by_slopes}")
    return _report("equivalence", count, cex, started)


def verify_equivalence(spec: UniverseSpec) -> VerificationReport:
    """rank_condition(E, F) agrees with slopewise_dominates(F, E) on all pairs."""
    return _equivalence(Universe(spec))


def _oracles(universe: Universe) -> VerificationReport:
    started = time.perf_counter()
    cex: list[str] = []
    count = 0
    for v, w in _pair_stream(universe):
        count += 1
        fast = deg_nonneg(v, w)
        slow = deg_nonneg_oracle(v, w)
        if fast != slow:
            cex.append(f"V={v} W={w}: cross-product={fast} tensor-route={slow}")
    return _report("oracles", count, cex, started)


def verify_oracles(spec: UniverseSpec) -> VerificationReport:
    """Cross-product degree calculus agrees with the tensor route on all pairs."""
    return _oracles(Universe(spec))


def _triple_groups(
    universe: Universe, conditions: ConditionSet, limit: int | None = None,
) -> Iterator[tuple[int, int, list[int]]]:
    """Every (E, F) meeting the E and (E, F) conditions, with the Q that complete its triples.

    E, F and Q are named by pool position.  E and F run over the pool in
    its order and Q over its rank order, so the flattened groups are the
    triples meeting every condition of ``conditions``, and (iii), in a
    fixed order.
    Each group of conditions is tested in the outermost loop that holds its
    bundles, in entry order up to the first that fails: the (E, Q) group
    filters the Q positions once per E, at E's first admissible F, and the
    (F, Q) group is read from the universe's ``images`` table.  Every
    admissible (E, F) is yielded, with an empty group when no Q completes
    it; the groups hold at most ``limit`` triples in all.  The test
    functions are bound once per call, so a caller that rebinds a
    condition set or one of its entries sees every call.

    For nonzero E, the universe's top-slope index skips every F whose
    level is not above E's before any pair condition is asked: by (i) and
    (iv), mu_max(F) > mu_max(E) for every admissible F (see
    :class:`Universe`).  The index is sound only because every condition
    set this stream reads holds ``PAIR_CONDITIONS``, (iv) and (i), in
    ``on_pair``.  It skips only pairs that those conditions reject, so the
    stream, its order and its ``limit`` prefixes are those of a scan of
    every F.
    """
    e_tests, pair_tests, quotient_tests = ([c.test for c in group] for group in conditions)
    pool, by_rank, ranks = universe.pool, universe.by_rank, universe.ranks
    images, image_tests, levels = universe.images, universe.image_tests, universe.levels
    positions = range(len(pool))
    remaining = limit
    for ei, e in enumerate(pool):
        if not all(test(e) for test in e_tests):
            continue
        quotients = None
        # Zero E (level -1) keeps every F, zero F included.
        bar = -2 if e.is_zero else levels[ei]
        for fi in itertools.compress(positions, map(bar.__lt__, levels)):
            f = pool[fi]
            for test in pair_tests:
                if not test(e, f):
                    break
            else:
                if quotients is None:
                    quotients = []
                    # Only a prune: every condition set holds (ii), which requires
                    # rank(Q) <= rank(E).
                    for qi in by_rank[:bisect_right(ranks, e.rank)]:
                        q = pool[qi]
                        for test in quotient_tests:
                            if not test(e, q):
                                break
                        else:
                            quotients.append(qi)
                row = images[fi]
                for qi in quotients:
                    if row[qi] is None:
                        q = pool[qi]
                        for test in image_tests:
                            if not test(f, q):
                                row[qi] = False
                                break
                        else:
                            row[qi] = True
                group = [qi for qi in quotients if row[qi]]
                if remaining is not None:
                    group = group[:remaining]
                    remaining -= len(group)
                yield ei, fi, group
                if remaining == 0:
                    return


def _key_inequality(universe: Universe) -> VerificationReport:
    started = time.perf_counter()
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
    return _report("key-inequality", count, cex, started)


def verify_key_inequality(spec: UniverseSpec) -> VerificationReport:
    """c_value > 0 on every triple satisfying the five general conditions."""
    return _key_inequality(Universe(spec))


class ChainStep(NamedTuple):
    """One step of the chains to one Q, from one member: everything about it that does not read F.

    ``decomposition`` is decompose_mrs(member, Q) and ``problems`` are the
    step's violations without their "step i" label.  ``following`` is the
    next member's position and ``degenerating`` whether dual(member)
    dominates its dual; both are None at Q, where the chain ends.
    """

    decomposition: DecompositionTriple
    problems: tuple[str, ...]
    following: int | None
    degenerating: bool | None


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

    ``position`` names the next member.  The chain functions look the
    engine up on its module at call time, so a tracer or a test that
    rebinds it sees every call.
    """
    triple = degeneration.decompose_mrs(member, q)
    m, rr, s = triple.common, triple.q_complement, triple.e_complement
    bad = []
    if m.direct_sum(rr) != q.dual() or m.direct_sum(s) != member.dual():
        bad.append("decomposition does not reassemble the duals")
    else:
        if not slopewise_dominates(s, rr):
            bad.append(f"S={s} does not dominate R={rr}")
        if s.is_zero != rr.is_zero or s.is_zero != (member == q):
            bad.append("complement vanishing inconsistent")
        if s._key:
            # Slopes compared on the keys by cross-multiplying (denominators are positive).
            if not rr._key:  # what reading rr.mu_max raises
                raise PreconditionError("mu_max of the zero bundle is undefined")
            (sp, sq, _), (rp, rq, _) = s._key[0], rr._key[0]
            if sp * rq <= rp * sq:
                bad.append("mu_max(S) <= mu_max(R)")
            if m._key:
                mp, mq, _ = m._key[-1]
                if mp * sq < sp * mq:
                    bad.append("mu_min(M) < mu_max(S)")
    if member == q:
        return ChainStep(triple, tuple(bad), None, None)
    following = degeneration._next_member(triple)
    return ChainStep(triple, tuple(bad), position(following),
                     slopewise_dominates(member.dual(), following.dual()))


def _chain_start(universe: Universe, e: HNBundle) -> tuple[int, bool]:
    """E_1's position and whether dual(E) dominates dual(E_1); raises what build_e1 raises."""
    e1 = degeneration.build_e1(e)
    return universe.position(e1), slopewise_dominates(e.dual(), e1.dual())


def _chain(universe: Universe, starts: _Table, ei: int, qi: int) -> ChainCheck:
    """Walk the chain of (E, Q) from E_1, ``starts[ei]``, and check it without F."""
    members = universe.members
    e, q = members[ei], members[qi]
    try:
        first, degenerating = starts[ei]
        walk, walked = degeneration.walk_chain(
            e, q, first, qi, universe.steps[qi].__getitem__, attrgetter("following"))
    except (PreconditionError, InternalConsistencyError) as exc:
        return ChainCheck((), (), None, (f"trace failed: {exc}",), ())
    positions = (ei, *walk)
    chain = tuple(members[i] for i in positions)
    bad: list[str] = []
    if chain[0] != e or chain[-1] != q:
        bad.append("chain endpoints wrong")
    if len(walked) != len(walk):
        bad.append("trace lengths inconsistent")
    if any(member.rank != q.rank for member in chain[1:]):
        bad.append("rank plateau broken")
    for i, step in enumerate(walked, 1):
        bad.extend(f"step {i}: {problem}" for problem in step.problems)
    notes = [] if degenerating else ["dual chain not degenerating at step 0"]
    notes.extend(f"dual chain not degenerating at step {i}"
                 for i, step in enumerate(walked[:-1], 1) if not step.degenerating)
    terms = tuple(universe.terms[i][qi] for i in positions)
    return ChainCheck(positions, terms, tuple(walked), tuple(bad), tuple(notes))


def _codimension_problems(members: list[HNBundle], fi: int, qi: int, checked: ChainCheck,
                          into_f: dict[int, int], first_drop: int) -> list[str]:
    """Compute and re-check the codimensions of the triple (E, F, Q) along its chain.

    ``into_f`` is F's row of the universe's ``degrees``, deg_nonneg(V, F)
    by V's position, and ``first_drop`` is deg(F^{>=0}) - deg(Q^{>=0}).
    """
    steps, f = checked.steps, members[fi]
    qf_degree = into_f[qi]
    c = [codimension(into_f[i], term, qf_degree)
         for i, term in zip(checked.positions, checked.terms)]
    bad: list[str] = []
    r = len(steps)
    for i in range(r):
        if c[i] < c[i + 1]:
            bad.append(f"codimension increased along the chain: {c}")
            break
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
            s_dual = steps[i - 1].decomposition.e_complement.dual()
            if s_dual.rank != f.filter(s_dual.mu_min, ">").rank:
                bad.append(f"step {i}: codimension stalled without the rank equality")
    return bad


def _degeneration(universe: Universe) -> VerificationReport:
    started = time.perf_counter()
    pool = universe.pool
    cex: list[str] = []
    findings: list[str] = []
    count = 0
    # E_1 is built once per E, at E's first triple.
    starts = _Table(lambda ei: _chain_start(universe, pool[ei]))
    chains = _Table(lambda ei: _Table(partial(_chain, universe, starts, ei)))
    members, degrees, nonneg = universe.members, universe.degrees, universe.nonneg
    for ei, fi, group in _triple_groups(universe, REDUCED_CONDITIONS, universe.spec.sample_limit):
        if not group:
            continue
        count += len(group)
        from_e, into_f = chains[ei], degrees[fi]
        for qi in group:
            checked = from_e[qi]
            bad, notes = checked.violations, checked.findings
            if checked.steps is not None:
                bad = (*bad, *_codimension_problems(members, fi, qi, checked, into_f,
                                                    nonneg[fi] - nonneg[qi]))
            if bad or notes:
                prefix = f"E={pool[ei]} F={pool[fi]} Q={pool[qi]}"
                cex.extend(f"{prefix}: {item}" for item in bad)
                findings.extend(f"{prefix}: {item}" for item in notes)
    return _report("degeneration", count, cex, started, findings)


def verify_degeneration(spec: UniverseSpec) -> VerificationReport:
    """Trace every reduced triple and re-check all chain invariants.

    The chain of a triple (E, F, Q) does not read F, so it is assembled once
    per (E, Q), and each step once per (member, Q), shared by every chain
    that reaches it.
    """
    return _degeneration(Universe(spec))


def _stratification(universe: Universe) -> VerificationReport:
    started = time.perf_counter()
    pool, degrees, terms = universe.pool, universe.degrees, universe.terms
    # Built at call time, so a test that rebinds a condition tuple sees every call.
    conditions = ConditionSet((), PAIR_CONDITIONS, QUOTIENT_CONDITIONS)
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
            q = pool[qi]
            dim = stratum_dimension(into_f[qi], from_e[qi])
            if dim < 0:
                cex.append(f"E={e} F={f} Q={q}: {_negative_stratum(e, f, q, dim)}")
                continue
            if best is None or dim > best:
                best = dim
            if q is e and dim != full:
                cex.append(f"E={e} F={f}: stratum at Q=E is {dim}, dim hom is {full}")
            if q.rank < e_rank and dim >= full:
                cex.append(f"E={e} F={f} Q={q}: smaller-rank stratum {dim} "
                           f"reaches dim hom {full}")
        if best != full:
            cex.append(f"E={e} F={f}: top stratum {best} != dim hom {full}")
    return _report("stratification", count, cex, started)


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
    return _stratification(Universe(spec))


def _invariance(universe: Universe) -> VerificationReport:
    started = time.perf_counter()
    pool, spec = universe.pool, universe.spec
    rng = random.Random(spec.seed)
    trials = spec.sample_limit if spec.sample_limit is not None else 1000
    cex: list[str] = []
    for _ in range(trials):
        e, f, q = (rng.choice(pool) for _ in range(3))
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
    return _report("invariance", trials, cex, started)


def verify_invariance(spec: UniverseSpec) -> VerificationReport:
    """Stretch scales degrees and codimensions by C; integer twists fix them."""
    return _invariance(Universe(spec))


# name -> (check on a Universe, desk-scale default spec)
CHECKS: dict[str, tuple[Callable[[Universe], VerificationReport], UniverseSpec]] = {
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

    Checks on the same spec share one :class:`Universe`.  A report's
    ``elapsed`` covers its check alone, not the enumeration.
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
        reports.append(check(universes[chosen]))
    return reports
