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

Every check reads its universe through :func:`bundle_pool`.  The three
triple checks read one stream, :func:`_triple_groups`, each with its own
conditions, and name E, F, Q and every chain member by pool position.
Each does each piece of work in the outermost loop that holds the bundles
it reads, and keeps what it looks up by pool position, in lists local to
one call (a row per F is made at F's first read).  A group of conditions
is tested by a plain loop over its test functions, bound once per call,
in entry order, up to the first that fails:

* once per E      - the E conditions ((vii) and (vi) on E) and, at E's
                    first admissible F, the (E, Q) conditions ((v), (vi) on
                    Q and (ii)), which filter the Q positions of the
                    stream; degeneration builds E_1;
* once per (E, F) - the (E, F) conditions ((vi) on F, (iv) and (i)) and
                    deg_nonneg(E, F) (stratification: dim_hom);
* once per (E, Q) - the F-free codimension term image_term(E, Q) =
                    deg_nonneg(Q, Q) - deg_nonneg(E, Q), in all three
                    checks; degeneration also assembles the chain;
* once per (V, Q) - degeneration's chain step from the member V: its
                    (M, R, S) decomposition, the next member, its F-free
                    invariants and image_term(V, Q).  Every member after E
                    is a pool bundle, so chains from different E share
                    their steps by pool position;
* once per (V, F) - the (F, Q) condition (iii), for V = Q, in the stream's
                    row per F, and deg_nonneg(V, F), in a check's row per
                    F, for V = Q and (in degeneration) for E and every
                    chain member;
* once per Q or F - deg_nonneg(Q, Q), and degeneration's deg(F^{>=0}) and
                    deg(Q^{>=0}) for the first-drop rule;
* per triple      - list lookups and the codimension arithmetic.

So a cache key is hashed once per distinct pair a call reads, not once per
triple.  Each value is computed at its first use, so an E without an
admissible F costs nothing and no deg_nonneg pair is computed that a
per-triple check would not compute.
"""

from __future__ import annotations

import itertools
import random
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Callable, Iterable, Iterator, NamedTuple

from .bundle import HNBundle, InternalConsistencyError, PreconditionError, ZERO
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
from .degrees import c_value, deg_nonneg, deg_nonneg_oracle, dim_hom, image_term, stratum_dim

__all__ = [
    "UniverseSpec",
    "PAIR_UNIVERSE",
    "TRIPLE_UNIVERSE",
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
        object.__setattr__(self, "slope_min", Fraction(self.slope_min))
        object.__setattr__(self, "slope_max", Fraction(self.slope_max))
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


def admissible_slopes(spec: UniverseSpec) -> tuple[Fraction, ...]:
    """All reduced slopes inside the universe bounds, in descending order."""
    found: set[Fraction] = set()
    for q in range(1, spec.max_denominator + 1):
        for p in range(ceil(spec.slope_min * q), floor(spec.slope_max * q) + 1):
            lam = Fraction(p, q)
            if lam.denominator == q:
                found.add(lam)
    return tuple(sorted(found, reverse=True))


def enumerate_bundles(spec: UniverseSpec, include_zero: bool = False) -> Iterator[HNBundle]:
    """Every canonical bundle of the universe, once, in deterministic order.

    The stream is always exhaustive; ``sample_limit`` only affects how the
    verification runs draw instances from it.
    """
    slopes = admissible_slopes(spec)
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
    passes the cap.
    """
    pool = list(itertools.islice(enumerate_bundles(spec, include_zero=True),
                                 CANDIDATE_POOL_LIMIT + 1))
    if len(pool) > CANDIDATE_POOL_LIMIT:
        raise PreconditionError(f"bundle pool exceeds the cap of {CANDIDATE_POOL_LIMIT} bundles")
    return pool


def _holds(tests: list[Callable[..., bool]], *bundles: HNBundle) -> bool:
    """Whether every test holds of ``bundles``, asked in order up to the first that fails."""
    for test in tests:
        if not test(*bundles):
            return False
    return True


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
        if q.rank <= e_rank and _holds(quotient_tests, e, q) and _holds(image_tests, f, q):
            yield q


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


def _pair_stream(pool: list[HNBundle], spec: UniverseSpec) -> Iterator[tuple[HNBundle, HNBundle]]:
    if spec.sample_limit is None:
        yield from itertools.product(pool, repeat=2)
    else:
        rng = random.Random(spec.seed)
        for _ in range(spec.sample_limit):
            yield rng.choice(pool), rng.choice(pool)


def verify_equivalence(spec: UniverseSpec) -> VerificationReport:
    """rank_condition(E, F) agrees with slopewise_dominates(F, E) on all pairs."""
    started = time.perf_counter()
    pool = bundle_pool(spec)
    cex: list[str] = []
    count = 0
    for e, f in _pair_stream(pool, spec):
        count += 1
        by_ranks = rank_condition(e, f)
        by_slopes = slopewise_dominates(f, e)
        if by_ranks != by_slopes:
            cex.append(f"E={e} F={f}: rank_condition={by_ranks} slopewise_dominates={by_slopes}")
    return _report("equivalence", count, cex, started)


def verify_oracles(spec: UniverseSpec) -> VerificationReport:
    """Cross-product degree calculus agrees with the tensor route on all pairs."""
    started = time.perf_counter()
    pool = bundle_pool(spec)
    cex: list[str] = []
    count = 0
    for v, w in _pair_stream(pool, spec):
        count += 1
        fast = deg_nonneg(v, w)
        slow = deg_nonneg_oracle(v, w)
        if fast != slow:
            cex.append(f"V={v} W={w}: cross-product={fast} tensor-route={slow}")
    return _report("oracles", count, cex, started)


def _row(table: list[list | None], i: int, width: int) -> list:
    """Row ``i`` of a table by pool position, made with ``width`` empty cells when first read."""
    row = table[i]
    if row is None:
        row = table[i] = [None] * width
    return row


def _triple_groups(
    pool: list[HNBundle], conditions: ConditionSet, limit: int | None = None,
) -> Iterator[tuple[int, int, list[int]]]:
    """Every (E, F) meeting the E and (E, F) conditions, with the Q that complete its triples.

    E, F and Q are named by their position in ``pool``.  E and F run over
    the pool in its order and Q over it stably sorted by rank, so the
    flattened groups are the triples meeting every condition of
    ``conditions`` in a fixed order.  Each group of conditions is tested in
    the outermost loop that holds its bundles: the (E, Q) group filters the
    Q positions once per E, at E's first admissible F, so an E without one
    tests no Q; the (F, Q) group's verdicts are kept in one row per F, by Q
    position, made at F's first read, each cell filled at its first read,
    so a call tests each (F, Q) once.  Every admissible (E, F) is yielded,
    with an empty group when no Q completes it; the groups hold at most
    ``limit`` triples in all.

    The test functions of each group are bound once per call, so a caller
    that rebinds a condition set or one of its entries sees every call.  A
    group is tested by a plain loop over them in entry order, which stops
    at the first that fails; the (E, F) group, asked of every pair, is
    looped over inline, with no call per pair.
    """
    e_tests, pair_tests, quotient_tests, image_tests = (
        [c.test for c in group] for group in conditions)
    by_rank = sorted(range(len(pool)), key=lambda i: pool[i].rank)
    ranks = [pool[i].rank for i in by_rank]
    verdicts: list[list[bool | None] | None] = [None] * len(pool)
    remaining = limit
    for ei, e in enumerate(pool):
        if not _holds(e_tests, e):
            continue
        quotients = None
        for fi, f in enumerate(pool):
            for test in pair_tests:
                if not test(e, f):
                    break
            else:
                if quotients is None:
                    # Only a prune: every condition set holds (ii), which requires
                    # rank(Q) <= rank(E).
                    quotients = [qi for qi in by_rank[:bisect_right(ranks, e.rank)]
                                 if _holds(quotient_tests, e, pool[qi])]
                row = _row(verdicts, fi, len(pool))
                group = []
                for qi in quotients:
                    admitted = row[qi]
                    if admitted is None:
                        admitted = row[qi] = _holds(image_tests, f, pool[qi])
                    if admitted:
                        group.append(qi)
                if remaining is not None:
                    group = group[:remaining]
                    remaining -= len(group)
                yield ei, fi, group
                if remaining == 0:
                    return


def _admissible_triples(
    spec: UniverseSpec, conditions: ConditionSet
) -> Iterator[tuple[HNBundle, HNBundle, HNBundle]]:
    """The triples of the universe meeting every condition of ``conditions``, one by one.

    The same stream as :func:`_triple_groups` (which the checks read),
    with the positions resolved to bundles.
    """
    pool = bundle_pool(spec)
    for ei, fi, group in _triple_groups(pool, conditions):
        for qi in group:
            yield pool[ei], pool[fi], pool[qi]


def _image_term(e: HNBundle, q: HNBundle, qi: int, qq_degrees: list[int | None]) -> int:
    """image_term(E, Q), with deg_nonneg(Q, Q) kept in ``qq_degrees`` by Q position."""
    qq_degree = qq_degrees[qi]
    if qq_degree is None:
        qq_degree = qq_degrees[qi] = deg_nonneg(q, q)
    return image_term(e, q, qq_degree=qq_degree)


def verify_key_inequality(spec: UniverseSpec) -> VerificationReport:
    """c_value > 0 on every triple satisfying the five general conditions.

    Each degree c_value reads is looked up once per call: deg_nonneg(E, F)
    once per (E, F) group of the stream, deg_nonneg(Q, F) in a row per F
    and deg_nonneg(Q, Q) in one row, both by Q position, and the F-free
    term image_term(E, Q) in a row by Q position that is dropped when the
    next E starts (E is the stream's outermost loop).
    """
    started = time.perf_counter()
    pool = bundle_pool(spec)
    cex: list[str] = []
    count = 0
    qq_degrees: list[int | None] = [None] * len(pool)
    qf_degrees: list[list[int | None] | None] = [None] * len(pool)
    terms: list[int | None] = []
    current = None
    for ei, fi, group in _triple_groups(pool, GENERAL_CONDITIONS, spec.sample_limit):
        if not group:
            continue
        if ei != current:
            terms = [None] * len(pool)
            current = ei
        e, f, qf_row = pool[ei], pool[fi], _row(qf_degrees, fi, len(pool))
        ef_degree = deg_nonneg(e, f)
        count += len(group)
        for qi in group:
            q = pool[qi]
            term = terms[qi]
            if term is None:
                term = terms[qi] = _image_term(e, q, qi, qq_degrees)
            qf_degree = qf_row[qi]
            if qf_degree is None:
                qf_degree = qf_row[qi] = deg_nonneg(q, f)
            c = c_value(e, f, q, term=term, qf_degree=qf_degree, ef_degree=ef_degree)
            if c <= 0:
                cex.append(f"E={e} F={f} Q={q}: c={c}")
    return _report("key-inequality", count, cex, started)


@dataclass(slots=True)
class ChainStep:
    """One step of the chains to one Q, from one member: everything about it that does not read F.

    ``position`` is the member's pool position, ``decomposition`` is
    decompose_mrs(member, Q), ``term`` is image_term(member, Q), and
    ``problems`` are the step's violations without their "step i" label.
    ``following``, the position of the next member, and ``degenerating``,
    whether dual(member) slopewise dominates the next member's dual, are
    filled when a chain first walks on from the member, which never
    happens at Q.
    """

    position: int
    decomposition: DecompositionTriple
    term: int
    problems: tuple[str, ...]
    following: int | None = None
    degenerating: bool | None = None


class ChainCheck(NamedTuple):
    """The chain of one (E, Q) and everything about it that does not read F.

    ``steps[i-1]`` is the step from E_i, for E_1, ..., E_r = Q, and
    ``term`` is image_term(E, Q).  ``steps`` is None when the chain could
    not be built, and ``violations`` then says why.
    """

    steps: tuple[ChainStep, ...] | None
    term: int
    violations: list[str]
    findings: list[str]


class _ChainSteps:
    """The degeneration chains of one check call, walked through steps kept by (member, Q) position.

    A chain member after E has rank(Q) and slopes of E or Q, so it lies in
    the pool and is named by its position there, which is also its cell in
    every row by pool position.  A member outside the pool, which only a
    faulty engine makes, gets the next free position and a cell in each of
    the ``rows``.  Each step is taken by the first chain that reaches its
    (member, Q); every later chain looks it up.  The engine's functions are
    looked up on its module at call time, so a tracer or a test that
    rebinds them sees every call.
    """

    def __init__(self, pool: list[HNBundle], qq_degrees: list[int | None],
                 rows: list[list[int | None]]) -> None:
        self.members = list(pool)
        self.where = {member: i for i, member in enumerate(pool)}
        self.qq_degrees = qq_degrees
        self.rows = rows
        self.steps: list[dict[int, ChainStep]] = [{} for _ in pool]

    def position(self, member: HNBundle) -> int:
        i = self.where.get(member)
        if i is None:
            i = self.where[member] = len(self.members)
            self.members.append(member)
            for row in self.rows:
                if row is not None:
                    row.append(None)
        return i

    def start(self, e: HNBundle) -> tuple[int, bool] | str:
        """E_1's position and whether dual(E) dominates dual(E_1), or why E_1 could not be built."""
        try:
            e1 = degeneration.build_e1(e)
        except (PreconditionError, InternalConsistencyError) as exc:
            return f"trace failed: {exc}"
        return self.position(e1), slopewise_dominates(e.dual(), e1.dual())

    def _step(self, i: int, q: HNBundle, qi: int) -> ChainStep:
        """Decompose (member, Q) and check every invariant of the step that does not read F."""
        member = self.members[i]
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
            if not s.is_zero and not s.mu_max > rr.mu_max:
                bad.append("mu_max(S) <= mu_max(R)")
            if not m.is_zero and not s.is_zero and not m.mu_min >= s.mu_max:
                bad.append("mu_min(M) < mu_max(S)")
        # image_term(Q, Q) is 0; computing it would read deg_nonneg(Q, Q) a second time.
        term = 0 if i == qi else _image_term(member, q, qi, self.qq_degrees)
        return ChainStep(i, triple, term, tuple(bad))

    def _advance(self, step: ChainStep) -> int:
        if step.following is None:
            following = degeneration._next_member(step.decomposition)
            member = self.members[step.position]
            step.degenerating = slopewise_dominates(member.dual(), following.dual())
            step.following = self.position(following)
        return step.following

    def chain(self, e: HNBundle, start: tuple[int, bool] | str, q: HNBundle, qi: int) -> ChainCheck:
        """Walk the chain of (E, Q) from ``start`` (see :meth:`start`) and check it without F."""
        if isinstance(start, str):
            return ChainCheck(None, 0, [start], [])
        first, degenerating = start
        steps = self.steps[qi]

        def decompose(i: int) -> ChainStep:
            step = steps.get(i)
            if step is None:
                step = steps[i] = self._step(i, q, qi)
            return step

        try:
            positions, walked = degeneration.walk_chain(e, q, first, qi, decompose, self._advance)
        except (PreconditionError, InternalConsistencyError) as exc:
            return ChainCheck(None, 0, [f"trace failed: {exc}"], [])
        chain = (e, *(self.members[i] for i in positions))
        bad: list[str] = []
        if chain[0] != e or chain[-1] != q:
            bad.append("chain endpoints wrong")
        if len(walked) != len(positions):
            bad.append("trace lengths inconsistent")
        if any(member.rank != q.rank for member in chain[1:]):
            bad.append("rank plateau broken")
        for i, step in enumerate(walked, 1):
            bad.extend(f"step {i}: {problem}" for problem in step.problems)
        notes = [] if degenerating else ["dual chain not degenerating at step 0"]
        notes.extend(f"dual chain not degenerating at step {i}"
                     for i, step in enumerate(walked[:-1], 1) if not step.degenerating)
        return ChainCheck(tuple(walked), _image_term(e, q, qi, self.qq_degrees), bad, notes)


def _codimension_problems(
    e: HNBundle, f: HNBundle, q: HNBundle, qi: int, checked: ChainCheck,
    members: list[HNBundle], ef_degree: int, qf_row: list[int | None], first_drop: int,
) -> list[str]:
    """Compute and re-check the codimensions of the triple (E, F, Q) along its chain.

    ``ef_degree`` is deg_nonneg(E, F); ``qf_row`` keeps deg_nonneg(V, F) by
    the position of V in ``members`` and already holds deg_nonneg(Q, F).
    ``first_drop`` is deg(F^{>=0}) - deg(Q^{>=0}).
    """
    bad: list[str] = []
    steps = checked.steps
    qf_degree = qf_row[qi]
    c = [c_value(e, f, q, term=checked.term, qf_degree=qf_degree, ef_degree=ef_degree)]
    for step in steps:
        i = step.position
        degree = qf_row[i]
        if degree is None:
            degree = qf_row[i] = deg_nonneg(members[i], f)
        c.append(c_value(members[i], f, q, term=step.term, qf_degree=qf_degree, ef_degree=degree))
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
        if c[i] == c[i + 1] and steps[i - 1].position != qi:
            s_dual = steps[i - 1].decomposition.e_complement.dual()
            if s_dual.rank != f.filter(s_dual.mu_min, ">").rank:
                bad.append(f"step {i}: codimension stalled without the rank equality")
    return bad


def verify_degeneration(spec: UniverseSpec) -> VerificationReport:
    """Trace every reduced triple and re-check all chain invariants.

    The chain of a triple (E, F, Q) does not read F.  Its members after E
    are pool bundles, named like E, F and Q by their pool position: E_1 is
    built once per E, and each later step - the (M, R, S) decomposition of
    (E_i, Q), the next member, the step's F-free invariants and
    image_term(E_i, Q) - is taken once per (E_i, Q) and shared by every
    chain that reaches it (:class:`_ChainSteps`).  A chain, with its
    violations and findings labelled by step, is assembled once per (E, Q)
    in a row by Q position that is dropped when the next E starts (E is
    the stream's outermost loop).  deg_nonneg(V, F) is kept in a row per F
    by V's position, for V = E, Q and every chain member, and
    deg_nonneg(Q, Q) in one row, so per triple only list lookups and the
    codimension checks remain.  deg(V^{>=0}) of the first-drop rule is
    kept in one row by pool position, for V = F and Q.
    """
    started = time.perf_counter()
    pool = bundle_pool(spec)
    cex: list[str] = []
    findings: list[str] = []
    count = 0
    qq_degrees: list[int | None] = [None] * len(pool)
    qf_degrees: list[list[int | None] | None] = [None] * len(pool)
    nonneg: list[int | None] = [None] * len(pool)
    walks = _ChainSteps(pool, qq_degrees, qf_degrees)
    members = walks.members
    chains: list[ChainCheck | None] = []
    current = start = None
    for ei, fi, group in _triple_groups(pool, REDUCED_CONDITIONS, spec.sample_limit):
        if not group:
            continue
        e, f, qf_row = pool[ei], pool[fi], _row(qf_degrees, fi, len(members))
        if ei != current:
            chains = [None] * len(pool)
            current, start = ei, walks.start(e)
        ef_degree = qf_row[ei]
        if ef_degree is None:
            ef_degree = qf_row[ei] = deg_nonneg(e, f)
        if nonneg[fi] is None:
            nonneg[fi] = f.filter(0, ">=").degree
        count += len(group)
        for qi in group:
            q = pool[qi]
            checked = chains[qi]
            if checked is None:
                checked = chains[qi] = walks.chain(e, start, q, qi)
            bad, notes = checked.violations, checked.findings
            if checked.steps is not None:
                if qf_row[qi] is None:
                    qf_row[qi] = deg_nonneg(q, f)
                if nonneg[qi] is None:
                    nonneg[qi] = q.filter(0, ">=").degree
                bad = bad + _codimension_problems(e, f, q, qi, checked, members, ef_degree,
                                                  qf_row, nonneg[fi] - nonneg[qi])
            if bad or notes:
                prefix = f"E={e} F={f} Q={q}"
                cex.extend(f"{prefix}: {item}" for item in bad)
                findings.extend(f"{prefix}: {item}" for item in notes)
    return _report("degeneration", count, cex, started, findings)


def verify_stratification_dimension(spec: UniverseSpec) -> VerificationReport:
    """Top stratum over candidate images equals dim hom, attained at Q = E.

    For every pair with no common slopes where F dominates E: the stratum
    at Q = E has the full Hom dimension, no candidate exceeds it, and
    (the key inequality in its stratum form) no candidate of strictly
    smaller rank attains it.  The pairs and their candidates come from the
    triple stream, read with (iv), (i), (ii) and (iii), zero included
    among E, F and Q; a pair without a candidate is counted and reported
    like any other.  With ``sample_limit`` set, the first that many pairs
    are checked, each against all of its candidates.  Everything else is
    kept by pool position and looked up once per call: deg_nonneg(Q, F) in
    a row per F, deg_nonneg(Q, Q) in one row, and the F-free term of each
    candidate's stratum dimension in a row per E.
    """
    started = time.perf_counter()
    pool = bundle_pool(spec)
    # Built at call time, so a test that rebinds a condition tuple sees every call.
    conditions = ConditionSet((), PAIR_CONDITIONS, QUOTIENT_CONDITIONS, SUBBUNDLE_CONDITIONS)
    cex: list[str] = []
    count = 0
    qq_degrees: list[int | None] = [None] * len(pool)
    qf_degrees: list[list[int | None] | None] = [None] * len(pool)
    terms: list[int | None] = []
    current = None
    for ei, fi, group in itertools.islice(_triple_groups(pool, conditions), spec.sample_limit):
        count += 1
        if ei != current:
            terms = [None] * len(pool)
            current = ei
        e, f, qf_row = pool[ei], pool[fi], _row(qf_degrees, fi, len(pool))
        full = dim_hom(e, f)
        e_rank = e.rank
        best = None
        for qi in group:
            q = pool[qi]
            term = terms[qi]
            if term is None:
                term = terms[qi] = _image_term(e, q, qi, qq_degrees)
            qf_degree = qf_row[qi]
            if qf_degree is None:
                qf_degree = qf_row[qi] = deg_nonneg(q, f)
            try:
                dim = stratum_dim(e, f, q, term=term, qf_degree=qf_degree)
            except InternalConsistencyError as exc:
                cex.append(f"E={e} F={f} Q={q}: {exc}")
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


def verify_invariance(spec: UniverseSpec) -> VerificationReport:
    """Stretch scales degrees and codimensions by C; integer twists fix them."""
    started = time.perf_counter()
    pool = bundle_pool(spec)
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


# name -> (runner, desk-scale default spec)
CHECKS: dict[str, tuple] = {
    "equivalence": (verify_equivalence, PAIR_UNIVERSE),
    "oracles": (verify_oracles, PAIR_UNIVERSE),
    "key-inequality": (verify_key_inequality, TRIPLE_UNIVERSE),
    "degeneration": (verify_degeneration, TRIPLE_UNIVERSE),
    "stratification": (verify_stratification_dimension, PAIR_UNIVERSE),
    "invariance": (verify_invariance, PAIR_UNIVERSE),
}


def run_checks(names: Iterable[str] | None = None,
               spec: UniverseSpec | None = None) -> list[VerificationReport]:
    """Run the named checks (all by default) on ``spec`` or desk-scale defaults."""
    selected = list(names) if names is not None else list(CHECKS)
    reports = []
    for name in selected:
        try:
            runner, default_spec = CHECKS[name]
        except KeyError:
            raise ValueError(f"unknown check {name!r}; options: {', '.join(CHECKS)}")
        reports.append(runner(spec if spec is not None else default_spec))
    return reports
