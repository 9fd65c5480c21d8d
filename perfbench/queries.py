"""Seeded stream of single ``hnb`` invocations and the checker for their answers.

The stream is the ``queries`` workload: every query is one argv list for
``hnbundles.cli.run``.  The mix has a fixed count per kind, so the shape of
the workload does not depend on the seed; the seed picks the bundles.

Answers are checked after the timed pass, against routes that the CLI does
not use: ``rank_condition`` for the dominance predicates and
``deg_nonneg_oracle`` (the tensor route) for every dimension.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from hnbundles import bundle, criteria, degrees, verify

# (kind, count).  About 5% invalid input and 10% large-rank queries.
MIX: tuple[tuple[str, int], ...] = (
    ("check-sub", 310),
    ("check-quotient", 220),
    ("check-dominate", 220),
    ("dims", 310),
    ("c", 230),
    ("trace", 240),
    ("images", 160),
    ("render", 10),
    ("invalid", 100),
    ("large-check-sub", 50),
    ("large-check-quotient", 50),
    ("large-check-dominate", 50),
    ("large-dims", 50),
)

LARGE_RANKS = (10**3, 10**5)

# Trace inputs: every reduced triple with rank(E) <= 4 and integer slopes in [-2, 2].
_TRACE_SLOPES = (2, 1, 0, -1, -2)
_TRACE_MAX_RANK = 4


@dataclass(frozen=True)
class Query:
    """One ``hnb`` invocation; ``expect_exit`` is set only for invalid input."""

    kind: str
    argv: tuple[str, ...]
    expect_exit: int | None = None


@dataclass(frozen=True)
class Answer:
    """What one invocation produced: exit status, stdout, and any SVG written."""

    status: int
    stdout: str
    svg: str | None = None


# ----------------------------------------------------------------------
# generation

def _summand(lam: Fraction, mult: int) -> str:
    return f"{lam}" if mult == 1 else f"{lam}:{mult}"


def _small_bundle(rng: random.Random, max_rank: int, allow_zero: bool = True) -> str:
    """Random bundle text with rank <= max_rank, slopes in [-2, 2], denominators <= 2."""
    if allow_zero and rng.random() < 0.05:
        return "0"
    budget = rng.randint(1, max_rank)
    parts = []
    while budget:
        q = rng.randint(1, min(2, budget))
        lam = Fraction(rng.randint(-2 * q, 2 * q), q)
        width = lam.denominator
        mult = rng.randint(1, budget // width)
        budget -= mult * width
        parts.append(_summand(lam, mult))
    rng.shuffle(parts)  # the grammar accepts any summand order
    text = ",".join(parts)
    return "0:1" if text == "0" else text  # a lone "0" would be the zero bundle


def _integer_bundles(max_rank: int) -> list[tuple[int, ...]]:
    """All integer-slope bundles of rank 0..max_rank as descending slope tuples."""
    return [
        combo
        for r in range(max_rank + 1)
        for combo in combinations_with_replacement(_TRACE_SLOPES, r)
    ]


def _integer_text(slopes: tuple[int, ...]) -> str:
    if not slopes:
        return "0"
    return ",".join("0:1" if s == 0 and len(slopes) == 1 else str(s) for s in slopes)


def reduced_triples() -> list[tuple[str, str, str]]:
    """Every reduced triple (E, F, Q) of the trace universe, in a fixed order."""
    shapes = _integer_bundles(_TRACE_MAX_RANK)
    parsed = {s: bundle.parse_bundle(_integer_text(s)) for s in shapes}
    duals = {s: parsed[s].dual() for s in shapes}
    by_rank: dict[int, list[tuple[int, ...]]] = {}
    for s in shapes:
        by_rank.setdefault(len(s), []).append(s)
    out = []
    for e in shapes:
        if not e or e[0] != 0:
            continue
        for f in shapes:
            if set(e) & set(f) or not criteria.rank_condition(parsed[e], parsed[f]):
                continue
            for q in by_rank[len(e) - 1]:
                if (criteria.rank_condition(duals[q], duals[e])
                        and criteria.rank_condition(parsed[q], parsed[f])):
                    out.append((_integer_text(e), _integer_text(f), _integer_text(q)))
    return out


def _dominated_pair(rng: random.Random, max_rank: int) -> tuple[str, str]:
    """(E, F) with F slopewise dominating E, by rejection."""
    while True:
        e, f = _small_bundle(rng, max_rank), _small_bundle(rng, max_rank)
        if criteria.rank_condition(bundle.parse_bundle(e), bundle.parse_bundle(f)):
            return e, f


def _coprime(rng: random.Random, n: int, lo: int, hi: int) -> int:
    while True:
        p = rng.randint(lo, hi)
        if math.gcd(p, n) == 1:
            return p


def _large_pair(rng: random.Random, n: int, holds: bool) -> tuple[list[str], list[str]]:
    """Summand lists (E, F) of rank n + 1 deciding dominance on the last unit interval.

    E = O(p/n) + O(a) and F = O(p'/n) + O(b) with p <= p' and a, b < -1, so
    the first n unit slopes always agree with dominance and the answer
    rests on a <= b.  Either way the whole polygon is scanned.
    """
    p = _coprime(rng, n, -n + 1, n - 1)
    p2 = _coprime(rng, n, p, n - 1)
    a = rng.randint(-3, -2)
    b = a if holds else a - 1
    return [f"{p}/{n}", str(a)], [f"{p2}/{n}", str(b)]


def _negate(summands: list[str]) -> str:
    return ",".join(s[1:] if s.startswith("-") else f"-{s}" for s in summands)


def _fmt(rng: random.Random) -> tuple[str, ...]:
    return ("--format", "json") if rng.random() < 0.5 else ()


def _invalid(rng: random.Random, i: int, svg_dir: Path) -> Query:
    """Malformed or precondition-violating input with its required exit status."""
    cases = (
        (("check-sub", "1/0", "1"), 2),             # zero denominator
        (("dims", "x,1", "0"), 2),                  # bad slope token
        (("check-quotient", "1:y", "0:2"), 2),      # bad multiplicity
        (("c", "1,", "0", "-1"), 2),                # empty summand
        (("check-dominate", "", "1"), 2),           # empty bundle
        (("c", "1", "0"), 2),                       # missing argument
        (("frobnicate", "1"), 2),                   # unknown subcommand
        (("trace", "1,-1", "2", "0:1"), 3),         # (i), (vii): not dominated, mu_max(E) != 0
        (("trace", "0,-1", "-1,2", "-1"), 3),       # (iv): common slope
        (("trace", "0,-1/2", "1:2", "-1/2"), 3),    # (vi): non-integer slopes
        (("render", str(svg_dir / f"invalid-{i}.svg"), *["0"] * 9), 3),  # > 8 bundles
    )
    argv, status = cases[rng.randrange(len(cases))]
    return Query("invalid", argv, status)


def make_queries(seed: int, svg_dir: Path, mix=MIX) -> list[Query]:
    """The query stream for ``seed``; the same seed always gives the same stream."""
    rng = random.Random(seed)
    triples = reduced_triples()
    stream: list[Query] = []
    for kind, count in mix:
        large = kind.startswith("large-")
        for k in range(count):
            if large:
                # Stratified log-uniform ranks keep the latency tail the same shape for every seed.
                lo, hi = (math.log10(r) for r in LARGE_RANKS)
                n = int(10 ** (lo + (hi - lo) * (k + rng.random()) / count))
                e, f = _large_pair(rng, n, holds=rng.random() < 0.5)
            if kind == "check-sub":
                argv = ("check-sub", _small_bundle(rng, 4), _small_bundle(rng, 4))
            elif kind == "check-dominate":
                argv = ("check-dominate", _small_bundle(rng, 4), _small_bundle(rng, 4))
            elif kind == "check-quotient":
                argv = ("check-quotient", _small_bundle(rng, 4), _small_bundle(rng, 4))
            elif kind == "dims":
                e_text, f_text = _dominated_pair(rng, 4)
                argv = ("dims", e_text, f_text)
                if rng.random() < 0.5:
                    argv += (_small_bundle(rng, 3),)
            elif kind == "c":
                argv = ("c", _small_bundle(rng, 4), _small_bundle(rng, 4), _small_bundle(rng, 3))
            elif kind == "trace":
                argv = ("trace", *triples[rng.randrange(len(triples))])
            elif kind == "images":
                argv = ("images", _small_bundle(rng, 3, allow_zero=False), _small_bundle(rng, 4))
            elif kind == "render":
                path = str(svg_dir / f"render-{k}.svg")
                argv = ("render", path, *(_small_bundle(rng, 4) for _ in range(rng.randint(1, 8))))
                stream.append(Query(kind, argv))
                continue
            elif kind == "invalid":
                stream.append(_invalid(rng, k, svg_dir))
                continue
            elif kind == "large-check-sub":
                argv = ("check-sub", ",".join(e), ",".join(f))
            elif kind == "large-check-dominate":
                argv = ("check-dominate", ",".join(f), ",".join(e))
            elif kind == "large-check-quotient":
                # Q is a quotient of E' exactly when dual(E') dominates dual(Q).
                argv = ("check-quotient", _negate(e), _negate(f))
            elif kind == "large-dims":
                argv = ("dims", ",".join(e), ",".join(f))
            else:
                raise ValueError(f"unknown query kind {kind!r}")
            stream.append(Query(kind, argv + _fmt(rng)))
    rng.shuffle(stream)
    return stream


# ----------------------------------------------------------------------
# checking

_parse = bundle.parse_bundle
_oracle = degrees.deg_nonneg_oracle
_IMAGE_LINE = re.compile(r"Q=(\S+) stratum=(-?\d+) c=(-?\d+)\Z")
_TRACE_LINE = re.compile(r"step (\d+): E=(\S+) c=(-?\d+)(?: M=\S+ R=\S+ S=\S+)?\Z")


def _positional(argv: tuple[str, ...]) -> tuple[list[str], bool]:
    args = list(argv[1:])
    as_json = args[-2:] == ["--format", "json"]
    return (args[:-2] if as_json else args), as_json


def _oracle_c(e, f, q) -> int:
    return _oracle(e, f) + _oracle(q, q) - _oracle(e, q) - _oracle(q, f)


def _bool_answer(stdout: str, as_json: bool):
    if as_json:
        return json.loads(stdout)["result"]
    return {"true": True, "false": False}[stdout.strip()]


def _image_universe(e, f) -> verify.UniverseSpec | None:
    """The default ``images`` pool: slopes in [mu_min(E), mu_max(F)], denominators <= rank(E)."""
    if e.is_zero or f.is_zero or e.mu_min > f.mu_max:
        return None
    return verify.UniverseSpec(max_rank=e.rank, slope_min=e.mu_min, slope_max=f.mu_max,
                               max_denominator=e.rank)


def _check_images(e, f, stdout: str, as_json: bool) -> str | None:
    if as_json:
        rows = [(r["image"], r["stratum_dim"], r["c"]) for r in json.loads(stdout)]
    else:
        rows = []
        for line in stdout.splitlines():
            m = _IMAGE_LINE.fullmatch(line)
            if m is None:
                return f"unparsable images line {line!r}"
            rows.append((m.group(1), int(m.group(2)), int(m.group(3))))
    spec = _image_universe(e, f)
    pool = [bundle.ZERO] if spec is None else verify.enumerate_bundles(spec, include_zero=True)
    e_dual = e.dual()
    want = {
        q for q in pool
        if q.rank <= e.rank and criteria.rank_condition(q.dual(), e_dual)
        and criteria.rank_condition(q, f)
    }
    got = [(_parse(text), dim, c) for text, dim, c in rows]
    if {q for q, _, _ in got} != want or len(got) != len(want):
        return f"image set differs: {len(got)} printed, {len(want)} expected"
    for q, dim, c in got:
        want_dim = _oracle(e, q) + _oracle(q, f) - _oracle(q, q)
        if (dim, c) != (want_dim, _oracle_c(e, f, q)):
            return f"Q={q}: printed stratum={dim} c={c}, oracle stratum={want_dim}"
    keys = [(-dim, q.rank, text) for (text, dim, _), (q, _, _) in zip(rows, got)]
    if keys != sorted(keys):
        return "images not sorted by (-stratum, rank, text)"
    return None


def _check_trace(e, f, q, stdout: str, as_json: bool) -> str | None:
    if as_json:
        payload = json.loads(stdout)
        chain, c = [_parse(text) for text in payload["chain"]], payload["c"]
    else:
        chain, c = [], []
        for i, line in enumerate(stdout.splitlines()):
            m = _TRACE_LINE.fullmatch(line)
            if m is None or int(m.group(1)) != i:
                return f"unparsable trace line {line!r}"
            chain.append(_parse(m.group(2)))
            c.append(int(m.group(3)))
        if not chain:
            return "empty trace"
    if chain[0] != e or chain[-1] != q:
        return "chain endpoints are not (E, Q)"
    if len(c) != len(chain):
        return "one codimension per chain member expected"
    if c != [_oracle_c(member, f, q) for member in chain]:
        return f"codimensions {c} disagree with the oracle route"
    if c[-1] != 0 or c[0] <= 0:
        return f"codimensions {c} must start positive and end at 0"
    return None


def _check_render(argv: tuple[str, ...], svg: str | None) -> str | None:
    n = len(argv) - 2
    if svg is None or not svg.startswith("<svg") or not svg.endswith("</svg>\n"):
        return "no SVG document written"
    if svg.count("<polyline") != n or svg.count("<text") != n:
        return f"expected {n} polygons with legend entries"
    return None


def check_answer(query: Query, answer: Answer) -> str | None:
    """None when the answer is right, else a one-line description of the mismatch."""
    if query.expect_exit is not None:
        if answer.status != query.expect_exit:
            return f"exit {answer.status}, expected {query.expect_exit}"
        return None
    args, as_json = _positional(query.argv)
    command = query.argv[0]
    if command == "render":
        if answer.status != 0:
            return f"exit {answer.status}, expected 0"
        return _check_render(query.argv, answer.svg)
    bundles = [_parse(text) for text in args]
    if command in ("check-sub", "check-dominate", "check-quotient"):
        if command == "check-sub":
            e, f = bundles
            want = criteria.rank_condition(e, f)
        elif command == "check-dominate":
            f, e = bundles
            want = criteria.rank_condition(e, f)
        else:
            q, e = bundles
            want = criteria.rank_condition(q.dual(), e.dual())
        if answer.status != (0 if want else 1):
            return f"exit {answer.status} for predicate {want}"
        if _bool_answer(answer.stdout, as_json) is not want:
            return f"printed {answer.stdout.strip()!r}, expected {want}"
        return None
    if command == "dims":
        e, f = bundles[:2]
        want = {"hom": _oracle(e, f)}
        if len(bundles) == 3:
            q = bundles[2]
            want["stratum"] = _oracle(e, q) + _oracle(q, f) - _oracle(q, q)
            want["c"] = _oracle_c(e, f, q)
            if want["stratum"] < 0:
                return None if answer.status == 3 else f"exit {answer.status}, expected 3"
        if answer.status != 0:
            return f"exit {answer.status}, expected 0"
        if as_json:
            got = json.loads(answer.stdout)
        else:
            got = {k: int(v) for k, v in (line.split() for line in answer.stdout.splitlines())}
        return None if got == want else f"printed {got}, oracle {want}"
    if answer.status != 0:
        return f"exit {answer.status}, expected 0"
    if command == "c":
        got = json.loads(answer.stdout)["c"] if as_json else int(answer.stdout)
        want = _oracle_c(*bundles)
        return None if got == want else f"printed c={got}, oracle {want}"
    if command == "images":
        return _check_images(*bundles, answer.stdout, as_json)
    if command == "trace":
        return _check_trace(*bundles, answer.stdout, as_json)
    return f"no checker for {command!r}"


def check_answers(queries: list[Query], answers: list[Answer]) -> list[str]:
    """One line per wrong answer, naming the query."""
    if len(answers) != len(queries):
        return [f"{len(answers)} answers for {len(queries)} queries"]
    problems = []
    for i, (query, answer) in enumerate(zip(queries, answers)):
        try:
            problem = check_answer(query, answer)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            problem = f"unreadable answer: {exc!r}"
        if problem is not None:
            problems.append(f"query {i} {' '.join(query.argv)!r}: {problem}")
    return problems
