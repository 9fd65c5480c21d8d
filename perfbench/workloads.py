"""The two workloads: one timed pass each, with cold caches, and its correctness gate.

* ``triples`` - ``key-inequality``, ``degeneration`` and ``stratification``
  on rank <= 4 with integer slopes in [-2, 2].  About 97% of cache lookups
  hit, so hashing, the degeneration engine and the candidate scans dominate.
  The universe is exhaustive, so the seed does not change the inputs.
* ``queries`` - a seeded stream of 2,000 single ``hnb`` invocations through
  ``hnbundles.cli.run`` (see :mod:`queries`): the interactive path, with
  caches cleared before every query, so there is little cache reuse.

Every workload is a closed loop: one process, one client, no threads.
Functions of the package are looked up on their module at call time, so a
:class:`tracer.Tracer` installed around a pass sees every call.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from hnbundles import cli, criteria, degrees, verify

import queries

# The original lru-cached callables, captured before any tracer rebinds the names.
CACHES = {
    "deg_nonneg": degrees.deg_nonneg,
    "slopewise_dominates": criteria.slopewise_dominates,
}


@dataclass(frozen=True)
class Check:
    """One ``verify_*`` run with the instance count it must report."""

    name: str
    runner: str
    spec: verify.UniverseSpec
    instances: int


# Probe points: one reference chunk before every PROBE_EVERY-th query, and CHECK_PROBES
# chunks before every check, since the checks are few and long.
PROBE_EVERY = 100
CHECK_PROBES = 3

TRIPLE_UNIVERSE = verify.UniverseSpec(
    max_rank=4, slope_min=Fraction(-2), slope_max=Fraction(2), max_denominator=1)
TRIPLE_CHECKS = (
    Check("key-inequality", "verify_key_inequality", TRIPLE_UNIVERSE, 14_683),
    Check("degeneration", "verify_degeneration", TRIPLE_UNIVERSE, 2_746),
    Check("stratification", "verify_stratification_dimension", TRIPLE_UNIVERSE, 1_167),
)


@dataclass
class PassResult:
    """One pass: its wall time, one latency per operation, and what it produced.

    ``slowdown`` is how much slower than the reference speed the machine ran
    during the pass; the runner sets it from the probes the pass ran.
    """

    wall_s: float
    latencies_s: list[float]
    ops: int
    outputs: list
    cache: dict[str, dict[str, int]]
    slowdown: float = 1.0


def _empty_tally() -> dict[str, dict[str, int]]:
    return {name: {"hits": 0, "misses": 0, "entries": 0} for name in CACHES}


def cold_caches(tally: dict[str, dict[str, int]] | None = None) -> None:
    """Clear both caches, first adding their hit and miss counts to ``tally``.

    Raises when a cache is not empty afterwards, since timing starts next.
    """
    for name, fn in CACHES.items():
        if tally is not None:
            info = fn.cache_info()
            tally[name]["hits"] += info.hits
            tally[name]["misses"] += info.misses
        fn.cache_clear()
        if fn.cache_info().currsize:
            raise RuntimeError(f"{name} cache is not empty when timing starts")


def _close_tally(tally: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    for name, fn in CACHES.items():
        info = fn.cache_info()
        tally[name]["hits"] += info.hits
        tally[name]["misses"] += info.misses
        tally[name]["entries"] = info.currsize
    return tally


# ----------------------------------------------------------------------
# triples

def _no_probe() -> float:
    return 0.0


def run_checks_pass(checks: tuple[Check, ...], probe: Callable[[], float] = _no_probe
                    ) -> PassResult:
    """Run the checks once, caches cold at the start; outputs are reports or errors.

    ``probe`` runs ``CHECK_PROBES`` times before every check; the seconds it
    returns are left out of the pass's wall time.
    """
    cold_caches()
    latencies, outputs = [], []
    probing = 0.0
    started = time.perf_counter()
    for check in checks:
        probing += sum(probe() for _ in range(CHECK_PROBES))
        t = time.perf_counter()
        try:
            outputs.append(getattr(verify, check.runner)(check.spec))
        except Exception as exc:  # a crashing check is a failed check, not a crashed benchmark
            outputs.append(f"{check.name} raised {exc!r}")
        latencies.append(time.perf_counter() - t)
    wall = time.perf_counter() - started - probing
    return PassResult(wall, latencies, sum(c.instances for c in checks), outputs,
                      _close_tally(_empty_tally()))


def check_reports(checks: tuple[Check, ...], outputs: list) -> tuple[int, list[str]]:
    """(failed instances, problems); a crashed or miscounted check fails all its instances."""
    failed = 0
    problems = []
    for check, report in zip(checks, outputs):
        if isinstance(report, str):
            failed += check.instances
            problems.append(report)
        elif report.property_name != check.name or report.instances_checked != check.instances:
            failed += check.instances
            problems.append(f"{check.name}: {report.instances_checked} instances, "
                            f"expected {check.instances}")
        elif report.counterexamples:
            failed += len(report.counterexamples)
            problems.append(f"{check.name}: {len(report.counterexamples)} counterexamples, "
                            f"first {report.counterexamples[0]}")
    if len(outputs) != len(checks):
        problems.append(f"{len(outputs)} reports for {len(checks)} checks")
    return failed, problems


def digest(outputs: list) -> list:
    """The deterministic part of a pass's outputs, for comparing passes and runs."""
    return [
        [out.status, out.stdout, out.svg] if isinstance(out, queries.Answer)
        else out if isinstance(out, str)
        else [out.property_name, out.instances_checked, list(out.counterexamples),
              list(out.findings)]
        for out in outputs
    ]


# ----------------------------------------------------------------------
# queries

def run_queries_pass(stream: list[queries.Query], probe: Callable[[], float] = _no_probe
                     ) -> PassResult:
    """One ``cli.run`` per query with stdout captured and both caches cleared first.

    ``probe`` runs before every ``PROBE_EVERY``-th query; the seconds it
    returns are left out of the pass's wall time.
    """
    tally = _empty_tally()
    cold_caches()
    latencies, answers = [], []
    probing = 0.0
    started = time.perf_counter()
    for i, query in enumerate(stream):
        if i % PROBE_EVERY == 0:
            probing += probe()
        cold_caches(tally)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t = time.perf_counter()
            try:
                status = cli.run(list(query.argv))
            except Exception as exc:  # the CLI must map every error to a status
                status = -1
                out.write(f"uncaught {exc!r}")
            latencies.append(time.perf_counter() - t)
        svg = None
        if query.kind == "render":
            svg = Path(query.argv[1]).read_text(encoding="utf-8") if status == 0 else None
        answers.append(queries.Answer(status, out.getvalue(), svg))
    wall = time.perf_counter() - started - probing
    return PassResult(wall, latencies, len(stream), answers, _close_tally(tally))


def exit_tally(answers: list[queries.Answer]) -> dict[str, int]:
    tally = {str(code): 0 for code in range(4)}
    for answer in answers:
        key = str(answer.status)
        tally[key] = tally.get(key, 0) + 1
    return tally
