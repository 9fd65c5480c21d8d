"""hnbundles benchmark: cold-cache workloads against the public API.

Run from the repository root:

    python3 perfbench/run.py --workload triples --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
outside-in tracer around part of the passes and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report with
deterministic fields kept apart from timing fields is written to
``perfbench/out/``.  The exit status is 0 only when every answer was right;
it is 2 when the hnbundles sources are not found under ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("triples", "queries")
SETUP_SPAWNS = 12
SETUP_GROUP = 4
# About one reference chunk's time on an unloaded 2-vCPU Xeon VM with Python 3.11.7.
REFERENCE_CHUNK_S = 0.020
COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); from hnbundles.cli import run; "
    "sys.exit(run(['check-sub', '0:1', '1,-1']))"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Traced spans reported as per-layer metrics, with the extra stats each carries.
LAYER_SPANS = {
    "bundle.construct": (),
    "bundle.hash": (),
    "bundle.parse_bundle": (),
    "bundle.format_bundle": (),
    "bundle.canonicalize": (),
    "bundle.summand_difference": (),
    "bundle.dual": (),
    "bundle.filter": (),
    "bundle.direct_sum": (),
    "criteria.slopewise_dominates": ("hit_ratio", "entries"),
    "criteria.hn_common_prefix": (),
    "degrees.deg_nonneg": ("hit_ratio", "entries"),
    "degrees.c_value": (),
    "degrees.stratum_dim": (),
    "degeneration.degeneration_trace": (),
    "degeneration.degeneration_step": (),
    "degeneration.decompose_mrs": (),
    "degeneration.max_slope_reduction": (),
    "verify.enumerate_bundles": ("yielded",),
    "verify.enumerate_candidate_images": (),
    "cli.run": (),
    "cli.build_parser": (),
    "render.write_svg": (),
}
CHECK_NAMES = ("key-inequality", "degeneration", "stratification")
STAT_UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio", "entries": "count",
              "yielded": "count", "s": "s", "instances": "count"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, extra in LAYER_SPANS.items():
        for stat in ("calls", "self_s", *extra):
            units[f"{span}.{stat}"] = STAT_UNITS[stat]
    for check in CHECK_NAMES:
        units[f"verify.{check}.s"] = "s"
        units[f"verify.{check}.instances"] = "count"
    for code in range(4):
        units[f"cli.exit.{code}"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


# ----------------------------------------------------------------------
# environment

def load_program() -> None:
    """Put the checkout's ``src`` first on the path; exit 2 if hnbundles is not there."""
    package = SRC / "hnbundles"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no hnbundles sources under {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import hnbundles
    if Path(hnbundles.__file__).resolve().parent != package:
        print(f"perfbench: imported hnbundles from {hnbundles.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def commit_id() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class ColdStarts:
    """Fresh interpreters that import ``hnbundles.cli`` and answer one ``check-sub``.

    The spawns are spread over the run in small groups, so that their median
    does not hang on the machine's speed during one short stretch.  The
    first spawn is not timed: it writes the bytecode caches, which a user
    pays only once.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.attempted = self.failed = 0
        self._spawn()

    def _spawn(self) -> float:
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD_START, str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        elapsed = time.perf_counter() - started
        self.attempted += 1
        self.failed += proc.returncode != 0 or proc.stdout != "true\n"
        return elapsed

    def take(self, count: int) -> None:
        for _ in range(min(count, SETUP_SPAWNS - len(self.times))):
            self.times.append(self._spawn())


@dataclass(frozen=True)
class _Key:
    items: tuple


def reference_chunk() -> float:
    """Time one fixed chunk of interpreter work that does not touch hnbundles.

    Its mix of Fraction arithmetic, frozen-dataclass construction and dict
    lookups keyed by them resembles the package's hot paths, so it slows
    down with the machine in about the same way.
    """
    started = time.perf_counter()
    seen: dict[_Key, int] = {}
    acc = Fraction(0)
    for i in range(3000):
        f = Fraction(i % 17 - 8, i % 5 + 1)
        acc += f
        key = _Key(((f, i % 3), (acc.denominator % 7, 1)))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - started


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# one run

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    load_program()

    import queries
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    attempted = failed = 0
    problems: list[str] = []

    cold = ColdStarts() if not args.trace else None
    # Reference chunks spread through every pass measure how fast the machine runs meanwhile.
    reference: list[float] = []

    def probe() -> float:
        reference.append(reference_chunk())
        return reference[-1]

    def run_pass() -> workloads.PassResult:
        begin = len(reference)
        result = one_pass()
        result.slowdown = statistics.fmean(reference[begin:]) / REFERENCE_CHUNK_S
        return result

    if args.workload == "queries":
        svg_dir = OUT / f"{stem}-svg"
        svg_dir.mkdir(exist_ok=True)
        stream = queries.make_queries(args.seed, svg_dir)

        def one_pass():
            return workloads.run_queries_pass(stream, probe)
    else:
        checks = workloads.TRIPLE_CHECKS

        def one_pass():
            return workloads.run_checks_pass(checks, probe)

    # Untraced passes fill the run; a traced run gives them half and the tracer the rest.
    # A pass starts only when one more of median length still fits, so runs do not overshoot.
    started = time.perf_counter()

    def fits(done: list, budget: float) -> bool:
        median = statistics.median(r.wall_s for r in done)
        return time.perf_counter() - started + median <= budget

    plain = []
    while not plain or fits(plain, args.seconds / 2 if args.trace else args.seconds):
        if cold is not None:
            cold.take(SETUP_GROUP)
        plain.append(run_pass())
    if cold is not None:
        cold.take(SETUP_SPAWNS)
        attempted += cold.attempted
        failed += cold.failed
        if cold.failed:
            problems.append(f"{cold.failed} cold-start spawns did not print 'true'")
    traced, tracers = [], []
    while args.trace and (not traced or fits(traced, args.seconds)):
        tracer = Tracer()
        with tracer:
            traced.append(run_pass())
        tracers.append(tracer.summary())
        if len(traced) == 1:
            tracer.write(OUT / stem)

    # Correctness: the first pass is checked in full; every other pass must repeat it exactly.
    first = plain[0]
    if args.workload == "queries":
        bad = queries.check_answers(stream, first.outputs)
        failed += len(bad)
    else:
        nbad, bad = workloads.check_reports(checks, first.outputs)
        failed += nbad
    problems += bad
    attempted += first.ops
    digest = workloads.digest(first.outputs)
    for i, result in enumerate(plain[1:] + traced, start=1):
        attempted += result.ops
        if workloads.digest(result.outputs) != digest:
            failed += result.ops
            problems.append(f"pass {i} ({'traced' if i >= len(plain) else 'untraced'}) "
                            "produced different answers from pass 0")

    # Each pass is scaled to the reference speed by the slowdown its own probes measured.
    # Each operation's latency is then its median over the passes, so that a burst of
    # load from elsewhere on the machine, which slows one pass, does not move a percentile.
    latencies = [statistics.median(samples) for samples in zip(*(
        [lat / r.slowdown for lat in r.latencies_s] for r in plain))]
    wall = statistics.median(r.wall_s / r.slowdown for r in plain)
    setup_times = cold.times if cold is not None else []
    end_to_end = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "wall_s": wall,
        "ops_per_s": first.ops / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    deterministic = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "answers_sha256": hashlib.sha256(json.dumps(digest).encode()).hexdigest(),
        "ops_per_pass": first.ops,
        "cache": first.cache,
    }
    if args.workload == "queries":
        deterministic["exit_tally"] = workloads.exit_tally(first.outputs)
        deterministic["queries_by_kind"] = {
            kind: sum(q.kind == kind for q in stream) for kind, _ in queries.MIX}
    else:
        deterministic["checks"] = {
            c.name: {"instances": getattr(r, "instances_checked", None),
                     "counterexamples": len(getattr(r, "counterexamples", ())),
                     "findings": len(getattr(r, "findings", ()))}
            for c, r in zip(checks, first.outputs)
        }
    timing = {
        "reference_chunk_s": reference,
        "pass_slowdown": [r.slowdown for r in plain],
        "pass_wall_s": [r.wall_s for r in plain],
        "latency_samples": len(latencies) * len(plain),
        "end_to_end": end_to_end,
        "setup_spawn_s": setup_times,
    }

    if args.trace:
        exits = workloads.exit_tally(traced[0].outputs) if args.workload == "queries" else {}
        layers = layer_metrics(plain, traced, tracers, exits,
                               checks if args.workload != "queries" else [])
        timed = {k for k in layers if k.endswith((".self_s", ".s")) or k == "trace.overhead_frac"}
        deterministic["layer_counts"] = {k: v for k, v in layers.items() if k not in timed}
        deterministic["all_span_calls"] = {k: v["calls"] for k, v in sorted(tracers[0].items())}
        timing["traced_pass_slowdown"] = [r.slowdown for r in traced]
        timing["traced_pass_wall_s"] = [r.wall_s for r in traced]
        timing["layers"] = {k: v for k, v in layers.items() if k in timed}
        timing["all_span_self_s"] = {k: v["self_s"] for k, v in sorted(tracers[0].items())}
        if any(_calls(t) != _calls(tracers[0]) for t in tracers[1:]):
            problems.append("traced call counts differ between passes")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_metric_units().items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    correct = failed == 0 and not problems
    report = {
        "meta": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit_id(),
            "passes": len(plain), "traced_passes": len(traced),
        },
        "deterministic": deterministic,
        "timing": timing,
        "correct": correct,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    meta = report["meta"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)}+{len(traced)} python={meta['python']} "
          f"nproc={meta['nproc']} commit={meta['commit'][:12]}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:<14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<44} {failed / attempted:<14.6g} ratio "
          f"({failed} of {attempted} operations)")
    for problem in problems[:10]:
        print(f"  FAIL {problem}")
    print(f"  report {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _calls(summary: dict[str, dict]) -> dict[str, int]:
    return {name: stats["calls"] for name, stats in summary.items()}


def layer_metrics(plain, traced, tracers, exits, checks) -> dict[str, float]:
    """Per-layer values: counts from the first traced pass, times as medians over passes.

    Every time is scaled to the reference speed by its pass's slowdown.
    """
    out: dict[str, float] = {}
    first = tracers[0]
    for span, extra in LAYER_SPANS.items():
        stats = first.get(span, {})
        out[f"{span}.calls"] = stats.get("calls", 0)
        out[f"{span}.self_s"] = statistics.median(
            t.get(span, {}).get("self_s", 0.0) / r.slowdown for t, r in zip(tracers, traced))
        if "yielded" in extra:
            out[f"{span}.yielded"] = stats.get("yielded", 0)
        if "hit_ratio" in extra:
            cache = traced[0].cache[span.rsplit(".", 1)[1]]
            lookups = cache["hits"] + cache["misses"]
            out[f"{span}.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
            out[f"{span}.entries"] = cache["entries"]
    # Per-check times come from the untraced passes, so the tracer does not inflate them.
    by_check = {c.name: i for i, c in enumerate(checks)}
    for name in CHECK_NAMES:
        i = by_check.get(name)
        ran = i is not None
        out[f"verify.{name}.s"] = (
            statistics.median(r.latencies_s[i] / r.slowdown for r in plain) if ran else 0.0)
        out[f"verify.{name}.instances"] = (
            getattr(plain[0].outputs[i], "instances_checked", 0) if ran else 0)
    for code in range(4):
        out[f"cli.exit.{code}"] = exits.get(str(code), 0)
    out["trace.overhead_frac"] = (statistics.median(r.wall_s / r.slowdown for r in traced)
                                  / statistics.median(r.wall_s / r.slowdown for r in plain) - 1)
    return out


if __name__ == "__main__":
    sys.exit(main())
