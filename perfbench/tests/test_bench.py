"""Tests of the benchmark itself: inputs, checker, tracer and a tiny smoke run.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hnbundles import criteria, verify

import queries
import run
import workloads
from tracer import Tracer

BENCH = Path(run.__file__).resolve().parent

TINY_UNIVERSE = verify.UniverseSpec(max_rank=3, slope_min=Fraction(-1), slope_max=Fraction(1),
                                    max_denominator=1)
TINY_CHECKS = tuple(replace(check, spec=TINY_UNIVERSE, instances=count)
                    for check, count in zip(workloads.TRIPLE_CHECKS, (118, 32, 54)))
SMALL_MIX = tuple((kind, 3) for kind, _ in queries.MIX)


@pytest.fixture(scope="module")
def svg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("svg")


@pytest.fixture(scope="module")
def small_stream(svg_dir):
    return queries.make_queries(11, svg_dir, SMALL_MIX)


def test_query_stream_is_deterministic_per_seed(svg_dir):
    first = queries.make_queries(5, svg_dir)
    assert queries.make_queries(5, svg_dir) == first
    assert queries.make_queries(6, svg_dir) != first
    assert len(first) == sum(count for _, count in queries.MIX) == 2000
    for kind, count in queries.MIX:
        assert sum(q.kind == kind for q in first) == count


def test_large_rank_queries_span_the_rank_range(svg_dir):
    stream = queries.make_queries(5, svg_dir)
    ranks = sorted(int(q.argv[1].split(",")[0].split("/")[1].lstrip("-"))
                   for q in stream if q.kind == "large-check-sub")
    assert ranks[0] >= 10**3 and ranks[-1] < 10**5
    assert 20 <= sum(r < 10**4 for r in ranks) <= 30  # log-uniform: half in each decade


def test_small_stream_answers_are_correct(small_stream):
    result = workloads.run_queries_pass(small_stream)
    assert queries.check_answers(small_stream, result.outputs) == []
    tally = workloads.exit_tally(result.outputs)
    assert tally["2"] + tally["3"] >= 3


def _tampered(answer: queries.Answer, **changes) -> queries.Answer:
    return replace(answer, **changes)


def test_checker_flags_wrong_answers(small_stream):
    answers = workloads.run_queries_pass(small_stream).outputs
    assert queries.check_answers(small_stream, answers) == []

    def first(pred):
        return next(i for i, q in enumerate(small_stream) if pred(q))

    flips = {
        first(lambda q: q.argv[0] == "check-sub"):
            lambda a: _tampered(a, status=1 - a.status),
        first(lambda q: q.argv[0] == "c"):
            lambda a: _tampered(a, stdout=a.stdout.replace(
                a.stdout.strip().rstrip("}").split()[-1], "99")),
        first(lambda q: q.kind == "invalid"):
            lambda a: _tampered(a, status=0),
        first(lambda q: q.argv[0] == "images"):
            lambda a: _tampered(a, stdout="Q=0 stratum=0 c=123\n"),
        first(lambda q: q.argv[0] == "trace"):
            lambda a: _tampered(a, stdout=a.stdout.replace("0:1", "1", 1)
                                if "0:1" in a.stdout else "step 0: E=9 c=1\n"),
        first(lambda q: q.kind == "render"):
            lambda a: _tampered(a, svg=a.svg.replace("<polyline", "<path", 1)),
        first(lambda q: q.kind == "large-dims"):
            lambda a: _tampered(a, stdout=a.stdout.replace("hom", "hom 1\nx")
                                if "hom" in a.stdout else "{}"),
    }
    for index, flip in flips.items():
        wrong = list(answers)
        wrong[index] = flip(answers[index])
        problems = queries.check_answers(small_stream, wrong)
        assert len(problems) == 1 and problems[0].startswith(f"query {index} "), (index, problems)


def test_tiny_universe_smoke_run():
    result = workloads.run_checks_pass(TINY_CHECKS)
    assert workloads.check_reports(TINY_CHECKS, result.outputs) == (0, [])
    assert len(result.latencies_s) == len(TINY_CHECKS)
    assert result.cache["deg_nonneg"]["entries"] > 0


def test_check_reports_flags_a_wrong_instance_count():
    result = workloads.run_checks_pass(TINY_CHECKS[:1])
    wrong = (replace(TINY_CHECKS[0], instances=119),)
    failed, problems = workloads.check_reports(wrong, result.outputs)
    assert failed == 119 and "expected 119" in problems[0]


def test_traced_and_untraced_passes_agree(small_stream):
    original = criteria.slopewise_dominates
    plain_checks = workloads.run_checks_pass(TINY_CHECKS)
    plain_queries = workloads.run_queries_pass(small_stream)
    tracer = Tracer()
    with tracer:
        assert criteria.slopewise_dominates is not original
        traced_checks = workloads.run_checks_pass(TINY_CHECKS)
        traced_queries = workloads.run_queries_pass(small_stream)
    assert criteria.slopewise_dominates is original
    assert workloads.digest(traced_checks.outputs) == workloads.digest(plain_checks.outputs)
    assert traced_queries.outputs == plain_queries.outputs
    assert traced_queries.cache == plain_queries.cache

    summary = tracer.summary()
    assert summary["cli.run"]["calls"] == len(small_stream)
    assert summary["verify.verify_degeneration"]["calls"] == 1
    assert summary["verify.enumerate_bundles"]["yielded"] > 0
    for name in ("bundle.construct", "bundle.hash", "criteria.slopewise_dominates",
                 "degrees.deg_nonneg", "degeneration.decompose_mrs"):
        assert summary[name]["calls"] > 0 and summary[name]["self_s"] > 0


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer:
        workloads.run_checks_pass(TINY_CHECKS[:1])
    summary = tracer.summary()
    total = sum(s["self_s"] for s in summary.values())
    top = summary["verify.verify_key_inequality"]
    assert top["self_s"] < total
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    roots = [d for d, p in zip(durations, tracer.parents) if p < 0]
    assert total == pytest.approx(sum(roots) / 1e9)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "triples", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not (tmp_path / "perfbench" / "out").exists()

