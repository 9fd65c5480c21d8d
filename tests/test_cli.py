"""CLI surface: parsing, outputs, exit-status contract, rendering, and the
modules a cold call and ``import hnbundles`` load."""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hnbundles
from hnbundles import degeneration, parse_bundle, render_svg, verify
from hnbundles.bundle import InternalConsistencyError, PreconditionError
from hnbundles.cli import CHECK_NAMES, build_parser, run
from hnbundles.verify import CHECKS
from hnbundles.render import MAX_GRID_LINES
from hnbundles.verify import CANDIDATE_POOL_LIMIT

B = parse_bundle


def test_check_sub_true_false(capsys):
    assert run(["check-sub", "0:1", "1,-1"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["check-sub", "1", "0:1"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_check_sub_decides_an_injective_map_whose_cokernel_may_have_torsion(capsys):
    # O(-1) -> O is injective with a torsion cokernel: a subbundle in the sense check-sub
    # decides, though a saturated subbundle of equal rank would be the whole bundle.
    assert run(["check-sub", "-1", "0:1"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["check-sub", "0:1", "-1"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_check_sub_at_huge_rank(capsys):
    n = 10**12 + 1
    assert run(["check-sub", f"1/{n},-1:{n}", f"3/{n},0:{n}"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_check_sub_json(capsys):
    assert run(["check-sub", "0:1", "1,-1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": True}


def test_check_dominate_argument_order(capsys):
    assert run(["check-dominate", "1,-1", "0,-2"]) == 0
    assert run(["check-dominate", "0,-2", "1,-1"]) == 1
    capsys.readouterr()


def test_check_quotient(capsys):
    assert run(["check-quotient", "-1", "0,-2"]) == 0
    assert run(["check-quotient", "1:2", "1"]) == 1
    capsys.readouterr()


def test_c_command(capsys):
    assert run(["c", "0,-2", "1,-1", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["c", "0,-2", "1,-1", "-1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"c": 2}


def test_dims_command(capsys):
    assert run(["dims", "0,-2", "1,-1"]) == 0
    assert capsys.readouterr().out.strip() == "hom 5"
    assert run(["dims", "0,-2", "1,-1", "-1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"hom": 5, "stratum": 3, "c": 2}


def test_dims_of_a_q_that_is_no_quotient_blames_the_input(capsys):
    # O(2) + O(1) is no quotient of the zero bundle: a precondition, not an internal failure.
    assert run(["dims", "0", "0", "2,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("hnb: precondition violated: Q=2,1 is not a quotient of E=0, "
                            "so no map has image Q\n")


def test_trace_json(capsys):
    assert run(["trace", "0,-2", "1,-1", "-1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chain"] == ["0,-2", "-2", "-1"]
    assert payload["c"] == [2, 1, 0]
    assert len(payload["steps"]) == 2


def test_trace_text(capsys):
    assert run(["trace", "0,-2", "1,-1", "-1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("step 0: E=0,-2 c=2")


def test_trace_precondition_exit_and_named_condition(capsys):
    assert run(["trace", "0,-1", "1,-1", "0:1"]) == 3
    err = capsys.readouterr().err
    assert "(iv)" in err


def test_parse_error_exit(capsys):
    assert run(["check-sub", "garbage", "1"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_non_ascii_digits_exit_2(capsys):
    assert run(["check-sub", "١", "2"]) == 2
    assert "hnb: parse error" in capsys.readouterr().err
    assert run(["enumerate", "--max-rank", "1", "--slope-max", "٣"]) == 2
    assert "not a rational number: '٣'" in capsys.readouterr().err


def test_non_ascii_whitespace_exits_2(capsys):
    # str.strip() would drop the em space and read 1 and 2, as it did the no-break space.
    for bundle in ("\u20031", "1,\xa02"):
        assert run(["check-sub", bundle, "2"]) == 2
        assert "hnb: parse error" in capsys.readouterr().err
    assert run(["enumerate", "--max-rank", "1", "--slope-max", "\u20031"]) == 2
    assert "not a rational number: '\\u20031'" in capsys.readouterr().err


def test_an_internal_consistency_failure_exits_3(capsys, monkeypatch):
    def broken(member, q):
        raise InternalConsistencyError("decomposition does not reassemble")

    monkeypatch.setattr(degeneration, "decompose_mrs", broken)
    assert run(["trace", "0,-2", "1,-1", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hnb: internal consistency failure: decomposition does not reassemble\n"


def test_an_invalid_value_exits_2(capsys):
    assert run(["verify", "--max-rank", "0"]) == 2
    assert capsys.readouterr().err == "hnb: invalid input: max_rank must be >= 1\n"


def test_verify_text_prints_ten_counterexamples_then_the_rest_counted_then_findings(
        capsys, monkeypatch):
    def body(universe):
        return (12, [f"case {i:02}" for i in reversed(range(12))],
                [f"note {i:02}" for i in reversed(range(12))])

    monkeypatch.setitem(verify.CHECKS, "invariance", (body, verify.PAIR_UNIVERSE))
    assert run(["verify", "--check", "invariance", "--max-rank", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL invariance: 12 instances, 12 counterexamples, ")
    assert lines[0].endswith("s, 12 findings")
    assert lines[1:] == [*(f"  counterexample: case {i:02}" for i in range(10)), "  ... 2 more",
                         *(f"  finding: note {i:02}" for i in range(10)), "  ... 2 more"]


# One or more argv per subcommand but `render`, which writes a file and has no
# --format: true and false predicates, `enumerate --zero`, `images`, and a parse,
# a precondition and a pool-cap error.
TEXT_AND_JSON = [
    ["check-sub", "0:1", "1,-1"], ["check-sub", "1", "0:1"],
    ["check-dominate", "1,-1", "0,-2"], ["check-dominate", "0,-2", "1,-1"],
    ["check-quotient", "-1", "0,-2"], ["check-quotient", "1:2", "1"],
    ["dims", "0,-2", "1,-1"], ["dims", "0,-2", "1,-1", "-1"],
    ["c", "0,-2", "1,-1", "-1"],
    ["trace", "0,-2", "1,-1", "-1"], ["trace", "0:3,-2", "2,1:2,-1", "-1:2,-2"],
    ["images", "0,-2", "1,-1"], ["images", "0", "1,-1"],
    ["enumerate", "--max-rank", "2", "--slope-min", "-1", "--slope-max", "1", "--max-den", "2",
     "--zero"],
    ["verify", "--check", "equivalence", "--check", "invariance", "--max-rank", "2"],
    ["check-sub", "garbage", "1"],
    ["trace", "0,-1", "1,-1", "0:1"],
    ["enumerate", "--max-rank", "60", "--max-den", "3"],
]

_SUMMARY = re.compile(r"(PASS|FAIL) (\S+): (\d+) instances, (\d+) counterexamples, "
                      r"\d+\.\d\ds(?:, (\d+) findings)?")


def _text_values(command, lines):
    """The values the text lines print, in the shape of the JSON payload."""
    if command.startswith("check-"):
        (line,) = lines
        return {"result": {"true": True, "false": False}[line]}
    if command == "dims":
        return {key: int(value) for key, value in (line.split(" ") for line in lines)}
    if command == "c":
        (line,) = lines
        return {"c": int(line)}
    if command == "trace":
        rows = [re.fullmatch(r"step (\d+): E=(\S+) c=(-?\d+)(?: M=(\S+) R=(\S+) S=(\S+))?",
                             line).groups() for line in lines]
        assert [int(row[0]) for row in rows] == list(range(len(rows)))
        return {"chain": [row[1] for row in rows], "c": [int(row[2]) for row in rows],
                "steps": [{"M": m, "R": r, "S": s} for *_, m, r, s in rows[1:]]}
    if command == "images":
        rows = [re.fullmatch(r"Q=(\S+) stratum=(-?\d+) c=(-?\d+)", line).groups()
                for line in lines]
        return [{"image": q, "stratum_dim": int(dim), "c": int(c)} for q, dim, c in rows]
    if command == "enumerate":
        return lines
    assert command == "verify"
    reports = []
    for line in lines:
        summary = _SUMMARY.fullmatch(line)
        if summary:
            status, name, instances, counterexamples, findings = summary.groups()
            reports.append({"property": name, "instances": int(instances),
                            "counterexamples": [], "findings": [], "passed": status == "PASS"})
            assert counterexamples == "0" and findings is None
        else:
            label, item = re.fullmatch(r"  (counterexample|finding): (.*)", line).groups()
            reports[-1][f"{label}s"].append(item)
    return reports


@pytest.mark.parametrize("argv", TEXT_AND_JSON, ids=[" ".join(argv) for argv in TEXT_AND_JSON])
def test_text_and_json_give_the_same_status_and_values(capsys, argv):
    status = run(argv)
    text = capsys.readouterr()
    assert run([*argv, "--format", "json"]) == status
    rendered = capsys.readouterr()
    if status in (2, 3):
        assert text.out == rendered.out == ""
        assert text.err == rendered.err and text.err.startswith("hnb: ")
        return
    assert text.err == rendered.err == ""
    payload = json.loads(rendered.out)
    if argv[0] == "verify":
        assert all(report.pop("elapsed") >= 0 for report in payload)
    assert _text_values(argv[0], text.out.splitlines()) == payload


def test_usage_error_exit(capsys):
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_check_names_are_the_sorted_checks():
    assert CHECK_NAMES == tuple(sorted(CHECKS))


def test_an_unknown_check_is_refused_naming_every_check_in_order(capsys):
    assert run(["verify", "--check", "nope"]) == 2
    err = capsys.readouterr().err
    assert "argument --check: invalid choice: 'nope'" in err
    positions = [err.index(f"'{name}'") for name in sorted(CHECKS)]
    assert positions == sorted(positions)


def test_a_cold_check_sub_loads_only_bundle_criteria_and_cli():
    # The benchmark's cold-start line in a fresh interpreter; only hnbundles
    # modules are compared, since `site` may preload stdlib ones.
    program = (
        "import sys; sys.path.insert(0, sys.argv[1]); from hnbundles.cli import run; "
        "code = run(['check-sub', '0:1', '1,-1']); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'hnbundles'), "
        "file=sys.stderr); sys.exit(code)"
    )
    src = Path(hnbundles.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", program, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "true\n"
    loaded = ast.literal_eval(proc.stderr.strip().splitlines()[-1])
    assert set(loaded) == {"hnbundles", "hnbundles.bundle", "hnbundles.criteria",
                           "hnbundles.cli"}


PACKAGE_EXPORTS = {
    "bundle": [
        "BundleParseError", "HNBundle", "InternalConsistencyError", "PolygonVertex",
        "PreconditionError", "SegmentVector", "ZERO", "bundle_from_json", "bundle_to_json",
        "canonicalize", "format_bundle", "parse_bundle", "stable", "summand_difference",
    ],
    "criteria": [
        "hn_common_prefix", "is_quotient", "is_subbundle", "rank_condition",
        "slopewise_dominates", "strip_common_slopes",
    ],
    "degeneration": [
        "DecompositionTriple", "DegenerationTrace", "NormalizationStep", "NormalizedTriple",
        "build_e1", "decompose_mrs", "degeneration_chain", "degeneration_step",
        "degeneration_trace", "max_slope_reduction", "normalize_triple",
    ],
    "degrees": [
        "StratumReport", "c_value", "codimension", "deg_nonneg", "deg_nonneg_oracle",
        "dim_hom", "image_term", "stratum_dim", "stratum_dimension", "stratum_report",
    ],
    "render": ["render_svg", "write_svg"],
    "verify": [
        "CHECKS", "PAIR_UNIVERSE", "TRIPLE_UNIVERSE", "UniverseSpec", "VerificationReport",
        "admissible_slopes", "enumerate_bundles", "enumerate_candidate_images", "run_checks",
        "verify_degeneration", "verify_equivalence", "verify_invariance",
        "verify_key_inequality", "verify_oracles", "verify_stratification_dimension",
    ],
}


def test_the_package_resolves_each_public_name_from_its_module():
    names = [name for names in PACKAGE_EXPORTS.values() for name in names]
    assert len(names) == 58
    assert sorted(hnbundles.__all__) == sorted(names)
    listed = dir(hnbundles)
    for module, exported in PACKAGE_EXPORTS.items():
        source = importlib.import_module(f"hnbundles.{module}")
        assert getattr(hnbundles, module) is source
        for name in exported:
            assert getattr(hnbundles, name) is getattr(source, name), name
            assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        hnbundles.no_such_name


def test_negative_bundle_tokens_parse_as_positionals(capsys):
    assert run(["check-dominate", "-1", "-1/2,-3/2"]) in (0, 1)
    assert run(["c", "-1,-2", "0:1", "-2"]) == 0
    capsys.readouterr()


def test_images_default_pool(capsys):
    assert run(["images", "0,-2", "1,-1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_image = {row["image"]: row for row in rows}
    assert by_image["0,-2"]["stratum_dim"] == 5
    assert by_image["-1"]["stratum_dim"] == 3
    assert by_image["0"]["stratum_dim"] == 0
    assert rows[0]["stratum_dim"] == 5  # sorted, top stratum first
    assert all(row["c"] + row["stratum_dim"] == 5 for row in rows)


def test_images_default_pool_at_rank_six(capsys):
    assert run(["images", "0:6", "2:6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 394


@pytest.mark.parametrize("argv", [
    ["images", "0:30", "2:30"],
    # The default image spec sets max_den = max_rank = rank(E): the slopes alone pass the cap.
    ["images", "1/3000", "2"],
    ["images", "0:1000000000000", "1"],
    ["enumerate", "--max-rank", "2", "--slope-min", "-1000000000", "--slope-max", "1000000000"],
    # One slope and max_den = 10^12: the slope list has one entry, the pool O^k for every k.
    ["images", "0:1000000000000", "0:5"],
    ["enumerate", "--max-rank", "1000000000000", "--max-den", "1000000000000",
     "--slope-min", "0", "--slope-max", "0"],
    # Two slopes, 0 and 1/10^12, and no slope at any q strictly between 1 and 10^12.
    ["enumerate", "--max-rank", "1000000000000", "--max-den", "1000000000000",
     "--slope-min", "0", "--slope-max", "1/1000000000000"],
], ids=["images-rank-30", "images-rank-3000", "images-rank-10^12", "enumerate-wide-slopes",
        "images-one-slope", "enumerate-one-slope", "enumerate-narrow-box"])
def test_a_pool_over_the_cap_exits_3_quickly(argv):
    code, seconds, err = _run_in_child(argv)
    assert code == 3, err
    assert seconds < 1.0
    assert str(CANDIDATE_POOL_LIMIT) in err


@pytest.mark.parametrize("argv", [
    ["images", "0:1", "1"], ["enumerate", "--max-rank", "1"],
    ["verify", "--check", "invariance", "--max-rank", "1"],
], ids=["images", "enumerate", "verify"])
def test_an_exponent_slope_flag_exits_2_at_once(argv):
    # Read as a number, 1e1000000 is a million-digit integer bound.
    code, seconds, err = _run_in_child([*argv, "--slope-max", "1e1000000"])
    assert code == 2, err
    assert seconds < 1.0
    assert "not a rational number: '1e1000000'" in err


def _run_in_child(argv):
    """(exit status, seconds inside ``run``, stderr) of one ``run(argv)`` in a child process.

    A child, so that a run without bound fails at the timeout instead of hanging.
    """
    program = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); from hnbundles.cli import run; "
        "started = time.perf_counter(); code = run(sys.argv[2:]); "
        "print(time.perf_counter() - started, file=sys.stderr); sys.exit(code)"
    )
    src = Path(hnbundles.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", program, str(src), *argv],
                          capture_output=True, text=True, timeout=10)
    err, _, seconds = proc.stderr.rstrip("\n").rpartition("\n")
    return proc.returncode, float(seconds), err


HUGE = 10**12
NARROW_BOX = ["--max-rank", f"{HUGE}", "--max-den", f"{HUGE}",
              "--slope-min", "0", "--slope-max", f"1/{HUGE}"]
HOSTILE = {
    "check-sub": ["check-sub", f"1/{HUGE},0:{HUGE}", f"1:{HUGE},0:{HUGE}"],
    "check-dominate": ["check-dominate", f"1:{HUGE},0", f"0:{HUGE}"],
    "check-quotient": ["check-quotient", f"1/{HUGE}", f"0:{HUGE},-1"],
    "dims": ["dims", f"0:{HUGE},-1", f"1:{HUGE},1/{HUGE}", f"1/{HUGE}"],
    "c": ["c", f"0:{HUGE},-1", f"1:{HUGE},1/{HUGE}", f"-1/{HUGE}"],
    "trace": ["trace", f"0:{HUGE},-1", f"1:{HUGE + 2}", f"0:{HUGE - 1},-1"],
    "images": ["images", f"0:{HUGE}", f"1/{HUGE}:{HUGE}", *NARROW_BOX],
    "enumerate": ["enumerate", *NARROW_BOX],
    "verify": ["verify", "--check", "stratification", *NARROW_BOX],
    "render": ["render", "hostile.svg", f"0:{HUGE}", f"1/{HUGE}"],
}


def test_the_hostile_sweep_covers_every_subcommand():
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert set(HOSTILE) == set(commands)
    assert all(argv[0] == name for name, argv in HOSTILE.items())


@pytest.mark.parametrize("name", list(HOSTILE))
def test_every_subcommand_answers_rank_10_12_input_quickly(tmp_path, name):
    argv = [str(tmp_path / arg) if arg.endswith(".svg") else arg for arg in HOSTILE[name]]
    code, seconds, err = _run_in_child(argv)
    assert code in (0, 2, 3), err
    assert seconds < 1.0
    assert not (tmp_path / "hostile.svg").exists()


@pytest.mark.parametrize("check, count", [
    ("equivalence", 220**2), ("oracles", 220**2), ("invariance", 220**3),
])
def test_a_random_sample_past_the_universe_exits_3_at_once(capsys, check, count):
    # The desk pair universe holds 220 bundles; the draws are made with replacement.
    started = time.perf_counter()
    with _interrupted_after(5.0):
        assert run(["verify", "--check", check, "--samples", f"{HUGE}"]) == 3
    assert time.perf_counter() - started < 1.0
    assert f"exceeds the universe's {count} " in capsys.readouterr().err


class _Expired(BaseException):
    """Raised by the alarm of :func:`_interrupted_after`; no ``except`` in ``run`` catches it."""


@contextlib.contextmanager
def _interrupted_after(seconds):
    """Interrupt the block after ``seconds``, so that a run without bound fails, not hangs."""
    def expire(signum, frame):
        raise _Expired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", [["verify", "--check", "invariance"], ["enumerate"]],
                         ids=["verify", "enumerate"])
def test_every_pool_over_the_cap_exits_3_quickly(capsys, command):
    started = time.perf_counter()
    assert run([*command, "--max-rank", "60", "--max-den", "3"]) == 3
    assert time.perf_counter() - started < 5.0
    assert str(CANDIDATE_POOL_LIMIT) in capsys.readouterr().err


def test_images_zero_source(capsys):
    assert run(["images", "0", "1,-1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [{"image": "0", "stratum_dim": 0, "c": 0}]


def test_enumerate_command(capsys):
    assert run(["enumerate", "--max-rank", "1", "--slope-min", "0",
                "--slope-max", "0", "--max-den", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0:1"
    assert run(["enumerate", "--max-rank", "2", "--slope-min", "-1",
                "--slope-max", "1", "--max-den", "1", "--zero",
                "--format", "json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert len(listed) == 10 and "0" in listed
    assert all(parse_bundle(text) is not None for text in listed)


@pytest.mark.parametrize("argv", [
    ["enumerate", "--samples", "3"], ["enumerate", "--seed", "3"],
    ["images", "0,-2", "1,-1", "--samples", "3"], ["images", "0,-2", "1,-1", "--seed", "3"],
], ids=["enumerate-samples", "enumerate-seed", "images-samples", "images-seed"])
def test_only_verify_takes_samples_and_seed(capsys, argv):
    assert run(argv) == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("command", [["enumerate", "--max-rank", "1"],
                                     ["verify", "--check", "invariance", "--max-rank", "2"]],
                         ids=["enumerate", "verify"])
def test_a_huge_denominator_bound_past_the_rank_is_cheap(capsys, command):
    # A slope with denominator q has rank q, so --max-den past --max-rank adds no slope.
    started = time.perf_counter()
    assert run([*command, "--max-den", "1000000"]) == 0
    assert time.perf_counter() - started < 1.0
    if command[0] == "enumerate":
        assert capsys.readouterr().out.split() == ["2", "1", "0:1", "-1", "-2"]


def test_verify_command_pass_and_json(capsys):
    argv = ["verify", "--check", "equivalence", "--max-rank", "2",
            "--slope-min", "-1", "--slope-max", "1", "--max-den", "1"]
    assert run(argv) == 0
    assert "PASS equivalence" in capsys.readouterr().out
    assert run(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["property"] == "equivalence" and payload[0]["passed"]


def test_verify_stratification_honours_samples(capsys):
    assert run(["verify", "--check", "stratification", "--samples", "3", "--format", "json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["instances"] == 3


def test_render_writes_deterministic_svg(tmp_path, capsys):
    target = tmp_path / "poly.svg"
    assert run(["render", str(target), "1,-1", "0,-2"]) == 0
    first = target.read_bytes()
    assert run(["render", str(target), "1,-1", "0,-2"]) == 0
    assert target.read_bytes() == first
    assert b"<svg" in first and b"polyline" in first
    capsys.readouterr()


def test_render_unwritable_path(capsys):
    assert run(["render", "/nonexistent-dir/poly.svg", "1"]) == 2
    capsys.readouterr()


def test_render_too_many_bundles(capsys):
    bundles = ["1"] * 9
    assert run(["render", "/tmp/too-many.svg", *bundles]) == 3
    capsys.readouterr()


def test_render_past_the_grid_cap_exits_3_quickly(tmp_path, capsys):
    target = tmp_path / "huge.svg"
    started = time.perf_counter()
    assert run(["render", str(target), "1/1000000000000", "0:1000000000000"]) == 3
    assert time.perf_counter() - started < 1.0
    assert str(MAX_GRID_LINES) in capsys.readouterr().err
    assert not target.exists()


# ----------------------------------------------------------------------
# renderer internals via the library surface

def test_render_svg_vertices_and_legend():
    document = render_svg([B("1,-1")])
    # scale 48, margin 40, y_max = 1: (0,0)->(40,88); (1,1)->(88,40); (2,0)->(136,88)
    assert 'points="40,88 88,40 136,88"' in document
    assert "1,-1" in document


def test_render_svg_overlay_and_empty():
    document = render_svg([B("0,-2"), B("1,-1")])
    assert document.count("<polyline") == 2
    empty = render_svg([])
    assert "<svg" in empty and "<polyline" not in empty
    with pytest.raises(PreconditionError):
        render_svg([B("1")] * 9)


def test_render_svg_draws_at_most_the_grid_cap():
    # rank 1997 and degrees 0..1: 1,998 vertical lines and 2 horizontal ones
    assert render_svg([B("0:1997")]).count("<line ") == MAX_GRID_LINES
    with pytest.raises(PreconditionError):
        render_svg([B("0:1998")])


def test_render_overlay_preserves_dominance_shape():
    # dominated polygon must sit below the dominating one at every shared
    # integer x; SVG y grows downward, so its pixel rows are >= the other's
    document = render_svg([B("0,-2"), B("1,-1")])
    polylines = re.findall(r'points="([^"]+)"', document)
    rows = [
        {int(pair.split(",")[0]): int(pair.split(",")[1]) for pair in line.split()}
        for line in polylines
    ]
    lower, upper = rows
    assert all(lower[x] >= upper[x] for x in lower)
