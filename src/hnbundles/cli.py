"""Command-line surface.

Subcommands: check-sub, check-dominate, check-quotient, dims, c, trace,
images, enumerate, verify, render.  Bundles are written in the text grammar
("1,-1", "3/2:2", "0"); slopes always print as reduced fractions, never
decimals.

Exit status contract:

* 0  success; for check-* commands, the predicate holds
* 1  the predicate fails, or a verification run found a counterexample
* 2  usage or parse error
* 3  precondition violation (the named condition is echoed on stderr)
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .bundle import (
    BundleParseError,
    HNBundle,
    InternalConsistencyError,
    PreconditionError,
    ZERO,
    _as_slope,
    format_bundle,
    parse_bundle,
)
from .criteria import is_quotient, is_subbundle, slopewise_dominates

# Every other module (and json, dataclasses) is imported by the command body
# that uses it, so that a `check-*` call loads only `bundle` and `criteria`.
if TYPE_CHECKING:
    from .verify import UniverseSpec

__all__ = ["run", "main", "build_parser"]

# The `--check` choices, ``tuple(sorted(verify.CHECKS))``, written out so that
# building the parser does not import `verify`; a test pins the two together.
CHECK_NAMES = ("degeneration", "equivalence", "invariance", "key-inequality", "oracles",
               "stratification")


class _Parser(argparse.ArgumentParser):
    # Let bundle literals with a leading minus ("-1", "-1/2:3", "-2,-3")
    # pass as positional arguments instead of being read as option flags.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9]+(/[0-9]+)?(:[0-9]+)?(,.*)?$")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(*_as_slope(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")


def _add_universe_flags(parser: argparse.ArgumentParser) -> None:
    # Each dest is the UniverseSpec field the flag sets.
    parser.add_argument("--max-rank", type=int, default=None, metavar="N",
                        help="largest bundle rank in the universe")
    parser.add_argument("--slope-min", type=_fraction, default=None, metavar="Q",
                        help="smallest admissible slope")
    parser.add_argument("--slope-max", type=_fraction, default=None, metavar="Q",
                        help="largest admissible slope")
    parser.add_argument("--max-den", dest="max_denominator", type=int, default=None,
                        metavar="N", help="largest slope denominator")


def _universe_from_flags(args: argparse.Namespace) -> UniverseSpec | None:
    """Spec built from the given flags, or None when no universe flag was given."""
    from dataclasses import fields

    from .verify import UniverseSpec

    given = {field.name: getattr(args, field.name) for field in fields(UniverseSpec)
             if getattr(args, field.name, None) is not None}
    return UniverseSpec(**given) if given else None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hnb", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check-sub", help="is E a subbundle of F, i.e. is there an injective "
                                          "map E -> F? (its cokernel may have torsion)")
    p.add_argument("e", metavar="E")
    p.add_argument("f", metavar="F")
    _add_format(p)
    p.set_defaults(func=_cmd_check_sub)

    p = sub.add_parser("check-dominate", help="does F slopewise dominate E?")
    p.add_argument("f", metavar="F")
    p.add_argument("e", metavar="E")
    _add_format(p)
    p.set_defaults(func=_cmd_check_dominate)

    p = sub.add_parser("check-quotient",
                       help="does dual(E) slopewise dominate dual(Q)? (necessary for Q to be "
                            "a quotient of E, not sufficient)")
    p.add_argument("q", metavar="Q")
    p.add_argument("e", metavar="E")
    _add_format(p)
    p.set_defaults(func=_cmd_check_quotient)

    p = sub.add_parser("dims", help="Hom-space dimension, plus stratum data when Q is given")
    p.add_argument("e", metavar="E")
    p.add_argument("f", metavar="F")
    p.add_argument("q", metavar="Q", nargs="?", default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("c", help="codimension of the Q-stratum inside Hom(E, F)")
    p.add_argument("e", metavar="E")
    p.add_argument("f", metavar="F")
    p.add_argument("q", metavar="Q")
    _add_format(p)
    p.set_defaults(func=_cmd_c)

    p = sub.add_parser("trace", help="degeneration chain for a reduced triple (E, F, Q)")
    p.add_argument("e", metavar="E")
    p.add_argument("f", metavar="F")
    p.add_argument("q", metavar="Q")
    _add_format(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("images", help="candidate images Q with stratum dimension and codimension")
    p.add_argument("e", metavar="E")
    p.add_argument("f", metavar="F")
    _add_universe_flags(p)
    _add_format(p)
    p.set_defaults(func=_cmd_images)

    p = sub.add_parser("enumerate", help="list every bundle of a universe")
    _add_universe_flags(p)
    p.add_argument("--zero", action="store_true", help="include the zero bundle")
    _add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--check", action="append", choices=CHECK_NAMES, default=None,
                   help="check to run (repeatable; default: all)")
    _add_universe_flags(p)
    p.add_argument("--samples", dest="sample_limit", type=int, default=None, metavar="N",
                   help="sample N instances instead of exhausting the universe")
    p.add_argument("--seed", type=int, default=None, metavar="S",
                   help="seed for sampled instances (default 0)")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="write an SVG overlay of HN polygons")
    p.add_argument("output", metavar="OUT.svg")
    p.add_argument("bundles", metavar="BUNDLE", nargs="*")
    p.set_defaults(func=_cmd_render)

    return parser


# ----------------------------------------------------------------------
# command bodies

def _dumps(payload) -> str:
    import json

    return json.dumps(payload)


def _emit_bool(value: bool, fmt: str) -> int:
    if fmt == "json":
        print(_dumps({"result": value}))
    else:
        print("true" if value else "false")
    return 0 if value else 1


def _cmd_check_sub(args: argparse.Namespace) -> int:
    return _emit_bool(is_subbundle(parse_bundle(args.e), parse_bundle(args.f)), args.format)


def _cmd_check_dominate(args: argparse.Namespace) -> int:
    return _emit_bool(
        slopewise_dominates(parse_bundle(args.f), parse_bundle(args.e)), args.format
    )


def _cmd_check_quotient(args: argparse.Namespace) -> int:
    return _emit_bool(is_quotient(parse_bundle(args.q), parse_bundle(args.e)), args.format)


def _cmd_dims(args: argparse.Namespace) -> int:
    from .degrees import dim_hom, stratum_report

    e, f = parse_bundle(args.e), parse_bundle(args.f)
    payload: dict = {"hom": dim_hom(e, f)}
    if args.q is not None:
        report = stratum_report(e, f, parse_bundle(args.q))
        payload["stratum"] = report.stratum_dimension
        payload["c"] = report.c_value
    if args.format == "json":
        print(_dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key} {value}")
    return 0


def _cmd_c(args: argparse.Namespace) -> int:
    from .degrees import c_value

    value = c_value(parse_bundle(args.e), parse_bundle(args.f), parse_bundle(args.q))
    print(_dumps({"c": value}) if args.format == "json" else value)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .degeneration import degeneration_trace

    trace = degeneration_trace(parse_bundle(args.e), parse_bundle(args.f), parse_bundle(args.q))
    if args.format == "json":
        print(_dumps(trace.to_json_dict()))
        return 0
    for i, member in enumerate(trace.chain):
        line = f"step {i}: E={format_bundle(member)} c={trace.c_values[i]}"
        if i >= 1:
            step = trace.steps[i - 1]
            line += (
                f" M={format_bundle(step.common)}"
                f" R={format_bundle(step.q_complement)}"
                f" S={format_bundle(step.e_complement)}"
            )
        print(line)
    return 0


def _default_image_spec(e: HNBundle, f: HNBundle) -> UniverseSpec | None:
    """Complete candidate pool for (e, f); None when only zero qualifies.

    Candidate slopes lie in [mu_min(e), mu_max(f)] with denominators at
    most rank(e), so this spec covers every possible candidate image.
    """
    from .verify import UniverseSpec

    if e.is_zero or f.is_zero or e.mu_min > f.mu_max:
        return None
    return UniverseSpec(
        max_rank=e.rank,
        slope_min=e.mu_min,
        slope_max=f.mu_max,
        max_denominator=e.rank,
    )


def _cmd_images(args: argparse.Namespace) -> int:
    from .degrees import stratum_report
    from .verify import enumerate_candidate_images

    e, f = parse_bundle(args.e), parse_bundle(args.f)
    spec = _universe_from_flags(args)
    if spec is None:
        spec = _default_image_spec(e, f)
    candidates = [ZERO] if spec is None else list(enumerate_candidate_images(e, f, spec))
    reports = [stratum_report(e, f, q) for q in candidates]
    reports.sort(key=lambda r: (-r.stratum_dimension, r.image.rank, format_bundle(r.image)))
    if args.format == "json":
        print(_dumps([
            {
                "image": format_bundle(r.image),
                "stratum_dim": r.stratum_dimension,
                "c": r.c_value,
            }
            for r in reports
        ]))
    else:
        for r in reports:
            print(f"Q={format_bundle(r.image)} stratum={r.stratum_dimension} c={r.c_value}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .verify import UniverseSpec, bundle_pool

    spec = _universe_from_flags(args) or UniverseSpec()
    pool = bundle_pool(spec)
    bundles = [format_bundle(b) for b in (pool if args.zero else pool[1:])]
    if args.format == "json":
        print(_dumps(bundles))
    else:
        for text in bundles:
            print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_checks

    spec = _universe_from_flags(args)
    reports = run_checks(args.check, spec)
    if args.format == "json":
        print(_dumps([report.to_json_dict() for report in reports]))
    else:
        for report in reports:
            print(report.summary())
            for item in report.counterexamples[:10]:
                print(f"  counterexample: {item}")
            if len(report.counterexamples) > 10:
                print(f"  ... {len(report.counterexamples) - 10} more")
            for item in report.findings[:10]:
                print(f"  finding: {item}")
    return 0 if all(report.passed for report in reports) else 1


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import write_svg

    bundles = [parse_bundle(text) for text in args.bundles]
    write_svg(bundles, args.output)
    return 0


# ----------------------------------------------------------------------
# entry points

def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BundleParseError as exc:
        print(f"hnb: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hnb: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"hnb: precondition violated: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"hnb: internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"hnb: invalid input: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
