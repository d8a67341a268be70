"""Command-line front end.

Subcommands: ``two-sample`` and ``one-sample`` run tests on CSV files,
``simulate`` runs a seeded size/power study and writes plot data plus a
JSON run manifest, ``selftest`` validates the fast paths against the
naive oracles.

Exit codes: 0 success, 2 usage error, 3 data error.  A ``simulate``
study that its ``ExperimentPlan`` refuses, or an ``--out`` whose file or
manifest path is a directory or lies in a missing one, is a usage error
before the study runs; a failure while it runs is a data error.  All outputs are
deterministic given the flags; only the manifest timestamp varies.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
from ._selftest import TOLERANCE, run_selftest, selftest_passed
from .dataio import read_matrix_csv
from .errors import HDTestError, InvalidInputError, InvalidSpecError
from .errors import require_counts, require_level, require_seed
from .generators import MODEL_NAMES, SHIFT_FIRST, SHIFT_SPREAD
from .inference import (
    METHOD_ASYMPTOTIC,
    METHOD_PERMUTATION,
    METHOD_RSRM_ORACLE,
    METHOD_SIGNFLIP,
    TestReport,
    evaluate_one_sample,
    evaluate_two_sample,
)
from .montecarlo import ExperimentPlan, run_power_study, summarize_to_plot_data
from .statistics import ONE_SAMPLE_STATS, TWO_SAMPLE_STATS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

_METHOD_TOKENS = {"asym": METHOD_ASYMPTOTIC, "perm": METHOD_PERMUTATION,
                  "oracle": METHOD_RSRM_ORACLE}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _report_lines(report: TestReport, fmt: str) -> str:
    data = report.to_dict()
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    if fmt == "csv":
        keys = [k for k in data if k not in ("nuisance", "schema")]
        nuis = data["nuisance"] or {}
        keys_n = [f"nuisance_{k}" for k in nuis]
        header = ",".join(keys + keys_n)
        values = [_csv_cell(data[k]) for k in keys] + [
            _csv_cell(v) for v in nuis.values()
        ]
        return header + "\n" + ",".join(values) + "\n"
    lines = [
        f"statistic {report.stat_kind}: {report.statistic!r}",
        f"method: {report.method}",
        f"p-value: {report.p_value!r}",
        f"reject at alpha={report.alpha!r}: {'yes' if report.reject else 'no'}",
    ]
    if report.z is not None:
        lines.insert(2, f"z-score: {report.z!r}")
    if report.n_resamples is not None:
        lines.append(f"resamples: {report.n_resamples} (seed {report.seed})")
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flag_type(convert, rule):
    """argparse type: the text converted by ``convert``, then checked by the
    library's ``rule(error, name, value)``; argparse names the flag."""

    def parse(text: str):
        try:
            value = convert(text)
            rule(InvalidInputError, "value", value)
        except ValueError as exc:  # InvalidInputError is a ValueError too
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


_count = _flag_type(int, lambda error, name, value: require_counts(error, **{name: value}))
_seed = _flag_type(int, require_seed)
_level = _flag_type(float, require_level)


def _add_common_test_flags(sub):
    sub.add_argument("--alpha", type=_level, default=0.05)
    sub.add_argument("--perms", type=_count, default=500,
                     help="number of resamples for randomization methods")
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")


def build_parser() -> _Parser:
    parser = _Parser(prog="hdsigntest", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    two = subs.add_parser("two-sample", help="test E(X) = E(Y) from two CSV files")
    two.add_argument("--x", required=True, help="CSV file, one observation per row")
    two.add_argument("--y", required=True)
    two.add_argument("--stat", choices=TWO_SAMPLE_STATS, required=True)
    two.add_argument("--method", choices=(METHOD_ASYMPTOTIC, METHOD_PERMUTATION), required=True)
    _add_common_test_flags(two)

    one = subs.add_parser("one-sample", help="test E(X) = 0 from a CSV file")
    one.add_argument("--x", required=True)
    one.add_argument("--stat", choices=ONE_SAMPLE_STATS, required=True)
    one.add_argument("--method", choices=(METHOD_ASYMPTOTIC, METHOD_SIGNFLIP), required=True)
    _add_common_test_flags(one)

    sim = subs.add_parser("simulate", help="run a seeded size/power study")
    sim.add_argument("--model", choices=MODEL_NAMES, required=True)
    sim.add_argument("--m", type=int, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--grid", required=True, help='grid points as "d:c,d:c,..."')
    sim.add_argument(
        "--tests", required=True,
        help='tests as "stat:method,..." with methods asym, perm or oracle',
    )
    sim.add_argument("--reps", type=_count, required=True)
    sim.add_argument("--alpha", type=_level, default=0.05)
    sim.add_argument("--perms", type=_count, default=500)
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--rho", type=float, default=0.7)
    sim.add_argument("--beta", type=float, default=0.7)
    sim.add_argument("--shift-style", choices=(SHIFT_FIRST, SHIFT_SPREAD),
                     default=SHIFT_FIRST)
    sim.add_argument("--out", required=True, help="plot-data CSV output path")

    self_p = subs.add_parser("selftest", help="validate fast paths against oracles")
    self_p.add_argument("--trials", type=_count, default=100)
    self_p.add_argument("--seed", type=_seed, default=0)
    return parser


def _parse_pairs(text: str, noun: str, expected: str, convert) -> tuple:
    """The pairs of a comma-separated list flag: every nonempty token,
    stripped, split on ":" and passed to ``convert(first, second)``.  A
    token that does not split in two, or that ``convert`` refuses with a
    ValueError or KeyError, is a usage error naming the token."""
    pairs = []
    for token in text.split(","):
        token = token.strip()
        if token:
            try:
                first, second = token.split(":")
                pairs.append(convert(first, second))
            except (ValueError, KeyError):
                raise _UsageError(f"bad {noun} token {token!r}, expected {expected}") from None
    return tuple(pairs)


def _parse_grid(text: str):
    return _parse_pairs(text, "grid", "d:c", lambda d, c: (int(d), float(c)))


def _parse_tests(text: str):
    expected = f"stat:method with method in {{{', '.join(_METHOD_TOKENS)}}}"
    return _parse_pairs(text, "test", expected,
                        lambda stat, method: (stat, _METHOD_TOKENS[method]))


def _cmd_test(args, out) -> int:
    samples = [read_matrix_csv(args.x)]
    evaluate = evaluate_one_sample
    if args.command == "two-sample":
        samples.append(read_matrix_csv(args.y))
        evaluate = evaluate_two_sample
    key = (args.stat, args.method)
    report = evaluate(*samples, [key], args.alpha, args.perms, args.seed)[key]
    out.write(_report_lines(report, args.format))
    return EXIT_OK


def _cmd_simulate(args, out) -> int:
    try:
        plan = ExperimentPlan(
            model=args.model,
            grid=_parse_grid(args.grid),
            m=args.m,
            n=args.n,
            tests=_parse_tests(args.tests),
            replications=args.reps,
            alpha=args.alpha,
            n_resamples=args.perms,
            base_seed=args.seed,
            rho=args.rho,
            beta=args.beta,
            shift_style=args.shift_style,
        )
    except InvalidSpecError as exc:
        raise _UsageError(exc) from exc
    manifest_path = args.out + ".manifest.json"
    if (not os.path.isdir(os.path.dirname(args.out) or ".")
            or os.path.isdir(args.out) or os.path.isdir(manifest_path)):
        raise _UsageError(f"--out {args.out!r} cannot be written: it or {manifest_path!r} "
                          "is a directory, or its directory does not exist")
    points = run_power_study(plan)
    csv_text = summarize_to_plot_data(points)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(csv_text)
    manifest = {
        "schema": 1,
        "command": ["simulate"] + _echo_flags(args),
        "library_version": __version__,
        "plan": plan.to_dict(),
        "points": [
            {
                "model": p.model,
                "d": p.d,
                "c": p.c,
                "stat": p.stat,
                "method": p.method,
                "rate": p.rejection_rate,
                "se": p.std_err,
                "replications": p.replications,
            }
            for p in points
        ],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    out.write(f"wrote {len(points)} curve points to {args.out}\n")
    return EXIT_OK


def _echo_flags(args) -> list:
    skip = {"command", "func"}
    return [
        f"--{key.replace('_', '-')}={value}"
        for key, value in sorted(vars(args).items())
        if key not in skip
    ]


def _cmd_selftest(args, out) -> int:
    results = run_selftest(args.trials, args.seed)
    width = max(len(name) for name in results)
    for name in sorted(results):
        dev = results[name]
        status = "ok" if dev <= TOLERANCE else "FAIL"
        out.write(f"{name:<{width}}  max relative deviation {dev:.3e}  [{status}]\n")
    if selftest_passed(results):
        out.write(f"all checks within {TOLERANCE:.0e}\n")
        return EXIT_OK
    out.write("selftest FAILED\n")
    return 1


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("two-sample", "one-sample"):
            return _cmd_test(args, out)
        if args.command == "simulate":
            return _cmd_simulate(args, out)
        return _cmd_selftest(args, out)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (HDTestError, OSError) as exc:
        err.write(f"data error: {exc}\n")
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
