"""Command-line front end.

Subcommands: count (generating-tree DP), series (functional-equation
solver), generate (exhaustive diagram stream), oracle (brute force),
verify (cross-check harness) and refdata (embedded sequences).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard tripped.  Counts are always printed as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass

from . import closedform, oracle, refdata
from .errors import ResourceLimitError
from .gentree import (
    CONSTRAINED_FAMILIES,
    FAMILIES,
    FamilySpec,
    count_levels,
    count_sequence,
    generate_diagrams,
    level_distribution,
)
from .series import constant_term_sequence, ones_sequence, solve_equation

__all__ = ["main", "run", "VerificationReport", "CheckRecord"]

@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    expected: str
    actual: str
    status: str  # pass | fail | experimental-mismatch
    runtime: float


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple

    @property
    def overall(self):
        return "pass" if all(c.status != "fail" for c in self.checks) else "fail"

    def to_json_dict(self):
        return {
            "suite": self.suite,
            "overall": self.overall,
            "checks": [
                {
                    "check_id": c.check_id,
                    "expected": c.expected,
                    "actual": c.actual,
                    "status": c.status,
                    "runtime": round(c.runtime, 3),
                }
                for c in self.checks
            ],
        }


def _spec_from_args(args):
    try:
        return FamilySpec(args.family, args.k)
    except ValueError as exc:
        raise SystemExit2(exc) from None


class SystemExit2(Exception):
    """Usage error discovered after argparse."""


def _int_at_least(minimum):
    """argparse type: an integer no smaller than `minimum`."""

    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_SIZE = _int_at_least(0)
_NESTING = _int_at_least(2)
_BUDGET = _int_at_least(1)


def _cmd_count(args):
    spec = _spec_from_args(args)
    if args.all_labels:
        level = level_distribution(spec, args.n, max_labels=args.max_labels)
        if args.format == "json":
            print(json.dumps(level.to_json_dict()))
            return 0
        # the labels of a level share one shape, so this is numeric order,
        # the order of the JSON
        entries = sorted(level.entries.items())
        if args.format == "csv":
            _print_csv(
                ["label", "count"],
                [[json.dumps(l), str(c)] for l, c in entries],
            )
        else:
            for label, count in entries:
                print(f"{label}: {count}")
        return 0
    seq = count_sequence(spec, args.n, max_labels=args.max_labels)
    if args.format == "json":
        out = {"family": spec.family, "n": args.n, "counts": [str(c) for c in seq]}
        if spec.k is not None:
            out["k"] = spec.k
        print(json.dumps(out))
    elif args.format == "csv":
        _print_csv(["n", "count"], [[str(i), str(c)] for i, c in enumerate(seq, 1)])
    else:
        print(",".join(str(c) for c in seq))
    return 0


def _print_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _solve_from_args(args):
    family = args.family
    if family == "partitions":
        if args.k is None:
            raise SystemExit2("--k is required for series family partitions")
        return solve_equation("Q", args.n, k=args.k)
    if family == "partitions-enhanced":
        if args.k is None:
            raise SystemExit2("--k is required for series family partitions-enhanced")
        return solve_equation("P", args.n, k=args.k)
    if family == "permutations3":
        if args.k not in (None, 3):
            raise SystemExit2("the permutation equation is only implemented for k=3")
        return solve_equation("F", args.n)
    if args.k is not None:
        raise SystemExit2("--k is not accepted for series family baxter")
    return solve_equation("B", args.n)


def _cmd_series(args):
    f = _solve_from_args(args)
    if args.full:
        print("# variables: " + " ".join(f.variables))
        for line in f.dump_lines():
            print(line)
        return 0
    if args.family == "baxter":
        seq = ones_sequence(f)
    else:
        seq = constant_term_sequence(f)
    print(",".join(str(c) for c in seq))
    return 0


def _cmd_generate(args):
    spec = _spec_from_args(args)
    for diagram in generate_diagrams(spec, args.n, closed_only=args.closed_only):
        print(json.dumps(diagram.to_json_dict()))
    return 0


def _cmd_oracle(args):
    print(oracle.oracle_count(args.family, args.k, args.n))
    return 0


def _cmd_refdata(args):
    try:
        seq = refdata.lookup(args.family, args.k)
    except KeyError as exc:
        raise SystemExit2(exc) from None
    print(
        json.dumps(
            {
                "oeis_id": seq.oeis_id,
                "family": seq.family,
                "k": seq.k,
                "offset": seq.offset,
                "terms": list(seq.terms),
            }
        )
    )
    return 0


def _check(checks, check_id, expected, actual, started):
    checks.append(
        CheckRecord(
            check_id=check_id,
            expected=str(expected),
            actual=str(actual),
            status="pass" if expected == actual else "fail",
            runtime=time.perf_counter() - started,
        )
    )


def _suite_paper_tables(checks, max_n):
    for (family, k), seq in sorted(refdata.all_sequences().items()):
        if family == "baxter":
            continue
        t0 = time.perf_counter()
        n = min(len(seq.terms), max_n)
        expected = seq.as_ints()[:n]
        actual = count_sequence(FamilySpec(family, k), n)
        _check(checks, f"tables/{family}/k={k}/n<={n}", expected, actual, t0)


def _suite_cross_methods(checks, max_n):
    for family, eq in (("partitions", "Q"), ("partitions-enhanced", "P")):
        for k in (2, 3, 4):
            n = min(max_n, 12)
            t0 = time.perf_counter()
            dp = [1] + count_sequence(FamilySpec(family, k), n)
            ser = constant_term_sequence(solve_equation(eq, n, k=k))
            _check(checks, f"cross/{family}/k={k}/series", ser, dp, t0)
            n2 = min(max_n, 9)
            t0 = time.perf_counter()
            brute = [oracle.oracle_count(family, k, m) for m in range(n2 + 1)]
            _check(checks, f"cross/{family}/k={k}/oracle", brute, dp[: n2 + 1], t0)
    n = min(max_n, 12)
    t0 = time.perf_counter()
    dp = [1] + count_sequence(FamilySpec("permutations", 3), n)
    ser = constant_term_sequence(solve_equation("F", n))
    _check(checks, "cross/permutations/k=3/series", ser, dp, t0)
    for k in (2, 3, 4):
        n2 = min(max_n, 7)
        t0 = time.perf_counter()
        dp = [1] + count_sequence(FamilySpec("permutations", k), n2)
        brute = [oracle.oracle_count("permutations", k, m) for m in range(n2 + 1)]
        _check(checks, f"cross/permutations/k={k}/oracle", brute, dp, t0)


def _suite_baxter(checks, max_n):
    n = min(max_n, 25)
    t0 = time.perf_counter()
    coeffs = ones_sequence(solve_equation("B", n))
    expected = [closedform.baxter(m + 1) for m in range(n + 1)]
    _check(checks, f"baxter/series-vs-formula/n<={n}", expected, coeffs, t0)
    t0 = time.perf_counter()
    embedded = refdata.lookup("baxter", 3).as_ints()
    shared = min(len(embedded), len(coeffs))
    _check(
        checks,
        "baxter/series-vs-embedded",
        embedded[:shared],
        coeffs[:shared],
        t0,
    )


def _suite_egf(checks, max_n):
    n = min(max_n, 12)
    t0 = time.perf_counter()
    totals = [
        lv.total() for lv in count_levels(FamilySpec("open-partitions"), n)
    ]
    expected = [closedform.open_partition_count(m) for m in range(n + 1)]
    _check(checks, f"egf/open-partitions/n<={n}", expected, totals, t0)
    n = min(max_n, 10)
    t0 = time.perf_counter()
    totals = [
        lv.total() for lv in count_levels(FamilySpec("open-permutations"), n)
    ]
    expected = [closedform.open_permutation_count(m) for m in range(n + 1)]
    _check(checks, f"egf/open-permutations/n<={n}", expected, totals, t0)


def run_suite(suite, max_n):
    checks = []
    if suite in ("paper-tables", "all"):
        _suite_paper_tables(checks, max_n)
    if suite in ("cross-methods", "all"):
        _suite_cross_methods(checks, max_n)
    if suite in ("baxter", "all"):
        _suite_baxter(checks, max_n)
    if suite in ("egf", "all"):
        _suite_egf(checks, max_n)
    return VerificationReport(suite=suite, checks=tuple(checks))


def _cmd_verify(args):
    report = run_suite(args.suite, args.max_n)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        for c in report.checks:
            print(f"{c.status.upper():4}  {c.check_id}  [{c.runtime:.2f}s]")
            if c.status == "fail":
                print(f"      expected: {c.expected}")
                print(f"      actual:   {c.actual}")
        print(f"overall: {report.overall}")
    return 0 if report.overall == "pass" else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nonnesting",
        description="Enumerate set partitions and permutations with no k "
        "mutually nested arcs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="generating-tree counts")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--k", type=_NESTING, help="forbidden nesting size")
    p.add_argument("--n", type=_SIZE, required=True)
    p.add_argument("--all-labels", action="store_true",
                   help="dump the full label distribution at level n")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--max-labels", type=_BUDGET, help="distinct-label budget")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("series", help="functional-equation solutions")
    p.add_argument(
        "--family",
        required=True,
        choices=("partitions", "partitions-enhanced", "permutations3", "baxter"),
    )
    p.add_argument("--k", type=_NESTING)
    p.add_argument("--n", type=_SIZE, required=True)
    p.add_argument("--full", action="store_true",
                   help="dump every coefficient, not just the counting terms")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("generate", help="stream all diagrams of size n")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--k", type=_NESTING)
    p.add_argument("--n", type=_SIZE, required=True)
    p.add_argument("--closed-only", action="store_true",
                   help="emit only diagrams without semi-arcs")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="brute-force count")
    p.add_argument("--family", required=True, choices=CONSTRAINED_FAMILIES)
    p.add_argument("--k", type=_NESTING, required=True)
    p.add_argument("--n", type=_SIZE, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="cross-check harness")
    p.add_argument(
        "--suite",
        default="all",
        choices=("paper-tables", "cross-methods", "baxter", "egf", "all"),
    )
    p.add_argument("--max-n", type=_SIZE, default=12)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("refdata", help="dump an embedded reference sequence")
    p.add_argument(
        "--family",
        required=True,
        choices=("partitions", "partitions-enhanced", "permutations", "baxter"),
    )
    p.add_argument("--k", type=_NESTING, required=True)
    p.set_defaults(func=_cmd_refdata)

    return parser


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`): stop quietly, and point
        # stdout at devnull so the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
