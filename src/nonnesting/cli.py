"""Command-line front end.

Subcommands: count (generating-tree DP), series (functional-equation
solver), generate (exhaustive diagram stream), oracle (brute force),
verify (cross-check harness) and refdata (embedded sequences).  Each is one
row of `_COMMANDS`: its help text, the function that adds its arguments and
the function that runs it.  `run` builds the parser of the invoked
subcommand alone, and the full parser only for any other argv.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard tripped.  Counts are always printed as exact decimal strings, however
many digits they have.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial

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
from .series import (SERIES_FAMILIES, constant_term_sequence, ones_sequence,
                     solve_equation)

__all__ = ["main", "run", "run_suite", "run_checks", "CHECKS", "Check"]


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


def _print_stats(record):
    print(json.dumps(record), file=sys.stderr)


def _cmd_count(args):
    spec = _spec_from_args(args)
    stats = _print_stats if args.stats else None
    if args.all_labels:
        level = level_distribution(
            spec, args.n, max_labels=args.max_labels, stats=stats
        )
        if args.format == "json":
            print(level.to_json())
        elif args.format == "csv":
            _print_csv(["label", "count"], _label_rows(level.entries))
        else:
            for label, count in level.entries.items():
                print(f"{label}: {count}")
        return 0
    seq = count_sequence(spec, args.n, max_labels=args.max_labels, stats=stats)
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


def _label_rows(entries):
    """CSV rows [label, count], each label (an int, or a tuple of ints and
    tuples of ints) as `json.dumps` writes it: `str` writes the same text
    but for a tuple's round brackets and a one-element tuple's trailing
    comma."""
    return [
        [str(l).replace("(", "[").replace(")", "]").replace(",]", "]"), str(c)]
        for l, c in entries.items()
    ]


def _print_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _solve_from_args(args):
    family, k = args.family, args.k
    if family == "permutations3":
        # the k=3 spelling of permutations, pinned by the series-solve workload
        if k not in (None, 3):
            raise SystemExit2("series family permutations3 is k=3 only")
        family, k = "permutations", 3
    try:
        return solve_equation(
            family, args.n, k=k, full=args.full,
            stats=_print_stats if args.stats else None,
        )
    except ValueError as exc:
        raise SystemExit2(exc) from None


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
        print(diagram.to_json())
    return 0


def _cmd_oracle(args):
    if not args.stats:
        print(oracle.oracle_count(args.family, args.k, args.n))
        return 0
    # past the memo, so that the time is the walk's own
    started = time.perf_counter()
    histogram = oracle.nesting_histogram.__wrapped__(args.family, args.n)
    seconds = time.perf_counter() - started
    objects = sum(histogram)
    _print_stats({
        "family": args.family, "n": args.n, "objects": objects,
        "histogram": list(histogram), "seconds": seconds,
        "objects_per_s": objects / seconds if seconds > 0 else None,
    })
    print(sum(histogram[: args.k]))
    return 0


def _cmd_refdata(args):
    try:
        seq = refdata.lookup(args.family, args.k)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message
        raise SystemExit2(exc.args[0]) from None
    print(json.dumps(asdict(seq)))
    return 0


@dataclass(frozen=True)
class Check:
    """One release claim: `run(n)` returns (expected, actual) at size n,
    and "{n}" in check_id stands for that size.  `verify` runs it at no
    more than max_n."""

    suite: str
    check_id: str
    max_n: int
    run: Callable[[int], tuple]


# The thunks look up the counters and closed forms when they run, so a
# name rebound after import (bench/tracer.py's wrappers) is the one called.
def _table(family, k, n):
    expected = refdata.lookup(family, k).as_ints()[:n]
    return expected, count_sequence(FamilySpec(family, k), n)


def _series(family, k, n):
    expected = constant_term_sequence(solve_equation(family, n, k=k, full=False))
    return expected, [1] + count_sequence(FamilySpec(family, k), n)


def _oracle(family, k, n):
    expected = [oracle.oracle_count(family, k, m) for m in range(n + 1)]
    return expected, [1] + count_sequence(FamilySpec(family, k), n)


def _baxter_formula(n):
    expected = [closedform.baxter(m + 1) for m in range(n + 1)]
    return expected, ones_sequence(solve_equation("baxter", n))


def _baxter_embedded(n):
    expected = refdata.lookup("baxter", 3).as_ints()[: n + 1]
    return expected, ones_sequence(solve_equation("baxter", n))


def _open_totals(family, total, n):
    expected = [getattr(closedform, total)(m) for m in range(n + 1)]
    return expected, [lv.total() for lv in count_levels(FamilySpec(family), n)]


def _build_checks():
    checks = [
        Check("paper-tables", f"tables/{family}/k={k}/n<={{n}}", len(seq.terms),
              partial(_table, family, k))
        for (family, k), seq in sorted(refdata.all_sequences().items())
        if family != "baxter"
    ]
    for family in ("partitions", "partitions-enhanced"):
        for k in (2, 3, 4):
            checks += [
                Check("cross-methods", f"cross/{family}/k={k}/series", 12,
                      partial(_series, family, k)),
                Check("cross-methods", f"cross/{family}/k={k}/oracle", 9,
                      partial(_oracle, family, k)),
            ]
    checks.append(Check("cross-methods", "cross/permutations/k=3/series", 12,
                        partial(_series, "permutations", 3)))
    checks += [
        Check("cross-methods", f"cross/permutations/k={k}/oracle", 7,
              partial(_oracle, "permutations", k))
        for k in (2, 3, 4)
    ]
    embedded = len(refdata.lookup("baxter", 3).terms)
    checks += [
        Check("baxter", "baxter/series-vs-formula/n<={n}", 25, _baxter_formula),
        Check("baxter", "baxter/series-vs-embedded", embedded - 1, _baxter_embedded),
        Check("egf", "egf/open-partitions/n<={n}", 12,
              partial(_open_totals, "open-partitions", "open_partition_count")),
        Check("egf", "egf/open-permutations/n<={n}", 10,
              partial(_open_totals, "open-permutations", "open_permutation_count")),
    ]
    return tuple(checks)


# every release claim, in the order `verify` prints them; the acceptance
# tests run the same entries at their release sizes
CHECKS = _build_checks()


def run_checks(sized):
    """Run each (check, n) pair at its size n; one row each, a dict with the
    keys of a `verify --format json` check in order, runtime unrounded."""
    rows = []
    for check, n in sized:
        started = time.perf_counter()
        expected, actual = check.run(n)
        rows.append({
            "check_id": check.check_id.format(n=n),
            "expected": str(expected),
            "actual": str(actual),
            "status": "pass" if expected == actual else "fail",
            "runtime": time.perf_counter() - started,
        })
    return rows


def run_suite(suite, max_n):
    """The `run_checks` rows of every check in `suite` ("all" for every
    check), each run at min(max_n, its max_n)."""
    sized = [(c, min(max_n, c.max_n)) for c in CHECKS if suite in (c.suite, "all")]
    return run_checks(sized)


def _cmd_verify(args):
    rows = run_suite(args.suite, args.max_n)
    overall = "pass" if all(r["status"] == "pass" for r in rows) else "fail"
    if args.format == "json":
        checks = [{**r, "runtime": round(r["runtime"], 3)} for r in rows]
        print(json.dumps({"suite": args.suite, "overall": overall, "checks": checks}))
    else:
        for r in rows:
            print(f"{r['status'].upper():4}  {r['check_id']}  [{r['runtime']:.2f}s]")
            if r["status"] == "fail":
                print(f"      expected: {r['expected']}")
                print(f"      actual:   {r['actual']}")
        print(f"overall: {overall}")
    return 0 if overall == "pass" else 1


def _count_arguments(p):
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--k", type=_NESTING, help="forbidden nesting size")
    p.add_argument("--n", type=_SIZE, required=True)
    p.add_argument("--all-labels", action="store_true",
                   help="dump the full label distribution at level n")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--max-labels", type=_BUDGET, help="distinct-label budget")
    p.add_argument("--stats", action="store_true",
                   help="write one JSON line per level to stderr: labels "
                   "kept, push seconds, widest count in bits")


def _series_arguments(p):
    p.add_argument("--family", required=True,
                   choices=(*SERIES_FAMILIES, "permutations3"))
    p.add_argument("--k", type=_NESTING)
    p.add_argument("--n", type=_SIZE, required=True)
    p.add_argument("--full", action="store_true",
                   help="dump every coefficient, not just the counting terms")
    p.add_argument("--stats", action="store_true",
                   help="write one JSON line per z-order to stderr: terms "
                   "built and kept, seconds in Phi")


def _generate_arguments(p):
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--k", type=_NESTING)
    p.add_argument("--n", type=_SIZE, required=True)
    p.add_argument("--closed-only", action="store_true",
                   help="emit only diagrams without semi-arcs")


def _oracle_arguments(p):
    p.add_argument("--family", required=True, choices=CONSTRAINED_FAMILIES)
    p.add_argument("--k", type=_NESTING, required=True)
    p.add_argument("--n", type=_SIZE, required=True)
    p.add_argument("--stats", action="store_true",
                   help="write one JSON line to stderr: objects walked, their "
                   "maximum-nesting histogram, seconds and objects per second")


def _verify_arguments(p):
    p.add_argument(
        "--suite",
        default="all",
        choices=(*dict.fromkeys(c.suite for c in CHECKS), "all"),
    )
    p.add_argument("--max-n", type=_SIZE, default=12)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _refdata_arguments(p):
    p.add_argument(
        "--family",
        required=True,
        choices=tuple(dict.fromkeys(f for f, _ in refdata.all_sequences())),
    )
    p.add_argument("--k", type=_NESTING, required=True)


# each subcommand, in the order --help lists them: its help text, the
# function that adds its arguments, and the function that runs it
_COMMANDS = {
    "count": ("generating-tree counts", _count_arguments, _cmd_count),
    "series": ("functional-equation solutions", _series_arguments, _cmd_series),
    "generate": ("stream all diagrams of size n", _generate_arguments,
                 _cmd_generate),
    "oracle": ("brute-force count", _oracle_arguments, _cmd_oracle),
    "verify": ("cross-check harness", _verify_arguments, _cmd_verify),
    "refdata": ("dump an embedded reference sequence", _refdata_arguments,
                _cmd_refdata),
}


def _build_parser(command=None):
    """The parser of every subcommand, or of `command` alone.

    A parser with one subcommand reads that subcommand's argv exactly as
    the full one does: the subcommand's own parser is the same, and its
    metavar keeps every name in the top-level usage line that an error
    prints.  Any other argv (--help, no command, an unknown one) needs the
    full parser, whose messages name the subcommands as argparse lists
    them."""
    parser = argparse.ArgumentParser(
        prog="nonnesting",
        description="Enumerate set partitions and permutations with no k "
        "mutually nested arcs.",
    )
    if command is None:
        names, metavar = _COMMANDS, None
    else:
        names, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, func = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


@contextmanager
def _exact_int_strings():
    """Lift CPython's cap on the digits of an int converted to a string
    (4,300 by default) while a command runs, since every count it prints is
    exact; the caller's cap is restored afterwards."""
    get_cap = getattr(sys, "get_int_max_str_digits", None)
    if get_cap is None:  # an interpreter without the cap
        yield
        return
    saved = get_cap()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def run(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the invoked subcommand's parser is built: the others' arguments
    # are a fixed cost that no single command needs
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        with _exact_int_strings():
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
