"""Command-line front end.

Subcommands: count (generating-tree DP), series (functional-equation
solver), generate (exhaustive diagram stream), oracle (brute force),
verify (the release harness of `harness`) and refdata (embedded
sequences).  Each is one row of `_COMMANDS`: its help text, its option
table and the function that runs it.  This module holds only the parser,
the commands and their output.  `run` reads a plain argv straight from the
invoked subcommand's table (`_read`).  Any other argv goes to argparse,
whose one parser is built from the same tables: help, usage errors and
every other spelling print exactly what they always have.

Importing this module loads only `gentree` and `series` of the package.
Whatever else a command needs (`json`, `csv`, `oracle`, `closedform`,
`refdata`, `diagrams`, and for `verify` the `harness` with its table of
checks) is imported by the code that first uses it.  Each module's
functions are still called through the module, so a wrapper set on one of
them sees every call.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard tripped.  Counts are always printed as exact decimal strings, however
many digits they have.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

from .errors import ResourceLimitError
# count_levels, constant_term_sequence and ones_sequence are no longer
# called here, yet they stay bound: bench/tracer.py wraps them, with
# count_sequence and solve_equation, by their names in this module
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
                     solve_equation, solve_sequence)

__all__ = ["main", "run"]


def _spec_from_args(args):
    try:
        return FamilySpec(args.family, args.k)
    except ValueError as exc:
        raise SystemExit2(exc) from None


class SystemExit2(Exception):
    """Usage error discovered after the argv is read."""


def _int_at_least(minimum):
    """Option type: an integer no smaller than `minimum`."""

    def parse(text):
        value = int(text)
        if value < minimum:
            import argparse  # only the error needs it

            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_SIZE = _int_at_least(0)
_NESTING = _int_at_least(2)
_BUDGET = _int_at_least(1)


def _print_stats(record):
    import json

    print(json.dumps(record), file=sys.stderr)


def _cmd_count(args):
    spec = _spec_from_args(args)
    stats = _print_stats if args.stats else None
    if args.all_labels:
        level = level_distribution(
            spec, args.n, max_labels=args.max_labels, stats=stats
        )
        level.dump(sys.stdout.write, args.format)
        return 0
    seq = count_sequence(spec, args.n, max_labels=args.max_labels, stats=stats)
    if args.format == "json":
        import json

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
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _solve_from_args(args):
    """The counting terms of the series the argv names, holding one z-order
    at a time, or with --full the whole series."""
    family, k = args.family, args.k
    if family == "permutations3":
        # the k=3 spelling of permutations, pinned by the series-solve workload
        if k not in (None, 3):
            raise SystemExit2("series family permutations3 is k=3 only")
        family, k = "permutations", 3
    stats = _print_stats if args.stats else None
    try:
        if args.full:
            return solve_equation(family, args.n, k=k, stats=stats)
        return solve_sequence(family, args.n, k=k, stats=stats)
    except ValueError as exc:
        raise SystemExit2(exc) from None


def _cmd_series(args):
    solved = _solve_from_args(args)
    if not args.full:
        print(",".join(str(c) for c in solved))
        return 0
    print("# variables: " + " ".join(solved.variables))
    for line in solved.dump_lines():
        print(line)
    return 0


def _cmd_generate(args):
    spec = _spec_from_args(args)
    started = time.perf_counter()
    walk = generate_diagrams(spec, args.n, closed_only=args.closed_only)
    write = sys.stdout.write  # one call per line, where print makes two
    emitted = 0
    for emitted, diagram in enumerate(walk, 1):
        write(diagram.to_json() + "\n")
    if not args.stats:
        return 0
    seconds = time.perf_counter() - started
    _print_stats({
        "family": spec.family, "k": spec.k, "n": args.n,
        "closed_only": args.closed_only, "diagrams": emitted, "seconds": seconds,
        "diagrams_per_s": emitted / seconds if seconds > 0 else None,
    })
    return 0


def _cmd_oracle(args):
    from . import oracle

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
    import json
    from dataclasses import asdict

    from . import refdata

    try:
        seq = refdata.lookup(args.family, args.k)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message
        raise SystemExit2(exc.args[0]) from None
    print(json.dumps(asdict(seq)))
    return 0


# the suites of `harness.CHECKS` in its order, and the families of the
# embedded tables, so that no table is built to list them
_SUITES = ("paper-tables", "cross-methods", "baxter", "egf")
_REFDATA_FAMILIES = ("partitions", "partitions-enhanced", "permutations", "baxter")


def _cmd_verify(args):
    from . import harness

    rows = harness.run_suite(args.suite, args.max_n)
    overall = "pass" if all(r["status"] == "pass" for r in rows) else "fail"
    if args.format == "json":
        import json

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


# each subcommand, in the order --help lists them: its help text, its
# options as (flag, add_argument keyword arguments), and the function that
# runs it
_COMMANDS = {
    "count": ("generating-tree counts", (
        ("--family", dict(required=True, choices=FAMILIES)),
        ("--k", dict(type=_NESTING, help="forbidden nesting size")),
        ("--n", dict(type=_SIZE, required=True)),
        ("--all-labels", dict(action="store_true",
                              help="dump the full label distribution at level n")),
        ("--format", dict(choices=("text", "json", "csv"), default="text")),
        ("--max-labels", dict(type=_BUDGET, help="distinct-label budget")),
        ("--stats", dict(action="store_true",
                         help="write one JSON line per level to stderr: labels "
                         "kept, push seconds, widest count in bits")),
    ), _cmd_count),
    "series": ("functional-equation solutions", (
        ("--family", dict(required=True,
                          choices=(*SERIES_FAMILIES, "permutations3"))),
        ("--k", dict(type=_NESTING)),
        ("--n", dict(type=_SIZE, required=True)),
        ("--full", dict(action="store_true",
                        help="dump every coefficient, not just the counting terms")),
        ("--stats", dict(action="store_true",
                         help="write one JSON line per z-order to stderr: terms "
                         "built and kept, seconds in Phi")),
    ), _cmd_series),
    "generate": ("stream all diagrams of size n", (
        ("--family", dict(required=True, choices=FAMILIES)),
        ("--k", dict(type=_NESTING)),
        ("--n", dict(type=_SIZE, required=True)),
        ("--closed-only", dict(action="store_true",
                               help="emit only diagrams without semi-arcs")),
        ("--stats", dict(action="store_true",
                         help="write one JSON line to stderr after the stream: "
                         "family, k, n, closed_only, diagrams written, seconds "
                         "and diagrams per second")),
    ), _cmd_generate),
    "oracle": ("brute-force count", (
        ("--family", dict(required=True, choices=CONSTRAINED_FAMILIES)),
        ("--k", dict(type=_NESTING, required=True)),
        ("--n", dict(type=_SIZE, required=True)),
        ("--stats", dict(action="store_true",
                         help="write one JSON line to stderr: objects walked, "
                         "their maximum-nesting histogram, seconds and objects "
                         "per second")),
    ), _cmd_oracle),
    "verify": ("cross-check harness", (
        ("--suite", dict(default="all", choices=(*_SUITES, "all"))),
        ("--max-n", dict(type=_SIZE, default=12)),
        ("--format", dict(choices=("text", "json"), default="text")),
    ), _cmd_verify),
    "refdata": ("dump an embedded reference sequence", (
        ("--family", dict(required=True, choices=_REFDATA_FAMILIES)),
        ("--k", dict(type=_NESTING, required=True)),
    ), _cmd_refdata),
}


def _read(command, argv):
    """The namespace argparse builds for `command` and its options `argv`,
    read straight from the command's option table; None for any argv that
    is not in the plain spelling, which is left to argparse.

    In the plain spelling each token is an exact flag of the command, given
    once; a switch stands alone, and any other flag is followed by a value
    that does not start with "-" and that the option's type and choices
    accept; and every required option is given.  Help, usage errors,
    abbreviations, "--flag=value", "--" and values that look like options
    all fail one of these, so argparse reads them and prints what it
    always has."""
    _, options, func = _COMMANDS[command]
    table = dict(options)
    given = {}
    tokens = iter(argv)
    for flag in tokens:
        spec = table.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value reads as a flag
        if text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:  # argparse reports the rejected value, or raises
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given for flag, spec in options):
        return None
    args = SimpleNamespace(command=command, func=func)
    for flag, spec in options:
        switch = spec.get("action") == "store_true"
        default = spec.get("default", False if switch else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _build_parser():
    """The parser of every subcommand, built from `_COMMANDS`."""
    import argparse  # only help, usage errors and unusual spellings need it

    parser = argparse.ArgumentParser(
        prog="nonnesting",
        description="Enumerate set partitions and permutations with no k "
        "mutually nested arcs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options:
            p.add_argument(flag, **spec)
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
    # a plain argv is read from the command's option table; argparse reads
    # any other
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _read(command, argv[1:]) if command else None
    if args is None:
        args = _build_parser().parse_args(argv)
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
