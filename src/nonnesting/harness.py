"""The release harness: every count the package claims, as one table.

Each entry of `CHECKS` is one release claim, a `Check` that compares two
independent sources of the same terms at a size n: the generating-tree DP
(`gentree`) with the embedded tables (`refdata`), with the functional-
equation series (`series`) and with the brute force (`oracle`); the series
with the Baxter numbers; and the DP's unconstrained level totals with the
closed-form diagram counts (`closedform`).  `nonnesting verify` runs the
table through `run_suite`, capping each check at `--max-n`, and the
acceptance gate runs the same entries at their release sizes through
`run_checks`.

`CHECKS` is built on import, and only `verify` imports this module, so no
other command pays for it.  Every counter and table is called through its
module (`gentree.count_sequence`, `series.solve_sequence`,
`oracle.oracle_count`, `refdata.lookup`, ...), so a wrapper set on one of
them sees every call.  This module imports all three counters; the
counters import none of it, nor each other.
"""

import time
from functools import partial

from . import closedform, gentree, oracle, refdata, series

__all__ = ["CHECKS", "Check", "run_checks", "run_suite"]


class Check:
    """One release claim: `run(n)` returns (expected, actual) at size n,
    and "{n}" in check_id stands for that size.  `verify` runs it at no
    more than max_n.  `counts` names the (counter, family, k) sequences
    that `run` reads through its `count` argument (`_count` when run
    alone); `run_checks` counts each of them once per run."""

    def __init__(self, suite, check_id, max_n, run, counts=()):
        self.suite = suite
        self.check_id = check_id
        self.max_n = max_n
        self.run = run
        self.counts = counts


def _count(counter, family, k, n):
    """Terms 0..n of a counted sequence: counter "dp" is the generating-tree
    DP, "series" the counting terms of the functional equation."""
    if counter == "dp":
        return [1] + gentree.count_sequence(gentree.FamilySpec(family, k), n)
    return series.solve_sequence(family, n, k=k)


def _table(family, k, n, count=_count):
    expected = refdata.lookup(family, k).as_ints()[:n]
    return expected, count("dp", family, k, n)[1:]


def _series(family, k, n, count=_count):
    return count("series", family, k, n), count("dp", family, k, n)


def _oracle(family, k, n, count=_count):
    expected = [oracle.oracle_count(family, k, m) for m in range(n + 1)]
    return expected, count("dp", family, k, n)


def _baxter_formula(n, count=_count):
    expected = [closedform.baxter(m + 1) for m in range(n + 1)]
    return expected, count("series", "baxter", None, n)


def _baxter_embedded(n, count=_count):
    expected = refdata.lookup("baxter", 3).as_ints()[: n + 1]
    return expected, count("series", "baxter", None, n)


def _open_totals(family, total, n):
    expected = [getattr(closedform, total)(m) for m in range(n + 1)]
    levels = gentree.count_levels(gentree.FamilySpec(family), n)
    return expected, [lv.total() for lv in levels]


def _build_checks():
    checks = [
        Check("paper-tables", f"tables/{family}/k={k}/n<={{n}}", len(seq.terms),
              partial(_table, family, k), (("dp", family, k),))
        for (family, k), seq in sorted(refdata.all_sequences().items())
        if family != "baxter"
    ]
    for family in ("partitions", "partitions-enhanced"):
        for k in (2, 3, 4):
            checks += [
                Check("cross-methods", f"cross/{family}/k={k}/series", 12,
                      partial(_series, family, k),
                      (("series", family, k), ("dp", family, k))),
                Check("cross-methods", f"cross/{family}/k={k}/oracle", 9,
                      partial(_oracle, family, k), (("dp", family, k),)),
            ]
    checks.append(Check("cross-methods", "cross/permutations/k=3/series", 12,
                        partial(_series, "permutations", 3),
                        (("series", "permutations", 3), ("dp", "permutations", 3))))
    checks += [
        Check("cross-methods", f"cross/permutations/k={k}/oracle", 7,
              partial(_oracle, "permutations", k), (("dp", "permutations", k),))
        for k in (2, 3, 4)
    ]
    baxter = (("series", "baxter", None),)
    embedded = len(refdata.lookup("baxter", 3).terms)
    checks += [
        Check("baxter", "baxter/series-vs-formula/n<={n}", 25, _baxter_formula,
              baxter),
        Check("baxter", "baxter/series-vs-embedded", embedded - 1, _baxter_embedded,
              baxter),
        Check("egf", "egf/open-partitions/n<={n}", 12,
              partial(_open_totals, "open-partitions", "open_partition_count")),
        Check("egf", "egf/open-permutations/n<={n}", 10,
              partial(_open_totals, "open-permutations", "open_permutation_count")),
    ]
    return tuple(checks)


# every release claim, in the order `verify` prints them
CHECKS = _build_checks()


def run_checks(sized):
    """Run each (check, n) pair at its size n; one row each, a dict with the
    keys of a `verify --format json` check in order, runtime unrounded.

    Each sequence named in a check's `counts` is counted once, at the
    largest size any pair asks of it, and every check reads a prefix of it
    (a count to n is the first terms of any count to more), so a check's
    runtime covers only what no earlier check of the run has counted."""
    top = {}
    for check, n in sized:
        for key in check.counts:
            top[key] = max(n, top.get(key, n))
    counted = {}  # freed with the run

    def count(counter, family, k, n):
        key = (counter, family, k)
        seq = counted.get(key)
        if seq is None or len(seq) <= n:
            seq = counted[key] = _count(*key, max(n, top.get(key, n)))
        return seq[: n + 1]

    rows = []
    for check, n in sized:
        started = time.perf_counter()
        expected, actual = check.run(n, count) if check.counts else check.run(n)
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
