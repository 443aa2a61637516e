"""Acceptance gate: one check per release criterion.

Each test prints a single PASS/FAIL line on the live terminal (outside
pytest's capture) and then asserts, so the criterion verdicts are visible
in any run's output.
"""

from collections import Counter
from fnmatch import fnmatch

from nonnesting import diagrams as dg
from nonnesting import refdata
from nonnesting.cli import CHECKS, run_checks
from nonnesting.closedform import a108304, a108307, catalan, formula_3nn_partitions
from nonnesting.gentree import FamilySpec, count_sequence, generate_diagrams
from nonnesting.oracle import oracle_count
from nonnesting.series import (
    constant_term_sequence,
    solve_equation,
    solve_partition_equation,
)


def verdict(capsys, criterion, ok):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok, criterion


# The table checks each of criteria 1-7 runs, as (id pattern, size); size
# None is the check's largest size, all of its reference terms.  Every
# check in cli.CHECKS is run here at no less than the largest size `verify`
# runs it at, so the release gate and `verify` share one definition.
RELEASE = {
    1: [("tables/partitions/*", 21)],
    2: [("tables/partitions-enhanced/*", 21)],
    3: [("tables/permutations/*", None)],
    4: [("cross/*/series", 15)],
    5: [("cross/partitions*/oracle", 10), ("cross/permutations/*/oracle", 8)],
    6: [("baxter/series-vs-formula/*", 25), ("baxter/series-vs-embedded", None)],
    7: [("egf/open-partitions/*", 12), ("egf/open-permutations/*", 10)],
}


def release_checks(criterion):
    """(check, size) for every table check the criterion runs."""
    return [
        (check, check.max_n if n is None else n)
        for pattern, n in RELEASE[criterion]
        for check in CHECKS
        if fnmatch(check.check_id, pattern)
    ]


def release_ok(criterion):
    sized = release_checks(criterion)
    assert sized, f"criterion {criterion} matches no check"
    return all(record["status"] == "pass" for record in run_checks(sized))


def test_01_partition_table(capsys):
    verdict(capsys, "criterion 1: partition counts match all 21 reference terms, k=3..7", release_ok(1))


def test_02_enhanced_partition_table(capsys):
    verdict(capsys, "criterion 2: enhanced partition counts match all 21 reference terms, k=3..7", release_ok(2))


def test_03_permutation_table(capsys):
    verdict(capsys, "criterion 3: permutation counts match all reference terms, k=3..6", release_ok(3))


def test_04_series_dp_equivalence(capsys):
    verdict(capsys, "criterion 4: functional-equation series equal DP counts for n <= 15", release_ok(4))


def test_05_oracle_equivalence(capsys):
    verdict(capsys, "criterion 5: brute-force counts equal DP counts (partitions and enhanced partitions n<=10, permutations n<=8, k=2..4)", release_ok(5))


def test_06_baxter_coefficients(capsys):
    verdict(capsys, "criterion 6: B(1,1) coefficients equal Baxter numbers for n <= 25 and the embedded series", release_ok(6))


def test_07_unconstrained_totals(capsys):
    verdict(capsys, "criterion 7: unconstrained level totals match the closed-form diagram counts", release_ok(7))


def test_release_sizes_cover_every_check():
    covered = {}
    for criterion in RELEASE:
        for check, n in release_checks(criterion):
            covered[check.check_id] = max(covered.get(check.check_id, 0), n)
    for check in CHECKS:
        assert covered.get(check.check_id, -1) >= check.max_n, check.check_id


def test_08_catalan(capsys):
    ok = [oracle_count("permutations", 2, n) for n in range(1, 9)] == [
        catalan(n) for n in range(1, 9)
    ]
    verdict(capsys, "criterion 8: 2-nonnesting permutation counts are Catalan for n <= 8", ok)


def _labels_agree(spec, label_of, n_max):
    """Walk every diagram in the tree up to n_max - 1 vertices and compare
    the child-label multiset produced geometrically with the
    succession-rule prediction.  One walk state grows in place: each child
    is a step applied, labelled through `freeze()` and undone."""
    root, enhanced = spec.walk_start()
    state = dg.walk_state(root, spec.k, enhanced)

    def agrees(label, depth):
        got = Counter()
        for step in state.steps():
            state.apply(step)
            child = label_of(state.freeze())
            got[child] += 1
            ok = depth + 1 == n_max or agrees(child, depth + 1)
            state.undo(step)
            if not ok:
                return False
        return got == spec.successors(label)

    return agrees(label_of(root), 0)


def test_09_rule_geometry_agreement(capsys):
    ok = True
    for k in (2, 3, 4, 5):
        spec = FamilySpec("partitions", k)
        ok = ok and _labels_agree(
            spec, lambda d: dg.partition_label(d, k - 1), 8
        )
        spec = FamilySpec("partitions-enhanced", k)
        ok = ok and _labels_agree(
            spec, lambda d: dg.partition_label(d, k - 1, enhanced=True), 7
        )
        spec = FamilySpec("permutations", k)
        ok = ok and _labels_agree(
            spec, lambda d: dg.permutation_label(d, k - 1), 6
        )
    ok = ok and _labels_agree(
        FamilySpec("open-partitions"), lambda d: len(d.open_arcs), 7
    )
    ok = ok and _labels_agree(
        FamilySpec("open-permutations"), lambda d: len(d.upper_open), 5
    )
    from nonnesting.gentree import successors_permutation

    ok = ok and sum(successors_permutation((2, (0,), (0,))).values()) == 10
    ok = ok and sum(successors_permutation((4, (2,), (1,))).values()) == 21
    verdict(capsys, "criterion 9: geometric children match succession-rule predictions on every small diagram", ok)


def test_10_explicit_formula_report(capsys):
    n_max = 21
    q = solve_partition_equation(3, n_max - 1)

    def coeff(k, i, j):
        return q.coefficient((k, i, j))

    values = [formula_3nn_partitions(n, coeff) for n in range(n_max + 1)]
    ok = values == [1] + refdata.lookup("partitions", 3).as_ints()
    verdict(capsys, "criterion 10: the explicit formula equals the 3-nonnesting partition counts for n <= 21", ok)


def test_11_exhaustive_generation(capsys):
    parts = list(generate_diagrams(FamilySpec("partitions", 3), 4, closed_only=True))
    ok = len(parts) == 15 and len(set(parts)) == 15
    ok = ok and all(dg.max_nesting(d.closed_arcs) < 3 for d in parts)
    perms = list(generate_diagrams(FamilySpec("permutations", 3), 5, closed_only=True))
    ok = ok and len(perms) == 118 and len(set(perms)) == 118
    ok = ok and all(
        dg.max_nesting(d.upper_arcs, enhanced=True) < 3
        and dg.max_nesting(d.lower_arcs) < 3
        for d in perms
    )
    verdict(capsys, "criterion 11: exhaustive generation emits exactly the k-nonnesting objects, verified independently", ok)


def test_12_p_recurrences(capsys):
    n = 60
    ok = [1] + count_sequence(FamilySpec("partitions", 3), n) == a108304(n)
    ok = ok and [1] + count_sequence(FamilySpec("partitions-enhanced", 3), n) == a108307(n)
    verdict(capsys, "criterion 12: k=3 partition counts satisfy the A108304/A108307 P-recurrences for n <= 60", ok)


def test_13_permutation_series(capsys):
    # the general-k permutation equation has no `verify` check beyond k=3,
    # so the gate runs it against the tables here
    def counts(k, n):
        return constant_term_sequence(
            solve_equation("permutations", n, k=k, full=False)
        )

    ok = all(
        counts(k, n) == [1] + refdata.lookup("permutations", k).as_ints()[:n]
        for k, n in ((3, 15), (4, 12), (5, 11), (6, 10))
    )
    n = 12
    dp = [1] + count_sequence(FamilySpec("permutations", 2), n)
    ok = ok and counts(2, n) == dp == [catalan(m) for m in range(n + 1)]
    verdict(capsys, "criterion 13: permutation series equal the reference tables for k=3..6 and the DP (Catalan) at k=2", ok)
