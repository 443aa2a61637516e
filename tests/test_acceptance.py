"""Acceptance gate: one check per release criterion.

Each test prints a single PASS/FAIL line on the live terminal (outside
pytest's capture) and then asserts, so the criterion verdicts are visible
in any run's output.
"""

from collections import Counter

import pytest

from nonnesting import diagrams as dg
from nonnesting import refdata
from nonnesting.closedform import (
    a108304,
    a108307,
    baxter,
    catalan,
    formula_3nn_partitions,
    open_partition_count,
    open_permutation_count,
)
from nonnesting.gentree import (
    FamilySpec,
    count_levels,
    count_sequence,
    generate_diagrams,
)
from nonnesting.oracle import oracle_count
from nonnesting.series import (
    constant_term_sequence,
    ones_sequence,
    solve_equation,
)


def verdict(capsys, criterion, ok):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok, criterion


def test_01_partition_table(capsys):
    ok = all(
        count_sequence(FamilySpec("partitions", k), 21)
        == refdata.lookup("partitions", k).as_ints()
        for k in range(3, 8)
    )
    verdict(capsys, "criterion 1: partition counts match all 21 reference terms, k=3..7", ok)


def test_02_enhanced_partition_table(capsys):
    ok = all(
        count_sequence(FamilySpec("partitions-enhanced", k), 21)
        == refdata.lookup("partitions-enhanced", k).as_ints()
        for k in range(3, 8)
    )
    verdict(capsys, "criterion 2: enhanced partition counts match all 21 reference terms, k=3..7", ok)


def test_03_permutation_table(capsys):
    ok = True
    for k in range(3, 7):
        terms = refdata.lookup("permutations", k).as_ints()
        ok = ok and count_sequence(FamilySpec("permutations", k), len(terms)) == terms
    verdict(capsys, "criterion 3: permutation counts match all reference terms, k=3..6", ok)


def test_04_series_dp_equivalence(capsys):
    n = 15
    ok = True
    for eq, family, k in (
        ("Q", "partitions", 3),
        ("Q", "partitions", 4),
        ("P", "partitions-enhanced", 3),
        ("P", "partitions-enhanced", 4),
    ):
        dp = [1] + count_sequence(FamilySpec(family, k), n)
        ok = ok and constant_term_sequence(solve_equation(eq, n, k=k)) == dp
    dp = [1] + count_sequence(FamilySpec("permutations", 3), n)
    ok = ok and constant_term_sequence(solve_equation("F", n)) == dp
    verdict(capsys, "criterion 4: functional-equation series equal DP counts for n <= 15", ok)


def test_05_oracle_equivalence(capsys):
    ok = True
    for k in (2, 3, 4):
        dp = count_sequence(FamilySpec("partitions", k), 10)
        ok = ok and dp == [oracle_count("partitions", k, n) for n in range(1, 11)]
        dp = count_sequence(FamilySpec("permutations", k), 8)
        ok = ok and dp == [oracle_count("permutations", k, n) for n in range(1, 9)]
    verdict(capsys, "criterion 5: brute-force counts equal DP counts (partitions n<=10, permutations n<=8, k=2..4)", ok)


def test_06_baxter_coefficients(capsys):
    coeffs = ones_sequence(solve_equation("B", 25))
    ok = coeffs == [baxter(n + 1) for n in range(26)]
    verdict(capsys, "criterion 6: B(1,1) coefficients equal Baxter numbers for n <= 25", ok)


def test_07_unconstrained_totals(capsys):
    part = [lv.total() for lv in count_levels(FamilySpec("open-partitions"), 12)]
    perm = [lv.total() for lv in count_levels(FamilySpec("open-permutations"), 10)]
    ok = part == [open_partition_count(n) for n in range(13)]
    ok = ok and perm == [open_permutation_count(n) for n in range(11)]
    verdict(capsys, "criterion 7: unconstrained level totals match the closed-form diagram counts", ok)


def test_08_catalan(capsys):
    ok = [oracle_count("permutations", 2, n) for n in range(1, 9)] == [
        catalan(n) for n in range(1, 9)
    ]
    verdict(capsys, "criterion 8: 2-nonnesting permutation counts are Catalan for n <= 8", ok)


def _labels_agree(spec, label_of, n_max):
    """Walk every diagram in the tree and compare the child-label multiset
    produced geometrically with the succession-rule prediction."""
    root, enhanced = spec.walk_start()
    stack = [(root, 0)]
    while stack:
        d, depth = stack.pop()
        label = label_of(d)
        children = [
            dg.apply_step(d, step) for step in dg.legal_steps(d, spec.k, enhanced)
        ]
        got = Counter(label_of(c) for c in children)
        if got != spec.successors(label):
            return False
        if depth + 1 < n_max:
            stack.extend((c, depth + 1) for c in children)
    return True


def test_09_rule_geometry_agreement(capsys):
    ok = True
    for k in (2, 3):
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
    reference = [1] + refdata.lookup("partitions", 3).as_ints()
    report = formula_3nn_partitions(12, reference=reference)
    names = {r.interpretation for r in report.results}
    ok = names == {"bound-p", "signed-difference"}
    ok = ok and len(report.results) == 2 * 13
    ok = ok and all(r.matches == (r.value == r.reference) for r in report.results)
    ok = ok and len(report.first_sum_egf_agreement) == 13
    j = report.to_json_dict()
    ok = ok and len(j["results"]) == len(report.results)
    verdict(capsys, "criterion 10: explicit-formula report produced and internally consistent for n <= 12", ok)
    with capsys.disabled():
        for name in sorted(names):
            rows = [r for r in report.results if r.interpretation == name]
            status = "matches" if all(r.matches for r in rows) else "does not match"
            print(f"      reading {name!r} {status} the reference sequence")


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
