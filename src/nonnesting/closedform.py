"""Classical reference sequences and an experimental explicit formula.

The Bell, Catalan and Baxter numbers, the two open-diagram totals and the
P-recurrences of the 3-nonnesting partition counts serve as independent
cross-checks for the generating-tree and series counts.  The explicit
double-sum formula for 3-nonnesting set partitions is implemented as an
experimental evaluation: its published form leaves a summation index
unbound, so every reading is evaluated and reported against reference data
instead of being asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .series import solve_partition_equation

__all__ = [
    "bell",
    "catalan",
    "baxter",
    "open_partition_count",
    "open_permutation_count",
    "a108304",
    "a108307",
    "multinomial",
    "FormulaReport",
    "InterpretationResult",
    "formula_3nn_partitions",
]


def bell(n):
    """Number of set partitions of an n-element set (Bell triangle)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def catalan(n):
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)


def baxter(n):
    """n-th Baxter number, from the product-of-binomials summation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = sum(
        comb(n + 1, r - 1) * comb(n + 1, r) * comb(n + 1, r + 1)
        for r in range(1, n + 1)
    )
    denom = comb(n + 1, 1) * comb(n + 1, 2)
    if total % denom:
        raise ArithmeticError(f"baxter sum not divisible at n={n}")
    return total // denom


def _stirling2_row(n):
    row = [1]
    for _ in range(n):
        nxt = [0]
        for m, value in enumerate(row):
            if m + 1 > len(nxt) - 1:
                nxt.append(0)
            nxt[m] += m * value
            nxt[m + 1] += value
        row = nxt
    return row


def open_partition_count(n):
    """Total open partition diagrams on n vertices: each of the m blocks of
    an ordinary partition may independently keep a semi-arc open or not."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(s * 2**m for m, s in enumerate(_stirling2_row(n)))


def open_permutation_count(n):
    """Total open permutation diagrams on n vertices, which match partial
    permutations: choose j positions, j values, and a bijection."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(comb(n, j) ** 2 * factorial(j) for j in range(n + 1))


def _p_recurrence(n_max, coefficients):
    """a(0..n_max) of c0*a(n) + c1*a(n+1) + c2*a(n+2) = 0 with
    a(0) = a(1) = 1, where coefficients(n) gives (c0, c1, c2)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a = [1, 1]
    for n in range(n_max - 1):
        c0, c1, c2 = coefficients(n)
        num = -(c0 * a[n] + c1 * a[n + 1])
        if num % c2:
            raise ArithmeticError(f"recurrence not integral at n={n + 2}")
        a.append(num // c2)
    return a[: n_max + 1]


def a108304(n_max):
    """a(0..n_max) of 3-nonnesting set partitions, from the P-recurrence
    9n(n+3)a(n) - 2(5n^2+32n+42)a(n+1) + (n+6)(n+7)a(n+2) = 0.

    Bousquet-Melou & Xin (2006) prove it for 3-noncrossing partitions; the
    crossing/nesting symmetry of Chen, Deng, Du, Stanley & Yan (2007) carries
    it over to 3-nonnesting ones.
    """
    return _p_recurrence(
        n_max, lambda n: (9 * n * (n + 3), -2 * (5 * n * n + 32 * n + 42), (n + 6) * (n + 7))
    )


def a108307(n_max):
    """a(0..n_max) of enhanced 3-nonnesting set partitions, from the
    P-recurrence 8(n+1)(n+3)a(n) + (7n^2+53n+88)a(n+1) - (n+7)(n+8)a(n+2) = 0
    (same sources as a108304)."""
    return _p_recurrence(
        n_max, lambda n: (8 * (n + 1) * (n + 3), 7 * n * n + 53 * n + 88, -(n + 7) * (n + 8))
    )


def multinomial(n, parts):
    """(n choose parts), zero when entries are negative or do not sum to n."""
    if n < 0 or any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    out = 1
    rest = n
    for p in parts:
        out *= comb(rest, p)
        rest -= p
    return out


def _first_sum(n):
    """The trinomial part of the explicit formula, as an exact rational."""
    total = Fraction(0)
    for i in range(n + 1):
        for j in range(n - i + 1):
            k = n - i - j
            total += Fraction(multinomial(n, (i, j, k)) ** 2) * (
                1 - Fraction(k, j + 1)
            )
    return total


def _egf_first_sum(n):
    """Coefficient of z^n in e^{2z}/(1-z), scaled by n!."""
    return sum(factorial(n) * 2**m // factorial(m) for m in range(n + 1))


def _second_sum_bound_p(n, coeff):
    """Reading where the inner indices satisfy p + q + r = n - k.

    The inner weight is (r-1)/(q+i+1) - 1; the second multinomial's entries
    then automatically sum to n - k - 1.
    """
    total = Fraction(0)
    for k in range(n):
        m = n - k
        for i in range(k + 1):
            for j in range(i + 1):
                a = coeff(k, i, j)
                if not a:
                    continue
                inner = Fraction(0)
                for p in range(m + 1):
                    for q in range(m - p + 1):
                        r = m - p - q
                        b = multinomial(m, (p, q, r)) * multinomial(
                            m - 1, (p - i, q + i, r - 1)
                        )
                        if b:
                            inner += b * (Fraction(r - 1, q + i + 1) - 1)
                total += a * inner
    return total


def _second_sum_difference(n, coeff):
    """Reading from the preliminary display: two signed inner sums over q
    and r with p := n - k - q - r, and second multinomials (p-i, i+1-q, r-2)
    and (p-i, q-1, r+i)."""
    total = 0
    for k in range(n):
        m = n - k
        for i in range(k + 1):
            for j in range(i + 1):
                a = coeff(k, i, j)
                if not a:
                    continue
                inner = 0
                for q in range(m + 1):
                    for r in range(m - q + 1):
                        p = m - q - r
                        base = multinomial(m, (p, q, r))
                        if not base:
                            continue
                        inner += base * multinomial(m - 1, (p - i, i + 1 - q, r - 2))
                        inner -= base * multinomial(m - 1, (p - i, q - 1, r + i))
                total += a * inner
    return total


@dataclass(frozen=True)
class InterpretationResult:
    """Outcome of one reading of the explicit formula at one size."""

    interpretation: str
    n: int
    value: Fraction
    is_integer: bool
    reference: int
    matches: bool


@dataclass(frozen=True)
class FormulaReport:
    """Structured comparison of the explicit-formula readings against the
    reference 3-nonnesting partition counts, plus the side claim that the
    trinomial part alone has exponential generating function e^{2z}/(1-z)."""

    n_max: int
    results: tuple
    first_sum_egf_agreement: tuple

    def all_match(self, interpretation):
        return all(
            r.matches for r in self.results if r.interpretation == interpretation
        )

    def to_json_dict(self):
        return {
            "n_max": self.n_max,
            "results": [
                {
                    "interpretation": r.interpretation,
                    "n": r.n,
                    "value": str(r.value),
                    "is_integer": r.is_integer,
                    "reference": str(r.reference),
                    "matches": r.matches,
                }
                for r in self.results
            ],
            "first_sum_egf_agreement": [
                {"n": n, "first_sum": str(v), "egf": str(e), "agrees": v == e}
                for n, v, e in self.first_sum_egf_agreement
            ],
        }


def formula_3nn_partitions(n_max, reference=None):
    """Evaluate every documented reading of the explicit formula for the
    number of 3-nonnesting set partitions, for n = 0..n_max.

    The label-coefficient inputs A_{i,j}(k) come from the functional
    equation solver; `reference` may override the comparison sequence
    (defaults to the same solver's constant terms, which agree with the
    tabulated reference data).  Returns a FormulaReport; nothing is
    asserted.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    series = solve_partition_equation(3, max(n_max - 1, 0))

    def coeff(k, i, j):
        return series.coefficient((k, i, j))

    if reference is None:
        full = solve_partition_equation(3, n_max)
        reference = [full.coefficient((n, 0, 0)) for n in range(n_max + 1)]

    results = []
    for n in range(n_max + 1):
        first = _first_sum(n)
        for name, value in (
            ("bound-p", first + _second_sum_bound_p(n, coeff)),
            ("signed-difference", first + _second_sum_difference(n, coeff)),
        ):
            value = Fraction(value)
            results.append(
                InterpretationResult(
                    interpretation=name,
                    n=n,
                    value=value,
                    is_integer=value.denominator == 1,
                    reference=reference[n],
                    matches=value == reference[n],
                )
            )

    egf = tuple(
        (n, _first_sum(n), Fraction(_egf_first_sum(n))) for n in range(n_max + 1)
    )
    return FormulaReport(n_max=n_max, results=tuple(results), first_sum_egf_agreement=egf)
