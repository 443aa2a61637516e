"""Classical reference sequences and an explicit formula.

The Bell, Catalan and Baxter numbers, the two open-diagram totals and the
P-recurrences of the 3-nonnesting partition counts serve as independent
cross-checks for the generating-tree and series counts.  The explicit
double-sum formula for 3-nonnesting set partitions is evaluated in the one
reading of its published form that gives the counts.  It consumes the label
coefficients of the functional-equation series, which its caller passes in,
so it is not independent of `series`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

__all__ = [
    "bell",
    "catalan",
    "baxter",
    "open_partition_count",
    "open_permutation_count",
    "a108304",
    "a108307",
    "multinomial",
    "formula_3nn_partitions",
]


def _require_int(n, name="n"):
    if type(n) is not int:  # a bool or a float as well
        raise ValueError(f"{name} must be an int, got {n!r}")


def bell(n):
    """Number of set partitions of an n-element set (Bell triangle)."""
    _require_int(n)
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
    _require_int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)


def baxter(n):
    """n-th Baxter number, from the product-of-binomials summation."""
    _require_int(n)
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
        nxt = [0] * (len(row) + 1)
        for m, value in enumerate(row):
            nxt[m] += m * value
            nxt[m + 1] += value
        row = nxt
    return row


def open_partition_count(n):
    """Total open partition diagrams on n vertices: each of the m blocks of
    an ordinary partition may independently keep a semi-arc open or not."""
    _require_int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(s * 2**m for m, s in enumerate(_stirling2_row(n)))


def open_permutation_count(n):
    """Total open permutation diagrams on n vertices, which match partial
    permutations: choose j positions, j values, and a bijection."""
    _require_int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(comb(n, j) ** 2 * factorial(j) for j in range(n + 1))


def _p_recurrence(n_max, coefficients):
    """a(0..n_max) of c0*a(n) + c1*a(n+1) + c2*a(n+2) = 0 with
    a(0) = a(1) = 1, where coefficients(n) gives (c0, c1, c2)."""
    _require_int(n_max, "n_max")
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


def _second_sum(n, coeff):
    """The label-coefficient part, with the inner indices bound by
    p + q + r = n - k.

    The inner weight is (r-1)/(q+i+1) - 1; the second multinomial's entries
    then automatically sum to n - k - 1.  The inner sum does not depend on
    j, so the coefficients A_{i,j}(k) enter summed over j <= i.
    """
    total = Fraction(0)
    for k in range(n):
        m = n - k
        for i in range(k + 1):
            a = sum(coeff(k, i, j) for j in range(i + 1))
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


def formula_3nn_partitions(n, coeff):
    """Number of 3-nonnesting set partitions of an n-element set, from the
    explicit double-sum formula.

    coeff(k, i, j) gives the label coefficient A_{i,j}(k) for k < n: the
    coefficient of z^k v0^i v1^j in the solution of the k=3 partition
    functional equation, `series.solve_partition_equation(3, n - 1)`.  The
    formula therefore depends on the `series` coefficients and is no
    independent check of them.  Its published form leaves a summation index
    unbound; this is the reading in which the inner indices satisfy
    p + q + r = n - k, the one that gives the counts (the acceptance gate
    checks it against them for n <= 21).  Returns an exact int; raises
    ArithmeticError when the value is not an integer.
    """
    _require_int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    value = _first_sum(n) + _second_sum(n, coeff)
    if value.denominator != 1:
        raise ArithmeticError(f"explicit formula not integral at n={n}: {value}")
    return value.numerator
