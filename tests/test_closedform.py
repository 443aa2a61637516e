"""Reference sequences and the explicit formula."""

import re
from fractions import Fraction
from functools import partial

import pytest

from nonnesting import refdata
from nonnesting.closedform import (
    a108304,
    a108307,
    baxter,
    bell,
    catalan,
    formula_3nn_partitions,
    multinomial,
    open_partition_count,
    open_permutation_count,
)
from nonnesting.series import solve_equation


class TestSequences:
    def test_bell(self):
        assert [bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
        assert bell(10) == 115975

    def test_catalan(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_baxter(self):
        assert [baxter(n) for n in range(1, 9)] == [1, 2, 6, 22, 92, 422, 2074, 10754]
        assert baxter(10) == 326240
        assert baxter(11) == 1882960

    def test_open_partition_count(self):
        assert [open_partition_count(n) for n in range(4)] == [1, 2, 6, 22]

    def test_open_permutation_count(self):
        assert [open_permutation_count(n) for n in range(4)] == [1, 2, 7, 34]

    def test_three_nonnesting_recurrences(self):
        for family, recurrence in (
            ("partitions", a108304),
            ("partitions-enhanced", a108307),
        ):
            terms = refdata.lookup(family, 3).as_ints()
            assert recurrence(len(terms)) == [1] + terms
        assert a108304(0) == [1]
        assert a108307(1) == [1, 1]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bell(-1)
        with pytest.raises(ValueError):
            baxter(0)
        with pytest.raises(ValueError):
            a108304(-1)
        with pytest.raises(ValueError):
            formula_3nn_partitions(-1, lambda k, i, j: 0)

    @pytest.mark.parametrize("function", [
        bell, catalan, baxter, open_partition_count, open_permutation_count,
    ])
    def test_non_int_n_is_refused(self, function):
        # a bool passed for an int (bell(True) was bell(1)), and a float
        # raised a bare TypeError from range or comb
        for n in (True, 3.0):
            with pytest.raises(ValueError, match=r"^n must be an int, got "):
                function(n)

    @pytest.mark.parametrize("function,name", [
        (a108304, "n_max"),
        (a108307, "n_max"),
        (partial(formula_3nn_partitions, coeff=lambda k, i, j: 0), "n"),
    ], ids=["a108304", "a108307", "formula_3nn_partitions"])
    @pytest.mark.parametrize("n", [True, 2.5, 3.0], ids=["True", "2.5", "3.0"])
    def test_non_int_recurrence_or_formula_n_is_refused(self, function, name, n):
        # a108304(True) was [1, 1], and a float raised a bare TypeError
        # from range
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(n))}$"):
            function(n)


class TestMultinomial:
    def test_basic(self):
        assert multinomial(4, (2, 1, 1)) == 12
        assert multinomial(0, (0, 0, 0)) == 1

    def test_zero_outside_domain(self):
        assert multinomial(4, (2, 1, 2)) == 0
        assert multinomial(4, (-1, 4, 1)) == 0

    @pytest.mark.parametrize("n,parts,message", [
        (True, (1,), "n must be an int, got True"),
        (2.0, (1, 1), "n must be an int, got 2.0"),
        (2, (1, 1.0), "part must be an int, got 1.0"),
        (2, (True, 1), "part must be an int, got True"),
    ])
    def test_refuses_what_is_not_an_int(self, n, parts, message):
        # multinomial(True, (1,)) was 1, and a float n raised TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            multinomial(n, parts)


class TestFormulaReport:
    def test_bound_p_reading_agrees_with_counts(self):
        # the reading with p + q + r = n - k gives the 3-nonnesting counts
        n_max = 8
        q = solve_equation("partitions", n_max - 1, k=3)

        def coeff(k, i, j):
            return q.coefficient((k, i, j))

        values = [formula_3nn_partitions(n, coeff) for n in range(n_max + 1)]
        assert values == [1] + refdata.lookup("partitions", 3).as_ints()[:n_max]

    def test_non_integer_value_raises(self):
        # label coefficients of 1/2 give 3/2 at n=1
        with pytest.raises(ArithmeticError):
            formula_3nn_partitions(1, lambda k, i, j: Fraction(1, 2))
