"""Reference sequences and the experimental explicit formula."""

from fractions import Fraction

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


class TestMultinomial:
    def test_basic(self):
        assert multinomial(4, (2, 1, 1)) == 12
        assert multinomial(0, (0, 0, 0)) == 1

    def test_zero_outside_domain(self):
        assert multinomial(4, (2, 1, 2)) == 0
        assert multinomial(4, (-1, 4, 1)) == 0


class TestFormulaReport:
    def test_report_structure(self):
        rep = formula_3nn_partitions(6)
        names = {r.interpretation for r in rep.results}
        assert names == {"bound-p", "signed-difference"}
        for r in rep.results:
            assert r.matches == (r.value == r.reference)
            assert r.is_integer == (Fraction(r.value).denominator == 1)
        assert len(rep.results) == 2 * 7

    def test_bound_p_reading_agrees_with_counts(self):
        rep = formula_3nn_partitions(8)
        assert rep.all_match("bound-p")

    def test_signed_difference_reading_diverges(self):
        rep = formula_3nn_partitions(5)
        assert not rep.all_match("signed-difference")

    def test_first_sum_egf_claim_fails(self):
        # the claimed exponential generating function e^{2z}/(1-z) does not
        # reproduce the trinomial sum; the report records the disagreement
        rep = formula_3nn_partitions(5)
        flags = [v == e for _, v, e in rep.first_sum_egf_agreement]
        assert flags[0] is True
        assert not any(flags[1:])

    def test_json_dict(self):
        rep = formula_3nn_partitions(3)
        j = rep.to_json_dict()
        assert j["n_max"] == 3
        assert all(isinstance(r["value"], str) for r in j["results"])
        assert all("agrees" in e for e in j["first_sum_egf_agreement"])
