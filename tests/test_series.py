"""Truncated series arithmetic and the functional-equation solvers."""

import pytest

from nonnesting import series
from nonnesting.errors import DivisibilityError
from nonnesting.gentree import FamilySpec, count_sequence
from nonnesting.series import (
    TruncatedSeries,
    constant_term_sequence,
    divide_by_one_minus,
    divide_by_var,
    ones_sequence,
    solve_equation,
    substitute,
)

V = ("z", "u", "v")


def S(terms, cap=6):
    return TruncatedSeries(V, cap, terms)


class TestArithmetic:
    def test_add_sub(self):
        a = S({(1, 0, 0): 2})
        b = S({(1, 0, 0): 3, (0, 1, 0): 1})
        assert (a + b).terms == {(1, 0, 0): 5, (0, 1, 0): 1}
        assert (b - a).terms == {(1, 0, 0): 1, (0, 1, 0): 1}

    def test_zero_coefficients_dropped(self):
        a = S({(1, 0, 0): 2})
        assert (a - a).terms == {}

    def test_shift_truncates_only_z(self):
        a = S({(6, 0, 0): 1, (0, 6, 0): 1})
        assert a.shift("z").terms == {(1, 6, 0): 1}
        assert a.shift("u").terms == {(6, 1, 0): 1, (0, 7, 0): 1}

    def test_substitute_zero_and_one(self):
        a = S({(1, 2, 1): 5, (1, 0, 3): 7})
        assert substitute(a, {"v": 0}).terms == {}
        assert substitute(a, {"u": 0}).terms == {(1, 0, 3): 7}
        assert substitute(a, {"v": 1}).terms == {(1, 2, 0): 5, (1, 0, 0): 7}

    def test_substitute_collapse(self):
        # u -> uv, v -> 1 folds the v-exponent into nothing and doubles u's
        a = S({(1, 2, 3): 1})
        out = substitute(a, {"u": ("u", "v"), "v": 1})
        assert out.terms == {(1, 2, 2): 1}

    def test_divide_by_var(self):
        a = S({(0, 1, 2): 4})
        assert divide_by_var(a, "v").terms == {(0, 1, 1): 4}
        with pytest.raises(DivisibilityError):
            divide_by_var(S({(0, 1, 0): 1}), "v")

    def test_divide_by_one_minus(self):
        # (1 - v^3) / (1 - v) = 1 + v + v^2
        a = S({(0, 0, 0): 1, (0, 0, 3): -1})
        out = divide_by_one_minus(a, "v")
        assert out.terms == {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): 1}

    def test_divide_by_one_minus_remainder(self):
        with pytest.raises(DivisibilityError):
            divide_by_one_minus(S({(0, 0, 1): 1}), "v")

    def test_equality_includes_cap(self):
        terms = {(1, 0, 0): 2}
        assert S(terms, cap=6) == S(terms, cap=6)
        assert S(terms, cap=6) != S(terms, cap=5)

    def test_dump_lines_sorted(self):
        a = S({(1, 0, 0): 2, (0, 1, 0): 3})
        assert a.dump_lines() == ["0 1 0: 3", "1 0 0: 2"]


class TestSolvers:
    @pytest.mark.parametrize("eq,family,k", [
        ("Q", "partitions", 2),
        ("Q", "partitions", 3),
        ("Q", "partitions", 4),
        ("P", "partitions-enhanced", 2),
        ("P", "partitions-enhanced", 3),
        ("P", "partitions-enhanced", 4),
    ])
    def test_constant_terms_match_dp(self, eq, family, k):
        n = 9
        f = solve_equation(eq, n, k=k)
        assert constant_term_sequence(f) == [1] + count_sequence(FamilySpec(family, k), n)

    def test_permutation_equation_matches_dp(self):
        n = 9
        f = solve_equation("F", n)
        assert constant_term_sequence(f) == [1] + count_sequence(
            FamilySpec("permutations", 3), n
        )

    def test_three_nonnesting_alias(self):
        assert solve_equation("A", 6) == solve_equation("Q", 6, k=3)

    def test_baxter_series_coefficients(self):
        # printed z^3 slice: v^2u^2 + 2vu^2 + 4uv + 6u + 3u^2 + u^3 + 5
        b = solve_equation("B", 4)
        z3 = {e[1:]: c for e, c in b.terms.items() if e[0] == 3}
        assert z3 == {
            (0, 0): 5, (1, 0): 6, (2, 0): 3, (3, 0): 1,
            (1, 1): 4, (2, 1): 2, (2, 2): 1,
        }

    def test_baxter_at_one(self):
        b = solve_equation("B", 10)
        assert ones_sequence(b) == [
            1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240, 1882960,
        ]

    def test_catalytic_coefficients_match_label_dp(self):
        # full coefficient, not just the constant term: u^i v^j picks out
        # the diagrams with label (i, j)
        from nonnesting.gentree import count_levels

        f = solve_equation("Q", 6, k=3)
        levels = count_levels(FamilySpec("partitions", 3), 6)
        for n in range(7):
            for label, count in levels[n].entries.items():
                assert f.coefficient((n,) + label) == count

    def test_unknown_equation(self):
        with pytest.raises(ValueError):
            solve_equation("X", 5)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            solve_equation("B", -1)


def _fixed_point_iterate(variables, n_max, phi):
    """The fixed-point loop the order-by-order solver replaced: pass t
    recomputes every z-order up to t from G = 1."""
    one = TruncatedSeries.one(variables, n_max)
    g = one
    for _ in range(n_max + 1):
        nxt = one + phi(g).shift("z")
        if nxt == g:
            break
        g = nxt
    return g


def _differential_cases():
    for n in range(10):
        for equation in ("A", "F", "B"):
            yield equation, None, n
        for k in range(2, 7):
            yield "Q", k, n
            yield "P", k, n
    yield "B", None, 25
    yield "F", None, 12


@pytest.mark.parametrize("equation,k,n_max", list(_differential_cases()))
def test_order_by_order_equals_fixed_point(equation, k, n_max, monkeypatch):
    fast = solve_equation(equation, n_max, k=k)
    monkeypatch.setattr(series, "_iterate", _fixed_point_iterate)
    plain = solve_equation(equation, n_max, k=k)
    assert (fast.variables, fast.cap, fast.terms) == (
        plain.variables, plain.cap, plain.terms
    )


def test_phi_that_moves_the_z_order_raises():
    with pytest.raises(ValueError, match="z-order"):
        series._iterate(("z", "u"), 4, lambda g: g.shift("z"))
