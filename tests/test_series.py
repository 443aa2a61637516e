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


# Test ids name each series as the paper does: Q and P (with k) for the
# two partition families, F for permutations, B for Baxter, and A for the
# paper's explicit k=3 partition equation; an F id without k is its
# explicit k=3 permutation equation.
PAPER_NAME = {
    "partitions": "Q",
    "partitions-enhanced": "P",
    "permutations": "F",
    "baxter": "B",
}


class TestSolvers:
    @pytest.mark.parametrize("family,k", [
        pytest.param(family, k, id=f"{PAPER_NAME[family]}-{family}-{k}")
        for family, ks in (
            ("partitions", (2, 3, 4)),
            ("partitions-enhanced", (2, 3, 4)),
            ("permutations", (2, 4, 5)),
        )
        for k in ks
    ])
    def test_constant_terms_match_dp(self, family, k):
        n = 9
        f = solve_equation(family, n, k=k)
        assert constant_term_sequence(f) == [1] + count_sequence(FamilySpec(family, k), n)

    def test_permutation_equation_matches_dp(self):
        n = 9
        f = solve_equation("permutations", n, k=3)
        assert constant_term_sequence(f) == [1] + count_sequence(
            FamilySpec("permutations", 3), n
        )

    def test_permutation_variables(self):
        # k = 3 keeps the paper's F(u, v, w); larger k numbers them
        assert solve_equation("permutations", 1, k=2).variables == ("z", "u")
        assert solve_equation("permutations", 1, k=3).variables == ("z", "u", "v", "w")
        assert solve_equation("permutations", 1, k=4).variables == (
            "z", "u", "v1", "v2", "w1", "w2",
        )

    def test_baxter_series_coefficients(self):
        # printed z^3 slice: v^2u^2 + 2vu^2 + 4uv + 6u + 3u^2 + u^3 + 5
        b = solve_equation("baxter", 4)
        z3 = {e[1:]: c for e, c in b.terms.items() if e[0] == 3}
        assert z3 == {
            (0, 0): 5, (1, 0): 6, (2, 0): 3, (3, 0): 1,
            (1, 1): 4, (2, 1): 2, (2, 2): 1,
        }

    def test_baxter_at_one(self):
        b = solve_equation("baxter", 10)
        assert ones_sequence(b) == [
            1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240, 1882960,
        ]

    def test_catalytic_coefficients_match_label_dp(self):
        # full coefficient, not just the constant term: u^i v^j picks out
        # the diagrams with label (i, j)
        from nonnesting.gentree import count_levels

        f = solve_equation("partitions", 6, k=3)
        levels = count_levels(FamilySpec("partitions", 3), 6)
        for n in range(7):
            for label, count in levels[n].entries.items():
                assert f.coefficient((n,) + label) == count

    def test_unknown_equation(self):
        # the equation letters are gone; families go by their CLI names
        for family in ("widgets", "Q", "A", "F", "permutations3"):
            with pytest.raises(ValueError, match="unknown series family"):
                solve_equation(family, 5)

    def test_k_rules(self):
        assert series.SERIES_FAMILIES == (
            "partitions", "partitions-enhanced", "permutations", "baxter",
        )
        for family in ("partitions", "partitions-enhanced", "permutations"):
            with pytest.raises(ValueError, match="k is required"):
                solve_equation(family, 3)
            with pytest.raises(ValueError, match="k must be >= 2"):
                solve_equation(family, 3, k=1)
        with pytest.raises(ValueError, match="k is not accepted"):
            solve_equation("baxter", 3, k=3)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            solve_equation("baxter", -1)


def _reference_permutation3(n_max):
    """The hand-written k=3 permutation equation F(u, v, w; z) that the
    general-k solver replaced: eight substitutions and four closer pieces,
    split by whether the closed semi-arcs sat in future 2-nestings."""
    from nonnesting.series import _iterate

    def phi(g):
        g_uv1 = substitute(g, {"u": ("u", "v"), "v": 1})  # v-exponent := h
        g_uw1 = substitute(g, {"u": ("u", "w"), "w": 1})  # w-exponent := h
        g_v0 = substitute(g, {"v": 0})
        g_w0 = substitute(g, {"w": 0})
        g_uvw = substitute(g, {"u": ("u", "v", "w"), "v": 1, "w": 1})
        g_uw_v0 = substitute(g_uw1, {"v": 0})
        g_uv_w0 = substitute(g_uv1, {"w": 0})
        g_00 = substitute(g, {"v": 0, "w": 0})

        # semi-opener
        total = g.shift("u")
        # fixed point + upper semi-transitory
        total = total + divide_by_one_minus(g - g_uv1.shift("v"), "v")
        total = total + divide_by_var(g - g_v0, "v")
        # lower semi-transitory
        total = total + divide_by_one_minus(g - g_uw1, "w")
        total = total + divide_by_var(g - g_w0, "w")
        # closer; every piece carries the 1/u from h -> h-1
        c1 = divide_by_one_minus(
            divide_by_one_minus(g - g_uv1 - g_uw1 + g_uvw, "v"), "w"
        )
        c2 = divide_by_one_minus(divide_by_var(g - g_v0 - g_uw1 + g_uw_v0, "v"), "w")
        c3 = divide_by_one_minus(divide_by_var(g - g_w0 - g_uv1 + g_uv_w0, "w"), "v")
        c4 = divide_by_var(divide_by_var(g - g_v0 - g_w0 + g_00, "v"), "w")
        total = total + divide_by_var(c1 + c2 + c3 + c4, "u")
        return total

    return _iterate(("z", "u", "v", "w"), n_max, phi)


@pytest.mark.parametrize("n_max", range(13))
def test_general_permutation_equation_equals_k3_reference(n_max):
    general = solve_equation("permutations", n_max, k=3)
    reference = _reference_permutation3(n_max)
    assert (general.variables, general.cap, general.terms) == (
        reference.variables, reference.cap, reference.terms
    )


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
    def case(family, k, n, name=None):
        name = name or f"{PAPER_NAME[family]}-{k}"
        return pytest.param(family, k, n, id=f"{name}-{n}")

    for n in range(10):
        yield case("partitions", 3, n, "A-None")
        yield case("permutations", 3, n, "F-None")
        yield case("baxter", None, n)
        for k in range(2, 7):
            yield case("partitions", k, n)
            yield case("partitions-enhanced", k, n)
        for k in (2, 4, 5):
            yield case("permutations", k, n)
    yield case("baxter", None, 25)
    yield case("permutations", 3, 12, "F-None")
    yield case("permutations", 2, 12)


@pytest.mark.parametrize("family,k,n_max", list(_differential_cases()))
def test_order_by_order_equals_fixed_point(family, k, n_max, monkeypatch):
    fast = solve_equation(family, n_max, k=k)
    monkeypatch.setattr(series, "_iterate", _fixed_point_iterate)
    plain = solve_equation(family, n_max, k=k)
    assert (fast.variables, fast.cap, fast.terms) == (
        plain.variables, plain.cap, plain.terms
    )


def test_phi_that_moves_the_z_order_raises():
    with pytest.raises(ValueError, match="z-order"):
        series._iterate(("z", "u"), 4, lambda g: g.shift("z"))
