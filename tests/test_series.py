"""Truncated series arithmetic and the functional-equation solvers."""

import re
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonnesting import series
from nonnesting.errors import DivisibilityError
from nonnesting.gentree import FamilySpec, count_sequence
from nonnesting.series import (
    TruncatedSeries,
    _fold,
    _zero,
    constant_term_sequence,
    divide_by_one_minus,
    ones_sequence,
    solve_equation,
    solve_sequence,
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

    @pytest.mark.parametrize("expo,message", [
        ((1, 2, 0), "exponent arity mismatch"),
        ((1, -2), r"negative exponent in \(1, -2\)"),
        ((-1, 0), r"negative exponent in \(-1, 0\)"),
    ])
    def test_constructor_rejects_bad_exponents(self, expo, message):
        with pytest.raises(ValueError, match=message):
            TruncatedSeries(("z", "v"), 3, {expo: 5})

    @pytest.mark.parametrize("expo,message", [
        ((1, -2), r"negative exponent in \(1, -2\)"),
        ((1,), "exponent arity mismatch"),
    ])
    def test_constructor_checks_a_zero_term(self, expo, message):
        # a zero coefficient is dropped only after its key is checked
        with pytest.raises(ValueError, match=message):
            TruncatedSeries(("z", "v"), 3, {expo: 0})

    @pytest.mark.parametrize("cap", [2.5, 2.0])
    def test_constructor_rejects_a_float_cap(self, cap):
        # int(2.5) once truncated it to 2
        with pytest.raises(ValueError, match=f"cap must be an int, got {cap!r}"):
            TruncatedSeries(V, cap)

    def test_constructor_rejects_a_bool_cap(self):
        with pytest.raises(ValueError, match="cap must be an int, got True"):
            TruncatedSeries(V, True, {(1, 0, 0): 1})

    def test_constructor_rejects_a_negative_cap(self):
        # it once gave an empty series
        with pytest.raises(ValueError, match="cap must be >= 0"):
            TruncatedSeries(V, -1, {(0, 0, 0): 1})

    @pytest.mark.parametrize("expo", [(1, True, 0), (True, 0, 0)])
    def test_constructor_rejects_a_bool_exponent(self, expo):
        with pytest.raises(ValueError, match=r"exponent must be an int, got True in \("):
            S({expo: 1})

    @pytest.mark.parametrize("expo,bad", [((0, 1.5, 0), 1.5), ((1, 0, 2.0), 2.0)])
    def test_constructor_rejects_a_float_exponent(self, expo, bad):
        # 1.5 once raised a bare TypeError from the bit arithmetic
        with pytest.raises(ValueError, match=f"exponent must be an int, got {bad!r}"):
            S({expo: 1})

    @pytest.mark.parametrize("variables", [("z", "z"), ("z", "u", "u"), ["z", "u", "z"]])
    def test_constructor_rejects_duplicate_variables(self, variables):
        # the second of two equal names could never be reached by name
        with pytest.raises(ValueError, match="variables must be distinct"):
            TruncatedSeries(variables, 2)

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

    def test_substitute_rejects_unknown_variable(self):
        a = S({(1, 2, 1): 5})
        with pytest.raises(ValueError, match="unknown variable 'x'"):
            substitute(a, {"x": 0})
        with pytest.raises(ValueError, match="unknown variable 'x'"):
            substitute(a, {"u": ("u", "x")})

    def test_substitute_rejects_bad_target(self):
        with pytest.raises(ValueError, match="unknown variable 2"):
            substitute(S({(1, 2, 1): 5}), {"v": 2})

    @pytest.mark.parametrize("target", [True, False, 1.0, 0.0])
    def test_substitute_rejects_a_target_equal_to_0_or_1_but_not_the_int(
        self, target
    ):
        # True and 1.0 once acted as v -> 1, False and 0.0 as v -> 0
        with pytest.raises(ValueError, match=f"unknown variable {target!r}"):
            substitute(S({(1, 2, 1): 5}), {"v": target})

    @pytest.mark.parametrize("coeff", [0.5, 2.0, True, False, "3", None])
    def test_constructor_rejects_a_coefficient_that_is_not_an_int(self, coeff):
        # 0.5 and True were once kept as coefficients
        message = f"coefficient must be an int, got {coeff!r} at (1, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            TruncatedSeries(("z", "u"), 2, {(0, 0): 1, (1, 1): coeff})

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


def _assert_clean(f, variables, cap):
    assert (f.variables, f.cap) == (variables, cap)
    assert all(len(expo) == len(variables) for expo in f.terms)
    assert 0 not in f.terms.values()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shapes_and_sums_equal_the_validating_path(data):
    arity = data.draw(st.integers(3, 5))
    variables = ("z",) + tuple(f"x{i}" for i in range(1, arity))
    cap = data.draw(st.integers(0, 3))
    x, y = data.draw(st.lists(
        st.sampled_from(variables[1:]), min_size=2, max_size=2, unique=True))
    j = variables.index(y)
    exponents = st.tuples(*[st.integers(0, 3)] * arity)
    coeffs = st.integers(-3, 3).filter(bool)
    terms = data.draw(st.dictionaries(exponents, coeffs, max_size=12))
    # pairs that differ only in y's exponent, which the fold merges and cancels
    for expo, coeff, e in data.draw(st.lists(
            st.tuples(exponents, coeffs, st.integers(0, 3)), max_size=3)):
        terms[expo] = coeff
        terms[expo[:j] + (e,) + expo[j + 1:]] = -coeff
    f = TruncatedSeries(variables, cap, terms)

    zero = _zero(f, x)
    fold = _fold(f, x, y)
    assert zero == substitute(f, {x: 0})
    assert fold == substitute(f, {x: (x, y), y: 1})

    # other cancels f on the shared terms
    shared = data.draw(st.sets(st.sampled_from(sorted(f.terms)))) if f.terms else set()
    other_terms = data.draw(st.dictionaries(exponents, coeffs, max_size=12))
    other_terms.update({expo: -f.terms[expo] for expo in shared})
    other = TruncatedSeries(variables, cap, other_terms)
    negated = TruncatedSeries(variables, cap, {e: -c for e, c in other.terms.items()})
    total = TruncatedSeries(variables, cap, {
        expo: f.coefficient(expo) + other.coefficient(expo)
        for expo in f.terms.keys() | other.terms.keys()
    })
    assert f + other == total
    assert f - negated == total
    for out in (zero, fold, f + other, f - negated):
        _assert_clean(out, variables, cap)


# Tuple-keyed copies of the arithmetic as it was before the terms were
# coded as ints: the reference for the coded arithmetic.  Each takes and
# returns a dict from exponent tuples to coefficients.
def _tuple_add(a, b):
    terms = dict(a)
    for expo, coeff in b.items():
        coeff += terms.get(expo, 0)
        if coeff:
            terms[expo] = coeff
        else:
            del terms[expo]
    return terms


def _tuple_sub(a, b):
    return _tuple_add(a, {expo: -coeff for expo, coeff in b.items()})


def _tuple_shift(terms, i, cap):
    out = {}
    for expo, coeff in terms.items():
        e = expo[i] + 1
        if i == 0 and e > cap:
            continue
        out[expo[:i] + (e,) + expo[i + 1:]] = coeff
    return out


def _tuple_divide_by_var(terms, i, var):
    out = {}
    for expo, coeff in terms.items():
        if expo[i] == 0:
            raise DivisibilityError(f"term {expo} not divisible by {var}")
        out[expo[:i] + (expo[i] - 1,) + expo[i + 1:]] = coeff
    return out


def divide_by_var(f, var):
    """Exact division by a variable; every term must contain it.  The
    solver divides inside `series._close`, so only these tests need it."""
    i = f.variables.index(var)
    return TruncatedSeries(f.variables, f.cap, _tuple_divide_by_var(f.terms, i, var))


def _tuple_divide_by_one_minus(terms, i, var):
    groups = {}
    for expo, coeff in terms.items():
        groups.setdefault(expo[:i] + expo[i + 1:], {})[expo[i]] = coeff
    out = {}
    for key, coeffs in groups.items():
        top = max(coeffs)
        running = 0
        for e in range(top):
            running += coeffs.get(e, 0)
            if running:
                out[key[:i] + (e,) + key[i:]] = running
        if running + coeffs.get(top, 0) != 0:
            raise DivisibilityError(
                f"nonzero remainder dividing by (1 - {var}) at {key}"
            )
    return out


def _outcome(fn, *args):
    """The terms fn returns, or the DivisibilityError message it raises."""
    try:
        out = fn(*args)
    except DivisibilityError as exc:
        return ("DivisibilityError", str(exc))
    return out.terms if isinstance(out, TruncatedSeries) else out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coded_arithmetic_equals_tuple_arithmetic(data):
    arity = data.draw(st.integers(2, 5))
    variables = ("z",) + tuple(f"x{i}" for i in range(1, arity))
    cap = data.draw(st.integers(0, 6))
    coeffs = st.integers(-3, 3).filter(bool)

    def draw_series():
        # exponents up to 40 give widths from 2 to 7 bits
        top = data.draw(st.sampled_from([1, 3, 7, 8, 40]))
        exponents = st.tuples(*[st.integers(0, top)] * arity)
        return TruncatedSeries(
            variables, cap, data.draw(st.dictionaries(exponents, coeffs, max_size=10)))

    f, other = draw_series(), draw_series()
    var = data.draw(st.sampled_from(variables))
    i = variables.index(var)
    # f times var and f times (1 - var) are divisible; f may well not be
    multiple = f.shift(var)
    multiple = multiple - multiple.shift(var) if i else multiple
    numerator = data.draw(st.sampled_from([f, multiple]))

    assert _outcome(lambda: f + other) == _tuple_add(f.terms, other.terms)
    assert _outcome(lambda: f - other) == _tuple_sub(f.terms, other.terms)
    assert _outcome(f.shift, var) == _tuple_shift(f.terms, i, cap)
    if i:
        assert _outcome(divide_by_one_minus, numerator, var) == _outcome(
            _tuple_divide_by_one_minus, numerator.terms, i, var)
    if i and arity > 2:
        x = data.draw(st.sampled_from([v for v in variables[1:] if v != var]))
        assert _outcome(series._fold_quotient, f, x, var) == _outcome(
            _tuple_divide_by_one_minus,
            _tuple_sub(f.terms, substitute(f, {x: (x, var), var: 1}).terms), i, var)


def test_shift_at_the_top_of_a_field_widens():
    # cap 1 and exponent 3 give 3-bit fields, of which 3 is the largest
    # value with the top bit clear
    f = TruncatedSeries(V, 1, {(0, 3, 0): 1, (1, 0, 3): 2})
    assert f.width == 3
    for step in range(1, 20):
        f = f.shift("u")
        assert f.terms == {(0, 3 + step, 0): 1, (1, step, 3): 2}
        assert f.coefficient((0, 0, 1)) == 0
        assert max(f.terms)[1] < 1 << f.width - 1
    assert f.width == 6
    # the widened series still adds to and equals the narrow ones
    g = TruncatedSeries(V, 1, {(1, 19, 3): -2})
    assert (f + g).terms == {(0, 22, 0): 1}


def test_coefficient_of_an_exponent_wider_than_its_field():
    f = TruncatedSeries(V, 1, {(0, 0, 1): 7, (1, 1, 0): 3})
    assert f.width == 2
    # 4 << 2 is the code of v's field at 1: a wide u must not read it
    assert f.coefficient((0, 4, 0)) == 0
    assert f.coefficient((1 + 4, 1, 0)) == 0
    assert f.coefficient((0, 0, -1)) == 0
    assert f.coefficient((0, 0)) == 0
    assert f.coefficient((0, 0, 1)) == 7
    assert f.coefficient([1, 1, 0]) == 3


@pytest.mark.parametrize("expo,bad", [
    ((True, True, 0), True), ((1.0, 1, 0), 1.0), ((0, 0, "1"), "'1'"),
])
def test_coefficient_refuses_an_exponent_that_is_not_an_int(expo, bad):
    # (True, True, 0) read the (1, 1, 0) term, and 1.0 raised a bare
    # TypeError; the constructor refuses both with this message
    f = TruncatedSeries(V, 1, {(0, 0, 1): 7, (1, 1, 0): 3})
    message = f"exponent must be an int, got {bad} in {expo}"
    with pytest.raises(ValueError, match=re.escape(message)):
        f.coefficient(expo)
    with pytest.raises(ValueError, match=re.escape(message)):
        TruncatedSeries(V, 1, {expo: 1})


def test_equal_series_of_different_widths_are_equal():
    narrow = TruncatedSeries(V, 2, {(1, 0, 0): 2, (0, 1, 2): -1})
    wide = TruncatedSeries(V, 2, {(1, 0, 0): 2, (0, 1, 2): -1, (0, 9, 0): 1})
    wide = wide - TruncatedSeries(V, 2, {(0, 9, 0): 1})
    assert (narrow.width, wide.width) == (3, 5)
    assert narrow == wide and wide == narrow
    assert narrow.dump_lines() == wide.dump_lines()
    assert wide != narrow + TruncatedSeries(V, 2, {(2, 0, 0): 1})
    assert wide != TruncatedSeries(V, 3, narrow.terms)


# Test ids name each series as the paper does: Q and P (with k) for the
# two partition families, F for permutations and B for Baxter.  In the
# order-by-order differential, A-None is Q at k = 3 and F-None is F at
# k = 3: ids kept from the explicit k = 3 equations those cases once solved.
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

    @pytest.mark.parametrize("family,k,n_max", [
        pytest.param(family, k, n_max, id=f"{PAPER_NAME[family]}-{k}")
        for family, ks, n_max in (
            ("partitions", range(2, 7), 8),
            ("partitions-enhanced", range(2, 7), 8),
            ("permutations", range(2, 6), 7),
        )
        for k in ks
    ])
    def test_catalytic_coefficients_match_label_dp(self, family, k, n_max):
        # every coefficient, not just the constant term: the z^n slice is
        # the DP's level n, a label's entries being the catalytic exponents
        from nonnesting.gentree import count_levels

        f = solve_equation(family, n_max, k=k)
        levels = count_levels(FamilySpec(family, k), n_max)

        def flat(label):  # a permutation label (h, r, s) as h, *r, *s
            if family == "permutations":
                return (label[0], *label[1], *label[2])
            return label

        assert f.terms == {
            (n,) + flat(label): count
            for n, level in enumerate(levels)
            for label, count in level.entries.items()
        }

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

    @pytest.mark.parametrize("bad", [True, 3.0, "3"])
    def test_non_int_order_and_k(self, bad):
        """An n_max or k that is not an int (a bool, a float or a string)
        is refused, also after a solve with the int it equals."""
        solve_equation("partitions", 3, k=3)
        for family in ("partitions", "partitions-enhanced", "permutations"):
            with pytest.raises(ValueError, match=f"n_max must be an int, got {bad!r}"):
                solve_equation(family, bad, k=3)
            with pytest.raises(ValueError, match=f"k must be an int, got {bad!r}"):
                solve_equation(family, 3, k=bad)
        with pytest.raises(ValueError, match=f"n_max must be an int, got {bad!r}"):
            solve_equation("baxter", bad)

    @pytest.mark.parametrize("family,n_max,k", [
        ("widgets", 5, None), ("permutations3", 5, 3), ("partitions", 3, None),
        ("partitions-enhanced", 3, 1), ("permutations", 3, 1), ("baxter", 3, 3),
        ("baxter", -1, None), ("partitions", True, 3), ("permutations", 3.0, 3),
        ("baxter", "3", None), ("partitions", 3, True), ("permutations", 3, "3"),
    ])
    def test_sequence_checks_its_arguments_as_the_solve_does(self, family, n_max, k):
        with pytest.raises(ValueError) as solved:
            solve_equation(family, n_max, k=k)
        message = "^" + re.escape(str(solved.value)) + "$"
        with pytest.raises(ValueError, match=message):
            solve_sequence(family, n_max, k=k)

    @pytest.mark.parametrize("bad", [1, "x", [], True])
    @pytest.mark.parametrize("solve", [solve_equation, solve_sequence])
    def test_stats_must_be_none_or_callable(self, solve, bad, monkeypatch):
        # refused before any z-order is solved: Phi is never applied
        def no_phi(*args):
            raise AssertionError("Phi was applied")

        monkeypatch.setattr(series, "_partition_phi", no_phi)
        monkeypatch.setattr(series, "_permutation_phi", no_phi)
        message = re.escape(f"stats must be None or callable, got {bad!r}")
        for family, k in (("partitions", 3), ("partitions-enhanced", 3),
                          ("permutations", 3), ("baxter", None)):
            with pytest.raises(ValueError, match=message):
                solve(family, 3, k=k, stats=bad)


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


def _reference_enhanced(k, n_max, **options):
    """The P solver that the shared partition Phi replaced: a closing loop
    of its own that skips index class j = 1, and that piece merged by hand
    with the enhanced fixed point."""
    from nonnesting.series import _iterate

    m = k - 1
    variables = ("z",) + tuple(f"v{i}" for i in range(m))
    vs = variables[1:]

    def close_from_2(g):
        total = g - substitute(g, {vs[-1]: 0})
        for x in vs[1:]:
            total = divide_by_var(total, x)
        for j in range(2, m):
            collapsed = substitute(g, {vs[j - 1]: (vs[j - 1], vs[j]), vs[j]: 1})
            part = divide_by_one_minus(g - collapsed, vs[j])
            for x in vs[1:j]:
                part = divide_by_var(part, x)
            total = total + part
        return total

    def phi(g):
        part = divide_by_var(close_from_2(g), vs[0])
        total = g.shift(vs[0]) + part + part.shift(vs[0])
        if m >= 2:
            collapsed = substitute(g, {vs[0]: (vs[0], vs[1]), vs[1]: 1})
            numer = (g + g.shift(vs[0])) - (
                collapsed + collapsed.shift(vs[0]).shift(vs[1])
            )
            total = total + divide_by_one_minus(divide_by_var(numer, vs[0]), vs[1])
        else:
            total = total + substitute(g, {vs[0]: 0})
        return total

    return _iterate(variables, n_max, phi, **options)


@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("k", range(2, 8))
def test_enhanced_partition_equation_equals_merged_reference(k, full):
    options = {} if full else {"semi_arc": "v0"}
    for n_max in range(11):
        f = solve_equation("partitions-enhanced", n_max, k=k, full=full)
        reference = _reference_enhanced(k, n_max, **options)
        assert (f.variables, f.cap, f.terms) == (
            reference.variables, reference.cap, reference.terms
        )


def test_baxter_equation_equals_merged_reference():
    b = solve_equation("baxter", 25)
    reference = _reference_enhanced(3, 25)
    assert (b.variables, b.cap, b.terms) == (("z", "u", "v"), 25, reference.terms)


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
    def case(family, k, n):
        return pytest.param(family, k, n, id=f"{PAPER_NAME[family]}-{k}-{n}")

    for n in range(10):
        yield case("permutations", 3, n)
        yield case("baxter", None, n)
        for k in range(2, 7):
            yield case("partitions", k, n)
            yield case("partitions-enhanced", k, n)
        for k in (2, 4, 5):
            yield case("permutations", k, n)
    yield case("baxter", None, 25)
    yield case("permutations", 3, 12)
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


def test_phi_that_moves_a_term_down_raises():
    # at z-order 2 this phi returns 1, of z-order 0
    def phi(g):
        return TruncatedSeries.one(g.variables, g.cap)

    with pytest.raises(ValueError, match="z-order 1 to z-order 0"):
        series._iterate(("z", "u"), 4, phi)


def test_iterate_recodes_the_series_when_phi_widens():
    # u reaches 4, the top bit of a 3-bit field, at z-order 2
    f = series._iterate(("z", "u"), 3, lambda g: g.shift("u").shift("u"))
    assert f.terms == {(n, 2 * n): 1 for n in range(4)}
    assert f.width == 4


# the variable whose exponent counts semi-arcs, stated here independently
# of the solver table
SEMI_ARC = {"partitions": "v0", "partitions-enhanced": "v0", "permutations": "u"}


def _pruned_cases():
    for family, ks in (
        ("partitions", range(2, 7)),
        ("partitions-enhanced", range(2, 7)),
        ("permutations", range(2, 6)),
    ):
        for k in ks:
            yield pytest.param(family, k, id=f"{PAPER_NAME[family]}-{k}")
    yield pytest.param("baxter", None, id="B")


@pytest.mark.parametrize("family,k", list(_pruned_cases()))
def test_pruned_solve_equals_full_solve(family, k):
    for n_max in range(11):
        full = solve_equation(family, n_max, k=k)
        pruned = solve_equation(family, n_max, k=k, full=False)
        if family == "baxter":
            # B(1, 1) reads every term, so nothing is dropped
            assert pruned == full
            assert ones_sequence(pruned) == ones_sequence(full)
            continue
        assert constant_term_sequence(pruned) == constant_term_sequence(full)
        assert pruned.terms.keys() <= full.terms.keys()
        # exactly the terms that can still close by n_max, each with its
        # full coefficient
        i = full.variables.index(SEMI_ARC[family])
        assert pruned.terms == {
            expo: coeff for expo, coeff in full.terms.items()
            if expo[i] <= n_max - expo[0]
        }


@pytest.mark.parametrize("family,k,n_max", [
    ("permutations", 3, 30),
    ("partitions", 3, 60),
    ("partitions-enhanced", 3, 60),
])
def test_pruned_series_equals_dp_beyond_tables(family, k, n_max):
    f = solve_equation(family, n_max, k=k, full=False)
    assert constant_term_sequence(f) == [1] + count_sequence(FamilySpec(family, k), n_max)


@pytest.mark.parametrize("full", [True, False])
def test_stats_records_each_order(full):
    records = []
    f = solve_equation("permutations", 8, k=4, full=full, stats=records.append)
    assert f == solve_equation("permutations", 8, k=4, full=full)
    assert [r["order"] for r in records] == list(range(1, 9))
    assert all(set(r) == {"order", "terms_built", "terms_kept", "phi_s"} for r in records)
    # the z^0 slice is the one term 1
    assert 1 + sum(r["terms_kept"] for r in records) == len(f.terms)
    sizes = [(r["terms_built"], r["terms_kept"]) for r in records]
    if full:
        assert all(built == kept for built, kept in sizes)
    else:
        assert all(built >= kept for built, kept in sizes)
        assert records[-1]["terms_kept"] == 1  # only the constant term is left


# solve_sequence reads each z-order as `_layers` makes it; its plain path
# is the counting terms of the series that `_iterate` sums
@pytest.mark.parametrize("family,k", list(_pruned_cases()))
def test_sequence_equals_counting_terms_of_the_solve(family, k):
    for n_max in range(11):
        f = solve_equation(family, n_max, k=k, full=False)
        counts = ones_sequence(f) if family == "baxter" else constant_term_sequence(f)
        assert solve_sequence(family, n_max, k=k) == counts


def test_baxter_sequence_equals_ones_of_the_solve():
    for n_max in range(26):
        assert solve_sequence("baxter", n_max) == ones_sequence(
            solve_equation("baxter", n_max))


@pytest.mark.parametrize("family,k,n_max", [
    ("permutations", 3, 30),
    ("partitions", 3, 60),
])
def test_sequence_equals_dp_beyond_tables(family, k, n_max):
    assert solve_sequence(family, n_max, k=k) == [1] + count_sequence(
        FamilySpec(family, k), n_max)


@pytest.mark.parametrize("family,k", [
    ("partitions", 3), ("partitions-enhanced", 4), ("permutations", 4),
    ("baxter", None),
])
def test_sequence_stats_equal_the_solve_stats(family, k):
    solved, sequenced = [], []
    solve_equation(family, 8, k=k, full=False, stats=solved.append)
    solve_sequence(family, 8, k=k, stats=sequenced.append)

    def timeless(records):
        return [{key: v for key, v in r.items() if key != "phi_s"} for r in records]

    assert all(set(r) == {"order", "terms_built", "terms_kept", "phi_s"}
               for r in sequenced)
    assert timeless(sequenced) == timeless(solved)
    assert len(sequenced) == 8


@pytest.mark.parametrize("family", ["partitions", "partitions-enhanced", "permutations"])
def test_sequence_builds_the_equation_for_k_at_most_n_plus_2(family, monkeypatch):
    # a k of a thousand built a thousand catalytic variables and took
    # seconds; the full solve keeps k, since --full prints every variable
    built = []
    equation, takes_k, semi_arc = series._EQUATIONS[family]
    monkeypatch.setitem(series._EQUATIONS, family, (
        lambda k: built.append(k) or equation(k), takes_k, semi_arc))
    for k, n, cap in ((20, 4, 6), (3, 4, 3), (2, 0, 2), (4, 0, 2)):
        built.clear()
        assert solve_sequence(family, n, k=k) == constant_term_sequence(
            solve_equation(family, n, k=cap, full=False))
        assert built == [cap, cap], (k, n)
    built.clear()
    solve_equation(family, 2, k=9)
    assert built == [9]


@pytest.mark.parametrize("family", ["partitions", "partitions-enhanced", "permutations"])
def test_sequence_past_n_plus_2_gives_the_records_at_n_plus_2(family):
    # the bound is exact: no label variable past index n gets an exponent
    def records(k, n):
        out = []
        seq = solve_sequence(family, n, k=k, stats=out.append)
        return seq, [{key: v for key, v in r.items() if key != "phi_s"} for r in out]

    for n in range(7 if family == "permutations" else 8):
        at_bound = records(n + 2, n)
        for k in range(n + 3, n + 6):
            assert records(k, n) == at_bound, (k, n)


def test_sequence_holds_one_z_order():
    # the pruned solve holds every z-order it keeps; the sequence one
    def peak(solve):
        tracemalloc.start()
        try:
            solve()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    held = peak(lambda: solve_sequence("permutations", 40, k=3))
    summed = peak(lambda: constant_term_sequence(
        solve_equation("permutations", 40, k=3, full=False)))
    assert held <= 0.7 * summed


def _plain_close(g, xs):
    """`_close` as built from `substitute`: the plain path of the exponent
    maps `_zero` and `_fold`."""
    total = g - substitute(g, {xs[-1]: 0})
    for x in xs[1:]:
        total = divide_by_var(total, x)
    for j in range(1, len(xs)):
        collapsed = substitute(g, {xs[j - 1]: (xs[j - 1], xs[j]), xs[j]: 1})
        part = divide_by_one_minus(g - collapsed, xs[j])
        for x in xs[1:j]:
            part = divide_by_var(part, x)
        total = total + part
    return total


def _plain_fix(g, xs):
    """`_fix` as built from `substitute`."""
    if len(xs) == 1:
        return substitute(g, {xs[0]: 0})
    return substitute(g, {xs[0]: (xs[0], xs[1]), xs[1]: 1})


def _plain_cases():
    for family, ks in (
        ("partitions", range(2, 8)),
        ("partitions-enhanced", range(2, 8)),
        ("permutations", range(2, 6)),
        ("baxter", (None,)),
    ):
        for k in ks:
            name = PAPER_NAME[family] + ("" if k is None else f"-{k}")
            for full in (True, False):
                yield pytest.param(
                    family, k, full, id=f"{name}-{'full' if full else 'pruned'}")


_UNCHECKED_OF = TruncatedSeries._of


def _validating_of(cls, variables, cap, width, codes):
    """`TruncatedSeries._of` through the validating constructor: the codes
    are decoded, checked there and coded again at their width, which must
    hold every exponent with the top bit of its field clear."""
    checked = cls(variables, cap, _UNCHECKED_OF(variables, cap, width, codes).terms)
    assert checked.width <= width
    return _UNCHECKED_OF(variables, cap, width, checked._recoded(width))


@pytest.mark.parametrize("family,k,full", list(_plain_cases()))
def test_solver_equals_plain_path(family, k, full, monkeypatch):
    # the plain path validates every intermediate series in the public
    # constructor and substitutes through `substitute`
    fast = [solve_equation(family, n_max, k=k, full=full) for n_max in range(11)]
    monkeypatch.setattr(series, "_close", _plain_close)
    monkeypatch.setattr(series, "_fix", _plain_fix)
    monkeypatch.setattr(TruncatedSeries, "_of", classmethod(_validating_of))
    for n_max, f in enumerate(fast):
        plain = solve_equation(family, n_max, k=k, full=full)
        assert (f.variables, f.cap, f.terms) == (
            plain.variables, plain.cap, plain.terms
        )


# The whole-series forms of `_close`, of both Phis and of `_iterate`'s
# z-order step, before each z-order was built into one dict: the plain
# path of the one-dict sums.  Each Phi reads `_close` and `_fix` from the
# module, as the solver's Phis do.
def _close_by_series(g, xs):
    total = g - _zero(g, xs[-1])
    for x in xs[1:]:
        total = divide_by_var(total, x)
    for j in range(1, len(xs)):
        part = series._fold_quotient(g, xs[j - 1], xs[j])
        for x in xs[1:j]:
            part = divide_by_var(part, x)
        total = total + part
    return total


def _partition_phi_by_series(vs, enhanced, g):
    closer = divide_by_var(series._close(g, vs), vs[0])
    fixed = series._fix(g, vs) if enhanced else g
    return fixed + closer + (g + closer).shift(vs[0])


def _permutation_phi_by_series(upper, lower, g):
    low = series._close(g, lower)
    closer = divide_by_var(series._close(low, upper), "u")
    return (g.shift("u") + series._fix(g, upper) + series._close(g, upper)
            + low + closer)


def _iterate_by_series(variables, n_max, phi, *, semi_arc=None):
    layer = TruncatedSeries.one(variables, n_max)
    g = layer
    for n in range(1, n_max + 1):
        image = phi(layer)
        mask = (1 << image.width) - 1
        for code in image.codes:
            if code & mask != n - 1:
                raise ValueError("phi moved a term out of its z-order")
        layer = image.shift("z")
        if semi_arc is not None:
            i = variables.index(semi_arc)
            layer = TruncatedSeries(variables, n_max, {
                expo: coeff for expo, coeff in layer.terms.items()
                if expo[i] <= n_max - n
            })
        g = g + layer
    return g


def _by_series_cases():
    # the plain path's cases, and F at k = 6
    yield from _plain_cases()
    for full in (True, False):
        yield pytest.param(
            "permutations", 6, full, id=f"F-6-{'full' if full else 'pruned'}")


@pytest.mark.parametrize("family,k,full", list(_by_series_cases()))
def test_one_dict_solve_equals_series_solve(family, k, full, monkeypatch):
    fast = [solve_equation(family, n_max, k=k, full=full) for n_max in range(11)]
    monkeypatch.setattr(series, "_close", _close_by_series)
    monkeypatch.setattr(series, "_partition_phi", _partition_phi_by_series)
    monkeypatch.setattr(series, "_permutation_phi", _permutation_phi_by_series)
    monkeypatch.setattr(series, "_iterate", _iterate_by_series)
    for n_max, f in enumerate(fast):
        plain = solve_equation(family, n_max, k=k, full=full)
        assert (f.variables, f.cap, f.terms) == (
            plain.variables, plain.cap, plain.terms
        )
        assert (f.width, f.codes) == (plain.width, plain.codes)


def _label_series(data, variables, sides):
    """A series of random terms over variables: most are labels whose
    entries fall along each side (a tuple of variable indices, sides
    sharing their first, the largest), some are not, and the exponents
    reach the top bit of a field of 2 to 4 bits."""
    top = data.draw(st.sampled_from([1, 3, 4, 7]))
    cap = data.draw(st.integers(0, 3))
    terms = {}
    for _ in range(data.draw(st.integers(0, 10))):
        expo = list(data.draw(st.tuples(*[st.integers(0, top)] * len(variables))))
        if data.draw(st.integers(0, 4)):
            for side in sides:
                entries = sorted((expo[i] for i in side), reverse=True)
                for i, e in zip(side, entries):
                    expo[i] = e
        terms[tuple(expo)] = data.draw(st.integers(-3, 3).filter(bool))
    return TruncatedSeries(variables, cap, terms)


def _outcome_and_width(fn, *args):
    """The terms and width fn returns, or that it raised DivisibilityError."""
    try:
        out = fn(*args)
    except DivisibilityError:
        return "DivisibilityError"
    return out.terms, out.width


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_dict_close_equals_series_close(data):
    m = data.draw(st.integers(1, 4))
    variables = ("z",) + tuple(f"x{i}" for i in range(m))
    g = _label_series(data, variables, [tuple(range(1, m + 1))])
    xs = variables[1:]
    assert _outcome_and_width(series._close, g, xs) == _outcome_and_width(
        _close_by_series, g, xs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_dict_phi_equals_series_phi(data):
    k = data.draw(st.integers(2, 5))
    if data.draw(st.booleans()):
        variables = ("z",) + tuple(f"v{i}" for i in range(k - 1))
        vs = variables[1:]
        enhanced = data.draw(st.booleans())
        g = _label_series(data, variables, [tuple(range(1, k))])
        fast = _outcome_and_width(series._partition_phi, vs, enhanced, g)
        plain = _outcome_and_width(_partition_phi_by_series, vs, enhanced, g)
    else:
        m = k - 2
        ups = tuple(f"v{i}" for i in range(1, m + 1))
        lows = tuple(f"w{i}" for i in range(1, m + 1))
        variables = ("z", "u") + ups + lows
        upper, lower = ("u",) + ups, ("u",) + lows
        g = _label_series(data, variables, [
            (1,) + tuple(range(2, m + 2)), (1,) + tuple(range(m + 2, 2 * m + 2))])
        fast = _outcome_and_width(series._permutation_phi, upper, lower, g)
        plain = _outcome_and_width(_permutation_phi_by_series, upper, lower, g)
    assert fast == plain


def test_close_names_the_first_variable_that_does_not_divide():
    # x1 = 0 under x2 > 0: the top piece cannot divide by x1
    g = TruncatedSeries(("z", "x0", "x1", "x2"), 2, {(0, 2, 0, 1): 3})
    with pytest.raises(DivisibilityError, match=r"term \(0, 2, 0, 1\) not divisible by x1"):
        series._close(g, ("x0", "x1", "x2"))


def _top_layer(family, k, n):
    """The z^n slice of the solution to z-order n: its semi-arc exponent
    reaches n, which is 2^b - 1 for a field of b + 1 bits when n = 3, 7."""
    f = solve_equation(family, n, k=k)
    mask = (1 << f.width) - 1
    return TruncatedSeries._of(f.variables, n, f.width, {
        code: coeff for code, coeff in f.codes.items() if code & mask == n})


def _phis(family, g):
    """The one-dict Phi of family and its plain composition, each as a
    function of a series over g's variables."""
    if family == "permutations":
        m = (len(g.variables) - 2) // 2
        names = g.variables[2:]
        args = (("u",) + names[:m], ("u",) + names[m:])
        return (partial(series._permutation_phi, *args),
                partial(_permutation_phi_by_series, *args))
    args = (g.variables[1:], family == "partitions-enhanced")
    return partial(series._partition_phi, *args), partial(_partition_phi_by_series, *args)


def _close_with(monkeypatch, expo):
    """Make `_close` return its closings and the term expo."""
    true_close = series._close

    def close(g, xs):
        return true_close(g, xs) + TruncatedSeries(g.variables, g.cap, {expo: 1})

    monkeypatch.setattr(series, "_close", close)


@pytest.mark.parametrize("family,k,n", [
    pytest.param(family, k, n, id=f"{PAPER_NAME[family]}-{k}-{n}")
    for family in ("partitions", "partitions-enhanced", "permutations")
    for k in (2, 3, 4)
    for n in (3, 7)
])
def test_phi_widens_at_the_top_of_the_semi_arc_field(family, k, n):
    g = _top_layer(family, k, n)
    i = 1  # v0, or u for permutations
    assert max(expo[i] for expo in g.terms) == (1 << g.width - 1) - 1
    fast, plain = (phi(g) for phi in _phis(family, g))
    assert fast == plain
    assert fast.width == plain.width == g.width + 1
    assert max(expo[i] for expo in fast.terms) == 1 << g.width - 1


@pytest.mark.parametrize("family", ["partitions", "partitions-enhanced", "permutations"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_phi_refuses_closings_free_of_the_semi_arc_variable(family, k, monkeypatch):
    g = _top_layer(family, k, 3)
    # a closing free of v0 (or u): the last variable's exponent, or none
    _close_with(monkeypatch, (0,) * (len(g.variables) - 1) + (int(k > 2),))
    semi_arc = "u" if family == "permutations" else "v0"
    fast, _ = _phis(family, g)
    with pytest.raises(DivisibilityError, match=f"not divisible by {semi_arc}"):
        fast(g)
    with pytest.raises(DivisibilityError, match=f"not divisible by {semi_arc}"):
        solve_equation(family, 4, k=k)


@pytest.mark.parametrize("family", ["partitions", "partitions-enhanced", "permutations"])
def test_phi_sums_parts_of_different_widths(family, monkeypatch):
    # a closing with an exponent that g's fields cannot hold: Phi sums at
    # the widest part's width, as `+` does
    g = _top_layer(family, 3, 3)
    _close_with(monkeypatch, (0, 1) + (0,) * (len(g.variables) - 3) + (1 << g.width,))
    fast, plain = (phi(g) for phi in _phis(family, g))
    assert fast.width > g.width
    assert (fast.terms, fast.width) == (plain.terms, plain.width)
