"""Truncated multivariate power series and functional-equation solvers.

Series have exact integer coefficients and are truncated past a fixed
z-order.  The variable z marks size; the remaining catalytic variables mark
label entries.  Only z is truncated: catalytic exponents stay bounded on
their own (each z-order is one application of Phi, which raises them by a
bounded amount), and truncating them would corrupt the zero-remainder checks in the exact divisions below.

Each functional equation has the shape  G = 1 + z * Phi(G)  where Phi is
built from three substitution shapes (set a variable to 0, to 1, or fold it
into a neighbour), shifts in catalytic variables and exact divisions by a
variable or by (1 - variable).  None of these touches z, so Phi is linear
and keeps the z-order: [z^n]G = Phi([z^(n-1)]G).  The solver therefore
builds G one z-order at a time from [z^0]G = 1, and checks at runtime that
Phi kept every term at the z-order it was given.  Every division is checked
for a zero remainder as well; a nonzero remainder raises DivisibilityError.
"""

from __future__ import annotations

from .errors import DivisibilityError

__all__ = [
    "TruncatedSeries",
    "substitute",
    "solve_equation",
    "constant_term_sequence",
    "ones_sequence",
]


class TruncatedSeries:
    """Sparse multivariate polynomial over the integers, truncated in z.

    The first variable is the truncation variable; terms whose exponent in
    it exceeds `cap` are dropped.  terms maps exponent tuples (aligned with
    `variables`) to nonzero coefficients.  Instances are treated as
    immutable.
    """

    __slots__ = ("variables", "cap", "terms")

    def __init__(self, variables, cap, terms=None):
        self.variables = tuple(variables)
        self.cap = int(cap)
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(expo) != len(self.variables):
                    raise ValueError("exponent arity mismatch")
                if expo[0] <= self.cap:
                    clean[tuple(expo)] = coeff
        self.terms = clean

    @classmethod
    def one(cls, variables, cap):
        return cls(variables, cap, {(0,) * len(variables): 1})

    def _index(self, var):
        try:
            return self.variables.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.variables == other.variables
            and self.cap == other.cap
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return TruncatedSeries(self.variables, self.cap, terms)

    def __sub__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) - coeff
        return TruncatedSeries(self.variables, self.cap, terms)

    def _check_compatible(self, other):
        if self.variables != other.variables or self.cap != other.cap:
            raise ValueError("incompatible series")

    def scale(self, factor):
        return TruncatedSeries(
            self.variables,
            self.cap,
            {expo: factor * coeff for expo, coeff in self.terms.items()},
        )

    def shift(self, var, amount=1):
        """Multiply by var**amount (truncating in z if var is z)."""
        i = self._index(var)
        terms = {}
        for expo, coeff in self.terms.items():
            e = expo[i] + amount
            if i == 0 and e > self.cap:
                continue
            terms[expo[:i] + (e,) + expo[i + 1 :]] = coeff
        return TruncatedSeries(self.variables, self.cap, terms)

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), 0)

    def dump_lines(self):
        """Sorted "e0 e1 ...: coefficient" lines, for golden-file output."""
        return [
            " ".join(map(str, expo)) + ": " + str(coeff)
            for expo, coeff in sorted(self.terms.items())
        ]


def substitute(f, assignment):
    """Monomial substitution: each variable maps to 0, 1, or variables.

    `assignment` maps a variable name to 0, to 1, or to a tuple of variable
    names whose product replaces it; unmentioned variables are kept.  The
    shapes needed by the functional equations are v -> 0, v -> 1 and the
    collapse (u, v) -> (u*v, 1).
    """
    targets = []
    for i, var in enumerate(f.variables):
        spec = assignment.get(var, (var,))
        if spec == 0 or spec == 1:
            targets.append(spec)
        else:
            if isinstance(spec, str):
                spec = (spec,)
            targets.append(tuple(f._index(v) for v in spec))
    terms = {}
    for expo, coeff in f.terms.items():
        out = [0] * len(f.variables)
        dead = False
        for e, target in zip(expo, targets):
            if e == 0:
                continue
            if target == 0:
                dead = True
                break
            if target == 1:
                continue
            for j in target:
                out[j] += e
        if dead:
            continue
        key = tuple(out)
        terms[key] = terms.get(key, 0) + coeff
    return TruncatedSeries(f.variables, f.cap, terms)


def divide_by_var(f, var):
    """Exact division by a variable; every term must contain it."""
    i = f._index(var)
    terms = {}
    for expo, coeff in f.terms.items():
        if expo[i] == 0:
            raise DivisibilityError(f"term {expo} not divisible by {var}")
        terms[expo[:i] + (expo[i] - 1,) + expo[i + 1 :]] = coeff
    return TruncatedSeries(f.variables, f.cap, terms)


def divide_by_one_minus(f, var):
    """Exact division by (1 - var) via synthetic division.

    The quotient coefficient at var**i is the cumulative sum of the
    numerator coefficients up to i; the remainder is the value at var = 1
    and must vanish.
    """
    i = f._index(var)
    groups = {}
    for expo, coeff in f.terms.items():
        key = expo[:i] + expo[i + 1 :]
        groups.setdefault(key, {})[expo[i]] = coeff
    terms = {}
    for key, coeffs in groups.items():
        top = max(coeffs)
        running = 0
        for e in range(top):
            running += coeffs.get(e, 0)
            if running:
                terms[key[:i] + (e,) + key[i:]] = running
        if running + coeffs.get(top, 0) != 0:
            raise DivisibilityError(
                f"nonzero remainder dividing by (1 - {var}) at {key}"
            )
    return TruncatedSeries(f.variables, f.cap, terms)


def _iterate(variables, n_max, phi):
    """Solve G = 1 + z * phi(G) to z-order n_max, one z-order at a time.

    phi must be linear and keep the z-order: applied to the z^(n-1) slice
    of G it returns terms of z-order n-1 only, and shifting them by z gives
    the z^n slice.  A term at any other z-order raises ValueError.
    """
    layer = TruncatedSeries.one(variables, n_max)
    terms = dict(layer.terms)
    for n in range(1, n_max + 1):
        image = phi(layer)
        for expo in image.terms:
            if expo[0] != n - 1:
                raise ValueError(
                    f"phi moved a term of z-order {n - 1} to z-order {expo[0]}"
                )
        layer = image.shift("z")
        terms.update(layer.terms)
    return TruncatedSeries(variables, n_max, terms)


def solve_partition_equation(k, n_max):
    """Generating function Q for k-nonnesting open partition diagrams.

    Variables v0..v(k-2) mark the label entries s_0..s_{k-2}; the constant
    term in the catalytic variables counts k-nonnesting set partitions.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    m = k - 1
    variables = ("z",) + tuple(f"v{i}" for i in range(m))
    vs = variables[1:]

    def phi(g):
        total = g
        # closing the top semi-arc of a future (k-1)-nesting
        part = g - substitute(g, {vs[-1]: 0})
        for v in vs:
            part = divide_by_var(part, v)
        total = total + part
        # ranged semi-transitory / closer rules
        for j in range(1, m):
            collapsed = substitute(g, {vs[j - 1]: (vs[j - 1], vs[j]), vs[j]: 1})
            part = divide_by_one_minus(g - collapsed, vs[j])
            for v in vs[:j]:
                part = divide_by_var(part, v)
            total = total + part
        # the common factor (1 + v0) pairs each closing with the
        # semi-transitory that reopens a fresh semi-arc
        return total + total.shift(vs[0])

    return _iterate(variables, n_max, phi)


def solve_enhanced_equation(k, n_max):
    """Generating function P for open partition diagrams avoiding regular
    and future enhanced k-nestings (for k=3 this is the Baxter series)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    m = k - 1
    variables = ("z",) + tuple(f"v{i}" for i in range(m))
    vs = variables[1:]

    def phi(g):
        # semi-opener
        total = g.shift(vs[0])
        # top-of-future-nesting closings, with the (1 + v0) pairing
        part = g - substitute(g, {vs[-1]: 0})
        for v in vs:
            part = divide_by_var(part, v)
        total = total + part + part.shift(vs[0])
        # ranged closings for index classes j >= 2
        for j in range(2, m):
            collapsed = substitute(g, {vs[j - 1]: (vs[j - 1], vs[j]), vs[j]: 1})
            part = divide_by_one_minus(g - collapsed, vs[j])
            for v in vs[:j]:
                part = divide_by_var(part, v)
            total = total + part + part.shift(vs[0])
        if m >= 2:
            # index class j = 1, merged with the fixed point: a fixed point
            # lifts every index-0 semi-arc to index 1
            collapsed = substitute(g, {vs[0]: (vs[0], vs[1]), vs[1]: 1})
            numer = (g + g.shift(vs[0])) - (collapsed + collapsed.shift(vs[0]).shift(vs[1]))
            part = divide_by_one_minus(divide_by_var(numer, vs[0]), vs[1])
            total = total + part
        else:
            # k = 2: a fixed point is only allowed on the empty label
            const = TruncatedSeries(
                variables,
                n_max,
                {
                    expo: c
                    for expo, c in g.terms.items()
                    if all(e == 0 for e in expo[1:])
                },
            )
            total = total + const
        return total

    return _iterate(variables, n_max, phi)


def solve_baxter_equation(n_max):
    """The two-variable series B(u, v; z) of enhanced-3-nonnesting open
    partition diagrams, written with the u = v0, v = v1 naming."""
    f = solve_enhanced_equation(3, n_max)
    return TruncatedSeries(("z", "u", "v"), n_max, f.terms)


def solve_permutation_equation(n_max):
    """Generating function F(u, v, w; z) for 3-nonnesting open permutation
    diagrams: u marks h, v the upper future-2-nesting count r, w the lower
    one s.  The constant term counts 3-nonnesting permutations.

    Implements the contribution-by-vertex-type form; the closer terms use
    the cross term F(uv,1,w) obtained from expanding the double geometric
    sum over the upper and lower closing positions.
    """
    variables = ("z", "u", "v", "w")

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
        # closer, split by whether the closed semi-arcs sat in future
        # 2-nestings; every piece carries the 1/u from h -> h-1
        c1 = divide_by_one_minus(
            divide_by_one_minus(g - g_uv1 - g_uw1 + g_uvw, "v"), "w"
        )
        c2 = divide_by_one_minus(divide_by_var(g - g_v0 - g_uw1 + g_uw_v0, "v"), "w")
        c3 = divide_by_one_minus(divide_by_var(g - g_w0 - g_uv1 + g_uv_w0, "w"), "v")
        c4 = divide_by_var(divide_by_var(g - g_v0 - g_w0 + g_00, "v"), "w")
        total = total + divide_by_var(c1 + c2 + c3 + c4, "u")
        return total

    return _iterate(variables, n_max, phi)


def solve_equation(equation, n_max, k=None):
    """Dispatch: equation in {"A", "Q", "P", "F", "B"}.

    "A" is the 3-nonnesting partition equation (the k=3 case of "Q");
    "Q"/"P" need k = forbidden nesting size; "F" is the 3-nonnesting
    permutation equation and "B" the Baxter series.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if equation == "A":
        return solve_partition_equation(3, n_max)
    if equation == "Q":
        return solve_partition_equation(k, n_max)
    if equation == "P":
        return solve_enhanced_equation(k, n_max)
    if equation == "F":
        return solve_permutation_equation(n_max)
    if equation == "B":
        return solve_baxter_equation(n_max)
    raise ValueError(f"unknown equation {equation!r}")


def constant_term_sequence(f):
    """z-coefficients of the catalytic-constant part, index 0..cap."""
    out = [0] * (f.cap + 1)
    for expo, coeff in f.terms.items():
        if all(e == 0 for e in expo[1:]):
            out[expo[0]] = coeff
    return out


def ones_sequence(f):
    """z-coefficients after setting every catalytic variable to 1."""
    out = [0] * (f.cap + 1)
    for expo, coeff in f.terms.items():
        out[expo[0]] += coeff
    return out
