"""Truncated multivariate power series and functional-equation solvers.

Series have exact integer coefficients and are truncated past a fixed
z-order.  The variable z marks size; the remaining catalytic variables mark
label entries.  Only z is truncated: catalytic exponents stay bounded on
their own (each z-order is one application of Phi, which raises them by a
bounded amount), and truncating them would corrupt the zero-remainder checks in the exact divisions below.

`solve_equation` solves the equation of one of four families:
`partitions` (Q), `partitions-enhanced` (P) and `permutations` (F) for any
forbidden nesting size k >= 2, and `baxter` (P at k = 3, as B(u, v)).

Each functional equation has the shape  G = 1 + z * Phi(G)  where Phi is
built from three substitution shapes (set a variable to 0, to 1, or fold it
into a neighbour), shifts in catalytic variables and exact divisions by a
variable or by (1 - variable).  The closings of a semi-arc are written once,
as the operator `_close`; the three Phis add the other vertex types around
it, and F applies it once per side.  None of these touches z, so Phi is linear
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
    "SERIES_FAMILIES",
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


def _close(g, xs, first=1):
    """The closing operator over catalytic variables xs: the sum of the
    ways to close one semi-arc of a label marked by xs.

    The "top" piece closes the outermost semi-arc of a future nesting, which
    lowers every entry: (g - g|xs[-1]=0) / xs[1..].  The ranged piece j
    (for first <= j < len(xs)) closes a semi-arc of index j-1 and bumps the
    same-index semi-arcs outside it:
    (g - g|xs[j-1]->xs[j-1]*xs[j], xs[j]->1) / (1 - xs[j]) / xs[1..j-1].
    Entry 0 is never divided; the callers divide by it or keep it.
    """
    total = g - substitute(g, {xs[-1]: 0})
    for x in xs[1:]:
        total = divide_by_var(total, x)
    for j in range(first, len(xs)):
        collapsed = substitute(g, {xs[j - 1]: (xs[j - 1], xs[j]), xs[j]: 1})
        part = divide_by_one_minus(g - collapsed, xs[j])
        for x in xs[1:j]:
            part = divide_by_var(part, x)
        total = total + part
    return total


def solve_partition_equation(k, n_max):
    """Generating function Q for k-nonnesting open partition diagrams.

    Variables v0..v(k-2) mark the label entries s_0..s_{k-2}; the constant
    term in the catalytic variables counts k-nonnesting set partitions.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    variables = ("z",) + tuple(f"v{i}" for i in range(k - 1))
    vs = variables[1:]

    def phi(g):
        # every closing lowers s_0; the common factor (1 + v0) pairs each
        # closing with the semi-transitory that reopens a fresh semi-arc
        total = g + divide_by_var(_close(g, vs), vs[0])
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
        # semi-opener, then the closings other than index class j = 1, with
        # the (1 + v0) pairing
        part = divide_by_var(_close(g, vs, first=2), vs[0])
        total = g.shift(vs[0]) + part + part.shift(vs[0])
        if m >= 2:
            # index class j = 1, merged with the fixed point: a fixed point
            # lifts every index-0 semi-arc to index 1
            collapsed = substitute(g, {vs[0]: (vs[0], vs[1]), vs[1]: 1})
            numer = (g + g.shift(vs[0])) - (collapsed + collapsed.shift(vs[0]).shift(vs[1]))
            part = divide_by_one_minus(divide_by_var(numer, vs[0]), vs[1])
            total = total + part
        else:
            # k = 2: a fixed point is only allowed on the empty label
            total = total + substitute(g, {vs[0]: 0})
        return total

    return _iterate(variables, n_max, phi)


def solve_baxter_equation(n_max):
    """The two-variable series B(u, v; z) of enhanced-3-nonnesting open
    partition diagrams, written with the u = v0, v = v1 naming."""
    f = solve_enhanced_equation(3, n_max)
    return TruncatedSeries(("z", "u", "v"), n_max, f.terms)


def solve_permutation_equation(k, n_max):
    """Generating function F for k-nonnesting open permutation diagrams.

    u marks h, the number of semi-arcs; v1..v(k-2) mark the upper label
    entries r and w1..w(k-2) the lower ones s (for k = 3 they are named v
    and w).  The constant term counts k-nonnesting permutations.  Phi sums
    the vertex types: semi-opener, fixed point (which sets r_1 to h), upper
    and lower semi-transitory (one closing on that side) and closer (one
    closing on each side, and h -> h-1).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    m = k - 2
    if m == 1:
        ups, lows = ("v",), ("w",)
    else:
        ups = tuple(f"v{i}" for i in range(1, m + 1))
        lows = tuple(f"w{i}" for i in range(1, m + 1))
    variables = ("z", "u") + ups + lows
    upper = ("u",) + ups
    lower = ("u",) + lows
    # a fixed point sets r_1 to h; at k = 2 it is only allowed when h = 0
    fixed = {"u": ("u", ups[0]), ups[0]: 1} if m else {"u": 0}

    def phi(g):
        low = _close(g, lower)
        closer = divide_by_var(_close(low, upper), "u")
        return g.shift("u") + substitute(g, fixed) + _close(g, upper) + low + closer

    return _iterate(variables, n_max, phi)


# family -> (solver, whether it takes k); the names are the CLI's
_SOLVERS = {
    "partitions": (solve_partition_equation, True),
    "partitions-enhanced": (solve_enhanced_equation, True),
    "permutations": (solve_permutation_equation, True),
    "baxter": (solve_baxter_equation, False),
}
SERIES_FAMILIES = tuple(_SOLVERS)


def solve_equation(family, n_max, k=None):
    """Solve the functional equation of `family` (one of SERIES_FAMILIES)
    to z-order n_max; k is the forbidden nesting size, required by every
    family but baxter, which rejects it."""
    if family not in _SOLVERS:
        raise ValueError(f"unknown series family {family!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    solver, takes_k = _SOLVERS[family]
    if not takes_k:
        if k is not None:
            raise ValueError(f"k is not accepted for series family {family}")
        return solver(n_max)
    if k is None:
        raise ValueError(f"k is required for series family {family}")
    return solver(k, n_max)


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
