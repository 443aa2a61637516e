"""Truncated multivariate power series and functional-equation solvers.

Series have exact integer coefficients and are truncated past a fixed
z-order.  The variable z marks size; the remaining catalytic variables mark
label entries.  Only z is truncated: catalytic exponents stay bounded on
their own (each z-order is one application of Phi, which raises them by a
bounded amount), and truncating them would corrupt the zero-remainder checks in the exact divisions below.

One drop of catalytic terms is safe, and `solve_equation(..., full=False)`
makes it when only the counting sequence is wanted: after z-order n it drops
every term with more semi-arcs (the exponent of v0, or of u for
permutations) than the n_max - n z-orders left, because each vertex closes
at most one semi-arc, so such a term never reaches the constant term.  The
drop keeps the division checks valid because Phi is linear and keeps the
z-order: each division in Phi(g) is exact on every monomial of g by itself,
so it stays exact on any subset of g's monomials.  Every term that is kept
has its full coefficient, since its parents had at most one semi-arc more.

`solve_equation` solves the equation of one of four families:
`partitions` (Q), `partitions-enhanced` (P) and `permutations` (F) for any
forbidden nesting size k >= 2, and `baxter` (P at k = 3, as B(u, v)).

Each functional equation has the shape  G = 1 + z * Phi(G)  where Phi is
built from two substitution shapes (set a variable to 0, or fold one into
another: x -> x*y, y -> 1), shifts in catalytic variables and exact
divisions by a variable or by (1 - variable).  Two operators are shared:
`_close`, the closings of one semi-arc, and `_fix`, the enhanced fixed
point.  One Phi
serves both partition families, Q and P differing only in the fixed point
(the label unchanged, or `_fix`); F applies `_close` once per side and `_fix`
to the upper side.  None of these touches z, so Phi is linear
and keeps the z-order: [z^n]G = Phi([z^(n-1)]G).  The solver therefore
builds G one z-order at a time from [z^0]G = 1, and checks at runtime that
Phi kept every term at the z-order it was given.  Every division is checked
for a zero remainder as well; a nonzero remainder raises DivisibilityError.

Phi's intermediate series are clean by construction, so the arithmetic
builds them without re-validation (`TruncatedSeries._of`); sums and
differences drop a coefficient that cancels as they go.  `_close` and `_fix`
apply their two substitution shapes as exponent maps (`_zero` keeps the
terms free of a variable, `_fold` copies one exponent over another and sums
the terms that merge) in place of the general `substitute`, which the tests
use as their reference.  Every division check and the z-order check are
kept.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter

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
    `variables`, no exponent negative) to nonzero coefficients.  Instances
    are treated as immutable.
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
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {tuple(expo)}")
                if expo[0] <= self.cap:
                    clean[tuple(expo)] = coeff
        self.terms = clean

    @classmethod
    def one(cls, variables, cap):
        return cls(variables, cap, {(0,) * len(variables): 1})

    @classmethod
    def _of(cls, variables, cap, terms):
        """A series from terms that are clean by construction: tuple keys
        of the arity of `variables`, no negative exponent, z-exponents at
        most `cap`, no zero coefficient.  Nothing is checked; the arithmetic
        below builds its results with it, and `__init__` keeps the checks
        for outside input."""
        f = object.__new__(cls)
        f.variables = variables
        f.cap = cap
        f.terms = terms
        return f

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
            coeff += terms.get(expo, 0)
            if coeff:
                terms[expo] = coeff
            else:
                del terms[expo]
        return TruncatedSeries._of(self.variables, self.cap, terms)

    def __sub__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            coeff = terms.get(expo, 0) - coeff
            if coeff:
                terms[expo] = coeff
            else:
                del terms[expo]
        return TruncatedSeries._of(self.variables, self.cap, terms)

    def _check_compatible(self, other):
        if self.variables != other.variables or self.cap != other.cap:
            raise ValueError("incompatible series")

    def shift(self, var):
        """Multiply by var (truncating in z if var is z)."""
        i = self._index(var)
        terms = {}
        for expo, coeff in self.terms.items():
            e = expo[i] + 1
            if i == 0 and e > self.cap:
                continue
            terms[expo[:i] + (e,) + expo[i + 1 :]] = coeff
        return TruncatedSeries._of(self.variables, self.cap, terms)

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
    collapse (u, v) -> (u*v, 1).  A name that is not a variable of f, on
    either side, raises ValueError.
    """
    for var in assignment:
        f._index(var)
    targets = []
    for var in f.variables:
        spec = assignment.get(var, (var,))
        if spec == 0 or spec == 1:
            targets.append(spec)
        else:
            if not isinstance(spec, tuple):
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


def _zero(f, var):
    """substitute(f, {var: 0}) for a catalytic var: the terms free of var."""
    i = f._index(var)
    return TruncatedSeries._of(
        f.variables, f.cap, {expo: c for expo, c in f.terms.items() if not expo[i]}
    )


def _fold(f, x, y):
    """substitute(f, {x: (x, y), y: 1}) for catalytic x and y: exponent y
    is set to exponent x.  Terms that then coincide are summed, and dropped
    if they cancel."""
    i, j = f._index(x), f._index(y)
    terms = {}
    for expo, coeff in f.terms.items():
        key = expo[:j] + (expo[i],) + expo[j + 1 :]
        coeff += terms.get(key, 0)
        if coeff:
            terms[key] = coeff
        else:
            del terms[key]
    return TruncatedSeries._of(f.variables, f.cap, terms)


def divide_by_var(f, var):
    """Exact division by a variable; every term must contain it."""
    i = f._index(var)
    terms = {}
    for expo, coeff in f.terms.items():
        if expo[i] == 0:
            raise DivisibilityError(f"term {expo} not divisible by {var}")
        terms[expo[:i] + (expo[i] - 1,) + expo[i + 1 :]] = coeff
    return TruncatedSeries._of(f.variables, f.cap, terms)


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
    return TruncatedSeries._of(f.variables, f.cap, terms)


def _iterate(variables, n_max, phi, *, semi_arc=None, stats=None):
    """Solve G = 1 + z * phi(G) to z-order n_max, one z-order at a time.

    phi must be linear and keep the z-order: applied to the z^(n-1) slice
    of G it returns terms of z-order n-1 only, and shifting them by z gives
    the z^n slice.  A term at any other z-order raises ValueError.

    With semi_arc (a variable name), the z^n slice keeps only the terms whose
    exponent in it is at most n_max - n (see the module docstring).  stats,
    if given, is called after each z-order n with a dict: order, terms_built
    (phi's image), terms_kept and phi_s (seconds in phi).
    """
    index = None if semi_arc is None else variables.index(semi_arc)
    layer = TruncatedSeries.one(variables, n_max)
    terms = dict(layer.terms)
    for n in range(1, n_max + 1):
        if stats is not None:
            started = perf_counter()
        image = phi(layer)
        if stats is not None:
            phi_s = perf_counter() - started
        for expo in image.terms:
            if expo[0] != n - 1:
                raise ValueError(
                    f"phi moved a term of z-order {n - 1} to z-order {expo[0]}"
                )
        layer = image.shift("z")
        if index is not None:
            horizon = n_max - n
            layer = TruncatedSeries._of(variables, n_max, {
                expo: coeff for expo, coeff in layer.terms.items()
                if expo[index] <= horizon
            })
        terms.update(layer.terms)
        if stats is not None:
            stats({"order": n, "terms_built": len(image.terms),
                   "terms_kept": len(layer.terms), "phi_s": phi_s})
    return TruncatedSeries._of(variables, n_max, terms)


def _close(g, xs):
    """The closing operator over catalytic variables xs: the sum of the
    ways to close one semi-arc of a label marked by xs.

    The "top" piece closes the outermost semi-arc of a future nesting, which
    lowers every entry: (g - g|xs[-1]=0) / xs[1..].  The ranged piece j
    (for 1 <= j < len(xs)) closes a semi-arc of index j-1 and bumps the
    same-index semi-arcs outside it:
    (g - g|xs[j-1]->xs[j-1]*xs[j], xs[j]->1) / (1 - xs[j]) / xs[1..j-1].
    Entry 0 is never divided; the callers divide by it or keep it.
    """
    total = g - _zero(g, xs[-1])
    for x in xs[1:]:
        total = divide_by_var(total, x)
    for j in range(1, len(xs)):
        part = divide_by_one_minus(g - _fold(g, xs[j - 1], xs[j]), xs[j])
        for x in xs[1:j]:
            part = divide_by_var(part, x)
        total = total + part
    return total


def _fix(g, xs):
    """The enhanced fixed point over catalytic variables xs: entry 1 is set
    to entry 0, as every index-0 semi-arc joins a future enhanced 2-nesting.
    With entry 0 alone it is allowed only when that entry is 0."""
    if len(xs) == 1:
        return _zero(g, xs[0])
    return _fold(g, xs[0], xs[1])


def solve_partition_equation(k, n_max, enhanced=False, **options):
    """Generating function Q for k-nonnesting open partition diagrams, or
    with `enhanced` P, for those that also avoid future enhanced k-nestings
    (for k=3, P is the Baxter series).

    Variables v0..v(k-2) mark the label entries s_0..s_{k-2}; the constant
    term in the catalytic variables counts the diagrams that close.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    variables = ("z",) + tuple(f"v{i}" for i in range(k - 1))
    vs = variables[1:]

    def phi(g):
        # every closing lowers s_0; the semi-opener and the semi-transitories
        # (a closing that reopens a fresh semi-arc) raise it again
        closer = divide_by_var(_close(g, vs), vs[0])
        fixed = _fix(g, vs) if enhanced else g
        return fixed + closer + (g + closer).shift(vs[0])

    return _iterate(variables, n_max, phi, **options)


def solve_baxter_equation(n_max, **options):
    """The two-variable series B(u, v; z) of enhanced-3-nonnesting open
    partition diagrams, written with the u = v0, v = v1 naming."""
    f = solve_partition_equation(3, n_max, enhanced=True, **options)
    return TruncatedSeries._of(("z", "u", "v"), n_max, f.terms)


def solve_permutation_equation(k, n_max, **options):
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

    def phi(g):
        low = _close(g, lower)
        closer = divide_by_var(_close(low, upper), "u")
        return g.shift("u") + _fix(g, upper) + _close(g, upper) + low + closer

    return _iterate(variables, n_max, phi, **options)


# family -> (solver, whether it takes k, the variable whose exponent counts
# semi-arcs); the names are the CLI's.  Baxter's counts read every term, so
# it names no variable and is never pruned.
_SOLVERS = {
    "partitions": (solve_partition_equation, True, "v0"),
    "partitions-enhanced": (
        partial(solve_partition_equation, enhanced=True), True, "v0"),
    "permutations": (solve_permutation_equation, True, "u"),
    "baxter": (solve_baxter_equation, False, None),
}
SERIES_FAMILIES = tuple(_SOLVERS)


def solve_equation(family, n_max, k=None, *, full=True, stats=None):
    """Solve the functional equation of `family` (one of SERIES_FAMILIES)
    to z-order n_max; k is the forbidden nesting size, required by every
    family but baxter, which rejects it.

    full=False keeps only the terms that can still reach the constant term
    by z-order n_max (the module docstring says why that is exact), which is
    all `constant_term_sequence` reads; baxter keeps every term either way.
    stats is `_iterate`'s per-z-order callback.  The solvers pass their
    keyword options on to `_iterate` and get only those that are set, so
    the default solve calls `_iterate(variables, n_max, phi)`."""
    if family not in _SOLVERS:
        raise ValueError(f"unknown series family {family!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    solver, takes_k, semi_arc = _SOLVERS[family]
    options = {} if stats is None else {"stats": stats}
    if not full and semi_arc is not None:
        options["semi_arc"] = semi_arc
    if not takes_k:
        if k is not None:
            raise ValueError(f"k is not accepted for series family {family}")
        return solver(n_max, **options)
    if k is None:
        raise ValueError(f"k is required for series family {family}")
    return solver(k, n_max, **options)


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
