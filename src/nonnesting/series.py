"""Truncated multivariate power series and functional-equation solvers.

Series have exact integer coefficients and are truncated past a fixed
z-order.  The variable z marks size; the remaining catalytic variables mark
label entries.  Only z is truncated: catalytic exponents stay bounded on
their own (each z-order is one application of Phi, which raises them by a
bounded amount), and truncating them would corrupt the zero-remainder checks in the exact divisions below.

One drop of catalytic terms is safe, and `solve_sequence` and
`solve_equation(..., full=False)` make it when only the counting sequence
is wanted: after z-order n they drop every term with more semi-arcs (the
exponent of v0, or of u for permutations) than the n_max - n z-orders
left, because each vertex closes at most one semi-arc, so such a term
never reaches the constant term.  The
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

Each monomial is one int, its code: every exponent sits in a bit field of
the series' `width`, z in the lowest field (see `TruncatedSeries`).  The
arithmetic works on the codes: a shift or a division by a variable adds or
subtracts the unit of that variable's field, and a division by (1 - var)
sums along the lines of codes that differ only in var's field.  Exponent
tuples are decoded only where they are read (`terms`, `coefficient`,
`dump_lines`); the solver and the sequence readers never decode.

Phi's intermediate series are clean by construction, so the arithmetic
builds them without re-validation (`TruncatedSeries._of`); sums and
differences drop a coefficient that cancels as they go.  `_close` and `_fix`
apply their two substitution shapes as exponent maps (`_zero` keeps the
terms free of a variable, `_fold` copies one exponent field over another
and sums the terms that merge) in place of the general `substitute`, which
the tests use as their reference.  A ranged closing never builds its
numerator g - fold(g): `_fold_quotient` divides it line by line.  Every
division check and the z-order check are kept.

Each z-order of G is built into one dict.  `_close` starts from the
quotient of its first ranged piece and adds the other pieces into it, with
every term's divisions checked before they are added (`_add_quotient`).  The partition
Phi is fixed + closer + (g + closer) v0 with closer = C / v0 for
C = _close(g, vs); as (g + closer) v0 = g v0 + C, it sums fixed, C / v0, C
and g v0 into the fixed point's dict.  The permutation Phi sums its five
parts the same way, checking that u divides each term of its closer.  A shift that
sets the top bit of a field re-codes the sum one bit wider, as
`TruncatedSeries.shift` does (`_shifted`).  `_close` and `_fix` still
return series, and Phi calls them by their module names, so a test can
swap in their plain forms.

`_layers` makes the z-order slices of G one at a time and holds only the
one it last yielded: one pass over Phi's image checks the z-order, shifts
by z and drops past the horizon.  It has two readers.  `_iterate` sums the
slices into the series that `solve_equation` returns, so `--full` and the
tests see every term.  `solve_sequence` reads each slice's counting term as
the slice is made (its catalytic-constant coefficient, or for baxter the
sum of its coefficients) and keeps nothing else, so a plain `series` or a
`verify` check holds one z-order where the sum holds them all.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_
from time import perf_counter

from .errors import DivisibilityError

__all__ = [
    "TruncatedSeries",
    "substitute",
    "SERIES_FAMILIES",
    "solve_equation",
    "solve_sequence",
    "constant_term_sequence",
    "ones_sequence",
]


class TruncatedSeries:
    """Sparse multivariate polynomial over the integers, truncated in z.

    The first variable is the truncation variable; terms whose exponent in
    it exceeds `cap` are dropped.  `codes` maps one int per monomial to its
    nonzero coefficient.  A code holds the exponents in fixed-width bit
    fields, `width` bits each, variable i in bits i*width and up, so z is
    the lowest field.  The width is one bit more than the bit length of the
    largest of the cap and every exponent, so the top bit of every field is
    clear: one is added to an exponent without carrying into the next
    field.  Only a catalytic shift (`shift`, or the one in a Phi's sum) can
    set a top bit, and it then re-codes the series one bit wider
    (`_shifted`); the solvers never do, since no exponent of theirs exceeds
    the z-order.  Exponent tuples (aligned with `variables`)
    are decoded only where they are read: `terms`, `coefficient` and
    `dump_lines`.  Instances are treated as immutable.
    """

    __slots__ = ("variables", "cap", "width", "codes")

    def __init__(self, variables, cap, terms=None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"variables must be distinct, got {self.variables!r}")
        if type(cap) is not int:  # a bool or a float as well
            raise ValueError(f"cap must be an int, got {cap!r}")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.cap = cap
        clean = {}
        top = cap
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != len(self.variables):
                    raise ValueError("exponent arity mismatch")
                for e in expo:
                    if type(e) is not int:
                        raise ValueError(
                            f"exponent must be an int, got {e!r} in {tuple(expo)}")
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {tuple(expo)}")
                if type(coeff) is not int:  # a bool or a float as well
                    raise ValueError(
                        f"coefficient must be an int, got {coeff!r} at {tuple(expo)}")
                if coeff and expo[0] <= self.cap:
                    clean[tuple(expo)] = coeff
                    top = max(top, *expo)
        self.width = top.bit_length() + 1
        self.codes = {_encode(expo, self.width): c for expo, c in clean.items()}

    @classmethod
    def one(cls, variables, cap):
        return cls(variables, cap, {(0,) * len(variables): 1})

    @classmethod
    def _of(cls, variables, cap, width, codes):
        """A series from codes that are clean by construction: every field
        of `width` bits with its top bit clear, z at most `cap`, no zero
        coefficient.  Nothing is checked; the arithmetic below builds its
        results with it, and `__init__` keeps the checks for outside
        input."""
        f = object.__new__(cls)
        f.variables = variables
        f.cap = cap
        f.width = width
        f.codes = codes
        return f

    @property
    def terms(self):
        """The terms as a dict from exponent tuples to coefficients,
        decoded from the codes on each read."""
        width = self.width
        mask = (1 << width) - 1
        offsets = range(0, len(self.variables) * width, width)
        return {
            tuple([code >> s & mask for s in offsets]): coeff
            for code, coeff in self.codes.items()
        }

    def _index(self, var):
        try:
            return self.variables.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var!r}") from None

    def _recoded(self, width):
        """The codes at a width no smaller than this series' own."""
        if width == self.width:
            return self.codes
        return {_encode(expo, width): c for expo, c in self.terms.items()}

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.variables == other.variables
            and self.cap == other.cap
            and (self.codes == other.codes if self.width == other.width
                 else self.terms == other.terms)
        )

    def _aligned(self, other):
        """The common width of self and other, and both their codes at it."""
        self._check_compatible(other)
        width = max(self.width, other.width)
        return width, self._recoded(width), other._recoded(width)

    def __add__(self, other):
        width, codes, other_codes = self._aligned(other)
        codes = dict(codes)
        _add_into(codes, other_codes)
        return TruncatedSeries._of(self.variables, self.cap, width, codes)

    def __sub__(self, other):
        width, codes, other_codes = self._aligned(other)
        codes = dict(codes)
        for code, coeff in other_codes.items():
            coeff = codes.get(code, 0) - coeff
            if coeff:
                codes[code] = coeff
            else:
                del codes[code]
        return TruncatedSeries._of(self.variables, self.cap, width, codes)

    def _check_compatible(self, other):
        if self.variables != other.variables or self.cap != other.cap:
            raise ValueError("incompatible series")

    def shift(self, var):
        """Multiply by var (truncating in z if var is z)."""
        i = self._index(var)
        width = self.width
        if i == 0:
            mask, cap = (1 << width) - 1, self.cap
            return TruncatedSeries._of(self.variables, cap, width, {
                code + 1: coeff for code, coeff in self.codes.items()
                if code & mask < cap
            })
        unit = 1 << i * width
        return _shifted(self.variables, self.cap, width, {
            code + unit: coeff for code, coeff in self.codes.items()
        }, unit)

    def coefficient(self, expo):
        expo = tuple(expo)
        for e in expo:
            if type(e) is not int:  # a bool or a float as well
                raise ValueError(f"exponent must be an int, got {e!r} in {expo}")
        mask = (1 << self.width) - 1
        if len(expo) != len(self.variables) or any(
                not 0 <= e <= mask for e in expo):
            return 0  # no term has an exponent that does not fit its field
        return self.codes.get(_encode(expo, self.width), 0)

    def dump_lines(self):
        """Sorted "e0 e1 ...: coefficient" lines, for golden-file output."""
        return [
            " ".join(map(str, expo)) + ": " + str(coeff)
            for expo, coeff in sorted(self.terms.items())
        ]


def _encode(expo, width):
    """The code of an exponent tuple: exponent i in bits i*width and up."""
    code = 0
    for e in reversed(expo):
        code = code << width | e
    return code


def _decode(code, width, arity):
    """The exponent tuple of a code."""
    mask = (1 << width) - 1
    return tuple([code >> s & mask for s in range(0, arity * width, width)])


def _shifted(variables, cap, width, codes, unit):
    """The series of `codes`, the image of a catalytic shift by the variable
    whose field has the unit `unit`.  If an exponent reached the top bit of
    that field, the codes are re-coded one bit wider, which keeps every top
    bit clear."""
    if reduce(or_, codes, 0) & unit << width - 1:
        arity = len(variables)
        codes = {_encode(_decode(code, width, arity), width + 1): coeff
                 for code, coeff in codes.items()}
        width += 1
    return TruncatedSeries._of(variables, cap, width, codes)


def _add_into(codes, terms, delta=0):
    """Add `terms` into `codes`, each at its code plus delta; a coefficient
    that cancels is dropped."""
    get = codes.get
    for code, coeff in terms.items():
        code += delta
        coeff += get(code, 0)
        if coeff:
            codes[code] = coeff
        else:
            del codes[code]


def _add_quotient(codes, terms, variables, width, xs):
    """Add `terms`, codes of `width` bits a field over `variables`, divided
    exactly by every variable of xs, into `codes`.

    A term is divisible when none of xs's fields is 0.  Subtracting the
    units of those fields borrows from a field that is 0, and the lowest
    such field then reads all ones, its top bit set; every top bit of a
    term is clear, so one mask test checks every division of a term."""
    units = sum(1 << variables.index(x) * width for x in xs)
    tops = units << width - 1
    for code in terms:
        if code - units & tops:
            expo = _decode(code, width, len(variables))
            var = next(x for x in xs if not expo[variables.index(x)])
            raise DivisibilityError(f"term {expo} not divisible by {var}")
    _add_into(codes, terms, -units)


def _field(f, var):
    """The index of var, the bit offset of its field and the field mask."""
    i = f._index(var)
    offset = i * f.width
    return i, offset, ((1 << f.width) - 1) << offset


def substitute(f, assignment):
    """Monomial substitution: each variable maps to 0, 1, or variables.

    `assignment` maps a variable name to 0, to 1, or to a tuple of variable
    names whose product replaces it; unmentioned variables are kept.  The
    shapes needed by the functional equations are v -> 0, v -> 1 and the
    collapse (u, v) -> (u*v, 1).  A name that is not a variable of f, on
    either side, raises ValueError, and so does any other target: 0 and 1
    are the ints, not a bool or a float that equals one.
    """
    for var in assignment:
        f._index(var)
    targets = []
    for var in f.variables:
        spec = assignment.get(var, (var,))
        if type(spec) is int and spec in (0, 1):
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
    field = _field(f, var)[2]
    return TruncatedSeries._of(f.variables, f.cap, f.width, {
        code: c for code, c in f.codes.items() if not code & field
    })


def _fold(f, x, y):
    """substitute(f, {x: (x, y), y: 1}) for catalytic x and y: exponent y
    is set to exponent x.  Terms that then coincide are summed, and dropped
    if they cancel."""
    _, sx, fx = _field(f, x)
    _, sy, fy = _field(f, y)
    keep = ~fy
    codes = {}
    for code, coeff in f.codes.items():
        key = code & keep | (code & fx) >> sx << sy
        coeff += codes.get(key, 0)
        if coeff:
            codes[key] = coeff
        else:
            del codes[key]
    return TruncatedSeries._of(f.variables, f.cap, f.width, codes)


def divide_by_one_minus(f, var):
    """Exact division by (1 - var) via synthetic division.

    The quotient coefficient at var**i is the cumulative sum of the
    numerator coefficients up to i; the remainder is the value at var = 1
    and must vanish.
    """
    return _sweep(f, var, _lines(f, var))


def _fold_quotient(f, x, y):
    """divide_by_one_minus(f - _fold(f, x, y), y), without building the
    numerator: x's exponent is fixed along a line in y, so the fold moves
    the whole line to one exponent of y, where its sum is subtracted."""
    lines = _lines(f, y)
    _, offset, field = _field(f, x)
    for rest, line in lines.items():
        e = (rest & field) >> offset
        line[e] = line.get(e, 0) - sum(line.values())
    return _sweep(f, y, lines)


def _lines(f, var):
    """f's terms in lines along var: the code with var's field cleared maps
    to {exponent of var: coefficient}."""
    _, offset, field = _field(f, var)
    keep = ~field
    lines = {}
    for code, coeff in f.codes.items():
        rest = code & keep
        line = lines.get(rest)
        if line is None:
            lines[rest] = line = {}
        line[(code & field) >> offset] = coeff
    return lines


def _sweep(f, var, lines):
    """The quotient by (1 - var) of the lines of `_lines(f, var)`: one
    running sum per line, whose remainder must vanish."""
    i, offset, _ = _field(f, var)
    codes = {}
    for rest, coeffs in lines.items():
        top = max(coeffs)
        running = 0
        for e in range(top):
            running += coeffs.get(e, 0)
            if running:
                codes[rest | e << offset] = running
        if running + coeffs[top]:
            expo = _decode(rest, f.width, len(f.variables))
            raise DivisibilityError(
                f"nonzero remainder dividing by (1 - {var}) at "
                f"{expo[:i] + expo[i + 1:]}"
            )
    return TruncatedSeries._of(f.variables, f.cap, f.width, codes)


def _layers(variables, n_max, phi, *, semi_arc=None, stats=None):
    """The z-order slices of the solution of G = 1 + z * phi(G), from
    [z^0]G = 1 to [z^n_max]G, each made from the one before and yielded
    as it is made; only the slice last yielded is held.

    phi must be linear and keep the z-order: applied to the z^(n-1) slice
    of G it returns terms of z-order n-1 only, and shifting them by z gives
    the z^n slice.  A term at any other z-order raises ValueError.

    With semi_arc (a variable name), the z^n slice keeps only the terms whose
    exponent in it is at most n_max - n (see the module docstring).  stats,
    if given, is called after each z-order n with a dict: order, terms_built
    (phi's image), terms_kept and phi_s (seconds in phi).
    """
    layer = TruncatedSeries.one(variables, n_max)
    yield layer
    for n in range(1, n_max + 1):
        if stats is not None:
            started = perf_counter()
        image = phi(layer)
        if stats is not None:
            phi_s = perf_counter() - started
        # one pass checks the z-order, shifts by z (a term of z-order
        # n - 1 < n_max is never truncated) and drops past the horizon
        mask = (1 << image.width) - 1
        field = bound = 0
        if semi_arc is not None:
            _, offset, field = _field(image, semi_arc)
            bound = n_max - n << offset
        kept = {}
        for code, coeff in image.codes.items():
            if code & mask != n - 1:
                raise ValueError(
                    f"phi moved a term of z-order {n - 1} to z-order {code & mask}"
                )
            if code & field <= bound:
                kept[code + 1] = coeff
        layer = TruncatedSeries._of(variables, n_max, image.width, kept)
        if stats is not None:
            stats({"order": n, "terms_built": len(image.codes),
                   "terms_kept": len(kept), "phi_s": phi_s})
        del image  # not held while the reader has the slice
        yield layer


def _iterate(variables, n_max, phi, **options):
    """Solve G = 1 + z * phi(G) to z-order n_max: the sum of the `_layers`
    slices, with `_layers`'s options."""
    layers = _layers(variables, n_max, phi, **options)
    g = next(layers)
    width, codes = g.width, dict(g.codes)
    for layer in layers:
        if layer.width != width:  # a catalytic shift in phi widened it
            codes = TruncatedSeries._of(
                variables, n_max, width, codes)._recoded(layer.width)
            width = layer.width
        codes.update(layer.codes)
    return TruncatedSeries._of(variables, n_max, width, codes)


def _close(g, xs):
    """The closing operator over catalytic variables xs: the sum of the
    ways to close one semi-arc of a label marked by xs.

    The "top" piece closes the outermost semi-arc of a future nesting, which
    lowers every entry: (g - g|xs[-1]=0) / xs[1..].  The ranged piece j
    (for 1 <= j < len(xs)) closes a semi-arc of index j-1 and bumps the
    same-index semi-arcs outside it:
    (g - g|xs[j-1]->xs[j-1]*xs[j], xs[j]->1) / (1 - xs[j]) / xs[1..j-1].
    Entry 0 is never divided; the callers divide by it or keep it.

    The pieces are summed into one dict: the quotient of the first ranged
    piece needs no division and starts it, and the top piece (the terms of
    g with a nonzero exponent of xs[-1]) and the later ranged pieces are
    added into it, every term's divisions checked before they are added.
    """
    variables, width = g.variables, g.width
    last = _field(g, xs[-1])[2]
    top = {code: coeff for code, coeff in g.codes.items() if code & last}
    if len(xs) == 1:
        return TruncatedSeries._of(variables, g.cap, width, top)
    codes = _fold_quotient(g, xs[0], xs[1]).codes
    _add_quotient(codes, top, variables, width, xs[1:])
    for j in range(2, len(xs)):
        _add_quotient(codes, _fold_quotient(g, xs[j - 1], xs[j]).codes,
                      variables, width, xs[1:j])
    return TruncatedSeries._of(variables, g.cap, width, codes)


def _fix(g, xs):
    """The enhanced fixed point over catalytic variables xs: entry 1 is set
    to entry 0, as every index-0 semi-arc joins a future enhanced 2-nesting.
    With entry 0 alone it is allowed only when that entry is 0."""
    if len(xs) == 1:
        return _zero(g, xs[0])
    return _fold(g, xs[0], xs[1])


def _partition_equation(k, enhanced=False):
    """The variables and Phi of Q, the generating function of k-nonnesting
    open partition diagrams, or with `enhanced` of P, for those that also
    avoid future enhanced k-nestings (for k=3, P is the Baxter series).

    Variables v0..v(k-2) mark the label entries s_0..s_{k-2}; the constant
    term in the catalytic variables counts the diagrams that close.  Like
    every equation below, it reads its Phi from the module when it is
    called, so a test can swap in a plain form.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    variables = ("z",) + tuple(f"v{i}" for i in range(k - 1))
    return variables, partial(_partition_phi, variables[1:], enhanced)


def _partition_phi(vs, enhanced, g):
    """Phi of the partition equations over vs = v0..v(k-2).

    Every closing lowers s_0; the semi-opener and the semi-transitories (a
    closing that reopens a fresh semi-arc) raise it again:
    Phi(g) = fixed + closer + (g + closer) v0, where fixed is g (Q) or
    `_fix` (P), and closer = C / v0 for C = _close(g, vs).  As
    closer v0 = C, this is fixed + C / v0 + C + g v0, summed into one dict."""
    parts = (_fix(g, vs) if enhanced else g, _close(g, vs), g)
    width, (codes, closings, g_codes) = _common_width(parts)
    if codes is g.codes:
        codes = dict(codes)
    unit = 1 << width  # v0 is variable 1
    _add_quotient(codes, closings, g.variables, width, vs[:1])
    _add_into(codes, closings)
    _add_into(codes, g_codes, unit)
    return _shifted(g.variables, g.cap, width, codes, unit)


def _baxter_equation():
    """The variables and Phi of the two-variable series B(u, v; z) of
    enhanced-3-nonnesting open partition diagrams: P at k = 3, written
    with the u = v0, v = v1 naming."""
    return ("z", "u", "v"), partial(_partition_phi, ("u", "v"), True)


def _permutation_equation(k):
    """The variables and Phi of F, the generating function of k-nonnesting
    open permutation diagrams.

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
    return variables, partial(_permutation_phi, ("u",) + ups, ("u",) + lows)


def _permutation_phi(upper, lower, g):
    """Phi of the permutation equations, upper = (u, v..) and lower =
    (u, w..): g u + _fix(g, upper) + _close(g, upper) + low + closer, for
    low = _close(g, lower) and closer = _close(low, upper) / u, summed into
    one dict."""
    low = _close(g, lower)
    parts = (_fix(g, upper), _close(g, upper), low, _close(low, upper), g)
    width, (codes, closed, low_codes, closings, g_codes) = _common_width(parts)
    unit = 1 << width  # u is variable 1
    _add_into(codes, closed)
    _add_into(codes, low_codes)
    _add_quotient(codes, closings, g.variables, width, upper[:1])
    _add_into(codes, g_codes, unit)
    return _shifted(g.variables, g.cap, width, codes, unit)


def _common_width(parts):
    """The largest width of the series `parts`, and their codes at it."""
    width = max(f.width for f in parts)
    return width, [f._recoded(width) for f in parts]


# family -> (its equation, which gives the variables and Phi from k when
# the family takes one; whether it takes k; the variable whose exponent
# counts semi-arcs); the names are the CLI's.  Baxter's counts read every
# term, so it names no variable and is never pruned.
_EQUATIONS = {
    "partitions": (_partition_equation, True, "v0"),
    "partitions-enhanced": (
        partial(_partition_equation, enhanced=True), True, "v0"),
    "permutations": (_permutation_equation, True, "u"),
    "baxter": (_baxter_equation, False, None),
}
SERIES_FAMILIES = tuple(_EQUATIONS)


def _equation(family, n_max, k, stats, bounded=False):
    """The variables, Phi and semi-arc variable of `family`'s equation,
    after the checks that both entries make of their arguments.

    With `bounded`, a k past n_max + 2 is built as n_max + 2.  No diagram
    of size <= n_max has a nesting of more than (n_max + 1) / 2 arcs, a
    fixed point counting as a degenerate arc, so the exponent of every
    label variable past index n_max stays 0 to z-order n_max, and the
    counting terms and the terms built are those at k = n_max + 2."""
    if family not in _EQUATIONS:
        raise ValueError(f"unknown series family {family!r}")
    if type(n_max) is not int:  # a bool or a float as well
        raise ValueError(f"n_max must be an int, got {n_max!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if stats is not None and not callable(stats):
        raise ValueError(f"stats must be None or callable, got {stats!r}")
    equation, takes_k, semi_arc = _EQUATIONS[family]
    if not takes_k:
        if k is not None:
            raise ValueError(f"k is not accepted for series family {family}")
        return (*equation(), semi_arc)
    if k is None:
        raise ValueError(f"k is required for series family {family}")
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if bounded:
        k = min(k, n_max + 2)
    return (*equation(k), semi_arc)


def solve_equation(family, n_max, k=None, *, full=True, stats=None):
    """Solve the functional equation of `family` (one of SERIES_FAMILIES)
    to z-order n_max; k is the forbidden nesting size, required by every
    family but baxter, which rejects it.

    full=False keeps only the terms that can still reach the constant term
    by z-order n_max (the module docstring says why that is exact), which is
    all `constant_term_sequence` reads; baxter keeps every term either way.
    stats is `_layers`'s per-z-order callback.  `_iterate` gets only the
    options that are set, so the default solve calls
    `_iterate(variables, n_max, phi)`."""
    variables, phi, semi_arc = _equation(family, n_max, k, stats)
    options = {} if stats is None else {"stats": stats}
    if not full and semi_arc is not None:
        options["semi_arc"] = semi_arc
    return _iterate(variables, n_max, phi, **options)


def solve_sequence(family, n_max, k=None, *, stats=None):
    """The counting terms 0..n_max of `family`'s equation, holding one
    z-order at a time: `constant_term_sequence(solve_equation(family,
    n_max, k, full=False))`, and for baxter, whose counts read every term,
    `ones_sequence(solve_equation("baxter", n_max))`.  The arguments are
    checked as `solve_equation` checks them, and stats gets the same
    records.  The equation is built for k at most n_max + 2, which gives
    the same terms (see `_equation`), so a huge k costs no more."""
    variables, phi, semi_arc = _equation(family, n_max, k, stats, bounded=True)
    layers = _layers(variables, n_max, phi, semi_arc=semi_arc, stats=stats)
    if semi_arc is None:
        return [sum(layer.codes.values()) for layer in layers]
    # z is the lowest field, so the catalytic-constant term of z^n has code n
    return [layer.codes.get(n, 0) for n, layer in enumerate(layers)]


def constant_term_sequence(f):
    """z-coefficients of the catalytic-constant part, index 0..cap."""
    out = [0] * (f.cap + 1)
    catalytic = -1 << f.width  # every field but z's
    for code, coeff in f.codes.items():
        if not code & catalytic:
            out[code] = coeff
    return out


def ones_sequence(f):
    """z-coefficients after setting every catalytic variable to 1."""
    out = [0] * (f.cap + 1)
    mask = (1 << f.width) - 1
    for code, coeff in f.codes.items():
        out[code & mask] += coeff
    return out
