"""Definition-level brute force over set partitions and permutations.

Everything here works straight from the definitions: every object of size
n is visited and the maximum nesting of its arc diagram measured.  It is
the ground truth that the generating-tree and series counts are checked
against, so it shares no succession-rule code with them.

`nesting_histogram` visits the objects in one depth-first walk per family
that places one element at a time, and each placement adds at most one
arc.  The arcs arrive in an order in which every nesting chain is a
strictly decreasing run of one endpoint, so the walk keeps the
patience-sort tails of the longest chain (`max_nesting` measures a whole
diagram by the same kind of sweep), updates them with one `bisect_left`
per arc and undoes the update when it backtracks.  The work done for a
prefix is shared by every object that extends it.  The last element gets
no call of its own: the last arc can only lengthen the chain by one, which
one comparison with the last tail decides, so each object is counted
where its last element is chosen, with no tail update to undo.

The definitional list path that the walks replaced, and are tested
against, lives in `tests/reference.py`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial
from math import factorial

from .closedform import bell
# max_nesting is the per-diagram measure the walk reproduces; it stays bound
# here as the name bench/tracer.py wraps to count calls from this module
from .diagrams import max_nesting  # noqa: F401
from .errors import ResourceLimitError

__all__ = ["nesting_histogram", "oracle_count"]

# enumeration guard: objects beyond this many are refused
ENUMERATION_LIMIT = 10**7


def _partition_walk(n, enhanced):
    """Maximum-nesting counts over the set partitions of {1..n}.

    Elements are placed in order, each joining an earlier block or opening
    a new one, as in the restricted growth strings.  Joining a block whose
    last element is q adds the arc (q, p), so arcs arrive by increasing
    right end, no two arcs share an endpoint, and a nesting chain is a
    strictly decreasing run of left ends: the tails hold negated left ends.

    In the enhanced variant a new block decides at once whether it stays a
    singleton, which adds the degenerate arc (p, p), or is promised a
    second element.  Every earlier arc ends before p, so none fits inside
    (p, p): it can only start a chain, as the innermost arc.  A branch with
    more open promises than elements left is cut, so every leaf is a
    partition.  The choices for the last element n are counted in the loop
    that makes them.
    """
    counts = [0] * (n + 2)
    last = []  # last element of each block that may still grow
    promise = []  # its only element if it was promised a second one, else 0
    # tails[:depth] are the patience-sort tails; the slots past depth are
    # scratch, restored on the way back like the rest
    tails = [0] * (n + 1)

    def place(p, depth, promised):
        if p == n:
            # the last element: each choice is counted where it is made.
            # Joining the block that ends at q adds the arc (q, n), which
            # extends the chain iff q is below the left end that the last
            # tail holds (any q does when there is no chain yet)
            top = -tails[depth - 1] if depth else n
            if promised:
                # only the block still owed its second element may take n
                for q, r in zip(last, promise):
                    if q == r:
                        counts[depth + (q < top)] += 1
            else:
                for q in last:
                    counts[depth + (q < top)] += 1
                # a new block adds no arc, and a singleton's (n, n) can
                # only start a chain
                counts[depth + (enhanced and not depth)] += 1
            return
        left_after = n - p
        for b, q in enumerate(last):
            fulfils = q == promise[b]
            if promised - fulfils > left_after:
                continue
            pos = bisect_left(tails, -q, 0, depth)
            old = tails[pos]
            tails[pos] = -q
            last[b] = p
            place(p + 1, depth + (pos == depth), promised - fulfils)
            last[b] = q
            tails[pos] = old
        if enhanced and promised <= left_after:
            # a new block that stays a singleton
            pos = bisect_left(tails, -p, 0, depth)
            old = tails[pos]
            tails[pos] = -p
            place(p + 1, depth + (pos == depth), promised)
            tails[pos] = old
        if promised < left_after or not enhanced:
            # a new block that may grow (must, in the enhanced variant)
            last.append(p)
            promise.append(p if enhanced else 0)
            place(p + 1, depth, promised + enhanced)
            promise.pop()
            last.pop()

    if n:
        place(1, 0, 0)
    else:
        counts[0] = 1
    return counts


def _permutation_walk(n):
    """Maximum-nesting counts over the permutations of {1..n}.

    sigma(1), sigma(2), ... are placed in order, each value taken from a
    free list kept by swaps.  Placing v = sigma(i) adds one arc:

    - v >= i: the upper arc (i, v).  Upper arcs arrive by increasing left
      end, so a chain is a strictly decreasing run of right ends; the tails
      hold -v.  Every later upper arc starts after i, so none fits inside
      a fixed point (i, i): it can only end a chain, as the innermost
      (degenerate) arc.
    - v < i: the lower arc (v, i).  Lower arcs arrive by increasing right
      end, so a chain is a strictly decreasing run of left ends; the tails
      hold -v.

    A permutation's nesting is the larger of the two chains.  At i = n one
    value is left; it is placed and the permutation counted in one step.
    """
    counts = [0] * (n + 2)
    free = list(range(1, n + 1))
    upper = [0] * (n + 1)
    lower = [0] * (n + 1)

    def place(i, up, low):
        if i == n:
            # one value is left: place it and count the permutation
            v = free[i - 1]
            if v == n:
                # the fixed point (n, n) can only start an upper chain
                counts[max(up + (not up), low)] += 1
            else:
                counts[max(up, low + (not low or lower[low - 1] < -v))] += 1
            return
        for j in range(i - 1, n):
            v = free[j]
            free[j] = free[i - 1]
            free[i - 1] = v
            if v >= i:
                pos = bisect_left(upper, -v, 0, up)
                old = upper[pos]
                upper[pos] = -v
                place(i + 1, up + (pos == up), low)
                upper[pos] = old
            else:
                pos = bisect_left(lower, -v, 0, low)
                old = lower[pos]
                lower[pos] = -v
                place(i + 1, up, low + (pos == low))
                lower[pos] = old
            free[i - 1] = free[j]
            free[j] = v

    if n:
        place(1, 0, 0)
    else:
        counts[0] = 1
    return counts


@lru_cache(maxsize=None)
def nesting_histogram(family, n):
    """Entry m counts the size-n objects whose maximum nesting is m, from
    one walk over all of them.

    family is "partitions", "partitions-enhanced" or "permutations"; a
    permutation's nesting is the larger of its upper (enhanced) and lower
    ones.  Raises ResourceLimitError, before any walking, when the
    enumeration would exceed the guard.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if family in ("partitions", "partitions-enhanced"):
        size, noun = bell(n), "partitions"
        walk = partial(_partition_walk, n, family == "partitions-enhanced")
    elif family == "permutations":
        size, noun = factorial(n), "permutations"
        walk = partial(_permutation_walk, n)
    else:
        raise ValueError(f"unknown family {family!r}")
    if size > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"refusing to enumerate {size} {noun}", reached=size)
    counts = walk()
    while not counts[-1]:
        counts.pop()
    return tuple(counts)


def oracle_count(family, k, n):
    """Count size-n objects with no (enhanced) k-nesting, by brute force:
    the entries of `nesting_histogram(family, n)` below k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(nesting_histogram(family, n)[:k])

