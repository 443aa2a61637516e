"""Correctness checks for the output of one CLI operation.

Expected values come from the argv alone: embedded `refdata` tables,
`closedform.baxter` for the Baxter coefficients, and, for the k=3
partition families past the 21 embedded terms, the exact P-recurrences
of A108304 and A108307 (Bousquet-Melou & Xin, "On partitions avoiding
3-crossings", 2006, with the crossing/nesting symmetry of Chen, Deng, Du,
Stanley & Yan, 2007).  The recurrences are evaluated here and share no
code with the package.
"""

import hashlib
import json
import re

from nonnesting import closedform, refdata

_RUNTIME = re.compile(r"\[\d+\.\d+s\]")


def stdout_digest(argv, out):
    """sha256 of stdout; `verify` runtimes are masked, as they vary by run."""
    if argv[0] == "verify":
        out = _RUNTIME.sub("[-s]", out)
    return hashlib.sha256(out.encode()).hexdigest()


def _recurrence_terms(step, n_max):
    """a(1..n_max) of a second-order P-recurrence with a(0) = a(1) = 1;
    step(n, a_n, a_n1) returns (numerator, denominator) of a(n+2)."""
    a = [1, 1]
    for n in range(n_max - 1):
        num, den = step(n, a[n], a[n + 1])
        if num % den:
            raise ArithmeticError(f"recurrence not integral at n={n + 2}")
        a.append(num // den)
    return a[1 : n_max + 1]


def _a108304(n, a0, a1):
    # 9n(n+3)a(n) - 2(5n^2+32n+42)a(n+1) + (n+6)(n+7)a(n+2) = 0
    return 2 * (5 * n * n + 32 * n + 42) * a1 - 9 * n * (n + 3) * a0, (n + 6) * (n + 7)


def _a108307(n, a0, a1):
    # 8(n+1)(n+3)a(n) + (7n^2+53n+88)a(n+1) - (n+7)(n+8)a(n+2) = 0
    return 8 * (n + 1) * (n + 3) * a0 + (7 * n * n + 53 * n + 88) * a1, (n + 7) * (n + 8)


_RECURRENCES = {("partitions", 3): _a108304, ("partitions-enhanced", 3): _a108307}


def reference_terms(family, k, n):
    """a(1..n) for a constrained family, from an independent source."""
    embedded = refdata.lookup(family, k).as_ints()
    step = _RECURRENCES.get((family, k))
    if step is None:
        if n > len(embedded):
            raise ValueError(f"no reference past n={len(embedded)} for {family} k={k}")
        return embedded[:n]
    terms = _recurrence_terms(step, max(n, len(embedded)))
    if terms[: len(embedded)] != embedded:
        raise ArithmeticError(f"recurrence disagrees with refdata for {family} k={k}")
    return terms[:n]


def _options(argv):
    opts = {}
    for i, word in enumerate(argv):
        if word.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            opts[word[2:]] = True if nxt is None or nxt.startswith("--") else nxt
    return opts


def check(argv, rc, out):
    """None if the output of `nonnesting <argv>` is right, else a reason."""
    if rc != 0:
        return f"exit code {rc}"
    opts = _options(argv)
    family = opts.get("family")
    k = int(opts["k"]) if "k" in opts else None
    n = int(opts["n"]) if "n" in opts else None
    command = argv[0]
    if command == "count" and opts.get("all-labels"):
        level = json.loads(out)
        if family == "permutations":
            root = [0, [0] * (k - 2), [0] * (k - 2)]
        else:
            root = [0] * (k - 1)
        got = [int(e["count"]) for e in level["labels"] if e["label"] == root]
        want = reference_terms(family, k, n)[-1]
        if level["n"] != n or got != [want]:
            return f"root label count {got}, expected [{want}]"
        return None
    if command == "count":
        got = [int(x) for x in out.strip().split(",")]
        want = reference_terms(family, k, n)
    elif command == "series" and family == "baxter":
        got = [int(x) for x in out.strip().split(",")]
        want = [closedform.baxter(m + 1) for m in range(n + 1)]
    elif command == "series":
        got = [int(x) for x in out.strip().split(",")]
        if family == "permutations3":
            family, k = "permutations", 3
        want = [1] + reference_terms(family, k, n)
    elif command == "oracle":
        got = int(out)
        want = reference_terms(family, k, n)[-1]
    elif command == "generate" and opts.get("closed-only"):
        lines = out.splitlines()
        for line in lines:
            json.loads(line)
        got = len(lines)
        want = reference_terms(family, k, n)[-1]
    elif command == "verify":
        got = out.splitlines()[-1]
        want = "overall: pass"
    else:
        return f"no check for command {command!r}"
    if got == want:
        return None
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        return f"term {i} is {got[i]}, expected {want[i]}"
    return f"got {str(got)[:200]}, expected {str(want)[:200]}"
