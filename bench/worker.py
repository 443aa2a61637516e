"""One benchmark pass in a fresh interpreter.

Usage: python -I worker.py ROOT SPEC

ROOT is the checkout whose `src/` holds the package; SPEC is JSON with
`ops` (a list of [argv string, stdout sha256]) and `trace` (bool).  The
worker imports `nonnesting.cli`, notes the monotonic clock (the parent
notes it before the spawn, so the difference is the set-up time), runs
each operation once as `cli.run(argv)` with stdout captured, and then,
outside the timed region, checks every output.  It prints one JSON line.

Before each operation and after the last it times a slice of a fixed
pure-Python kernel; run.py scales every timing by those slices, so that
the machine's changing speed cancels out.
"""

import contextlib
import io
import json
import os
import sys
import time

REFERENCE_ITERATIONS = 5000
REFERENCE_MODULUS = 1 << 200


def _import_cli(root):
    src = os.path.join(os.path.realpath(root), "src")
    sys.path[:0] = [src, os.path.dirname(os.path.realpath(__file__))]
    from nonnesting import cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"nonnesting.cli imported from {cli.__file__}, not {src}")
    return cli


def _run_op(cli, argv):
    """Returns (exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception as exc:  # the pass goes on; the op counts as failed
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _reference_slice():
    """Time a fixed pure-Python kernel (dict updates, tuples, big ints)."""
    start = time.perf_counter()
    acc = {}
    x = 1
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 3 + i) % REFERENCE_MODULUS
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + x
    return time.perf_counter() - start


def _run_pass(cli, ops):
    """Runs each op once; a reference slice before each op and after the
    last samples the machine's speed while the pass runs."""
    results = []
    slices = []
    for argv, _ in ops:
        slices.append(_reference_slice())
        start = time.perf_counter()
        rc, out, err = _run_op(cli, argv.split())
        results.append((time.perf_counter() - start, rc, out, err))
    slices.append(_reference_slice())
    return results, slices


def main():
    cli = _import_cli(sys.argv[1])
    ready = time.monotonic()
    # the harness's own modules load after the set-up time is taken (json,
    # io and contextlib above are loaded by the interpreter or cli anyway)
    import resource

    import checks
    import tracer

    spec = json.loads(sys.argv[2])
    ops = spec["ops"]
    recorder = tracer.Recorder() if spec["trace"] else None
    with recorder.installed() if recorder else contextlib.nullcontext():
        results, slices = _run_pass(cli, ops)
    pass_s = sum(r[0] for r in results)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = []
    for (argv, pin), (wall_s, rc, out, err) in zip(ops, results):
        try:
            reason = checks.check(argv.split(), rc, out)
        except Exception as exc:  # malformed output is a failed op
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and checks.stdout_digest(argv.split(), out) != pin:
            reason = "stdout differs from the pinned sha256"
        if reason is not None and err:
            reason += f" (stderr: {err.strip()[-200:]})"
        report.append({"op": argv, "wall_s": wall_s, "failed": reason})
    result = {
        "ready": ready,
        "pass_s": pass_s,
        "reference_s": slices,
        "peak_rss_kb": peak_rss_kb,
        "ops": report,
    }
    if recorder:
        layers = recorder.layer_metrics(pass_s)
        layers["cli.stdout_bytes"] = sum(len(r[2].encode()) for r in results)
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
