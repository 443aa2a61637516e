"""Spans around the calls into each layer of the package, and the
per-layer metrics derived from them.

Wrappers are bound to the names the *calling* module looks up: a name
imported with `from ... import` is a separate binding in the importer, so
wrapping only the defining module would miss those calls.  Spans are kept
in memory as (id, name, start, end, parent) and reduced when the pass ends.
"""

from collections import defaultdict
from contextlib import contextmanager
from math import factorial
from time import perf_counter

from nonnesting import cli, closedform, diagrams, oracle, refdata

_bell = closedform.bell


def _count_sequence(counts, args, result):
    counts["gentree.terms_out"] += len(result)
    bits = max((c.bit_length() for c in result), default=0)
    counts["gentree.count_bits_max"] = max(counts["gentree.count_bits_max"], bits)


def _count_levels(counts, args, result):
    counts["gentree.labels_out"] += sum(len(level.entries) for level in result)


def _solve(counts, args, result):
    counts["series.terms_out"] += len(result.terms)


def _oracle(counts, args, result):
    family, _, n = args
    counts["oracle.objects_tested"] += factorial(n) if family == "permutations" else _bell(n)


# (module, attribute, span name, result counter); the module is the caller's.
_TARGETS = (
    (cli, "run", "cli.run", None),
    (cli, "count_sequence", "gentree.count_sequence", _count_sequence),
    (cli, "count_levels", "gentree.count_levels", _count_levels),
    (cli, "solve_equation", "series.solve", _solve),
    (cli, "constant_term_sequence", "series.extract", None),
    (cli, "ones_sequence", "series.extract", None),
    (oracle, "oracle_count", "oracle.count", _oracle),
    (oracle, "max_nesting", "diagrams.max_nesting", None),
    (oracle, "bell", "closedform", None),
    (diagrams, "legal_steps", "diagrams.steps", None),
    (diagrams, "apply_step", "diagrams.steps", None),
    (closedform, "baxter", "closedform", None),
    (closedform, "open_partition_count", "closedform", None),
    (closedform, "open_permutation_count", "closedform", None),
    (refdata, "lookup", "refdata", None),
    (refdata, "all_sequences", "refdata", None),
)


class Recorder:
    """Collects spans and result counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent))

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def wrap_generator(self, name, fn, counter):
        """One span per resumption, so the consumer's time between items
        is not charged to the generator."""

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(sid, name, start, parent)
                self.counts[counter] += 1
                yield item

        return traced

    @contextmanager
    def installed(self):
        saved = [(cli, "generate_diagrams", cli.generate_diagrams)]
        cli.generate_diagrams = self.wrap_generator(
            "gentree.generate", cli.generate_diagrams, "gentree.diagrams_out"
        )
        try:
            for module, attr, name, count in _TARGETS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, count))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_metrics(self, pass_s):
        """Per-layer totals for one pass; raises if the spans are not
        properly nested (a child outlasting its parent)."""
        span_self = {sid: end - start for sid, _, start, end, _ in self.spans}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                span_self[parent] -= end - start
        self_min = min(span_self.values(), default=0.0)
        if self_min < -1e-6:
            raise ValueError(f"negative self time {self_min:.3g} s: spans overlap")
        duration = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for sid, name, start, end, _ in self.spans:
            duration[name] += end - start
            own[name] += span_self[sid]
            calls[name] += 1
        c = self.counts

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        return {
            "cli.run_s": duration["cli.run"],
            "cli.self_s": own["cli.run"],
            "gentree.count_sequence_s": duration["gentree.count_sequence"],
            "gentree.terms_out": c["gentree.terms_out"],
            "gentree.count_bits_max": c["gentree.count_bits_max"],
            "gentree.count_levels_s": duration["gentree.count_levels"],
            "gentree.labels_out": c["gentree.labels_out"],
            "gentree.labels_per_s": rate(c["gentree.labels_out"], duration["gentree.count_levels"]),
            "gentree.generate_self_s": own["gentree.generate"],
            "gentree.diagrams_out": c["gentree.diagrams_out"],
            "series.solve_s": duration["series.solve"],
            "series.extract_s": duration["series.extract"],
            "series.terms_out": c["series.terms_out"],
            "series.terms_per_s": rate(c["series.terms_out"], duration["series.solve"]),
            "oracle.count_s": duration["oracle.count"],
            "oracle.self_s": own["oracle.count"],
            "oracle.objects_tested": c["oracle.objects_tested"],
            "oracle.objects_per_s": rate(c["oracle.objects_tested"], duration["oracle.count"]),
            "diagrams.max_nesting_s": duration["diagrams.max_nesting"],
            "diagrams.max_nesting_calls": calls["diagrams.max_nesting"],
            "diagrams.steps_s": duration["diagrams.steps"],
            "diagrams.steps_calls": calls["diagrams.steps"],
            "closedform.s": duration["closedform"],
            "refdata.s": duration["refdata"],
            # self times of all spans sum to the root spans' durations; the
            # rest of the pass is the worker's own loop
            "trace.self_share": rate(sum(own.values()), pass_s),
        }
