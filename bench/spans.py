"""In-memory span recording around calls into the program's layers.

Spans are recorded from outside the library: `Tracer.installed()` replaces
each function named in `CALL_SITES` on the module that calls it with a
timing wrapper and restores the original on exit, so code that runs outside
that block is untouched. A span is (name, start, end, parent index, note);
the note of a `hop.eval` span is (nodes touched, candidate).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from hopspread import cli, selection

# (module that makes the call, attribute, span name)
CALL_SITES = (
    (cli, "load_edge_list", "graph.load"),
    (cli, "apply_weight_model", "graph.weight"),
    (cli, "greedy_celf", "selection.greedy_celf"),
    (cli, "estimate_spread", "oracle.estimate_spread"),
    (selection, "init_state", "hop.init_state"),
    (selection, "upper_bounds", "bounds.upper_bounds"),
    (selection, "eval_gain", "hop.eval"),
    (selection, "commit", "hop.commit"),
)


def _eval_note(report):
    q2 = getattr(report, "q2_nodes", None)
    return (len(report.q1_nodes) + (0 if q2 is None else len(q2)), report.candidate)


NOTES = {"hop.eval": _eval_note}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [None]

    def _record(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, note(result) if note and result is not None else None)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        originals = []
        try:
            for module, attr, name in CALL_SITES:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._record(name, fn, NOTES.get(name)))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def call(self, name, fn, *args):
        """Run fn(*args) as a span of its own (a root span at top level)."""
        return self._record(name, fn)(*args)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": self.spans}, fh)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent is not None:
            out[parent] -= t1 - t0
    return out
