"""In-memory span recorder for the traced benchmark run.

The recorder never edits the package. It replaces public functions at the
module or class attribute their callers look them up through (for example
``molkv.runtime.causal_attention_step`` or ``molkv.training.backward``),
records one span per call, and puts the originals back on ``uninstall``.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class SpanRecorder:
    """Spans are ``(name, start_ns, end_ns, parent index or -1, run id)``.

    ``run_id`` is set by the caller before each timed operation, so all
    spans of one decode step or train step share it.
    """

    def __init__(self, targets):
        """``targets``: (owner, attribute, span name) triples to wrap."""
        self.targets = list(targets)
        self.spans: list = []
        self.run_id = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        for owner, attr, name in self.targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ns, self ns and every duration.

        Self time is a span's duration minus the time its direct children
        cover; calls are sequential, so children never overlap.
        """
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []})
            agg["calls"] += 1
            agg["total_ns"] += end - start
            agg["self_ns"] += end - start - covered[i]
            agg["durations_ns"].append(end - start)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "run_id"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
