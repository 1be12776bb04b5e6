"""In-memory span recorder for the benchmark's traced runs.

The tracer replaces a public function on the module (or class) through
which the program calls it, so every call records a span: name, start,
end and the span that was open when it started.  Spans stay in memory and
are written out once, when the run ends.  The program is single-threaded,
so the open spans form a stack and child spans never overlap each other.
"""

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_INHERITED = object()


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr with a recording wrapper.

        count(counter, args, result), when given, adds per-call counts
        derived from the arguments or the result.
        """
        orig = getattr(owner, attr)
        raw = vars(owner).get(attr, _INHERITED)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw))

    def restore(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def summary(self):
        """Per span name: calls, total and self time in milliseconds.

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it and do not overlap one another.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["ms"] += (t1 - t0) * 1e3
            row["self_ms"] += (t1 - t0 - child[i]) * 1e3
        return dict(out)

    def durations_ms(self, name):
        return [(t1 - t0) * 1e3 for n, t0, t1, _ in self.spans if n == name]

    def within(self, names, root):
        """(calls, ms) of spans named in `names` that lie under a `root` span.

        A listed span nested in another listed span is not counted twice.
        Parents precede their children in the span list.
        """
        in_root = [False] * len(self.spans)
        in_listed = [False] * len(self.spans)
        calls, total = 0, 0.0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            p_root = parent >= 0 and in_root[parent]
            p_listed = parent >= 0 and in_listed[parent]
            if name in names and p_root and not p_listed:
                calls += 1
                total += (t1 - t0) * 1e3
            in_root[i] = p_root or name == root
            in_listed[i] = p_listed or name in names
        return calls, total

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
