"""Counting, checking and (when traced) timing of the benchmark's ops.

Every public bistoch call a job makes goes through :meth:`Recorder.op`.  An
op fails when it raises or when its output check returns false; either way
the failure is counted and :class:`OpFailed` ends the job's current chain,
never the run.  Spans are kept in memory and summarised when the run ends.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class OpFailed(Exception):
    """Raised by :meth:`Recorder.op` after it has recorded a failure."""


class Recorder:
    def __init__(self):
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # ops that returned an output failing its check
        self.failures = Counter()  # "op: reason" -> count
        self.job_spans = []  # (job_id, start, end) of traced jobs
        self.op_spans = []  # (job_id, name, start, end, ok) of ops in traced jobs
        self.counters = Counter()
        self._job = None

    def begin_job(self, job_id, traced):
        self.traced = traced
        self._job = job_id
        return perf_counter()

    def end_job(self, start):
        end = perf_counter()
        if self.traced:
            self.job_spans.append((self._job, start, end))
        return end - start

    def op(self, name, fn, *args, check=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` as op ``name`` and check its output."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            self._fail(name, type(exc).__name__, start, perf_counter())
            raise OpFailed(name) from exc
        end = perf_counter()
        try:
            ok = check is None or bool(check(out))
            reason = "check failed"
        except Exception as exc:  # a result the check cannot read is a wrong result
            ok, reason = False, f"check raised {type(exc).__name__}"
        if not ok:
            self.wrong += 1
            self._fail(name, reason, start, end)
            raise OpFailed(name)
        if self.traced:
            self.op_spans.append((self._job, name, start, end, True))
        return out

    def crashed(self, exc):
        """Record an exception raised by a job's own code outside any op."""
        self.attempted += 1
        self.wrong += 1
        self._fail("job", f"raised {type(exc).__name__}", 0.0, 0.0)

    def _fail(self, name, reason, start, end):
        self.failed += 1
        self.failures[f"{name}: {reason}"] += 1
        if self.traced:
            self.op_spans.append((self._job, name, start, end, False))

    def count(self, name, value):
        """Add to a work counter; ``value`` may be a callable, evaluated only when traced."""
        if self.traced:
            self.counters[name] += value() if callable(value) else value

    def peak(self, name, value):
        """Keep the largest value seen; ``value`` as in :meth:`count`."""
        if self.traced:
            self.counters[name] = max(self.counters[name], value() if callable(value) else value)

    def layer_metrics(self, ops):
        """``<op>.busy_s``, ``.calls`` and ``.failed`` for each op name in ``ops``."""
        busy, calls, failed = Counter(), Counter(), Counter()
        for _, name, start, end, ok in self.op_spans:
            busy[name] += end - start
            calls[name] += 1
            failed[name] += not ok
        out = {}
        for name in ops:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.failed"] = failed[name]
        return out

    def self_time(self):
        """Sum over traced jobs of the job span minus its op spans: the benchmark's own overhead."""
        inside = Counter()
        for job, _, start, end, _ in self.op_spans:
            inside[job] += end - start
        return sum(end - start - inside[job] for job, start, end in self.job_spans)
