"""Spans around layer entry points, and self-time arithmetic over them.

A span records name, start, end, parent and the process CPU time (all
threads) at start and end.  Start and end come from `time.monotonic`, which
is the system-wide monotonic clock on Linux, so spans written by the traced
child and the process span added by `run.py` share one clock.
"""

import functools
import inspect
import time


class Tracer:
    """Records nested spans for calls made from one thread.

    The wrapped entry points are all called from the CLI's main thread; the
    worker threads they start run inside the span of their caller.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        """Return `fn` wrapped in a span called `name`.

        `on_return(span, arguments, result)`, with the call's arguments by
        parameter name, runs after the span has closed, so its cost lands in
        the parent span, not in this one.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.monotonic(), "cpu_start": time.process_time()}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["cpu_end"] = time.process_time()
                span["end"] = time.monotonic()
                self._stack.pop()
            if on_return is not None:
                on_return(span, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span id: (self wall seconds, self CPU seconds).

    Self wall time is the span's duration minus the part of its interval
    that its direct children cover.  Self CPU time is the span's CPU time
    minus its children's CPU time.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        wall = (s["end"] - s["start"]) - _covered(
            [(k["start"], k["end"]) for k in kids], s["start"], s["end"])
        cpu = (s["cpu_end"] - s["cpu_start"]) - sum(
            k["cpu_end"] - k["cpu_start"] for k in kids)
        out[s["id"]] = (wall, cpu)
    return out


def layer_totals(spans):
    """Per span name: {"busy_s", "cpu_s", "calls"} summed over its spans."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        wall, cpu = selfs[s["id"]]
        acc = out.setdefault(s["name"], {"busy_s": 0.0, "cpu_s": 0.0, "calls": 0})
        acc["busy_s"] += wall
        acc["cpu_s"] += cpu
        acc["calls"] += 1
    return out
