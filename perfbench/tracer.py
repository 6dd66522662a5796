"""Spans and counts at rfvlc's module boundaries, recorded from outside the package.

`install` wraps the public function behind each boundary name and rebinds
every `rfvlc.*` module attribute that is that function object, because
`cli` and `sweep` import `simulate_*`, `outage_probability` and others by
name.  Nothing in the package changes.  A boundary whose module or function
does not exist at the measured commit is reported absent.

A span records (id, parent, name, start, end).  Spans opened on a worker
thread with no open span of its own are parented to the span open on the
thread that installed the tracer, so chunk spans on the pool belong to the
enclosing `simulate_*` span.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

BOUNDARIES = (
    "cli.main",
    "config.parse_config",
    "sweep.run_sweep",
    "sweep.emit_csv",
    "e2e.outage_probability",
    "e2e.e2e_avg_ber",
    "e2e.outage_floor",
    "e2e.ber_floor",
    "rf_channel.mrc_snr_cdf",
    "rf_channel.rf_avg_ber",
    "vlc_channel.derive",
    "vlc_channel.vlc_snr_cdf",
    "vlc_channel.vlc_avg_ber",
    "specfun.poisson_weighted_sum",
    "montecarlo.simulate_outage",
    "montecarlo.simulate_ber",
    "_mc_numpy.chunk_stats",
)
SIMULATE = ("montecarlo.simulate_outage", "montecarlo.simulate_ber")
CHUNK = "_mc_numpy.chunk_stats"
SERIES = "specfun.poisson_weighted_sum"


class Tracer:
    """In-memory span and counter store; thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = self._stack()
        self.spans = []
        self.counts = {"series_terms": 0, "trials_drawn": 0}
        self.absent = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter, amount):
        with self._lock:
            self.counts[counter] += amount

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root else None
            with self._lock:
                sid = next(self._ids)
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, name, start, end))

        return wrapper

    def _count_terms(self, args, kwargs):
        # poisson_weighted_sum(lam, term, ...): count every term evaluation
        args = list(args)
        if len(args) > 1:
            term = args[1]
        else:
            term = kwargs["term"]

        def counted(k):
            self.add("series_terms", 1)
            return term(k)

        if len(args) > 1:
            args[1] = counted
        else:
            kwargs["term"] = counted
        return tuple(args), kwargs

    def _count_trials(self, args, kwargs):
        # chunk_stats(bitgen, n, ...): n trials drawn in this chunk
        self.add("trials_drawn", int(args[1] if len(args) > 1 else kwargs["n"]))
        return args, kwargs

    def install(self):
        """Wrap every boundary of the already imported rfvlc package."""
        hooks = {SERIES: self._count_terms, CHUNK: self._count_trials}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rfvlc" or n.startswith("rfvlc."))]
        for boundary in BOUNDARIES:
            mod_name, func_name = boundary.split(".")
            mod = sys.modules.get("rfvlc." + mod_name)
            target = getattr(mod, func_name, None)
            if not callable(target):
                self.absent.append(boundary)
                continue
            wrapper = self.wrap(boundary, target, hooks.get(boundary))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, attr, wrapper)

    def summary(self):
        """Per-boundary calls, busy time and self time, plus counters.

        Self time is a span's duration minus the union of its child spans'
        intervals, clipped to the span.
        """
        with self._lock:
            spans = list(self.spans)
            counts = dict(self.counts)
        children = {}
        for sid, parent, name, start, end in spans:
            children.setdefault(parent, []).append((start, end))
        out = {b: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for b in BOUNDARIES}
        for sid, _, name, start, end in spans:
            covered = _union_length(children.get(sid, ()), start, end)
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - covered
        return {"boundaries": out, "counts": counts, "absent": list(self.absent)}


def _union_length(intervals, lo, hi):
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
