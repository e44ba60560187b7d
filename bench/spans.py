"""Spans around the calls into each rflsmooth layer, recorded from outside
the program.

Each public function is wrapped under the name its caller looks it up by:
the wrapper replaces the entry in the calling module's globals, because
`synthesis` calls `solve_care` through `rflsmooth.synthesis`'s globals, not
through `rflsmooth.numkernel`.  A span's name is the defining module's last
component plus the function name, so `numkernel.solve_care` is one name
wherever it is called from.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager

# (calling module, names it looks up); the functions are defined elsewhere
# for most of these entries.
CALL_SITES = [
    ("rflsmooth.cli", ["load_config", "compact_from_config", "scaling_from_config",
                       "sim_from_config", "compute_gains", "minimize_bound",
                       "solution_to_json", "delta_sweep", "write_sweep_csv",
                       "monte_carlo", "run_reproduction", "format_report"]),
    ("rflsmooth.config", ["pade_delay", "identity_delay", "augment_with_delay",
                          "build_compact", "validate_plant"]),
    ("rflsmooth.synthesis", ["solve_care", "spectral_radius", "compute_gains",
                             "feasible", "assemble_multipliers", "filter_riccati",
                             "control_riccati", "cost_weights"]),
    ("rflsmooth.covariance", ["solve_lyapunov", "expm", "is_hurwitz",
                              "build_closed_loop", "smoothed_error_covariance"]),
    ("rflsmooth.sim", ["run_generator"]),
    ("rflsmooth.reproduce", ["compute_gains", "feasible", "build_closed_loop",
                             "delta_sweep", "smoothed_error_covariance", "is_hurwitz",
                             "phase_estimation_compact"]),
    ("rflsmooth.example", ["pade_delay", "augment_with_delay", "build_compact"]),
]

LAYERS = ["config", "delay", "model", "numkernel", "synthesis", "covariance", "sim", "cli"]

# span record fields
NAME, PARENT, START, END, OK, OP = range(6)


class Tracer:
    """In-memory span recorder.  One span per wrapped call: name, parent span
    index, start and end (perf_counter_ns), whether it returned, and the
    index of the benchmark operation it ran in."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.absent = []
        self._stack = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0, False, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[OK] = True
                return out
            finally:
                stack.pop()
                rec[END] = clock()

        return traced

    def span(self, name, fn, *args):
        return self.wrap(fn, name)(*args)

    @contextmanager
    def installed(self):
        """Patch every call site; restore the original functions on exit."""
        saved = []
        self.absent = []
        try:
            for modname, names in CALL_SITES:
                module = importlib.import_module(modname)
                for attr in names:
                    fn = getattr(module, attr, None)
                    if not callable(fn):
                        self.absent.append(f"{modname}.{attr}")
                        continue
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self, path, ops, summary):
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["name", "parent", "start_ns", "end_ns", "ok", "op"],
            "names": names,
            "spans": [[index[s[NAME]], s[PARENT], s[START], s[END], int(s[OK]), s[OP]]
                      for s in self.spans],
            "ops": ops,
            "absent_call_sites": self.absent,
            "summary": summary,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def tail_percentile(samples):
    """Highest of the 75th/90th/99th/99.9th percentiles with at least ten
    samples beyond it, or None with fewer than forty samples."""
    n = len(samples)
    best = None
    for q in (75, 90, 99, 99.9):
        if n * (100 - q) / 100 >= 10:
            best = q
    if best is None:
        return None
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return best, cuts[int(round(best * 10)) - 1]


class SpanIndex:
    """Durations, self times and descendants of recorded spans."""

    def __init__(self, spans):
        self.spans = spans
        self.duration = [s[END] - s[START] for s in spans]
        child = [0] * len(spans)
        for s, d in zip(spans, self.duration):
            if s[PARENT] >= 0:
                child[s[PARENT]] += d
        self.self_ns = [d - c for d, c in zip(self.duration, child)]
        self.by_name = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)

    def ids(self, name, ops):
        return [i for i in self.by_name.get(name, ()) if self.spans[i][OP] in ops]

    def durations(self, name, ops):
        return [self.duration[i] for i in self.ids(name, ops)]

    def has_ancestor(self, i, name):
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def layer_self_ns(self, ops):
        out = dict.fromkeys(LAYERS, 0)
        for s, t in zip(self.spans, self.self_ns):
            layer = s[NAME].split(".", 1)[0]
            if layer in out and s[OP] in ops:
                out[layer] += t
        return out
