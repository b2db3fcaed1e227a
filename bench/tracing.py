"""Span tracing of talbotlab's public functions, from outside the program.

``Tracer.install`` replaces each listed function with a timing wrapper, in
the module that defines it and in every talbotlab module that imported it,
so nested calls become child spans.  Spans stay in memory; ``summary``
turns them into per-function calls, total and self time, allocation peaks
and work counts.
"""

from __future__ import annotations

import functools
import sys
import threading
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# module -> traced functions; "cli.main" is the root span and is reported as "cli"
LAYERS = {
    "cli": ("main",),
    "fields": ("sample", "mode_propagate", "periodic_comb", "biphoton_propagate"),
    "qudits": ("bin_weights", "measurement_unitary", "measurement_phases"),
    "spdc": ("two_photon_field", "initial_biphoton_field", "apply_dslit",
             "entangled_coeffs", "render_synthesized", "synthesize_single"),
    "bell": ("joint_prob_field", "bell_field", "joint_prob_analytic", "cglmp_value",
             "bell_scan"),
    "io": ("write_matrix_csv", "write_biphoton_csv", "write_pgm", "write_sampled_csv",
           "write_scan_csv", "bell_result_to_json"),
    "constraints": ("max_dimension", "gate_distances", "mutual_information"),
}

# tracemalloc runs only inside these spans; they never nest in one another
PEAK_SPANS = {"bell.joint_prob_field", "spdc.two_photon_field"}


def _bytes(path) -> int:
    return Path(path).stat().st_size


# work counts per call, from the arguments and the result
WORK = {
    "fields.sample": lambda a, r: {"points": r.values.size},
    "fields.biphoton_propagate": lambda a, r: {"grid_points": a[0].values.size},
    "spdc.two_photon_field": lambda a, r: {"grid_points": r.values.size},
    "io.write_matrix_csv": lambda a, r: {"values": np.size(a[0]), "bytes": _bytes(a[1])},
    "io.write_biphoton_csv": lambda a, r: {   # the CSV and its JSON grid sidecar
        "values": a[0].values.size, "bytes": _bytes(a[1]) + _bytes(f"{a[1]}.json"),
    },
    "io.write_pgm": lambda a, r: {"bytes": _bytes(a[1])},
    "bell.bell_scan": lambda a, r: {"points": len(r)},
}


class Span:
    __slots__ = ("label", "start", "end", "parent", "counts", "peak_mb")

    def __init__(self, label, parent):
        self.label, self.parent = label, parent
        self.start = self.end = 0.0
        self.counts, self.peak_mb = None, 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = None
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        self._main_stack = self._stack()
        modules = [m for name, m in sys.modules.items()
                   if name == "talbotlab" or name.startswith("talbotlab.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules["talbotlab." + module_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                label = "cli" if module_name == "cli" else f"{module_name}.{fn_name}"
                wrapper = self._wrap(label, original)
                for module in modules:
                    if module.__dict__.get(fn_name) is original:
                        setattr(module, fn_name, wrapper)
                        self._patched.append((module, fn_name, original))

    def remove(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def _wrap(self, label, fn):
        peak = label in PEAK_SPANS
        work = WORK.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs under the span that is open in
            # the thread that installed the tracer (bell_scan's workers)
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(label, parent)
            self.spans.append(span)
            stack.append(span)
            owner = peak and not tracemalloc.is_tracing()
            if owner:
                tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0] if peak else 0
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if peak:
                    span.peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                if owner:
                    tracemalloc.stop()
            if work:
                span.counts = work(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """label -> {calls, total_s, self_s, peak_mb, <work counts>}.

        Self time is the span's duration minus the part of it that the union
        of its child spans covers (children may overlap when they run on
        pool threads).
        """
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        out = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            covered, reach = 0.0, span.start
            for lo, hi in sorted(children[id(span)]):
                lo, hi = max(lo, reach), min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            row = out[span.label]
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.end - span.start - covered
            row["peak_mb"] = max(row["peak_mb"], span.peak_mb)
            for key, value in (span.counts or {}).items():
                row[key] += value
        return out
