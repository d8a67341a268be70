"""Span tracer for the benchmark's traced runs.

It wraps public functions of hdsigntest from outside the package: each
wrapper is installed on the function's name in every hdsigntest module that
imported it, so calls between modules are traced too.  Spans (name, start,
end, parent) are kept in memory; counts of work (resamples, rows, bytes)
are taken from the call arguments.  Only traced runs import this module.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (module, function, {quantity: count taken from (args, kwargs)}).
LAYERS = (
    ("generators", "generate", {"rows": lambda a, k: _arg(a, k, 1, "n")}),
    ("statistics", "t_wmw", {}),
    ("statistics", "t_cq2", {}),
    ("statistics", "t_sr", {}),
    ("nuisance", "gamma1_hat", {}),
    ("inference", "permutation_pvalues_two_sample",
     {"resamples": lambda a, k: _arg(a, k, 3, "n_resamples")}),
    ("inference", "signflip_pvalues_one_sample",
     {"resamples": lambda a, k: _arg(a, k, 2, "n_resamples")}),
    ("inference", "two_sample_oracle_terms", {}),
    ("inference", "asymptotic_two_sample", {}),
    ("montecarlo", "run_power_study", {}),
    ("montecarlo", "run_subsample_protocol", {}),
    ("dataio", "read_matrix_csv",
     {"bytes": lambda a, k: os.path.getsize(_arg(a, k, 0, "path"))}),
    ("cli", "main", {}),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = {}
        self.absent = []
        self._stack = []

    def _wrap(self, name, fn, quantities):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for quantity, count in quantities.items():
                key = f"{name}.{quantity}"
                self.counts[key] = self.counts.get(key, 0) + count(args, kwargs)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][1:3] = start, time.perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        """Wrap every layer function on each name bound to it in the loaded
        hdsigntest modules.  A function that no longer exists is recorded
        as absent instead of failing the run."""
        import hdsigntest.cli  # noqa: F401  (loads every layer module)

        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "hdsigntest" or key.startswith("hdsigntest.")]
        for module_name, func_name, quantities in LAYERS:
            name = f"{module_name}.{func_name}"
            home = sys.modules.get(f"hdsigntest.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, quantities)
            for mod in modules:
                if getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapper)

    def layer_totals(self):
        """{layer: (calls, busy_s, self_s)}; self time is a span's length
        minus the time covered by its direct child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            calls, busy, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, busy + end - start, own + end - start - covered)
        return totals


def wrapper_cost(calls=20000, repeats=5):
    """Seconds a wrapper adds to one call: the fastest of ``repeats`` timings
    of ``calls`` calls to a wrapped no-op, less the same for the bare no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop, {})

    def fastest(fn):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - start)
        return best

    return max(fastest(wrapped) - fastest(noop), 0.0) / calls
