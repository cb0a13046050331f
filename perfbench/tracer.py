"""Outside-in tracing of the library's layer boundaries.

The benchmark never edits the library.  It replaces module attributes that
one layer looks up when it calls another (for example
`cfdeconv.runner.minimize_contrast`, which `estimate_once` resolves at call
time) with thin wrappers, and puts the originals back afterwards.

`Capture` is always installed: it keeps the outcomes `estimate_once`
returns so the benchmark can score the final estimates, and takes no
timings.  `Tracer` is installed only for the traced passes: it records a
span (name, start, end, parent) per wrapped call, in memory, and counters
that observers derive from each call's arguments and result.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# span names of the estimation layers; the lab workload must record none
ESTIMATION_LAYERS = ("scenarios", "ecf", "contrast", "minimize", "multiindex_taylor",
                     "reconstruct", "adaptive", "runner")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Capture:
    """Pass-through record of every `estimate_once` outcome, in call order."""

    def __init__(self, cf):
        self.outcomes = []
        self._patches = Patches()
        original = cf.runner.estimate_once

        @functools.wraps(original)
        def capture(*args, **kwargs):
            out = original(*args, **kwargs)
            self.outcomes.append(out)
            return out

        self._patches.set(cf.runner, "estimate_once", capture)

    def take(self) -> list:
        out, self.outcomes = self.outcomes, []
        return out

    def close(self):
        self._patches.restore()


class Tracer:
    """Spans and counters at the wrapped boundaries while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self.values = defaultdict(list)
        self._stack = []
        self._patches = Patches()

    def wrap(self, name, fn, observe=None, malloc_peak=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            if malloc_peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if malloc_peak:
                    self.values[name + ".malloc_peak"].append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return traced

    def install(self, cf):
        """Wrap every boundary the workloads cross."""
        runner, minimize, adaptive = cf.runner, cf.minimize, cf.adaptive
        patch = self._patches.set
        # the workloads enter the library through the package attributes
        patch(cf, "run", self.wrap("runner", cf.run))
        patch(cf, "adaptive_run", self.wrap("runner", cf.adaptive_run))
        patch(cf.scenarios.ScenarioSpec, "sample",
              self.wrap("scenarios.sample", cf.scenarios.ScenarioSpec.sample))
        patch(runner, "translation_align",
              self.wrap("scenarios.align", runner.translation_align, _observe_align))
        patch(runner, "ecf_table_for_grid",
              self.wrap("ecf.table", runner.ecf_table_for_grid, _observe_ecf))
        patch(runner, "minimize_contrast",
              self.wrap("minimize", runner.minimize_contrast, _observe_minimize))
        patch(minimize, "contrast_empirical",
              self.wrap("contrast.value", minimize.contrast_empirical))
        patch(minimize, "contrast_gradient",
              self.wrap("minimize.grad", minimize.contrast_gradient))
        patch(minimize, "_ls_init",
              self.wrap("minimize.ls_init", minimize._ls_init, malloc_peak=True))
        patch(minimize, "project_upsilon",
              self.wrap("multiindex_taylor.project", minimize.project_upsilon))
        patch(runner, "invert", self.wrap("reconstruct.invert", runner.invert, _observe_invert))
        l2 = self.wrap("reconstruct.l2_distance", runner.l2_distance)
        patch(runner, "l2_distance", l2)
        # the selectors bind l2_distance as a default argument at definition
        for fn in (adaptive.pilot_c_sigma, adaptive.select_kappa):
            patch(fn, "__defaults__", (l2,))
        patch(runner, "pilot_c_sigma", self.wrap("adaptive.pilot", runner.pilot_c_sigma))
        patch(runner, "select_kappa",
              self.wrap("adaptive.select", runner.select_kappa, _observe_select))
        patch(runner, "cf_box_error", self.wrap("runner.cf_box_error", runner.cf_box_error))
        patch(cf, "build_weighted_basis",
              self.wrap("conjecture_lab.basis", cf.build_weighted_basis, _observe_basis))
        patch(cf, "census_protocol", self.wrap("conjecture_lab.census", cf.census_protocol))
        patch(cf, "build_two_point", self.wrap("conjecture_lab.two_point", cf.build_two_point))
        patch(cf, "lecam_value", self.wrap("conjecture_lab.lecam", cf.lecam_value, _observe_lecam))
        patch(cf, "bound_suite",
              self.wrap("legendre_bounds.bound_suite", cf.bound_suite, _observe_bounds))

    def close(self):
        self._patches.restore()


def _observe_align(tracer, args, kwargs, out):
    window, step = args[2], args[3]
    shift, _ = out
    tracer.counters["scenarios.align_edge_hits"] += any(
        abs(s) >= window - step / 2 for s in shift)


def _observe_ecf(tracer, args, kwargs, out):
    samples, grid = args
    g1, g2 = out.full.shape
    # complex GEMM b1^T b2 over the sample: 8 real flops per multiply-add
    tracer.counters["ecf.gflop_computed"] += 8.0 * g1 * g2 * samples.n / 1e9


def _observe_minimize(tracer, args, kwargs, out):
    tracer.counters["minimize.restarts"] += out.restarts_used
    tracer.counters["minimize.converged"] += bool(out.converged)


def _observe_invert(tracer, args, kwargs, out):
    tracer.values["reconstruct.imag_residue"].append(out.imag_residue)


def _observe_select(tracer, args, kwargs, out):
    tracer.values["adaptive.kappa_hat"].append(out.kappa_hat)


def _observe_basis(tracer, args, kwargs, out):
    tracer.values["conjecture_lab.gram_error"].append(out.cert["gram_error"])


def _observe_lecam(tracer, args, kwargs, out):
    v_half, v_step = kwargs.get("v_half", 40.0), kwargs.get("v_step", 0.1)
    w_half, w_step = kwargs.get("w_half", 60.0), kwargs.get("w_step", 0.05)
    nv = np.arange(-v_half, v_half + v_step / 2, v_step).size
    nw = np.arange(-w_half, w_half + w_step / 2, w_step).size
    # (G @ QA) @ Z^T with G, Z of shape (nv, nw) and QA of shape (nw, nw)
    tracer.counters["conjecture_lab.lecam_gflop_computed"] += 2.0 * nv * nw * (nw + nv) / 1e9


def _observe_bounds(tracer, args, kwargs, out):
    tracer.counters["legendre_bounds.violations"] += sum(not r.holds() for r in out)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Calls are serial, so children of one span never overlap."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
