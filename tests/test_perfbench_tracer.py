"""The benchmark's tracer against the library it wraps.

`perfbench/tracer.py` replaces library attributes by name, so renaming one
would otherwise surface only in a traced benchmark run.  These tests load
the tracer read-only from the checkout, install its `Tracer` or its
`Capture` on the package, run small plans and close them again.
"""

import importlib.util
from pathlib import Path

import pytest

import cfdeconv
from cfdeconv import AxisNoise, ExperimentPlan, SignalSpec, default_lattice, make_ica

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_density_truth_plan():
    sources = SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (0.5,))
    noise = AxisNoise("uniform", 0.3)
    plan = ExperimentPlan(
        scenario=make_ica(sources, [[1.0, 0.5], [0.5, 1.0]], noise, noise, d1=1),
        n_list=(200,), replicates=1, kappa_grid=(0.9,), S=1.5, nodes_per_axis=12,
        tuning_mode="override", m_opt=4, lattice=default_lattice(2, count=9),
    )

    def wrapped():
        return (cfdeconv.run, cfdeconv.runner.translation_align, cfdeconv.runner.l2_distance,
                cfdeconv.adaptive.select_kappa.__defaults__)

    before = wrapped()
    tracer = load_tracer().Tracer()
    tracer.install(cfdeconv)
    try:
        (row,) = cfdeconv.run(plan).rows
    finally:
        tracer.close()
    assert row.status == "ok" and not row.no_density_truth
    assert row.l2_aligned <= row.l2_raw
    names = {span[0] for span in tracer.spans}
    assert {"runner", "scenarios.sample", "scenarios.align", "ecf.table", "minimize",
            "reconstruct.invert", "runner.cf_box_error"} <= names
    assert tracer.counters["minimize.converged"] == 1
    assert wrapped() == before


def ica_plan(**overrides):
    sources = SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (0.5,))
    noise = AxisNoise("uniform", 0.3)
    kwargs = dict(scenario=make_ica(sources, [[1.0, 0.5], [0.5, 1.0]], noise, noise, d1=1),
                  n_list=(100, 200), replicates=1, kappa_grid=(0.6, 0.9), S=1.5,
                  nodes_per_axis=12, lattice=default_lattice(2, count=9), restarts=1)
    return ExperimentPlan(**dict(kwargs, **overrides))


def test_capture_records_every_estimate():
    # Capture wraps runner.estimate_once, the one global every estimate calls:
    # an adaptive pass makes three per candidate kappa (two halves, the pool)
    plan = ica_plan()
    original = cfdeconv.runner.estimate_once
    capture = load_tracer().Capture(cfdeconv)
    try:
        cfdeconv.adaptive_run(plan, 60, seed=3)
        adaptive = capture.take()
        rows = cfdeconv.run(ica_plan(tuning_mode="override", m_opt=4)).rows
        planned = capture.take()
    finally:
        capture.close()
    assert cfdeconv.runner.estimate_once is original
    assert len(adaptive) == 3 * len(plan.kappa_grid)
    assert [o.result.value for o in planned] == [row.contrast_value for row in rows]
    assert len(rows) == 4


def test_tracer_counts_one_ecf_span_per_table():
    # a plan tabulates one table per cell; an adaptive pass one per half
    tracer = load_tracer().Tracer()
    tracer.install(cfdeconv)
    try:
        rows = cfdeconv.run(ica_plan(tuning_mode="override", m_opt=4)).rows
        planned = [span[0] for span in tracer.spans].count("ecf.table")
        cfdeconv.adaptive_run(ica_plan(), 60, seed=3)
        adaptive = [span[0] for span in tracer.spans].count("ecf.table") - planned
    finally:
        tracer.close()
    assert (planned, adaptive) == (len(rows), 2)
    # _observe_ecf read each call's (samples, grid): 8 flops per value pair
    n_total = 2 * (100 + 200) + 60
    assert tracer.counters["ecf.gflop_computed"] == pytest.approx(8.0 * 12 * 12 * n_total / 1e9)
