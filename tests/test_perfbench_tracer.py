"""The benchmark's tracer against the library it wraps.

`perfbench/tracer.py` replaces library attributes by name, so renaming one
would otherwise surface only in a traced benchmark run.  This test loads
the tracer read-only from the checkout, installs it on the package, runs
one small plan with a density truth and closes it again.
"""

import importlib.util
from pathlib import Path

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
