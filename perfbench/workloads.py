"""The four benchmark workloads: parameters, rationale and one pass each.

Every workload is serial and single-process.  Nothing here sets the
library's worker count or thread environment; OpenBLAS keeps its default.
The seed given on the command line is the only source of randomness: it is
the plan seed of the estimation workloads and the member seed of the lab's
bound suite.

`build(seed)` is the set-up a user pays before the first result (scenario
factory with its validation probes, quadrature grid, noise and oracle
tables).  `Built.run()` is one timed pass.  It returns a dict whose "rows"
entry holds the report rows as plain data, so that two passes can be
compared byte for byte, and whose other entries are the library outputs
the correctness checks read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

ICA_PARAMS = {
    "scenario": "make_ica, sources Uniform(1) and Uniform(0.5), "
                "mixing [[1, 0.5], [0.5, 1]], Uniform(0.3) noise on both blocks, d1=1",
    "S": 1.5,
    "nu": 1.0,
    "nodes_per_axis": 48,
    "restarts": 4,
}

PARAMS = {
    "cells-ica2d": dict(
        ICA_PARAMS, entry="runner.run", n_list=[2000, 8000], kappa_grid=[0.6, 0.9],
        replicates=2, tuning_mode="override", m_opt=6, estimates_per_pass=8,
    ),
    "adapt-ica2d-1m": dict(
        ICA_PARAMS, entry="runner.adaptive_run", n=1_000_000, kappa_grid=[0.6, 0.9],
        tuning_mode="theoretical", estimates_per_pass=6,
    ),
    "cell-rm4d": {
        "entry": "runner.run",
        "scenario": "make_repeated, d1=d2=2, Uniform(1) signal, g_density(2.0) noise",
        "n_list": [20000], "kappa_grid": [0.75], "replicates": 1, "S": 1.5, "nu": 1.0,
        "tuning_mode": "override", "m_opt": 4, "nodes_per_axis": 12,
        "lattice_count": 9, "restarts": 4, "estimates_per_pass": 1,
    },
    "lab-lowerbound": {
        "entry": "conjecture_lab, legendre_bounds",
        "kappas": [0.55, 0.75], "K_max": 16, "census": {"c1": 0.8, "c2": 0.3},
        "lecam_n": [10_000, 1_000_000], "noise": "noise_g(2.0)",
        "bound_suite": {"kappa": 0.75, "S": 1.0, "nu": 1.0, "d": 2, "m": 4,
                        "n_members": 25},
        "estimates_per_pass": 0,
    },
}

WHY = {
    "cells-ica2d": "minimizer-bound: minimize_contrast is ~93% of wall, ECF ~3%; has a "
                   "density truth so alignment and lattice L2 run",
    "adapt-ica2d-1m": "ECF-bound (~60% of wall at n=1e6); three tables reused across "
                      "minimizations; only workload for adaptive and spectral l2_distance",
    "cell-rm4d": "the paper's multivariate case (d1=d2=2); only workload where the "
                 "dense _ls_init design matters (12 nodes per axis, 48 would need ~18 GB)",
    "lab-lowerbound": "only workload for conjecture_lab and legendre_bounds; runs no "
                      "estimation layer, so estimation-side changes predict no change here",
}


@dataclass
class Built:
    """A constructed workload: `run` is one pass; `model` and `grid` are the
    estimation context the scorer uses, None for the lab."""

    run: Callable[[], dict]
    model: Optional[object] = None
    grid: Optional[object] = None


def _ica_scenario(cf):
    uniform = cf.SignalSpec("uniform", (1.0,)), cf.SignalSpec("uniform", (0.5,))
    noise = cf.AxisNoise("uniform", 0.3)
    return cf.make_ica(uniform, [[1.0, 0.5], [0.5, 1.0]], noise, noise, d1=1)


def _run_plan(cf, plan) -> dict:
    rows = cf.run(plan).rows
    return {
        "rows": [tuple(vars(r).values()) for r in rows],
        "status": [r.status for r in rows],
        "l2_aligned": [r.l2_aligned for r in rows if not r.no_density_truth],
    }


def _estimation_context(cf, plan):
    """The grid and oracle `runner.run` builds for this plan, made once so
    the scorer and the set-up timing see the same tables."""
    sc = plan.scenario
    grid = cf.make_grid(plan.nu, (sc.d1, sc.d2), plan.nodes_per_axis)
    model = sc.oracle()
    model.tables(grid)
    model.noise_weights(grid)
    return model, grid


def _build_cells_ica2d(cf, seed: int) -> Built:
    p = PARAMS["cells-ica2d"]
    plan = cf.ExperimentPlan(
        scenario=_ica_scenario(cf), n_list=tuple(p["n_list"]), replicates=p["replicates"],
        kappa_grid=tuple(p["kappa_grid"]), S=p["S"], nu=p["nu"],
        nodes_per_axis=p["nodes_per_axis"], tuning_mode=p["tuning_mode"],
        m_opt=p["m_opt"], restarts=p["restarts"], seed=seed,
    )
    model, grid = _estimation_context(cf, plan)
    return Built(run=lambda: _run_plan(cf, plan), model=model, grid=grid)


def _build_adapt_ica2d(cf, seed: int) -> Built:
    p = PARAMS["adapt-ica2d-1m"]
    plan = cf.ExperimentPlan(
        scenario=_ica_scenario(cf), n_list=(p["n"],), replicates=1,
        kappa_grid=tuple(p["kappa_grid"]), S=p["S"], nu=p["nu"],
        nodes_per_axis=p["nodes_per_axis"], tuning_mode=p["tuning_mode"],
        restarts=p["restarts"], seed=seed,
    )
    model, grid = _estimation_context(cf, plan)

    def run():
        cell = cf.adaptive_run(plan, p["n"], seed)
        return {"rows": [tuple(vars(cell).values())], "l2_aligned": [cell.aligned_error]}

    return Built(run=run, model=model, grid=grid)


def _build_cell_rm4d(cf, seed: int) -> Built:
    p = PARAMS["cell-rm4d"]
    noise = cf.AxisNoise("g_density", 2.0)
    scenario = cf.make_repeated(cf.SignalSpec("uniform", (1.0,)), noise, noise, d1=2)
    plan = cf.ExperimentPlan(
        scenario=scenario, n_list=tuple(p["n_list"]), replicates=p["replicates"],
        kappa_grid=tuple(p["kappa_grid"]), S=p["S"], nu=p["nu"],
        nodes_per_axis=p["nodes_per_axis"], tuning_mode=p["tuning_mode"],
        m_opt=p["m_opt"], restarts=p["restarts"], seed=seed,
        lattice=cf.default_lattice(scenario.d, count=p["lattice_count"]),
    )
    model, grid = _estimation_context(cf, plan)
    return Built(run=lambda: _run_plan(cf, plan), model=model, grid=grid)


def _build_lab(cf, seed: int) -> Built:
    p = PARAMS["lab-lowerbound"]
    noise = cf.noise_g(2.0)
    bs = p["bound_suite"]

    def run():
        out = {"rows": [], "gram_error": [], "zeta_mass": []}
        for kappa in p["kappas"]:
            basis = cf.build_weighted_basis(cf.WeightSpec(kappa=kappa), K_max=p["K_max"])
            census = cf.census_protocol(basis, **p["census"])
            out["rows"].append(("basis", kappa, basis.cert["gram_error"], census))
            out["gram_error"].append(basis.cert["gram_error"])
            for n in p["lecam_n"]:
                two = cf.build_two_point(cf.make_instance(basis, n), basis)
                rep = cf.lecam_value(two, noise, n)
                out["rows"].append(("lecam", kappa, n, two.zeta_mass, two.zeta_min,
                                    tuple(vars(rep).values())))
                out["zeta_mass"].append(two.zeta_mass)
        reports = cf.bound_suite(bs["kappa"], bs["S"], bs["nu"], bs["d"], bs["m"],
                                 n_members=bs["n_members"], seed=seed)
        out["rows"] += [("bound", r.name, r.bound, r.measured) for r in reports]
        out["violations"] = sum(not r.holds() for r in reports)
        return out

    return Built(run=run)


FACTORIES = {
    "cells-ica2d": _build_cells_ica2d,
    "adapt-ica2d-1m": _build_adapt_ica2d,
    "cell-rm4d": _build_cell_rm4d,
    "lab-lowerbound": _build_lab,
}
