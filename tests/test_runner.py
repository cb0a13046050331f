"""Experiment planning, cell execution, aggregation, rate fitting."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cfdeconv
from cfdeconv import (
    AxisNoise,
    CellResult,
    ConfigError,
    ExperimentPlan,
    ExperimentReport,
    SignalSpec,
    adapt_from_samples,
    adaptive_run,
    cell_seed,
    compute_aggregates,
    contrast_empirical,
    default_lattice,
    ecf_table_for_grid,
    estimate_once,
    fit_rate,
    make_grid,
    make_ica,
    make_repeated,
    poly_tables,
    run,
)
from cfdeconv import contrast as contrast_module
from cfdeconv import minimize as minimize_module
from cfdeconv import runner as runner_module
from cfdeconv.adaptive import sigma_rule
from cfdeconv.ecf import SampleSet, pooled
from cfdeconv.minimize import RESOLUTION
from cfdeconv.multiindex_taylor import UpsilonParams
from cfdeconv.runner import ALIGN_STEP, ALIGN_WINDOW, AdaptiveCell
from cfdeconv.scenarios import ScenarioSpec, translation_align
from cfdeconv.reconstruct import m_rule, omega_rule

from test_multiindex_taylor import poly_11


# one small estimate on the benchmark's ICA scenario; prints its theta bytes
_THETA_HEX = """
import cfdeconv as cf
noise = cf.AxisNoise("uniform", 0.3)
sc = cf.make_ica((cf.SignalSpec("uniform", (1.0,)), cf.SignalSpec("uniform", (0.5,))),
                 [[1.0, 0.5], [0.5, 1.0]], noise, noise, d1=1)
grid = cf.make_grid(1.0, (1, 1), 48)
out = cf.estimate_once(cf.ecf_table_for_grid(sc.sample(2000, 3), grid), grid,
                       cf.default_lattice(2, count=9), kappa=0.6, S=1.5, m_opt=4,
                       restarts=1, seed=3)
print(out.result.estimate.theta.tobytes().hex())
"""


def rows_equal(rows_a, rows_b):
    """Field-by-field row comparison treating NaN as equal to NaN."""
    def eq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return (math.isnan(x) and math.isnan(y)) or x == y
        return x == y

    return len(rows_a) == len(rows_b) and all(
        all(eq(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
        for a, b in zip(rows_a, rows_b)
    )


def make_row(n, kappa=0.75, replicate=0, status="ok", cf=1.0, l2=float("nan")):
    return CellResult(
        n=n, kappa=kappa, replicate=replicate, seed=0, status=status,
        contrast_value=cf * 0.1, cf_box_error=cf, l2_raw=l2, l2_aligned=l2,
        shift=(0.0, 0.0), m_trunc=1, m_opt=2, omega=1.0,
        no_density_truth=isinstance(l2, float) and math.isnan(l2), converged=True,
    )


def degenerate_plan(pointmass_repeated, **overrides):
    kwargs = dict(
        scenario=pointmass_repeated, n_list=(12, 24), replicates=2,
        kappa_grid=(0.75,), S=1.5, nodes_per_axis=24,
        lattice=default_lattice(2, half=2.0, count=9),
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def record_alignments(monkeypatch, d):
    """Give every scenario a stand-in density truth and record the arguments
    of each translation_align call."""
    calls = []
    monkeypatch.setattr(ScenarioSpec, "density_truth", lambda scenario: "truth")
    monkeypatch.setattr(runner_module, "truth_l2", lambda density, truth: 0.0)
    monkeypatch.setattr(runner_module, "translation_align",
                        lambda *args, **kwargs: calls.append((args, kwargs)) or ((0.0,) * d, 0.0))
    return calls


@pytest.fixture(scope="module")
def degenerate_report(pointmass_repeated):
    return run(degenerate_plan(pointmass_repeated))


class TestPlanValidation:
    def test_n_list_must_increase(self, pointmass_repeated):
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, n_list=(100, 100))
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, n_list=())

    def test_small_n_rejected(self, pointmass_repeated):
        with pytest.raises(ConfigError, match="below 12"):
            degenerate_plan(pointmass_repeated, n_list=(11, 100))

    def test_replicates_and_kappa_grid(self, pointmass_repeated):
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, replicates=0)
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, kappa_grid=())
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, kappa_grid=(0.5, 1.5))

    def test_positive_scales(self, pointmass_repeated):
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, S=0.0)
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, nu=-1.0)

    def test_tuning_mode(self, pointmass_repeated):
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, tuning_mode="manual")
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, tuning_mode="override")
        plan = degenerate_plan(pointmass_repeated, tuning_mode="override", m_opt=4)
        assert plan.m_opt == 4

    @pytest.mark.parametrize("field, value", [
        ("S", "abc"), ("beta", "x"), ("cell_budget_s", "x"), ("n_list", 5),
        ("n_list", ("12", "many")), ("kappa_grid", (0.5, "x")), ("seed", None),
        # an int field takes no bool, fraction, NaN or infinity
        ("replicates", 1.9), ("replicates", True), ("n_list", (12.5, 24)),
        ("seed", float("inf")), ("restarts", float("nan")), ("nodes_per_axis", np.float64(2.5)),
        # nor does a float field
        ("S", True), ("beta", np.bool_(True)),
    ])
    def test_unconvertible_values(self, pointmass_repeated, field, value):
        with pytest.raises(ConfigError, match=field):
            degenerate_plan(pointmass_repeated, **{field: value})

    def test_fields_converted(self, pointmass_repeated):
        plan = degenerate_plan(pointmass_repeated, n_list=["12", 24.0], S="1.5",
                               nodes_per_axis="24", cell_budget_s=3, seed=np.int64(5))
        assert plan.n_list == (12, 24) and plan.S == 1.5 and plan.nodes_per_axis == 24
        assert type(plan.cell_budget_s) is float and type(plan.seed) is int
        assert plan.m_opt is None

    @pytest.mark.parametrize("overrides", [
        {"beta": 0.0}, {"nu": float("nan")}, {"nodes_per_axis": 1}, {"restarts": 0},
        {"seed": -1}, {"cell_budget_s": -1.0}, {"lattice": default_lattice(1)},
        # theoretical tuning would ignore m_opt, yet the report would echo it
        {"m_opt": 6},
    ])
    def test_ranges(self, pointmass_repeated, overrides):
        with pytest.raises(ConfigError):
            degenerate_plan(pointmass_repeated, **overrides)

    def test_default_lattice_filled(self, pointmass_repeated):
        plan = degenerate_plan(pointmass_repeated, lattice=None)
        assert plan.lattice.counts == (33, 33)
        assert plan.lattice.mins == (-4.0, -4.0)


class TestDataTypes:
    # a data input of the wrong type is refused, before any work, with a
    # ConfigError naming the type it should be
    @pytest.mark.parametrize("case, message", [
        ("estimate_once", "table must be a EcfTable, got SampleSet"),
        ("minimize_contrast", "table must be a EcfTable, got SampleSet"),
        ("contrast_empirical", "table must be a EcfTable, got SampleSet"),
        ("adapt_from_samples", "samples must be a RowSource, got EcfTable"),
        ("plan_lattice", "lattice must be a LatticeSpec, got dict"),
        ("plan_scenario", "scenario must be a ScenarioSpec, got NoneType"),
    ])
    def test_wrong_type_refused(self, uniform_repeated, monkeypatch, case, message):
        grid = make_grid(1.0, (1, 1), 8)
        samples = uniform_repeated.sample(40, seed=3)
        table = ecf_table_for_grid(samples, grid)
        lattice = default_lattice(2, half=2.0, count=5)
        plan = dict(n_list=(12,), replicates=1, kappa_grid=(0.75,), S=1.5)
        calls = {
            "estimate_once": lambda: estimate_once(samples, grid, lattice, kappa=0.75, S=1.5),
            "minimize_contrast": lambda: minimize_module.minimize_contrast(
                samples, grid, UpsilonParams(0.75, 1.5), 2),
            "contrast_empirical": lambda: contrast_empirical(poly_11(2, {}), samples, grid),
            "adapt_from_samples": lambda: adapt_from_samples(
                table, grid, lattice, kappa_grid=(0.75,), S=1.5, beta=1.0),
            "plan_lattice": lambda: ExperimentPlan(
                scenario=uniform_repeated, lattice={"mins": (-1.0, -1.0)}, **plan),
            "plan_scenario": lambda: ExperimentPlan(scenario=None, **plan),
        }
        work = []
        for module, name in ((runner_module, "_degrees"), (runner_module, "ecf_table_for_grid"),
                             (minimize_module, "_ls_init"), (minimize_module, "_descend"),
                             (contrast_module, "pattern_tables")):
            monkeypatch.setattr(module, name, lambda *args: work.append(args))
        with pytest.raises(ConfigError, match=message):
            calls[case]()
        assert work == []


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(7, 1, 2, 3) == cell_seed(7, 1, 2, 3)

    def test_distinct_across_cells(self):
        seeds = {
            cell_seed(7, ni, ki, rep)
            for ni in range(4) for ki in range(4) for rep in range(4)
        }
        assert len(seeds) == 64

    def test_master_seed_matters(self):
        assert cell_seed(1, 0, 0, 0) != cell_seed(2, 0, 0, 0)


class TestResolveDegrees:
    def test_theoretical_follows_rule(self, pointmass_repeated):
        plan = degenerate_plan(pointmass_repeated)
        for n, kappa in ((10**4, 0.75), (10**6, 0.55), (12, 0.75)):
            m_trunc, m_opt = runner_module._degrees(n, kappa, plan.m_opt)
            assert m_trunc == max(m_rule(n, kappa), 1)
            assert m_opt == 2 * m_trunc

    def test_override_halves(self, pointmass_repeated):
        plan = degenerate_plan(pointmass_repeated, tuning_mode="override", m_opt=6)
        assert runner_module._degrees(10**4, 0.75, plan.m_opt) == (3, 6)


class TestRun:
    def test_degenerate_cells_recover_exactly(self, degenerate_report):
        # all-zero observations make both the contrast and the CF error vanish
        assert len(degenerate_report.rows) == 4
        for row in degenerate_report.rows:
            assert row.status == "ok"
            assert row.contrast_value == 0.0
            assert row.cf_box_error == 0.0
            assert row.converged
            assert row.no_density_truth
            assert math.isnan(row.l2_raw) and math.isnan(row.l2_aligned)

    def test_rows_sorted(self, degenerate_report):
        keys = [(r.n, r.kappa, r.replicate) for r in degenerate_report.rows]
        assert keys == sorted(keys)

    def test_plan_summary(self, degenerate_report):
        summary = degenerate_report.plan_summary
        assert summary["variant"] == "repeated"
        assert summary["n_list"] == [12, 24]
        assert summary["kappa_grid"] == [0.75]

    def test_aggregates_attached(self, degenerate_report):
        entry = degenerate_report.aggregates["n=12 kappa=0.75"]
        assert entry["n_ok"] == 2
        assert entry["cf_box_error_median"] == 0.0

    def test_rerun_is_identical(self, pointmass_repeated, degenerate_report):
        again = run(degenerate_plan(pointmass_repeated))
        assert rows_equal(degenerate_report.rows, again.rows)

    def test_alignment_grid_is_positional(self, pointmass_repeated, monkeypatch):
        # window and step go in as arguments 2 and 3, where the benchmark tracer reads them
        calls = record_alignments(monkeypatch, 2)
        run(degenerate_plan(pointmass_repeated, n_list=(12,), replicates=1))
        (args, kwargs), = calls
        assert args[1:] == ("truth", 0.5, 0.05) and kwargs == {}

    def test_exhausted_budget_flags_timeout(self, pointmass_repeated):
        plan = degenerate_plan(pointmass_repeated, n_list=(12,), replicates=1,
                               cell_budget_s=0.0)
        report = run(plan)
        assert [r.status for r in report.rows] == ["timeout"]
        assert report.aggregates["n=12 kappa=0.75"]["n_timeout"] == 1

    def test_budget_is_a_deadline_inside_the_minimizer(self, monkeypatch):
        # d1 = d2 = 2, 12 nodes: no start reaches resolution, so only the
        # deadline stops the first start at its first iterate
        results = []
        real = runner_module.minimize_contrast
        monkeypatch.setattr(runner_module, "minimize_contrast",
                            lambda *args, **kwargs: results.append(real(*args, **kwargs))
                            or results[-1])
        noise = AxisNoise("g_density", 2.0)
        plan = ExperimentPlan(
            scenario=make_repeated(SignalSpec("uniform", (1.0,)), noise, noise, d1=2),
            n_list=(2000,), replicates=1, kappa_grid=(0.75,), S=1.5, nodes_per_axis=12,
            tuning_mode="override", m_opt=4, lattice=default_lattice(4, count=5),
            cell_budget_s=0.0,
        )
        report = run(plan)
        (res,) = results
        assert res.restarts_used == 1 and res.reasons == ("deadline",)
        assert res.trace.shape == (2,)
        assert [r.status for r in report.rows] == ["timeout"]


class TestAggregates:
    def test_median_and_iqr(self):
        rows = [make_row(100, cf=v, replicate=i) for i, v in enumerate((1.0, 2.0, 5.0))]
        entry = compute_aggregates(rows)["n=100 kappa=0.75"]
        assert entry["n_ok"] == 3
        assert entry["cf_box_error_median"] == 2.0
        assert entry["cf_box_error_iqr"] == pytest.approx(2.0)

    def test_status_counting(self):
        rows = [
            make_row(100, replicate=0),
            make_row(100, replicate=1, status="error", cf=float("nan")),
            make_row(100, replicate=2, status="timeout"),
        ]
        entry = compute_aggregates(rows)["n=100 kappa=0.75"]
        assert (entry["n_ok"], entry["n_error"], entry["n_timeout"]) == (1, 1, 1)

    def test_all_failed_cell_has_nan_medians(self):
        rows = [make_row(50, status="error", cf=float("nan"))]
        entry = compute_aggregates(rows)["n=50 kappa=0.75"]
        assert entry["n_ok"] == 0
        assert math.isnan(entry["cf_box_error_median"])


class TestFitRate:
    def synthetic_report(self, slope, kappa=0.75, jitter=(0.98, 0.99, 1.0, 1.01, 1.02)):
        rows = []
        for n in (10**3, 10**4, 10**5):
            for i, j in enumerate(jitter):
                rows.append(make_row(n, kappa=kappa, replicate=i,
                                     cf=2.0 * n**slope * j))
        return ExperimentReport(plan_summary={}, rows=tuple(rows))

    def test_recovers_quarter_rate(self):
        fit = fit_rate(self.synthetic_report(-0.25))
        assert fit.slope == pytest.approx(-0.25, abs=0.02)
        assert fit.ci_low <= -0.25 <= fit.ci_high
        assert fit.n_points == 3

    def test_constant_quantity_has_zero_slope(self):
        fit = fit_rate(self.synthetic_report(0.0, jitter=(1.0,) * 5))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_kappa_filter(self):
        fast = self.synthetic_report(-0.5, kappa=1.0)
        mixed = ExperimentReport(
            plan_summary={},
            rows=self.synthetic_report(-0.25, kappa=0.6).rows + fast.rows,
        )
        assert fit_rate(mixed, kappa=1.0).slope == pytest.approx(-0.5, abs=0.02)
        assert fit_rate(mixed, kappa=0.6).slope == pytest.approx(-0.25, abs=0.02)

    def test_zero_errors_are_degenerate(self):
        report = self.synthetic_report(0.0, jitter=(0.0,) * 5)
        with pytest.raises(ConfigError, match="no rate to fit"):
            fit_rate(report)

    def test_needs_three_sizes(self):
        rows = tuple(make_row(n) for n in (100, 1000))
        with pytest.raises(ConfigError):
            fit_rate(ExperimentReport(plan_summary={}, rows=rows))

    def test_unknown_quantity(self):
        with pytest.raises(ConfigError):
            fit_rate(self.synthetic_report(-0.25), quantity="wall_time")


def record_estimates(monkeypatch):
    """Record (table, stop level of each start, outcome) of every
    estimate_once call."""
    calls, minimize, estimate = [], runner_module.minimize_contrast, runner_module.estimate_once
    descend = minimize_module._descend

    def minimize_recorded(table, *args, **kwargs):
        calls.append([table, []])
        return minimize(table, *args, **kwargs)

    def descend_recorded(moments, start, box, tol, deadline):
        calls[-1][1].append(tol)
        return descend(moments, start, box, tol, deadline)

    def estimate_recorded(*args, **kwargs):
        out = estimate(*args, **kwargs)
        calls[-1].append(out)
        return out

    monkeypatch.setattr(runner_module, "minimize_contrast", minimize_recorded)
    monkeypatch.setattr(minimize_module, "_descend", descend_recorded)
    monkeypatch.setattr(runner_module, "estimate_once", estimate_recorded)
    return calls


class TestEstimateOnce:
    def test_smoke(self, uniform_repeated, grid24):
        samples = uniform_repeated.sample(200, seed=42)
        lattice = default_lattice(2, half=2.0, count=9)
        out = estimate_once(ecf_table_for_grid(samples, grid24), grid24, lattice,
                            kappa=0.75, S=1.5, seed=3)
        assert out.m_opt == 2 * out.m_trunc
        assert out.omega > 0
        assert out.density.lattice == lattice
        assert math.isfinite(out.result.value) and out.result.value >= 0

    def test_table_from_another_grid_refused(self, uniform_repeated, grid24, monkeypatch):
        starts = []
        for name in ("_ls_init", "_descend"):
            monkeypatch.setattr(minimize_module, name, lambda *a: starts.append(a))
        grid12 = make_grid(1.0, (1, 1), 12)
        table = ecf_table_for_grid(uniform_repeated.sample(100, seed=1), grid12)
        with pytest.raises(ConfigError, match="different grid"):
            estimate_once(table, grid24, default_lattice(2), kappa=0.75, S=1.5, m_opt=4)
        assert starts == []

    def test_degrees_and_tolerance_follow_the_table(self, uniform_repeated, grid24,
                                                    monkeypatch):
        # at kappa 0.3 the rule's degree is 2 at n = 30 and 1 at n = 60: the
        # pooled table of two halves is estimated at the whole sample's n
        samples = uniform_repeated.sample(60, seed=5)
        halves = [ecf_table_for_grid(SampleSet(1, 1, samples.data[rows]), grid24)
                  for rows in (slice(0, 30), slice(30, 60))]
        assert (m_rule(30, 0.3), m_rule(60, 0.3)) == (2, 1)
        calls = record_estimates(monkeypatch)
        lattice = default_lattice(2, half=2.0, count=5)
        for table, m_trunc in ((halves[0], 2), (pooled(*halves), 1)):
            out = runner_module.estimate_once(table, grid24, lattice, kappa=0.3, S=1.5,
                                              restarts=1)
            assert (out.m_trunc, out.m_opt) == (m_trunc, 2 * m_trunc)
            assert calls[-1][1] == [RESOLUTION / table.n]
        assert [table.n for table, *_ in calls] == [30, 60]

    def test_adapt_full_estimate_is_the_pooled_table(self, uniform_repeated, grid24,
                                                     monkeypatch):
        # adapt_from_samples' full-sample estimates are estimate_once on the
        # pooled table of the sample's two index halves, bit for bit
        samples = uniform_repeated.sample(61, seed=7)
        lattice = default_lattice(2, half=2.0, count=9)
        calls = record_estimates(monkeypatch)
        outcome = adapt_from_samples(samples, grid24, lattice, kappa_grid=(0.55, 1.0),
                                     S=1.5, beta=1.0, restarts=2, seed=3)
        table = pooled(*(ecf_table_for_grid(SampleSet(1, 1, samples.data[rows]), grid24)
                         for rows in (slice(0, 30), slice(30, 61))))
        assert [table.n for table, *_ in calls] == [30, 31, 61] * 2
        for kappa, (_, _, full) in zip((0.55, 1.0), calls[2::3]):
            out = estimate_once(table, grid24, lattice, kappa=kappa, S=1.5, restarts=2, seed=3)
            assert out.result.value == full.result.value
            np.testing.assert_array_equal(out.result.estimate.theta, full.result.estimate.theta)
            np.testing.assert_array_equal(out.density.values, outcome.full[kappa].values)

    def test_override_degree(self, uniform_repeated, grid24):
        table = ecf_table_for_grid(uniform_repeated.sample(100, seed=1), grid24)
        out = estimate_once(table, grid24, default_lattice(2, half=2.0, count=9),
                            kappa=0.75, S=1.5, m_opt=4)
        assert (out.m_trunc, out.m_opt) == (2, 4)

    @pytest.mark.parametrize("nu", [0.002, 1.0])
    def test_window_follows_the_grid_nu(self, uniform_repeated, nu):
        # c_kappa = min(nu, 2 kappa e^{-11/2}) = min(nu, 0.00613): the grid's
        # nu sets the window where it is below the constant cap
        grid = make_grid(nu, (1, 1), 8)
        table = ecf_table_for_grid(uniform_repeated.sample(100, seed=1), grid)
        out = estimate_once(table, grid, default_lattice(2, half=2.0, count=5),
                            kappa=0.75, S=1.5, m_opt=4, restarts=1)
        assert out.omega == omega_rule(2, 0.75, 1.5, nu, 2)

    # the same floor as ExperimentPlan's override tuning, and the same
    # conversion as MinimizeConfig's: 2.5 is not read as degree 2, nor True as 1
    @pytest.mark.parametrize("m_opt, message", [
        (1, "m_opt must be >= 2"), (2.5, "m_opt must be a int, got 2.5"),
        (True, "m_opt must be a int, got True"),
    ])
    def test_override_degree_refused(self, uniform_repeated, grid24, m_opt, message):
        table = ecf_table_for_grid(uniform_repeated.sample(100, seed=1), grid24)
        with pytest.raises(ConfigError, match=message):
            estimate_once(table, grid24, default_lattice(2, half=2.0, count=9),
                          kappa=0.75, S=1.5, m_opt=m_opt)

    def test_theta_independent_of_openblas_threads(self):
        # the ECF's and the contrast's products run with every OpenBLAS pool
        # held at one thread, so the pool size the process starts with
        # changes no bit (it did at 2 threads against 1 before the hold)
        src = str(Path(cfdeconv.__file__).resolve().parents[1])
        thetas = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", _THETA_HEX], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            thetas.append(proc.stdout.strip())
        assert thetas[0] and thetas[0] == thetas[1]

    def test_deconvolution_guard(self):
        # the benchmark's ICA scenario with Laplace(0.7) noise, which flattens
        # |phi_Y| well below |phi_R| on the box.  The stop at resolution must
        # not trade accuracy for speed: the modulus error (blind to the shift
        # the contrast cannot see) stays far under the undeconvolved ECF's
        # 0.476-0.480.  Measured on seeds 100-119, not used to choose
        # RESOLUTION or FTOL: 0.021-0.177 (median 0.096); the projected
        # gradient this solver replaced reached 0.376 on seed 105 and 0.577
        # on seed 114, and the least-squares start alone scores 0.71.
        sources = SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (0.5,))
        noise = AxisNoise("laplace", 0.7)
        scenario = make_ica(sources, [[1.0, 0.5], [0.5, 1.0]], noise, noise, d1=1)
        grid = make_grid(1.0, (1, 1), 48)
        truth = np.abs(scenario.oracle().tables(grid)[0])

        def modulus_error(table):
            return math.sqrt(grid.w1 @ (np.abs(table) - truth) ** 2 @ grid.w2)

        errors = []
        for seed in range(100, 110):
            table = ecf_table_for_grid(scenario.sample(200_000, seed), grid)
            assert modulus_error(table.full) > 0.47
            out = estimate_once(table, grid, default_lattice(2, count=9), kappa=0.9,
                                S=1.5, m_opt=6, seed=seed)
            errors.append(modulus_error(poly_tables(out.result.estimate, grid)[0]))
        assert max(errors) <= 0.25


class TestAdaptive:
    def test_adapt_from_samples_smoke(self, uniform_repeated, grid24):
        samples = uniform_repeated.sample(30, seed=7)
        outcome = adapt_from_samples(
            samples, grid24, default_lattice(2, half=2.0, count=9),
            kappa_grid=(0.55, 1.0), S=1.5, beta=1.0,
        )
        assert outcome.kappa_hat in (0.55, 1.0)
        assert outcome.c_sigma >= 1e-12
        assert sorted(outcome.sigma_at) == [0.55, 1.0]
        assert outcome.chosen is outcome.full[outcome.kappa_hat]
        assert {r.kappa for r in outcome.selection.rows} == {0.55, 1.0}

    def test_sample_too_small_to_split(self, uniform_repeated, grid24):
        # each half of 23 observations has 11, below m_rule's floor of 12;
        # the refusal names the sample's own size
        kwargs = dict(kappa_grid=(0.75,), S=1.5, beta=1.0)
        with pytest.raises(ConfigError, match="n >= 24.* 23 observations"):
            adapt_from_samples(uniform_repeated.sample(23, seed=7), grid24,
                               default_lattice(2), **kwargs)
        outcome = adapt_from_samples(uniform_repeated.sample(24, seed=7), grid24,
                                     default_lattice(2, half=2.0, count=5), **kwargs)
        assert outcome.kappa_hat == 0.75

    @pytest.mark.parametrize("kappa_grid, message", [
        ((), "nonempty"), ((0.6, 0.6), "duplicate"), ((0.6, 1.5), "lie in"),
        (("x",), "kappa_grid must be a float"), ((0.6, True), "kappa_grid must be a float"),
    ])
    def test_kappa_grid_checked_before_work(self, uniform_repeated, grid24, monkeypatch,
                                            kappa_grid, message):
        # the selector's checks, made before any ECF table or estimate
        work = []
        monkeypatch.setattr(runner_module, "ecf_table_for_grid", lambda *a: work.append(a))
        samples = uniform_repeated.sample(30, seed=7)
        with pytest.raises(ConfigError, match=message):
            adapt_from_samples(samples, grid24, default_lattice(2),
                               kappa_grid=kappa_grid, S=1.5, beta=1.0)
        assert work == []

    def test_plan_refuses_duplicate_kappas_before_sampling(self, uniform_repeated,
                                                           monkeypatch):
        draws = []
        monkeypatch.setattr(type(uniform_repeated), "sample", lambda *a: draws.append(a))
        with pytest.raises(ConfigError, match="duplicate"):
            plan = ExperimentPlan(
                scenario=uniform_repeated, n_list=(30,), replicates=1,
                kappa_grid=(0.6, 0.6), S=1.5, nodes_per_axis=24,
            )
            adaptive_run(plan, 30, seed=7)
        assert draws == []

    def test_alignment_grid_is_positional(self, uniform_repeated, monkeypatch):
        calls = record_alignments(monkeypatch, 2)
        plan = ExperimentPlan(
            scenario=uniform_repeated, n_list=(30,), replicates=1,
            kappa_grid=(0.55, 1.0), S=1.5, nodes_per_axis=24,
            lattice=default_lattice(2, half=2.0, count=9),
        )
        adaptive_run(plan, 30, seed=7)
        (args, kwargs), = calls
        assert args[1:] == ("truth", 0.5, 0.05) and kwargs == {}

    def test_adaptive_run_refuses_override_plan(self, uniform_repeated):
        # the adaptive pass runs every candidate at the theoretical degrees
        plan = ExperimentPlan(
            scenario=uniform_repeated, n_list=(30,), replicates=1,
            kappa_grid=(0.55, 1.0), S=1.5, nodes_per_axis=24, tuning_mode="override",
            m_opt=6, lattice=default_lattice(2, half=2.0, count=9),
        )
        with pytest.raises(ConfigError, match="override"):
            adaptive_run(plan, 30, seed=7)

    @pytest.mark.parametrize("variant", ["ica", "repeated"])
    def test_adaptive_run_is_adapt_from_samples_of_the_sample(self, variant, monkeypatch):
        # the streamed halves (the head ending 1,808 rows into a run, off
        # every row block and chunk edge) give the materialized sample's
        # cell and every estimate's bits
        laplace, gaussian = AxisNoise("laplace", 0.3), AxisNoise("gaussian", 0.2)
        uniform = SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (0.5,))
        if variant == "ica":
            scenario = make_ica(uniform, [[1.0, 0.5], [0.5, 1.0]], laplace, laplace, d1=1)
            n, nodes = 2 * (1 << 15) + 3617, 12
        else:
            scenario = make_repeated(SignalSpec("compact_bump", (0.5, 2.0)),
                                     [gaussian, laplace], [laplace, gaussian], d1=2)
            n, nodes = 3001, 6
        plan = ExperimentPlan(scenario=scenario, n_list=(n,), replicates=1,
                              kappa_grid=(0.6, 0.9), S=1.5, nodes_per_axis=nodes, seed=3,
                              lattice=default_lattice(scenario.d, half=2.0, count=5))
        outcomes, real = [], runner_module.estimate_once
        monkeypatch.setattr(runner_module, "estimate_once",
                            lambda *a, **k: outcomes.append(real(*a, **k)) or outcomes[-1])
        cell = adaptive_run(plan, n, 3)
        grid = make_grid(plan.nu, (scenario.d1, scenario.d2), nodes)
        outcome = adapt_from_samples(scenario.sample(n, 3), grid, plan.lattice,
                                     kappa_grid=plan.kappa_grid, S=plan.S, beta=plan.beta,
                                     restarts=plan.restarts, seed=3)
        truth = scenario.density_truth()
        shift, aligned = ((0.0,) * scenario.d, math.nan) if truth is None else \
            translation_align(outcome.chosen, truth, ALIGN_WINDOW, ALIGN_STEP)
        want = AdaptiveCell(n=n, seed=3, kappa_hat=outcome.kappa_hat, c_sigma=outcome.c_sigma,
                            sigma_at=outcome.sigma_at, aligned_error=aligned, shift=tuple(shift),
                            rows=outcome.selection.rows)
        assert repr(cell) == repr(want)
        streamed, whole = outcomes[: len(outcomes) // 2], outcomes[len(outcomes) // 2 :]
        assert [o.density.values.tobytes() for o in streamed] == \
            [o.density.values.tobytes() for o in whole]
        assert [o.result.estimate.theta.tobytes() for o in streamed] == \
            [o.result.estimate.theta.tobytes() for o in whole]

    def test_streamed_peak_does_not_grow_with_n(self):
        # the sample is never held whole: one ICA pass at n = 1e6 peaks
        # within 1 MiB of its peak at 4e5, and at most half the peak of the
        # same selection on the materialized sample
        noise = AxisNoise("uniform", 0.3)
        scenario = make_ica((SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (0.5,))),
                            [[1.0, 0.5], [0.5, 1.0]], noise, noise, d1=1)
        plan = ExperimentPlan(scenario=scenario, n_list=(10**6,), replicates=1,
                              kappa_grid=(0.6, 0.9), S=1.5, nodes_per_axis=16, seed=5,
                              lattice=default_lattice(2, count=9))
        grid = make_grid(plan.nu, (1, 1), 16)
        adaptive_run(plan, 3000, 5)  # the cached samplers and rules, outside the trace

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = (peak(lambda: adaptive_run(plan, n, 5)) for n in (400_000, 10**6))
        whole = peak(lambda: adapt_from_samples(scenario.sample(10**6, 5), grid, plan.lattice,
                                                kappa_grid=plan.kappa_grid, S=1.5, beta=1.0,
                                                seed=5))
        assert abs(large - small) <= 2**20
        assert large <= 0.5 * whole

    def test_adaptive_run_without_truth(self, uniform_repeated):
        plan = ExperimentPlan(
            scenario=uniform_repeated, n_list=(30,), replicates=1,
            kappa_grid=(0.55, 1.0), S=1.5, nodes_per_axis=24,
            lattice=default_lattice(2, half=2.0, count=9),
        )
        cell = adaptive_run(plan, 30, seed=7)
        assert cell.kappa_hat in (0.55, 1.0)
        assert math.isnan(cell.aligned_error)
        assert cell.shift == (0.0, 0.0)


# every numeric config value is converted where it enters, as ExperimentPlan's
# are: one that does not convert is a ConfigError naming its key, not a bare
# TypeError from the first comparison or numpy call it reaches
@pytest.mark.parametrize("key, call", [
    pytest.param("nu", lambda samples, grid: make_grid("one", (1, 1), 12), id="make_grid-nu"),
    pytest.param("nodes_per_axis", lambda samples, grid: make_grid(1.0, (1, 1), 12.5),
                 id="make_grid-nodes"),
    pytest.param("dims", lambda samples, grid: make_grid(1.0, (1, "x"), 12), id="make_grid-dims"),
    pytest.param("S", lambda samples, grid: UpsilonParams(0.5, "two"), id="UpsilonParams"),
    pytest.param("laplace noise param", lambda samples, grid: AxisNoise("laplace", "half"),
                 id="AxisNoise"),
    pytest.param("uniform signal half_width",
                 lambda samples, grid: SignalSpec("uniform", ("one",)), id="SignalSpec"),
    pytest.param("beta", lambda samples, grid: sigma_rule(100, 0.5, "one", 1.0),
                 id="sigma_rule"),
    pytest.param("beta", lambda samples, grid: adapt_from_samples(
        samples, grid, default_lattice(2), kappa_grid=(0.6,), S=1.5, beta="one"),
                 id="adapt_from_samples"),
    pytest.param("kappa", lambda samples, grid: estimate_once(
        ecf_table_for_grid(samples, grid), grid, default_lattice(2), kappa="half", S=1.5),
                 id="estimate_once"),
])
def test_unconvertible_config_value_names_its_key(uniform_repeated, grid24, monkeypatch,
                                                  key, call):
    samples = uniform_repeated.sample(30, seed=1)
    estimates = []
    monkeypatch.setattr(runner_module, "minimize_contrast", lambda *a: estimates.append(a))
    with pytest.raises(ConfigError, match=f"^{key} must be a"):
        call(samples, grid24)
    assert estimates == []


def test_numeric_config_strings_convert_to_the_same_values():
    assert UpsilonParams(0.5, "2") == UpsilonParams(0.5, 2.0)
    assert AxisNoise("laplace", "0.5") == AxisNoise("laplace", 0.5)
    assert SignalSpec("uniform", ["1"]) == SignalSpec("uniform", (1.0,))
    assert make_grid("1", (1, 1), "12").grid_id == make_grid(1.0, (1, 1), 12).grid_id
    assert sigma_rule(100, 0.5, "1", 1.0) == sigma_rule(100, 0.5, 1.0, 1.0)
