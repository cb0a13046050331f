"""The package's export table: what `cfdeconv` exports and how a name
resolves on first access."""

import importlib

import pytest

import cfdeconv

EXPORTS = set("""
    AdaptiveCell AdaptiveOutcome AxisNoise BoundReport CellResult CensusResult
    ConfigError DensityGrid DensityTruth EcfTable EstimateOutcome ExperimentPlan
    ExperimentReport LatticeSpec LeCamReport LowerBoundInstance
    MinimizeResult NumericalError OracleModel QuadratureGrid RateFit SampleSet
    ScenarioSpec SelectionReport SelectionRow SignalSpec TaylorPoly TwoPoint
    UpsilonParams WeightSpec WeightedBasis adapt_from_samples adaptive adaptive_run
    bound_suite build_two_point build_weighted_basis cell_seed census_protocol
    cf_box_error change_of_basis class_sup_bound compute_aggregates conjecture_lab
    contrast contrast_empirical contrast_gradient contrast_oracle default_lattice ecf
    ecf_on_grid ecf_table_for_grid estimate_once evaluate f_kappa fit_rate
    from_json_record grid_convolve h_kappa_eval interval_census invert l2_distance
    lecam_value legendre_bounds legendre_eval m_rule make_eiv make_grid make_ica
    make_instance make_repeated make_two_point master_grid minimize minimize_contrast
    mollifier_eval multiindex_taylor noise_g omega_rule pilot_c_sigma poly_tables
    project_upsilon psi_sum random_member reconstruct run runner scaled_profile
    scenarios select_kappa sigma1_bound sigma_rule smoothness_integral to_json_record
    translation_align truncate truncation_sup_bound truth_l2 upsilon_bound
""".split())


def test_all_is_the_pinned_export_set():
    assert len(cfdeconv.__all__) == len(EXPORTS)
    assert set(cfdeconv.__all__) == EXPORTS


def test_every_export_resolves_to_its_submodule_object():
    for name in cfdeconv.__all__:
        value = getattr(cfdeconv, name)
        if name in cfdeconv._EXPORTS:
            assert value is importlib.import_module("cfdeconv." + name)
        else:
            module = importlib.import_module("cfdeconv." + cfdeconv._ORIGIN[name])
            assert value is getattr(module, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cfdeconv import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    assert namespace["estimate_once"] is cfdeconv.runner.estimate_once


def test_dir_lists_every_export():
    assert set(dir(cfdeconv)) >= set(cfdeconv.__all__)


def test_submodule_resolves_without_its_import(monkeypatch):
    monkeypatch.delattr(cfdeconv, "runner")
    assert "runner" not in vars(cfdeconv)
    assert cfdeconv.runner is importlib.import_module("cfdeconv.runner")


def test_name_is_cached_on_first_access(monkeypatch):
    monkeypatch.delitem(vars(cfdeconv), "lecam_value", raising=False)
    value = cfdeconv.lecam_value
    assert vars(cfdeconv)["lecam_value"] is value is cfdeconv.conjecture_lab.lecam_value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cfdeconv.no_such_name
    assert not hasattr(cfdeconv, "no_such_name")
    with pytest.raises(ImportError):
        exec("from cfdeconv import no_such_name", {})


def test_patched_attribute_round_trips(monkeypatch):
    # the benchmark's tracer wraps package attributes and puts them back
    monkeypatch.delitem(vars(cfdeconv), "run", raising=False)
    original = getattr(cfdeconv, "run")

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    setattr(cfdeconv, "run", wrapped)
    namespace = {}
    exec("from cfdeconv import run", namespace)
    assert cfdeconv.run is wrapped and namespace["run"] is wrapped
    setattr(cfdeconv, "run", original)
    assert cfdeconv.run is original is cfdeconv.runner.run
