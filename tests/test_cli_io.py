"""CLI and persistence tests: schemas, exit codes, artifacts, reruns.

Every subcommand runs in-process through cli() against a temp directory,
so these tests cover the argv surface, the closed config schemas, and the
byte-stability contract of the written artifacts.
"""

import contextlib
import copy
import csv
import dataclasses
import filecmp
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cfdeconv
from cfdeconv import cli_io, legendre_bounds
from cfdeconv._util import ConfigError, content_hash, fmt17
from cfdeconv.cli_io import (
    build_profile_panels,
    cli,
    emit_figure_data,
    load_density,
    load_poly,
    load_report_rows,
    save_density,
    save_report,
    scenario_from_config,
)
from cfdeconv.ecf import SampleSet, export_csv
from cfdeconv.multiindex_taylor import TaylorPoly, to_json_record
from cfdeconv.reconstruct import DensityGrid, LatticeSpec
from cfdeconv.runner import CellResult, ExperimentReport

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

GOLDEN_FIGURES = Path(__file__).parent / "golden" / "figures"

# SIMD targets numpy may dispatch float64 ufuncs to on this CPU
DISPATCH_TARGETS = [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]

# prints the dispatch targets still enabled, then the golden panels' digest
_PROFILE_DIGEST = """
try:
    from numpy._core import _multiarray_umath as m
except ImportError:
    from numpy.core import _multiarray_umath as m
from cfdeconv._util import content_hash
from cfdeconv.cli_io import build_profile_panels
print([t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)])
panels = build_profile_panels([0.55], [8], ["stretch", "squeeze"])
print(content_hash(*(p["value"] for p in panels)))
"""

POINTMASS_SCENARIO = {
    "variant": "repeated",
    "d1": 1,
    "signal": {"kind": "point_mass", "params": [0.0]},
    "noise1": {"kind": "point_mass"},
    "noise2": {"kind": "point_mass"},
}

SMALL_LATTICE = {"mins": [-2.0, -2.0], "maxs": [2.0, 2.0], "counts": [9, 9]}

# lattice values as strings; split into characters they read as a 2-D lattice
STRING_LATTICE = {"mins": "00", "maxs": "11", "counts": "22"}

# the smallest valid config of each command, without samples and out_dir
LIST_KEY_BASE = {
    "simulate": {"scenario": POINTMASS_SCENARIO, "n": 5},
    "experiment": {"scenario": POINTMASS_SCENARIO, "n_list": [12], "replicates": 1,
                   "kappa_grid": [0.75], "S": 1.5},
    "estimate": {"d1": 1, "d2": 1, "kappa": 0.75, "S": 1.5},
    "adapt": {"d1": 1, "d2": 1, "kappa_grid": [0.75], "S": 1.5},
    "conjecture": {"kappa_list": [0.75], "K_list": [2], "K_max": 8},
    "bounds-check": {"m_list": [2], "d_list": [1], "n_members": 2, "member_degree": 4},
}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args):
    """Invoke the CLI in-process, returning (exit_code, stderr_text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli(args)
    return rc, err.getvalue()


def zero_samples(tmp_path, n):
    path = tmp_path / "samples.csv"
    path.write_text("y1,y2\n" + "0,0\n" * n)
    return str(path)


def make_row(n, **overrides):
    fields = dict(
        n=n, kappa=0.75, replicate=0, seed=0, status="ok",
        contrast_value=0.1, cf_box_error=1.0, l2_raw=float("nan"),
        l2_aligned=float("nan"), shift=(0.0, 0.0), m_trunc=1, m_opt=2,
        omega=1.0, no_density_truth=True, converged=True,
    )
    fields.update(overrides)
    return CellResult(**fields)


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


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        rc, err = run_cli(["estimate", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no such file" in err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, err = run_cli(["estimate", str(path)])
        assert rc == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("name, content", [("dir", None), ("latin1.json", b"\xff\xfe{")])
    def test_unreadable_config(self, tmp_path, name, content):
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        rc, err = run_cli(["simulate", str(path)])
        assert rc == 2
        assert err.startswith("config error") and "invalid JSON" in err

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        rc, err = run_cli(["estimate", str(path)])
        assert rc == 2
        assert "JSON object" in err

    def test_unknown_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {})
        rc, _ = run_cli(["frobnicate", cfg])
        assert rc == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "samples": zero_samples(tmp_path, 12), "d1": 1, "d2": 1,
            "kappa": 0.75, "S": 1.5, "out_dir": str(tmp_path / "out"),
            "typo_key": 1,
        })
        rc, err = run_cli(["estimate", cfg])
        assert rc == 2
        assert "unknown config keys" in err and "typo_key" in err

    def test_missing_required_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "samples": zero_samples(tmp_path, 12), "d1": 1, "d2": 1,
            "kappa": 0.75, "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["estimate", cfg])
        assert rc == 2
        assert "missing config keys" in err and "S" in err

    def test_kappa_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "samples": zero_samples(tmp_path, 12), "d1": 1, "d2": 1,
            "kappa": 1.5, "S": 1.5, "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["estimate", cfg])
        assert rc == 2
        assert "kappa" in err

    def test_missing_samples_file(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "samples": str(tmp_path / "ghost.csv"), "d1": 1, "d2": 1,
            "kappa": 0.75, "S": 1.5, "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["estimate", cfg])
        assert rc == 2
        assert "config error" in err

    def test_wrong_sample_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0\n")
        cfg = write_config(tmp_path, "c.json", {
            "samples": str(path), "d1": 1, "d2": 1,
            "kappa": 0.75, "S": 1.5, "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["estimate", cfg])
        assert rc == 2
        assert "header" in err

    @pytest.mark.parametrize("extra", [
        {"S": "abc"}, {"nu": "x"}, {"m_opt": "x"}, {"m_opt": 1}, {"restarts": "x"},
        {"seed": -1}, {"lattice": {"mins": [-1.0], "maxs": [1.0], "counts": [5]}},
    ])
    def test_estimate_bad_value_opens_no_run_dir(self, tmp_path, extra):
        cfg = write_config(tmp_path, "c.json", dict({
            "samples": zero_samples(tmp_path, 12), "d1": 1, "d2": 1,
            "kappa": 0.75, "S": 1.5, "out_dir": str(tmp_path / "out"),
        }, **extra))
        rc, err = run_cli(["estimate", cfg])
        assert rc == 2
        assert err.startswith("config error") and next(iter(extra)) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [
        {"S": "abc"}, {"cell_budget_s": "x"}, {"nodes": 1},
        {"tuning": {"mode": "theoretical", "m_opt": 6}},
        {"lattice": {"mins": [-1.0], "maxs": [1.0], "counts": [5]}},
    ])
    def test_experiment_bad_value_opens_no_run_dir(self, tmp_path, extra):
        cfg = write_config(tmp_path, "exp.json", dict({
            "scenario": POINTMASS_SCENARIO, "n_list": [12], "replicates": 1,
            "kappa_grid": [0.75], "S": 1.5, "out_dir": str(tmp_path / "out"),
        }, **extra))
        rc, err = run_cli(["experiment", cfg])
        assert rc == 2
        assert err.startswith("config error")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, key", [
        (dict(POINTMASS_SCENARIO, noise1={"kind": "point_mass", "param": "x"}),
         "noise.param"),
        (dict(POINTMASS_SCENARIO, signal={"kind": "point_mass", "params": ["x"]}),
         "signal.params"),
        ({"variant": "two_point", "two_point": {"kappa": 0.75, "n": 1000, "c_b": "x"},
          "noise1": {"kind": "point_mass"}, "noise2": {"kind": "point_mass"}},
         "two_point.c_b"),
    ])
    def test_non_numeric_scenario_value(self, tmp_path, scenario, key):
        cfg = write_config(tmp_path, "sim.json", {
            "scenario": scenario, "n": 5, "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["simulate", cfg])
        assert rc == 2
        assert err.startswith("config error") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, key", [
        ("experiment", {"scenario": {
            "variant": "two_point", "two_point": {"kappa": 0.75, "n": 1000},
            "noise1": {"kind": "point_mass"}, "noise2": {"kind": "point_mass"},
            "perturbed": "no"}, "n_list": [12], "replicates": 1, "kappa_grid": [0.75],
            "S": 1.5}, "scenario.perturbed"),
        ("simulate", {"scenario": {
            "variant": "two_point", "two_point": {"kappa": 0.75, "n": 1000},
            "noise1": {"kind": "point_mass"}, "noise2": {"kind": "point_mass"},
            "perturbed": 1}, "n": 5}, "scenario.perturbed"),
        ("conjecture", {"kappa_list": [0.75], "K_list": [2], "K_max": 16,
                        "census": "no"}, "census"),
    ])
    def test_non_boolean_flag(self, tmp_path, command, cfg, key):
        # bool("no") is True: only JSON true/false may switch a flag
        path = write_config(tmp_path, "c.json", dict(cfg, out_dir=str(tmp_path / "out")))
        rc, err = run_cli([command, path])
        assert rc == 2
        assert err.startswith("config error") and f"{key} must be true or false" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, section, key", [
        ("simulate", {"scenario": dict(POINTMASS_SCENARIO, noise1={
            "kind": "point_mass", "centered": True}), "n": 5}, "noise", "centered"),
        ("adapt", {"samples": "unread.csv", "d1": 1, "d2": 1, "kappa_grid": [0.75],
                   "S": 1.5, "align_window": 0.5}, "adapt", "align_window"),
        ("adapt", {"samples": "unread.csv", "d1": 1, "d2": 1, "kappa_grid": [0.75],
                   "S": 1.5, "align_step": 0.05}, "adapt", "align_step"),
        # each scenario variant takes only its own keys
        ("simulate", {"scenario": dict(POINTMASS_SCENARIO, mixing=[[1.0]]), "n": 5},
         "repeated scenario", "mixing"),
        ("simulate", {"scenario": dict(POINTMASS_SCENARIO, sources=[], link="identity"),
                      "n": 5}, "repeated scenario", "link, sources"),
        ("simulate", {"scenario": dict(POINTMASS_SCENARIO, variant="eiv", d1=1), "n": 5},
         "eiv scenario", "d1"),
        # keys of implementation constants: the alignment grid, an experiment's
        # beta (only adapt reads one) and the basis's panel rule
        *[("experiment", dict(LIST_KEY_BASE["experiment"], **{key: value}), "experiment", key)
          for key, value in (("align_window", 0.5), ("align_step", 0.05), ("beta", 1.0))],
        *[("conjecture", dict(LIST_KEY_BASE["conjecture"], **{key: value}), "conjecture", key)
          for key, value in (("panels", 24), ("nodes", 40))],
        # the inversion window's constant is fixed by the paper's rule
        *[(command, dict(LIST_KEY_BASE[command], samples="unread.csv", c_kappa=0.001),
           command, "c_kappa") for command in ("estimate", "adapt")],
        ("experiment", dict(LIST_KEY_BASE["experiment"], c_kappa=0.001), "experiment",
         "c_kappa"),
    ])
    def test_key_nothing_reads_is_rejected(self, tmp_path, command, cfg, section, key):
        path = write_config(tmp_path, "c.json", dict(cfg, out_dir=str(tmp_path / "out")))
        rc, err = run_cli([command, path])
        assert rc == 2
        assert f"unknown config keys in {section}: {key}\n" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, message", [
        (dict(POINTMASS_SCENARIO, signal=5), "signal must be a JSON object"),
        (dict(POINTMASS_SCENARIO, noise1="uniform"), "noise must be a JSON object"),
        (dict(POINTMASS_SCENARIO, noise2=[{"kind": "point_mass"}, 3]),
         "noise must be a JSON object"),
        ("repeated", "scenario must be a JSON object"),
        ({k: v for k, v in POINTMASS_SCENARIO.items() if k != "signal"},
         "missing config keys in repeated scenario: signal"),
        ({"d1": 1}, "missing config keys in scenario: variant"),
        (dict(POINTMASS_SCENARIO, variant=["repeated"]), "unknown scenario variant"),
        (dict(POINTMASS_SCENARIO, signal={"kind": "point_mass", "params": []}),
         "point_mass signal needs params (location), got 0 values"),
        (dict(POINTMASS_SCENARIO, signal={"kind": "compact_bump", "params": [1.0]}),
         "compact_bump signal needs params (half_width, b), got 1 values"),
        (dict(POINTMASS_SCENARIO, signal={"kind": "uniform", "params": [-1.0]}),
         "uniform signal half_width must be positive"),
        (dict(POINTMASS_SCENARIO, signal={"kind": "compact_bump", "params": [1.0, 0.0]}),
         "compact_bump signal b must be positive"),
        (dict(POINTMASS_SCENARIO, signal={"kind": "uniform", "params": 5}),
         "signal.params must be a tuple"),
        ({"variant": "ica", "sources": [{"kind": "uniform", "params": [1.0]}] * 2,
          "mixing": [[1.0, "a"], [0.5, 1.0]],
          "noise1": {"kind": "point_mass"}, "noise2": {"kind": "point_mass"}},
         "scenario.mixing must be a matrix of numbers"),
        ({"variant": "ica", "sources": [{"kind": "uniform", "params": [1.0]}] * 2,
          "mixing": [[1.0, 0.5], [0.5]],
          "noise1": {"kind": "point_mass"}, "noise2": {"kind": "point_mass"}},
         "scenario.mixing must be a matrix of numbers"),
        ({"variant": "ica", "sources": 5, "mixing": [[1.0]],
          "noise1": {"kind": "point_mass"}, "noise2": {"kind": "point_mass"}},
         "scenario.sources must be a list"),
        ({"variant": "eiv", "signal": {"kind": "uniform", "params": [1.0]},
          "noise1": {"kind": "point_mass"}, "noise2": {"kind": "point_mass"},
          "link": ["identity"]}, "unknown link"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_malformed_scenario(self, tmp_path, command, scenario, message):
        # a bad scenario stops the command before its run directory opens,
        # with exit 2 and no traceback
        cfg = {"scenario": scenario, "out_dir": str(tmp_path / "out")}
        cfg.update({"n": 5} if command == "simulate" else
                   {"n_list": [12], "replicates": 1, "kappa_grid": [0.75], "S": 1.5})
        rc, err = run_cli([command, write_config(tmp_path, "c.json", cfg)])
        assert rc == 2
        assert err.startswith("config error") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("y1,y2\n0,0\n0,abc\n", "line 3: non-numeric value in ['0', 'abc']"),
        ("y1,y2\n0,0\n0,0,1\n", "line 3: 3 values, expected 2"),
        ("y1,y2\n0\n", "line 2: 1 values, expected 2"),
        ("", "unexpected CSV header None"),
    ], ids=["non-numeric", "long-row", "short-row", "empty"])
    @pytest.mark.parametrize("command", ["estimate", "adapt"])
    def test_malformed_samples_csv(self, tmp_path, command, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        cfg = {"samples": str(path), "d1": 1, "d2": 1, "S": 1.5,
               "out_dir": str(tmp_path / "out")}
        cfg.update({"kappa": 0.75} if command == "estimate" else {"kappa_grid": [0.75]})
        rc, err = run_cli([command, write_config(tmp_path, "c.json", cfg)])
        assert rc == 2
        assert err.startswith("config error") and str(path) in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", [["a", 1, 3], [-1.0, 1.0, "x"], [-1.0, 1.0]])
    def test_non_numeric_profile_grid(self, tmp_path, grid):
        cfg = write_config(tmp_path, "conj.json", {
            "kappa_list": [0.75], "K_list": [2], "K_max": 8, "stretch_grid": grid,
            "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["conjecture", cfg])
        assert rc == 2
        assert err.startswith("config error") and "stretch_grid" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, key", [
        ("simulate", {"scenario": dict(POINTMASS_SCENARIO, signal={
            "kind": "compact_bump", "params": "14"}), "n": 5}, "signal.params"),
        ("simulate", {"scenario": {
            "variant": "ica", "sources": "ab", "mixing": [[1.0, 0.5], [0.5, 1.0]],
            "noise1": {"kind": "point_mass"}, "noise2": {"kind": "point_mass"}}, "n": 5},
         "scenario.sources"),
        ("experiment", {"n_list": "12"}, "n_list"),
        ("experiment", {"kappa_grid": "1"}, "kappa_grid"),
        ("experiment", {"lattice": STRING_LATTICE}, "lattice.mins"),
        ("estimate", {"lattice": STRING_LATTICE}, "lattice.mins"),
        ("adapt", {"kappa_grid": "1"}, "kappa_grid"),
        ("conjecture", {"kappa_list": "1"}, "kappa_list"),
        ("conjecture", {"K_list": "48"}, "K_list"),
        ("conjecture", {"scalings": "stretch"}, "scalings"),
        ("conjecture", {"scalings": {"stretch": 1}}, "scalings"),
        ("conjecture", {"stretch_grid": "113"}, "stretch_grid"),
        ("bounds-check", {"kappa_list": "1"}, "kappa_list"),
        ("bounds-check", {"S_list": "1"}, "S_list"),
        ("bounds-check", {"nu_list": "1"}, "nu_list"),
        ("bounds-check", {"m_list": "2"}, "m_list"),
        ("bounds-check", {"d_list": "1"}, "d_list"),
    ])
    def test_string_for_list_key(self, tmp_path, command, cfg, key):
        # a string is not split into its characters: "48" is no [4, 8]
        cfg = dict(LIST_KEY_BASE[command], **cfg, out_dir=str(tmp_path / "out"))
        if command in ("estimate", "adapt"):
            cfg["samples"] = zero_samples(tmp_path, 12)
        rc, err = run_cli([command, write_config(tmp_path, "c.json", cfg)])
        assert rc == 2
        assert err.startswith("config error") and f"{key} must be a" in err
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_is_exit_3(self, tmp_path):
        # an impossible orthonormality certificate fails the basis build
        cfg = write_config(tmp_path, "c.json", {
            "kappa_list": [0.75], "K_list": [2], "K_max": 8,
            "cert_tol": 1e-30, "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["conjecture", cfg])
        assert rc == 3
        assert "numerical failure" in err and "orthonormality lost" in err
        assert not (tmp_path / "out").exists()  # nothing is written for a failed run


class TestScenarioConfig:
    def test_repeated(self):
        spec = scenario_from_config(POINTMASS_SCENARIO)
        assert spec.variant == "repeated"
        assert (spec.d1, spec.d2) == (1, 1)

    def test_repeated_axis_noise_lists(self):
        spec = scenario_from_config({
            "variant": "repeated", "d1": 2,
            "signal": {"kind": "uniform", "params": [1.0]},
            "noise1": [{"kind": "uniform", "param": 0.3},
                       {"kind": "laplace", "param": 0.2}],
            "noise2": [{"kind": "gaussian", "param": 0.2},
                       {"kind": "point_mass"}],
        })
        assert (spec.d1, spec.d2) == (2, 2)
        assert spec.sample(4, 0).data.shape == (4, 4)

    def test_eiv(self):
        spec = scenario_from_config({
            "variant": "eiv",
            "signal": {"kind": "uniform", "params": [1.0]},
            "noise1": {"kind": "laplace", "param": 0.2},
            "noise2": {"kind": "gaussian", "param": 0.2},
            "link": "cubic_plus_x",
        })
        assert spec.variant == "eiv"
        assert (spec.d1, spec.d2) == (1, 1)

    def test_ica(self):
        spec = scenario_from_config({
            "variant": "ica", "d1": 1,
            "sources": [{"kind": "uniform", "params": [1.0]},
                        {"kind": "uniform", "params": [0.5]}],
            "mixing": [[1.0, 0.5], [0.5, 1.0]],
            "noise1": {"kind": "uniform", "param": 0.3},
            "noise2": {"kind": "uniform", "param": 0.3},
        })
        assert spec.variant == "ica"
        assert (spec.d1, spec.d2) == (1, 1)

    def test_two_point(self):
        spec = scenario_from_config({
            "variant": "two_point",
            "two_point": {"kappa": 0.75, "n": 1000},
            "noise1": {"kind": "point_mass"},
            "noise2": {"kind": "point_mass"},
            "perturbed": True,
        })
        assert spec.variant == "two_point"
        assert (spec.d1, spec.d2) == (1, 1)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown scenario variant"):
            scenario_from_config({"variant": "bogus"})

    def test_unknown_signal_key(self):
        cfg = dict(POINTMASS_SCENARIO, signal={"kind": "point_mass", "extra": 1})
        with pytest.raises(ConfigError, match="unknown config keys in signal"):
            scenario_from_config(cfg)


class TestSimulate:
    def test_pointmass_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        cfg = write_config(tmp_path, "sim.json", {
            "scenario": POINTMASS_SCENARIO, "n": 5, "seed": 7,
            "out_dir": str(out),
        })
        rc, err = run_cli(["simulate", cfg])
        assert rc == 0 and err == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "MANIFEST.json", "config.json", "samples.csv", "summary.json",
        ]
        with open(out / "samples.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y1", "y2"]
        assert len(rows) == 6
        assert all(row == ["0", "0"] for row in rows[1:])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variant"] == "repeated"
        assert summary["n"] == 5
        assert set(summary["diagnostics"]) == {
            "h2_probe_min", "noise_cf_floor_1", "noise_cf_floor_2", "nu", "c_nu",
        }

    def test_seed_determinism(self, tmp_path):
        scenario = {
            "variant": "repeated", "d1": 1,
            "signal": {"kind": "uniform", "params": [1.0]},
            "noise1": {"kind": "uniform", "param": 0.3},
            "noise2": {"kind": "uniform", "param": 0.3},
        }
        paths = {}
        for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
            out = tmp_path / tag
            cfg = write_config(tmp_path, f"{tag}.json", {
                "scenario": scenario, "n": 50, "seed": seed, "out_dir": str(out),
            })
            assert run_cli(["simulate", cfg])[0] == 0
            paths[tag] = out / "samples.csv"
        assert filecmp.cmp(paths["a"], paths["b"], shallow=False)
        assert not filecmp.cmp(paths["a"], paths["c"], shallow=False)


@pytest.fixture(scope="module")
def est_run(tmp_path_factory):
    """One estimate run on degenerate point-mass data, shared readonly."""
    tmp_path = tmp_path_factory.mktemp("est")
    out = tmp_path / "est"
    cfg = write_config(tmp_path, "est.json", {
        "samples": zero_samples(tmp_path, 12), "d1": 1, "d2": 1,
        "kappa": 0.75, "S": 1.5, "nodes": 24, "lattice": SMALL_LATTICE,
        "out_dir": str(out),
    })
    rc, err = run_cli(["estimate", cfg])
    assert rc == 0 and err == ""
    return out


class TestEstimate:
    def test_artifacts_written(self, est_run):
        assert sorted(p.name for p in est_run.iterdir()) == [
            "MANIFEST.json", "config.json", "density.csv",
            "density_meta.json", "phi.json", "summary.json",
        ]

    def test_degenerate_fit_is_exact(self, est_run):
        summary = json.loads((est_run / "summary.json").read_text())
        assert float(summary["contrast_value"]) == 0.0
        assert summary["m_opt"] == 2 * summary["m_trunc"]
        # flat CF -> truncated inversion puts (omega/pi)^d at the origin
        omega = float(summary["omega"])
        dens = load_density(est_run / "density.csv", est_run / "density_meta.json")
        center = dens.values[4, 4]
        assert center == pytest.approx((omega / math.pi) ** 2, rel=1e-12)

    def test_reload_poly(self, est_run):
        poly = load_poly(est_run / "phi.json")
        assert poly.cf_candidate
        assert poly.theta[0] == 1.0
        assert poly.theta.shape == poly.orders.shape
        # degenerate data leaves every free coefficient at zero
        assert np.all(poly.theta[1:] == 0.0)


class TestAdapt:
    def test_single_kappa(self, tmp_path):
        out = tmp_path / "adapt"
        cfg = write_config(tmp_path, "adapt.json", {
            "samples": zero_samples(tmp_path, 30), "d1": 1, "d2": 1,
            "kappa_grid": [0.75], "S": 1.5, "nodes": 24,
            "lattice": SMALL_LATTICE, "out_dir": str(out),
        })
        rc, err = run_cli(["adapt", cfg])
        assert rc == 0 and err == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "MANIFEST.json", "config.json", "density.csv",
            "density_meta.json", "selection.json",
        ]
        sel = json.loads((out / "selection.json").read_text())
        assert float(sel["kappa_hat"]) == 0.75
        assert sel["n"] == 30
        # identical halves: fluctuation pilot bottoms out at its floor
        assert float(sel["c_sigma"]) == pytest.approx(1e-12, rel=1e-9)
        (row,) = sel["rows"]
        assert float(row["spread"]) == 0.0
        assert float(row["criterion"]) == float(row["sigma"])

    def test_empty_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "adapt.json", {
            "samples": zero_samples(tmp_path, 30), "d1": 1, "d2": 1,
            "kappa_grid": [], "S": 1.5, "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["adapt", cfg])
        assert rc == 2
        assert "nonempty" in err


class TestConjecture:
    def test_panels_and_census(self, tmp_path):
        out = tmp_path / "conj"
        cfg = write_config(tmp_path, "conj.json", {
            "kappa_list": [0.75], "K_list": [2, 4], "K_max": 16,
            "census": True, "c1": 0.8, "c2": 0.3,
            "stretch_grid": [-1.5, 1.5, 41], "squeeze_grid": [-10.0, 10.0, 51],
            "out_dir": str(out),
        })
        rc, err = run_cli(["conjecture", cfg])
        assert rc == 0 and err == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_panels"] == 4
        census = summary["census"]["0.75"]
        assert census["ok"] is True
        assert float(census["c0"]) == pytest.approx(0.7698, rel=1e-3)
        assert [row["K"] for row in census["rows"]] == list(range(11, 17))
        assert all(row["count"] >= row["need"] for row in census["rows"])
        names = sorted(p.name for p in (out / "figures").iterdir())
        assert names == [
            "MANIFEST.json",
            "profile_squeeze_kappa0.75_K2.csv",
            "profile_squeeze_kappa0.75_K4.csv",
            "profile_stretch_kappa0.75_K2.csv",
            "profile_stretch_kappa0.75_K4.csv",
        ]

    def test_census_needs_full_holdout(self, tmp_path):
        out = tmp_path / "never"
        cfg = write_config(tmp_path, "conj.json", {
            "kappa_list": [0.75], "K_list": [2], "K_max": 8, "census": True,
            "out_dir": str(out),
        })
        rc, err = run_cli(["conjecture", cfg])
        assert rc == 2
        assert "K_max >= 16" in err
        assert not out.exists()  # rejected before any artifact is written

    def test_empty_k_list(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "conj.json", {
            "kappa_list": [0.75], "K_list": [], "K_max": 8, "out_dir": str(out),
        })
        rc, err = run_cli(["conjecture", cfg])
        assert rc == 2
        assert err.startswith("config error") and "K_list must be a nonempty list" in err
        assert not out.exists()

    def test_k_list_exceeds_k_max(self, tmp_path):
        cfg = write_config(tmp_path, "conj.json", {
            "kappa_list": [0.75], "K_list": [10], "K_max": 8,
            "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["conjecture", cfg])
        assert rc == 2
        assert "K_list exceeds K_max" in err

    def test_unknown_scaling(self, tmp_path):
        cfg = write_config(tmp_path, "conj.json", {
            "kappa_list": [0.75], "scalings": ["shear"],
            "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["conjecture", cfg])
        assert rc == 2
        assert "unknown scaling" in err


class TestBoundsCheck:
    def test_small_sweep_holds(self, tmp_path):
        out = tmp_path / "bc"
        cfg = write_config(tmp_path, "bc.json", {
            "kappa_list": [0.75], "S_list": [1.5], "nu_list": [1.0],
            "m_list": [4], "d_list": [1], "n_members": 4,
            "member_degree": 12, "out_dir": str(out),
        })
        rc, err = run_cli(["bounds-check", cfg])
        assert rc == 0 and err == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"rows": 4, "violations": 0}
        with open(out / "bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["name"] for r in rows] == [
            "truncation_sup", "class_sup", "psi_sum", "sigma1",
        ]
        assert all(r["holds"] == "1" for r in rows)
        for r in rows:
            assert float(r["slack"]) >= 0.0


@pytest.fixture(scope="module")
def twin_runs(tmp_path_factory):
    """The same degenerate plan executed twice into separate run dirs."""
    tmp_path = tmp_path_factory.mktemp("exp")
    outs = []
    for tag in ("run_a", "run_b"):
        out = tmp_path / tag
        cfg = write_config(tmp_path, f"{tag}.json", {
            "scenario": POINTMASS_SCENARIO, "n_list": [12, 24],
            "replicates": 2, "kappa_grid": [0.75], "S": 1.5,
            "nodes": 24, "lattice": SMALL_LATTICE, "seed": 5,
            "out_dir": str(out),
        })
        rc, err = run_cli(["experiment", cfg])
        assert rc == 0 and err == ""
        outs.append(out)
    return outs


class TestExperiment:
    def test_rerun_byte_identical(self, twin_runs):
        run_a, run_b = twin_runs
        assert filecmp.cmp(run_a / "report.csv", run_b / "report.csv", shallow=False)
        assert filecmp.cmp(run_a / "report.json", run_b / "report.json", shallow=False)

    def test_report_reloads(self, twin_runs):
        rows = load_report_rows(twin_runs[0] / "report.csv")
        assert len(rows) == 4
        assert all(r.status == "ok" for r in rows)
        assert all(r.contrast_value == 0.0 and r.cf_box_error == 0.0 for r in rows)
        assert all(math.isnan(r.l2_raw) and r.no_density_truth for r in rows)
        report = json.loads((twin_runs[0] / "report.json").read_text())
        assert set(report["aggregates"]) == {"n=12 kappa=0.75", "n=24 kappa=0.75"}
        for entry in report["aggregates"].values():
            assert entry["n_ok"] == 2

    def test_workers_key_rejected(self, tmp_path):
        # the experiment runs its cells serially; the old key is now unknown
        cfg = write_config(tmp_path, "exp.json", {
            "scenario": POINTMASS_SCENARIO, "n_list": [12], "replicates": 1,
            "kappa_grid": [0.75], "S": 1.5, "workers": 2,
            "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["experiment", cfg])
        assert rc == 2
        assert "unknown config keys" in err and "workers" in err

    def test_tuning_override_wiring(self, tmp_path, monkeypatch):
        captured = {}

        def fake_run(plan):
            captured["mode"] = plan.tuning_mode
            captured["m_opt"] = plan.m_opt
            return ExperimentReport(plan_summary={"stub": True},
                                    rows=(make_row(12),))

        monkeypatch.setattr(cli_io, "run", fake_run)
        cfg = write_config(tmp_path, "exp.json", {
            "scenario": POINTMASS_SCENARIO, "n_list": [12], "replicates": 1,
            "kappa_grid": [0.75], "S": 1.5,
            "tuning": {"mode": "override", "m_opt": 4},
            "out_dir": str(tmp_path / "out"),
        })
        rc, _ = run_cli(["experiment", cfg])
        assert rc == 0
        assert captured == {"mode": "override", "m_opt": 4}

    def test_tuning_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, "exp.json", {
            "scenario": POINTMASS_SCENARIO, "n_list": [12], "replicates": 1,
            "kappa_grid": [0.75], "S": 1.5,
            "tuning": {"mode": "theoretical", "degree": 4},
            "out_dir": str(tmp_path / "out"),
        })
        rc, err = run_cli(["experiment", cfg])
        assert rc == 2
        assert "unknown config keys in tuning" in err


def reference_csv(path, header, rows) -> None:
    """The csv.writer + fmt17 loop the numeric writers replaced: the
    reference for their bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt17(v) for v in row])


# signed zero, the least subnormal, the largest double, a tiny normal, integers
EXTREME_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 1e-300, 3.0, -12.0, 0.0]


class TestPersistence:
    def test_numeric_writers_match_the_csv_module(self, tmp_path, rng):
        data = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3))
        data[: len(EXTREME_VALUES), 1] = EXTREME_VALUES
        data[-len(EXTREME_VALUES):, 2] = -np.array(EXTREME_VALUES)
        export_csv(SampleSet(1, 2, data), tmp_path / "samples.csv")
        reference_csv(tmp_path / "samples_ref.csv", ["y1", "y2", "y3"], data)
        lattice = LatticeSpec(mins=(-1.0, 0.0), maxs=(1.0, 3.0), counts=(7, 4))
        values = data[:28, 1].reshape(7, 4)
        save_density(DensityGrid(lattice=lattice, values=values, imag_residue=0.0),
                     tmp_path / "density.csv", tmp_path / "density.json")
        rows = np.column_stack([lattice.points(), values.reshape(-1)])
        reference_csv(tmp_path / "density_ref.csv", ["x1", "x2", "value"], rows)
        for name in ("samples", "density"):
            written = (tmp_path / f"{name}.csv").read_bytes()
            assert written == (tmp_path / f"{name}_ref.csv").read_bytes(), name
        samples = (tmp_path / "samples.csv").read_bytes()
        assert all(text in samples for text in (b",-0,", b",4.9406564584124654e-324,",
                                                b",1.7976931348623157e+308,", b",-12,"))

    def test_density_roundtrip_exact(self, tmp_path, rng):
        lattice = LatticeSpec(mins=(-1.0, 0.0), maxs=(1.0, 2.0), counts=(5, 4))
        grid = DensityGrid(lattice=lattice, values=rng.normal(size=(5, 4)),
                           imag_residue=1.25e-9)
        save_density(grid, tmp_path / "d.csv", tmp_path / "d.json")
        back = load_density(tmp_path / "d.csv", tmp_path / "d.json")
        assert back.lattice == lattice
        assert np.array_equal(back.values, grid.values)
        assert back.imag_residue == grid.imag_residue

    def test_density_header_guard(self, tmp_path):
        (tmp_path / "x.csv").write_text("a,b\n1,2\n")
        (tmp_path / "x.json").write_text(json.dumps(
            {"mins": ["0"], "maxs": ["1"], "counts": [2], "imag_residue": "0"}
        ))
        with pytest.raises(ConfigError, match="not a density file"):
            load_density(tmp_path / "x.csv", tmp_path / "x.json")

    def test_poly_roundtrip(self, tmp_path):
        theta = np.array([1.0, 0.2, -0.1, 0.0, 0.3, 0.05, 0.0, -0.02, 0.01, 0.004])
        poly = TaylorPoly(dims=(1, 1), max_degree=3, theta=theta)
        (tmp_path / "phi.json").write_text(json.dumps(to_json_record(poly)))
        back = load_poly(tmp_path / "phi.json")
        assert back.dims == (1, 1)
        assert back.max_degree == 3
        assert back.cf_candidate
        assert np.array_equal(back.theta, poly.theta)

    def test_report_roundtrip_nan_aware(self, tmp_path):
        rows = (
            make_row(12, contrast_value=0.25, cf_box_error=0.5,
                     l2_raw=0.1, l2_aligned=0.08, no_density_truth=False),
            make_row(12, replicate=1, status="error", contrast_value=float("nan"),
                     cf_box_error=float("nan"), converged=False,
                     message="solver exploded, twice"),
            make_row(24, shift=(0.05, -0.1)),
        )
        report = ExperimentReport(plan_summary={"n_list": [12, 24]}, rows=rows)
        save_report(report, tmp_path / "r.csv", tmp_path / "r.json")
        back = load_report_rows(tmp_path / "r.csv")
        assert rows_equal(back, list(rows))
        # commas in messages survive the CSV layer
        assert back[1].message == "solver exploded, twice"


    def test_report_columns_are_the_cell_fields(self, tmp_path):
        report = ExperimentReport(plan_summary={}, rows=(make_row(12),))
        save_report(report, tmp_path / "r.csv", tmp_path / "r.json")
        with open(tmp_path / "r.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        assert header == [f.name for f in dataclasses.fields(CellResult)]
        assert len(row) == len(header)


class TestFigureData:
    def test_empty_panel_list(self, tmp_path):
        target = tmp_path / "figs"
        assert emit_figure_data([], target) == []
        assert sorted(p.name for p in target.iterdir()) == ["MANIFEST.json"]
        manifest = json.loads((target / "MANIFEST.json").read_text())
        assert manifest["panels"] == []

    def test_single_panel_contents(self, tmp_path):
        xs = np.linspace(-1.0, 1.0, 5)
        panel = {"scaling": "stretch", "kappa": 0.75, "K": 3,
                 "x": xs, "value": xs**2}
        (path,) = emit_figure_data([panel], tmp_path / "figs")
        assert path.name == "profile_stretch_kappa0.75_K3.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "value", "kappa", "K"]
        assert len(rows) == 6
        assert [float(r[0]) for r in rows[1:]] == pytest.approx(list(xs))
        assert [float(r[1]) for r in rows[1:]] == pytest.approx(list(xs**2))
        manifest = json.loads((tmp_path / "figs" / "MANIFEST.json").read_text())
        assert manifest["panels"] == [{
            "file": path.name, "scaling": "stretch", "kappa": "0.75",
            "K": 3, "points": 5,
        }]

    def test_regenerated_panels_match_golden(self, tmp_path):
        """Default grids reproduce the stored figure data byte for byte."""
        panels = build_profile_panels([0.55], [8], ["stretch", "squeeze"])
        written = emit_figure_data(panels, tmp_path / "figs")
        assert len(written) == 2
        for path in written:
            golden = GOLDEN_FIGURES / path.name
            assert golden.exists()
            assert filecmp.cmp(path, golden, shallow=False), path.name
        manifest = json.loads((tmp_path / "figs" / "MANIFEST.json").read_text())
        points = {p["file"]: p["points"] for p in manifest["panels"]}
        assert points["profile_stretch_kappa0.55_K8.csv"] == 301
        assert points["profile_squeeze_kappa0.55_K8.csv"] == 401

    @pytest.mark.skipif(not DISPATCH_TARGETS, reason="numpy has no SIMD dispatch target here")
    def test_profiles_independent_of_cpu_dispatch(self):
        """Profile bytes do not change when numpy's SIMD targets are disabled."""
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCH_TARGETS))
        src = str(Path(cfdeconv.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _PROFILE_DIGEST], env=env,
            capture_output=True, text=True, timeout=300, check=True,
        )
        enabled, digest = proc.stdout.split("\n")[:2]
        assert enabled == "[]"  # the subprocess really ran without SIMD dispatch
        local = build_profile_panels([0.55], [8], ["stretch", "squeeze"])
        assert digest == content_hash(*(p["value"] for p in local))


class TestManifest:
    def test_hashes_cover_nested_files(self, tmp_path):
        out = tmp_path / "conj"
        cfg = write_config(tmp_path, "conj.json", {
            "kappa_list": [0.75], "K_list": [2], "K_max": 8,
            "stretch_grid": [-1.5, 1.5, 21], "squeeze_grid": [-10.0, 10.0, 21],
            "out_dir": str(out),
        })
        assert run_cli(["conjecture", cfg])[0] == 0
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["subcommand"] == "conjecture"
        paths = [entry["path"] for entry in manifest["files"]]
        assert "MANIFEST.json" not in paths  # the manifest never lists itself
        assert "figures/MANIFEST.json" in paths
        assert "config.json" in paths
        listed = set(paths)
        on_disk = {
            p.relative_to(out).as_posix()
            for p in out.rglob("*") if p.is_file()
        } - {"MANIFEST.json"}
        assert listed == on_disk
        for entry in manifest["files"]:
            blob = (out / entry["path"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]


class TestBoundsCheckViolations:
    def test_violations_still_write_artifacts(self, tmp_path, monkeypatch):
        @dataclasses.dataclass
        class Report:
            name: str = "class_sup"
            bound: float = 1.0
            measured: float = 2.0
            slack: float = -1.0

            def holds(self):
                return False

        # bounds-check imports bound_suite from its module when it runs
        monkeypatch.setattr(legendre_bounds, "bound_suite", lambda *args, **kwargs: [Report()])
        out = tmp_path / "bc"
        cfg = dict(LIST_KEY_BASE["bounds-check"], kappa_list=[0.75], S_list=[1.5],
                   nu_list=[1.0], out_dir=str(out))
        rc, err = run_cli(["bounds-check", write_config(tmp_path, "bc.json", cfg)])
        assert rc == 3 and err == ""
        assert json.loads((out / "summary.json").read_text()) == {"rows": 1, "violations": 1}
        assert sorted(p.name for p in out.iterdir()) == [
            "MANIFEST.json", "bounds.csv", "config.json", "summary.json",
        ]


# configs that crashed, were truncated or left a run directory behind; each
# is (command, key, JSON text of its value) on top of LIST_KEY_BASE
REPORTED_HOLES = [
    ("simulate", "seed", "Infinity"),
    ("simulate", "n", "2.7"),
    ("simulate", "n", "true"),
    ("bounds-check", "member_degree", "Infinity"),
    ("conjecture", "stretch_grid", "[NaN, 1, 3]"),
    ("simulate", "scenario", '{"variant": "two_point", "two_point": {"kappa": 0.75, "n": 1000, '
                             '"x0": NaN}, "noise1": {"kind": "point_mass"}, '
                             '"noise2": {"kind": "point_mass"}}'),
    ("simulate", "scenario", '{"variant": "repeated", "signal": {"kind": "uniform", '
                             '"params": [1.0]}, "noise1": {"kind": "laplace", "param": NaN}, '
                             '"noise2": {"kind": "point_mass"}}'),
    ("experiment", "replicates", "1.9"),
    ("experiment", "tuning", '{"mode": "override", "m_opt": 2.5}'),
    ("simulate", "out_dir", "5"),
    ("simulate", "out_dir", "null"),
    ("estimate", "samples", "7"),
    ("experiment", "lattice", '{"mins": [-2, -2], "maxs": [2, 2], "counts": [3.7, 3]}'),
    ("experiment", "lattice", '{"mins": [-2, -2], "maxs": [2, Infinity], "counts": [9, 9]}'),
    ("estimate", "S", "Infinity"),
    ("simulate", "scenario", '{"variant": "repeated", "signal": {"kind": ["uniform"], '
                             '"params": [1.0]}, "noise1": {"kind": "point_mass"}, '
                             '"noise2": {"kind": "point_mass"}}'),
]

# a valid object of each section, for a section the base config lacks
SECTION_EXAMPLES = {
    "signal": {"kind": "uniform", "params": [1.0]},
    "noise": {"kind": "point_mass"},
    "two_point": {"kappa": 0.75, "n": 1000},
    "lattice": SMALL_LATTICE,
    "tuning": {"mode": "theoretical"},
}
POINT_MASS_NOISE = {"noise1": {"kind": "point_mass"}, "noise2": {"kind": "point_mass"}}
VARIANT_EXAMPLES = {
    "repeated": POINTMASS_SCENARIO,
    "eiv": dict(POINT_MASS_NOISE, variant="eiv", signal=SECTION_EXAMPLES["signal"]),
    "ica": dict(POINT_MASS_NOISE, variant="ica", sources=[SECTION_EXAMPLES["signal"]] * 2,
                mixing=[[1.0, 0.5], [0.5, 1.0]]),
    "two_point": dict(POINT_MASS_NOISE, variant="two_point",
                      two_point=SECTION_EXAMPLES["two_point"]),
}

# JSON texts outside each range of the key tables
OUT_OF_RANGE = {
    "": [], "> 0": ["0", "-1"], ">= 0": ["-1"], ">= 1": ["0"], ">= 2": ["1"], ">= 3": ["2"],
    "in (0, 1)": ["0", "1"], "in (0, 1]": ["0", "1.5"],
}
NOT_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]


def readme_range(rng) -> str:
    """How the README writes a key table's range."""
    if isinstance(rng, tuple):
        names = [f"`{name}`" for name in rng]
        return names[0] if len(names) == 1 else ", ".join(names[:-1]) + " or " + names[-1]
    return rng.replace(">=", "≥")


def bad_values(key) -> list:
    """JSON texts of values that key must refuse: each other JSON kind, NaN,
    infinities, fractions for integers, and values outside its range."""
    kind, rng = key.kind, key.range
    outer, _, items = kind.partition(" of ")
    if outer == "matrix":
        texts = ['"x"', "5", "[]", "[1, 2]", "[[1, 0.5], [0.5]]", '[[1, "a"], [0.5, 1]]',
                 "[[NaN, 0.5], [0.5, 1]]", "[[true, 0.5], [0.5, 1]]"]
    elif items:
        item = cli_io._Key(items[:-1], rng)
        texts = ['"1"', "5", "true", "{}"] + ([] if key.default == () else ["[]"])
        texts += [f"[{text}]" for text in bad_values(item)]
    elif kind == "grid":
        texts = ['"113"', "[1, 2]", "[-1, 1, 3, 4]", "[NaN, 1, 3]", "[-1, Infinity, 3]",
                 "[-1, 1, 2.5]", "[-1, 1, 0]", "[-1, 1, true]"]
    elif kind in ("number", "integer"):
        texts = ["true", '"1"', "[1]", "{}"] + NOT_FINITE + OUT_OF_RANGE[rng]
        texts += ["2.5"] if kind == "integer" else []
    elif kind == "bool":
        texts = ["0", "1", '"yes"', "[]", "{}"]
    elif kind == "string":
        texts = ["5", "true", '["x"]', "{}"] + (['"bogus"'] if rng else [])
    else:  # a section
        texts = ["5", '"x"', "true", "{}", "[1]"]
    return texts + ([] if key.default is None else ["null"])


def get_at(cfg, path):
    for step in path:
        cfg = cfg[step]
    return cfg


def set_at(cfg, path, value):
    """A copy of cfg with value at path."""
    cfg = copy.deepcopy(cfg)
    get_at(cfg, path[:-1])[path[-1]] = value
    return cfg


def walk(cfg, table, path=(), label=""):
    """(label, valid config, path, key) for each key of table and of each
    section under it, a scenario once per variant."""
    for name, key in table.items():
        at = path + (name,)
        yield label + name, cfg, at, key
        if key.kind == "scenario":
            for variant, example in VARIANT_EXAMPLES.items():
                yield from walk(set_at(cfg, at, example), cli_io._VARIANTS[variant], at,
                                f"{label}{name}[{variant}].")
        elif key.kind in cli_io._SECTIONS:
            section = get_at(cfg, path).get(name) or SECTION_EXAMPLES[key.kind]
            yield from walk(set_at(cfg, at, section), cli_io._SECTIONS[key.kind], at,
                            f"{label}{name}.")
        elif key.kind == "list of signals":
            yield from walk(cfg, cli_io._SECTIONS["signal"], at + (0,), f"{label}{name}[0].")


def with_paths(command, cfg, samples, out):
    """cfg with the samples path (where the command reads one) and out_dir."""
    cfg = dict(cfg, samples=samples, out_dir=out)
    return cfg if command in ("estimate", "adapt") else {k: v for k, v in cfg.items()
                                                          if k != "samples"}


BAD_KEY_CASES = [
    pytest.param(command, cfg, path, key, id=f"{command}:{label}")
    for command, (table, _) in cli_io._COMMANDS.items()
    for label, cfg, path, key in walk(with_paths(command, LIST_KEY_BASE[command], "", ""),
                                      table)
]


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    return zero_samples(tmp_path_factory.mktemp("samples"), 12)


class TestConfigSchema:
    @pytest.mark.parametrize("command, key, text", REPORTED_HOLES)
    def test_reported_holes_exit_2(self, tmp_path, sample_file, command, key, text):
        cfg = dict(LIST_KEY_BASE[command], samples=sample_file, out_dir=str(tmp_path / "out"))
        cfg[key] = "BAD"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg).replace('"BAD"', text))
        rc, err = run_cli([command, str(path)])
        assert rc == 2
        assert err.startswith("config error")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, owner, name", [
        ("simulate", cli_io.ScenarioSpec, "_blocks"), ("estimate", cli_io, "estimate_once"),
        ("adapt", cli_io, "adapt_from_samples"), ("conjecture", cli_io, "build_profile_panels"),
        ("bounds-check", legendre_bounds, "bound_suite"), ("experiment", cli_io, "run"),
    ])
    def test_failed_computation_opens_no_run_dir(self, tmp_path, monkeypatch, sample_file,
                                                 command, owner, name):
        def fail(*args, **kwargs):
            raise cfdeconv.NumericalError("diverged")

        monkeypatch.setattr(owner, name, fail)
        cfg = with_paths(command, LIST_KEY_BASE[command], sample_file, str(tmp_path / "out"))
        rc, err = run_cli([command, write_config(tmp_path, "c.json", cfg)])
        assert rc == 3 and "diverged" in err
        assert not (tmp_path / "out").exists()

    def test_every_base_config_is_valid(self, tmp_path, sample_file):
        # the configs the bad values are put into pass, with their sections
        for command, cfg, _, _ in (case.values for case in BAD_KEY_CASES):
            cfg = with_paths(command, cfg, sample_file, str(tmp_path))
            cli_io._section(cfg, cli_io._COMMANDS[command][0], command)

    @pytest.mark.parametrize("command, cfg, path, key", BAD_KEY_CASES)
    @given(data=st.data())
    def test_bad_value_exits_2_before_any_work(self, sample_file, command, cfg, path, key,
                                               data):
        text = data.draw(st.sampled_from(bad_values(key)), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            cfg = set_at(with_paths(command, cfg, sample_file, str(out)), path, "BAD")
            config = Path(tmp) / "c.json"
            config.write_text(json.dumps(cfg).replace('"BAD"', text))
            rc, err = run_cli([command, str(config)])
            assert rc == 2, err
            assert err.startswith("config error")
            assert not out.exists()

    def test_readme_lists_every_table_key(self):
        # each README row states its key's kind, range, default and whether
        # it is required as the key table does; where the table has no range
        # the row may state the one a library constructor checks
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for block in section.split("\n### ")[1:]:
            name, _, body = block.partition("\n")
            documented[name.strip()] = {
                row[0]: row[1:] for row in re.findall(
                    r"^\| `([^`]+)` \| ([^|]*) \| ([^|]*) \| ([^|]*) \| ([^|]*) \|$", body, re.M)}
        tables = {name: table for name, (table, _) in cli_io._COMMANDS.items()}
        tables.update({f"{v} scenario": t for v, t in cli_io._VARIANTS.items()})
        tables.update(cli_io._SECTIONS)
        assert {name: set(rows) for name, rows in documented.items()} == {
            name: set(table) for name, table in tables.items()}
        for name, table in tables.items():
            for key_name, key in table.items():
                kind, rng, default, required = documented[name][key_name]
                label = f"{name}.{key_name}"
                assert kind == key.kind, label
                if key.range:
                    assert rng == readme_range(key.range), label
                if key.default is None:
                    assert default.startswith("null"), label
                elif key.default is cli_io._REQUIRED:
                    assert default == "", label
                else:
                    assert default == json.dumps(key.default), label
                assert required == ("yes" if key.default is cli_io._REQUIRED else "no"), label
