"""Command-line surface: config schema, run directories, persistence.

Every subcommand reads one JSON config file, checks all of it against its
key table (unknown keys are errors) before any work, and, once its results
are computed, writes them into a run directory containing a copy of the
config, a MANIFEST with content hashes, and the artifact files.  All floats
are printed with 17 significant digits so reruns are byte-identical.  Exit
codes: 0 success, 2 config error, 3 numerical failure.  The laboratory
subcommands and the two-point scenario import conjecture_lab and
legendre_bounds where they run, so the estimation subcommands load neither.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import shutil
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._util import ConfigError, NumericalError, fmt17, write_csv
from . import ecf
from .contrast import ecf_table_for_grid, make_grid
from .multiindex_taylor import from_json_record, to_json_record
from .reconstruct import DensityGrid, LatticeSpec
from .runner import (CellResult, ExperimentPlan, adapt_from_samples, default_lattice,
                     estimate_once, run)
from .scenarios import (
    _LINKS,
    AxisNoise,
    ScenarioSpec,
    SignalSpec,
    make_eiv,
    make_ica,
    make_repeated,
    make_two_point,
)

_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config schema
#
# Every command, scenario variant and nested section has one table mapping
# each of its keys to a _Key, and one validator, _section, reads them all.
# A table states the ranges that nothing checks before work starts; the
# library constructors that run first (SignalSpec, AxisNoise, LatticeSpec,
# ExperimentPlan) check their own.

_REQUIRED = object()


class _Key(NamedTuple):
    """One config key.  kind is number, integer, bool, string, grid ([lo,
    hi, count]), a section (scenario or a _SECTIONS name; a noise key also
    takes a list of noise objects, one per axis), or "<tuple|list|matrix> of
    <kind>s".  range is "" (any), a _RANGES entry or a tuple of the allowed
    strings, and applies to each item of a tuple.  A key without a default is
    required; one whose default is None also takes null.  A tuple or list is
    nonempty unless its default is empty."""

    kind: str
    range: object = ""
    default: object = _REQUIRED


_RANGES = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0, ">= 1": lambda x: x >= 1,
           ">= 2": lambda x: x >= 2, ">= 3": lambda x: x >= 3,
           "in (0, 1)": lambda x: 0 < x < 1, "in (0, 1]": lambda x: 0 < x <= 1}


def _is_number(value) -> bool:
    """A finite JSON number; true and false are no numbers."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


# scalar kind -> (its conversion, its test, what a value of it must be)
_SCALARS = {
    "bool": (bool, lambda v: isinstance(v, bool), "true or false"),
    "string": (str, lambda v: isinstance(v, str), "a string"),
    "number": (float, _is_number, "a number"),
    "integer": (int, lambda v: _is_number(v) and v == int(v), "an integer"),
}


def _section(cfg, table: dict, where: str, prefix: str = "") -> dict:
    """cfg checked against table: no unknown key, no missing required key,
    every value converted by _value; an absent key takes its default."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {', '.join(unknown)}")
    missing = sorted(k for k, key in table.items() if key.default is _REQUIRED and k not in cfg)
    if missing:
        raise ConfigError(f"missing config keys in {where}: {', '.join(missing)}")
    return {k: _value(cfg.get(k, key.default), key, prefix + k) for k, key in table.items()}


def _value(value, key: _Key, name: str):
    """value checked against its key's kind and range, as Python values."""
    kind, rng = key.kind, key.range
    if value is None and key.default is None:
        return None
    outer, _, items = kind.partition(" of ")
    if items:
        if not isinstance(value, (list, tuple)) or outer == "matrix" and not (
                value and all(isinstance(row, (list, tuple)) and len(row) == len(value[0])
                              and all(map(_is_number, row)) for row in value)):
            raise ConfigError(f"{name} must be a {kind}, got {value!r}")
        if not value and key.default != ():
            raise ConfigError(f"{name} must be a nonempty list")
        if outer == "matrix":
            return tuple(tuple(map(float, row)) for row in value)
        values = [_value(v, _Key(items[:-1], rng), name) for v in value]
        return values if outer == "list" else tuple(values)
    if isinstance(rng, tuple):
        if not isinstance(value, str) or value not in rng:
            raise ConfigError(f"unknown {name.rpartition('.')[2]} {value!r}, "
                              f"expected one of: {', '.join(rng)}")
        return value
    if kind == "scenario":
        return _scenario_section(value)
    if kind == "noise" and isinstance(value, list):
        return [_section(v, _NOISE, "noise", "noise.") for v in value]
    if kind in _SECTIONS:
        return _section(value, _SECTIONS[kind], kind, kind + ".")
    if kind == "grid":
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise ConfigError(f"{name} must be a grid [lo, hi, count], got {value!r}")
        return (_value(value[0], _Key("number"), name), _value(value[1], _Key("number"), name),
                _value(value[2], _Key("integer", ">= 1"), name))
    convert, test, words = _SCALARS[kind]
    if not test(value):
        raise ConfigError(f"{name} must be {words}, got {value!r}")
    value = convert(value)
    if rng and not _RANGES[rng](value):
        raise ConfigError(f"{name} must be {rng}, got {value!r}")
    return value


def _scenario_section(cfg) -> dict:
    """A scenario object: its variant names the table its other keys follow."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"scenario must be a JSON object, got {cfg!r}")
    if "variant" not in cfg:
        raise ConfigError("missing config keys in scenario: variant")
    variant = cfg["variant"]
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ConfigError(f"unknown scenario variant {variant!r}")
    return _section(cfg, _VARIANTS[variant], f"{variant} scenario", "scenario.")


_NOISE = {"kind": _Key("string"), "param": _Key("number", default=1.0)}
_SECTIONS = {
    "signal": {"kind": _Key("string"), "params": _Key("tuple of numbers", default=())},
    "noise": _NOISE,
    "two_point": {
        "kappa": _Key("number", "in (0, 1]"), "n": _Key("integer", ">= 3"),
        "x0": _Key("number", "> 0", 1.0), "K_max": _Key("integer", ">= 0", 16),
        "a": _Key("number", "in (0, 1)", 0.4), "beta": _Key("number", "> 0", 1.0),
        "c_K": _Key("number", "> 0", 1.0), "c_b": _Key("number", "> 0", 4.0),
        "c_mass": _Key("number", "> 0", 1e-8),
    },
    "lattice": {"mins": _Key("tuple of numbers"), "maxs": _Key("tuple of numbers"),
                "counts": _Key("tuple of integers")},
    "tuning": {"mode": _Key("string"), "m_opt": _Key("integer", default=None)},
}

_SCENARIO = {"variant": _Key("string"), "nu": _Key("number", "> 0", 1.0),
             "c_nu": _Key("number", "> 0", 1e-3), "noise1": _Key("noise"),
             "noise2": _Key("noise")}
_VARIANTS = {
    "repeated": dict(_SCENARIO, signal=_Key("signal"), d1=_Key("integer", ">= 1", 1)),
    "eiv": dict(_SCENARIO, signal=_Key("signal"),
                link=_Key("string", tuple(_LINKS), "cubic_plus_x")),
    "ica": dict(_SCENARIO, sources=_Key("list of signals"), mixing=_Key("matrix of numbers"),
                d1=_Key("integer", ">= 1", 1)),
    "two_point": dict(_SCENARIO, two_point=_Key("two_point"),
                      perturbed=_Key("bool", default=False)),
}


def _noise(cfg):
    return [AxisNoise(**item) for item in cfg] if isinstance(cfg, list) else AxisNoise(**cfg)


def _scenario(cfg: dict) -> ScenarioSpec:
    """The scenario of a checked scenario section."""
    variant, noise1, noise2 = cfg["variant"], _noise(cfg["noise1"]), _noise(cfg["noise2"])
    common = {"nu": cfg["nu"], "c_nu": cfg["c_nu"]}
    if variant == "repeated":
        return make_repeated(SignalSpec(**cfg["signal"]), noise1, noise2, d1=cfg["d1"], **common)
    if variant == "eiv":
        return make_eiv(SignalSpec(**cfg["signal"]), noise1, noise2, link=cfg["link"], **common)
    if variant == "ica":
        return make_ica([SignalSpec(**s) for s in cfg["sources"]], cfg["mixing"], noise1, noise2,
                        d1=cfg["d1"], **common)
    from .conjecture_lab import WeightSpec, build_two_point, build_weighted_basis, make_instance

    point = cfg["two_point"]
    basis = build_weighted_basis(WeightSpec(kappa=point["kappa"], x0=point["x0"]),
                                 K_max=point["K_max"])
    inst = make_instance(basis, point["n"],
                         **{k: point[k] for k in ("a", "beta", "c_K", "c_b", "c_mass")})
    return make_two_point(build_two_point(inst, basis), noise1, noise2,
                          perturbed=cfg["perturbed"], **common)


def scenario_from_config(cfg: dict) -> ScenarioSpec:
    return _scenario(_scenario_section(cfg))


# ---------------------------------------------------------------------------
# persistence

def load_poly(path):
    """Reload a persisted CF candidate (inverse of the phi.json dump)."""
    with open(path) as fh:
        return from_json_record(json.load(fh))


def save_density(grid: DensityGrid, csv_path, meta_path) -> None:
    """Each lattice point's x1..xd and value as CSV (`_util.write_csv`); the
    lattice and the imaginary residue as JSON."""
    header = [f"x{a + 1}" for a in range(grid.lattice.d)] + ["value"]
    write_csv(csv_path, header,
              [np.column_stack([grid.lattice.points(), grid.values.reshape(-1)])])
    meta = {
        "mins": [fmt17(v) for v in grid.lattice.mins],
        "maxs": [fmt17(v) for v in grid.lattice.maxs],
        "counts": list(grid.lattice.counts),
        "imag_residue": fmt17(grid.imag_residue),
    }
    _dump_json(meta, meta_path)


def load_density(csv_path, meta_path) -> DensityGrid:
    with open(meta_path) as fh:
        meta = json.load(fh)
    lattice = LatticeSpec(mins=meta["mins"], maxs=meta["maxs"], counts=meta["counts"])
    vals = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "value":
            raise ConfigError(f"not a density file: {csv_path}")
        for row in reader:
            vals.append(float(row[-1]))
    values = np.asarray(vals, dtype=np.float64).reshape(lattice.counts)
    return DensityGrid(lattice=lattice, values=values,
                       imag_residue=float(meta["imag_residue"]))


# CellResult field type -> (its report.csv text, the value parsed back)
_REPORT_CODECS = {
    "int": (str, int),
    "float": (fmt17, float),
    "str": (str, str),
    "bool": (lambda v: str(int(v)), lambda text: bool(int(text))),
    "tuple": (lambda v: ";".join(fmt17(s) for s in v),
              lambda text: tuple(float(s) for s in text.split(";"))),
}


def save_report(report, csv_path, json_path) -> None:
    """report.csv has one column per CellResult field, in field order."""
    fields = dataclasses.fields(CellResult)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields])
        for row in report.rows:
            writer.writerow([_REPORT_CODECS[f.type][0](getattr(row, f.name)) for f in fields])
    _dump_json(
        {"plan": report.plan_summary, "aggregates": report.aggregates}, json_path
    )


def load_report_rows(csv_path) -> list:
    with open(csv_path, newline="") as fh:
        return [CellResult(**{f.name: _REPORT_CODECS[f.type][1](rec[f.name])
                              for f in dataclasses.fields(CellResult)})
                for rec in csv.DictReader(fh)]


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return fmt17(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, subcommand: str) -> None:
    entries = []
    for p in sorted(out_dir.rglob("*")):
        if p.is_file() and p.relative_to(out_dir).as_posix() != "MANIFEST.json":
            entries.append({
                "path": p.relative_to(out_dir).as_posix(),
                "sha256": _sha256(p),
                "bytes": p.stat().st_size,
            })
    _dump_json(
        {"schema_version": _SCHEMA_VERSION, "subcommand": subcommand,
         "files": entries},
        out_dir / "MANIFEST.json",
    )


def _open_run_dir(out_dir: str, config_path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(config_path, out / "config.json")
    return out


# ---------------------------------------------------------------------------
# figure data

def emit_figure_data(panels, target) -> list:
    """Write one CSV per profile panel plus a MANIFEST JSON.

    Each panel is a mapping with keys scaling, kappa, K, x, value.  Column
    order is fixed (x, value, kappa, K) and every value has 17 significant
    digits (`_util.write_csv`; the integer K prints as an integer), so
    regeneration under identical settings is byte-stable.  For
    panels from build_profile_panels the bytes also do not depend on the
    CPU, numpy's SIMD dispatch or libm: the weight's exp and powers use the
    fixed-operation kernels in _util, and the weight normalizer c_h is a
    sum of those values on a Gauss-Legendre panel rule.  Outside that
    guarantee remains LAPACK (the Gauss-Legendre nodes of the library's one
    rule, _util.legendre_rule).
    """
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    listing = []
    for panel in panels:
        scaling, kappa, K = panel["scaling"], float(panel["kappa"]), int(panel["K"])
        xs = np.asarray(panel["x"], dtype=np.float64)
        listing.append({"file": f"profile_{scaling}_kappa{kappa:g}_K{K}.csv", "scaling": scaling,
                        "kappa": fmt17(kappa), "K": K, "points": int(xs.size)})
        matrix = np.column_stack([xs, np.asarray(panel["value"], dtype=np.float64),
                                  np.full(xs.size, kappa), np.full(xs.size, K)])
        write_csv(target / listing[-1]["file"], ["x", "value", "kappa", "K"], [matrix])
    _dump_json({"schema_version": _SCHEMA_VERSION, "panels": listing},
               target / "MANIFEST.json")
    return [target / item["file"] for item in listing]


_SCALING_GRIDS = {"stretch": (-1.5, 1.5, 301), "squeeze": (-10.0, 10.0, 401)}


def build_profile_panels(kappa_list, K_list, scalings, basis_opts=None,
                         grids=None) -> list:
    """Evaluate the rescaled weighted-projection profiles for figure export."""
    from .conjecture_lab import WeightSpec, build_weighted_basis, scaled_profile

    grids = dict(_SCALING_GRIDS, **(grids or {}))
    basis_opts = basis_opts or {}
    panels = []
    K_max = max(K_list)
    for kappa in kappa_list:
        basis = build_weighted_basis(
            WeightSpec(kappa=kappa), K_max=K_max, **basis_opts
        )
        for scaling in scalings:
            lo, hi, count = grids[scaling]
            xs = np.linspace(lo, hi, count)
            for K in K_list:
                panels.append({
                    "scaling": scaling, "kappa": kappa, "K": K, "x": xs,
                    "value": scaled_profile(basis, K, scaling, xs),
                })
    return panels


# ---------------------------------------------------------------------------
# subcommands
#
# Each command receives its config checked against its table, and opens its
# run directory only once its results are computed.  `simulate` draws its
# sample as it writes it, so a failed draw removes the run directory it
# made.

_SIMULATE = {"scenario": _Key("scenario"), "n": _Key("integer", ">= 1"),
             "seed": _Key("integer", ">= 0", 0), "out_dir": _Key("string")}


def _cmd_simulate(cfg: dict, config_path) -> int:
    scenario = _scenario(cfg["scenario"])
    samples = scenario.stream(cfg["n"], cfg["seed"])
    fresh = not Path(cfg["out_dir"]).exists()
    out = _open_run_dir(cfg["out_dir"], config_path)
    try:
        ecf.export_csv(samples, out / "samples.csv")
    except BaseException:
        if fresh:
            shutil.rmtree(out)
        raise
    _dump_json(
        {"variant": scenario.variant, "n": cfg["n"], "d1": scenario.d1,
         "d2": scenario.d2, "diagnostics": scenario.diagnostics},
        out / "summary.json",
    )
    _write_manifest(out, "simulate")
    return 0


# the keys estimate and adapt share
_SAMPLE_INPUTS = {
    "samples": _Key("string"), "d1": _Key("integer", ">= 1"), "d2": _Key("integer", ">= 1"),
    "S": _Key("number", "> 0"), "nu": _Key("number", "> 0", 1.0),
    "nodes": _Key("integer", ">= 2", 48), "restarts": _Key("integer", ">= 1", 4),
    "lattice": _Key("lattice", default=None),
    "seed": _Key("integer", ">= 0", 0), "out_dir": _Key("string"),
}


def _sample_inputs(cfg: dict) -> tuple:
    """(samples, grid, lattice, options) shared by estimate and adapt."""
    d1, d2 = cfg["d1"], cfg["d2"]
    lattice = default_lattice(d1 + d2) if cfg["lattice"] is None else LatticeSpec(**cfg["lattice"])
    if lattice.d != d1 + d2:
        raise ConfigError(f"lattice dimension {lattice.d} != data dimension {d1 + d2}")
    samples = ecf.load_csv(cfg["samples"], d1, d2)
    opts = {k: cfg[k] for k in ("S", "restarts", "seed")}
    return samples, make_grid(cfg["nu"], (d1, d2), cfg["nodes"]), lattice, opts


_ESTIMATE = dict(_SAMPLE_INPUTS, kappa=_Key("number", "in (0, 1]"),
                 m_opt=_Key("integer", ">= 2", None))


def _cmd_estimate(cfg: dict, config_path) -> int:
    samples, grid, lattice, opts = _sample_inputs(cfg)
    outcome = estimate_once(ecf_table_for_grid(samples, grid), grid, lattice,
                            kappa=cfg["kappa"], m_opt=cfg["m_opt"], **opts)
    out = _open_run_dir(cfg["out_dir"], config_path)
    record = to_json_record(outcome.result.estimate)
    _dump_json(record, out / "phi.json")
    save_density(outcome.density, out / "density.csv", out / "density_meta.json")
    _dump_json(
        {
            "contrast_value": outcome.result.value,
            "converged": outcome.result.converged,
            "restarts_used": outcome.result.restarts_used,
            "m_trunc": outcome.m_trunc, "m_opt": outcome.m_opt,
            "omega": outcome.omega,
            "imag_residue": outcome.density.imag_residue,
        },
        out / "summary.json",
    )
    _write_manifest(out, "estimate")
    return 0


_ADAPT = dict(_SAMPLE_INPUTS, kappa_grid=_Key("tuple of numbers", "in (0, 1]"),
              beta=_Key("number", "> 0", 1.0))


def _cmd_adapt(cfg: dict, config_path) -> int:
    samples, grid, lattice, opts = _sample_inputs(cfg)
    outcome = adapt_from_samples(samples, grid, lattice, kappa_grid=cfg["kappa_grid"],
                                 beta=cfg["beta"], **opts)
    out = _open_run_dir(cfg["out_dir"], config_path)
    save_density(outcome.chosen, out / "density.csv", out / "density_meta.json")
    _dump_json(
        {
            "kappa_hat": outcome.kappa_hat,
            "c_sigma": outcome.c_sigma,
            "n": samples.n,
            "rows": [
                {"kappa": r.kappa, "sigma": r.sigma, "spread": r.spread,
                 "criterion": r.criterion}
                for r in outcome.selection.rows
            ],
        },
        out / "selection.json",
    )
    _write_manifest(out, "adapt")
    return 0


# K_list null means 1..K_max; cert_tol null means build_weighted_basis's default
_CONJECTURE = {
    "kappa_list": _Key("tuple of numbers", "in (0, 1]"),
    "K_list": _Key("tuple of integers", ">= 1", None), "K_max": _Key("integer", ">= 1", 16),
    "scalings": _Key("tuple of strings", tuple(_SCALING_GRIDS), tuple(_SCALING_GRIDS)),
    "cert_tol": _Key("number", "> 0", None), "c1": _Key("number", "> 0", 0.8),
    "c2": _Key("number", "> 0", 0.3), "census": _Key("bool", default=False),
    "stretch_grid": _Key("grid", default=_SCALING_GRIDS["stretch"]),
    "squeeze_grid": _Key("grid", default=_SCALING_GRIDS["squeeze"]),
    "out_dir": _Key("string"),
}


def _cmd_conjecture(cfg: dict, config_path) -> int:
    from .conjecture_lab import HOLDOUT_K, WeightSpec, build_weighted_basis, census_protocol

    kappa_list, K_max = cfg["kappa_list"], cfg["K_max"]
    K_list = cfg["K_list"] or tuple(range(1, K_max + 1))
    if max(K_list) > K_max:
        raise ConfigError("K_list exceeds K_max")
    if cfg["census"] and K_max < max(HOLDOUT_K):
        raise ConfigError(f"census needs K_max >= {max(HOLDOUT_K)} to cover its holdout range")
    basis_opts = {} if cfg["cert_tol"] is None else {"cert_tol": cfg["cert_tol"]}
    panels = build_profile_panels(kappa_list, K_list, cfg["scalings"], basis_opts=basis_opts,
                                  grids={s: cfg[s + "_grid"] for s in _SCALING_GRIDS})
    summary = {"kappa_list": list(kappa_list), "K_max": K_max,
               "n_panels": len(panels), "census": {}}
    if cfg["census"]:
        for kappa in kappa_list:
            basis = build_weighted_basis(WeightSpec(kappa=kappa), K_max=K_max,
                                         **basis_opts)
            c0, rows, ok = census_protocol(basis, cfg["c1"], cfg["c2"])
            summary["census"][fmt17(kappa)] = {
                "c0": c0, "ok": ok,
                "rows": [{"K": K, "count": cnt, "need": need}
                         for K, cnt, need in rows],
            }
    out = _open_run_dir(cfg["out_dir"], config_path)
    emit_figure_data(panels, out / "figures")
    _dump_json(summary, out / "summary.json")
    _write_manifest(out, "conjecture")
    return 0


_BOUNDS_CHECK = {
    "kappa_list": _Key("tuple of numbers", "in (0, 1]", (0.55, 0.75, 1.0)),
    "S_list": _Key("tuple of numbers", "> 0", (0.5, 1.0, 2.0)),
    "nu_list": _Key("tuple of numbers", "> 0", (0.5, 1.0)),
    "m_list": _Key("tuple of integers", ">= 1", (2, 3, 4, 5, 6)),
    "d_list": _Key("tuple of integers", ">= 1", (1, 2)),
    "n_members": _Key("integer", ">= 1", 25), "member_degree": _Key("integer", ">= 1", 30),
    "seed": _Key("integer", ">= 0", 0), "out_dir": _Key("string"),
}


def _cmd_bounds_check(cfg: dict, config_path) -> int:
    from .legendre_bounds import bound_suite

    rows = []
    violations = 0
    for kappa, S, nu, d, m in itertools.product(cfg["kappa_list"], cfg["S_list"],
                                                cfg["nu_list"], cfg["d_list"], cfg["m_list"]):
        reports = bound_suite(kappa, S, nu, d, m, n_members=cfg["n_members"],
                              seed=cfg["seed"], member_degree=cfg["member_degree"])
        for rep in reports:
            ok = rep.holds()
            violations += 0 if ok else 1
            rows.append([
                rep.name, fmt17(kappa), fmt17(S), fmt17(nu), str(d), str(m),
                fmt17(rep.bound), fmt17(rep.measured), fmt17(rep.slack), str(int(ok)),
            ])
    out = _open_run_dir(cfg["out_dir"], config_path)
    with open(out / "bounds.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "kappa", "S", "nu", "d", "m", "bound",
                         "measured", "slack", "holds"])
        writer.writerows(rows)
    _dump_json({"rows": len(rows), "violations": violations},
               out / "summary.json")
    _write_manifest(out, "bounds-check")
    return 0 if violations == 0 else 3


# ExperimentPlan checks the ranges of its fields, so these keys state only
# their kind; the defaults are the plan's
_PLAN = {f.name: f.default for f in dataclasses.fields(ExperimentPlan)}
_EXPERIMENT = {
    "scenario": _Key("scenario"), "n_list": _Key("tuple of integers"),
    "replicates": _Key("integer"), "kappa_grid": _Key("tuple of numbers"), "S": _Key("number"),
    **{k: _Key(kind, default=_PLAN[k]) for k, kind in (
        ("nu", "number"), ("seed", "integer"), ("restarts", "integer"),
        ("cell_budget_s", "number"))},
    "nodes": _Key("integer", default=_PLAN["nodes_per_axis"]),
    "tuning": _Key("tuning", default={"mode": _PLAN["tuning_mode"]}),
    "lattice": _Key("lattice", default=None), "out_dir": _Key("string"),
}


def _cmd_experiment(cfg: dict, config_path) -> int:
    scenario = _scenario(cfg["scenario"])
    plan = ExperimentPlan(
        scenario=scenario, nodes_per_axis=cfg["nodes"], tuning_mode=cfg["tuning"]["mode"],
        m_opt=cfg["tuning"]["m_opt"], lattice=cfg["lattice"] and LatticeSpec(**cfg["lattice"]),
        # the other keys are the plan fields of the same name
        **{k: v for k, v in cfg.items()
           if k not in ("scenario", "nodes", "tuning", "lattice", "out_dir")},
    )
    report = run(plan)
    out = _open_run_dir(cfg["out_dir"], config_path)
    save_report(report, out / "report.csv", out / "report.json")
    _write_manifest(out, "experiment")
    return 0


# command -> (its key table, its function)
_COMMANDS = {
    "simulate": (_SIMULATE, _cmd_simulate),
    "estimate": (_ESTIMATE, _cmd_estimate),
    "adapt": (_ADAPT, _cmd_adapt),
    "conjecture": (_CONJECTURE, _cmd_conjecture),
    "bounds-check": (_BOUNDS_CHECK, _cmd_bounds_check),
    "experiment": (_EXPERIMENT, _cmd_experiment),
}


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfdeconv",
        description="Deconvolution with unknown noise: estimation, "
                    "adaptation, bound checks, and figure data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON config file")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        print(f"config error: no such file {args.config}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, not JSON
        print(f"config error: invalid JSON in {args.config}: {exc}", file=sys.stderr)
        return 2
    table, command = _COMMANDS[args.subcommand]
    try:
        return command(_section(cfg, table, args.subcommand), args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli())
