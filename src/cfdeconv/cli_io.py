"""Command-line surface: config schema, run directories, persistence.

Every subcommand reads one JSON config file, validates it against a closed
key schema (unknown keys are errors), and writes its outputs into a run
directory containing a copy of the config, a MANIFEST with content hashes,
and the artifact files.  All floats are printed with 17 significant digits
so reruns are byte-identical.  Exit codes: 0 success, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from ._util import ConfigError, NumericalError, as_type, fmt17
from . import ecf
from .conjecture_lab import (
    HOLDOUT_K,
    WeightSpec,
    build_two_point,
    build_weighted_basis,
    census_protocol,
    make_instance,
    scaled_profile,
)
from .contrast import make_grid
from .legendre_bounds import bound_suite
from .multiindex_taylor import from_json_record, to_json_record
from .reconstruct import DensityGrid, LatticeSpec
from .runner import (CellResult, ExperimentPlan, adapt_from_samples, default_lattice,
                     estimate_once, run)
from .scenarios import (
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
# schema helpers

def _require_keys(cfg: dict, allowed, required, where: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"missing config keys in {where}: {', '.join(missing)}")


def _as_kappa(value, key: str) -> float:
    k = as_type(value, float, key)
    if not (0.0 < k <= 1.0):
        raise ConfigError(f"{key} must lie in (0, 1], got {value}")
    return k


def _as_pos(value, key: str) -> float:
    x = as_type(value, float, key)
    if not (x > 0):
        raise ConfigError(f"{key} must be positive, got {value}")
    return x


def _as_int(value, key: str, minimum: int = 1) -> int:
    n = as_type(value, int, key)
    if n < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return n


def _as_bool(value, key: str) -> bool:
    """A JSON true/false; anything else (0, "no", null) is a ConfigError."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _as_list(value, key: str, convert) -> tuple:
    """A nonempty list-valued key, each item checked by convert(item, key)."""
    items = tuple(convert(v, key) for v in as_type(value, tuple, key))
    if not items:
        raise ConfigError(f"{key} must be a nonempty list")
    return items


def _as_scaling_grid(value, key: str) -> tuple:
    items = as_type(value, tuple, key)
    if len(items) != 3:
        raise ConfigError(f"{key} must be [lo, hi, count], got {value!r}")
    return as_type(items[0], float, key), as_type(items[1], float, key), _as_int(items[2], key)


def _lattice_from_config(cfg, d: int) -> LatticeSpec:
    """The configured lattice, or the default one; either has dimension d."""
    if cfg is None:
        return default_lattice(d)
    _require_keys(cfg, {"mins", "maxs", "counts"}, {"mins", "maxs", "counts"}, "lattice")
    lattice = LatticeSpec(mins=cfg["mins"], maxs=cfg["maxs"], counts=cfg["counts"])
    if lattice.d != d:
        raise ConfigError(f"lattice dimension {lattice.d} != data dimension {d}")
    return lattice


# ---------------------------------------------------------------------------
# scenario configuration

_SIGNAL_KEYS = {"kind", "params"}
_NOISE_KEYS = {"kind", "param"}
_SCENARIO_KEYS = {"variant", "nu", "c_nu"}
# scenario variant -> (required keys, optional keys), besides _SCENARIO_KEYS
_VARIANT_KEYS = {
    "repeated": ({"signal", "noise1", "noise2"}, {"d1"}),
    "eiv": ({"signal", "noise1", "noise2"}, {"link"}),
    "ica": ({"sources", "mixing", "noise1", "noise2"}, {"d1"}),
    "two_point": ({"two_point", "noise1", "noise2"}, {"perturbed"}),
}


def _signal_from_config(cfg: dict) -> SignalSpec:
    _require_keys(cfg, _SIGNAL_KEYS, {"kind"}, "signal")
    params = as_type(cfg.get("params", ()), tuple, "signal.params")
    params = tuple(as_type(p, float, "signal.params") for p in params)
    return SignalSpec(kind=cfg["kind"], params=params)


def _noise_from_config(cfg):
    if isinstance(cfg, list):
        return [_noise_from_config(item) for item in cfg]
    _require_keys(cfg, _NOISE_KEYS, {"kind"}, "noise")
    return AxisNoise(kind=cfg["kind"], param=as_type(cfg.get("param", 1.0), float, "noise.param"))


def _as_matrix(value, key: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a matrix of numbers, got {value!r}") from None


_TWO_POINT_KEYS = {
    "kappa", "x0", "K_max", "n", "a", "c_K", "c_b", "c_mass", "beta",
}


def _two_point_from_config(cfg: dict):
    _require_keys(cfg, _TWO_POINT_KEYS, {"kappa", "n"}, "two_point")
    spec = WeightSpec(
        kappa=_as_kappa(cfg["kappa"], "two_point.kappa"),
        x0=as_type(cfg.get("x0", 1.0), float, "two_point.x0"),
    )
    basis = build_weighted_basis(spec, K_max=_as_int(cfg.get("K_max", 16), "two_point.K_max", 0))
    defaults = {"a": 0.4, "beta": 1.0, "c_K": 1.0, "c_b": 4.0, "c_mass": 1e-8}
    inst = make_instance(
        basis, _as_int(cfg["n"], "two_point.n", 3),
        **{k: as_type(cfg.get(k, v), float, "two_point." + k) for k, v in defaults.items()},
    )
    return build_two_point(inst, basis)


def scenario_from_config(cfg: dict) -> ScenarioSpec:
    # an object naming its variant; the variant fixes the other keys
    _require_keys(cfg, cfg, {"variant"}, "scenario")
    variant = cfg["variant"]
    if not isinstance(variant, str) or variant not in _VARIANT_KEYS:
        raise ConfigError(f"unknown scenario variant {variant!r}")
    required, optional = _VARIANT_KEYS[variant]
    _require_keys(cfg, _SCENARIO_KEYS | required | optional, required, f"{variant} scenario")
    nu = _as_pos(cfg.get("nu", 1.0), "scenario.nu")
    c_nu = _as_pos(cfg.get("c_nu", 1e-3), "scenario.c_nu")
    noise1, noise2 = _noise_from_config(cfg["noise1"]), _noise_from_config(cfg["noise2"])
    if variant == "repeated":
        d1 = _as_int(cfg.get("d1", 1), "scenario.d1")
        return make_repeated(_signal_from_config(cfg["signal"]), noise1, noise2,
                             d1=d1, nu=nu, c_nu=c_nu)
    if variant == "eiv":
        link = as_type(cfg.get("link", "cubic_plus_x"), str, "scenario.link")
        return make_eiv(_signal_from_config(cfg["signal"]), noise1, noise2,
                        link=link, nu=nu, c_nu=c_nu)
    if variant == "ica":
        sources = as_type(cfg["sources"], list, "scenario.sources")
        sources = [_signal_from_config(s) for s in sources]
        return make_ica(sources, _as_matrix(cfg["mixing"], "scenario.mixing"), noise1, noise2,
                        d1=_as_int(cfg.get("d1", 1), "scenario.d1"), nu=nu, c_nu=c_nu)
    perturbed = _as_bool(cfg.get("perturbed", False), "scenario.perturbed")
    return make_two_point(_two_point_from_config(cfg["two_point"]), noise1, noise2,
                          perturbed=perturbed, nu=nu, c_nu=c_nu)


# ---------------------------------------------------------------------------
# persistence

def load_poly(path):
    """Reload a persisted CF candidate (inverse of the phi.json dump)."""
    with open(path) as fh:
        return from_json_record(json.load(fh))


def save_density(grid: DensityGrid, csv_path, meta_path) -> None:
    pts = grid.lattice.points()
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{a + 1}" for a in range(grid.lattice.d)] + ["value"])
        for pt, val in zip(pts, grid.values.reshape(-1)):
            writer.writerow([fmt17(c) for c in pt] + [fmt17(val)])
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


def _open_run_dir(cfg: dict, config_path) -> Path:
    if "out_dir" not in cfg:
        raise ConfigError("missing config keys: out_dir")
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(config_path, out / "config.json")
    return out


# ---------------------------------------------------------------------------
# figure data

def emit_figure_data(panels, target) -> list:
    """Write one CSV per profile panel plus a MANIFEST JSON.

    Each panel is a mapping with keys scaling, kappa, K, x, value.  Column
    order is fixed (x, value, kappa, K) and floats use 17 significant
    digits, so regeneration under identical settings is byte-stable.  For
    panels from build_profile_panels the bytes also do not depend on the
    CPU, numpy's SIMD dispatch or libm: the weight's exp and powers use the
    fixed-operation kernels in _util.  Outside that guarantee remain LAPACK
    (the Gauss-Legendre nodes from np.polynomial.legendre.leggauss) and
    scipy's QUADPACK (the weight normalizer c_h).
    """
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    listing = []
    for panel in panels:
        scaling = panel["scaling"]
        kappa = float(panel["kappa"])
        K = int(panel["K"])
        name = f"profile_{scaling}_kappa{kappa:g}_K{K}.csv"
        path = target / name
        xs = np.asarray(panel["x"], dtype=np.float64)
        vals = np.asarray(panel["value"], dtype=np.float64)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "value", "kappa", "K"])
            for x, v in zip(xs, vals):
                writer.writerow([fmt17(x), fmt17(v), fmt17(kappa), str(K)])
        written.append(path)
        listing.append({
            "file": name, "scaling": scaling, "kappa": fmt17(kappa),
            "K": K, "points": int(xs.size),
        })
    _dump_json({"schema_version": _SCHEMA_VERSION, "panels": listing},
               target / "MANIFEST.json")
    return written


_SCALING_GRIDS = {"stretch": (-1.5, 1.5, 301), "squeeze": (-10.0, 10.0, 401)}


def build_profile_panels(kappa_list, K_list, scalings, basis_opts=None,
                         grids=None) -> list:
    """Evaluate the rescaled weighted-projection profiles for figure export."""
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

_SIM_KEYS = {"scenario", "n", "seed", "out_dir"}


def _cmd_simulate(cfg: dict, config_path) -> int:
    _require_keys(cfg, _SIM_KEYS, {"scenario", "n", "out_dir"}, "simulate")
    scenario = scenario_from_config(cfg["scenario"])
    n = _as_int(cfg["n"], "n")
    samples = scenario.sample(n, _as_int(cfg.get("seed", 0), "seed", 0))
    out = _open_run_dir(cfg, config_path)
    ecf.export_csv(samples, out / "samples.csv")
    _dump_json(
        {"variant": scenario.variant, "n": n, "d1": scenario.d1,
         "d2": scenario.d2, "diagnostics": scenario.diagnostics},
        out / "summary.json",
    )
    _write_manifest(out, "simulate")
    return 0


def _sample_inputs(cfg: dict) -> tuple:
    """(samples, grid, lattice, options) shared by estimate and adapt, every
    value checked before a run directory is opened."""
    d1 = _as_int(cfg["d1"], "d1")
    d2 = _as_int(cfg["d2"], "d2")
    opts = {
        "S": _as_pos(cfg["S"], "S"),
        "nu": _as_pos(cfg.get("nu", 1.0), "nu"),
        "c_kappa": None if cfg.get("c_kappa") is None else _as_pos(cfg["c_kappa"], "c_kappa"),
        "restarts": _as_int(cfg.get("restarts", 4), "restarts"),
        "seed": _as_int(cfg.get("seed", 0), "seed", 0),
    }
    nodes = _as_int(cfg.get("nodes", 48), "nodes", 2)
    lattice = _lattice_from_config(cfg.get("lattice"), d1 + d2)
    samples = ecf.load_csv(cfg["samples"], d1, d2)
    return samples, make_grid(opts["nu"], (d1, d2), nodes), lattice, opts


_EST_KEYS = {
    "samples", "d1", "d2", "kappa", "S", "nu", "nodes", "m_opt", "c_kappa",
    "restarts", "lattice", "seed", "out_dir",
}


def _cmd_estimate(cfg: dict, config_path) -> int:
    _require_keys(cfg, _EST_KEYS, {"samples", "d1", "d2", "kappa", "S", "out_dir"},
                  "estimate")
    kappa = _as_kappa(cfg["kappa"], "kappa")
    m_opt = None if cfg.get("m_opt") is None else _as_int(cfg["m_opt"], "m_opt")
    samples, grid, lattice, opts = _sample_inputs(cfg)
    out = _open_run_dir(cfg, config_path)
    outcome = estimate_once(samples, grid, lattice, kappa=kappa, m_opt=m_opt, **opts)
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


_ADAPT_KEYS = {
    "samples", "d1", "d2", "kappa_grid", "S", "beta", "nu", "nodes",
    "c_kappa", "restarts", "lattice", "seed", "out_dir",
}


def _cmd_adapt(cfg: dict, config_path) -> int:
    _require_keys(cfg, _ADAPT_KEYS,
                  {"samples", "d1", "d2", "kappa_grid", "S", "out_dir"}, "adapt")
    kappa_grid = _as_list(cfg["kappa_grid"], "kappa_grid", _as_kappa)
    beta = _as_pos(cfg.get("beta", 1.0), "beta")
    samples, grid, lattice, opts = _sample_inputs(cfg)
    out = _open_run_dir(cfg, config_path)
    outcome = adapt_from_samples(samples, grid, lattice, kappa_grid=kappa_grid,
                                 beta=beta, **opts)
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


_CONJ_KEYS = {
    "kappa_list", "K_list", "K_max", "scalings", "panels", "nodes",
    "cert_tol", "c1", "c2", "census", "stretch_grid", "squeeze_grid",
    "out_dir",
}


def _cmd_conjecture(cfg: dict, config_path) -> int:
    _require_keys(cfg, _CONJ_KEYS, {"kappa_list", "out_dir"}, "conjecture")
    kappa_list = _as_list(cfg["kappa_list"], "kappa_list", _as_kappa)
    K_max = _as_int(cfg.get("K_max", 16), "K_max")
    K_list = _as_list(cfg.get("K_list", range(1, K_max + 1)), "K_list", _as_int)
    if max(K_list) > K_max:
        raise ConfigError("K_list exceeds K_max")
    scalings = as_type(cfg.get("scalings", ["stretch", "squeeze"]), list, "scalings")
    for s in scalings:
        if not isinstance(s, str) or s not in _SCALING_GRIDS:
            raise ConfigError(f"unknown scaling {s!r}")
    census = _as_bool(cfg.get("census", False), "census")
    if census and K_max < max(HOLDOUT_K):
        raise ConfigError(f"census needs K_max >= {max(HOLDOUT_K)} to cover its holdout range")
    basis_opts = {}
    if "panels" in cfg:
        basis_opts["panels"] = _as_int(cfg["panels"], "panels")
    if "nodes" in cfg:
        basis_opts["nodes"] = _as_int(cfg["nodes"], "nodes", 2)
    if "cert_tol" in cfg:
        basis_opts["cert_tol"] = _as_pos(cfg["cert_tol"], "cert_tol")
    grids = {s: _as_scaling_grid(cfg[s + "_grid"], s + "_grid")
             for s in _SCALING_GRIDS if s + "_grid" in cfg}
    out = _open_run_dir(cfg, config_path)
    panels = build_profile_panels(kappa_list, K_list, scalings,
                                  basis_opts=basis_opts, grids=grids)
    emit_figure_data(panels, out / "figures")
    summary = {"kappa_list": list(kappa_list), "K_max": K_max,
               "n_panels": len(panels), "census": {}}
    if census:
        c1 = _as_pos(cfg.get("c1", 0.8), "c1")
        c2 = _as_pos(cfg.get("c2", 0.3), "c2")
        for kappa in kappa_list:
            basis = build_weighted_basis(WeightSpec(kappa=kappa), K_max=K_max,
                                         **basis_opts)
            c0, rows, ok = census_protocol(basis, c1, c2)
            summary["census"][fmt17(kappa)] = {
                "c0": c0, "ok": ok,
                "rows": [{"K": K, "count": cnt, "need": need}
                         for K, cnt, need in rows],
            }
    _dump_json(summary, out / "summary.json")
    _write_manifest(out, "conjecture")
    return 0


_BOUNDS_KEYS = {
    "kappa_list", "S_list", "nu_list", "m_list", "d_list", "n_members",
    "member_degree", "seed", "out_dir",
}


def _cmd_bounds_check(cfg: dict, config_path) -> int:
    _require_keys(cfg, _BOUNDS_KEYS, {"out_dir"}, "bounds-check")
    kappa_list = _as_list(cfg.get("kappa_list", [0.55, 0.75, 1.0]), "kappa_list", _as_kappa)
    S_list = _as_list(cfg.get("S_list", [0.5, 1.0, 2.0]), "S_list", _as_pos)
    nu_list = _as_list(cfg.get("nu_list", [0.5, 1.0]), "nu_list", _as_pos)
    m_list = _as_list(cfg.get("m_list", [2, 3, 4, 5, 6]), "m_list", _as_int)
    d_list = _as_list(cfg.get("d_list", [1, 2]), "d_list", _as_int)
    n_members = _as_int(cfg.get("n_members", 25), "n_members")
    member_degree = _as_int(cfg.get("member_degree", 30), "member_degree")
    seed = _as_int(cfg.get("seed", 0), "seed", 0)
    out = _open_run_dir(cfg, config_path)
    rows = []
    violations = 0
    for kappa, S, nu, d, m in itertools.product(kappa_list, S_list, nu_list, d_list, m_list):
        reports = bound_suite(kappa, S, nu, d, m, n_members=n_members,
                              seed=seed, member_degree=member_degree)
        for rep in reports:
            ok = rep.holds()
            violations += 0 if ok else 1
            rows.append([
                rep.name, fmt17(kappa), fmt17(S), fmt17(nu), str(d), str(m),
                fmt17(rep.bound), fmt17(rep.measured), fmt17(rep.slack), str(int(ok)),
            ])
    with open(out / "bounds.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "kappa", "S", "nu", "d", "m", "bound",
                         "measured", "slack", "holds"])
        writer.writerows(rows)
    _dump_json({"rows": len(rows), "violations": violations},
               out / "summary.json")
    _write_manifest(out, "bounds-check")
    return 0 if violations == 0 else 3


# experiment config key -> ExperimentPlan field, which converts and checks it
_EXP_FIELDS = {
    "n_list": "n_list", "replicates": "replicates", "kappa_grid": "kappa_grid",
    "S": "S", "beta": "beta", "nu": "nu", "nodes": "nodes_per_axis",
    "c_kappa": "c_kappa", "align_window": "align_window",
    "align_step": "align_step", "seed": "seed", "restarts": "restarts",
    "cell_budget_s": "cell_budget_s",
}
_EXP_KEYS = set(_EXP_FIELDS) | {"scenario", "tuning", "lattice", "out_dir"}


def _cmd_experiment(cfg: dict, config_path) -> int:
    _require_keys(
        cfg, _EXP_KEYS,
        {"scenario", "n_list", "replicates", "kappa_grid", "S", "out_dir"},
        "experiment",
    )
    scenario = scenario_from_config(cfg["scenario"])
    tuning = cfg.get("tuning", {"mode": "theoretical"})
    _require_keys(tuning, {"mode", "m_opt"}, {"mode"}, "tuning")
    plan = ExperimentPlan(
        scenario=scenario,
        tuning_mode=tuning["mode"],
        m_opt=tuning.get("m_opt"),
        lattice=_lattice_from_config(cfg.get("lattice"), scenario.d),
        **{field: cfg[key] for key, field in _EXP_FIELDS.items() if key in cfg},
    )
    out = _open_run_dir(cfg, config_path)
    report = run(plan)
    save_report(report, out / "report.csv", out / "report.json")
    _write_manifest(out, "experiment")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "adapt": _cmd_adapt,
    "conjecture": _cmd_conjecture,
    "bounds-check": _cmd_bounds_check,
    "experiment": _cmd_experiment,
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
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON in {args.config}: {exc}",
              file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config error: top-level config must be a JSON object",
              file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.subcommand](cfg, args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli())
