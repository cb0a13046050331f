"""Print bit-identity digests of the benchmark's workloads.

For one source checkout, run each workload of `perfbench/workloads.py` once
(the three estimation workloads and the lower-bound lab) and print, per
workload, the SHA-256 of its report rows, the SHA-256 of the concatenated
`theta` bytes of every estimate, and the SHA-256 of the concatenated
`density.values` bytes of every estimate, both in call order.  The density
digest sees changes to the inversion that the rows' L2 columns hide when
the truth dominates them.  The lab makes no estimates: its theta and
density digests are those of no bytes, and its rows carry the basis,
census, two-point, Le Cam and bound-suite values.  The pass and the rows
and theta byte strings are those that `perfbench/run.py` compares across
passes (`one_pass`, `rows_bytes`, `thetas`).  A last line runs the
`experiment` subcommand of the checkout's CLI on one small fixed config
(plan seed = the seed argument) in a temporary directory and prints the
SHA-256 of its report.csv and report.json, so the CLI's artifacts are
compared too.  An `estimate-cli` line does the same for the `estimate`
subcommand: `simulate` writes one small fixed sample (seed = the seed
argument), `estimate` fits it, and the line prints the SHA-256 of its
phi.json, density.csv and summary.json.  An `adapt-cli` line runs the
`adapt` subcommand (seed = the seed argument) on the same sample and
prints the SHA-256 of its selection.json and density.csv.  A
`two-point-cli` line runs
`simulate` on one fixed two-point config (seed = the seed argument) and
prints the SHA-256 of its samples.csv and summary.json, so the two-point
scenario's sampler and construction diagnostics are compared too.  A
`bounds-cli` line runs `bounds-check` on one small fixed sweep at d = 3
and 4 (suite seed = the seed argument) and prints the SHA-256 of its
bounds.csv and summary.json, so the degree-30 index tables above d = 2
that its class members use are compared too.  A `scenario-oracles` line
builds one scenario of each kind (SCENARIOS and the two-point one) through
the library and prints one SHA-256 over, per scenario, the oracle's signal
CF tables and noise weights on an 8-node grid, a 40,000-draw sample (more
than two of the sampler's row blocks; seed = the seed argument), the
construction diagnostics and, for a mixture, the true density at the
draws and its squared norm, so the noise-block, errors-in-variables,
h_kappa and compact_bump laws are compared too.  A
`lab-lecam` line prints the repr of every Le Cam
`l1_single` and `value` of the lab pass, in call order, so the size of a
last-bit change that moves the lab's rows hash can be read off.  An
`adapt-odd-n` line prints one SHA-256 over the repr of two `adaptive_run`
cells (seed = the seed argument), built through the public API only: an
ICA plan at n = ODD_N, whose halves end off every ECF run, row block and
chunk edge, the head's last chunk holding one row, and a d1 = d2 = 2
repeated plan with two-axis gaussian noise, whose sample streams read
later n-draw segments of one stream.  Two
checkouts whose lines match produce the same outputs to the bit:

    python3 tools/rows_digest.py                     # this checkout, seed 1
    python3 tools/rows_digest.py /path/to/other 1    # another checkout

The library is imported from CHECKOUT/src and the benchmark's modules from
CHECKOUT/perfbench, both read-only; run one checkout per process.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKLOADS = ("cells-ica2d", "adapt-ica2d-1m", "cell-rm4d", "lab-lowerbound")

# a small ICA experiment with a density truth, so every report column is set
EXPERIMENT = {
    "scenario": {
        "variant": "ica", "d1": 1,
        "sources": [{"kind": "uniform", "params": [1.0]}, {"kind": "uniform", "params": [0.5]}],
        "mixing": [[1.0, 0.5], [0.5, 1.0]],
        "noise1": {"kind": "laplace", "param": 0.3}, "noise2": {"kind": "laplace", "param": 0.3},
    },
    "n_list": [500, 1000], "replicates": 2, "kappa_grid": [0.6, 0.9], "S": 1.5,
    "nodes": 16, "tuning": {"mode": "override", "m_opt": 4},
    "lattice": {"mins": [-3, -3], "maxs": [3, 3], "counts": [9, 9]},
}

# one estimate on a small sample of the same scenario
SIMULATE = {"scenario": EXPERIMENT["scenario"], "n": 2000}
ESTIMATE = {"d1": 1, "d2": 1, "kappa": 0.75, "S": 1.5, "nodes": 16, "m_opt": 4,
            "lattice": EXPERIMENT["lattice"]}
ESTIMATE_FILES = ("phi.json", "density.csv", "summary.json")

# kappa selection on the same sample, at the theoretical degrees
ADAPT = {"d1": 1, "d2": 1, "kappa_grid": [0.6, 0.9], "S": 1.5, "nodes": 16,
         "lattice": EXPERIMENT["lattice"]}
ADAPT_FILES = ("selection.json", "density.csv")

# the perturbed two-point scenario of the lab's kappa 0.75 instance at n = 10^4
TWO_POINT = {
    "scenario": {
        "variant": "two_point", "two_point": {"kappa": 0.75, "n": 10_000},
        "noise1": {"kind": "uniform", "param": 0.3}, "noise2": {"kind": "uniform", "param": 0.3},
        "perturbed": True,
    },
    "n": 2000,
}
TWO_POINT_FILES = ("samples.csv", "summary.json")

# one bound suite per dimension above 2, at the default member degree 30
BOUNDS = {"kappa_list": [0.75], "S_list": [1.0], "nu_list": [1.0], "m_list": [6],
          "d_list": [3, 4], "n_members": 3}
BOUNDS_FILES = ("bounds.csv", "summary.json")

# one scenario of each kind: (variant, signal or sources, noise1, noise2, options); a
# signal is (kind, params) and a noise block one (kind, param) or a list of them
UNIFORM, BUMP, HKAPPA = ("uniform", (1.0,)), ("compact_bump", (0.5, 4.0)), ("h_kappa", (0.75, 1.0))
SCENARIOS = (
    ("repeated", UNIFORM, [("g_density", 2.0), ("uniform", 0.3)],
     [("uniform", 0.3), ("g_density", 2.0)], {"d1": 2}),
    ("repeated", HKAPPA, ("uniform", 0.3), ("laplace", 0.3), {}),
    ("repeated", BUMP, ("laplace", 0.3), ("uniform", 0.3), {}),
    ("eiv", UNIFORM, ("uniform", 0.3), ("laplace", 0.3), {}),
    ("eiv", HKAPPA, ("uniform", 0.3), ("laplace", 0.3), {"link": "identity"}),
    ("eiv", ("point_mass", (0.4,)), ("laplace", 0.3), ("uniform", 0.3), {}),
    ("ica", [UNIFORM, BUMP, HKAPPA], ("laplace", 0.3), ("g_density", 2.0),
     {"d1": 1, "mixing": [[1.0, 0.5, 0.3], [0.4, 1.0, 0.5], [0.3, 0.6, 1.0]]}),
)
ORACLE_NODES, ORACLE_DRAWS = 8, 40_000

# 3 ECF runs, a row block, two chunks and 3 rows: n // 2 = 58369 rows end one
# row into a chunk, 9217 rows into a row block and 25601 rows into a run
ODD_N = 3 * 2**15 + 2**14 + 2 * 1024 + 3
ODD_PLANS = (
    ("ica", ODD_N, {"nodes_per_axis": 16, "kappa_grid": (0.6, 0.9), "S": 1.5}),
    ("repeated", 3000, {"nodes_per_axis": 8, "kappa_grid": (0.75, 1.0), "S": 1.5}),
)


def _import_checkout(root: Path):
    src, bench = root / "src", root / "perfbench"
    if not (src / "cfdeconv" / "__init__.py").is_file() or not (bench / "workloads.py").is_file():
        sys.exit(f"rows_digest: {root} has no src/cfdeconv or perfbench/workloads.py")
    sys.path[:0] = [str(src), str(bench)]
    import cfdeconv
    import run
    import tracer
    import workloads

    if Path(cfdeconv.__file__).resolve().parent != (src / "cfdeconv").resolve():
        sys.exit(f"rows_digest: cfdeconv was imported from {cfdeconv.__file__}, not {src}")
    return cfdeconv, run, tracer, workloads


def digests(cf, run, tracer, workloads, name: str, seed: int) -> tuple:
    """(rows SHA-256, theta SHA-256, density SHA-256, number of estimates,
    report rows) of one untraced pass."""
    built = workloads.FACTORIES[name](cf, seed)
    capture = tracer.Capture(cf)
    try:
        p = run.one_pass(cf, built, capture, traced=False)
    finally:
        capture.close()
    thetas = run.thetas(p)
    rows = hashlib.sha256(run.rows_bytes(p)).hexdigest()
    density = hashlib.sha256(b"".join(o.density.values.tobytes() for o in p.outcomes))
    return (rows, hashlib.sha256(b"".join(thetas)).hexdigest(), density.hexdigest(),
            len(thetas), p.out["rows"])


def lecam_line(cf, rows, seed: int) -> str:
    """The l1_single and value of every ("lecam", ..., report values) lab row."""
    names = [f.name for f in dataclasses.fields(cf.LeCamReport)]
    reports = [dict(zip(names, row[-1])) for row in rows if row[0] == "lecam"]
    l1 = ", ".join(repr(r["l1_single"]) for r in reports)
    value = ", ".join(repr(r["value"]) for r in reports)
    return f"lab-lecam seed={seed} l1_single=[{l1}] value=[{value}]"


def _cli_run(tmp: Path, command: str, cfg: dict) -> Path:
    """The run directory of the checkout's CLI `command` on cfg; a nonzero
    exit ends the script."""
    out, config = tmp / command, tmp / f"{command}.json"
    config.write_text(json.dumps(dict(cfg, out_dir=str(out))))
    code = importlib.import_module("cfdeconv.cli_io").cli([command, str(config)])
    if code != 0:
        sys.exit(f"rows_digest: the {command} config exited {code}")
    return out


def _file_digests(out: Path, names) -> tuple:
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names)


def experiment_digests(seed: int) -> tuple:
    """(report.csv SHA-256, report.json SHA-256) of the EXPERIMENT config run
    through the CLI with plan seed `seed`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = _cli_run(Path(tmp), "experiment", dict(EXPERIMENT, seed=seed))
        return _file_digests(out, ("report.csv", "report.json"))


def fit_digests(command: str, cfg: dict, names, seed: int) -> tuple:
    """SHA-256 of each artifact in `names` of the CLI `command` on cfg, run
    with seed `seed` on the SIMULATE sample drawn with seed `seed`."""
    with tempfile.TemporaryDirectory() as tmp:
        sim = _cli_run(Path(tmp), "simulate", dict(SIMULATE, seed=seed))
        out = _cli_run(Path(tmp), command,
                       dict(cfg, samples=str(sim / "samples.csv"), seed=seed))
        return _file_digests(out, names)


def cli_digests(command: str, cfg: dict, names, seed: int) -> tuple:
    """SHA-256 of each artifact in `names` of the CLI `command` on cfg, run
    with seed `seed`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = _cli_run(Path(tmp), command, dict(cfg, seed=seed))
        return _file_digests(out, names)


def _build_scenario(cf, variant, signal, noise1, noise2, options):
    def noise(block):
        if isinstance(block, list):
            return [cf.AxisNoise(*axis) for axis in block]
        return cf.AxisNoise(*block)

    options = dict(options)
    if variant == "ica":
        sources = [cf.SignalSpec(*source) for source in signal]
        return cf.make_ica(sources, options.pop("mixing"), noise(noise1), noise(noise2), **options)
    make = cf.make_repeated if variant == "repeated" else cf.make_eiv
    return make(cf.SignalSpec(*signal), noise(noise1), noise(noise2), **options)


def oracle_digest(cf, seed: int) -> str:
    """SHA-256 over every SCENARIOS entry and the TWO_POINT scenario of its
    oracle tables and noise weights on an ORACLE_NODES grid, an ORACLE_DRAWS
    sample drawn with seed `seed`, its sorted diagnostics, its true density
    at the sample (if it has one) and that density's squared norm."""
    scenarios = [_build_scenario(cf, *entry) for entry in SCENARIOS]
    cli_io = importlib.import_module("cfdeconv.cli_io")
    scenarios.append(cli_io.scenario_from_config(TWO_POINT["scenario"]))
    h = hashlib.sha256()
    for spec in scenarios:
        grid = cf.contrast.make_grid(1.0, (spec.d1, spec.d2), ORACLE_NODES)
        oracle, data = spec.oracle(), spec.sample(ORACLE_DRAWS, seed).data
        density = spec.true_density()
        for array in (*oracle.tables(grid), *oracle.noise_weights(grid), data,
                      density(data) if density else np.zeros(0)):
            h.update(array.tobytes())
        h.update(repr((sorted(spec.diagnostics.items()), spec.density_norm_sq())).encode())
    return h.hexdigest()


def adapt_odd_digest(cf, seed: int) -> str:
    """SHA-256 over the repr of the `adaptive_run` cell of each ODD_PLANS
    entry at seed `seed`."""
    laplace, gaussian = cf.AxisNoise("laplace", 0.3), cf.AxisNoise("gaussian", 0.2)
    uniform = cf.SignalSpec("uniform", (1.0,)), cf.SignalSpec("uniform", (0.5,))
    scenarios = {
        "ica": cf.make_ica(uniform, [[1.0, 0.5], [0.5, 1.0]], laplace, laplace, d1=1),
        "repeated": cf.make_repeated(uniform[0], [gaussian, gaussian], [gaussian, laplace],
                                     d1=2),
    }
    h = hashlib.sha256()
    for variant, n, options in ODD_PLANS:
        scenario = scenarios[variant]
        plan = cf.ExperimentPlan(scenario=scenario, n_list=(n,), replicates=1, seed=seed,
                                 lattice=cf.LatticeSpec((-3.0,) * scenario.d,
                                                        (3.0,) * scenario.d, (7,) * scenario.d),
                                 **options)
        h.update(repr(tuple(vars(cf.adaptive_run(plan, n, seed)).values())).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("seed", nargs="?", type=int, default=1)
    args = ap.parse_args(argv)
    cf, run, tracer, workloads = _import_checkout(args.checkout.resolve())
    for name in WORKLOADS:
        rows, theta, density, count, out_rows = digests(cf, run, tracer, workloads, name,
                                                        args.seed)
        print(f"{name} seed={args.seed} rows={rows} theta={theta} density={density} "
              f"estimates={count}", flush=True)
        if name == "lab-lowerbound":
            print(lecam_line(cf, out_rows, args.seed), flush=True)
    report_csv, report_json = experiment_digests(args.seed)
    print(f"experiment-cli seed={args.seed} report.csv={report_csv} report.json={report_json}",
          flush=True)
    for command, cfg, names in (("estimate", ESTIMATE, ESTIMATE_FILES),
                                ("adapt", ADAPT, ADAPT_FILES)):
        files = " ".join(f"{name}={digest}" for name, digest in
                         zip(names, fit_digests(command, cfg, names, args.seed)))
        print(f"{command}-cli seed={args.seed} {files}", flush=True)
    for label, command, cfg, names in (("two-point", "simulate", TWO_POINT, TWO_POINT_FILES),
                                       ("bounds", "bounds-check", BOUNDS, BOUNDS_FILES)):
        files = " ".join(f"{name}={digest}" for name, digest in
                         zip(names, cli_digests(command, cfg, names, args.seed)))
        print(f"{label}-cli seed={args.seed} {files}", flush=True)
    print(f"scenario-oracles seed={args.seed} sha256={oracle_digest(cf, args.seed)}", flush=True)
    print(f"adapt-odd-n seed={args.seed} sha256={adapt_odd_digest(cf, args.seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
