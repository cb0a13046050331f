"""Benchmark of the cfdeconv library: one workload per process.

    python3 perfbench/run.py --workload cells-ica2d --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else, so the command fails (exit code 1, no
result) where that directory is missing.

Untraced (--trace 0): set-up is timed in fresh interpreters (import plus
workload construction, median of SETUP_PROBES), then the workload runs pass
after pass, untraced, until the next pass would end after --seconds; at
least two passes run, and their report rows must match byte for byte.
Each pass is followed by a speed probe (see speed_probe).  The result
holds every end-to-end metric: setup_s, wall_norm_s (median over passes of
pass time / next probe time, times PROBE_REF_S) and peak_rss_mb (process
high-water mark after the passes).  The raw pass and probe times are in
the run record.

Traced (--trace 1): one untraced pass, then traced passes (see tracer.py)
for the rest of the time.  The traced estimates must be bit-identical to
the untraced ones.  The result holds every per-layer metric: per-layer
times and counters (median over traced passes), per-call p50/p99 pooled
over them, the quality of the final estimates, and the tracing overhead.

Quality is scored after all timing: the final contrast, the raw and the
translation-aligned CF box error (scoring.py) of every `estimate_once`
outcome, and the library's aligned lattice L2 error.  Every correctness
check counts once in `attempted`, and once in `failed` when it fails.
Before the result line, one JSON line carries the run record: machine,
library versions, BLAS threads, the workload's parameters and rationale,
the pass times, the quality figures and any failed check.  Traced runs
also write their spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# numpy, scipy and the modules beside this file, which import them, are
# imported inside functions: a set-up probe starts its clock before them.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
MIN_UNTRACED_PASSES = 2
# a round figure near the speed_probe() times seen on the 2-core Xeon VM the
# benchmark was tuned on (0.35 to 0.5 s); it only sets the scale of wall_norm_s
PROBE_REF_S = 0.5
IMAG_RESIDUE_MAX = 1e-9
ZETA_MASS_TOL = 1e-8


def import_library():
    """Import cfdeconv from this checkout's src/, or exit without a result."""
    if not (SRC / "cfdeconv" / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cfdeconv

    if Path(cfdeconv.__file__).resolve().parent != (SRC / "cfdeconv").resolve():
        sys.exit(f"perfbench: cfdeconv was imported from {cfdeconv.__file__}, not {SRC}")
    return cfdeconv


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time import plus workload construction."""
    start = time.perf_counter()
    cf = import_library()
    import workloads

    workloads.FACTORIES[workload](cf, seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload: str, seed: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


@dataclass
class Pass:
    wall: float
    out: dict
    outcomes: list  # estimate_once outcomes, in call order
    tracer: Optional[object] = None
    probe: float = 0.0  # speed_probe() time right after an untraced pass


def speed_probe() -> float:
    """Seconds for a fixed numpy load that calls no library code: complex
    exponentials and a 1024-deep complex GEMM, as in ECF tabulation, then
    small complex matrix products, as in the contrast.

    The shared machine this benchmark was tuned on drifts between speed
    phases lasting minutes (the same pass took 4.4 s in one run and 8.5 s in
    another).  The probe slows down with the passes (correlation 0.65 to 0.9
    over a set of runs), so pass time over probe time spreads less from run
    to run than pass time: the quartile spread was 0.14 against 0.24 over
    ten runs of cells-ica2d, 0.16 against 0.43 over seven of adapt-ica2d-1m."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((1024, 48))
    m = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    w = rng.random(48)
    start = time.perf_counter()
    for _ in range(100):
        e = np.exp(1j * x)
        e.T @ e
    for _ in range(4000):
        w @ (np.abs(m @ m.T * m) ** 2) @ w
    return time.perf_counter() - start


def one_pass(cf, built, capture, traced: bool) -> Pass:
    import tracer as tracing

    tr = tracing.Tracer() if traced else None
    if tr is not None:
        tr.install(cf)
    try:
        start = time.perf_counter()
        out = built.run()
        wall = time.perf_counter() - start
    finally:
        if tr is not None:
            tr.close()
    return Pass(wall, out, capture.take(), tr, 0.0 if traced else speed_probe())


def run_passes(cf, built, capture, seconds: float, traced: bool) -> tuple:
    """(untraced passes, traced passes) filling about `seconds`."""
    start = time.perf_counter()
    plain = [one_pass(cf, built, capture, False)]
    traced_passes = [one_pass(cf, built, capture, True)] if traced else []
    while not traced and len(plain) < MIN_UNTRACED_PASSES:
        plain.append(one_pass(cf, built, capture, False))
    runs = traced_passes if traced else plain
    while time.perf_counter() - start + statistics.median(p.wall for p in runs) <= seconds:
        runs.append(one_pass(cf, built, capture, traced))
    return plain, traced_passes


def rows_bytes(p: Pass) -> bytes:
    return repr(p.out["rows"]).encode()


def thetas(p: Pass) -> list:
    return [o.result.estimate.theta.tobytes() for o in p.outcomes]


def correctness(cf, built, passes, checks: Checks) -> None:
    base = passes[0]
    for k, p in enumerate(passes[1:], start=1):
        checks.check(rows_bytes(p) == rows_bytes(base), f"pass {k} rows differ from pass 0")
        checks.check(thetas(p) == thetas(base), f"pass {k} theta differs from pass 0 "
                     "(pass 0 is untraced; in a traced run the later passes are traced)")
    out = base.out
    for i, status in enumerate(out.get("status", [])):
        checks.check(status == "ok", f"cell {i} status {status}")
    for i, o in enumerate(base.outcomes):
        checks.check(o.density.imag_residue <= IMAG_RESIDUE_MAX,
                     f"estimate {i} imag_residue {o.density.imag_residue:.3e}")
    if "gram_error" in out:
        tol = inspect.signature(cf.build_weighted_basis).parameters["cert_tol"].default
        for i, g in enumerate(out["gram_error"]):
            checks.check(g <= tol, f"basis {i} gram_error {g:.3e} > {tol}")
        for i, m in enumerate(out["zeta_mass"]):
            checks.check(abs(m - 1.0) <= ZETA_MASS_TOL, f"two-point {i} zeta mass {m!r}")
        checks.check(out["violations"] == 0, f"bound_suite violations {out['violations']}")


def quality(cf, built, p: Pass, checks: Checks) -> dict:
    """Scores of the final estimates of one pass; zeros where the workload
    has no estimate (lab) or no density truth (l2_aligned)."""
    import scoring

    q = {"contrast_final": 0.0, "cf_err_aligned": 0.0, "runner.cf_err_raw": 0.0,
         "l2_aligned": 0.0, "estimates_per_s": 0.0}
    if built.grid is None:
        return q
    aligned_st, raw_st = scoring.phase_self_test(built.model, built.grid)
    checks.check(aligned_st < 1e-9 and raw_st > 1e-2,
                 f"phase self-test aligned {aligned_st:.3e} raw {raw_st:.3e}")
    ref = built.model.tables(built.grid)[0]
    aligned, raw = [], []
    for i, o in enumerate(p.outcomes):
        est = o.result.estimate
        a, _ = scoring.aligned_cf_error(cf.poly_tables(est, built.grid)[0], ref, built.grid)
        r = cf.cf_box_error(est, built.model, built.grid)
        checks.check(a <= r, f"estimate {i} aligned error {a!r} > raw {r!r}")
        aligned.append(a)
        raw.append(r)
    q["contrast_final"] = statistics.median(o.result.value for o in p.outcomes)
    q["cf_err_aligned"] = statistics.median(aligned)
    q["runner.cf_err_raw"] = statistics.median(raw)
    if p.out.get("l2_aligned"):
        q["l2_aligned"] = statistics.median(p.out["l2_aligned"])
    return q


def _pct(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def _by_name(spans) -> dict:
    out = defaultdict(list)
    for name, start, end, _ in spans:
        out[name].append(end - start)
    return out


def layer_metrics(tr) -> dict:
    """Per-layer figures of one traced pass."""
    import tracer as tracing

    spans, c, v = tr.spans, tr.counters, tr.values
    dur = _by_name(spans)
    own = defaultdict(float)
    for (name, _, _, _), t in zip(spans, tracing.self_times(spans)):
        own[name] += t

    def calls(name):
        return len(dur[name])

    def secs(name):
        return sum(dur[name])

    def ratio(a, b):
        return a / b if b else 0.0

    value_calls, grad_calls = calls("contrast.value"), calls("minimize.grad")
    return {
        "ecf.table_s": secs("ecf.table"),
        "ecf.tables": calls("ecf.table"),
        "ecf.gflop_computed": c["ecf.gflop_computed"],
        "ecf.gflops_computed": ratio(c["ecf.gflop_computed"], secs("ecf.table")),
        "contrast.value_calls": value_calls,
        "contrast.value_s": secs("contrast.value"),
        "minimize.calls": calls("minimize"),
        "minimize.s": secs("minimize"),
        "minimize.self_s": own["minimize"],
        "minimize.grad_calls": grad_calls,
        "minimize.grad_s": secs("minimize.grad"),
        "minimize.evals_per_restart": ratio(value_calls, c["minimize.restarts"]),
        "minimize.accept_ratio": ratio(grad_calls, value_calls),
        "minimize.converged_frac": ratio(c["minimize.converged"], calls("minimize")),
        "minimize.ls_init_s": secs("minimize.ls_init"),
        "minimize.ls_init_peak_mb": max(v["minimize.ls_init.malloc_peak"], default=0) / 2**20,
        "multiindex_taylor.project_calls": calls("multiindex_taylor.project"),
        "multiindex_taylor.project_s": secs("multiindex_taylor.project"),
        "scenarios.sample_s": secs("scenarios.sample"),
        "scenarios.align_calls": calls("scenarios.align"),
        "scenarios.align_s": secs("scenarios.align"),
        "scenarios.align_edge_hits": c["scenarios.align_edge_hits"],
        "reconstruct.invert_calls": calls("reconstruct.invert"),
        "reconstruct.invert_s": secs("reconstruct.invert"),
        "reconstruct.imag_residue_max": max(v["reconstruct.imag_residue"], default=0.0),
        "reconstruct.l2_distance_calls": calls("reconstruct.l2_distance"),
        "reconstruct.l2_distance_s": secs("reconstruct.l2_distance"),
        "adaptive.pilot_s": secs("adaptive.pilot"),
        "adaptive.select_s": secs("adaptive.select"),
        "adaptive.kappa_hat": max(v["adaptive.kappa_hat"], default=0.0),
        "runner.cf_box_error_s": secs("runner.cf_box_error"),
        "runner.self_s": own["runner"],
        "conjecture_lab.basis_s": secs("conjecture_lab.basis"),
        "conjecture_lab.gram_error_max": max(v["conjecture_lab.gram_error"], default=0.0),
        "conjecture_lab.census_s": secs("conjecture_lab.census"),
        "conjecture_lab.two_point_s": secs("conjecture_lab.two_point"),
        "conjecture_lab.lecam_s": secs("conjecture_lab.lecam"),
        "conjecture_lab.lecam_gflop_computed": c["conjecture_lab.lecam_gflop_computed"],
        "legendre_bounds.bound_suite_s": secs("legendre_bounds.bound_suite"),
        "legendre_bounds.violations": c["legendre_bounds.violations"],
        "trace.spans": len(spans),
        "trace.estimation_spans": sum(
            len(d) for n, d in dur.items() if n.split(".")[0] in tracing.ESTIMATION_LAYERS),
    }


def per_call(traced_passes) -> dict:
    """p50/p99 per call in microseconds, pooled over the traced passes."""
    out = {}
    for name in ("contrast.value", "minimize.grad"):
        d = [t * 1e6 for p in traced_passes for t in _by_name(p.tracer.spans)[name]]
        out[name + "_p50_us"] = _pct(d, 0.50)
        out[name + "_p99_us"] = _pct(d, 0.99)
    return out


def blas_info() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas["name"], "blas_version": blas["version"]}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["blas_threads"] = getter()
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                    config.restype = ctypes.c_char_p
                    info["openblas_config"] = config().decode()
                    return info
    info["blas_threads"] = None
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_record(args, workloads) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, **blas_info(),
        "params": workloads.PARAMS[args.workload], "why": workloads.WHY[args.workload],
    }


# name -> (unit, better); BENCHMARK.json lists the same names in this order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_norm_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "ecf.table_s": ("s", "lower"),
    "ecf.tables": ("count", "lower"),
    "ecf.gflop_computed": ("GFLOP", "lower"),
    "ecf.gflops_computed": ("GFLOP/s", "higher"),
    "contrast.value_calls": ("count", "lower"),
    "contrast.value_s": ("s", "lower"),
    "contrast.value_p50_us": ("us", "lower"),
    "contrast.value_p99_us": ("us", "lower"),
    "minimize.calls": ("count", "lower"),
    "minimize.s": ("s", "lower"),
    "minimize.self_s": ("s", "lower"),
    "minimize.grad_calls": ("count", "lower"),
    "minimize.grad_s": ("s", "lower"),
    "minimize.grad_p50_us": ("us", "lower"),
    "minimize.grad_p99_us": ("us", "lower"),
    "minimize.evals_per_restart": ("count", "lower"),
    "minimize.accept_ratio": ("frac", "higher"),
    "minimize.converged_frac": ("frac", "higher"),
    "minimize.ls_init_s": ("s", "lower"),
    "minimize.ls_init_peak_mb": ("MB", "lower"),
    "multiindex_taylor.project_calls": ("count", "lower"),
    "multiindex_taylor.project_s": ("s", "lower"),
    "scenarios.sample_s": ("s", "lower"),
    "scenarios.align_calls": ("count", "lower"),
    "scenarios.align_s": ("s", "lower"),
    "scenarios.align_edge_hits": ("count", "lower"),
    "reconstruct.invert_calls": ("count", "lower"),
    "reconstruct.invert_s": ("s", "lower"),
    "reconstruct.imag_residue_max": ("1", "lower"),
    "reconstruct.l2_distance_calls": ("count", "lower"),
    "reconstruct.l2_distance_s": ("s", "lower"),
    "adaptive.pilot_s": ("s", "lower"),
    "adaptive.select_s": ("s", "lower"),
    "adaptive.kappa_hat": ("1", "higher"),
    "runner.cf_box_error_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "runner.cf_err_raw": ("1", "lower"),
    "conjecture_lab.basis_s": ("s", "lower"),
    "conjecture_lab.gram_error_max": ("1", "lower"),
    "conjecture_lab.census_s": ("s", "lower"),
    "conjecture_lab.two_point_s": ("s", "lower"),
    "conjecture_lab.lecam_s": ("s", "lower"),
    "conjecture_lab.lecam_gflop_computed": ("GFLOP", "lower"),
    "legendre_bounds.bound_suite_s": ("s", "lower"),
    "legendre_bounds.violations": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.estimation_spans": ("count", "lower"),
    "estimates_per_s": ("1/s", "higher"),
    "contrast_final": ("1", "lower"),
    "cf_err_aligned": ("1", "lower"),
    "l2_aligned": ("1", "lower"),
    "error_frac": ("frac", "lower"),
}


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    cf = import_library()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.FACTORIES:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.FACTORIES)}")
    record = run_record(args, workloads)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    built = workloads.FACTORIES[args.workload](cf, args.seed)
    capture = tracing.Capture(cf)
    checks = Checks()
    try:
        plain, traced = run_passes(cf, built, capture, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        checks.check(False, "workload raised " + traceback.format_exc(limit=1).strip())
        plain, traced = [], []
    finally:
        capture.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = plain + traced
    q = {}
    if passes:
        correctness(cf, built, passes, checks)
        q = quality(cf, built, passes[0], checks)
        wall = statistics.median(p.wall for p in plain)
        q["estimates_per_s"] = len(passes[0].outcomes) / wall
    error_frac = len(checks.failed) / max(checks.attempted, 1)
    record.update(
        untraced_walls_s=[p.wall for p in plain], traced_walls_s=[p.wall for p in traced],
        speed_probes_s=[p.probe for p in plain],
        setup_samples_s=setup, quality=q, error_frac=error_frac,
        checks_attempted=checks.attempted, checks_failed=checks.failed,
    )
    if args.trace == 0:
        values = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        if plain:
            values["wall_norm_s"] = PROBE_REF_S * statistics.median(
                p.wall / p.probe for p in plain)
        metrics = {k: metric(values.get(k, 0.0), unit) for k, (unit, _) in END_TO_END.items()}
    else:
        metrics = trace_metrics(traced, plain, q, error_frac)
        record["trace_file"] = write_spans(args, traced)
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not checks.failed and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": metrics,
    }))
    return 0


def trace_metrics(traced, plain, q, error_frac) -> dict:
    per_pass = [layer_metrics(p.tracer) for p in traced]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]} if traced else {}
    values.update(per_call(traced))
    values.update(q)
    values["error_frac"] = error_frac
    if traced and plain:
        values["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                         / statistics.median(p.wall for p in plain) - 1.0)
    # a workload that raised leaves figures unmeasured; its result is not correct
    return {k: metric(values.get(k, 0.0), unit) for k, (unit, _) in PER_LAYER.items()}


def write_spans(args, traced) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "passes": [p.tracer.spans for p in traced]}, fh)
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
