"""What a fresh interpreter loads: the lower-bound lab runs without scipy,
and each entry point imports only the submodules it uses.  Each check
starts a fresh interpreter, since this test session has long since
imported everything."""

import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

from cfdeconv import _util

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """stdout of `code` run by a fresh interpreter with the library on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


LAB_PASS = """
import json, sys
import cfdeconv
import cfdeconv.cli_io
from cfdeconv import (WeightSpec, bound_suite, build_two_point, build_weighted_basis,
                      lecam_value, make_instance, noise_g)
basis = build_weighted_basis(WeightSpec(kappa=0.75), K_max=8)
two = build_two_point(make_instance(basis, 10_000), basis)
report = lecam_value(two, noise_g(2.0), 10_000)
suite = bound_suite(0.75, 1.0, 1.0, 2, 4, n_members=2, seed=1)
print(json.dumps({"l1": report.l1_single, "suite": len(suite),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_lab_pass_loads_no_scipy():
    result = json.loads(run_fresh(LAB_PASS))
    assert result["l1"] > 0 and result["suite"] > 0
    assert result["scipy"] == []


SETTERS = """
import ctypes, importlib, json, sys
from cfdeconv import _util
before = [ctypes.cast(s, ctypes.c_void_p).value for s in _util.blas_setters()]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
after = {}
for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath",
               "scipy.optimize._lbfgsb"):
    try:
        setter = ctypes.CDLL(importlib.import_module(module).__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        continue
    after.setdefault(ctypes.cast(setter, ctypes.c_void_p).value, None)
print(json.dumps({"before": before, "after": list(after), "scipy": loaded}))
"""


def test_blas_setters_match_the_imported_extensions():
    # found by file before scipy is imported, the setters are the ones the
    # imported extensions resolve
    result = json.loads(run_fresh(SETTERS))
    assert result["scipy"] == []
    assert result["before"] == result["after"]


def test_extension_file_falls_back_to_later_names(tmp_path, monkeypatch):
    # numpy before 2 keeps _multiarray_umath under core/, not _core/
    package = tmp_path / "fakenumpy"
    (package / "core").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    ext = package / "core" / ("_multiarray_umath" + importlib.machinery.EXTENSION_SUFFIXES[0])
    ext.write_bytes(b"")
    monkeypatch.syspath_prepend(str(tmp_path))
    names = ("_core/_multiarray_umath", "core/_multiarray_umath")
    assert _util._extension_file("fakenumpy", *names) == str(ext)
    assert "fakenumpy" not in sys.modules
    assert _util._extension_file("fakenumpy", "optimize/_lbfgsb") is None
    assert _util._extension_file("no_such_package_here", *names) is None


LAB_MODULES = {"cfdeconv.conjecture_lab", "cfdeconv.legendre_bounds", "mpmath"}
ESTIMATION_MODULES = {"cfdeconv." + m
                      for m in ("runner", "minimize", "contrast", "ecf", "adaptive")}


def loaded(code: str) -> set:
    """Names of the modules a fresh interpreter has loaded after running `code`."""
    listing = "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    return set(json.loads(run_fresh(code + listing)))


def test_package_import_loads_no_submodule():
    assert not {m for m in loaded("import cfdeconv") if m.startswith("cfdeconv.")}


UNIFORM_ICA_ESTIMATE = """
import cfdeconv as cf
noise = cf.AxisNoise("uniform", 0.3)
sc = cf.make_ica((cf.SignalSpec("uniform", (1.0,)), cf.SignalSpec("uniform", (0.5,))),
                 [[1.0, 0.5], [0.5, 1.0]], noise, noise, d1=1)
grid = cf.make_grid(1.0, (1, 1), 12)
out = cf.estimate_once(cf.ecf_table_for_grid(sc.sample(500, 3), grid), grid,
                       cf.default_lattice(2, count=5), kappa=0.6, S=1.5, m_opt=2,
                       restarts=1, seed=3)
assert out.density.values.size > 0
point = cf.SignalSpec("point_mass", (0.0,))
assert cf.make_ica((point, cf.SignalSpec("uniform", (1.0,))), [[1.0, 0.5], [0.5, 1.0]],
                   noise, noise, d1=1).density_norm_sq() is None
"""


def test_uniform_ica_estimate_loads_no_lab():
    assert not loaded(UNIFORM_ICA_ESTIMATE) & LAB_MODULES


LECAM_PASS = """
from cfdeconv import (WeightSpec, build_two_point, build_weighted_basis, lecam_value,
                      make_instance, noise_g)
basis = build_weighted_basis(WeightSpec(kappa=0.75), K_max=8)
two = build_two_point(make_instance(basis, 10_000), basis)
assert lecam_value(two, noise_g(2.0), 10_000).l1_single > 0
"""


def test_lab_pass_loads_no_estimation_stack():
    assert not loaded(LECAM_PASS) & ESTIMATION_MODULES


def test_cli_import_loads_no_bound_machinery():
    assert not loaded("import cfdeconv.cli_io") & LAB_MODULES
