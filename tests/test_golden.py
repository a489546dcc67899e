"""Golden pins: the end-to-end bits of the bundled demo, per backend.

Each method, on each engine, runs `configs/demo-ratings.csv` for 20 epochs
at seeds 0 and 3 through `hdpmf run`, writing its results file, its loss
trace and, on the message engine, its message trace. The sha256 of every
file must be the one in `golden.json` for the backend that ran it: the
NumPy fallback, or each build of the compiled kernels, whose lane paths
give the same bits. The results file's `# backend`, `# hdpmf` and
`# numpy` lines name what ran, so they are left out of its digest; the run
writes its files under relative names, so every path line is the same
wherever it runs.

The NumPy epoch sums in NumPy's order, and the predictions and the loss
trace's objective take NumPy reductions on either backend, so the pins are
recorded with the NumPy version they were made under, and a failure names
both versions. None of them is a BLAS product, so the pins do not depend
on the CPU kernel that OpenBLAS picks; one case is checked under others,
in fresh processes. Pins that move under another NumPy are a finding to
report, not a tolerance to add. A change that is meant to move these bits
regenerates the file with `PYTHONPATH=src python tests/test_golden.py`, on
a tree where the extension is built in place, and lists the moved pins.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hdpmf import kernels
from hdpmf.baselines import BaselineKind
from hdpmf.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMO_CSV = ROOT / "configs" / "demo-ratings.csv"
GOLDEN = Path(__file__).with_name("golden.json")
METHODS = [kind.value for kind in BaselineKind]
ENGINES = ["kernel", "messages"]
CONFIG = {
    "dataset": "demo-ratings.csv", "format": "csv", "scale_min": 1, "scale_max": 5,
    "k": 10, "epochs": 20, "n_test": 5, "seeds": "0,3",
    "output": "results.csv", "loss_trace": "loss.csv",
}
# the results file's lines that name what ran it
UNPINNED = ("# backend = ", "# hdpmf = ", "# numpy = ")
# Environments that change the CPU code NumPy runs: OpenBLAS's kernels for
# an SSE3 CPU and for AVX2, where it would pick its own at load, and NumPy
# with the SIMD features it dispatches at run time turned off.
HOST_ENVIRONMENTS = {
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "no-dispatch": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


def digests(method: str, engine: str) -> dict[str, str]:
    """Run the demo as `method` on `engine` in the working directory, and
    return the sha256 of each file the run wrote."""
    files = ["results.csv", "loss.csv"] + (["trace.csv"] if engine == "messages" else [])
    keys = dict(CONFIG, method=method, engine=engine)
    if engine == "messages":
        keys["trace"] = "trace.csv"
    shutil.copy(DEMO_CSV, "demo-ratings.csv")
    Path("golden.cfg").write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main(["run", "golden.cfg"]) == 0
    texts = {name: Path(name).read_text(encoding="utf-8") for name in files}
    texts["results.csv"] = "".join(
        line for line in texts["results.csv"].splitlines(keepends=True) if not line.startswith(UNPINNED))
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("method", METHODS)
def test_demo_files_are_the_pinned_bits(impl, use_kernels, monkeypatch, tmp_path, method, engine):
    golden = json.loads(GOLDEN.read_text())
    use_kernels(impl)
    monkeypatch.chdir(tmp_path)
    assert digests(method, engine) == golden["backends"][impl.NAME][f"{method}/{engine}"], (
        f"pinned under NumPy {golden['numpy']}, running {np.__version__}")


def test_message_engine_pins_are_the_same_on_both_backends():
    # the message engine calls no kernel, and both backends draw the same
    # bits, so its results, loss and message traces do not name a backend
    backends = json.loads(GOLDEN.read_text())["backends"]
    for case in (f"{method}/messages" for method in METHODS):
        assert backends["python"][case] == backends["native"][case], case


def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # NumPy before 1.26 has no mode
        return "unknown"


@pytest.mark.skipif("openblas" not in _numpy_blas().lower(),
                    reason=f"NumPy is linked to {_numpy_blas()}, not to OpenBLAS, whose CPU kernels these are")
@pytest.mark.parametrize("name", HOST_ENVIRONMENTS)
def test_pins_hold_under_other_cpu_kernels(tmp_path, name):
    # the paper's method on the NumPy fallback, in a fresh process that
    # loads NumPy under the environment
    golden = json.loads(GOLDEN.read_text())
    paths = [str(ROOT / "src"), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, **HOST_ENVIRONMENTS[name], HDPMF_BACKEND="python",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = "import json, test_golden; print(json.dumps(test_golden.digests('hdpmf', 'kernel')))"
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    assert json.loads(done.stdout.splitlines()[-1]) == golden["backends"]["python"]["hdpmf/kernel"], (
        f"pinned under NumPy {golden['numpy']}, running {np.__version__}")


if __name__ == "__main__":
    # Regenerate golden.json from this tree: the NumPy fallback, then the
    # extension built in place (`python setup.py build_ext --inplace`).
    import contextlib
    import io
    import os
    import tempfile

    pins = {"numpy": np.__version__, "backends": {}}
    for backend in ("python", "native"):
        os.environ["HDPMF_BACKEND"] = backend
        kernels._impl = None
        runs = pins["backends"][kernels.backend_name()] = {}
        for method in METHODS:
            for engine in ENGINES:
                with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                    os.chdir(tmp)
                    runs[f"{method}/{engine}"] = digests(method, engine)
                    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} for NumPy {np.__version__} and {kernels.backend_path()}")
