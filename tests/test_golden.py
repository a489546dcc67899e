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
both versions. Pins that move under another NumPy are a finding to report,
not a tolerance to add. A change that is meant to move these bits
regenerates the file with `PYTHONPATH=src python tests/test_golden.py`, on
a tree where the extension is built in place, and lists the moved pins.
"""

import hashlib
import json
import shutil
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
