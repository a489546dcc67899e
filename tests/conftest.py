"""Shared fixtures: synthetic rating data, the optional ML-100K file and
the compiled kernels."""

import hashlib
import importlib
import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from hdpmf.config import default_dataset_path
from hdpmf.data import RatingDataset, load_movielens_100k
from hdpmf.rng import stream


def _make_synthetic(
    n_users: int = 120,
    n_items: int = 150,
    mean_per_user: int = 30,
    master_seed: int = 7,
    latent_dim: int = 4,
    noise_sd: float = 0.8,
) -> RatingDataset:
    """Rating data with MovieLens-like marginals: lognormal item popularity,
    lognormal user activity, low-rank structure plus noise, integer ratings
    on [1, 5]."""
    rng = stream(master_seed, "synthetic")
    pop = rng.lognormal(0.0, 1.2, size=n_items)
    pop /= pop.sum()
    lo = min(20, max(2, mean_per_user // 2))
    counts = np.clip(
        rng.lognormal(np.log(mean_per_user * 0.6), 0.7, size=n_users), lo, n_items
    ).astype(int)
    U_true = rng.normal(0, 1.0 / np.sqrt(latent_dim), size=(n_users, latent_dim))
    V_true = rng.normal(0, 1.0, size=(n_items, latent_dim))
    b_u = rng.normal(0, 0.35, size=n_users)
    b_i = rng.normal(0, 0.45, size=n_items)
    users, items, ratings = [], [], []
    for u in range(n_users):
        c = int(counts[u])
        js = rng.choice(n_items, size=c, replace=False, p=pop)
        score = 3.55 + b_u[u] + b_i[js] + U_true[u] @ V_true[js].T + rng.normal(0, noise_sd, size=c)
        users.extend([u] * c)
        items.extend(js.tolist())
        ratings.extend(np.clip(np.rint(score), 1, 5).tolist())
    return RatingDataset(
        np.array(users), np.array(items), np.array(ratings, dtype=float),
        n_users, n_items, 1.0, 5.0,
    )


@pytest.fixture(scope="session")
def synth_factory():
    return _make_synthetic


@pytest.fixture
def tiny_dataset() -> RatingDataset:
    users = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
    items = np.array([0, 1, 1, 2, 2, 3, 0, 3, 1, 2])
    ratings = np.array([5, 3, 4, 2, 1, 5, 4, 3, 2, 4], dtype=float)
    return RatingDataset(users, items, ratings, 5, 4, 1.0, 5.0)


@pytest.fixture(scope="session")
def small_synth(synth_factory) -> RatingDataset:
    return synth_factory()


@pytest.fixture(scope="session")
def order_synth(synth_factory) -> RatingDataset:
    """Large enough for the method-ordering and trend checks."""
    return synth_factory(n_users=400, n_items=500, mean_per_user=50, master_seed=17)


@pytest.fixture(scope="session")
def ml100k() -> RatingDataset:
    path = Path(default_dataset_path())
    if not path.exists():
        pytest.skip(
            f"ML-100K not present at {path}; set HDPMF_DATA_DIR to a directory "
            "containing ml-100k/u.data to run this criterion"
        )
    return load_movielens_100k(path)


NATIVE_C = Path(__file__).resolve().parents[1] / "src" / "hdpmf" / "_native.c"


def _native_build_commands(src: Path, obj: Path, out: Path) -> list[list[str]]:
    """Compile and link `_native.c` with the interpreter's own compiler and
    flags."""
    cfg = sysconfig.get_config_var
    return [
        shlex.split(cfg("CC")) + shlex.split(cfg("CFLAGS")) + shlex.split(cfg("CCSHARED"))
        + ["-I" + sysconfig.get_paths()["include"], "-c", str(src), "-o", str(obj)],
        shlex.split(cfg("LDSHARED")) + [str(obj), "-o", str(out)],
    ]


@pytest.fixture(scope="session")
def native(pytestconfig, tmp_path_factory):
    """The compiled kernels module: the installed extension if importable,
    else `_native.c` compiled with the interpreter's own compiler and
    flags (never into the source tree, which would switch every other test
    to the native backend).

    The build is kept in the pytest cache under a key of the source's
    sha256 and the compile commands, so only the first session after a
    change to either pays the compile; without the cache plugin it goes to
    a temporary directory.
    """
    try:
        return importlib.import_module("hdpmf._native")
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("compiled kernel not built and no C compiler found")
    probe = _native_build_commands(NATIVE_C, Path("o"), Path("so"))
    key = hashlib.sha256(NATIVE_C.read_bytes() + repr(probe).encode()).hexdigest()[:16]
    cache = getattr(pytestconfig, "cache", None)
    build_dir = cache.mkdir(f"hdpmf-native-{key}") if cache is not None else tmp_path_factory.mktemp("native")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target = build_dir / f"_native{suffix}"
    if not target.is_file():
        tmp = build_dir / f"_native.{os.getpid()}.tmp{suffix}"
        obj = build_dir / f"_native.{os.getpid()}.o"
        try:
            for cmd in _native_build_commands(NATIVE_C, obj, tmp):
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                assert done.returncode == 0, f"{shlex.join(cmd)}\n{done.stderr[-4000:]}"
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
            obj.unlink(missing_ok=True)
    # loaded without entering sys.modules, so backend selection is unaffected
    spec = importlib.util.spec_from_file_location("hdpmf._native", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
