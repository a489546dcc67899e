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

from hdpmf import _fallback, kernels
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

# The builds of the committed `_native.c` that the native tests run on, with
# their extra compile flags: the dispatched build takes the AVX2 lanes when
# it loads on a CPU that has them, and the baseline build has them compiled
# out, so that its two-lane path is tested on every machine. Both compile
# with warnings as errors, so a new warning fails the tests; the unused
# `self` of each module function is the CPython idiom, so that warning
# stays off.
WARNINGS_AS_ERRORS = ["-Wextra", "-Wno-unused-parameter", "-Werror"]
NATIVE_BUILDS = {"dispatched": WARNINGS_AS_ERRORS, "baseline": WARNINGS_AS_ERRORS + ["-DHDPMF_NO_AVX2"]}

# Under HDPMF_BACKEND=native the tests take the built extension as it is, so
# that a build with its own flags (sanitizers, FMA, another compiler, the
# baseline guard) is the one checked; it is one build, named `dispatched`.
INSTALLED = os.environ.get("HDPMF_BACKEND", "").strip().lower() == "native"

# The native builds that the tests run on, by their NATIVE_BUILDS names,
# which are also the `lanes` of CI's kernel-builds matrix, and every kernels
# module: the NumPy fallback, then those builds.
BUILDS = ["dispatched"] if INSTALLED else list(NATIVE_BUILDS)
KERNELS = ["python", *BUILDS]

# How the test ids name each kernels module. They keep the names they had
# before the builds were named: `impl`'s cases say `native` and
# `native-baseline`, and the `native` fixture's dispatched cases carry no
# build at all (`test[0]`, not `test[dispatched-0]`).
IMPL_IDS = {"python": "python", "dispatched": "native", "baseline": "native-baseline"}
NATIVE_IDS = {"dispatched": pytest.HIDDEN_PARAM, "baseline": "baseline"}


def _native_build_commands(src: Path, obj: Path, out: Path, flags=()) -> list[list[str]]:
    """Compile and link `_native.c` with the interpreter's own compiler and
    flags, plus `flags`."""
    cfg = sysconfig.get_config_var
    return [
        shlex.split(cfg("CC")) + shlex.split(cfg("CFLAGS")) + shlex.split(cfg("CCSHARED")) + list(flags)
        + ["-I" + sysconfig.get_paths()["include"], "-c", str(src), "-o", str(obj)],
        shlex.split(cfg("LDSHARED")) + [str(obj), "-o", str(out)],
    ]


def _compile_native(pytestconfig, tmp_path_factory, flags):
    """The committed `_native.c` compiled with `flags` and loaded. The build
    never goes into the source tree, which would switch every other test to
    the native backend. It is kept in the pytest cache under a key of the
    source's sha256 and the full compile commands, so only the first session
    after a change to either pays the compile; without the cache plugin it
    goes to a temporary directory."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("compiled kernel not built and no C compiler found")
    probe = _native_build_commands(NATIVE_C, Path("o"), Path("so"), flags)
    key = hashlib.sha256(NATIVE_C.read_bytes() + repr(probe).encode()).hexdigest()[:16]
    cache = getattr(pytestconfig, "cache", None)
    build_dir = cache.mkdir(f"hdpmf-native-{key}") if cache is not None else tmp_path_factory.mktemp("native")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target = build_dir / f"_native{suffix}"
    if not target.is_file():
        tmp = build_dir / f"_native.{os.getpid()}.tmp{suffix}"
        obj = build_dir / f"_native.{os.getpid()}.o"
        # the compiler runs without a sanitizer runtime preloaded into the tests
        env = {name: value for name, value in os.environ.items() if name != "LD_PRELOAD"}
        try:
            for cmd in _native_build_commands(NATIVE_C, obj, tmp, flags):
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, env=env)
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


@pytest.fixture(scope="session")
def native_build(pytestconfig, tmp_path_factory):
    """`native_build(name)`: the committed `_native.c` compiled as the build
    `name` of NATIVE_BUILDS, whatever HDPMF_BACKEND says; each is compiled
    at most once a session."""
    built = {}

    def build(name):
        if name not in built:
            built[name] = _compile_native(pytestconfig, tmp_path_factory, NATIVE_BUILDS[name])
        return built[name]

    return build


@pytest.fixture(scope="session", params=BUILDS, ids=[NATIVE_IDS[name] for name in BUILDS])
def native(request, native_build):
    """Each compiled kernels module of BUILDS in turn: under
    HDPMF_BACKEND=native the built extension that every other test runs on
    too, else each build of NATIVE_BUILDS."""
    if INSTALLED:
        return importlib.import_module("hdpmf._native")
    return native_build(request.param)


@pytest.fixture(params=KERNELS, ids=[IMPL_IDS[name] for name in KERNELS])
def impl(request):
    """Each kernels module of KERNELS in turn: the NumPy fallback, then each
    build of BUILDS."""
    if request.param == "python":
        return _fallback
    if INSTALLED:
        return importlib.import_module("hdpmf._native")
    return request.getfixturevalue("native_build")(request.param)


@pytest.fixture
def use_kernels(monkeypatch):
    """`use_kernels(impl)`: `hdpmf.kernels` hands out the entry points of the
    kernels module `impl` for the rest of the test, whichever backend it
    selected."""

    def use(impl):
        for name in kernels._ENTRY_POINTS:
            monkeypatch.setattr(kernels, name, getattr(impl, name))
        monkeypatch.setattr(kernels, "_impl", impl)

    return use

