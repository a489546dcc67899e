"""Kernel contracts: both epoch kernels match the scalar oracle of
oracles.py, the compiled kernels (the `native` fixture: the built extension
under HDPMF_BACKEND=native, else `_native.c` compiled when a C compiler
exists, once as loaded and once with its AVX2 lanes compiled out) also
match the fallback, the two lane paths give the same bits, a fixed U makes
the released V a linear function of 2b - x on both, the keyed uniforms of
both backends are the same bits as `numpy.random.Philox`, and the compiled
entry points reject malformed arguments before writing anything. The keyed
normals' transform has its own tests in test_transform.py."""

import importlib
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hdpmf
from hdpmf import _fallback, kernels
from hdpmf.data import RatingDataset
from hdpmf.model import init_model
from oracles import kernel_args, oracle_epoch


ORACLE = SimpleNamespace(run_epoch=oracle_epoch)


def _instance(seed, n=40, m=30, K=6, density=0.2):
    rng = np.random.default_rng(seed)
    flat = rng.choice(n * m, size=int(density * n * m), replace=False)
    users, items = np.unravel_index(flat, (n, m))
    ratings = rng.uniform(1, 5, size=len(flat))
    ds = RatingDataset(users, items, ratings, n, m, 1.0, 5.0)
    model = init_model(n, m, K, master_seed=seed)
    noise = rng.normal(0, 2.0, size=(m, K))
    return ds, model, noise


def _run(impl, ds, model, noise, lam, eta, epochs, project=True):
    inst = dict(U=model.U, V=model.V, item_noise=noise, lam=lam, eta=eta,
                project=project, **kernel_args(ds))
    return _epochs(impl.run_epoch, inst, epochs)


def _epochs(run_epoch, inst, epochs, after_epoch=None):
    """Train copies of inst's U and V for `epochs` epochs."""
    U, V = inst["U"].copy(), inst["V"].copy()
    args = {k: v for k, v in inst.items() if k not in ("U", "V")}
    for _ in range(epochs):
        run_epoch(U, V, **args)
        if after_epoch is not None:
            after_epoch(U, V)
    return U, V


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree(native, seed):
    ds, model, noise = _instance(seed)
    U_n, V_n = _run(native, ds, model, noise, lam=0.01, eta=0.01, epochs=3)
    U_p, V_p = _run(_fallback, ds, model, noise, lam=0.01, eta=0.01, epochs=3)
    assert np.allclose(U_n, U_p, rtol=1e-10, atol=1e-13)
    assert np.allclose(V_n, V_p, rtol=1e-10, atol=1e-13)


def test_backends_agree_without_projection(native):
    ds, model, noise = _instance(11)
    U_n, V_n = _run(native, ds, model, noise, 0.0, 0.005, 2, project=False)
    U_p, V_p = _run(_fallback, ds, model, noise, 0.0, 0.005, 2, project=False)
    assert np.allclose(U_n, U_p, rtol=1e-10, atol=1e-13)
    assert np.allclose(V_n, V_p, rtol=1e-10, atol=1e-13)


def test_native_matches_oracle(native):
    ds, model, noise = _instance(13, n=12, m=9, K=3, density=0.4)
    U_n, V_n = _run(native, ds, model, noise, lam=0.01, eta=0.05, epochs=2)
    U_o, V_o = _run(ORACLE, ds, model, noise, lam=0.01, eta=0.05, epochs=2)
    assert np.allclose(U_n, U_o, rtol=0, atol=1e-12)
    assert np.allclose(V_n, V_o, rtol=0, atol=1e-12)


def test_projection_enforced(impl):
    ds, model, noise = _instance(12)
    U, V = _run(impl, ds, model, noise, lam=0.0, eta=0.5, epochs=4)
    if np.isfinite(U).all():
        assert np.linalg.norm(U, axis=1).max() <= 1.0 + 1e-12


def test_selected_backend_matches_module():
    assert kernels.backend_name() in ("native", "python")
    if kernels.backend_name() == "python":
        impl = _fallback
    else:
        impl = importlib.import_module("hdpmf._native")
    for name in kernels._ENTRY_POINTS:
        assert getattr(kernels, name) is getattr(impl, name)


def _select(requested: str, src_dir: Path, prelude: str = "") -> str:
    """What a fresh `hdpmf.kernels`, imported from `src_dir` after `prelude`
    runs, selects under HDPMF_BACKEND=`requested`: the backend name, or the
    ConfigError's message. The import itself must succeed: the choice is
    made on first use."""
    code = prelude + (
        "from hdpmf import kernels\n"
        "from hdpmf.exceptions import ConfigError\n"
        "try:\n"
        "    print(kernels.backend_name())\n"
        "except ConfigError as exc:\n"
        "    print('ConfigError', exc)\n"
    )
    env = dict(os.environ, HDPMF_BACKEND=requested)
    env["PYTHONPATH"] = os.pathsep.join([str(src_dir), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout, done.stderr
    return done.stdout


def _select_with_stale_extension(requested: str, entry_points: list[str]) -> str:
    """What `_select` gives when `hdpmf._native` is a stale extension with
    only `entry_points`."""
    prelude = (
        "import sys, types\n"
        "stale = types.ModuleType('hdpmf._native')\n"
        "stale.NAME = 'native'\n"
        f"for name in {entry_points!r}:\n"
        "    setattr(stale, name, None)\n"
        "sys.modules['hdpmf._native'] = stale\n"
    )
    return _select(requested, Path(hdpmf.__file__).parents[1], prelude)


def test_unknown_backend_is_refused():
    # a typo must not fall through to whichever backend imports
    out = _select("pyhton", Path(hdpmf.__file__).parents[1])
    assert out.startswith("ConfigError") and "'python'" in out and "'native'" in out, out


def test_missing_extension_is_named(tmp_path):
    # the package's sources without any compiled extension
    (tmp_path / "hdpmf").mkdir()
    for source in Path(hdpmf.__file__).parent.glob("*.py"):
        shutil.copy(source, tmp_path / "hdpmf" / source.name)
    out = _select("native", tmp_path)
    assert out.startswith("ConfigError") and "No module named 'hdpmf._native'" in out, out
    assert "circular" not in out
    assert _select("", tmp_path).strip() == "python"


@pytest.mark.parametrize("requested, selected", [("", "python"), ("native", "ConfigError")])
def test_extension_without_keyed_uniform_is_not_selected(requested, selected):
    # an extension built from an older _native.c has run_epoch only
    assert _select_with_stale_extension(requested, ["run_epoch"]).split()[0] == selected


def test_extension_without_box_muller_is_refused():
    # an extension built while it drew the normals itself, with its lanes
    # and ISA, lacks only the transform entry point
    out = _select_with_stale_extension("native", ["run_epoch", "keyed_uniform", "ISA"])
    assert out.startswith("ConfigError") and "rebuild it" in out, out


@pytest.mark.parametrize("requested, selected", [("", "python"), ("native", "ConfigError")])
def test_extension_without_isa_is_not_selected(requested, selected):
    # an extension built before the AVX2 lanes has every entry point, but
    # names no lane path
    out = _select_with_stale_extension(requested, list(kernels._ENTRY_POINTS))
    assert out.split()[0] == selected, out
    assert selected == "python" or "rebuild it" in out, out


def test_empty_items_skipped(impl):
    # item 2 has no raters; its factor row and noise must stay untouched
    ds = RatingDataset(
        np.array([0, 1]), np.array([0, 1]), np.array([3.0, 4.0]), 2, 3, 1.0, 5.0
    )
    model = init_model(2, 3, 2, master_seed=0)
    noise = np.full((3, 2), 1e6)
    U, V = _run(impl, ds, model, noise, lam=0.0, eta=0.01, epochs=1)
    assert np.array_equal(V[2], model.V[2])


@st.composite
def csr_instances(draw, long_rows=False):
    """Random small rating matrices in kernel form: any sparsity pattern
    (so items without raters and users without ratings occur), integer
    ratings from 0, K down to 1, projection on or off. With `long_rows`,
    some are tall or wide, so that one side has rows longer than the
    compiled kernel's groups of 16 ratings."""
    shapes = [st.tuples(st.integers(1, 7), st.integers(1, 7))]
    if long_rows:
        shapes += [st.tuples(st.integers(17, 40), st.integers(1, 3)),
                   st.tuples(st.integers(1, 3), st.integers(17, 40))]
    n_users, n_items = draw(st.one_of(shapes))
    K = draw(st.integers(1, 4))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n_users * n_items,
                                  max_size=n_users * n_items))).reshape(n_users, n_items)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    users, items = np.nonzero(mask)
    ratings = rng.integers(0, 6, size=len(users)).astype(np.float64)
    ds = RatingDataset(users, items, ratings, n_users, n_items, 0.0, 5.0)
    U = rng.normal(0.0, 0.5, size=(n_users, K))
    U /= np.maximum(1.0, np.linalg.norm(U, axis=1))[:, None]
    V = rng.normal(0.0, 1.0, size=(n_items, K))
    return dict(
        U=U, V=V, item_noise=rng.normal(0.0, 2.0, size=(n_items, K)),
        lam=draw(st.sampled_from([0.0, 0.01, 0.1])),
        eta=draw(st.sampled_from([0.001, 0.01, 0.05])),
        project=draw(st.booleans()),
        **kernel_args(ds),
    )


@settings(max_examples=60, deadline=None)
@given(inst=csr_instances(long_rows=True), epochs=st.integers(1, 3), block=st.sampled_from([1, 3, 4096, 8192]))
def test_fallback_matches_oracle(inst, epochs, block):
    def check_ball(U, V):
        if inst["project"]:
            assert np.linalg.norm(U, axis=1).max(initial=0.0) <= 1.0 + 1e-12

    U_o, V_o = _epochs(oracle_epoch, inst, epochs)
    with mock.patch.object(_fallback, "BLOCK_ENTRIES", block):
        U_p, V_p = _epochs(_fallback.run_epoch, inst, epochs, check_ball)
    # the NumPy epoch sums in its own order: bound each factor's error like
    # a recursive sum's, (L + K) eps per phase for rows of at most L ratings,
    # relative to the oracle's largest entry (or 1, the ball's radius)
    longest = max(np.diff(inst["item_ptr"]).max(initial=0), np.diff(inst["user_ptr"]).max(initial=0))
    magnitude = max(1.0, np.abs(U_o).max(initial=0.0), np.abs(V_o).max(initial=0.0))
    bound = 2 * epochs * (longest + U_o.shape[1]) * np.finfo(float).eps * magnitude
    assert np.abs(U_p - U_o).max(initial=0.0) <= bound
    assert np.abs(V_p - V_o).max(initial=0.0) <= bound

    unrated = np.diff(inst["item_ptr"]) == 0
    assert np.array_equal(V_p[unrated], inst["V"][unrated])


def test_fallback_scratch_memory_is_bounded_by_the_block():
    # one shape, one dataset with four times the ratings of the other: the
    # epoch's peak allocation stays under a bound set by the block, K and
    # the factor sizes, which the larger dataset's nnz x K doubles exceed
    import tracemalloc

    n_users, n_items, K = 500, 400, 4
    longest = max(n_users, n_items)  # a block exceeds BLOCK_ENTRIES by less than one row
    gathers = (2 * K + 1) * (_fallback.BLOCK_ENTRIES + longest)  # both sides' factors, residuals
    factors = 8 * K * (n_users + n_items)  # K-major copies, gradients, step temporaries
    bound = 8 * (gathers + factors) + (64 << 10)  # bytes, plus index arrays and Python objects
    sizes = (25_000, 100_000)
    assert sizes[-1] * K * 8 > bound
    peaks = []
    for nnz in sizes:
        rng = np.random.default_rng(nnz)
        users, items = np.divmod(rng.choice(n_users * n_items, size=nnz, replace=False), n_items)
        ds = RatingDataset(users, items, rng.integers(1, 6, size=nnz).astype(np.float64), n_users, n_items, 1.0, 5.0)
        inst = dict(U=np.full((n_users, K), 0.1), V=np.full((n_items, K), 0.1), item_noise=np.zeros((n_items, K)),
                    lam=0.01, eta=0.01, project=True, **kernel_args(ds))
        _epochs(_fallback.run_epoch, inst, 1)  # NumPy's one-time allocations
        tracemalloc.start()
        try:
            _fallback.run_epoch(**inst)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < bound, (peaks, bound)


def test_fallback_rejects_a_column_index_out_of_range_before_writing():
    ds, model, noise = _instance(5)
    args = dict(item_noise=noise, lam=0.01, eta=0.05, project=True, **kernel_args(ds))
    for name, n in (("item_users", len(model.U)), ("user_items", len(model.V))):
        cols = args[name]
        # in other dtypes too: an int32 -1, and a uint64 that is negative
        # as an int64
        for bad in (_replaced(cols, 0, -1), _replaced(cols, 0, n),
                    _replaced(cols.astype(np.int32), 0, -1), _replaced(cols.astype(np.uint64), 0, 2**63)):
            U, V = model.U.copy(), model.V.copy()
            with pytest.raises(IndexError, match=rf"\[0, {n}\)"):
                _fallback.run_epoch(U, V, **{**args, name: bad})
            assert np.array_equal(U, model.U) and np.array_equal(V, model.V)


def test_fallback_layout_follows_a_pointer_array_edited_in_place():
    ds, model, noise = _instance(6)
    args = dict(item_noise=noise, lam=0.01, eta=0.05, project=True, **kernel_args(ds))
    user_ptr = args["user_ptr"] = args["user_ptr"].copy()
    _fallback.run_epoch(model.U.copy(), model.V.copy(), **args)
    # hand the first entry of a user after the first to the user before:
    # still a valid CSR, with another layout
    r = 1 + np.flatnonzero(np.diff(user_ptr)[1:])[0]
    user_ptr[r] += 1
    warm = model.U.copy(), model.V.copy()
    _fallback.run_epoch(*warm, **args)
    _fallback._row_layout.cache_clear()
    cold = model.U.copy(), model.V.copy()
    _fallback.run_epoch(*cold, **args)
    assert np.array_equal(warm[0], cold[0]) and np.array_equal(warm[1], cold[1])


def test_fallback_layout_follows_the_block_size(monkeypatch):
    ds, model, noise = _instance(7)
    args = dict(item_noise=noise, lam=0.01, eta=0.05, project=True, **kernel_args(ds))
    layouts = []
    row_layout = _fallback._row_layout

    def spy(*key):
        layouts.append(row_layout(*key))
        return layouts[-1]

    monkeypatch.setattr(_fallback, "_row_layout", spy)
    for entries in (8192, 3, 8192, 3):
        monkeypatch.setattr(_fallback, "BLOCK_ENTRIES", entries)
        layouts.clear()
        _fallback.run_epoch(model.U.copy(), model.V.copy(), **args)
        for ptr, (rows, blocks, width) in zip((args["item_ptr"], args["user_ptr"]), layouts, strict=True):
            assert [b[:2] for b in blocks] == _fallback.row_blocks(ptr, entries)
            assert np.array_equal(rows, np.flatnonzero(np.diff(ptr)))
            assert width == max(b[3] - b[2] for b in blocks)


def test_fallback_layout_arrays_are_read_only():
    ds, _, _ = _instance(8)
    rows, blocks, _ = _fallback._row_layout(np.asarray(ds.by_user[0], np.int64).tobytes(), 16)
    arrays = [rows] + [a for block in blocks for a in block if isinstance(a, np.ndarray)]
    assert len(arrays) == 1 + 2 * len(blocks) > 3
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


@settings(max_examples=60, deadline=None)
@given(inst=csr_instances(long_rows=True), epochs=st.integers(1, 3))
def test_native_matches_oracle_property(native, inst, epochs):
    U_o, V_o = _epochs(oracle_epoch, inst, epochs)
    U_n, V_n = _epochs(native.run_epoch, inst, epochs)
    assert np.array_equal(U_n, U_o)
    assert np.array_equal(V_n, V_o)


def _staircase(K, rng, project=True, eta=0.05):
    """A kernel instance where user i rates items 41 - i .. 40, so rows of
    every length 0..40 occur on both sides: every mix of the kernel's
    remainder groups of 8, 4, 2 and 1 ratings, with up to two whole groups
    of 16 before them; an odd K leaves each lane pair a last k on its own."""
    n = 41
    users, items = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) >= n)
    ds = RatingDataset(users, items, rng.integers(1, 6, size=len(users)).astype(np.float64), n, n, 1.0, 5.0)
    return dict(U=rng.normal(0.0, 0.5, size=(n, K)), V=rng.normal(0.0, 1.0, size=(n, K)),
                item_noise=rng.normal(0.0, 2.0, size=(n, K)), lam=0.01, eta=eta, project=project,
                **kernel_args(ds))


@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("K", [1, 2, 3, 10, 11])
def test_native_is_bit_identical_to_oracle(native, K, project):
    inst = _staircase(K, np.random.default_rng(K), project)
    U_o, V_o = _epochs(oracle_epoch, inst, 3)
    U_n, V_n = _epochs(native.run_epoch, inst, 3)
    assert np.array_equal(U_n, U_o)
    assert np.array_equal(V_n, V_o)


@pytest.mark.parametrize("K", [1, 2, 3, 10, 11])
def test_lane_paths_give_the_same_bits(native_build, K):
    # the dispatched build (AVX2 lanes where the CPU has them) against the
    # baseline build, whatever HDPMF_BACKEND says: rows of every length
    # 0..40 on both sides, 20 epochs, then the transform of the keyed
    # uniforms behind K normals, for 10**5 keys
    dispatched, baseline = native_build("dispatched"), native_build("baseline")
    assert baseline.ISA == "baseline"
    rng = np.random.default_rng(100 + K)
    inst = _staircase(K, rng, eta=0.02)
    for got, want in zip(_epochs(dispatched.run_epoch, inst, 20), _epochs(baseline.run_epoch, inst, 20)):
        assert got.tobytes() == want.tobytes()
    j, i = rng.integers(0, 2**64, size=(2, 10**5), dtype=np.uint64)
    u = np.empty((len(j), K + K % 2))
    baseline.keyed_uniform(j, i, 2**63 + K, 7, u)
    normals = []
    for build in (dispatched, baseline):
        out = np.full_like(u, np.nan)
        build.box_muller(u, out)
        normals.append(out.tobytes())
    assert normals[0] == normals[1]


@pytest.mark.skipif(not Path("/proc/cpuinfo").is_file(), reason="reads the CPU flags of Linux")
def test_dispatched_build_takes_the_avx2_lanes_where_the_cpu_has_them(native_build):
    # a guard that compiles the AVX2 lanes out, or a dispatch that never
    # picks them, would keep every bit and quietly lose their speed
    flags = set()
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("flags"):
            flags.update(line.partition(":")[2].split())
    expected = "avx2" if "avx2" in flags else "baseline"
    assert native_build("dispatched").ISA == expected, (
        "the AVX2 lanes need x86-64 and a compiler with __builtin_shufflevector (GCC 12 or later, or Clang)")
    assert native_build("baseline").ISA == "baseline"


def _fixed_u_epochs(impl, inst, item_vals, item_noise, etas):
    """V after one epoch per step size, with no user rating and lam = 0, so
    that U stays fixed and each epoch is an item phase."""
    V = inst["V"].copy()
    for eta in etas:
        impl.run_epoch(inst["U"].copy(), V, inst["item_ptr"], inst["item_users"], item_vals, item_noise,
                       np.zeros(len(inst["U"]) + 1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                       np.zeros(0), 0.0, eta, True)
    return V


@pytest.mark.parametrize("seed", range(4))
def test_fixed_u_releases_v_through_2b_minus_x_alone(impl, seed):
    # T Jacobi steps give v_j,T = M_T v_j,0 + L_T (2 b_j - x_j), where
    # b_j = sum_i w_ij r_ij u_i and M_T, L_T depend only on U, the raters
    # and eta: two inputs with the same 2b - x release the same V, and
    # V_T - V_T(0, 0) is additive in 2b - x
    ds, model, _ = _instance(seed, n=12, m=9, K=3, density=0.4)
    inst = dict(U=model.U, V=model.V, **kernel_args(ds))
    rng = np.random.default_rng(seed)
    etas = [0.05, 0.05, 0.01, 0.002][: 1 + seed]
    owners = np.repeat(np.arange(ds.n_items), np.diff(inst["item_ptr"]))

    def two_b(vals):
        b = np.zeros(model.V.shape)
        np.add.at(b, owners, vals[:, None] * model.U[inst["item_users"]])
        return 2.0 * b

    def draw():
        vals = rng.uniform(0.1, 5.0, len(ds))
        return vals, rng.normal(0.0, 2.0, model.V.shape)

    def released(vals, noise):
        return _fixed_u_epochs(impl, inst, vals, noise, etas)

    (vals1, noise1), (vals2, noise2) = draw(), draw()
    zero = released(np.zeros(len(ds)), np.zeros(model.V.shape))
    base = released(vals1, noise1) - zero
    # other ratings, and the noise that keeps 2b - x
    vals3 = rng.uniform(0.1, 5.0, len(ds))
    noise3 = two_b(vals3) - (two_b(vals1) - noise1)
    tol = dict(rtol=1e-9, atol=1e-9 * np.abs(base).max())
    np.testing.assert_allclose(released(vals3, noise3) - zero, base, **tol)
    summed = released(vals1 + vals2, noise1 + noise2) - zero
    np.testing.assert_allclose(summed, base + (released(vals2, noise2) - zero), **tol)
    unrated = np.diff(inst["item_ptr"]) == 0
    assert np.array_equal(zero[unrated], model.V[unrated])


def test_native_takes_arguments_by_position_and_keyword(native):
    names = list(inspect.signature(_fallback.run_epoch).parameters)
    assert list(inspect.signature(native.run_epoch).parameters) == names
    ds, model, noise = _instance(4)
    by_name = dict(U=model.U.copy(), V=model.V.copy(), item_noise=noise, lam=0.01, eta=0.05,
                   project=True, **kernel_args(ds))
    by_position = [by_name[n].copy() if n in ("U", "V") else by_name[n] for n in names]
    native.run_epoch(**by_name)
    native.run_epoch(*by_position)
    assert np.array_equal(by_name["U"], by_position[0])
    assert np.array_equal(by_name["V"], by_position[1])


def _replaced(array, index, value):
    out = array.copy()
    out[index] = value
    return out


def _read_only(array):
    out = array.copy()
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("error, name, bad", [
    (TypeError, "item_ptr", lambda a: a["item_ptr"].astype(np.int32)),
    (TypeError, "U", lambda a: a["U"].astype(np.float32)),
    (ValueError, "V", lambda a: np.asfortranarray(a["V"])),
    (ValueError, "U", lambda a: _read_only(a["U"])),
    (ValueError, "item_ptr", lambda a: a["item_ptr"][:-1]),
    (ValueError, "item_users", lambda a: _replaced(a["item_users"], 0, len(a["U"]))),
    (ValueError, "user_items", lambda a: _replaced(a["user_items"], -1, -1)),
    (ValueError, "item_noise", lambda a: np.ascontiguousarray(a["item_noise"][:, 1:])),
    (ValueError, "user_vals", lambda a: a["user_vals"][:-1]),
], ids=["int32-item_ptr", "float32-U", "fortran-V", "read-only-U", "short-item_ptr",
        "item_users-eq-n_users", "negative-user_items", "narrow-item_noise", "short-user_vals"])
def test_native_rejects_malformed_arguments(native, error, name, bad):
    ds, model, noise = _instance(3, n=8, m=6, K=3, density=0.5)
    args = dict(U=model.U.copy(), V=model.V.copy(), item_noise=noise, **kernel_args(ds))
    args[name] = bad(args)
    U0, V0 = args["U"].copy(), args["V"].copy()
    with pytest.raises(error):
        native.run_epoch(lam=0.01, eta=0.05, project=True, **args)
    assert args["U"].tobytes() == U0.tobytes() and args["V"].tobytes() == V0.tobytes()


# -- keyed uniforms ---------------------------------------------------------
UINT64_MAX = 2**64 - 1
_words = st.one_of(st.sampled_from([0, 1, UINT64_MAX]), st.integers(0, UINT64_MAX))


def _uniforms(impl, j, i, key0, key1, size):
    out = np.full((len(j), size), np.nan)
    impl.keyed_uniform(np.asarray(j, dtype=np.uint64), np.asarray(i, dtype=np.uint64), key0, key1, out)
    return out


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.tuples(_words, _words), max_size=40), key0=_words, key1=_words,
       size=st.integers(0, 13))
@example(keys=[], key0=0, key1=0, size=0)
@example(keys=[], key0=1, key1=2, size=5)
@example(keys=[(3, 4)] * 3, key0=1, key1=2, size=0)
def test_native_uniforms_equal_fallback(native, keys, key0, key1, size):
    j, i = [k[0] for k in keys], [k[1] for k in keys]
    got = _uniforms(native, j, i, key0, key1, size)
    assert got.shape == (len(keys), size)
    assert np.array_equal(got, _uniforms(_fallback, j, i, key0, key1, size))


@pytest.mark.parametrize("chunk", [1, 7, 12])
def test_fallback_uniforms_do_not_depend_on_chunk_size(monkeypatch, chunk):
    # 51 rows of 3 blocks: one row per chunk, or 2 and 4 with a short last chunk
    j, i = np.arange(51), np.arange(51, 102)
    whole = _uniforms(_fallback, j, i, 3, 4, 9)
    monkeypatch.setattr(_fallback, "PHILOX_CHUNK_BLOCKS", chunk)
    assert np.array_equal(_uniforms(_fallback, j, i, 3, 4, 9), whole)


def _numpy_philox_uniforms(j, i, key0, key1, size):
    """The keyed uniforms from `numpy.random.Philox` alone: block b of a
    row is the first `random_raw` block after counter (j, i, b, 0) - 1, a
    256-bit integer with word 0 least significant."""
    words = []
    for b in range(-(-size // 4)):
        c = (j + (i << 64) + (b << 128) - 1) % 2**256
        counter = np.array([(c >> (64 * w)) & UINT64_MAX for w in range(4)], dtype=np.uint64)
        key = np.array([key0, key1], dtype=np.uint64)
        words.extend(np.random.Philox(counter=counter, key=key).random_raw(4).tolist())
    return np.array([((w >> 12) + 0.5) * 2.0**-52 for w in words[:size]])


@pytest.mark.parametrize("j, i, key0, key1, size", [
    (0, 0, 0, 0, 13),
    (UINT64_MAX, UINT64_MAX, UINT64_MAX, UINT64_MAX, 9),
    (7, 2, 123, 5, 10),
    (1682, 0, 2**63, 4, 10),
    (12345678901234567890, 3, 98765, 11, 5),
], ids=["zeros", "all-ones", "noise-c-layout", "noise-h-layout", "wide-j"])
def test_native_uniforms_match_numpy_philox(native, j, i, key0, key1, size):
    expected = _numpy_philox_uniforms(j, i, key0, key1, size)
    assert np.array_equal(_uniforms(native, [j], [i], key0, key1, size)[0], expected)
    assert np.all((expected > 0) & (expected < 1))


@pytest.mark.parametrize("error, name, bad", [
    (TypeError, "j", lambda a: a["j"].astype(np.int64)),
    (TypeError, "i", lambda a: a["i"].astype(np.float64)),
    (ValueError, "j", lambda a: a["j"].reshape(2, 2)),
    (ValueError, "i", lambda a: a["i"][:-1]),
    (ValueError, "i", lambda a: np.arange(8, dtype=np.uint64)[::2]),
    (TypeError, "out", lambda a: a["out"].astype(np.float32)),
    (ValueError, "out", lambda a: np.asfortranarray(a["out"])),
    (ValueError, "out", lambda a: _read_only(a["out"])),
    (ValueError, "out", lambda a: a["out"][:-1].copy()),
    (ValueError, "out", lambda a: a["out"].ravel()),
    (OverflowError, "key0", lambda a: -1),
    (OverflowError, "key1", lambda a: 2**64),
    (TypeError, "key0", lambda a: 1.5),
], ids=["int64-j", "float64-i", "2d-j", "short-i", "strided-i", "float32-out", "fortran-out",
        "read-only-out", "short-out", "1d-out", "negative-key0", "key1-2to64", "float-key0"])
def test_native_uniform_rejects_malformed_arguments(native, error, name, bad):
    # an odd width too, whose rows end in part of a Philox block
    for width in (6, 5):
        args = dict(j=np.arange(4, dtype=np.uint64), i=np.arange(4, 8, dtype=np.uint64),
                    key0=9, key1=5, out=np.zeros((4, width)))
        args[name] = bad(args)
        out = args["out"]
        before = out.tobytes()
        with pytest.raises(error):
            native.keyed_uniform(**args)
        assert out.tobytes() == before


@pytest.mark.parametrize("error, name, bad", [
    (TypeError, "u", lambda a: a["u"].astype(np.float32)),
    (ValueError, "u", lambda a: a["u"].ravel()),
    (ValueError, "u", lambda a: np.asfortranarray(a["u"])),
    (ValueError, "u", lambda a: np.ascontiguousarray(a["u"][:, :3])),
    (TypeError, "out", lambda a: a["out"].astype(np.float32)),
    (ValueError, "out", lambda a: _read_only(a["out"])),
    (ValueError, "out", lambda a: a["out"][:-1].copy()),
    (ValueError, "out", lambda a: np.zeros((4, 2))),
], ids=["float32-u", "1d-u", "fortran-u", "odd-u", "float32-out", "read-only-out", "short-out",
        "narrow-out"])
def test_native_box_muller_rejects_malformed_arguments(native, error, name, bad):
    args = dict(u=np.full((4, 4), 0.25), out=np.zeros((4, 4)))
    args[name] = bad(args)
    out = args["out"]
    before = out.tobytes()
    with pytest.raises(error):
        native.box_muller(**args)
    assert out.tobytes() == before
