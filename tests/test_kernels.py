"""Kernel contracts: both epoch kernels match a scalar oracle, the
compiled kernels (the `native` fixture: imported, or built from `_native.c`
when a C compiler exists) also match the fallback, the keyed uniforms of
both backends are the same bits as `numpy.random.Philox`, and the compiled
entry points reject malformed arguments before writing anything. The keyed
normals' transform has its own tests in test_transform.py."""

import importlib
import inspect
import os
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

def oracle_epoch(U, V, item_ptr, item_users, item_vals, item_noise,
                 user_ptr, user_items, user_vals, lam, eta, project):
    """Scalar reference for one epoch. `_native.c` runs these operations in
    this order, with the dots of four ratings interleaved; the NumPy
    fallback runs the same sweeps in blocks, so both are checked against
    this function."""
    n_items = len(item_ptr) - 1
    n_users = len(user_ptr) - 1
    K = U.shape[1]
    acc = [0.0] * K

    for j in range(n_items):
        s = item_ptr[j]
        e = item_ptr[j + 1]
        if s == e:
            continue
        for k in range(K):
            acc[k] = 0.0
        for p in range(s, e):
            i = item_users[p]
            dot = 0.0
            for k in range(K):
                dot += U[i, k] * V[j, k]
            resid = 2.0 * (dot - item_vals[p])
            for k in range(K):
                acc[k] += resid * U[i, k]
        for k in range(K):
            g = acc[k] + item_noise[j, k] + 2.0 * lam * V[j, k]
            V[j, k] = V[j, k] - eta * g

    for i in range(n_users):
        s = user_ptr[i]
        e = user_ptr[i + 1]
        for k in range(K):
            acc[k] = 0.0
        for p in range(s, e):
            j = user_items[p]
            dot = 0.0
            for k in range(K):
                dot += U[i, k] * V[j, k]
            resid = 2.0 * (dot - user_vals[p])
            for k in range(K):
                acc[k] += resid * V[j, k]
        norm = 0.0
        for k in range(K):
            g = acc[k] + 2.0 * lam * U[i, k]
            acc[k] = U[i, k] - eta * g
            norm += acc[k] * acc[k]
        if project and norm > 1.0:
            norm = np.sqrt(norm)
            for k in range(K):
                U[i, k] = acc[k] / norm
        else:
            for k in range(K):
                U[i, k] = acc[k]


ORACLE = SimpleNamespace(run_epoch=oracle_epoch)


def _kernel_args(ds):
    """The rating arguments of `run_epoch` for a dataset."""
    user_ptr, _ = ds.by_user
    item_ptr, order = ds.by_item
    return dict(
        item_ptr=item_ptr,
        item_users=np.ascontiguousarray(ds.users[order]),
        item_vals=np.ascontiguousarray(ds.ratings[order]),
        user_ptr=user_ptr,
        user_items=ds.items,
        user_vals=ds.ratings,
    )


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
                project=project, **_kernel_args(ds))
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


@pytest.fixture(params=["python", "native"])
def impl(request):
    if request.param == "python":
        return _fallback
    return request.getfixturevalue("native")


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
    assert kernels.run_epoch is impl.run_epoch
    assert kernels.keyed_uniform is impl.keyed_uniform
    assert kernels.keyed_normal is impl.keyed_normal


def _select_with_stale_extension(requested: str, entry_points: list[str]) -> str:
    """What a fresh `hdpmf.kernels` selects when `hdpmf._native` is a stale
    extension with only `entry_points`: the backend name, or the
    ImportError's message."""
    code = (
        "import sys, types\n"
        "stale = types.ModuleType('hdpmf._native')\n"
        "stale.NAME = 'native'\n"
        f"for name in {entry_points!r}:\n"
        "    setattr(stale, name, None)\n"
        "sys.modules['hdpmf._native'] = stale\n"
        "try:\n"
        "    from hdpmf import kernels\n"
        "    print(kernels.backend_name())\n"
        "except ImportError as exc:\n"
        "    print('ImportError', exc)\n"
    )
    env = dict(os.environ, HDPMF_BACKEND=requested)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(hdpmf.__file__).parents[1]), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout, done.stderr
    return done.stdout


@pytest.mark.parametrize("requested, selected", [("", "python"), ("native", "ImportError")])
def test_extension_without_keyed_uniform_is_not_selected(requested, selected):
    # an extension built from an older _native.c has run_epoch only
    assert _select_with_stale_extension(requested, ["run_epoch"]).split()[0] == selected


def test_extension_without_keyed_normal_is_refused():
    # an extension built before keyed_normal existed draws the uniforms only
    out = _select_with_stale_extension("native", ["run_epoch", "keyed_uniform"])
    assert out.startswith("ImportError") and "rebuild it" in out, out


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
def csr_instances(draw):
    """Random small rating matrices in kernel form: any sparsity pattern
    (so items without raters and users without ratings occur), integer
    ratings from 0, K down to 1, projection on or off."""
    n_users = draw(st.integers(1, 7))
    n_items = draw(st.integers(1, 7))
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
        **_kernel_args(ds),
    )


@settings(max_examples=60, deadline=None)
@given(inst=csr_instances(), epochs=st.integers(1, 3), block=st.sampled_from([1, 3, 4096, 8192]))
def test_fallback_matches_oracle(inst, epochs, block):
    def check_ball(U, V):
        if inst["project"]:
            assert np.linalg.norm(U, axis=1).max(initial=0.0) <= 1.0 + 1e-12

    U_o, V_o = _epochs(oracle_epoch, inst, epochs)
    with mock.patch.object(_fallback, "BLOCK_ENTRIES", block):
        U_p, V_p = _epochs(_fallback.run_epoch, inst, epochs, check_ball)
    np.testing.assert_allclose(U_p, U_o, rtol=0, atol=1e-12)
    np.testing.assert_allclose(V_p, V_o, rtol=0, atol=1e-12)

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
                    lam=0.01, eta=0.01, project=True, **_kernel_args(ds))
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
    args = dict(item_noise=noise, lam=0.01, eta=0.05, project=True, **_kernel_args(ds))
    for name, n in (("item_users", len(model.U)), ("user_items", len(model.V))):
        for bad in (-1, n):
            U, V = model.U.copy(), model.V.copy()
            with pytest.raises(IndexError, match=rf"\[0, {n}\)"):
                _fallback.run_epoch(U, V, **{**args, name: _replaced(args[name], 0, bad)})
            assert np.array_equal(U, model.U) and np.array_equal(V, model.V)


@settings(max_examples=60, deadline=None)
@given(inst=csr_instances(), epochs=st.integers(1, 3))
def test_native_matches_oracle_property(native, inst, epochs):
    # bit for bit (test_native_is_bit_identical_to_oracle); this checks the
    # tolerance over random shapes
    U_o, V_o = _epochs(oracle_epoch, inst, epochs)
    U_n, V_n = _epochs(native.run_epoch, inst, epochs)
    np.testing.assert_allclose(U_n, U_o, rtol=0, atol=1e-12)
    np.testing.assert_allclose(V_n, V_o, rtol=0, atol=1e-12)


@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("K", [1, 3, 10])
def test_native_is_bit_identical_to_oracle(native, K, project):
    # user i rates items 14 - i .. 13, so rows of every length 0..13 occur
    # on both sides: each remainder mod 4 of the kernel's groups of four
    # ratings, and several whole groups
    n = 14
    users, items = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) >= n)
    rng = np.random.default_rng(K)
    ds = RatingDataset(users, items, rng.integers(1, 6, size=len(users)).astype(np.float64), n, n, 1.0, 5.0)
    inst = dict(U=rng.normal(0.0, 0.5, size=(n, K)), V=rng.normal(0.0, 1.0, size=(n, K)),
                item_noise=rng.normal(0.0, 2.0, size=(n, K)), lam=0.01, eta=0.05, project=project,
                **_kernel_args(ds))
    U_o, V_o = _epochs(oracle_epoch, inst, 3)
    U_n, V_n = _epochs(native.run_epoch, inst, 3)
    assert np.array_equal(U_n, U_o)
    assert np.array_equal(V_n, V_o)


def test_native_takes_arguments_by_position_and_keyword(native):
    names = list(inspect.signature(_fallback.run_epoch).parameters)
    assert list(inspect.signature(native.run_epoch).parameters) == names
    ds, model, noise = _instance(4)
    by_name = dict(U=model.U.copy(), V=model.V.copy(), item_noise=noise, lam=0.01, eta=0.05,
                   project=True, **_kernel_args(ds))
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
    args = dict(U=model.U.copy(), V=model.V.copy(), item_noise=noise, **_kernel_args(ds))
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


_KEYED_BAD_ARGUMENTS = pytest.mark.parametrize("error, name, bad", [
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


def _rejects(entry, error, name, bad):
    args = dict(j=np.arange(4, dtype=np.uint64), i=np.arange(4, 8, dtype=np.uint64),
                key0=9, key1=5, out=np.zeros((4, 6)))
    args[name] = bad(args)
    out = args["out"]
    before = out.tobytes()
    with pytest.raises(error):
        entry(**args)
    assert out.tobytes() == before


@_KEYED_BAD_ARGUMENTS
def test_native_uniform_rejects_malformed_arguments(native, error, name, bad):
    _rejects(native.keyed_uniform, error, name, bad)


@_KEYED_BAD_ARGUMENTS
def test_native_normal_rejects_malformed_arguments(native, error, name, bad):
    _rejects(native.keyed_normal, error, name, bad)


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
