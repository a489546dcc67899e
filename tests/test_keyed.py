"""One random mechanism: every seeded draw of a run is a keyed Philox draw.

Properties of the split, subsample, kfold, pdp-sample, weight and init
draws: each depends only on its (master_seed, purpose, key), so results do
not move with the arrays' order or with other entities' data, and both
kernel backends give the same bits. These run on whichever backend is
selected; the cross-backend test compares them directly.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdpmf import _fallback, kernels, rng
from hdpmf.baselines import BaselineKind, pdp_sample_ratings
from hdpmf.config import ExperimentConfig
from hdpmf.data import RatingDataset, kfold_splits, split_leave_n_out, subsample_per_user
from hdpmf.evaluation import grid_search_cv, run_single_seed
from hdpmf.model import init_model
from hdpmf.privacy import allocate_weights
from hdpmf.rng import keyed_uniform

_seeds = st.integers(0, 2**64 - 1)


@st.composite
def _datasets(draw):
    """Up to 6 users x 12 items, each cell rated or not."""
    n_users = draw(st.integers(1, 6))
    n_items = draw(st.integers(1, 12))
    cells = draw(st.lists(st.booleans(), min_size=n_users * n_items, max_size=n_users * n_items))
    users, items = np.unravel_index(np.flatnonzero(cells), (n_users, n_items))
    return RatingDataset(users, items, np.full(len(users), 3.0), n_users, n_items, 1.0, 5.0)


def _pairs(ds: RatingDataset) -> set[tuple[int, int]]:
    return set(zip(ds.users.tolist(), ds.items.tolist()))


def _smallest_draws(ds, purpose, seed, quota) -> set[tuple[int, int]]:
    """Loop oracle: each user's quota(count) ratings with the smallest keyed
    draws of `purpose`, each rating keyed (item, user)."""
    draws = keyed_uniform(seed, purpose, ds.items, ds.users, 1)[:, 0]
    picked = set()
    for u in range(ds.n_users):
        mine = sorted(np.flatnonzero(ds.users == u), key=lambda e: draws[e])
        picked.update((u, int(ds.items[e])) for e in mine[: quota(len(mine))])
    return picked


@given(_datasets(), st.integers(1, 12), _seeds)
@settings(max_examples=60, deadline=None)
def test_split_partitions_and_holds_out_each_users_smallest_draws(ds, n_test, seed):
    plan = split_leave_n_out(ds, n_test, seed)
    train, test = _pairs(plan.train), _pairs(plan.test)
    assert not train & test
    assert train | test == _pairs(ds)
    assert test == _smallest_draws(ds, "split", seed, lambda n: n_test if n > n_test else 0)


@given(_datasets(), st.floats(0.01, 1.0), _seeds)
@settings(max_examples=60, deadline=None)
def test_subsample_keeps_ceil_fraction_of_each_users_smallest_draws(ds, fraction, seed):
    out = subsample_per_user(ds, fraction, seed)
    assert _pairs(out) <= _pairs(ds)
    counts = np.bincount(ds.users, minlength=ds.n_users)
    kept = np.bincount(out.users, minlength=ds.n_users)
    assert np.array_equal(kept, np.ceil(fraction * counts))
    assert _pairs(out) == _smallest_draws(ds, "subsample", seed, lambda n: math.ceil(fraction * n))


@given(_datasets(), st.integers(2, 6), _seeds)
@settings(max_examples=60, deadline=None)
def test_kfold_cuts_the_order_of_the_keyed_draws(ds, k, seed):
    assume(len(ds) >= k)
    folds = kfold_splits(ds, k, seed)
    u = keyed_uniform(seed, "kfold", ds.items, ds.users, 1)[:, 0]
    draws = dict(zip(zip(ds.users.tolist(), ds.items.tolist()), u))
    fold_draws = [sorted(draws[pair] for pair in _pairs(fold.test)) for fold in folds]
    assert sum(len(d) for d in fold_draws) == len(ds)
    assert all(a[-1] < b[0] for a, b in zip(fold_draws, fold_draws[1:]))


@given(st.integers(0, 60), st.floats(0.0, 0.5), st.floats(0.0, 0.5), _seeds)
@settings(max_examples=60, deadline=None)
def test_weight_groups_rank_each_entitys_own_draws(count, f_uc, f_um, seed):
    cfg = ExperimentConfig(f_uc=f_uc, f_um=f_um)
    beta = allocate_weights(cfg, count, 1, seed).beta
    u = keyed_uniform(seed, "user-weights", np.arange(count), np.zeros(count, dtype=np.int64), 2)
    n_con, n_mod = math.floor(f_uc * count), math.floor(f_um * count)
    for rank, e in enumerate(sorted(range(count), key=lambda e: u[e, 0])):
        if rank < n_con:
            assert beta[e] == cfg.eps_uc + (cfg.eps_um - cfg.eps_uc) * u[e, 1]
        elif rank < n_con + n_mod:
            assert beta[e] == cfg.eps_um + (cfg.eps_ul - cfg.eps_um) * u[e, 1]
        else:
            assert beta[e] == cfg.eps_ul


@given(_datasets(), st.data(), _seeds)
@settings(max_examples=60, deadline=None)
def test_pdp_keep_decisions_unchanged_on_any_subset(ds, data, seed):
    budgets = np.array(data.draw(st.lists(st.floats(0.01, 2.0), min_size=len(ds), max_size=len(ds))))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(ds), max_size=len(ds))), bool)
    full = _pairs(pdp_sample_ratings(ds, budgets, 1.0, seed))
    sub = ds.subset(mask)
    part = _pairs(pdp_sample_ratings(sub, budgets[mask], 1.0, seed))
    assert part == full & _pairs(sub)


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(1, 12), _seeds)
@settings(max_examples=60, deadline=None)
def test_init_rows_depend_only_on_their_entity(n_users_a, n_users_b, n_items, K, seed):
    a = init_model(n_users_a, n_items, K, seed)
    b = init_model(n_users_b, n_items, K, seed)
    assert np.array_equal(a.V, b.V)
    shared = min(n_users_a, n_users_b)
    assert np.array_equal(a.U[:shared], b.U[:shared])


def test_draws_are_the_same_bits_on_either_backend(monkeypatch, native, small_synth):
    ds = small_synth
    budgets = np.linspace(0.05, 1.5, len(ds))
    outputs = []
    for impl in (_fallback, native):
        monkeypatch.setattr(kernels, "keyed_uniform", impl.keyed_uniform)
        split = split_leave_n_out(ds, 10, master_seed=21)
        weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, master_seed=21)
        model = init_model(ds.n_users, ds.n_items, 10, master_seed=21)
        sub = subsample_per_user(ds, 0.4, master_seed=21)
        pdp = pdp_sample_ratings(ds, budgets, 1.0, master_seed=21)
        fold = kfold_splits(ds, 4, master_seed=21)[0]
        outputs.append([
            split.test.users, split.test.items, weights.beta, weights.gamma, model.U, model.V,
            sub.users, sub.items, pdp.users, pdp.items, fold.test.users, fold.test.items,
        ])
    for a, b in zip(*outputs):
        assert np.array_equal(a, b)


def test_a_run_draws_nothing_from_sequential_streams(monkeypatch, synth_factory):
    def refuse(*args, **kwargs):
        raise RuntimeError("rng.stream called")

    original = rng.stream
    for name, module in list(sys.modules.items()):
        if name == "hdpmf" or name.startswith("hdpmf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
    ds = synth_factory(n_users=20, n_items=15, mean_per_user=8, master_seed=71)
    for method in BaselineKind:
        cfg = ExperimentConfig(method=method, k=3, epochs=4, eta0=0.005, n_test=2, fraction=0.6)
        assert math.isfinite(run_single_seed(cfg, ds, seed=2).mse)
    cfg = ExperimentConfig(method=BaselineKind.PDPMF, k=3, epochs=4)
    best, table = grid_search_cv(cfg, ds, [0.005], [0.01], n_folds=3, master_seed=2)
    assert math.isfinite(table[best])
    with pytest.raises(RuntimeError, match="rng.stream"):
        rng.stream(0, "check-noise")
