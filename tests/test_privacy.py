"""Privacy engine: weight allocation, stretching, noise calibration and
composition, rescaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hdpmf.baselines import BaselineKind, method_inputs
from hdpmf.config import ExperimentConfig
from hdpmf.data import RatingDataset
from hdpmf.diagnostics import sample_aggregate_noise
from hdpmf import _fallback, kernels, privacy
from hdpmf.privacy import (
    NoisePlan,
    WeightAssignment,
    allocate_weights,
    build_noise_plan,
    laplace_scale,
)
from hdpmf.model import FactorModel
from hdpmf.protocol import predict_all
from hdpmf._fallback import philox4x64
from hdpmf.rng import keyed_normal, keyed_uniform


def _predict_one(raw, w_ij, scale_min, scale_max):
    """`predict_all` on one (user, item) pair whose inner product is `raw`
    and whose privacy weight is `w_ij`."""
    model = FactorModel(np.array([[raw]]), np.array([[1.0]]))
    weights = WeightAssignment(np.array([w_ij]), np.array([1.0]))
    return predict_all(model, weights, [0], [0], scale_min, scale_max)[0]


class TestPrivacySpec:
    """The privacy settings an `ExperimentConfig` carries by default."""

    def test_defaults_are_valid(self):
        spec = ExperimentConfig()
        assert spec.f_uc == 0.54 and spec.f_um == 0.37
        assert spec.eps_uc == 0.1 and spec.eps_um == 0.5 and spec.eps_ul == 1.0


class TestAllocateWeights:
    def test_default_group_sizes_n100(self):
        w = allocate_weights(ExperimentConfig(), 100, 10, master_seed=0)
        conservative = np.sum((w.beta >= 0.1) & (w.beta < 0.5))
        moderate = np.sum((w.beta >= 0.5) & (w.beta < 1.0))
        liberal = np.sum(w.beta == 1.0)
        assert (conservative, moderate, liberal) == (54, 37, 9)

    def test_all_liberal_when_ratios_zero(self):
        cfg = ExperimentConfig(f_uc=0.0, f_um=0.0, f_ic=0.0, f_im=0.0)
        w = allocate_weights(cfg, 50, 50, master_seed=1)
        assert np.all(w.beta == 1.0) and np.all(w.gamma == 1.0)

    def test_weights_within_declared_ranges(self):
        w = allocate_weights(ExperimentConfig(), 500, 500, master_seed=2)
        assert np.all(w.beta >= 0.1) and np.all(w.beta <= 1.0)
        assert np.all(w.gamma >= 0.1) and np.all(w.gamma <= 1.0)

    def test_deterministic_in_seed(self):
        a = allocate_weights(ExperimentConfig(), 64, 64, master_seed=5)
        b = allocate_weights(ExperimentConfig(), 64, 64, master_seed=5)
        c = allocate_weights(ExperimentConfig(), 64, 64, master_seed=6)
        assert np.array_equal(a.beta, b.beta) and np.array_equal(a.gamma, b.gamma)
        assert not np.array_equal(a.beta, c.beta)


class TestWeightOps:
    def test_product(self):
        w = WeightAssignment(np.array([0.5]), np.array([0.8]))
        assert w.matrix_entries(np.array([0]), np.array([0])).tolist() == [pytest.approx(0.4)]

    def test_liberal_times_liberal(self):
        w = WeightAssignment(np.array([1.0]), np.array([1.0]))
        assert w.matrix_entries(np.array([0]), np.array([0])).tolist() == [1.0]

    def test_rank_one_structure(self):
        w = allocate_weights(ExperimentConfig(), 30, 30, master_seed=3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, i2 = rng.integers(30, size=2)
            j, j2 = rng.integers(30, size=2)
            ij, i2j2, ij2, i2j = w.matrix_entries(np.array([i, i2, i, i2]), np.array([j, j2, j2, j]))
            assert ij * i2j2 == pytest.approx(ij2 * i2j)

    def test_all_pairs_in_unit_interval(self):
        w = allocate_weights(ExperimentConfig(), 40, 40, master_seed=4)
        products = np.outer(w.beta, w.gamma)
        assert np.all(products > 0) and np.all(products <= 1)

    @given(st.floats(1.0, 5.0), st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_stretch_then_rescale_recovers(self, r, w):
        # training targets are w * r; a perfect fit predicts them exactly
        assert _predict_one(w * r, w, 1.0, 5.0) == pytest.approx(r, rel=1e-12)


class TestLaplaceScale:
    def test_paper_formula(self):
        assert laplace_scale(10, 4.0, 1.0) == pytest.approx(8 * math.sqrt(10))
        assert laplace_scale(1, 1.0, 2.0) == pytest.approx(1.0)

    def test_halving_epsilon_doubles_scale(self):
        assert laplace_scale(7, 2.5, 0.5) == pytest.approx(2 * laplace_scale(7, 2.5, 1.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            laplace_scale(0, 1.0, 1.0)


class TestRescalePrediction:
    def test_division(self):
        assert _predict_one(0.6, 0.5, 1.0, 5.0) == pytest.approx(1.2)

    def test_clamp_at_max(self):
        assert _predict_one(10.0, 0.5, 1.0, 5.0) == 5.0

    def test_clamp_at_min(self):
        assert _predict_one(0.1, 1.0, 1.0, 5.0) == 1.0

    def test_identity_weight(self):
        assert _predict_one(3.3, 1.0, 1.0, 5.0) == pytest.approx(3.3)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            _predict_one(1.0, 0.0, 1.0, 5.0)

    @pytest.mark.parametrize("raw,clamped", [(2.0, 5.0), (-2.0, 1.0)])
    def test_quotient_past_the_float_range_is_clamped_silently(self, raw, clamped):
        # pytest turns an overflow warning into an error
        assert _predict_one(raw, 5e-324, 1.0, 5.0) == clamped


def _pairwise_sum(rows):
    """NumPy's pairwise sum of (n, K) rows, one coordinate at a time: a fold
    from 0.0 below 8 rows, eight interleaved accumulators up to 128 rows,
    else the two halves at a multiple of 8, each summed so."""
    n = len(rows)
    if n < 8:
        total = np.zeros(rows.shape[1])
        for row in rows:
            total = total + row
        return total
    if n <= 128:
        acc = list(rows[:8])
        end = n - n % 8
        for i in range(8, end, 8):
            acc = [a + row for a, row in zip(acc, rows[i : i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for row in rows[end:]:
            total = total + row
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])


def _unit_draws(plan):
    """Every slot's unit draw c_j^i, (nnz, K), in by-item slot order."""
    items = np.repeat(np.arange(len(plan.item_ptr) - 1), np.diff(plan.item_ptr))
    return keyed_normal(plan.master_seed, "noise-c", items, plan.item_users, plan.K)


def _complete_dataset(n_users, n_items, rating=3.0, scale=(1.0, 5.0)):
    users, items = np.meshgrid(np.arange(n_users), np.arange(n_items), indexing="ij")
    return RatingDataset(
        users.ravel(), items.ravel(), np.full(n_users * n_items, rating),
        n_users, n_items, *scale,
    )


class TestNoisePlan:
    def test_share_formula(self):
        ds = _complete_dataset(3, 2)
        plan = build_noise_plan(ds, K=4, epsilon=1.0, master_seed=11)
        ptr, order = ds.by_item
        for j in range(2):
            raters = ds.users[order[ptr[j] : ptr[j + 1]]]
            scale = laplace_scale(4, 4.0, 1.0) * np.sqrt(2.0 * plan.h[j] / len(raters))
            assert plan.scale[j].tobytes() == scale.tobytes()
            for i in raters:
                c = keyed_normal(11, "noise-c", [j], [i], 4)[0]
                assert plan.draw_shares([j], [i])[0].tobytes() == (scale * c).tobytes()

    def test_scale_follows_the_declared_rating_range(self):
        # every other plan test declares [1, 5], so a delta fixed at 4 would
        # pass them; this plan's delta is 10
        ds = _complete_dataset(3, 2, scale=(0.0, 10.0))
        plan = build_noise_plan(ds, 4, 0.5, master_seed=11)
        for j in range(2):
            scale = laplace_scale(4, 10.0, 0.5) * np.sqrt(2.0 * plan.h[j] / 3)
            assert plan.scale[j].tobytes() == scale.tobytes()

    def test_rebuild_bitwise_identical(self):
        ds = _complete_dataset(4, 3)
        a = build_noise_plan(ds, 5, 1.0, master_seed=3)
        b = build_noise_plan(ds, 5, 1.0, master_seed=3)
        assert np.array_equal(a.shares, b.shares) and np.array_equal(a.h, b.h)

    def test_item_without_raters_has_no_entry(self):
        ds = RatingDataset(
            np.array([0, 1]), np.array([0, 0]), np.array([3.0, 4.0]), 2, 3, 1, 5
        )
        plan = build_noise_plan(ds, 2, 1.0, master_seed=0)
        assert list(plan.item_ptr) == [0, 2, 2, 2]
        assert np.all(plan.h[0] > 0)
        assert not plan.h[1:].any()

    def test_single_rater_share_is_standard_normal_scaled(self):
        # |raters| = 1: c ~ N(0, 1), the single-user composition form
        ds = RatingDataset(np.array([0]), np.array([0]), np.array([3.0]), 1, 1, 1, 5)
        plan = build_noise_plan(ds, 3, 1.0, master_seed=7)
        c = keyed_normal(7, "noise-c", [0], [0], 3)[0]
        expected = 8.0 * np.sqrt(6.0 * plan.h[0]) * c
        assert np.allclose(plan.draw_shares([0], [0])[0], expected, rtol=1e-12)

    def test_item_totals_match_per_item_loop(self):
        ds = RatingDataset(
            np.array([0, 1, 1, 2, 3]), np.array([1, 1, 3, 3, 3]), np.full(5, 3.0), 4, 5, 1, 5
        )
        plan = build_noise_plan(ds, 3, 1.0, master_seed=9)
        expected, bound = np.zeros((5, 3)), np.zeros((5, 3))
        for j in range(5):
            s, e = plan.item_ptr[j], plan.item_ptr[j + 1]
            if s < e:
                expected[j] = plan.shares[s:e].sum(axis=0)
                # summation order may differ: allow the recursive-sum error bound
                bound[j] = (e - s) * np.finfo(float).eps * np.abs(plan.shares[s:e]).sum(axis=0)
        assert np.all(np.abs(plan.item_totals - expected) <= bound)
        assert not plan.item_totals[[0, 2, 4]].any()

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_size_does_not_change_plan(self, monkeypatch, block):
        ds = _complete_dataset(7, 5)
        reference = build_noise_plan(ds, 5, 1.0, master_seed=4)
        monkeypatch.setattr(privacy, "NOISE_BLOCK_SLOTS", block)
        plan = build_noise_plan(ds, 5, 1.0, master_seed=4)
        assert np.array_equal(plan.shares, reference.shares)
        assert np.array_equal(plan.h, reference.h)

    def test_each_noise_block_is_one_draw_and_one_transform(self, monkeypatch):
        # 100 raters of each of 100 items: the by-item layout spans three
        # blocks of whole items (4,000, 4,100 and 1,900 slots), and the
        # by-slot shares three blocks of NOISE_BLOCK_SLOTS
        ds = _complete_dataset(100, 100)
        plan = build_noise_plan(ds, 10, 1.0, master_seed=5)
        assert len(_fallback.row_blocks(plan.item_ptr, privacy.NOISE_BLOCK_SLOTS)) == 3
        calls = {"keyed_uniform": 0, "box_muller": 0}

        def counted(name):
            kernel = getattr(kernels, name)

            def call(*args):
                calls[name] += 1
                return kernel(*args)

            return call

        for name in calls:
            monkeypatch.setattr(kernels, name, counted(name))
        plan.item_totals
        assert calls == {"keyed_uniform": 3, "box_muller": 3}
        plan.shares
        blocks = -(-len(ds) // privacy.NOISE_BLOCK_SLOTS)
        assert calls == {"keyed_uniform": 3 + blocks, "box_muller": 3 + blocks}

    def test_plan_is_the_same_bits_on_either_backend(self, use_kernels, native, small_synth):
        drawn = []
        for impl in (_fallback, native):
            use_kernels(impl)
            plan = build_noise_plan(small_synth, 10, 0.5, master_seed=13)
            drawn.append((plan.shares, plan.h, plan.item_totals))
        for a, b in zip(*drawn):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("K", [1, 4])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_streamed_item_totals_equal_one_reduceat(self, monkeypatch, K, block):
        # item 0 has 100 raters, more than any of these blocks hold; items 1
        # and 4 have none; the rest have a few each
        users = np.concatenate([np.arange(100), [0, 1, 2, 3, 5, 8, 9, 7]])
        items = np.concatenate([np.zeros(100, int), [2, 2, 3, 5, 5, 5, 3, 6]])
        ds = RatingDataset(users, items, np.full(len(users), 3.0), 100, 7, 1, 5)
        plan = build_noise_plan(ds, K, 1.0, master_seed=12)
        rated = np.flatnonzero(np.diff(plan.item_ptr))
        expected = np.zeros((ds.n_items, K))
        expected[rated] = np.add.reduceat(_unit_draws(plan), plan.item_ptr[rated], axis=0)
        expected *= plan.scale
        monkeypatch.setattr(privacy, "NOISE_BLOCK_SLOTS", block)
        streamed = build_noise_plan(ds, K, 1.0, master_seed=12).item_totals
        assert streamed.tobytes() == expected.tobytes()

    def test_item_totals_follow_reduceat_order(self):
        # each item's total is its scale times its first unit draw plus
        # NumPy's pairwise sum of the rest, the order of np.add.reduceat, not
        # a fold in slot order; a pass that sums the draws elsewhere must
        # keep this order to keep the bits. The counts cover the pairwise sum's three regimes: a
        # fold from 0.0 below 8 rows, eight accumulators up to 128 and
        # halving above that; item 13 has no rater
        counts = [1, 2, 3, 7, 8, 9, 16, 17, 64, 128, 129, 136, 300, 0]
        users = np.concatenate([np.arange(n) for n in counts])
        items = np.repeat(np.arange(len(counts)), counts)
        ds = RatingDataset(users, items, np.full(len(users), 3.0), max(counts), len(counts), 1, 5)
        plan = build_noise_plan(ds, 3, 1.0, master_seed=17)
        draws = _unit_draws(plan)
        expected = np.zeros((len(counts), 3))
        folded = 0
        for j, n in enumerate(counts):
            if n:
                rows = draws[plan.item_ptr[j] : plan.item_ptr[j + 1]]
                expected[j] = plan.scale[j] * (rows[0] + _pairwise_sum(rows[1:]))
                fold = rows[0]
                for row in rows[1:]:
                    fold = fold + row
                folded += (plan.scale[j] * fold).tobytes() != expected[j].tobytes()
        assert plan.item_totals.tobytes() == expected.tobytes()
        assert folded  # the oracle is not a fold in disguise

    def test_item_totals_never_hold_the_shares(self):
        import tracemalloc

        # 150,000 ratings: all shares take 19.2 MB at K = 16, the by-item
        # layout a few MB and one block's draws about 1 MB
        ds = _complete_dataset(500, 300)
        K = 16
        shares_bytes = len(ds) * K * 8
        tracemalloc.start()
        try:
            build_noise_plan(ds, K, 1.0, master_seed=5).item_totals
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < shares_bytes / 2

    def test_item_totals_sum_of_shares(self):
        ds = _complete_dataset(5, 2)
        plan = build_noise_plan(ds, 3, 1.0, master_seed=2)
        for j in range(2):
            total = sum(plan.draw_shares([j], [i])[0] for i in range(5))
            assert np.allclose(plan.item_totals[j], total, rtol=1e-12)

    def test_rater_c_variances_compose_to_one(self):
        # across many seeds, the per-coordinate variance of sum_i c_j^i is 1
        ds = _complete_dataset(4, 1)
        samples = []
        for seed in range(3000):
            c = 0.5 * keyed_normal(seed, "noise-c", np.zeros(4, int), np.arange(4), 2)
            samples.extend(c.sum(axis=0).tolist())
        assert np.var(samples) == pytest.approx(1.0, rel=0.05)

    def test_aggregate_matches_vectorized_sampler_distribution(self):
        # plan aggregates across seeds vs the diagnostics sampler: same law
        ds = _complete_dataset(5, 1)
        plan_draws = []
        for seed in range(2500):
            plan = build_noise_plan(ds, 2, 1.0, master_seed=seed)
            plan_draws.extend(plan.item_totals[0].tolist())
        mc = sample_aggregate_noise(2, 4.0, 1.0, raters=5, samples=5000, master_seed=0)
        ks = stats.ks_2samp(np.asarray(plan_draws), mc)
        assert ks.pvalue > 0.001

    def test_zeros_plan(self, tiny_dataset):
        plan = NoisePlan.zeros(tiny_dataset, 3)
        assert not plan.shares.any()
        assert not plan.item_totals.any()
        assert not plan.scale.any() and plan.master_seed is None

    def test_mf_plan_holds_no_share_memory(self, tiny_dataset):
        _, _, plan = method_inputs(BaselineKind.MF, tiny_dataset, None, 1.0, 3, 0)  # mf reads no weights
        assert plan.shares.shape == (len(tiny_dataset), 3)
        assert plan.shares.strides == (0, 0) and not plan.shares.flags.writeable
        assert np.array_equal(plan.item_totals, np.zeros((tiny_dataset.n_items, 3)))


@st.composite
def _sparse_datasets(draw):
    n_users = draw(st.integers(1, 8))
    n_items = draw(st.integers(1, 8))
    cells = draw(st.lists(st.booleans(), min_size=n_users * n_items, max_size=n_users * n_items))
    flat = np.flatnonzero(cells)
    users, items = np.unravel_index(flat, (n_users, n_items))
    ratings = np.array(draw(st.lists(st.integers(1, 5), min_size=len(flat), max_size=len(flat))), float)
    return RatingDataset(users, items, ratings, n_users, n_items, 1.0, 5.0)


class TestKeyedDraws:
    def test_philox_matches_numpy(self):
        rng = np.random.default_rng(20)
        counters = rng.integers(0, 2**64 - 1, size=(4, 20), dtype=np.uint64)
        keys = rng.integers(0, 2**64, size=(20, 2), dtype=np.uint64)
        for n in range(20):
            c, k = counters[:, n], keys[n]
            expected = np.random.Philox(counter=c, key=k).random_raw(4)
            # numpy increments the counter before emitting its first block
            bumped = c.copy()
            bumped[0] += np.uint64(1)
            got = philox4x64(bumped[:, None], (int(k[0]), int(k[1])))[:, 0]
            assert np.array_equal(got, expected)

    def test_uniform_layout_matches_numpy_philox(self):
        # key (seed, purpose id 5 = noise-c), counter (j, i, block, 0)
        u = keyed_uniform(123, "noise-c", [7], [2], 10)[0]
        words = np.concatenate([
            np.random.Philox(counter=[6, 2, b, 0], key=[123, 5]).random_raw(4) for b in range(3)
        ])
        assert np.array_equal(u, ((words[:10] >> np.uint64(12)) + 0.5) * 2.0**-52)
        assert np.all((u > 0) & (u < 1))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_key_word(self, seed):
        with pytest.raises(ValueError):
            keyed_uniform(seed, "noise-c", [0], [0], 2)

    @given(
        st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=40),
        st.lists(st.integers(0, 40), max_size=5),
        st.integers(1, 11),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_equal_concatenation_over_any_split(self, keys, cuts, size):
        j = np.array([k[0] for k in keys], dtype=np.int64)
        i = np.array([k[1] for k in keys], dtype=np.int64)
        whole = keyed_normal(3, "noise-c", j, i, size)
        bounds = [0, *sorted(min(c, len(keys)) for c in cuts), len(keys)]
        parts = [keyed_normal(3, "noise-c", j[a:b], i[a:b], size) for a, b in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(parts), whole)

    @given(_sparse_datasets(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_plan_invariant_to_row_order(self, ds, random):
        perm = list(range(len(ds)))
        random.shuffle(perm)
        shuffled = RatingDataset(
            ds.users[perm], ds.items[perm], ds.ratings[perm], ds.n_users, ds.n_items, 1.0, 5.0
        )
        a = build_noise_plan(ds, 3, 1.0, master_seed=8)
        b = build_noise_plan(shuffled, 3, 1.0, master_seed=8)
        for name in ("item_ptr", "item_users", "shares", "h"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @given(_sparse_datasets(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_subset_rescales_sigma_but_keeps_draw(self, ds, data):
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(ds), max_size=len(ds))), bool)
        sub = ds.subset(keep)
        K, coef = 4, 2.0 * 4.0 / 0.5
        full = build_noise_plan(ds, K, 0.5, master_seed=6)
        part = build_noise_plan(sub, K, 0.5, master_seed=6)

        def unit_draw(plan, i, j):
            n_j = plan.item_ptr[j + 1] - plan.item_ptr[j]
            return plan.draw_shares([j], [i])[0] / (coef * np.sqrt(2.0 * K * plan.h[j])) * math.sqrt(n_j)

        for i, j in zip(sub.users, sub.items):
            assert np.array_equal(part.h[j], full.h[j])
            assert np.allclose(unit_draw(part, i, j), unit_draw(full, i, j), rtol=1e-12, atol=0)
