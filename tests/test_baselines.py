"""Baselines: sampling mechanism, uniform budgets, reductions, ordering."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hdpmf.baselines import (
    BaselineKind,
    method_inputs,
    min_observed_budget,
    pdp_sample_ratings,
)
from hdpmf.config import ExperimentConfig
from hdpmf.data import RatingDataset
from hdpmf.evaluation import run_experiment
from hdpmf.exceptions import ConfigError
from hdpmf.privacy import WeightAssignment
from hdpmf.protocol import train
from hdpmf.rng import keyed_uniform


def _uniform_budget_dataset(n_entries, budget):
    users = np.repeat(np.arange(n_entries // 100), 100)
    items = np.tile(np.arange(100), n_entries // 100)
    ds = RatingDataset(users, items, np.full(n_entries, 3.0), n_entries // 100, 100, 1, 5)
    return ds, np.full(n_entries, budget)


class TestBaselineKind:
    def test_exhaustive_over_compared_methods(self):
        assert {k.value for k in BaselineKind} == {"mf", "dpmf", "pdpmf", "hdpmf", "hdpmf_r"}

    def test_flags(self):
        assert [k for k in BaselineKind if k.rescales] == [BaselineKind.HDPMF]


class TestPdpSampling:
    def test_budget_at_threshold_keeps_everything(self):
        ds, budgets = _uniform_budget_dataset(2000, 1.0)
        out = pdp_sample_ratings(ds, budgets, threshold=1.0, master_seed=0)
        assert len(out) == len(ds)

    def test_probability_formula(self):
        pi = (math.e**0.5 - 1) / (math.e - 1)
        assert pi == pytest.approx(0.3775, abs=1e-4)

    def test_empirical_keep_rate(self):
        ds, budgets = _uniform_budget_dataset(100_000, 0.5)
        out = pdp_sample_ratings(ds, budgets, threshold=1.0, master_seed=1)
        pi = (math.e**0.5 - 1) / (math.e - 1)
        assert len(out) / len(ds) == pytest.approx(pi, rel=0.01)

    def test_never_adds_or_duplicates(self, small_synth):
        budgets = np.full(len(small_synth), 0.4)
        out = pdp_sample_ratings(small_synth, budgets, threshold=1.0, master_seed=2)
        parent = set(zip(small_synth.users.tolist(), small_synth.items.tolist()))
        child = list(zip(out.users.tolist(), out.items.tolist()))
        assert len(child) == len(set(child))
        assert set(child) <= parent

    def test_monotone_in_budget(self, small_synth):
        lo = pdp_sample_ratings(small_synth, np.full(len(small_synth), 0.2), 1.0, 3)
        hi = pdp_sample_ratings(small_synth, np.full(len(small_synth), 0.8), 1.0, 3)
        assert len(lo) < len(hi)

    def test_deterministic(self, small_synth):
        budgets = np.full(len(small_synth), 0.5)
        a = pdp_sample_ratings(small_synth, budgets, 1.0, master_seed=4)
        b = pdp_sample_ratings(small_synth, budgets, 1.0, master_seed=4)
        assert np.array_equal(a.users, b.users) and np.array_equal(a.items, b.items)

    @pytest.mark.parametrize("threshold,gap", [(800.0, 1.5), (1e308, 0.0), (709.0, 1.5), (710.0, 1.5)])
    def test_threshold_past_exp_overflow_keeps_at_e_to_the_gap(self, threshold, gap):
        # for thresholds on either side of 709.78, where e^threshold
        # overflows, pi is about e^(budget - threshold); pytest turns an
        # overflow warning into an error
        ds, budgets = _uniform_budget_dataset(100_000, threshold - gap)
        out = pdp_sample_ratings(ds, budgets, threshold, master_seed=1)
        assert len(out) / len(ds) == pytest.approx(math.exp(-gap), rel=0.02)
        half = pdp_sample_ratings(ds, budgets / 2, threshold, master_seed=1)
        assert len(half) == 0

    @pytest.mark.parametrize("threshold", [1e-6, 0.1, 1.0, 16.0, 700.0])
    def test_keeps_the_ratings_whose_draw_is_below_the_expm1_ratio(self, threshold):
        # the textbook form expm1(b) / expm1(t), finite for every threshold
        # here, against the overflow-safe form the sampler computes
        ds, _ = _uniform_budget_dataset(100_000, 0.0)
        budgets = threshold * np.arange(1, len(ds) + 1) / (len(ds) + 1)  # spread over (0, threshold)
        draws = keyed_uniform(5, "pdp-sample", ds.items, ds.users, 1)[:, 0]
        expected = ds.subset(draws < np.expm1(budgets) / np.expm1(threshold))
        out = pdp_sample_ratings(ds, budgets, threshold, master_seed=5)
        assert np.array_equal(out.users, expected.users) and np.array_equal(out.items, expected.items)

    def test_threshold_must_be_positive(self, small_synth):
        with pytest.raises(ValueError):
            pdp_sample_ratings(small_synth, np.full(len(small_synth), 0.5), 0.0, 0)


class TestDpmfBudget:
    def test_min_observed_budget(self, tiny_dataset):
        w = WeightAssignment(
            np.array([0.2, 0.9, 1.0, 0.5, 0.8]), np.array([1.0, 0.6, 0.7, 0.9])
        )
        # minimum over observed pairs only
        observed = [
            w.beta[i] * w.gamma[j] for i, j in zip(tiny_dataset.users, tiny_dataset.items)
        ]
        assert min_observed_budget(tiny_dataset, w, 2.0) == pytest.approx(2.0 * min(observed))

    def test_uniform_weights_match_hdpmf_scale(self, tiny_dataset):
        w = WeightAssignment(np.ones(5), np.ones(4))
        assert min_observed_budget(tiny_dataset, w, 1.0) == 1.0


class TestCalibratedBudget:
    """A plan is calibrated only to a budget whose Laplace scale
    2 * sqrt(K) * delta / budget is a finite number > 0 and keeps every
    share and item total finite; mf draws no plan and checks none."""

    @pytest.mark.parametrize("method,weight,epsilon", [
        (BaselineKind.DPMF, 1e-200, 1e-200),  # epsilon * min w underflows to 0
        (BaselineKind.HDPMF, 1.0, 5e-324),  # 2 * delta / epsilon overflows
        (BaselineKind.HDPMF, 1.0, 1e-307),  # 2 * delta / epsilon is finite, the plan's noise is not
        (BaselineKind.PDPMF, 1.0, 5e-324),
        (BaselineKind.DPMF, 1.0, 5e-324),
    ])
    def test_unusable_budget_is_a_config_error_on_epsilon(self, tiny_dataset, method, weight, epsilon):
        w = WeightAssignment(np.full(5, weight), np.full(4, weight))
        with pytest.raises(ConfigError, match="not a finite number > 0") as info:
            method_inputs(method, tiny_dataset, w, epsilon, 2, 0)
        assert info.value.key == "epsilon"

    def test_noise_scale_that_underflows_is_a_config_error(self):
        ds = RatingDataset(np.array([0]), np.array([0]), np.array([0.0]), 1, 1, 0.0, 5e-324)
        with pytest.raises(ConfigError, match="not a finite number > 0"):  # 2 * delta / 1e308 is 0
            method_inputs(BaselineKind.HDPMF, ds, WeightAssignment(np.ones(1), np.ones(1)), 1e308, 2, 0)

    def test_mf_draws_no_plan_whatever_the_budget(self, tiny_dataset):
        w = WeightAssignment(np.ones(5), np.ones(4))
        _, _, plan = method_inputs(BaselineKind.MF, tiny_dataset, w, 5e-324, 2, 0)
        assert plan.master_seed is None


class TestReductions:
    def test_mf_equals_hdpmf_with_unit_weights_and_zero_noise(self, synth_factory):
        from hdpmf.privacy import NoisePlan

        ds = synth_factory(n_users=20, n_items=15, mean_per_user=6, master_seed=53)
        cfg = ExperimentConfig(epochs=10, eta0=0.005, lam=0.01, k=3)
        uniform = WeightAssignment(np.ones(ds.n_users), np.ones(ds.n_items))
        mf = train(*method_inputs(BaselineKind.MF, ds, uniform, 1.0, 3, 1), cfg, 1)
        hd_ds, hd_weights, _ = method_inputs(BaselineKind.HDPMF, ds, uniform, 1.0, 3, 1)
        hd = train(hd_ds, hd_weights, NoisePlan.zeros(ds, 3), cfg, 1)
        assert np.array_equal(mf.V, hd.V)

    def test_pdpmf_with_full_budgets_equals_dpmf(self, synth_factory):
        # all personal budgets at the threshold: nothing is sampled out and
        # the uniform budget equals the threshold
        ds = synth_factory(n_users=18, n_items=14, mean_per_user=6, master_seed=59)
        w = WeightAssignment(np.ones(ds.n_users), np.ones(ds.n_items))
        cfg = ExperimentConfig(epochs=8, eta0=0.005, lam=0.01, k=3)
        a = train(*method_inputs(BaselineKind.PDPMF, ds, w, 1.0, 3, 2), cfg, 2)
        b = train(*method_inputs(BaselineKind.DPMF, ds, w, 1.0, 3, 2), cfg, 2)
        assert np.array_equal(a.V, b.V) and np.array_equal(a.U, b.U)


@pytest.fixture(scope="module")
def scores(order_synth):
    return {
        method: np.array(run_experiment(ExperimentConfig(method=BaselineKind(method)), dataset=order_synth).mse_values)
        for method in ("mf", "hdpmf", "hdpmf_r", "pdpmf", "dpmf")
    }


class TestMethodOrdering:
    def test_mean_mse_ordering(self, scores):
        assert (
            scores["mf"].mean()
            < scores["hdpmf"].mean()
            < scores["pdpmf"].mean()
            < scores["dpmf"].mean()
        )

    def test_hdpmf_beats_pdpmf_significantly(self, scores):
        from scipy import stats

        # one-sided paired t-test at 90% that hdpmf's mean mse is the lower
        test = stats.ttest_rel(scores["hdpmf"], scores["pdpmf"], alternative="less")
        assert test.statistic < 0
        assert test.pvalue < 0.10

    def test_ablation_without_rescaling_is_worse_than_dpmf(self, scores):
        assert scores["hdpmf_r"].mean() > scores["dpmf"].mean()


class TestTrends:
    def test_gap_grows_with_stronger_user_privacy(self, order_synth):
        # smaller eps_uc (stronger conservative-user privacy) widens the
        # PDPMF - HDPMF gap
        gaps = {}
        for eps_uc in (0.1, 0.4):
            cfg = ExperimentConfig(eps_uc=eps_uc, seeds=(0, 1, 2))
            h, p = (
                run_experiment(replace(cfg, method=method), dataset=order_synth).mse_values
                for method in (BaselineKind.HDPMF, BaselineKind.PDPMF)
            )
            gaps[eps_uc] = np.mean(p) - np.mean(h)
        assert gaps[0.1] > gaps[0.4] > 0
