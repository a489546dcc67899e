"""Metrics, significance, orchestration, and results emission."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hdpmf
from hdpmf.baselines import BaselineKind
from hdpmf.config import ExperimentConfig
from hdpmf.evaluation import (
    ExperimentResult,
    SeedResult,
    _t_cdf,
    emit_results,
    mae,
    mse,
    paired_t_test,
    read_results,
    run_experiment,
)


class TestMetrics:
    def test_mse_zero_on_equal(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mse_single(self):
        assert mse([3.0], [1.0]) == 4.0

    def test_mae_single(self):
        assert mae([3.0], [1.0]) == 2.0

    def test_brute_force_recompute(self):
        rng = np.random.default_rng(5)
        p, t = rng.uniform(1, 5, 5), rng.uniform(1, 5, 5)
        assert mse(p, t) == pytest.approx(sum((a - b) ** 2 for a, b in zip(p, t)) / 5)
        assert mae(p, t) == pytest.approx(sum(abs(a - b) for a, b in zip(p, t)) / 5)

    def test_mae_bounded_by_rmse(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p, t = rng.uniform(1, 5, 8), rng.uniform(1, 5, 8)
            assert mae(p, t) <= math.sqrt(mse(p, t)) + 1e-12

    def test_permutation_invariance(self):
        p = np.array([1.0, 4.0, 2.5])
        t = np.array([2.0, 3.0, 2.0])
        perm = [2, 0, 1]
        assert mse(p, t) == pytest.approx(mse(p[perm], t[perm]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([], [])
        with pytest.raises(ValueError):
            mae([1.0], [])


class TestPairedTTest:
    def test_equal_samples(self):
        assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, "none")

    def test_constant_positive_differences(self):
        t, level = paired_t_test([1, 1, 1, 1, 1], [2, 2, 2, 2, 2])
        assert t == math.inf and level == "99%"

    def test_constant_negative_differences(self):
        t, level = paired_t_test([2, 2, 2], [1, 1, 1])
        assert t == -math.inf and level == "none"

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(1.0, 0.1, 5), rng.normal(1.2, 0.1, 5)
        d = b - a
        expected = d.mean() / (d.std(ddof=1) / math.sqrt(5))
        t, _ = paired_t_test(a, b)
        assert t == pytest.approx(expected)

    def test_antisymmetric(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert paired_t_test(a, b)[0] == pytest.approx(-paired_t_test(b, a)[0])

    def test_significance_thresholds(self):
        # n=5, one-sided critical values: 1.533 (90%), 2.132 (95%), 3.747 (99%)
        base = np.zeros(5)

        def shifted(t_target):
            # differences with mean m and sd 1: t = m * sqrt(5)
            d = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
            d = d / d.std(ddof=1)
            return d + t_target / math.sqrt(5)

        assert paired_t_test(base, shifted(1.0))[1] == "none"
        assert paired_t_test(base, shifted(1.6))[1] == "90%"
        assert paired_t_test(base, shifted(2.5))[1] == "95%"
        assert paired_t_test(base, shifted(4.0))[1] == "99%"

    def test_rejects_short_or_unequal(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])


class TestStudentCdf:
    """The closed-form t CDF against SciPy, the tests' oracle."""

    def test_matches_scipy_on_a_dense_grid(self):
        from scipy import stats

        # near t = 0, SciPy's nu = 1 branch drifts from the exact
        # 1/2 + atan(t)/pi by about 1e-11, so the grid steps by 0.05
        t = np.concatenate([np.linspace(-12.0, 12.0, 481), [-300.0, 300.0]])
        for nu in range(1, 60):
            ours = np.array([_t_cdf(float(x), nu) for x in t])
            np.testing.assert_allclose(ours, stats.t.cdf(t, nu), rtol=0, atol=5e-15)

    def test_infinities_and_zero(self):
        for nu in (1, 2, 3, 4, 59, 200):
            assert _t_cdf(math.inf, nu) == 1.0
            assert _t_cdf(-math.inf, nu) == 0.0
            assert _t_cdf(0.0, nu) == 0.5

    def test_level_agrees_with_the_ppf_decision(self):
        from scipy import stats

        def ppf_level(t, n):
            for level, p in (("99%", 0.99), ("95%", 0.95), ("90%", 0.90)):
                if t > stats.t.ppf(p, n - 1):
                    return level
            return "none"

        rng = np.random.default_rng(5)
        for n in range(2, 41):
            critical = stats.t.ppf([0.9, 0.95, 0.99], n - 1)
            targets = np.concatenate([
                critical * (1 + 1e-9), critical * (1 - 1e-9), rng.normal(1.5, 2.0, size=10),
            ])
            base = np.zeros(n)
            d = np.linspace(-1.0, 1.0, n)
            d = d / d.std(ddof=1)
            for target in targets:
                t, level = paired_t_test(base, d + target / math.sqrt(n))
                assert level == ppf_level(t, n)


def test_runs_with_scipy_blocked():
    # numpy is the only runtime dependency: with every scipy import made to
    # fail, the package imports and both statistics run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hdpmf.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import hdpmf\n"
        "from hdpmf.diagnostics import MIN_SAMPLES\n"
        "assert hdpmf.paired_t_test([1.0, 2.0, 3.0], [2.0, 3.5, 4.0])[1] == '99%'\n"
        "assert hdpmf.check_noise_composition(10, 4.0, 1.0, 5, MIN_SAMPLES).passed\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _csv_config(tmp_path, ds, **overrides):
    lines = ["user,item,rating"]
    lines += [f"{u},{i},{int(r)}" for u, i, r in zip(ds.users, ds.items, ds.ratings)]
    data_path = tmp_path / "ratings.csv"
    data_path.write_text("\n".join(lines) + "\n")
    defaults = dict(
        dataset=str(data_path), format="csv", scale_min=1.0, scale_max=5.0,
        method=BaselineKind.HDPMF, k=3, epochs=5, eta0=0.005, lam=0.01,
        n_test=3, seeds=(0, 1), output=str(tmp_path / "results.csv"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_deterministic_across_invocations(self, synth_factory, tmp_path):
        ds = synth_factory(n_users=15, n_items=12, mean_per_user=5, master_seed=61)
        cfg = _csv_config(tmp_path, ds)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.mse_values == b.mse_values
        assert a.mae_values == b.mae_values

    def test_single_seed_convention(self, synth_factory, tmp_path):
        ds = synth_factory(n_users=15, n_items=12, mean_per_user=5, master_seed=61)
        cfg = _csv_config(tmp_path, ds, seeds=(3,))
        res = run_experiment(cfg)
        assert len(res.seed_results) == 1
        assert res.mse_std == 0.0 and res.mae_std == 0.0

    def test_mae_squared_at_most_mse(self, synth_factory, tmp_path):
        ds = synth_factory(n_users=15, n_items=12, mean_per_user=5, master_seed=61)
        res = run_experiment(_csv_config(tmp_path, ds))
        for sr in res.seed_results:
            assert sr.mae**2 <= sr.mse + 1e-12

    @pytest.mark.parametrize("engine", ["kernel", "messages"])
    def test_diverged_seed_recorded_as_partial(self, synth_factory, tmp_path, engine):
        ds = synth_factory(n_users=15, n_items=12, mean_per_user=5, master_seed=61)
        # absurd learning rate overflows the factors deterministically, and
        # silently: a RuntimeWarning is an error in this suite
        cfg = _csv_config(tmp_path, ds, method=BaselineKind.MF, eta0=1e9, epochs=60, engine=engine)
        res = run_experiment(cfg)
        assert res.partial
        assert all(isinstance(s, int) for s, _ in res.failures)
        assert "epoch" in res.failures[0][1]


class TestGridSearchCv:
    def test_selects_from_grid_and_tables_everything(self, synth_factory, tmp_path):
        from hdpmf.evaluation import grid_search_cv

        ds = synth_factory(n_users=30, n_items=25, mean_per_user=10, master_seed=63)
        cfg = _csv_config(tmp_path, ds, method=BaselineKind.MF, epochs=20)
        best, table = grid_search_cv(cfg, ds, [0.005, 0.001], [0.01, 0.001], n_folds=3)
        assert best in table
        assert len(table) == 4
        assert table[best] == min(table.values())

    def test_divergent_cell_scores_infinite(self, synth_factory, tmp_path):
        import math

        from hdpmf.evaluation import grid_search_cv

        ds = synth_factory(n_users=20, n_items=15, mean_per_user=6, master_seed=64)
        cfg = _csv_config(tmp_path, ds, method=BaselineKind.MF, epochs=60)
        best, table = grid_search_cv(cfg, ds, [1e9, 0.001], [0.01], n_folds=2)
        assert table[(1e9, 0.01)] == math.inf
        assert best == (0.001, 0.01)


class TestEmitResults:
    def _result(self, tmp_path) -> ExperimentResult:
        cfg = ExperimentConfig(
            dataset="data.csv", format="csv", method=BaselineKind.HDPMF,
            seeds=(0, 1, 2, 3, 4), output=str(tmp_path / "out.csv"),
        )
        res = ExperimentResult(method=BaselineKind.HDPMF, config=cfg)
        rng = np.random.default_rng(9)
        for seed in range(5):
            res.seed_results.append(
                SeedResult(seed, float(rng.uniform(1, 2)), float(rng.uniform(0.7, 1)))
            )
        return res

    def test_row_count(self, tmp_path):
        res = self._result(tmp_path)
        path = tmp_path / "out.csv"
        emit_results([res], path)
        seed_rows, agg_rows = read_results(path)
        assert len(seed_rows) == 5
        assert len(agg_rows) == 1

    def test_reemit_byte_identical(self, tmp_path):
        res = self._result(tmp_path)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results([res], p1, provenance=["k = v"])
        emit_results([res], p2, provenance=["k = v"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_exact_values(self, tmp_path):
        res = self._result(tmp_path)
        path = tmp_path / "out.csv"
        emit_results([res], path)
        seed_rows, agg_rows = read_results(path)
        for row, sr in zip(seed_rows, res.seed_results):
            assert row["mse"] == sr.mse  # exact, full-precision decimals
            assert row["mae"] == sr.mae
            assert row["seed"] == sr.seed
        assert agg_rows[0]["mse_mean"] == res.mse_mean
        assert agg_rows[0]["mse_std"] == res.mse_std

    def test_header_naming_aggregate_roundtrips(self, tmp_path):
        # the header echoes the dataset path; only the section marker
        # opens the aggregate section
        res = self._result(tmp_path)
        res.config = replace(res.config, dataset="aggregate-ratings.csv")
        path = tmp_path / "out.csv"
        emit_results([res], path, provenance=[f"{k} = {v}" for k, v in res.config.effective_items()])
        seed_rows, agg_rows = read_results(path)
        assert [row["mse"] for row in seed_rows] == [r.mse for r in res.seed_results]
        assert [row["dataset"] for row in seed_rows + agg_rows] == ["aggregate-ratings.csv"] * 6
        assert agg_rows[0]["mae_mean"] == res.mae_mean

    @pytest.mark.parametrize("dataset", ["ratings/a,b.csv", 'ratings/a"b.csv'])
    def test_dataset_with_csv_specials_roundtrips(self, tmp_path, dataset):
        res = self._result(tmp_path)
        res.config = replace(res.config, dataset=dataset)
        path = tmp_path / "out.csv"
        emit_results([res], path, provenance=[f"{k} = {v}" for k, v in res.config.effective_items()])
        seed_rows, agg_rows = read_results(path)
        assert [row["dataset"] for row in seed_rows + agg_rows] == [dataset] * 6
        assert [row["mse"] for row in seed_rows] == [r.mse for r in res.seed_results]
        assert [row["seed"] for row in seed_rows] == [r.seed for r in res.seed_results]
        assert agg_rows[0]["mae_std"] == res.mae_std

    def test_plain_dataset_path_is_unquoted(self, tmp_path):
        res = self._result(tmp_path)
        path = tmp_path / "out.csv"
        emit_results([res], path)
        rows = [line for line in path.read_text().splitlines() if line.startswith("hdpmf,")]
        assert len(rows) == 6
        assert all(line.startswith("hdpmf,data.csv,10,") and '"' not in line for line in rows)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "x.csv")
