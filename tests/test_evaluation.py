"""Metrics, orchestration, and results emission."""

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
    emit_results,
    mae,
    mse,
    read_results,
    run_experiment,
    run_single_seed,
)
from hdpmf.exceptions import ConfigError


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


def test_runs_with_scipy_blocked():
    # numpy is the only runtime dependency: with every scipy import made to
    # fail, the package imports and the noise diagnostic runs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hdpmf.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import hdpmf\n"
        "from hdpmf.diagnostics import MIN_SAMPLES, check_noise_composition\n"
        "assert check_noise_composition(10, 4.0, 1.0, 5, MIN_SAMPLES).passed\n"
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

    @pytest.mark.parametrize("method", list(BaselineKind))
    def test_every_method_but_mf_draws_weights(self, synth_factory, tmp_path, monkeypatch, method):
        # mf neither trains on weights nor rescales by them
        import hdpmf.evaluation as evaluation

        draws = []
        allocate = evaluation.allocate_weights
        monkeypatch.setattr(evaluation, "allocate_weights", lambda *a: draws.append(a) or allocate(*a))
        ds = synth_factory(n_users=15, n_items=12, mean_per_user=5, master_seed=61)
        res = run_experiment(_csv_config(tmp_path, ds, method=method, seeds=(3,)))
        assert len(res.seed_results) == 1
        assert len(draws) == (method is not BaselineKind.MF)

    def test_trace_key_without_a_handle_is_refused_before_any_draw(self, synth_factory, tmp_path, monkeypatch):
        # the run writes its update trace only to a handle it is passed, so
        # a config naming a trace file with no handle would drop the key
        import hdpmf.evaluation as evaluation

        def never(*args):
            raise AssertionError("a seed was drawn for a run that cannot write its trace")

        monkeypatch.setattr(evaluation, "allocate_weights", never)
        monkeypatch.setattr(evaluation, "split_leave_n_out", never)
        ds = synth_factory(n_users=15, n_items=12, mean_per_user=5, master_seed=61)
        cfg = _csv_config(tmp_path, ds, engine="messages", trace=str(tmp_path / "trace.log"))
        for run in (lambda: run_experiment(cfg), lambda: run_single_seed(cfg, ds, 0)):
            with pytest.raises(ConfigError, match="'trace'.*open handle") as info:
                run()
            assert info.value.key == "trace"
        assert not (tmp_path / "trace.log").exists()

    @pytest.mark.parametrize("engine", ["kernel", "messages"])
    def test_diverged_seed_recorded_as_partial(self, synth_factory, tmp_path, engine):
        ds = synth_factory(n_users=15, n_items=12, mean_per_user=5, master_seed=61)
        # absurd learning rate overflows the factors deterministically, and
        # silently: a RuntimeWarning is an error in this suite
        cfg = _csv_config(tmp_path, ds, method=BaselineKind.MF, eta0=1e9, epochs=60, engine=engine)
        res = run_experiment(cfg)
        assert res.failures
        assert all(isinstance(s, int) for s, _ in res.failures)
        assert "epoch" in res.failures[0][1]
        failed = [r for r in res.runs if r.failure is not None]
        assert failed and all(math.isnan(r.mse) and math.isnan(r.mae) for r in failed)


class TestEmitResults:
    def _result(self, tmp_path) -> ExperimentResult:
        cfg = ExperimentConfig(
            dataset="data.csv", format="csv", method=BaselineKind.HDPMF,
            seeds=(0, 1, 2, 3, 4), output=str(tmp_path / "out.csv"),
        )
        res = ExperimentResult(config=cfg)
        rng = np.random.default_rng(9)
        for seed in range(5):
            res.runs.append(SeedResult(seed, float(rng.uniform(1, 2)), float(rng.uniform(0.7, 1))))
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
